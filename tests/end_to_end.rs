//! Cross-crate integration tests: the full paper pipeline — synthetic data,
//! C2LSH / VA-file / tree indexes, workload replay, histogram construction,
//! caches, Algorithm 1 — exercised end to end.
//!
//! The load-bearing invariant throughout: **caching never changes query
//! results**, only I/O.

use std::sync::Arc;

use exploit_every_bit::cache::cva::cva_cache;
use exploit_every_bit::cache::point::{CompactPointCache, ExactPointCache, NoCache, PointCache};
use exploit_every_bit::core::dataset::{Dataset, PointId};
use exploit_every_bit::core::distance::euclidean;
use exploit_every_bit::core::histogram::HistogramKind;
use exploit_every_bit::core::prelude::*;
use exploit_every_bit::index::lsh::{C2lsh, C2lshParams};
use exploit_every_bit::index::traits::CandidateIndex;
use exploit_every_bit::index::VaFile;
use exploit_every_bit::query::{replay_workload, KnnEngine, Replay};
use exploit_every_bit::storage::PointFile;
use exploit_every_bit::workload::synth::gaussian_mixture;
use exploit_every_bit::workload::{QueryLog, QueryLogConfig};

struct Env {
    dataset: Dataset,
    index: C2lsh,
    file: PointFile,
    replay: Replay,
    quantizer: Quantizer,
    log: QueryLog,
    k: usize,
}

fn env() -> Env {
    let raw = gaussian_mixture(2_000, 24, 10, 10.0, 0.4, 77);
    let log = QueryLog::generate(
        &raw,
        &QueryLogConfig {
            pool_size: 100,
            workload_len: 400,
            test_len: 20,
            ..Default::default()
        },
    );
    let dataset = log.dataset.clone();
    let index = C2lsh::build(&dataset, C2lshParams::default());
    let file = PointFile::new(dataset.clone());
    let k = 5;
    let replay = replay_workload(&index, &dataset, &log.workload, k);
    let quantizer = Quantizer::for_range(dataset.value_range());
    Env {
        dataset,
        index,
        file,
        replay,
        quantizer,
        log,
        k,
    }
}

fn hc_scheme(env: &Env, kind: HistogramKind, tau: u32) -> Arc<dyn ApproxScheme> {
    let freq = if kind.uses_workload_frequencies() {
        env.replay.f_prime(&env.dataset, &env.quantizer)
    } else {
        env.quantizer.frequency_array(env.dataset.as_flat())
    };
    let hist = kind.build(&freq, 1 << tau);
    Arc::new(GlobalScheme::new(
        hist,
        env.quantizer.clone(),
        env.dataset.dim(),
    ))
}

/// Results under any cache must equal the NO-CACHE results (as id sets; ties
/// broken arbitrarily are tolerated by comparing distance multisets).
#[test]
fn all_caches_preserve_results() {
    let env = env();
    let budget = env.dataset.file_bytes() / 4;
    let caches: Vec<(String, Box<dyn PointCache>)> = vec![
        ("nocache".into(), Box::new(NoCache)),
        (
            "exact".into(),
            Box::new(ExactPointCache::hff(
                &env.dataset,
                &env.replay.ranking,
                budget,
            )),
        ),
        (
            "hc-w".into(),
            Box::new(CompactPointCache::hff(
                &env.dataset,
                &env.replay.ranking,
                budget,
                hc_scheme(&env, HistogramKind::EquiWidth, 8),
            )),
        ),
        (
            "hc-o".into(),
            Box::new(CompactPointCache::hff(
                &env.dataset,
                &env.replay.ranking,
                budget,
                hc_scheme(&env, HistogramKind::KnnOptimal, 8),
            )),
        ),
        (
            "c-va".into(),
            Box::new(cva_cache(&env.dataset, &env.quantizer, budget)),
        ),
    ];

    // Reference distances from the NO-CACHE pipeline.
    let reference: Vec<Vec<f64>> = {
        let mut engine = KnnEngine::new(&env.index, &env.file, Box::new(NoCache));
        env.log
            .test
            .iter()
            .map(|q| {
                let (ids, _) = engine.query(q, env.k);
                let mut d: Vec<f64> = ids
                    .iter()
                    .map(|id| euclidean(q, env.dataset.point(*id)))
                    .collect();
                d.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
                d
            })
            .collect()
    };

    for (name, cache) in caches {
        let mut engine = KnnEngine::new(&env.index, &env.file, cache);
        for (q, want) in env.log.test.iter().zip(&reference) {
            let (ids, _) = engine.query(q, env.k);
            assert_eq!(ids.len(), want.len(), "{name}: result size");
            let mut got: Vec<f64> = ids
                .iter()
                .map(|id| euclidean(q, env.dataset.point(*id)))
                .collect();
            got.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
            for (g, w) in got.iter().zip(want) {
                assert!((g - w).abs() < 1e-9, "{name}: {g} vs {w}");
            }
        }
    }
}

/// The headline mechanism: at equal budget, the HC-O compact cache must do
/// fewer refinement I/Os than the EXACT cache, which must do fewer than
/// NO-CACHE.
#[test]
fn compact_cache_reduces_io_ordering() {
    let env = env();
    let budget = env.dataset.file_bytes() / 4;
    let measure = |cache: Box<dyn PointCache>| -> f64 {
        let mut engine = KnnEngine::new(&env.index, &env.file, cache);
        engine.run_batch(&env.log.test, env.k).avg_io_pages
    };
    let none = measure(Box::new(NoCache));
    let exact = measure(Box::new(ExactPointCache::hff(
        &env.dataset,
        &env.replay.ranking,
        budget,
    )));
    let hco = measure(Box::new(CompactPointCache::hff(
        &env.dataset,
        &env.replay.ranking,
        budget,
        hc_scheme(&env, HistogramKind::KnnOptimal, 8),
    )));
    assert!(exact < none, "EXACT {exact} !< NO-CACHE {none}");
    assert!(hco < exact, "HC-O {hco} !< EXACT {exact}");
}

/// C2LSH candidate sets must contain most true nearest neighbors (recall of
/// the candidate generation phase).
#[test]
fn c2lsh_candidates_have_high_recall() {
    let env = env();
    let mut hits = 0usize;
    let mut total = 0usize;
    for q in &env.log.test {
        let cands = env.index.candidates(q, env.k);
        let mut all: Vec<(f64, PointId)> = env
            .dataset
            .iter()
            .map(|(id, p)| (euclidean(q, p), id))
            .collect();
        all.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite"));
        for (_, id) in all.into_iter().take(env.k) {
            total += 1;
            if cands.contains(&id) {
                hits += 1;
            }
        }
    }
    let recall = hits as f64 / total as f64;
    assert!(recall > 0.8, "candidate recall {recall}");
}

/// VA-file through the same pipeline is exact end to end.
#[test]
fn vafile_pipeline_is_exact() {
    let env = env();
    let va = VaFile::build(&env.dataset, 6);
    let mut engine = KnnEngine::new(&va, &env.file, Box::new(NoCache));
    for q in env.log.test.iter().take(5) {
        let (ids, _) = engine.query(q, env.k);
        let mut got: Vec<f64> = ids
            .iter()
            .map(|id| euclidean(q, env.dataset.point(*id)))
            .collect();
        got.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let mut all: Vec<f64> = env.dataset.iter().map(|(_, p)| euclidean(q, p)).collect();
        all.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        for (g, w) in got.iter().zip(all.iter().take(env.k)) {
            assert!((g - w).abs() < 1e-9, "VA-file pipeline inexact: {g} vs {w}");
        }
    }
}

/// Cost-model sanity on a live system: the estimated I/O for HC-W at the
/// deployed τ must be within a factor of ~3 of the measured I/O.
#[test]
fn cost_model_tracks_measured_io() {
    use exploit_every_bit::core::cost_model::estimate_equiwidth;
    let env = env();
    let budget = env.dataset.file_bytes() / 4;
    let stats = env.replay.workload_stats(&env.dataset);
    for tau in [6u32, 8, 10] {
        let est = estimate_equiwidth(&stats, budget, &env.quantizer, tau);
        let cache = CompactPointCache::hff(
            &env.dataset,
            &env.replay.ranking,
            budget,
            hc_scheme(&env, HistogramKind::EquiWidth, tau),
        );
        let mut engine = KnnEngine::new(&env.index, &env.file, Box::new(cache));
        let measured = engine.run_batch(&env.log.test, env.k).avg_io_pages;
        let ratio = (est.refine_io + 1.0) / (measured + 1.0);
        assert!(
            (0.2..=5.0).contains(&ratio),
            "τ={tau}: est {:.1} vs measured {measured:.1}",
            est.refine_io
        );
    }
}

/// LRU caches warm up: I/O on a repeated query drops after the first run.
#[test]
fn lru_cache_warms_up() {
    let env = env();
    let budget = env.dataset.file_bytes() / 2;
    let cache = ExactPointCache::lru(env.dataset.dim(), budget);
    let mut engine = KnnEngine::new(&env.index, &env.file, Box::new(cache));
    let q = &env.log.test[0];
    let (_, cold) = engine.query(q, env.k);
    let (_, warm) = engine.query(q, env.k);
    assert!(
        warm.io_pages < cold.io_pages,
        "warm {} !< cold {}",
        warm.io_pages,
        cold.io_pages
    );
    assert!(warm.cache_hits > 0);
}

/// The generality claim (§6): the same pipeline and caches run unchanged on
/// E2LSH, and results match the candidate sets exactly.
#[test]
fn e2lsh_pipeline_parity() {
    use exploit_every_bit::index::lsh::{E2lsh, E2lshParams};
    let env = env();
    let e2 = E2lsh::build(&env.dataset, E2lshParams::default());
    let budget = env.dataset.file_bytes() / 4;
    let replay = replay_workload(&e2, &env.dataset, &env.log.workload, env.k);
    let cache = CompactPointCache::hff(
        &env.dataset,
        &replay.ranking,
        budget,
        hc_scheme(&env, HistogramKind::KnnOptimal, 8),
    );
    let mut cached_engine = KnnEngine::new(&e2, &env.file, Box::new(cache));
    let mut bare_engine = KnnEngine::new(&e2, &env.file, Box::new(NoCache));
    for q in env.log.test.iter().take(8) {
        let (a, st_a) = cached_engine.query(q, env.k);
        let (b, _) = bare_engine.query(q, env.k);
        let dist = |ids: &[PointId]| -> Vec<f64> {
            let mut d: Vec<f64> = ids
                .iter()
                .map(|id| euclidean(q, env.dataset.point(*id)))
                .collect();
            d.sort_by(|x, y| x.partial_cmp(y).expect("finite"));
            d
        };
        let (da, db) = (dist(&a), dist(&b));
        for (x, y) in da.iter().zip(&db) {
            assert!((x - y).abs() < 1e-9, "E2LSH cached vs bare mismatch");
        }
        assert!(st_a.candidates > 0);
    }
}

/// Theorem 1 holds empirically: the measured compact-cache hit ratio never
/// exceeds `(L_value / τ) · ρ*_hit` (the exact cache's hit ratio at the same
/// budget), up to the word-alignment slack the theorem's idealized packing
/// ignores.
#[test]
fn theorem1_hit_ratio_bound_holds() {
    use exploit_every_bit::core::cost_model::L_VALUE_BITS;
    let env = env();
    let budget = env.dataset.file_bytes() / 20; // small enough that ρ*_hit < 1
    let tau = 8u32;
    let measure_hits = |cache: Box<dyn PointCache>| -> f64 {
        let mut engine = KnnEngine::new(&env.index, &env.file, cache);
        let stats: Vec<_> = env
            .log
            .test
            .iter()
            .map(|q| engine.query(q, env.k).1)
            .collect();
        let hits: usize = stats.iter().map(|s| s.cache_hits).sum();
        let cands: usize = stats.iter().map(|s| s.candidates).sum();
        hits as f64 / cands.max(1) as f64
    };
    let rho_exact = measure_hits(Box::new(ExactPointCache::hff(
        &env.dataset,
        &env.replay.ranking,
        budget,
    )));
    let rho_compact = measure_hits(Box::new(CompactPointCache::hff(
        &env.dataset,
        &env.replay.ranking,
        budget,
        hc_scheme(&env, HistogramKind::EquiWidth, tau),
    )));
    let bound = (L_VALUE_BITS as f64 / tau as f64) * rho_exact;
    assert!(
        rho_compact <= bound.min(1.0) + 0.05,
        "Theorem 1 violated: ρ_hit {rho_compact:.3} > ({L_VALUE_BITS}/{tau})·{rho_exact:.3}"
    );
    assert!(
        rho_compact > rho_exact,
        "compact cache should hit more often"
    );
}

/// The serving node-cache tower end to end: an iDistance tree query through
/// `SharedNodeCache` → `SwappableNodeCache` → `ShardedNodeCache`. The cache
/// starts empty and admits the leaves the first pass reads, so the second
/// pass of the same queries runs on compact hits; both passes must return
/// the exact top-k (brute force), and every cached leaf's bounds must be
/// bit-equal to per-member `scheme.bounds`.
#[test]
fn sharded_node_cache_tree_search_is_exact_and_bounds_match_scheme() {
    use exploit_every_bit::cache::node::NodeLookup;
    use exploit_every_bit::cache::{ConcurrentNodeCache, SharedNodeCache, SwappableNodeCache};
    use exploit_every_bit::index::{IDistance, LeafedIndex};
    use exploit_every_bit::query::TreeSearchEngine;
    use exploit_every_bit::serve::ShardedNodeCache;

    let env = env();
    let scheme = hc_scheme(&env, HistogramKind::KnnOptimal, 8);
    let tree = IDistance::build(&env.dataset, 8, 16, 3);
    let tower: Arc<dyn ConcurrentNodeCache> = Arc::new(SwappableNodeCache::new(Arc::new(
        ShardedNodeCache::lru(Arc::clone(&scheme), env.dataset.file_bytes() / 2, 4),
    )));
    let adapter = SharedNodeCache::new(Arc::clone(&tower));
    let engine = TreeSearchEngine::new(&tree, &env.dataset, &env.file, &adapter);

    let mut compact_hits = 0;
    for pass in 0..2 {
        for q in env.log.test.iter().take(8) {
            let (got, stats) = engine.query(q, env.k);
            assert!(stats.is_exact(), "pass {pass}: no faults are injected");
            let mut all: Vec<f64> = env.dataset.iter().map(|(_, p)| euclidean(q, p)).collect();
            all.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
            assert_eq!(got.len(), env.k);
            for ((id, d), want) in got.iter().zip(&all) {
                assert!((d - want).abs() < 1e-9, "pass {pass}: {d} vs {want}");
                assert!((euclidean(q, env.dataset.point(*id)) - d).abs() < 1e-9);
            }
        }
        let q = &env.log.test[0];
        for leaf in 0..tree.num_leaves() {
            let NodeLookup::Bounds(bounds) = tower.lookup(q, leaf) else {
                continue;
            };
            compact_hits += 1;
            let members = tree.leaf_points(leaf);
            assert_eq!(bounds.len(), members.len(), "leaf {leaf}");
            for (b, &id) in bounds.iter().zip(members) {
                let want = scheme.bounds(q, &scheme.encode(env.dataset.point(id)));
                assert_eq!(b.lb.to_bits(), want.lb.to_bits(), "leaf {leaf} {id}");
                assert_eq!(b.ub.to_bits(), want.ub.to_bits(), "leaf {leaf} {id}");
            }
        }
    }
    assert!(compact_hits > 0, "the searches admitted no leaf");
}

/// Tier-1's view of the serving layer: one worker each over the flat, tree
/// and live-ingest backends. Every `Done` answer must be the brute-force
/// top-k, and a request whose evaluation panics (a query of the wrong
/// dimension trips each engine's own checks) must resolve as `Failed` while
/// the same worker — on an engine rebuilt through its backend's own
/// constructor — answers the next request exactly.
#[test]
fn flat_tree_and_ingest_servers_answer_exactly_and_survive_a_panicking_request() {
    use exploit_every_bit::cache::{ConcurrentNodeCache, ConcurrentPointCache};
    use exploit_every_bit::index::IDistance;
    use exploit_every_bit::ingest::{IngestConfig, IngestEngine, WalDevice};
    use exploit_every_bit::obs::MetricsRegistry;
    use exploit_every_bit::query::{SharedParts, TreeSharedParts};
    use exploit_every_bit::serve::{
        QueryOutcome, QueryServer, ServeConfig, ShardedCompactCache, ShardedNodeCache,
    };

    let k = 4;
    let dataset = Arc::new(gaussian_mixture(300, 8, 4, 10.0, 0.5, 5));
    let queries: Vec<Vec<f32>> = (0..6)
        .map(|i| {
            let mut q = dataset.point(PointId(i * 41)).to_vec();
            q[0] += 0.3;
            q
        })
        .collect();
    let quantizer = Quantizer::for_range(dataset.value_range());
    let scheme: Arc<dyn ApproxScheme> = Arc::new(GlobalScheme::new(
        HistogramKind::EquiWidth.build(&quantizer.frequency_array(dataset.as_flat()), 32),
        quantizer,
        dataset.dim(),
    ));
    let budget = dataset.file_bytes() / 4;
    let config = || ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    };

    let flat = {
        let parts = SharedParts::new(
            Arc::new(VaFile::build(&dataset, 6)),
            Arc::new(PointFile::new(dataset.as_ref().clone())),
        );
        let cache: Arc<dyn ConcurrentPointCache> =
            Arc::new(ShardedCompactCache::lru(Arc::clone(&scheme), budget, 2));
        QueryServer::start(parts, cache, config(), &MetricsRegistry::new())
    };
    let tree = {
        let parts = TreeSharedParts::new(
            Arc::new(IDistance::build(&dataset, 4, 8, 3)),
            Arc::clone(&dataset),
            Arc::new(PointFile::new(dataset.as_ref().clone())),
        );
        let cache: Arc<dyn ConcurrentNodeCache> =
            Arc::new(ShardedNodeCache::lru(Arc::clone(&scheme), budget, 2));
        QueryServer::start_tree(parts, cache, config(), &MetricsRegistry::new())
    };
    let ingest = {
        let registry = MetricsRegistry::new();
        let engine = IngestEngine::new(
            Arc::new(WalDevice::new()),
            IngestConfig::new(dataset.dim()),
            &registry,
        );
        for (id, p) in dataset.iter() {
            engine.insert(id, p.to_vec()).expect("admitted");
            if id.0 == 200 {
                engine.seal(); // a sealed segment plus a memtable tail
            }
        }
        QueryServer::start_ingest(Arc::new(engine), config(), &registry)
    };

    for (backend, server) in [("flat", flat), ("tree", tree), ("ingest", ingest)] {
        let check_exact = |q: &Vec<f32>| {
            let ticket = server.submit(q.clone(), k, None).expect("admitted");
            let QueryOutcome::Done(response) = ticket.wait() else {
                panic!("{backend}: no faults are injected, the answer must be Done");
            };
            let mut got: Vec<f64> = response
                .ids
                .iter()
                .map(|&id| euclidean(q, dataset.point(id)))
                .collect();
            got.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
            let mut all: Vec<f64> = dataset.iter().map(|(_, p)| euclidean(q, p)).collect();
            all.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
            assert_eq!(got.len(), k, "{backend}");
            for (g, w) in got.iter().zip(&all) {
                assert!((g - w).abs() < 1e-9, "{backend}: {g} vs brute force {w}");
            }
        };
        queries.iter().for_each(check_exact);

        let poison = server.submit(vec![1.0], k, None).expect("admitted");
        match poison.wait() {
            QueryOutcome::Failed { .. } => {}
            other => panic!("{backend}: a 1-d query must fail its ticket, got {other:?}"),
        }
        // The one worker is still there, on a rebuilt engine (the respawn
        // follows the failed ticket's fulfilment, so count it afterwards).
        queries.iter().for_each(check_exact);
        let snap = server.registry().snapshot();
        assert_eq!(snap.counter("serve.worker_respawns"), Some(1), "{backend}");
        server.shutdown();
    }
}
