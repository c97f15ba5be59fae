//! Chaos experiment: drive the concurrent query service through a
//! fault-injected page store and measure what the robustness layer delivers
//! — availability, degraded-answer rate, tail latency — while *verifying*
//! that no answer is ever silently wrong.
//!
//! ```text
//! cargo run --release -p hc-bench --bin chaos -- \
//!     --rate 0.0 --rate 0.01 --rate 0.05 --requests 400
//! cargo run --release -p hc-bench --bin chaos -- --smoke   # CI
//! ```
//!
//! Per sweep point the harness replays the same Zipf request stream through
//! a [`FaultInjector`] at a mixed fault rate (transient / corrupt / torn /
//! unreadable in the `FaultConfig::mixed` proportions, fixed seed) and
//! checks every fulfilment:
//!
//! * `Done` — sorted result distances must equal the fault-free reference
//!   (distance multisets: bound-tie exclusions may reorder equal-distance
//!   ids, DESIGN.md §10),
//! * `Degraded { missing }` — sorted result distances must equal the brute
//!   top-k over that query's candidate set minus `missing`: exact over what
//!   was readable, and the loss is declared,
//! * `Failed` / hung tickets — never, under pure storage faults.
//!
//! Rate 0.0 must be bit-identical to the bare store (the injector wrapper
//! is free), and at a 1% fault rate availability must stay ≥ 99%.

use std::sync::Arc;

use hc_bench::world::{World, DEFAULT_TAU};
use hc_core::dataset::PointId;
use hc_core::distance::euclidean;
use hc_core::histogram::HistogramKind;
use hc_index::lsh::C2lsh;
use hc_index::traits::{CandidateIndex, LeafedIndex};
use hc_index::IDistance;
use hc_obs::{MetricsRegistry, SloConfig, SloMonitor, SloState};
use hc_query::{SharedParts, TreeSharedParts};
use hc_serve::{run_closed_loop, QueryServer, ServeConfig, ShardedCompactCache, ShardedNodeCache};
use hc_storage::io_stats::IoModel;
use hc_storage::{FaultConfig, FaultInjector, RetryPolicy, Scrubber};
use hc_workload::zipf::Zipf;
use hc_workload::{Preset, Scale};
use rand::rngs::StdRng;
use rand::SeedableRng;

const ZIPF_S: f64 = 0.8;
const SEED: u64 = 0xC4A0;
const FAULT_SEED: u64 = 0xFA17;
const SHARDS: usize = 8;
const CLIENTS: usize = 8;
const WORKERS: usize = 4;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let get_all = |flag: &str| -> Vec<String> {
        args.windows(2)
            .filter(|w| w[0] == flag)
            .map(|w| w[1].clone())
            .collect()
    };
    let scale = match get_all("--scale").pop().as_deref().unwrap_or("test") {
        "test" => Scale::Test,
        "bench" => Scale::Bench,
        "full" => Scale::Full,
        other => panic!("unknown scale {other:?}"),
    };
    let requests: usize = get_all("--requests")
        .pop()
        .map(|v| v.parse().expect("numeric --requests"))
        .unwrap_or(if smoke { 150 } else { 400 });
    let rates: Vec<f64> = {
        let rs = get_all("--rate");
        if rs.is_empty() {
            if smoke {
                vec![0.0, 0.01, 0.05]
            } else {
                vec![0.0, 0.005, 0.01, 0.02, 0.05]
            }
        } else {
            rs.iter()
                .map(|v| v.parse().expect("numeric --rate"))
                .collect()
        }
    };

    let k = 10;
    let world = World::build(Preset::nus_wide(scale), k);
    let scheme = world.scheme(HistogramKind::KnnOptimal, DEFAULT_TAU);
    let cache_bytes = world.cache_bytes;

    let zipf = Zipf::new(world.log.pool.len(), ZIPF_S);
    let mut rng = StdRng::seed_from_u64(SEED);
    let queries: Vec<Vec<f32>> = (0..requests)
        .map(|_| world.log.pool[zipf.sample(&mut rng)].clone())
        .collect();

    // Verification data, computed fault-free and offline: each request's
    // candidate set and the exact sorted distances of its top-k. The serve
    // path must reproduce these (or a declared-degraded subset) regardless
    // of the fault schedule.
    let per_query: Vec<(Vec<PointId>, Vec<f64>)> = queries
        .iter()
        .map(|q| {
            let cands = world.index.candidates(q, k);
            let mut dists: Vec<f64> = cands
                .iter()
                .map(|&id| euclidean(q, world.dataset.point(id)))
                .collect();
            dists.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
            dists.truncate(k);
            (cands, dists)
        })
        .collect();
    let dataset = world.dataset.clone();
    let sorted_dists = |qi: usize, ids: &[PointId]| -> Vec<f64> {
        let mut d: Vec<f64> = ids
            .iter()
            .map(|&id| euclidean(&queries[qi], dataset.point(id)))
            .collect();
        d.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        d
    };
    let assert_close = |got: &[f64], want: &[f64], ctx: &str| {
        assert_eq!(got.len(), want.len(), "{ctx}: result count diverged");
        for (g, w) in got.iter().zip(want) {
            assert!((g - w).abs() < 1e-9, "{ctx}: distance {g} vs {w}");
        }
    };

    println!(
        "dataset={} n={} d={} requests={requests} k={k} CS={:.1}MB workers={WORKERS}",
        world.preset.name,
        dataset.len(),
        dataset.dim(),
        cache_bytes as f64 / 1e6,
    );

    let World { index, file, .. } = world;
    let index = Arc::new(index);
    let file = Arc::new(file);
    let registry = MetricsRegistry::global();

    println!(
        "{:<8} {:>8} {:>9} {:>9} {:>8} {:>10} {:>9}",
        "rate", "avail", "degraded", "failed", "retries", "p99 (ms)", "qps"
    );
    for &rate in &rates {
        let injector = Arc::new(FaultInjector::new(
            Arc::clone(&file),
            FaultConfig::mixed(FAULT_SEED, rate),
        ));
        let retries_before = file.stats().snapshot().pages_retried;
        let parts = SharedParts::new(
            Arc::clone(&index) as Arc<dyn CandidateIndex + Send + Sync>,
            injector as Arc<dyn hc_storage::PageStore>,
        );
        let cache = Arc::new(ShardedCompactCache::lru(
            Arc::clone(&scheme),
            cache_bytes,
            SHARDS,
        ));
        let server = QueryServer::start(
            parts,
            cache,
            ServeConfig {
                workers: WORKERS,
                queue_capacity: 256, // closed loop ≤ CLIENTS outstanding: no shedding
                io_model: IoModel::SSD,
                retry: RetryPolicy::default(),
                ..ServeConfig::default()
            },
            registry,
        );
        let report = run_closed_loop(&server, &queries, CLIENTS, k, None);
        server.shutdown();
        let retries = file.stats().snapshot().pages_retried - retries_before;

        // Every admitted ticket reached a terminal outcome.
        assert_eq!(
            report.offered,
            report.completed + report.failed + report.rejected + report.timed_out,
            "tickets went unaccounted at rate {rate}"
        );
        assert_eq!(report.failed, 0, "storage faults must never Fail a query");

        // Zero incorrect results, exact and degraded alike.
        for (qi, ids) in &report.results {
            assert_close(
                &sorted_dists(*qi, ids),
                &per_query[*qi].1,
                &format!("rate {rate} request {qi}"),
            );
        }
        for (qi, ids, missing) in &report.degraded_results {
            let mut want: Vec<f64> = per_query[*qi]
                .0
                .iter()
                .filter(|id| !missing.contains(id))
                .map(|&id| euclidean(&queries[*qi], dataset.point(id)))
                .collect();
            want.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
            want.truncate(k);
            assert_close(
                &sorted_dists(*qi, ids),
                &want,
                &format!("rate {rate} degraded request {qi}"),
            );
        }

        if rate == 0.0 {
            assert_eq!(report.degraded, 0, "zero-rate injector degraded a query");
            assert_eq!(
                report.results.len(),
                requests,
                "zero-rate run must answer everything exactly"
            );
        }
        if rate > 0.0 && rate <= 0.011 {
            assert!(
                report.availability() >= 0.99,
                "availability {:.4} < 0.99 at rate {rate}",
                report.availability()
            );
        }

        println!(
            "{:<8} {:>7.2}% {:>9} {:>9} {:>8} {:>10.2} {:>9.1}",
            rate,
            report.availability() * 100.0,
            report.degraded,
            report.failed,
            retries,
            report.p99_us() as f64 / 1e3,
            report.qps(),
        );
        let label = format!("rate={rate}");
        registry
            .gauge_with_label("chaos.availability", &label)
            .set(report.availability());
        registry
            .gauge_with_label("chaos.degraded_rate", &label)
            .set(report.degraded as f64 / report.offered.max(1) as f64);
        registry
            .gauge_with_label("chaos.p99_us", &label)
            .set(report.p99_us() as f64);
        registry
            .gauge_with_label("chaos.pages_retried", &label)
            .set(retries as f64);
        registry
            .gauge_with_label("chaos.qps", &label)
            .set(report.qps());
    }

    // The sweep must actually have exercised degradation at its top rate —
    // otherwise the chaos run proved nothing.
    let snap = registry.snapshot();
    let degraded_total = snap.counter("serve.degraded").unwrap_or(0);
    if rates.iter().any(|&r| r >= 0.05) {
        assert!(
            degraded_total > 0,
            "no query degraded across the sweep — fault injection is not reaching the serve path"
        );
    }
    println!(
        "verified: every Done matched the fault-free reference, every Degraded was exact over its readable candidates ({degraded_total} degraded total)"
    );

    tree_sweep(
        &dataset,
        &file,
        &scheme,
        cache_bytes,
        &queries,
        &rates,
        k,
        registry,
    );
    spike_section(&index, &file, &scheme, cache_bytes, &queries, &per_query, k);
    slo_section(&index, &file, &scheme, cache_bytes, &queries, k);
    hc_bench::report::emit("chaos");
}

/// The latency-spike fault class: spikes stall successful reads but lose
/// nothing, so a spike-heavy schedule must hold availability at 100% with
/// every answer still exact — slow is not wrong. The injector stalls on a
/// [`SimulatedClock`], so the schedule runs in real milliseconds while the
/// spike telemetry (`storage.fault.spike`, total slept) stays truthful.
#[allow(clippy::too_many_arguments)]
fn spike_section(
    index: &Arc<C2lsh>,
    file: &Arc<hc_storage::point_file::PointFile>,
    scheme: &Arc<dyn hc_core::scheme::ApproxScheme>,
    cache_bytes: usize,
    queries: &[Vec<f32>],
    per_query: &[(Vec<PointId>, Vec<f64>)],
    k: usize,
) {
    use std::time::Duration;

    use hc_storage::{Clock, SimulatedClock};

    println!("\nlatency-spike class (simulated clock, 5ms spikes at 20%):");
    let registry = MetricsRegistry::new();
    let clock = Arc::new(SimulatedClock::new());
    let injector = Arc::new(
        FaultInjector::new(
            Arc::clone(file),
            FaultConfig {
                seed: FAULT_SEED,
                latency_spike_rate: 0.2,
                spike: Duration::from_millis(5),
                ..FaultConfig::none()
            },
        )
        .with_clock(Arc::clone(&clock) as Arc<dyn Clock>),
    );
    let parts = SharedParts::new(
        Arc::clone(index) as Arc<dyn CandidateIndex + Send + Sync>,
        injector as Arc<dyn hc_storage::PageStore>,
    );
    let cache = Arc::new(ShardedCompactCache::lru(
        Arc::clone(scheme),
        cache_bytes,
        SHARDS,
    ));
    let server = QueryServer::start(
        parts,
        cache,
        ServeConfig {
            workers: WORKERS,
            queue_capacity: 256,
            io_model: IoModel::SSD,
            ..ServeConfig::default()
        },
        &registry,
    );
    let report = run_closed_loop(&server, queries, CLIENTS, k, None);
    server.shutdown();

    // Spikes delay, they do not lose: full availability, zero degradation,
    // and every answer identical to the fault-free reference.
    assert_eq!(report.failed, 0, "a latency spike must never Fail a query");
    assert_eq!(report.degraded, 0, "a latency spike must never lose a page");
    assert!(
        report.availability() >= 0.99,
        "availability {:.4} < 0.99 under latency spikes",
        report.availability()
    );
    assert_eq!(
        report.results.len(),
        queries.len(),
        "spike run must answer everything exactly"
    );
    let dataset_dists = |qi: usize, ids: &[PointId]| -> Vec<f64> {
        let mut d: Vec<f64> = ids
            .iter()
            .map(|&id| euclidean(&queries[qi], file.dataset().point(id)))
            .collect();
        d.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        d
    };
    for (qi, ids) in &report.results {
        let got = dataset_dists(*qi, ids);
        let want = &per_query[*qi].1;
        assert_eq!(got.len(), want.len(), "spike request {qi}");
        for (g, w) in got.iter().zip(want) {
            assert!((g - w).abs() < 1e-9, "spike request {qi}: {g} vs {w}");
        }
    }

    // The class must actually have fired, and the stalls must be accounted
    // on the injected clock — not smuggled into wall time.
    let spikes = registry
        .snapshot()
        .counter("storage.fault.spike")
        .unwrap_or(0);
    assert!(
        spikes > 0,
        "spike schedule never fired — section is vacuous"
    );
    let slept = clock.total_slept();
    assert!(
        slept > Duration::ZERO,
        "spikes fired but nothing slept on the injected clock"
    );
    println!(
        "  {} spikes, {:.1}ms simulated stall, availability {:.2}%, p99 {:.2}ms wall",
        spikes,
        slept.as_secs_f64() * 1e3,
        report.availability() * 100.0,
        report.p99_us() as f64 / 1e3,
    );

    let global = MetricsRegistry::global();
    global.gauge("chaos.spike.count").set(spikes as f64);
    global
        .gauge("chaos.spike.simulated_stall_us")
        .set(slept.as_micros() as f64);
    global
        .gauge("chaos.spike.availability")
        .set(report.availability());
    global
        .gauge("chaos.spike.p99_us")
        .set(report.p99_us() as f64);
}

/// The live ops-plane arc: one server over a sticky-unreadable store with
/// an [`SloMonitor`] attached and the admin endpoint bound, probed over a
/// real `TcpStream` the whole way — Healthy (200) → fault burst trips the
/// burn-rate monitor (503, incident file written) → scrub heals the dead
/// pages through the *same* injector the live server reads from → a clean
/// burst clears the fast windows and `/healthz` recovers (200).
fn slo_section(
    index: &Arc<C2lsh>,
    file: &Arc<hc_storage::point_file::PointFile>,
    scheme: &Arc<dyn hc_core::scheme::ApproxScheme>,
    cache_bytes: usize,
    queries: &[Vec<f32>],
    k: usize,
) {
    println!("\nSLO arc over the live admin endpoint:");
    let registry = MetricsRegistry::new();
    let slo = Arc::new(SloMonitor::new(
        SloConfig {
            exactness_target: 0.95,
            latency_budget_us: 10_000_000, // latency is not under test here
            fast_window: 32,
            slow_window: 128,
            min_events: 16,
            warn_burn: 1.0,
            critical_burn: 2.0,
            ..SloConfig::default()
        },
        &registry,
    ));
    // Sticky-unreadable faults only: retries never cure them, answers come
    // back `Degraded { missing }`, and only a scrub repair brings the
    // exactness burn back down.
    let injector = Arc::new(FaultInjector::new(
        Arc::clone(file),
        FaultConfig {
            seed: FAULT_SEED,
            unreadable_rate: 0.25,
            ..FaultConfig::none()
        },
    ));
    let parts = SharedParts::new(
        Arc::clone(index) as Arc<dyn CandidateIndex + Send + Sync>,
        Arc::clone(&injector) as Arc<dyn hc_storage::PageStore>,
    );
    let cache = Arc::new(ShardedCompactCache::lru(
        Arc::clone(scheme),
        cache_bytes,
        SHARDS,
    ));
    let server = QueryServer::start(
        parts,
        cache,
        ServeConfig {
            workers: WORKERS,
            queue_capacity: 256,
            io_model: IoModel::SSD,
            slo: Some(Arc::clone(&slo)),
            ..ServeConfig::default()
        },
        &registry,
    );
    let admin = server
        .serve_admin("127.0.0.1:0")
        .expect("bind admin endpoint");
    let addr = admin.local_addr();

    let (status, body) = hc_bench::ops::http_get(addr, "/healthz");
    assert_eq!(status, 200, "pre-burst healthz: {body}");
    println!("  pre-burst   GET /healthz -> 200 {}", body.trim_end());

    let burst = queries.len().min(64);
    let faulty = run_closed_loop(&server, &queries[..burst], CLIENTS, k, None);
    assert!(
        faulty.degraded > 0,
        "sticky-unreadable burst produced no degradation"
    );
    let (status, body) = hc_bench::ops::http_get(addr, "/healthz");
    assert_eq!(status, 503, "critical burn must flip /healthz: {body}");
    println!(
        "  fault burst GET /healthz -> 503 {} ({}/{} degraded)",
        body.trim_end(),
        faulty.degraded,
        burst
    );
    let incident = slo.last_incident_path().expect("flight recorder fired");
    let incident_body = std::fs::read_to_string(&incident).expect("incident file readable");
    assert!(incident_body.contains("\"incident_seq\""));
    assert!(incident_body.contains("\"degraded_traces\""));
    println!("  incident    {}", incident.display());

    // Heal the dead pages through the same injector the live server reads
    // from, then serve a clean burst: the fast windows clear and the
    // both-windows rule drops the state out of Critical.
    let scrub = Scrubber::default().run(injector.as_ref());
    assert!(scrub.pages_repaired > 0, "scrub found nothing to repair");
    let clean = run_closed_loop(&server, &queries[..burst], CLIENTS, k, None);
    assert_eq!(clean.degraded, 0, "post-scrub burst still degraded");
    let (status, body) = hc_bench::ops::http_get(addr, "/healthz");
    assert_eq!(status, 200, "post-scrub healthz must recover: {body}");
    assert_eq!(slo.state(), SloState::Healthy);
    println!(
        "  post-scrub  GET /healthz -> 200 {} ({} pages repaired)",
        body.trim_end(),
        scrub.pages_repaired
    );

    admin.shutdown();
    server.shutdown();

    let global = MetricsRegistry::global();
    global
        .gauge("chaos.slo.incidents")
        .set(slo.incidents() as f64);
    global
        .gauge("chaos.slo.degraded_burst")
        .set(faulty.degraded as f64);
    global
        .gauge("chaos.slo.pages_repaired")
        .set(scrub.pages_repaired as f64);
}

/// The same chaos discipline against the §3.6.1 tree path: an iDistance
/// index served by [`TreeSearchEngine`]s over a shared [`ShardedNodeCache`],
/// reading leaves through the same fault injector. The tree engine is exact
/// over the *whole* dataset, so the reference here is brute-force top-k —
/// a stronger check than the candidate-set reference above.
#[allow(clippy::too_many_arguments)]
fn tree_sweep(
    dataset: &hc_core::dataset::Dataset,
    file: &Arc<hc_storage::point_file::PointFile>,
    scheme: &Arc<dyn hc_core::scheme::ApproxScheme>,
    cache_bytes: usize,
    queries: &[Vec<f32>],
    rates: &[f64],
    k: usize,
    registry: &MetricsRegistry,
) {
    let leaf_cap = (hc_storage::PAGE_SIZE / dataset.point_bytes()).max(1);
    let index = Arc::new(IDistance::build(dataset, 16, leaf_cap, 3));
    let shared_ds = Arc::new(dataset.clone());

    // Brute-force references: exact sorted top-k distances per query, and
    // the full distance table for degraded-subset checks.
    let all_ids: Vec<PointId> = (0..dataset.len() as u32).map(PointId).collect();
    let brute: Vec<Vec<f64>> = queries
        .iter()
        .map(|q| {
            let mut d: Vec<f64> = all_ids
                .iter()
                .map(|&id| euclidean(q, dataset.point(id)))
                .collect();
            d.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
            d.truncate(k);
            d
        })
        .collect();
    let sorted_dists = |qi: usize, ids: &[PointId]| -> Vec<f64> {
        let mut d: Vec<f64> = ids
            .iter()
            .map(|&id| euclidean(&queries[qi], dataset.point(id)))
            .collect();
        d.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        d
    };

    println!(
        "\ntree path: {} ({} leaves), shared node cache {} shards",
        index.name(),
        index.num_leaves(),
        SHARDS
    );
    println!(
        "{:<8} {:>8} {:>9} {:>9} {:>8} {:>10} {:>9}",
        "rate", "avail", "degraded", "failed", "retries", "p99 (ms)", "qps"
    );
    let mut tree_degraded_total = 0usize;
    for &rate in rates {
        let injector = Arc::new(FaultInjector::new(
            Arc::clone(file),
            FaultConfig::mixed(FAULT_SEED, rate),
        ));
        let retries_before = file.stats().snapshot().pages_retried;
        let parts = TreeSharedParts::new(
            Arc::clone(&index) as Arc<dyn LeafedIndex + Send + Sync>,
            Arc::clone(&shared_ds),
            injector as Arc<dyn hc_storage::PageStore>,
        );
        let node_cache = Arc::new(ShardedNodeCache::lru(
            Arc::clone(scheme),
            cache_bytes,
            SHARDS,
        ));
        let server = QueryServer::start_tree(
            parts,
            node_cache,
            ServeConfig {
                workers: WORKERS,
                queue_capacity: 256,
                io_model: IoModel::SSD,
                ..ServeConfig::default()
            },
            registry,
        );
        let report = run_closed_loop(&server, queries, CLIENTS, k, None);
        server.shutdown();
        let retries = file.stats().snapshot().pages_retried - retries_before;

        assert_eq!(
            report.offered,
            report.completed + report.failed + report.rejected + report.timed_out,
            "tree tickets went unaccounted at rate {rate}"
        );
        assert_eq!(
            report.failed, 0,
            "storage faults must never Fail a tree query"
        );

        for (qi, ids) in &report.results {
            let got = sorted_dists(*qi, ids);
            let want = &brute[*qi];
            assert_eq!(got.len(), want.len(), "tree rate {rate} request {qi}");
            if rate == 0.0 {
                // Bit-identical: the injector at rate 0 must be transparent.
                assert_eq!(&got, want, "tree rate 0 request {qi} not bit-identical");
            } else {
                for (g, w) in got.iter().zip(want) {
                    assert!((g - w).abs() < 1e-9, "tree rate {rate} request {qi}");
                }
            }
        }
        for (qi, ids, missing) in &report.degraded_results {
            let mut want: Vec<f64> = all_ids
                .iter()
                .filter(|id| !missing.contains(id))
                .map(|&id| euclidean(&queries[*qi], dataset.point(id)))
                .collect();
            want.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
            want.truncate(k);
            let got = sorted_dists(*qi, ids);
            assert_eq!(got.len(), want.len(), "tree degraded rate {rate} req {qi}");
            for (g, w) in got.iter().zip(&want) {
                assert!((g - w).abs() < 1e-9, "tree degraded rate {rate} req {qi}");
            }
        }
        tree_degraded_total += report.degraded;

        if rate == 0.0 {
            assert_eq!(report.degraded, 0, "zero-rate tree run degraded a query");
            assert_eq!(
                report.results.len(),
                queries.len(),
                "zero-rate tree run must answer everything exactly"
            );
        }
        if rate > 0.0 && rate <= 0.011 {
            assert!(
                report.availability() >= 0.99,
                "tree availability {:.4} < 0.99 at rate {rate}",
                report.availability()
            );
        }

        println!(
            "{:<8} {:>7.2}% {:>9} {:>9} {:>8} {:>10.2} {:>9.1}",
            rate,
            report.availability() * 100.0,
            report.degraded,
            report.failed,
            retries,
            report.p99_us() as f64 / 1e3,
            report.qps(),
        );
        let label = format!("rate={rate}");
        registry
            .gauge_with_label("chaos.tree.availability", &label)
            .set(report.availability());
        registry
            .gauge_with_label("chaos.tree.degraded_rate", &label)
            .set(report.degraded as f64 / report.offered.max(1) as f64);
        registry
            .gauge_with_label("chaos.tree.p99_us", &label)
            .set(report.p99_us() as f64);
        registry
            .gauge_with_label("chaos.tree.pages_retried", &label)
            .set(retries as f64);
        registry
            .gauge_with_label("chaos.tree.qps", &label)
            .set(report.qps());
    }
    println!(
        "verified: every tree Done matched brute-force top-k, every tree Degraded was exact over the readable points ({tree_degraded_total} degraded total)"
    );
}
