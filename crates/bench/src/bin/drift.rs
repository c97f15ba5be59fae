//! Drift experiment: the full cache-lifecycle story (DESIGN.md §11) under a
//! rotating-hotspot workload, end to end and verified.
//!
//! ```text
//! cargo run --release -p hc-bench --bin drift            # full run
//! cargo run --release -p hc-bench --bin drift -- --smoke # CI
//! ```
//!
//! The timeline, all through one live [`QueryServer`] over one
//! [`SwappablePointCache`]:
//!
//! 1. **Warm** — a cold server serves the epoch-0 hotset; the sampler fills
//!    the maintenance window; the daemon's first rebuild hot-swaps in a
//!    generation warm-filled for that hotset.
//! 2. **Steady** — ρ_hit at its deployed plateau.
//! 3. **Collapse** — the hotspot rotates to a disjoint Zipf head; ρ_hit
//!    craters while the sliding window turns over.
//! 4. **Rebuild under load** — the daemon rebuilds + swaps *while* a burst
//!    is in flight; post-swap ρ_hit must recover to within 10% of the
//!    pre-drift steady state.
//! 5. **Scrub** — a fault injector kills pages under the same serving
//!    cache; degraded answers appear, a scrub repairs the pages from the
//!    replica, and the next burst is exact again.
//!
//! Every fulfilment in every phase is checked against a single-threaded
//! fault-free reference (brute-force top-k over the query's candidate
//! set) — zero incorrect results through rebuild, swap, and scrub. A
//! second section proves the §3.6.1 offline node-cache warm fill: a
//! warm-filled [`ShardedNodeCache`] beats the admission-only baseline on
//! its first epoch.

use std::sync::Arc;

use hc_bench::world::{World, DEFAULT_TAU};
use hc_cache::SwappablePointCache;
use hc_core::distance::euclidean;
use hc_core::histogram::HistogramKind;
use hc_index::lsh::C2lsh;
use hc_index::traits::{CandidateIndex, LeafedIndex};
use hc_index::IDistance;
use hc_maint::{warm_fill_node_cache, MaintDaemon, WorkloadSampler};
use hc_obs::{MetricsRegistry, SloConfig, SloMonitor, SloState};
use hc_query::{MaintenanceConfig, SharedParts, TreeSharedParts};
use hc_serve::{
    run_closed_loop, LoadReport, QueryServer, ServeConfig, ShardedCompactCache, ShardedNodeCache,
};
use hc_storage::{FaultConfig, FaultInjector, PAGE_SIZE};
use hc_workload::{DriftingHotspot, Preset, Scale};

const ZIPF_S: f64 = 1.2;
const SEED: u64 = 0xD21F;
const FAULT_SEED: u64 = 0xFA17;
const SHARDS: usize = 8;
const CLIENTS: usize = 8;
const WORKERS: usize = 4;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let get = |flag: &str| -> Option<String> {
        args.windows(2)
            .filter(|w| w[0] == flag)
            .map(|w| w[1].clone())
            .next_back()
    };
    let scale = match get("--scale").as_deref().unwrap_or("test") {
        "test" => Scale::Test,
        "bench" => Scale::Bench,
        "full" => Scale::Full,
        other => panic!("unknown scale {other:?}"),
    };
    // Requests per phase burst.
    let burst: usize = get("--requests")
        .map(|v| v.parse().expect("numeric --requests"))
        .unwrap_or(if smoke { 100 } else { 250 });

    let k = 10;
    let world = World::build(Preset::nus_wide(scale), k);
    let scheme = world.scheme(HistogramKind::KnnOptimal, DEFAULT_TAU);
    // A budget small enough that the serving cache cannot simply hold
    // everything it has ever seen — drift has to hurt for maintenance to
    // matter.
    let cache_bytes = world.cache_bytes / 8;
    // The tree path gets the full §3.6.1 budget (as in the chaos tree
    // sweep): the warm-fill comparison is about first-epoch compulsory
    // misses, not LRU thrash.
    let node_cache_bytes = world.cache_bytes;
    let quantizer = world.quantizer.clone();
    let pool = world.log.pool.clone();
    let dataset = Arc::new(world.dataset.clone());

    // Epochs span four bursts each: warm + settle + two measured steady
    // bursts inside epoch 0, then one rotation into epoch 1 for collapse +
    // rebuild-under-load + two measured recovery bursts. Plateau ratios are
    // averaged over their two bursts so a single closed-loop interleaving
    // can't flake the recovery check. The stride rotates the Zipf head far
    // enough that the bulk of the hot mass moves to cold queries.
    let mut hotspot = DriftingHotspot::new(pool.len(), ZIPF_S, 4 * burst, pool.len() / 5, SEED);
    let bursts: Vec<Vec<Vec<f32>>> = (0..8).map(|_| hotspot.take_queries(&pool, burst)).collect();
    let [warm_q, settle_q, steady_a, steady_b, collapse_q, rebuild_q, recovery_a, recovery_b] =
        <[Vec<Vec<f32>>; 8]>::try_from(bursts).expect("eight bursts");

    println!(
        "dataset={} n={} d={} pool={} burst={burst} k={k} CS={:.1}KB shards={SHARDS}",
        world.preset.name,
        dataset.len(),
        dataset.dim(),
        pool.len(),
        cache_bytes as f64 / 1e3,
    );

    let World { index, file, .. } = world;
    let index = Arc::new(index);
    let file = Arc::new(file);
    let registry = MetricsRegistry::global();

    // Single-threaded fault-free reference for any query: sorted exact
    // distances of the top-k over its candidate set.
    let reference = |q: &[f32]| -> Vec<f64> {
        let mut d: Vec<f64> = index
            .candidates(q, k)
            .iter()
            .map(|&id| euclidean(q, dataset.point(id)))
            .collect();
        d.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        d.truncate(k);
        d
    };
    let verify_exact = |queries: &[Vec<f32>], report: &LoadReport, phase: &str| {
        assert_eq!(
            report.failed + report.rejected + report.timed_out,
            0,
            "{phase}: shed or failed requests"
        );
        for (qi, ids) in &report.results {
            let q = &queries[*qi];
            let mut got: Vec<f64> = ids
                .iter()
                .map(|&id| euclidean(q, dataset.point(id)))
                .collect();
            got.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
            let want = reference(q);
            assert_eq!(
                got.len(),
                want.len(),
                "{phase} request {qi}: count diverged"
            );
            for (g, w) in got.iter().zip(&want) {
                assert!((g - w).abs() < 1e-9, "{phase} request {qi}: {g} vs {w}");
            }
        }
    };

    // The lifecycle stack: sampler → daemon → swappable serving cache.
    let config = MaintenanceConfig::new(burst, DEFAULT_TAU, cache_bytes, k);
    let sampler = Arc::new(WorkloadSampler::new(config, registry));
    let swappable = Arc::new(SwappablePointCache::new(Arc::new(
        ShardedCompactCache::lru(Arc::clone(&scheme), cache_bytes, SHARDS),
    )));
    let daemon = Arc::new(MaintDaemon::new(
        Arc::clone(&sampler),
        Arc::clone(&index) as Arc<dyn CandidateIndex + Send + Sync>,
        Arc::clone(&dataset),
        quantizer,
        Arc::clone(&swappable),
        SHARDS,
        registry,
    ));
    let server = QueryServer::start(
        SharedParts::new(
            Arc::clone(&index) as Arc<dyn CandidateIndex + Send + Sync>,
            Arc::clone(&file) as Arc<dyn hc_storage::PageStore>,
        ),
        Arc::clone(&swappable) as Arc<dyn hc_cache::concurrent::ConcurrentPointCache>,
        ServeConfig {
            workers: WORKERS,
            queue_capacity: 256,
            sampler: Some(Arc::clone(&sampler) as Arc<dyn hc_serve::QuerySampler>),
            ..ServeConfig::default()
        },
        registry,
    );

    println!(
        "\n{:<22} {:>8} {:>10} {:>6}",
        "phase", "rho_hit", "qps", "gen"
    );
    // Churn bursts run CLIENTS-wide to exercise the concurrent path;
    // *measured* bursts run one request at a time, so the admission
    // sequence — and with it ρ_hit — is a deterministic function of the
    // seeded workload, and the collapse/recovery thresholds can't flake on
    // a thread interleaving.
    let phase = |name: &str, queries: &[Vec<f32>], clients: usize| -> f64 {
        let report = run_closed_loop(&server, queries, clients, k, None);
        verify_exact(queries, &report, name);
        let rho = report.hit_ratio();
        println!(
            "{:<22} {:>8.3} {:>10.1} {:>6}",
            name,
            rho,
            report.qps(),
            swappable.generation()
        );
        registry.gauge_with_label("drift.rho_hit", name).set(rho);
        rho
    };

    // Epoch 0: cold start, first rebuild, settle, steady plateau.
    phase("warm(cold,epoch0)", &warm_q, CLIENTS);
    let r1 = daemon.run_once().expect("warmed window rebuilds");
    assert_eq!(r1.generation, 1);
    phase("settle(gen1)", &settle_q, CLIENTS);
    let steady = (phase("steady(gen1)", &steady_a, 1) + phase("steady(gen1)'", &steady_b, 1)) / 2.0;

    // Epoch 1: the hotset rotated away — ρ_hit collapses. Measure the
    // immediate post-rotation prefix: the admission path starts re-learning
    // the new hotset within a burst, and the collapse is the transient the
    // rebuild + warm fill exists to cut short.
    let prefix = (burst / 2).min(collapse_q.len());
    let collapse = phase("collapse(epoch1)", &collapse_q[..prefix], 1);
    // Serve the rest of the burst unmeasured so the sampler window the
    // daemon rebuilds from is pure epoch-1 traffic.
    let tail = run_closed_loop(&server, &collapse_q[prefix..], CLIENTS, k, None);
    verify_exact(&collapse_q[prefix..], &tail, "collapse-tail");

    // Rebuild + hot-swap while the burst is in flight: zero wrong answers.
    let rebuild_report = std::thread::scope(|s| {
        let load = s.spawn(|| run_closed_loop(&server, &rebuild_q, CLIENTS, k, None));
        let r = daemon.run_once().expect("drifted window rebuilds");
        (load.join().expect("load thread"), r)
    });
    verify_exact(&rebuild_q, &rebuild_report.0, "rebuild-under-load");
    assert_eq!(rebuild_report.1.generation, 2);
    println!(
        "{:<22} {:>8.3} {:>10.1} {:>6}   (swap landed mid-burst, {} warm-filled)",
        "rebuild-under-load",
        rebuild_report.0.hit_ratio(),
        rebuild_report.0.qps(),
        swappable.generation(),
        rebuild_report.1.warm_filled,
    );

    let recovery =
        (phase("recovery(gen2)", &recovery_a, 1) + phase("recovery(gen2)'", &recovery_b, 1)) / 2.0;

    assert!(
        collapse < steady,
        "rotating the hotset must depress rho_hit (steady {steady:.3}, collapse {collapse:.3})"
    );
    assert!(
        recovery >= 0.9 * steady,
        "post-swap rho_hit {recovery:.3} did not recover to within 10% of steady {steady:.3}"
    );
    registry.gauge("drift.rho_hit.steady").set(steady);
    registry.gauge("drift.rho_hit.collapse").set(collapse);
    registry.gauge("drift.rho_hit.recovery").set(recovery);
    registry
        .gauge("drift.recovery_ratio")
        .set(recovery / steady.max(f64::EPSILON));
    println!(
        "\nrho_hit: steady {steady:.3} -> collapse {collapse:.3} -> recovery {recovery:.3} \
         ({:.1}% of steady, generation {})",
        100.0 * recovery / steady.max(f64::EPSILON),
        swappable.generation()
    );
    server.shutdown();

    scrub_section(
        &dataset,
        &index,
        &file,
        &sampler,
        &daemon,
        &swappable,
        &recovery_b,
        k,
        registry,
    );
    // First epoch = each drifted query once: compulsory first touches
    // dominate, which is precisely what the offline warm fill removes.
    let mut seen = std::collections::HashSet::new();
    let first_epoch_q: Vec<Vec<f32>> = recovery_b
        .iter()
        .filter(|q| seen.insert(q.iter().map(|f| f.to_bits()).collect::<Vec<u32>>()))
        .cloned()
        .collect();
    node_warm_fill_section(
        &dataset,
        &first_epoch_q,
        &scheme,
        node_cache_bytes,
        k,
        registry,
    );

    hc_bench::report::emit("drift");
}

/// Pages die under the live serving cache; answers degrade (explicitly,
/// each one exact over its readable candidates), a scrub repairs the pages
/// from the replica, and the same burst is exact again.
///
/// The whole arc is also watched the way an operator would see it: a shared
/// [`SloMonitor`] rides both serving phases with the admin endpoint bound,
/// and `/healthz` — probed over a real `TcpStream` — reads 503 while the
/// exactness budget burns and 200 again once the scrub has healed the
/// store and a clean burst has cleared the fast windows.
#[allow(clippy::too_many_arguments)]
fn scrub_section(
    dataset: &Arc<hc_core::dataset::Dataset>,
    index: &Arc<C2lsh>,
    file: &Arc<hc_storage::point_file::PointFile>,
    sampler: &Arc<WorkloadSampler>,
    daemon: &Arc<MaintDaemon>,
    swappable: &Arc<SwappablePointCache>,
    queries: &[Vec<f32>],
    k: usize,
    registry: &MetricsRegistry,
) {
    let injector = Arc::new(FaultInjector::new(
        Arc::clone(file),
        FaultConfig {
            seed: FAULT_SEED,
            unreadable_rate: 0.05,
            ..FaultConfig::none()
        },
    ));
    // One monitor across both serving phases: the Critical state entered
    // under faults persists into the post-scrub server until clean traffic
    // clears the fast windows — exactly what an operator's dashboard sees.
    let slo = Arc::new(SloMonitor::new(
        SloConfig {
            exactness_target: 0.95,
            latency_budget_us: 10_000_000, // latency is not under test here
            fast_window: 32,
            slow_window: 96,
            min_events: 16,
            warn_burn: 1.0,
            critical_burn: 2.0,
            ..SloConfig::default()
        },
        registry,
    ));
    let serve = |label: &str, healthz_after: u16| -> LoadReport {
        let server = QueryServer::start(
            SharedParts::new(
                Arc::clone(index) as Arc<dyn CandidateIndex + Send + Sync>,
                Arc::clone(&injector) as Arc<dyn hc_storage::PageStore>,
            ),
            Arc::clone(swappable) as Arc<dyn hc_cache::concurrent::ConcurrentPointCache>,
            ServeConfig {
                workers: WORKERS,
                queue_capacity: 256,
                sampler: Some(Arc::clone(sampler) as Arc<dyn hc_serve::QuerySampler>),
                slo: Some(Arc::clone(&slo)),
                ..ServeConfig::default()
            },
            registry,
        );
        let admin = server.serve_admin("127.0.0.1:0").expect("bind admin");
        let report = run_closed_loop(&server, queries, CLIENTS, k, None);
        let (status, body) = hc_bench::ops::http_get(admin.local_addr(), "/healthz");
        assert_eq!(status, healthz_after, "{label}: GET /healthz body {body}");
        println!("{label}: GET /healthz -> {status} {}", body.trim_end());
        admin.shutdown();
        server.shutdown();
        assert_eq!(report.failed, 0, "{label}: storage faults must never Fail");
        // Degraded answers must still be exact over their readable subset.
        for (qi, ids, missing) in &report.degraded_results {
            let q = &queries[*qi];
            let mut want: Vec<f64> = index
                .candidates(q, k)
                .iter()
                .filter(|id| !missing.contains(id))
                .map(|&id| euclidean(q, dataset.point(id)))
                .collect();
            want.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
            want.truncate(k);
            let mut got: Vec<f64> = ids
                .iter()
                .map(|&id| euclidean(q, dataset.point(id)))
                .collect();
            got.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
            assert_eq!(got.len(), want.len(), "{label} degraded request {qi}");
            for (g, w) in got.iter().zip(&want) {
                assert!((g - w).abs() < 1e-9, "{label} degraded request {qi}");
            }
        }
        report
    };

    let before = serve("pre-scrub", 503);
    assert!(
        before.degraded > 0,
        "the fault schedule must actually degrade service before the scrub"
    );
    let incident = slo.last_incident_path().expect("flight recorder fired");
    assert!(
        std::fs::read_to_string(&incident)
            .expect("incident file readable")
            .contains("\"degraded_traces\""),
        "incident file missing degraded traces"
    );
    let scrub = daemon.scrub_once(injector.as_ref());
    let after = serve("post-scrub", 200);
    assert_eq!(slo.state(), SloState::Healthy, "clean burst must recover");
    assert!(
        registry
            .events()
            .to_vec()
            .iter()
            .any(|e| e.kind == "maint.scrub"),
        "scrub must leave an ops event"
    );
    assert!(scrub.pages_repaired > 0, "scrub repaired nothing");
    assert!(scrub.is_clean(), "scrub left unrepaired pages: {scrub:?}");
    assert_eq!(
        after.degraded, 0,
        "scrubbed store must serve the whole burst exactly"
    );
    println!(
        "\nscrub: degraded {} -> repaired {} of {} pages -> degraded {} (availability {:.4})",
        before.degraded,
        scrub.pages_repaired,
        scrub.pages_scanned,
        after.degraded,
        after.availability(),
    );
    registry
        .gauge("drift.scrub.degraded_before")
        .set(before.degraded as f64);
    registry
        .gauge("drift.scrub.pages_repaired")
        .set(scrub.pages_repaired as f64);
    registry
        .gauge("drift.scrub.degraded_after")
        .set(after.degraded as f64);
}

/// The §3.6.1 offline warm fill, measured: tree-backed serving over a
/// warm-filled [`ShardedNodeCache`] vs the admission-only baseline, first
/// epoch of the drifted workload.
fn node_warm_fill_section(
    dataset: &Arc<hc_core::dataset::Dataset>,
    queries: &[Vec<f32>],
    scheme: &Arc<dyn hc_core::scheme::ApproxScheme>,
    cache_bytes: usize,
    k: usize,
    registry: &MetricsRegistry,
) {
    let leaf_cap = (PAGE_SIZE / dataset.point_bytes()).max(1);
    let index = Arc::new(IDistance::build(dataset, 16, leaf_cap, 3));
    let file = Arc::new(hc_storage::point_file::PointFile::new(
        dataset.as_ref().clone(),
    ));
    let first_epoch = |cache: Arc<ShardedNodeCache>| -> f64 {
        let server = QueryServer::start_tree(
            TreeSharedParts::new(
                Arc::clone(&index) as Arc<dyn LeafedIndex + Send + Sync>,
                Arc::clone(dataset),
                Arc::clone(&file) as Arc<dyn hc_storage::PageStore>,
            ),
            cache as Arc<dyn hc_cache::concurrent::ConcurrentNodeCache>,
            ServeConfig {
                workers: WORKERS,
                queue_capacity: 256,
                ..ServeConfig::default()
            },
            registry,
        );
        let report = run_closed_loop(&server, queries, CLIENTS, k, None);
        server.shutdown();
        assert_eq!(report.failed + report.degraded, 0);
        report.hit_ratio()
    };

    let cold = first_epoch(Arc::new(ShardedNodeCache::lru(
        Arc::clone(scheme),
        cache_bytes,
        SHARDS,
    )));
    let warm_cache = Arc::new(ShardedNodeCache::lru(
        Arc::clone(scheme),
        cache_bytes,
        SHARDS,
    ));
    let filled = warm_fill_node_cache(index.as_ref(), dataset, queries, k, &warm_cache);
    let warm = first_epoch(warm_cache);
    assert!(filled > 0, "warm fill admitted no leaves");
    assert!(
        warm > cold,
        "warm fill must lift the first-epoch node hit ratio (warm {warm:.3} vs cold {cold:.3})"
    );
    println!(
        "node warm fill: {filled} leaves pre-admitted; first-epoch hit ratio {warm:.3} vs cold {cold:.3}"
    );
    registry.gauge("drift.node.first_epoch_hit_warm").set(warm);
    registry.gauge("drift.node.first_epoch_hit_cold").set(cold);
    registry
        .gauge("drift.node.warm_filled_leaves")
        .set(filled as f64);
}
