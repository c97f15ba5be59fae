//! Throughput scaling of the concurrent query service (hc-serve).
//!
//! Sweeps worker count under a closed-loop Zipf workload over one shared
//! [`ShardedCompactCache`], checks every concurrent result against a
//! single-threaded reference engine, then drives the best configuration
//! into overload with an open-loop generator to demonstrate bounded-queue
//! shedding (explicit rejections + bounded p99 instead of runaway latency).
//!
//! ```text
//! cargo run --release -p hc-bench --bin serve_scale -- \
//!     --scale test --requests 400 --workers 1 --workers 2 --workers 4
//! cargo run --release -p hc-bench --bin serve_scale -- --smoke   # CI
//! ```
//!
//! Disk latency is simulated: each worker sleeps the modeled I/O time of
//! its query (`HDD`, 5 ms/page), so worker threads overlap their stalls
//! exactly as a real multi-spindle deployment would — that, not CPU
//! parallelism, is what the sweep measures.

use std::sync::Arc;
use std::time::Duration;

use hc_bench::world::{World, DEFAULT_TAU};
use hc_cache::node::NoNodeCache;
use hc_cache::point::CompactPointCache;
use hc_core::dataset::PointId;
use hc_core::distance::euclidean;
use hc_core::histogram::HistogramKind;
use hc_index::traits::LeafedIndex;
use hc_index::IDistance;
use hc_obs::MetricsRegistry;
use hc_query::{KnnEngine, SharedParts, TreeSearchEngine, TreeSharedParts};
use hc_serve::{
    run_closed_loop, run_open_loop, QueryServer, ServeConfig, ShardedCompactCache, ShardedNodeCache,
};
use hc_storage::io_stats::IoModel;
use hc_storage::point_file::PointFile;
use hc_storage::PAGE_SIZE;
use hc_workload::zipf::Zipf;
use hc_workload::{Preset, Scale};
use rand::rngs::StdRng;
use rand::SeedableRng;

const ZIPF_S: f64 = 0.8;
const SEED: u64 = 0x5e7e;
const SHARDS: usize = 8;
const CLIENTS: usize = 8;

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
        .unwrap_or(if smoke { 96 } else { 400 });
    let worker_counts: Vec<usize> = {
        let ws = get_all("--workers");
        if ws.is_empty() {
            if smoke {
                vec![1, 4]
            } else {
                vec![1, 2, 4]
            }
        } else {
            ws.iter()
                .map(|v| v.parse().expect("numeric --workers"))
                .collect()
        }
    };

    let k = 10;
    let world = World::build(Preset::nus_wide(scale), k);
    let scheme = world.scheme(HistogramKind::KnnOptimal, DEFAULT_TAU);
    let cache_bytes = world.cache_bytes;

    // Zipf-skewed request stream drawn from the query pool, fixed seed.
    let zipf = Zipf::new(world.log.pool.len(), ZIPF_S);
    let mut rng = StdRng::seed_from_u64(SEED);
    let queries: Vec<Vec<f32>> = (0..requests)
        .map(|_| world.log.pool[zipf.sample(&mut rng)].clone())
        .collect();

    // Ground truth from a single-threaded engine. The cache only changes
    // I/O, never results, so one warm LRU run is the reference for every
    // worker count.
    let expected: Vec<Vec<PointId>> = {
        let cache = CompactPointCache::lru(Arc::clone(&scheme), cache_bytes);
        let mut engine = KnnEngine::new(&world.index, &world.file, Box::new(cache));
        engine.io_model = IoModel::HDD;
        queries
            .iter()
            .map(|q| {
                let (mut ids, _) = engine.query(q, k);
                ids.sort_unstable_by_key(|id| id.0);
                ids
            })
            .collect()
    };

    println!(
        "dataset={} n={} d={} requests={} k={k} CS={:.1}MB shards={SHARDS} clients={CLIENTS}",
        world.preset.name,
        world.dataset.len(),
        world.dataset.dim(),
        requests,
        cache_bytes as f64 / 1e6,
    );

    // Move the heavy parts behind Arcs for the server workers.
    let dataset = world.dataset.clone();
    let World { index, file, .. } = world;
    let parts = SharedParts::new(Arc::new(index), Arc::new(file));
    let registry = MetricsRegistry::global();

    println!(
        "{:<8} {:>9} {:>10} {:>10} {:>10} {:>10} {:>8} {:>9}",
        "workers", "qps", "p50 (ms)", "p95 (ms)", "p99 (ms)", "qw99 (ms)", "shed", "ρ_hit"
    );
    let mut qps_by_workers: Vec<(usize, f64)> = Vec::new();
    for &workers in &worker_counts {
        // Fresh shared cache per configuration: every sweep point starts
        // cold and warms itself, like the single-threaded figures do.
        let cache = Arc::new(ShardedCompactCache::lru(
            Arc::clone(&scheme),
            cache_bytes,
            SHARDS,
        ));
        let server = QueryServer::start(
            parts.clone(),
            cache,
            ServeConfig {
                workers,
                queue_capacity: 256, // closed loop ≤ CLIENTS outstanding: no shedding
                io_model: IoModel::HDD,
                simulate_io_scale: Some(1.0),
                eager_refetch: false,
                ..ServeConfig::default()
            },
            registry,
        );
        let report = run_closed_loop(&server, &queries, CLIENTS, k, None);
        server.shutdown();

        assert_eq!(report.completed, requests, "closed loop must complete all");
        for (index, ids) in &report.results {
            let mut got = ids.clone();
            got.sort_unstable_by_key(|id| id.0);
            assert_eq!(
                &got, &expected[*index],
                "request {index} diverged from the single-threaded engine at {workers} workers"
            );
        }

        println!(
            "{:<8} {:>9.1} {:>10.2} {:>10.2} {:>10.2} {:>10.2} {:>7.1}% {:>9.3}",
            workers,
            report.qps(),
            report.p50_us() as f64 / 1e3,
            report.p95_us() as f64 / 1e3,
            report.p99_us() as f64 / 1e3,
            report.queue_wait_p99_us() as f64 / 1e3,
            report.shed_rate() * 100.0,
            report.hit_ratio(),
        );
        let label = format!("workers={workers}");
        registry
            .gauge_with_label("serve.queue_wait_p50_us", &label)
            .set(report.queue_wait_p50_us() as f64);
        registry
            .gauge_with_label("serve.queue_wait_p99_us", &label)
            .set(report.queue_wait_p99_us() as f64);
        registry
            .gauge_with_label("serve.qps", &label)
            .set(report.qps());
        registry
            .gauge_with_label("serve.p50_us", &label)
            .set(report.p50_us() as f64);
        registry
            .gauge_with_label("serve.p95_us", &label)
            .set(report.p95_us() as f64);
        registry
            .gauge_with_label("serve.p99_us", &label)
            .set(report.p99_us() as f64);
        registry
            .gauge_with_label("serve.shed_rate", &label)
            .set(report.shed_rate());
        registry
            .gauge_with_label("serve.hit_ratio", &label)
            .set(report.hit_ratio());
        qps_by_workers.push((workers, report.qps()));
    }

    let single = qps_by_workers
        .iter()
        .find(|(w, _)| *w == 1)
        .map(|(_, q)| *q);
    let best = qps_by_workers
        .iter()
        .cloned()
        .max_by(|a, b| a.1.partial_cmp(&b.1).expect("non-NaN"))
        .expect("at least one configuration");
    if let Some(single) = single {
        let speedup = best.1 / single;
        println!(
            "best: {} workers at {:.1} qps ({speedup:.2}× 1-worker)",
            best.0, best.1
        );
        registry.gauge("serve.speedup_best").set(speedup);
        if !smoke && worker_counts.contains(&4) {
            assert!(
                speedup >= 2.0,
                "4 workers should at least double 1-worker throughput, got {speedup:.2}×"
            );
        }
    }

    // Overload: open loop at 2.5× the best observed service rate into a
    // small queue, with a deadline — admission control must shed (reject or
    // time out) instead of letting latency run away.
    let overload_qps = best.1 * 2.5;
    let cache = Arc::new(ShardedCompactCache::lru(
        Arc::clone(&scheme),
        cache_bytes,
        SHARDS,
    ));
    let server = QueryServer::start(
        parts.clone(),
        cache,
        ServeConfig {
            workers: best.0,
            queue_capacity: 16,
            io_model: IoModel::HDD,
            simulate_io_scale: Some(1.0),
            eager_refetch: false,
            ..ServeConfig::default()
        },
        registry,
    );
    let deadline = Duration::from_millis(500);
    let report = run_open_loop(&server, &queries, overload_qps, k, Some(deadline));
    server.shutdown();
    println!(
        "overload: offered {:.1} qps → completed {:.1} qps, shed {:.1}% ({} rejected, {} timed out), p99 {:.1} ms",
        overload_qps,
        report.qps(),
        report.shed_rate() * 100.0,
        report.rejected,
        report.timed_out,
        report.p99_us() as f64 / 1e3,
    );
    println!(
        "overload: queue wait p50 {:.1} ms / p99 {:.1} ms, deadline slack p05 {:.1} ms / p50 {:.1} ms",
        report.queue_wait_p50_us() as f64 / 1e3,
        report.queue_wait_p99_us() as f64 / 1e3,
        report.deadline_slack_p05_us() as f64 / 1e3,
        report.deadline_slack_p50_us() as f64 / 1e3,
    );
    // Deadlines shed work at dequeue but never cancel a query mid-service,
    // so slack can go negative for answers that started near the wire —
    // bounded by one service time past the deadline, which the p99 bound
    // above already constrains. Nothing to assert here beyond that; the
    // slack percentiles are the observability deliverable.
    assert!(
        report.shed_rate() > 0.0,
        "2.5× overload into a 16-deep queue must shed"
    );
    // Bounded tail: nothing waits longer than the queue can hold plus the
    // deadline by which stale work is dropped.
    let p99_bound_us = (deadline.as_micros() as u64) * 4;
    assert!(
        report.p99_us() < p99_bound_us,
        "overload p99 {}µs not bounded by {}µs",
        report.p99_us(),
        p99_bound_us
    );
    registry
        .gauge_with_label("serve.qps", "overload")
        .set(report.qps());
    registry
        .gauge_with_label("serve.offered_qps", "overload")
        .set(overload_qps);
    registry
        .gauge_with_label("serve.shed_rate", "overload")
        .set(report.shed_rate());
    registry
        .gauge_with_label("serve.p99_us", "overload")
        .set(report.p99_us() as f64);
    registry
        .gauge_with_label("serve.queue_wait_p99_us", "overload")
        .set(report.queue_wait_p99_us() as f64);
    registry
        .gauge_with_label("serve.deadline_slack_p05_us", "overload")
        .set(report.deadline_slack_p05_us() as f64);

    // --- Tree-backed serving: the §3.6.1 engine behind the same shell. ---
    // Four workers share one ShardedNodeCache; every concurrent answer must
    // match a single-threaded tree engine by exact distance multiset (the
    // node cache changes leaf I/O, never results), and every shard must end
    // the run with traffic on its labeled counters.
    const NODE_SHARDS: usize = 4;
    let tree_workers = 4;
    let leaf_cap = (PAGE_SIZE / dataset.point_bytes()).max(1);
    let tree_index = Arc::new(IDistance::build(&dataset, 16, leaf_cap, 3));

    let tree_expected: Vec<Vec<f64>> = {
        let reference_file = PointFile::new(dataset.clone());
        let engine =
            TreeSearchEngine::new(tree_index.as_ref(), &dataset, &reference_file, &NoNodeCache);
        queries
            .iter()
            .map(|q| {
                let (res, stats) = engine.query(q, k);
                assert!(stats.is_exact(), "pristine reference store degraded");
                let mut d: Vec<f64> = res.into_iter().map(|(_, dist)| dist).collect();
                d.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
                d
            })
            .collect()
    };

    let node_cache = Arc::new(ShardedNodeCache::lru(
        Arc::clone(&scheme),
        cache_bytes,
        NODE_SHARDS,
    ));
    let tree_parts = TreeSharedParts::new(
        Arc::clone(&tree_index) as Arc<dyn LeafedIndex + Send + Sync>,
        Arc::new(dataset.clone()),
        Arc::clone(&parts.file),
    );
    let server = QueryServer::start_tree(
        tree_parts,
        Arc::clone(&node_cache) as _,
        ServeConfig {
            workers: tree_workers,
            queue_capacity: 256,
            io_model: IoModel::SSD,
            ..ServeConfig::default()
        },
        registry,
    );
    let report = run_closed_loop(&server, &queries, CLIENTS, k, None);
    server.shutdown();

    assert_eq!(report.completed, requests, "tree loop must complete all");
    assert_eq!(report.degraded, 0, "pristine store degraded a tree query");
    for (index, ids) in &report.results {
        let mut got: Vec<f64> = ids
            .iter()
            .map(|&id| euclidean(&queries[*index], dataset.point(id)))
            .collect();
        got.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        assert_eq!(
            &got, &tree_expected[*index],
            "tree request {index} diverged from the single-threaded engine"
        );
    }

    // Per-shard invariants: within budget, and every shard's labeled
    // series saw lookups (Fibonacci hashing spread the leaves).
    for (used, cap) in node_cache.shard_occupancy() {
        assert!(used <= cap, "node-cache shard over budget: {used} > {cap}");
    }
    let snap = registry.snapshot();
    let shard_traffic: Vec<u64> = (0..NODE_SHARDS)
        .map(|i| {
            let label = format!("COMPACT-NODE(τ={DEFAULT_TAU})/LRU/shard{i}");
            ["cache.hits", "cache.misses", "cache.insertions"]
                .iter()
                .map(|name| snap.counter_labeled(name, &label).unwrap_or(0))
                .sum()
        })
        .collect();
    assert!(
        shard_traffic.iter().all(|&t| t > 0),
        "every node-cache shard must see traffic, got {shard_traffic:?}"
    );
    println!(
        "tree: {} workers over {} ({} leaves), {:.1} qps, p99 {:.2} ms, shard traffic {:?}",
        tree_workers,
        tree_index.name(),
        tree_index.num_leaves(),
        report.qps(),
        report.p99_us() as f64 / 1e3,
        shard_traffic,
    );
    registry
        .gauge_with_label("serve.qps", "tree")
        .set(report.qps());
    registry
        .gauge_with_label("serve.p99_us", "tree")
        .set(report.p99_us() as f64);
    registry
        .gauge_with_label("serve.hit_ratio", "tree")
        .set(report.hit_ratio());

    hc_bench::report::emit("serve_scale");
}
