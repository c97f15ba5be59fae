//! CI smoke for the admin telemetry endpoint: start a small live server,
//! bind the admin plane on an ephemeral port, and fetch every route over a
//! raw TCP socket — asserting exactly what a Prometheus scrape or a load
//! balancer probe would see: the right status code and a non-empty body.
//!
//! ```text
//! cargo run --release -p hc-bench --bin ops_smoke
//! ```

use std::sync::Arc;

use hc_bench::ops::http_get;
use hc_bench::world::{World, DEFAULT_TAU};
use hc_core::histogram::HistogramKind;
use hc_index::traits::CandidateIndex;
use hc_obs::{MetricsRegistry, SloConfig, SloMonitor};
use hc_query::SharedParts;
use hc_serve::{run_closed_loop, QueryServer, ServeConfig, ShardedCompactCache};
use hc_workload::{Preset, Scale};

const SHARDS: usize = 4;
const REQUESTS: usize = 32;

fn main() {
    let k = 10;
    let world = World::build(Preset::nus_wide(Scale::Test), k);
    let scheme = world.scheme(HistogramKind::KnnOptimal, DEFAULT_TAU);
    let cache_bytes = world.cache_bytes;
    let queries: Vec<Vec<f32>> = world.log.pool.iter().take(REQUESTS).cloned().collect();
    let World { index, file, .. } = world;

    let registry = MetricsRegistry::new();
    let slo = Arc::new(SloMonitor::new(SloConfig::default(), &registry));
    let server = QueryServer::start(
        SharedParts::new(
            Arc::new(index) as Arc<dyn CandidateIndex + Send + Sync>,
            Arc::new(file) as Arc<dyn hc_storage::PageStore>,
        ),
        Arc::new(ShardedCompactCache::lru(scheme, cache_bytes, SHARDS)),
        ServeConfig {
            workers: 2,
            slo: Some(Arc::clone(&slo)),
            ..ServeConfig::default()
        },
        &registry,
    );
    let admin = server.serve_admin("127.0.0.1:0").expect("bind admin");
    let addr = admin.local_addr();
    let report = run_closed_loop(&server, &queries, 4, k, None);
    assert_eq!(report.completed, REQUESTS, "smoke traffic must complete");

    for path in [
        "/metrics",
        "/metrics.json",
        "/healthz",
        "/tracez",
        "/statusz",
    ] {
        let (status, body) = http_get(addr, path);
        assert_eq!(status, 200, "GET {path} returned {status}: {body}");
        assert!(!body.trim().is_empty(), "GET {path} returned an empty body");
        println!("GET {path} -> {status} ({} bytes)", body.len());
    }
    let (status, body) = http_get(addr, "/metrics");
    assert!(
        body.contains("# TYPE serve_completed counter"),
        "scrape output missing the serve counters (status {status})"
    );

    admin.shutdown();
    server.shutdown();
    println!("ops smoke: all admin routes answered with 200 and non-empty bodies");
}
