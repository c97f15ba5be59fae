//! Serving the live-mutable dataset: [`QueryServer::start_ingest`] must
//! return exact answers while the engine keeps mutating between (and
//! under) requests, surface the manifest generation as the trace's cache
//! generation, and expose the ingest section on `/statusz`.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use hc_core::dataset::PointId;
use hc_ingest::{IngestConfig, IngestEngine, WalDevice};
use hc_obs::MetricsRegistry;
use hc_serve::{QueryOutcome, QueryServer, ServeConfig};

const DIM: usize = 4;

fn vector(id: u32) -> Vec<f32> {
    (0..DIM)
        .map(|d| ((id as usize * 7 + d * 13) % 101) as f32 / 3.0)
        .collect()
}

fn query(i: usize) -> Vec<f32> {
    let mut v = vector((i % 50) as u32);
    v[0] += 0.25;
    v
}

/// Brute-force top-k over the test's shadow map, same ordering as the
/// engine: ascending exact distance, ties by id.
fn reference_top_k(shadow: &HashMap<u32, Vec<f32>>, q: &[f32], k: usize) -> Vec<PointId> {
    let mut scored: Vec<(f64, u32)> = shadow
        .iter()
        .map(|(&id, v)| {
            let d = q
                .iter()
                .zip(v.iter())
                .map(|(a, b)| {
                    let diff = *a as f64 - *b as f64;
                    diff * diff
                })
                .sum::<f64>()
                .sqrt();
            (d, id)
        })
        .collect();
    scored.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    scored.truncate(k);
    scored.into_iter().map(|(_, id)| PointId(id)).collect()
}

fn http_get(addr: SocketAddr, path: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect admin");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    write!(stream, "GET {path} HTTP/1.1\r\nHost: localhost\r\n\r\n").expect("request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("response");
    let status: u16 = response
        .split_whitespace()
        .nth(1)
        .expect("status code")
        .parse()
        .expect("numeric status");
    let body = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_owned())
        .unwrap_or_default();
    (status, body)
}

#[test]
fn served_answers_stay_exact_while_the_dataset_mutates() {
    let registry = MetricsRegistry::new();
    let device = Arc::new(WalDevice::new());
    let mut config = IngestConfig::new(DIM);
    // Small memtable budget so the run crosses several seals (and with
    // compact_min_segments = 2, at least one compaction) mid-traffic.
    config.memtable_max_bytes = 24 * (DIM * 4 + 64);
    config.compact_min_segments = 2;
    let engine = Arc::new(IngestEngine::new(device, config, &registry));
    let server = QueryServer::start_ingest(
        Arc::clone(&engine),
        ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        },
        &registry,
    );

    let mut shadow: HashMap<u32, Vec<f32>> = HashMap::new();
    for step in 0..200u32 {
        // Mixed mutation stream: mostly inserts, periodic deletes and
        // upserts, so the live set crosses memtable/segment boundaries.
        match step % 5 {
            4 if !shadow.is_empty() => {
                let victim = *shadow.keys().min().expect("non-empty");
                engine.delete(PointId(victim)).expect("admitted");
                shadow.remove(&victim);
            }
            _ => {
                let id = step % 120;
                engine.insert(PointId(id), vector(id)).expect("admitted");
                shadow.insert(id, vector(id));
            }
        }
        if step % 7 == 0 {
            engine.maybe_compact();
        }
        let q = query(step as usize);
        let ticket = server.submit(q.clone(), 5, None).expect("admitted");
        match ticket.wait() {
            QueryOutcome::Done(resp) => {
                let expected = reference_top_k(&shadow, &q, 5);
                assert_eq!(
                    resp.ids, expected,
                    "step {step}: served answer must be exact over the live set"
                );
            }
            other => panic!("step {step}: expected Done, got {other:?}"),
        }
    }
    let status = engine.status();
    assert!(status.seals >= 2, "run must cross seals: {status:?}");
    assert!(
        status.compactions >= 1,
        "run must compact at least once: {status:?}"
    );
    assert!(
        server.cache_generation() >= status.seals,
        "served generation is the manifest generation"
    );
    // Traces carry the manifest generation the query observed.
    let traces = registry.traces().to_vec();
    assert!(
        traces.iter().any(|t| t.cache_generation > 0),
        "post-seal queries must stamp a nonzero generation"
    );
    server.shutdown();
}

#[test]
fn faulted_request_traces_bound_exclusions_apart_from_missing_ids() {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    // Wide rows (150 dims → 6 per page) so sealed segments span several
    // pages and a 40% unreadable rate kills some of them.
    const WIDE: usize = 150;
    let mut rng = StdRng::seed_from_u64(99);
    let mut wide = || -> Vec<f32> { (0..WIDE).map(|_| rng.gen_range(-10.0..10.0f32)).collect() };
    // Segment 1 holds three copies of the query on three different pages:
    // a dead copy is attempted first (lb 0, heap empty) and then excluded
    // by the tie with the two live copies. Segment 2 is noise, where a dead
    // row in the refine order cannot be excluded and goes missing.
    let q = wide();
    let first: Vec<Vec<f32>> = (0..18u32)
        .map(|id| if id % 6 == 0 { q.clone() } else { wide() })
        .collect();
    let second: Vec<Vec<f32>> = (0..48).map(|_| wide()).collect();
    // Fault rolls are a pure function of (seed, page, attempt), so a direct
    // call and the served request see the same losses. Find a schedule that
    // both loses ids and absorbs a loss by bounds, in different numbers —
    // the shape that tells the two trace fields apart.
    let (registry, engine, direct) = (0..u64::MAX)
        .find_map(|seed| {
            let registry = MetricsRegistry::new();
            let mut config = IngestConfig::new(WIDE);
            config.fault = Some(hc_storage::FaultConfig {
                seed,
                unreadable_rate: 0.4,
                ..hc_storage::FaultConfig::none()
            });
            let engine = IngestEngine::new(Arc::new(WalDevice::new()), config, &registry);
            for (id, v) in first.iter().enumerate() {
                engine
                    .insert(PointId(id as u32), v.clone())
                    .expect("admitted");
            }
            engine.seal();
            for (id, v) in second.iter().enumerate() {
                engine
                    .insert(PointId(100 + id as u32), v.clone())
                    .expect("admitted");
            }
            engine.seal();
            let a = engine.query(&q, 2);
            (!a.missing.is_empty() && a.fault_excluded > 0 && a.fault_excluded != a.missing.len())
                .then_some((registry, Arc::new(engine), a))
        })
        .expect("some fault schedule both degrades and excludes by bounds");

    let server = QueryServer::start_ingest(
        Arc::clone(&engine),
        ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        },
        &registry,
    );
    let ticket = server.submit(q, 2, None).expect("admitted");
    match ticket.wait() {
        QueryOutcome::Degraded { missing, .. } => assert_eq!(missing, direct.missing),
        other => panic!("expected Degraded, got {other:?}"),
    }
    let trace = *registry
        .traces()
        .to_vec()
        .last()
        .expect("the request was traced");
    assert_eq!(trace.missing as usize, direct.missing.len());
    assert_eq!(
        trace.fault_excluded as usize, direct.fault_excluded,
        "fault_excluded is the engine's bound-exclusion count, not the lost ids"
    );
    server.shutdown();
}

#[test]
fn statusz_reports_the_ingest_section() {
    let registry = MetricsRegistry::new();
    let device = Arc::new(WalDevice::new());
    let engine = Arc::new(IngestEngine::new(device, IngestConfig::new(DIM), &registry));
    for id in 0..40u32 {
        engine.insert(PointId(id), vector(id)).expect("admitted");
    }
    engine.delete(PointId(3)).expect("admitted");
    engine.seal();
    let server = QueryServer::start_ingest(
        Arc::clone(&engine),
        ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        },
        &registry,
    );
    let admin = server.serve_admin("127.0.0.1:0").expect("bind admin");
    let (status, body) = http_get(admin.local_addr(), "/statusz");
    assert_eq!(status, 200);
    assert!(
        body.contains("\"ingest\":{"),
        "ingest-backed server must expose the ingest section: {body}"
    );
    assert!(
        body.contains("\"segments\":1"),
        "one sealed segment: {body}"
    );
    assert!(
        body.contains("\"memtable_points\":0"),
        "seal drained the memtable: {body}"
    );
    assert!(
        body.contains("\"manifest_generation\":1"),
        "first seal publishes generation 1: {body}"
    );
    assert!(body.contains("\"seals\":1"), "{body}");
    assert!(
        body.contains("\"kind\":\"ingest.seal\""),
        "seal must land in the ops event log: {body}"
    );
    // Metrics surface the ingest.* series too.
    let (status, metrics) = http_get(admin.local_addr(), "/metrics.json");
    assert_eq!(status, 200);
    assert!(metrics.contains("\"name\":\"ingest.inserts\",\"value\":40"));
    assert!(metrics.contains("\"name\":\"ingest.seals\",\"value\":1"));
    admin.shutdown();
    server.shutdown();
}

#[test]
fn frozen_backends_report_a_null_ingest_section() {
    // The point backend has no ingest engine: probes must see "ingest":null
    // rather than a missing key or a zeroed struct.
    use hc_core::dataset::Dataset;
    use hc_core::histogram::classic::equi_width;
    use hc_core::quantize::Quantizer;
    use hc_core::scheme::{ApproxScheme, GlobalScheme};
    use hc_index::traits::CandidateIndex;
    use hc_query::SharedParts;
    use hc_serve::ShardedCompactCache;
    use hc_storage::point_file::PointFile;

    struct ScanIndex;
    impl CandidateIndex for ScanIndex {
        fn candidates(&self, _q: &[f32], _k: usize) -> Vec<PointId> {
            (0..16).map(PointId).collect()
        }
        fn name(&self) -> &'static str {
            "scan"
        }
    }

    let registry = MetricsRegistry::new();
    let dataset = Dataset::from_rows(
        &(0..16)
            .map(|i| vec![i as f32, (i * 3 % 16) as f32])
            .collect::<Vec<_>>(),
    );
    let parts = SharedParts::new(Arc::new(ScanIndex), Arc::new(PointFile::new(dataset)));
    let scheme: Arc<dyn ApproxScheme> = Arc::new(GlobalScheme::new(
        equi_width(256, 64),
        Quantizer::new(0.0, 16.0, 256),
        2,
    ));
    let cache = Arc::new(ShardedCompactCache::lru(
        Arc::clone(&scheme),
        scheme.bytes_per_point() * 32,
        2,
    ));
    let server = QueryServer::start(parts, cache, ServeConfig::default(), &registry);
    assert!(server.ingest_status().is_none());
    let admin = server.serve_admin("127.0.0.1:0").expect("bind admin");
    let (status, body) = http_get(admin.local_addr(), "/statusz");
    assert_eq!(status, 200);
    assert!(body.contains("\"ingest\":null"), "{body}");
    admin.shutdown();
    server.shutdown();
}
