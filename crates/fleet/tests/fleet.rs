//! Fleet integration: scatter-gather exactness, failover past a killed
//! replica, graceful degradation when a whole shard is dark, histogram /
//! floor-driven hedging past a stalled replica, and the per-shard admin
//! section. All on small datasets — the full mixed-tenant arc with SLO
//! burn lives in the `fleet` bench.

use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Duration;

use hc_core::dataset::{Dataset, PointId};
use hc_core::distance::euclidean;
use hc_core::histogram::classic::equi_width;
use hc_core::quantize::Quantizer;
use hc_core::scheme::{ApproxScheme, GlobalScheme};
use hc_fleet::{Fleet, FleetConfig, FleetOutcome};
use hc_obs::MetricsRegistry;
use hc_storage::FaultConfig;

const DIM: usize = 8;
const N: usize = 256;

fn dataset() -> Dataset {
    // Deterministic pseudo-random rows in [0, 1024).
    let mut state = 0x1234_5678_u64;
    let rows: Vec<Vec<f32>> = (0..N)
        .map(|_| {
            (0..DIM)
                .map(|_| {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    ((state >> 33) % 1024) as f32
                })
                .collect()
        })
        .collect();
    Dataset::from_rows(&rows)
}

fn scheme() -> Arc<dyn ApproxScheme> {
    Arc::new(GlobalScheme::new(
        equi_width(256, 64),
        Quantizer::new(0.0, 1024.0, 256),
        DIM,
    ))
}

fn queries(n: usize) -> Vec<Vec<f32>> {
    let mut state = 0xDEAD_BEEF_u64;
    (0..n)
        .map(|_| {
            (0..DIM)
                .map(|_| {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    ((state >> 33) % 1024) as f32
                })
                .collect()
        })
        .collect()
}

fn config() -> FleetConfig {
    FleetConfig {
        shards: 3,
        replicas: 2,
        workers_per_replica: 2,
        shard_timeout: Duration::from_secs(2),
        ..FleetConfig::default()
    }
}

/// The oracle the fleet must match: exact top-k over the union of every
/// *responsive* shard's candidate set, ties by global id.
fn brute_force(
    fleet: &Fleet,
    q: &[f32],
    k: usize,
    data: &Dataset,
    exclude_shards: &[usize],
) -> Vec<(f64, PointId)> {
    let mut pool: BTreeSet<PointId> = BTreeSet::new();
    for shard in fleet.shards() {
        if exclude_shards.contains(&shard.id) {
            continue;
        }
        pool.extend(shard.candidates_global(q, k));
    }
    let mut hits: Vec<(f64, PointId)> = pool
        .into_iter()
        .map(|id| (euclidean(q, data.point(id)), id))
        .collect();
    hits.sort_by(|a, b| a.0.total_cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
    hits.truncate(k);
    hits
}

#[test]
fn healthy_fleet_answers_are_the_exact_merged_top_k() {
    let data = dataset();
    let registry = MetricsRegistry::new();
    let fleet = Fleet::build(
        &data,
        scheme(),
        config(),
        |_, _| FaultConfig::none(),
        &registry,
    );
    for q in queries(20) {
        match fleet.query(&q, 10, None) {
            FleetOutcome::Done(resp) => {
                assert_eq!(resp.hits, brute_force(&fleet, &q, 10, &data, &[]));
                assert!(resp.shard_status.iter().all(|s| s.as_str() == "done"));
            }
            other => panic!("healthy fleet must answer exactly, got {other:?}"),
        }
    }
    assert_eq!(registry.snapshot().counter("fleet.done"), Some(20));
}

#[test]
fn killed_replica_fails_over_and_answers_stay_exact() {
    let data = dataset();
    let registry = MetricsRegistry::new();
    let fleet = Fleet::build(
        &data,
        scheme(),
        config(),
        |_, _| FaultConfig::none(),
        &registry,
    );

    // Kill shard 0, replica 0 outright: every page permanently unreadable.
    fleet.shards()[0].replicas[0]
        .injector
        .set_config(FaultConfig {
            unreadable_rate: 1.0,
            ..FaultConfig::none()
        });

    for q in queries(20) {
        match fleet.query(&q, 10, None) {
            FleetOutcome::Done(resp) => {
                assert_eq!(resp.hits, brute_force(&fleet, &q, 10, &data, &[]));
            }
            other => panic!("replica 1 should cover shard 0, got {other:?}"),
        }
    }
    // The router marked the dead replica unhealthy and counted failovers.
    assert!(
        !fleet.replica_healthy(0, 0),
        "dead replica still marked healthy"
    );
    assert!(fleet.replica_healthy(0, 1));
    let snap = registry.snapshot();
    assert!(snap.counter("fleet.failovers").unwrap_or(0) > 0);
    assert_eq!(snap.counter("fleet.failed"), Some(0));
}

#[test]
fn dead_shard_degrades_gracefully_with_its_candidates_declared() {
    let data = dataset();
    let registry = MetricsRegistry::new();
    let fleet = Fleet::build(
        &data,
        scheme(),
        config(),
        |_, _| FaultConfig::none(),
        &registry,
    );

    // Kill *both* replicas of shard 1: every page permanently unreadable.
    // The replicas still *answer* — Degraded with everything declared
    // missing (the serving path's own degradation contract) — so the shard
    // is degraded, not dead, and the router must relay its declaration.
    for replica in &fleet.shards()[1].replicas {
        replica.injector.set_config(FaultConfig {
            unreadable_rate: 1.0,
            ..FaultConfig::none()
        });
    }

    for q in queries(10) {
        match fleet.query(&q, 10, None) {
            FleetOutcome::Degraded {
                response,
                missing,
                dead_shards,
            } => {
                // Exact over the two live shards...
                assert_eq!(response.hits, brute_force(&fleet, &q, 10, &data, &[1]));
                // ...with the killed shard's candidates declared, exactly.
                let expect: BTreeSet<PointId> = fleet.shards()[1]
                    .candidates_global(&q, 10)
                    .into_iter()
                    .collect();
                let got: BTreeSet<PointId> = missing.iter().copied().collect();
                assert_eq!(got, expect);
                assert_eq!(missing.len(), got.len(), "missing must be deduplicated");
                // Its replicas answered, so no shard was declared dead.
                assert_eq!(dead_shards, Vec::<usize>::new());
            }
            other => panic!("dead shard must degrade, not {other:?}"),
        }
    }
    let snap = registry.snapshot();
    assert_eq!(snap.counter("fleet.degraded"), Some(10));
    assert!(snap.counter("fleet.shards_degraded").unwrap_or(0) >= 10);
}

#[test]
fn unresponsive_shard_is_declared_dead_with_router_side_candidates() {
    let data = dataset();
    let registry = MetricsRegistry::new();
    let mut config = config();
    // One worker, one queue slot per replica, so two stuck requests wedge a
    // replica completely; hedging off so the router's only moves are the
    // submit-retry (QueueFull, instant backoff) and failover — both of
    // which must exhaust and declare the shard dead.
    config.workers_per_replica = 1;
    config.queue_capacity = 1;
    config.min_hedge_samples = usize::MAX;
    config.hedge_floor = Duration::from_secs(10);
    // Shard 1's replicas stall ~10 ms per page read: long enough to hold
    // the queue full through the fleet query, short enough to drain fast.
    let fleet = Fleet::build(
        &data,
        scheme(),
        config,
        |shard, _| {
            if shard == 1 {
                FaultConfig {
                    latency_spike_rate: 1.0,
                    spike: Duration::from_millis(10),
                    ..FaultConfig::none()
                }
            } else {
                FaultConfig::none()
            }
        },
        &registry,
    );

    // Wedge shard 1: fill the worker and the queue of both replicas.
    let wedge = queries(1).pop().unwrap();
    let mut held = Vec::new();
    for replica in &fleet.shards()[1].replicas {
        for _ in 0..2 {
            // The second submit needs the queue slot back, which the worker
            // frees by picking the first request up — wait for that rather
            // than betting on the scheduler.
            held.push(loop {
                match replica.server.submit(wedge.clone(), 10, None) {
                    Ok(ticket) => break ticket,
                    Err(_) => std::thread::yield_now(),
                }
            });
        }
    }

    let q = &queries(2)[1];
    match fleet.query(q, 10, None) {
        FleetOutcome::Degraded {
            response,
            missing,
            dead_shards,
        } => {
            assert_eq!(dead_shards, vec![1]);
            assert_eq!(response.hits, brute_force(&fleet, q, 10, &data, &[1]));
            // The router named the dead shard's candidates itself, from the
            // in-memory index — no shard I/O involved.
            let expect: BTreeSet<PointId> = fleet.shards()[1]
                .candidates_global(q, 10)
                .into_iter()
                .collect();
            let got: BTreeSet<PointId> = missing.iter().copied().collect();
            assert_eq!(got, expect);
        }
        other => panic!("wedged shard must be declared dead, got {other:?}"),
    }
    let snap = registry.snapshot();
    assert!(snap.counter("fleet.submit_retries").unwrap_or(0) > 0);
    drop(held);
}

#[test]
fn scrub_recovers_a_killed_shard_back_to_exact_answers() {
    let data = dataset();
    let registry = MetricsRegistry::new();
    let fleet = Fleet::build(
        &data,
        scheme(),
        config(),
        |_, _| FaultConfig::none(),
        &registry,
    );

    for replica in &fleet.shards()[2].replicas {
        replica.injector.set_config(FaultConfig {
            unreadable_rate: 1.0,
            ..FaultConfig::none()
        });
    }
    let q = &queries(1)[0];
    assert!(matches!(
        fleet.query(q, 10, None),
        FleetOutcome::Degraded { .. }
    ));

    // Scrub repairs every sticky-dead page from the build-time replica.
    let report = fleet.shards()[2].scrub();
    assert!(report.pages_repaired > 0);
    match fleet.query(q, 10, None) {
        FleetOutcome::Done(resp) => {
            assert_eq!(resp.hits, brute_force(&fleet, q, 10, &data, &[]));
        }
        other => panic!("scrubbed shard must answer exactly again, got {other:?}"),
    }
}

#[test]
fn stalled_replica_is_hedged_and_the_hedge_wins() {
    let data = dataset();
    let registry = MetricsRegistry::new();
    let mut config = config();
    // Floor-driven hedging: fire after 20 ms of silence.
    config.hedge_floor = Duration::from_millis(20);
    config.min_hedge_samples = usize::MAX;
    // Replica 0 of every shard stalls 300 ms per read; replica 1 is clean.
    let fleet = Fleet::build(
        &data,
        scheme(),
        config,
        |_, replica| {
            if replica == 0 {
                FaultConfig {
                    latency_spike_rate: 1.0,
                    spike: Duration::from_millis(300),
                    ..FaultConfig::none()
                }
            } else {
                FaultConfig::none()
            }
        },
        &registry,
    );
    for q in queries(5) {
        match fleet.query(&q, 10, None) {
            FleetOutcome::Done(resp) => {
                assert_eq!(resp.hits, brute_force(&fleet, &q, 10, &data, &[]));
            }
            other => panic!("hedge should cover the stall, got {other:?}"),
        }
    }
    let snap = registry.snapshot();
    assert!(snap.counter("fleet.hedges_fired").unwrap_or(0) >= 5);
    assert!(snap.counter("fleet.hedges_won").unwrap_or(0) >= 1);
}

#[test]
fn statusz_reports_per_shard_replica_health_and_healthz_stays_200() {
    let data = dataset();
    let registry = MetricsRegistry::new();
    let fleet = Fleet::build(
        &data,
        scheme(),
        config(),
        |_, _| FaultConfig::none(),
        &registry,
    );
    fleet.shards()[0].replicas[0]
        .injector
        .set_config(FaultConfig {
            unreadable_rate: 1.0,
            ..FaultConfig::none()
        });
    for q in queries(10) {
        assert!(fleet.query(&q, 10, None).response().is_some());
    }

    let admin = fleet.serve_admin("127.0.0.1:0").expect("bind admin");
    let statusz = http_get(admin.local_addr(), "/statusz");
    assert!(statusz.starts_with("HTTP/1.1 200"), "statusz: {statusz}");
    // Shard 0 replica 0 is dark; its sibling and every other replica report
    // healthy.
    assert!(
        statusz.contains("\"replica\":0,\"healthy\":false"),
        "{statusz}"
    );
    assert!(
        statusz.contains("\"replica\":1,\"healthy\":true"),
        "{statusz}"
    );
    assert!(statusz.contains("\"shards\":3"));

    // One dead replica with a healthy sibling is not a fleet incident.
    let healthz = http_get(admin.local_addr(), "/healthz");
    assert!(healthz.starts_with("HTTP/1.1 200"), "healthz: {healthz}");
    admin.shutdown();
}

fn http_get(addr: std::net::SocketAddr, path: &str) -> String {
    use std::io::{Read, Write};
    let mut stream = std::net::TcpStream::connect(addr).expect("connect admin");
    write!(stream, "GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").expect("send request");
    let mut body = String::new();
    stream.read_to_string(&mut body).expect("read response");
    body
}
