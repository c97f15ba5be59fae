//! `fleet_fanout`: a result waits for its slowest shard.
//!
//! `Fleet::build` with 2 shards × 2 replicas × 1 worker over the shared
//! world, the cache budget split per shard. Primaries carry latency spikes
//! (1% of reads stall 4 ms), standbys are clean, so router polling, hedging,
//! merge and the per-shard tail are what this workload shows. One
//! closed-loop client fans out to the two primaries: two runnable threads.

use std::sync::atomic::AtomicUsize;
use std::sync::Arc;
use std::time::Duration;

use hc_fleet::{Fleet, FleetConfig, FleetOutcome};
use hc_obs::MetricsRegistry;
use hc_storage::{FaultConfig, IoSnapshot};

use crate::layers::{degraded_share, end_to_end_metrics, measured_window, serve_window_metrics};
use crate::load::{closed_loop, serve, Answer, Sample, Served, Stop};
use crate::oracle::{PoolOracle, Truth};
use crate::report::Report;
use crate::stats::{mean, ratio, Summary};
use crate::world::{mix, request_stream, Draw, World, K};
use crate::{finish_dominance, median_setup, Options};

const NAME: &str = "fleet_fanout";
const SHARDS: usize = 2;
const REPLICAS: usize = 2;
const WORKERS_PER_REPLICA: usize = 1;
/// Fleet-wide cache budget as a share of the point file's bytes.
const CACHE_SHARE: f64 = 0.30;
/// Share of a primary's physical reads that stall, and for how long. With
/// the fixed fault schedule below, 21 % of requests stall once and 0.2 %
/// twice, so p95 sits well inside the single-stall mass (≈ the spike plus a
/// normal answer), and the router's hedge threshold — three times the 95th
/// percentile of a shard's last 256 latencies — exceeds the spike, so
/// hedges all but never fire: the seed commit's behaviour, worth pinning.
const SPIKE_RATE: f64 = 0.01;
const SPIKE: Duration = Duration::from_millis(4);
/// Seed of every replica's fault schedule (see `build_fleet`).
const FAULT_SEED: u64 = 0xF1EE7;
const WARMUP: usize = 500;
const TRACED_PER_SECOND: usize = 100;
const TRACED_WARMUP: usize = 200;

fn build_fleet(world: &World) -> Fleet {
    let config = FleetConfig {
        shards: SHARDS,
        replicas: REPLICAS,
        workers_per_replica: WORKERS_PER_REPLICA,
        cache_bytes_per_replica: (world.file_bytes() as f64 * CACHE_SHARE) as usize / SHARDS,
        ..FleetConfig::default()
    };
    // Fault rolls are a pure function of (seed, page, attempt): a page
    // either stalls every first read or never does, so which of the pool's
    // popular queries stall is decided by the fault seed alone. Drawn per
    // `--seed`, that choice moves qps by ±20 % between seeds; like the
    // corpus, the slow pages are therefore the same in every run, and
    // `--seed` decides which queries are asked.
    let fault = |shard: usize, replica: usize| {
        let seed = mix(FAULT_SEED, (shard * REPLICAS + replica) as u64);
        if replica == 0 {
            FaultConfig {
                seed,
                latency_spike_rate: SPIKE_RATE,
                spike: SPIKE,
                ..FaultConfig::none()
            }
        } else {
            FaultConfig {
                seed,
                ..FaultConfig::none()
            }
        }
    };
    Fleet::build(
        &world.dataset,
        Arc::clone(&world.scheme),
        config,
        fault,
        &MetricsRegistry::new(),
    )
}

/// Device reads summed over every replica of every shard.
fn pages_read(fleet: &Fleet) -> u64 {
    fleet
        .shards()
        .iter()
        .flat_map(|shard| &shard.replicas)
        .map(|replica| replica.injector.inner().stats().pages_read())
        .sum()
}

/// One fleet answer with the router's own figures.
struct Routed {
    answer: Answer,
    hedges: u32,
    merge_us: f64,
}

fn route(fleet: &Fleet, q: &[f32]) -> Routed {
    let (response, missing) = match fleet.query(q, K, None) {
        FleetOutcome::Done(response) => (response, Vec::new()),
        FleetOutcome::Degraded {
            response, missing, ..
        } => (response, missing),
        FleetOutcome::Failed { reason } => {
            return Routed {
                answer: Answer::Failed(reason),
                hedges: 0,
                merge_us: 0.0,
            }
        }
    };
    Routed {
        hedges: response.hedges,
        merge_us: response.merge_latency.as_secs_f64() * 1e6,
        answer: Answer::Answered {
            ids: response.hits.into_iter().map(|(_, id)| id).collect(),
            missing,
        },
    }
}

/// Fleet universe: the union of every shard's candidates, in global ids.
/// Spikes delay reads but never fail them, so nothing may be declared lost.
fn fleet_oracle<'a>(world: &'a World, fleet: &'a Fleet) -> PoolOracle<'a> {
    PoolOracle::new(&world.pool, &world.dataset, true, move |q| {
        Truth::of_candidates(
            q,
            fleet
                .shards()
                .iter()
                .flat_map(|shard| shard.candidates_global(q, K))
                .map(|id| (id, world.dataset.point(id))),
        )
    })
}

pub fn run(opts: &Options) -> Report {
    if opts.trace {
        traced(opts)
    } else {
        timed(opts)
    }
}

fn timed(opts: &Options) -> Report {
    let mut report = Report::new(NAME, opts.seed, opts.seconds, false);
    let (setup_s, setups, (world, fleet)) = median_setup(opts, || {
        let world = World::build();
        let fleet = build_fleet(&world);
        (world, fleet)
    });
    let stream = request_stream(world.pool.len(), Draw::Zipf, opts.seed, 1 << 16);
    let window = measured_window(
        1,
        opts.scaled(WARMUP),
        &stream,
        Duration::from_secs_f64(opts.seconds),
        || IoSnapshot {
            pages_read: pages_read(&fleet),
            ..IoSnapshot::default()
        },
        |pool| route(&fleet, &world.pool[pool as usize]),
    );

    let mut oracle = fleet_oracle(&world, &fleet);
    for s in &window.all {
        oracle.check(&mut report, "routed", s.pool, &s.reply.answer);
    }
    drop(oracle);
    // `Shard::build` wires no broker: a page needed is a device read.
    end_to_end_metrics(
        &mut report.metrics,
        &window,
        window.io.pages_read,
        (setup_s, setups),
    );
    fleet.shutdown();
    report
}

/// The per-layer run. `Shard::build` assembles its replicas from concrete
/// types, so there is no trait object to decorate; the fleet's layers are
/// timed from outside instead. Two identical fleets see the same requests
/// from the same initial state: one is asked through the router, the other
/// has each shard's primary asked directly, one after the other — what the
/// router adds is the difference.
fn traced(opts: &Options) -> Report {
    let mut report = Report::new(NAME, opts.seed, opts.seconds, true);
    let world = World::build();
    let routed_fleet = build_fleet(&world);
    let direct_fleet = build_fleet(&world);
    let stream = request_stream(world.pool.len(), Draw::Zipf, opts.seed, 1 << 16);
    let warm = opts.scaled(TRACED_WARMUP);
    let count = opts.traced_requests(TRACED_PER_SECOND);

    // Through the router.
    let cursor = AtomicUsize::new(0);
    let call = |pool: u32| route(&routed_fleet, &world.pool[pool as usize]);
    let routed_warmup = closed_loop(1, &stream, &cursor, Stop::After(warm), call);
    let pages_before = pages_read(&routed_fleet);
    let routed = closed_loop(1, &stream, &cursor, Stop::After(count), call);
    let pages = pages_read(&routed_fleet) - pages_before;

    // Each primary directly, shard after shard.
    let cursor = AtomicUsize::new(0);
    let call = |pool: u32| -> Vec<(f64, Served)> {
        direct_fleet
            .shards()
            .iter()
            .map(|shard| {
                let sent = std::time::Instant::now();
                let served = serve(&shard.replicas[0].server, &world.pool[pool as usize]);
                (sent.elapsed().as_secs_f64() * 1e6, served)
            })
            .collect()
    };
    let direct_warmup = closed_loop(1, &stream, &cursor, Stop::After(warm), call);
    let direct: Vec<Sample<Vec<(f64, Served)>>> =
        closed_loop(1, &stream, &cursor, Stop::After(count), call);

    let mut oracle = fleet_oracle(&world, &routed_fleet);
    for s in routed_warmup.iter().chain(&routed) {
        oracle.check(&mut report, "routed", s.pool, &s.reply.answer);
    }
    drop(oracle);
    // A primary answers in its shard's local ids over its local data.
    for (s, shard) in direct_fleet.shards().iter().enumerate() {
        let mut oracle = PoolOracle::new(&world.pool, &shard.data.dataset, true, |q| {
            Truth::of_candidates(
                q,
                shard
                    .index
                    .candidates(q, K)
                    .into_iter()
                    .map(|id| (id, shard.data.dataset.point(id))),
            )
        });
        for sample in direct_warmup.iter().chain(&direct) {
            oracle.check(
                &mut report,
                &format!("shard {s} primary"),
                sample.pool,
                &sample.reply[s].1.answer,
            );
        }
    }

    let per_request = |f: fn(&[f64]) -> f64| -> Vec<f64> {
        direct
            .iter()
            .map(|s| f(&s.reply.iter().map(|(us, _)| *us).collect::<Vec<_>>()))
            .collect()
    };
    let shard_mean = per_request(mean);
    let shard_max = per_request(|v| v.iter().copied().fold(0.0, f64::max));
    let skew: Vec<f64> = shard_max
        .iter()
        .zip(&shard_mean)
        .map(|(max, mean)| ratio(*max, *mean))
        .collect();
    let latency: Vec<f64> = routed.iter().map(|s| s.latency_us).collect();
    let routed_summary = Summary::of(&latency).expect("the routed pass has samples");
    let served = || direct.iter().flat_map(|s| s.reply.iter().map(|(_, r)| r));
    let waits: Vec<f64> = served().map(|r| r.queue_wait_us).collect();
    let (hits, probed) = served().fold((0usize, 0usize), |(h, p), r| {
        (h + r.cache_hits, p + r.candidates)
    });

    let m = &mut report.metrics;
    m.set("fleet.shard_latency_us", mean(&shard_mean), count * SHARDS);
    m.set(
        "fleet.router_overhead_us",
        routed_summary.mean - mean(&shard_max),
        count,
    );
    m.set(
        "fleet.merge_us",
        mean(&routed.iter().map(|s| s.reply.merge_us).collect::<Vec<_>>()),
        count,
    );
    m.set(
        "fleet.hedges_per_1k",
        routed.iter().map(|s| s.reply.hedges as f64).sum::<f64>() * 1e3 / count as f64,
        count,
    );
    m.set("fleet.fanout_skew", mean(&skew), count);
    m.set(
        "fleet.degraded_share",
        degraded_share(routed.iter().map(|s| &s.reply.answer)),
        count,
    );
    m.set(
        "index.candidates_per_query",
        probed as f64 / count as f64,
        count,
    );
    m.set("cache.hit_ratio", ratio(hits as f64, probed as f64), probed);
    m.set(
        "storage.pages_per_query",
        pages as f64 / count as f64,
        count,
    );
    serve_window_metrics(m, &waits, &routed_summary);
    m.set("trace.direct_us", routed_summary.mean, count);
    finish_dominance(&mut report, opts, Vec::new());
    routed_fleet.shutdown();
    direct_fleet.shutdown();
    report
}
