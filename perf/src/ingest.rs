//! `ingest_mixed`: writes beside reads on the live-mutable engine.
//!
//! An `IngestEngine` served by `QueryServer::start_ingest` with one worker.
//! An **open-loop** writer offers a fixed rate of mutations (so the offered
//! load is the same on every commit), each timed from the moment it was due,
//! and runs the lifecycle daemon every so many ops — count-triggered, so
//! seals and compactions repeat exactly. One closed-loop reader queries
//! until the writer finishes. Then: quiesce and verify against the mutation
//! stream's shadow, crash with a torn WAL tail, recover, verify again.
//! A query-side gain that lengthens writer stalls, or a cheaper seal that
//! slows segment search, shows here and nowhere else.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use hc_core::dataset::PointId;
use hc_ingest::wal::encode_record;
use hc_ingest::{IngestConfig, IngestEngine, ReplayEnd, WalDevice, WalOp, WalRecord};
use hc_maint::IngestDaemon;
use hc_obs::MetricsRegistry;
use hc_serve::{QueryServer, ServeConfig};
use hc_workload::{MutationMix, MutationOp, MutationStream};

use crate::heap;
use crate::layers::serve_window_metrics;
use crate::load::{serve, window_stats, Answer, Served};
use crate::oracle::{check_ids, check_live_set, check_shape};
use crate::report::Report;
use crate::stats::{mean, quantile};
use crate::world::{request_stream, Draw, K};
use crate::{finish_dominance, median_setup, Options};

const NAME: &str = "ingest_mixed";
const DIM: usize = 150;
const ID_SPACE: u32 = 40_000;
/// Mutations applied (plus one daemon cycle) before anything is timed.
const PRELOAD_OPS: usize = 30_000;
/// Offered write rate of the timed phase, ops per second.
const WRITE_RATE: usize = 5_000;
/// The writer runs one daemon cycle after every this many ops.
const MAINT_EVERY: usize = 2_000;
/// Seed of the mutation stream. Like the query workloads' corpus it is the
/// same in every run: the stream draws the vectors as well as the ops, and
/// a data set redrawn per `--seed` moves the reader's figures by more than
/// a regression bound. `--seed` decides the order the reader asks in.
const STREAM_SEED: u64 = 0x1465;
/// Distinct query vectors the reader draws from.
const READER_QUERIES: usize = 256;
/// Queries verified against the shadow at each quiesce point.
const VERIFIED_QUERIES: usize = 100;
/// Unpaced ops that price a bare insert and a bare delete (traced run).
const BURST_OPS: usize = 2_000;

/// Everything one incarnation of the system under test consists of.
struct Rig {
    registry: MetricsRegistry,
    device: Arc<WalDevice>,
    engine: Arc<IngestEngine>,
    daemon: IngestDaemon,
    server: QueryServer,
    stream: MutationStream,
}

fn apply(engine: &IngestEngine, op: MutationOp) -> Result<u64, String> {
    match op {
        MutationOp::Insert { id, vector } => engine.insert(id, vector),
        MutationOp::Delete { id } => engine.delete(id),
    }
    .map_err(|e| e.to_string())
}

fn start_server(engine: &Arc<IngestEngine>, registry: &MetricsRegistry) -> QueryServer {
    QueryServer::start_ingest(
        Arc::clone(engine),
        ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        },
        registry,
    )
}

impl Rig {
    fn build(opts: &Options) -> Self {
        let registry = MetricsRegistry::new();
        let device = Arc::new(WalDevice::new());
        let engine = Arc::new(IngestEngine::new(
            Arc::clone(&device),
            IngestConfig::new(DIM),
            &registry,
        ));
        let mut stream = MutationStream::new(DIM, ID_SPACE, MutationMix::default(), STREAM_SEED);
        for _ in 0..opts.scaled(PRELOAD_OPS) {
            apply(&engine, stream.next_op()).expect("pre-load write refused");
        }
        let daemon = IngestDaemon::new(Arc::clone(&engine), &registry);
        daemon.run_once();
        let server = start_server(&engine, &registry);
        Self {
            registry,
            device,
            engine,
            daemon,
            server,
            stream,
        }
    }
}

/// What the paced writer measured.
#[derive(Default)]
struct WriterLog {
    /// Due-time → acknowledgement, µs, one per op.
    latency_us: Vec<f64>,
    /// Time inside `insert` / `delete` / `run_once`, µs.
    busy_us: f64,
    /// How late the generator started its latest op, µs.
    late_max_us: f64,
    /// Duration of each daemon cycle, ms, and the segment count after it.
    cycles_ms: Vec<f64>,
    segments: Vec<f64>,
    refused: Vec<String>,
    elapsed: Duration,
}

/// Offer `ops` mutations at [`WRITE_RATE`], each due `1 / rate` after the
/// previous one regardless of how long the previous one took. A stalled
/// writer (an inline seal, a compaction under the writer lock) therefore
/// shows as a backlog: later ops start late and their latency includes it.
fn paced_writer(
    engine: &IngestEngine,
    daemon: &IngestDaemon,
    stream: &mut MutationStream,
    ops: usize,
) -> WriterLog {
    let period = Duration::from_secs_f64(1.0 / WRITE_RATE as f64);
    let mut log = WriterLog {
        latency_us: Vec::with_capacity(ops),
        ..WriterLog::default()
    };
    let started = Instant::now();
    for i in 0..ops {
        let due = started + period * i as u32;
        // Wait by yielding, not by sleeping. A generator that sleeps between
        // ops is a light task, and the scheduler of the reference sandbox
        // leaves a light task on whichever core it started on: in about
        // half of all runs that was the server worker's core, the other
        // core idled, and every reader figure moved by 25 %. A generator
        // that is always runnable gets a core of its own, like the worker.
        while Instant::now() < due {
            std::thread::yield_now();
        }
        let op = stream.next_op();
        let begun = Instant::now();
        log.late_max_us = log
            .late_max_us
            .max(begun.saturating_duration_since(due).as_secs_f64() * 1e6);
        if let Err(refused) = apply(engine, op) {
            log.refused.push(refused);
        }
        if (i + 1) % MAINT_EVERY == 0 {
            let cycle = Instant::now();
            daemon.run_once();
            log.cycles_ms.push(cycle.elapsed().as_secs_f64() * 1e3);
            log.segments.push(engine.status().segments as f64);
        }
        let acked = Instant::now();
        log.busy_us += (acked - begun).as_secs_f64() * 1e6;
        log.latency_us.push((acked - due).as_secs_f64() * 1e6);
    }
    log.elapsed = started.elapsed();
    log
}

/// One reader sample: completion time since the phase began, and the reply.
struct Read {
    done: Duration,
    latency_us: f64,
    reply: Served,
}

/// Verify `VERIFIED_QUERIES` fresh queries against the shadow on a quiesced
/// engine, directly and through the server; returns the mean latencies
/// (direct µs, served µs). Whichever path goes second finds the query's
/// data in the processor's caches, so the two take turns going first.
fn verify_quiesced(
    report: &mut Report,
    what: &str,
    opts: &Options,
    engine: &IngestEngine,
    server: &QueryServer,
    stream: &mut MutationStream,
) -> (f64, f64) {
    let (mut direct_us, mut served_us) = (Vec::new(), Vec::new());
    for turn in 0..opts.scaled(VERIFIED_QUERIES) {
        let q = stream.query();
        let want = stream.reference_top_k(&q, K);
        let mut direct = |report: &mut Report| {
            let sent = Instant::now();
            let answer = engine.query(&q, K);
            direct_us.push(sent.elapsed().as_secs_f64() * 1e6);
            let got: Vec<PointId> = answer.hits.iter().map(|&(_, id)| id).collect();
            report.verdict(
                &format!("{what}, direct"),
                check_shape(want.len(), &got, &answer.missing)
                    .and_then(|()| check_ids(&want, &got)),
            );
        };
        let mut served = |report: &mut Report| {
            let sent = Instant::now();
            let served = serve(server, &q);
            served_us.push(sent.elapsed().as_secs_f64() * 1e6);
            report.verdict(
                &format!("{what}, served"),
                match &served.answer {
                    Answer::Failed(reason) => Err(reason.clone()),
                    Answer::Answered { ids, missing } => check_shape(want.len(), ids, missing)
                        .and_then(|()| check_ids(&want, ids))
                        .map_err(|e| e.to_string()),
                },
            );
        };
        if turn % 2 == 0 {
            direct(report);
            served(report);
        } else {
            served(report);
            direct(report);
        }
    }
    (mean(&direct_us), mean(&served_us))
}

pub fn run(opts: &Options) -> Report {
    let mut report = Report::new(NAME, opts.seed, opts.seconds, opts.trace);
    let (setup_s, setups, rig) = median_setup(opts, || Rig::build(opts));
    let Rig {
        registry,
        device,
        engine,
        daemon,
        server,
        mut stream,
    } = rig;
    let queries: Vec<Vec<f32>> = (0..READER_QUERIES).map(|_| stream.query()).collect();
    let order = request_stream(READER_QUERIES, Draw::Uniform, opts.seed, 1 << 14);
    let before = engine.status();

    // --- Timed phase: paced writer beside one closed-loop reader. ---
    let ops = (WRITE_RATE as f64 * opts.seconds) as usize;
    let writing = AtomicBool::new(true);
    heap::reset_peak();
    let started = Instant::now();
    let (log, reads) = std::thread::scope(|scope| {
        let reader = scope.spawn(|| {
            let mut reads = Vec::new();
            let mut next = 0usize;
            while writing.load(Ordering::Acquire) {
                let q = &queries[order[next % order.len()] as usize];
                next += 1;
                let sent = Instant::now();
                let reply = serve(&server, q);
                reads.push(Read {
                    latency_us: sent.elapsed().as_secs_f64() * 1e6,
                    done: started.elapsed(),
                    reply,
                });
            }
            reads
        });
        let log = paced_writer(&engine, &daemon, &mut stream, ops);
        writing.store(false, Ordering::Release);
        (log, reader.join().expect("reader thread panicked"))
    });
    let heap_peak_mb = heap::peak_mb();
    let after = engine.status();

    for refused in &log.refused {
        report.verdict("write admitted", Err::<(), _>(refused));
    }
    for read in &reads {
        report.verdict(
            "mid-ingest read",
            match &read.reply.answer {
                Answer::Failed(reason) => Err(reason.clone()),
                Answer::Answered { ids, missing } => {
                    check_shape(K, ids, missing).map_err(|e| e.to_string())
                }
            },
        );
    }
    let (direct_us, served_us) = verify_quiesced(
        &mut report,
        "quiesced before the crash",
        opts,
        &engine,
        &server,
        &mut stream,
    );

    // --- Traced only: what a bare insert and a bare delete cost. ---
    let burst = opts.trace.then(|| {
        let (mut insert_us, mut delete_us) = (Vec::new(), Vec::new());
        for _ in 0..opts.scaled(BURST_OPS) {
            let op = stream.next_op();
            let is_insert = matches!(op, MutationOp::Insert { .. });
            let sent = Instant::now();
            let outcome = apply(&engine, op);
            let us = sent.elapsed().as_secs_f64() * 1e6;
            if is_insert {
                &mut insert_us
            } else {
                &mut delete_us
            }
            .push(us);
            if let Err(refused) = outcome {
                report.verdict("burst write admitted", Err::<(), _>(refused));
            }
        }
        (insert_us, delete_us)
    });
    let live_bytes = (stream.live_len() * DIM * 4) as f64;
    let stored_bytes = (device.len() + device.segment_bytes()) as f64;

    // --- Crash: drop every holder of the engine, tear the WAL tail as a
    // kill mid-append would, recover from the device alone. ---
    let checkpoint_seq = engine.status().wal_checkpoint_seq;
    server.shutdown();
    drop(daemon);
    drop(engine);
    let torn = encode_record(&WalRecord {
        seq: u64::MAX,
        op: WalOp::Insert {
            id: PointId(0),
            vector: vec![0.0; DIM],
        },
    });
    device.append_torn(&torn, torn.len() / 2);
    let recovery = Instant::now();
    let (engine, replayed) =
        IngestEngine::recover(Arc::clone(&device), IngestConfig::new(DIM), &registry);
    let recover_ms = recovery.elapsed().as_secs_f64() * 1e3;
    let engine = Arc::new(engine);
    let replayed_ops = replayed
        .records
        .iter()
        .filter(|r| r.seq >= checkpoint_seq)
        .count();
    report.verdict(
        "the torn frame was detected and dropped",
        if replayed.end == ReplayEnd::TornTail {
            Ok(())
        } else {
            Err(format!("replay ended {:?}", replayed.end))
        },
    );
    report.verdict(
        "recovered live set equals the shadow",
        check_live_set(&engine.live_ids(), stream.live().keys().copied()),
    );
    let server = start_server(&engine, &registry);
    verify_quiesced(
        &mut report,
        "after recovery",
        opts,
        &engine,
        &server,
        &mut stream,
    );
    server.shutdown();

    let reader = window_stats(reads.iter().map(|r| (r.done, r.latency_us)), log.elapsed)
        .expect("the reader completed no query");
    let m = &mut report.metrics;
    if opts.trace {
        let mut sorted = log.latency_us.clone();
        sorted.sort_by(f64::total_cmp);
        let waits: Vec<f64> = reads.iter().map(|r| r.reply.queue_wait_us).collect();
        let (insert_us, delete_us) = burst.expect("the traced run bursts");
        m.set("ingest.write_us_per_op", log.busy_us / ops as f64, ops);
        m.set("ingest.write_p99_us", quantile(&sorted, 0.99), ops);
        m.set("ingest.write_late_max_us", log.late_max_us, ops);
        m.set("ingest.insert_us", mean(&insert_us), insert_us.len());
        m.set("ingest.delete_us", mean(&delete_us), delete_us.len());
        m.set(
            "ingest.maint_cycle_ms",
            mean(&log.cycles_ms),
            log.cycles_ms.len(),
        );
        m.set("ingest.seals", (after.seals - before.seals) as f64, ops);
        m.set(
            "ingest.compactions",
            (after.compactions - before.compactions) as f64,
            ops,
        );
        m.set(
            "ingest.segments_mean",
            mean(&log.segments),
            log.segments.len(),
        );
        m.set("ingest.query_us", direct_us, opts.scaled(VERIFIED_QUERIES));
        m.set("ingest.space_per_live_byte", stored_bytes / live_bytes, 1);
        m.set("ingest.recover_ms", recover_ms, 1);
        m.set("ingest.replayed_ops", replayed_ops as f64, 1);
        serve_window_metrics(m, &waits, &reader.overall);
        m.set(
            "serve.overhead_us",
            served_us - direct_us,
            opts.scaled(VERIFIED_QUERIES),
        );
        m.set(
            "storage.pages_per_query",
            reads.iter().map(|r| r.reply.io_pages as f64).sum::<f64>() / reads.len() as f64,
            reads.len(),
        );
        m.set("trace.direct_us", direct_us, opts.scaled(VERIFIED_QUERIES));
        finish_dominance(&mut report, opts, Vec::new());
    } else {
        m.set("qps", reader.qps, reader.samples);
        m.set("query_p50_us", reader.p50_us, reader.samples);
        m.set("query_p95_us", reader.p95_us, reader.samples);
        m.set(
            "pages_per_query",
            reads.iter().map(|r| r.reply.io_pages as f64).sum::<f64>() / reads.len() as f64,
            reads.len(),
        );
        m.set("heap_peak_mb", heap_peak_mb, 1);
        m.set("setup_s", setup_s, setups);
    }
    report
}
