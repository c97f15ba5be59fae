//! What the workloads' runs share: the warmed-up, measured window and the
//! end-to-end metrics read from it, and the per-layer arithmetic of the
//! traced runs — the figures that only exist under concurrency, the storage
//! counters, and the lane comparisons that price the serving shell and the
//! tracer itself.

use std::sync::atomic::AtomicUsize;
use std::time::Duration;

use hc_storage::IoSnapshot;

use crate::heap;
use crate::load::{closed_loop, window_stats, Answer, Sample, Served, Stop, WindowStats};
use crate::report::{Metrics, Report};
use crate::stats::{mean, ratio, Summary};
use crate::trace::{Layer, LayerTotals};
use crate::Options;

/// What the decorators may add to a directly called query, percent.
pub const TRACE_LIMIT_PCT: f64 = 10.0;

/// Share of `--seconds` the traced run spends on its concurrent window.
const CONCURRENT_SHARE: f64 = 0.25;

/// One warmed-up, measured closed-loop window.
pub struct Window<R> {
    /// Warm-up replies followed by the window's, for the oracle.
    pub all: Vec<Sample<R>>,
    /// How many of `all` belong to the window (they come last).
    pub measured: usize,
    pub stats: WindowStats,
    /// Device counters over the window.
    pub io: IoSnapshot,
    /// Peak of live heap bytes over the window, MB.
    pub heap_peak_mb: f64,
}

impl<R> Window<R> {
    /// The replies of the measured window.
    pub fn samples(&self) -> &[Sample<R>] {
        &self.all[self.all.len() - self.measured..]
    }
}

/// Serve `warmup` untimed requests, then run `clients` closed-loop clients
/// for `window`, bracketing it with the device counters and the heap peak.
pub fn measured_window<R: Send>(
    clients: usize,
    warmup: usize,
    stream: &[u32],
    window: Duration,
    io: impl Fn() -> IoSnapshot,
    call: impl Fn(u32) -> R + Sync,
) -> Window<R> {
    let cursor = AtomicUsize::new(0);
    let mut all = closed_loop(clients, stream, &cursor, Stop::After(warmup), &call);
    let before = io();
    heap::reset_peak();
    let samples = closed_loop(clients, stream, &cursor, Stop::At(window), &call);
    let heap_peak_mb = heap::peak_mb();
    let io = io().delta_since(before);
    let stats = window_stats(samples.iter().map(|s| (s.done, s.latency_us)), window)
        .expect("the window completed no request");
    let measured = samples.len();
    all.extend(samples);
    Window {
        all,
        measured,
        stats,
        io,
        heap_peak_mb,
    }
}

/// The end-to-end metrics every query workload reports from its timed
/// window. `pages` is the window's page count, however the workload counts
/// it; `setup` is (median seconds, builds).
pub fn end_to_end_metrics<R>(m: &mut Metrics, window: &Window<R>, pages: u64, setup: (f64, usize)) {
    let stats = &window.stats;
    m.set("qps", stats.qps, stats.samples);
    m.set("query_p50_us", stats.p50_us, stats.samples);
    m.set("query_p95_us", stats.p95_us, stats.samples);
    m.set(
        "pages_per_query",
        pages as f64 / window.measured as f64,
        window.measured,
    );
    m.set("heap_peak_mb", window.heap_peak_mb, 1);
    m.set("setup_s", setup.0, setup.1);
}

/// Run the short multi-client window of a traced run — warm-up, then
/// `--seconds / 4` of closed loop — and record what only concurrency
/// shows: queue wait, the ungated tail, and cross-query coalescing.
pub fn concurrent_window(
    report: &mut Report,
    opts: &Options,
    clients: usize,
    warmup: usize,
    stream: &[u32],
    io: impl Fn() -> IoSnapshot,
    call: impl Fn(u32) -> Served + Sync,
) -> Window<Served> {
    let length = Duration::from_secs_f64(opts.seconds * CONCURRENT_SHARE);
    let window = measured_window(clients, warmup, stream, length, io, call);
    let waits: Vec<f64> = window
        .samples()
        .iter()
        .map(|s| s.reply.queue_wait_us)
        .collect();
    let m = &mut report.metrics;
    serve_window_metrics(m, &waits, &window.stats.overall);
    m.set(
        "io.coalesced_per_1k",
        window.io.pages_coalesced as f64 * 1e3 / window.measured as f64,
        window.measured,
    );
    window
}

/// `serve.queue_wait_*` and the ungated latency tail of a served window.
/// The tail is the highest percentile with ten samples beyond it, so which
/// percentile it is depends on the sample; `serve.latency_tail_pct` says.
pub fn serve_window_metrics(m: &mut Metrics, queue_wait_us: &[f64], latency: &Summary) {
    let wait = Summary::of(queue_wait_us).expect("the window has samples");
    m.set("serve.queue_wait_p50_us", wait.p50, wait.count);
    m.set("serve.queue_wait_p95_us", wait.p95, wait.count);
    m.set("serve.latency_tail_us", latency.tail, latency.count);
    m.set(
        "serve.latency_tail_pct",
        latency.tail_q * 100.0,
        latency.count,
    );
}

/// Share of answered requests that declared a loss.
pub fn degraded_share<'a>(answers: impl Iterator<Item = &'a Answer>) -> f64 {
    let (mut degraded, mut total) = (0usize, 0usize);
    for answer in answers {
        total += 1;
        degraded +=
            matches!(answer, Answer::Answered { missing, .. } if !missing.is_empty()) as usize;
    }
    ratio(degraded as f64, total as f64)
}

/// The decorators and the server must be transparent: the same requests on
/// the same initial state read the same pages on every lane. Counts the
/// verdict and returns lane A's counters.
pub fn check_same_reads(
    report: &mut Report,
    before: [IoSnapshot; 3],
    after: [IoSnapshot; 3],
) -> IoSnapshot {
    let deltas = [0, 1, 2].map(|lane| after[lane].delta_since(before[lane]));
    report.verdict(
        "decorated, plain and served lanes made the same device reads",
        if deltas[0] == deltas[1] && deltas[1] == deltas[2] {
            Ok(())
        } else {
            Err(format!("{deltas:?}"))
        },
    );
    deltas[0]
}

/// Pages the queries had to obtain from outside their own page buffers:
/// device reads plus reads a shared hot buffer or a coalesced flight
/// absorbed. This is the paper's refinement page count — a deployment
/// without a shared buffer pays every one of them at the device — and,
/// unlike the device-only count, it does not collapse to zero once a hot
/// buffer larger than the file has seen every page.
pub fn pages_needed(io: IoSnapshot) -> u64 {
    io.pages_read + io.hot_hits + io.pages_coalesced
}

/// `storage.*`: device-side read time and the exact counts of the pass.
pub fn storage_metrics(m: &mut Metrics, totals: &LayerTotals, io: IoSnapshot, count: usize) {
    let (device_reads, device_errors) =
        (totals.calls(Layer::Storage), totals.failed(Layer::Storage));
    m.set(
        "storage.read_us",
        totals.self_us_per(Layer::Storage, count),
        count,
    );
    m.set(
        "storage.read_ns_per_page",
        ratio(totals.total_ns(Layer::Storage) as f64, io.pages_read as f64),
        io.pages_read as usize,
    );
    m.set(
        "storage.pages_per_query",
        io.pages_read as f64 / count as f64,
        count,
    );
    m.set(
        "storage.retries_per_query",
        io.pages_retried as f64 / count as f64,
        count,
    );
    m.set(
        "storage.read_errors_per_1k",
        ratio(device_errors as f64 * 1e3, device_reads as f64),
        device_reads as usize,
    );
}

/// Mean client-side latency of one lane, µs.
pub fn lane_latency_us<R>(samples: &[Sample<R>]) -> f64 {
    mean(&samples.iter().map(|s| s.latency_us).collect::<Vec<_>>())
}

/// Mean latencies of the three lanes every traced query workload runs.
#[derive(Debug, Clone, Copy)]
pub struct LaneLatencies {
    /// (A) decorated stack, engine called directly.
    pub decorated_us: f64,
    /// (A′) the same calls undecorated.
    pub plain_us: f64,
    /// (B) the same requests through a one-worker server, one client.
    pub served_us: f64,
}

impl LaneLatencies {
    /// From the passes of lanes A, A′ and B, in that order.
    pub fn of<R>(passes: &[Vec<Sample<R>>]) -> Self {
        Self {
            decorated_us: lane_latency_us(&passes[0]),
            plain_us: lane_latency_us(&passes[1]),
            served_us: lane_latency_us(&passes[2]),
        }
    }
}

/// `serve.overhead_us`, `serve.parallel_efficiency` and the `trace.*`
/// honesty checks. Returns the trace checks for the dominance verdict:
/// both must stay within `trace_limit_pct`. (The two are one quantity seen
/// from two sides — what the decorators add to lane A, over lane A′ and
/// over lane B — so they share a limit.)
pub fn lane_metrics(
    m: &mut Metrics,
    totals: &LayerTotals,
    lanes: LaneLatencies,
    concurrent_qps: f64,
    clients: usize,
    count: usize,
    trace_limit_pct: f64,
) -> Vec<(bool, String)> {
    let LaneLatencies {
        decorated_us,
        plain_us,
        served_us,
    } = lanes;
    let serve_overhead_us = served_us - plain_us;
    m.set("serve.overhead_us", serve_overhead_us, count);
    // Throughput of `clients` closed-loop clients against what they would
    // reach if each ran at the one-client rate of lane B.
    m.set(
        "serve.parallel_efficiency",
        concurrent_qps / (clients as f64 * 1e6 / served_us),
        count,
    );
    m.set(
        "trace.direct_us",
        totals.total_ns(Layer::Query) as f64 / 1e3 / count as f64,
        count,
    );
    let overhead_pct = (decorated_us - plain_us) / plain_us * 100.0;
    m.set("trace.overhead_pct", overhead_pct, count);
    // Self times add up to lane A's root span by construction; what the
    // sum plus the serving shell fails to explain of lane B is what the
    // decorators themselves cost.
    let layer_sum: f64 = Layer::ALL
        .iter()
        .map(|&l| totals.self_us_per(l, count))
        .sum();
    let unaccounted_pct = (layer_sum + serve_overhead_us - served_us).abs() / served_us * 100.0;
    m.set("trace.unaccounted_pct", unaccounted_pct, count);
    vec![
        (
            unaccounted_pct <= trace_limit_pct,
            format!("trace.unaccounted_pct = {unaccounted_pct:.2}, want <= {trace_limit_pct}"),
        ),
        (
            overhead_pct <= trace_limit_pct,
            format!("trace.overhead_pct = {overhead_pct:.2}, want <= {trace_limit_pct}"),
        ),
    ]
}

/// Share of lane A's mean root span that `layers` account for.
pub fn share_of_direct(totals: &LayerTotals, layers: &[Layer]) -> f64 {
    ratio(
        layers.iter().map(|&l| totals.self_ns(l) as f64).sum(),
        totals.total_ns(Layer::Query) as f64,
    )
}
