//! The concurrent query server: worker threads over shared parts.
//!
//! Three backends share one serving shell, and the shell cannot tell them
//! apart: each `start*` constructor hands [`worker_loop`] a closure that
//! builds its engine, and the loop only ever sees "given `(q, k)`, return
//! the ids, the missing ids and the engine-phase slots of a
//! [`RequestTrace`]". [`QueryServer::start`] runs the flat-index path: every
//! worker owns a full [`KnnEngine`] (its own scratch, its own labeled
//! `query.*` metric series) but all engines share the same `Arc`'d index,
//! page store, and [`ConcurrentPointCache`] — so a point admitted by worker
//! 0 serves bound-hits to worker 3. [`QueryServer::start_tree`] runs the
//! tree path instead: workers own [`TreeSearchEngine`]s over
//! [`TreeSharedParts`] and a shared [`ConcurrentNodeCache`] (leaf
//! granularity, §3.6.1), so a leaf fetched by one worker serves exact or
//! compact hits to the rest. [`QueryServer::start_ingest`] serves the
//! live-mutable dataset: workers share one [`IngestEngine`] and every
//! answer is exact over the (memtable ∪ segments − tombstones) set it
//! observed, even while writers keep appending (DESIGN.md §13). Requests
//! flow through a [`BoundedQueue`]; admission control turns overload into
//! explicit [`SubmitError::QueueFull`] / [`QueryOutcome::TimedOut`]
//! outcomes rather than unbounded queueing.
//!
//! Correctness under concurrency is inherited from Algorithm 1: the cache
//! only supplies distance *bounds* over the candidate set, so whatever mix
//! of admissions the workers interleave, each query's result ids equal the
//! single-threaded engine's (same index, same candidates, same exact
//! refinement) — only the I/O spent getting there varies.
//!
//! Failure semantics (DESIGN.md §10): storage faults the engine could not
//! absorb surface as [`QueryOutcome::Degraded`] (the result is the exact
//! top-k of the readable candidates, with the lost ids listed); a panicking
//! request is caught per-request, its ticket fulfilled with
//! [`QueryOutcome::Failed`], and the worker rebuilds its engine and keeps
//! serving. Every admitted ticket terminates — no outcome is silently
//! dropped, even through shutdown.
//!
//! [`KnnEngine`]: hc_query::KnnEngine
//! [`TreeSearchEngine`]: hc_query::TreeSearchEngine

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use hc_cache::concurrent::{
    ConcurrentNodeCache, ConcurrentPointCache, SharedNodeCache, SharedPointCache,
};
use hc_core::dataset::PointId;
use hc_ingest::{IngestEngine, IngestStatus};
use hc_obs::{
    Counter, Gauge, Histogram, MetricsRegistry, RequestTrace, SloMonitor, SloOutcome, TraceOutcome,
};
use hc_query::{QueryObs, SharedParts, TreeSharedParts};
use hc_storage::clock::{Clock, RealClock};
use hc_storage::io_stats::IoModel;
use hc_storage::retry::RetryPolicy;

use crate::queue::{BoundedQueue, PushError};
use crate::sampler::QuerySampler;

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads, each with its own engine.
    pub workers: usize,
    /// Bounded admission queue capacity; pushes beyond it are shed.
    pub queue_capacity: usize,
    /// Latency model for the modeled refinement time reported per query.
    pub io_model: IoModel,
    /// When set, each worker *sleeps* `io_model.modeled_time(io_pages)`
    /// scaled by this factor after finishing a query, emulating the blocking
    /// disk wait of a real deployment. This is what makes multi-worker
    /// throughput scale even on a single core: threads overlap their
    /// simulated I/O stalls exactly as real threads overlap real disk waits.
    pub simulate_io_scale: Option<f64>,
    /// Enable the footnote-6 eager refetch in every flat worker engine.
    /// ([`QueryServer::start`] only: the tree path has no eager refetch,
    /// and [`QueryServer::start_ingest`] builds no engine.)
    pub eager_refetch: bool,
    /// Refinement look-ahead depth installed in every flat and tree worker
    /// engine (DESIGN.md §16): pages of the next `lookahead` lb-ordered
    /// candidates are submitted with each fetch batch. 0 disables batching;
    /// results are identical for every depth. Not used by
    /// [`QueryServer::start_ingest`]: segment reads run at look-ahead 0.
    pub lookahead: usize,
    /// Storage retry policy installed in every flat and tree worker engine.
    /// Not used by [`QueryServer::start_ingest`]: segment reads retry under
    /// the engine's own `IngestConfig::max_read_retries`.
    pub retry: RetryPolicy,
    /// Clock the retry backoff sleeps on. [`RealClock`] in production; tests
    /// inject a [`hc_storage::clock::SimulatedClock`] so fault-heavy sweeps
    /// finish without real stalls. Flat and tree engines only, like `retry`.
    pub clock: Arc<dyn Clock>,
    /// When set, every successfully evaluated query (exact or degraded) is
    /// offered to this sampler — the feed for a maintenance daemon's
    /// rebuild window (§3.5). Must be cheap: it runs on the worker thread.
    pub sampler: Option<Arc<dyn QuerySampler>>,
    /// When set, every terminal request outcome (including admission
    /// rejections) feeds this SLO monitor, driving the Healthy/Warn/
    /// Critical state `/healthz` reports and the Critical-transition
    /// flight recorder.
    pub slo: Option<Arc<SloMonitor>>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            workers: 4,
            queue_capacity: 64,
            io_model: IoModel::SSD,
            simulate_io_scale: None,
            eager_refetch: false,
            lookahead: 0,
            retry: RetryPolicy::default(),
            clock: Arc::new(RealClock),
            sampler: None,
            slo: None,
        }
    }
}

/// What the worker hands back through the ticket.
#[derive(Debug, Clone)]
pub struct QueryResponse {
    /// The k nearest candidate ids (Algorithm 1 output).
    pub ids: Vec<PointId>,
    /// Submit-to-fulfil wall time (includes queue wait and simulated I/O).
    pub latency: Duration,
    /// Time spent queued before a worker picked the request up.
    pub queue_wait: Duration,
    /// Pages fetched during refinement.
    pub io_pages: u64,
    /// Candidates answered from the shared cache.
    pub cache_hits: usize,
    /// `|C(q)|` for this query.
    pub candidates: usize,
    /// Deadline budget remaining at fulfilment, µs (negative if the
    /// answer landed late). `None` when the request had no deadline.
    pub deadline_slack_us: Option<i64>,
}

/// Terminal state of an admitted request. Every ticket resolves to exactly
/// one of these.
#[derive(Debug, Clone)]
pub enum QueryOutcome {
    /// The exact answer: provably the top-k of the candidate set.
    Done(QueryResponse),
    /// Storage faults made some candidates unreadable and their cached
    /// bounds could not prove them irrelevant. `response.ids` is still the
    /// exact top-k of the candidate set minus `missing` — correct over what
    /// was readable, explicitly incomplete about the rest.
    Degraded {
        response: QueryResponse,
        /// Candidate ids lost to unreadable pages.
        missing: Vec<PointId>,
    },
    /// The deadline passed while the request sat in the queue; it was shed
    /// without running.
    TimedOut,
    /// The request could not be answered at all: its evaluation panicked
    /// (the worker caught it and kept serving) or the server shut down with
    /// the request still queued and no worker left to run it.
    Failed { reason: String },
}

/// Why a submission was refused at the door.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// Queue at capacity — the request was shed (the paper's bounded-cache
    /// discipline applied to admission: overload costs rejections, not
    /// memory).
    QueueFull,
    /// [`QueryServer::shutdown`] already began.
    ShuttingDown,
}

/// One-shot response slot: worker fulfils, submitter waits.
struct ResponseSlot {
    state: Mutex<Option<QueryOutcome>>,
    cv: Condvar,
}

impl ResponseSlot {
    fn new() -> Self {
        Self {
            state: Mutex::new(None),
            cv: Condvar::new(),
        }
    }

    fn fulfil(&self, outcome: QueryOutcome) {
        let mut state = self.state.lock().expect("slot poisoned");
        *state = Some(outcome);
        drop(state);
        self.cv.notify_all();
    }

    fn wait(&self) -> QueryOutcome {
        let mut state = self.state.lock().expect("slot poisoned");
        loop {
            if let Some(outcome) = state.take() {
                return outcome;
            }
            state = self.cv.wait(state).expect("slot poisoned");
        }
    }

    fn wait_timeout(&self, timeout: Duration) -> Option<QueryOutcome> {
        let deadline = Instant::now() + timeout;
        let mut state = self.state.lock().expect("slot poisoned");
        loop {
            if let Some(outcome) = state.take() {
                return Some(outcome);
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            let (guard, _) = self
                .cv
                .wait_timeout(state, deadline - now)
                .expect("slot poisoned");
            state = guard;
        }
    }
}

/// Handle to one in-flight query; consume it with [`Ticket::wait`] or poll
/// it with [`Ticket::wait_timeout`].
pub struct Ticket {
    slot: Arc<ResponseSlot>,
}

impl Ticket {
    /// Block until the worker fulfils (or sheds) the request.
    pub fn wait(self) -> QueryOutcome {
        self.slot.wait()
    }

    /// Block up to `timeout` for the outcome. `None` means the request is
    /// still in flight — the ticket stays valid, so the caller can do other
    /// work and wait again.
    pub fn wait_timeout(&self, timeout: Duration) -> Option<QueryOutcome> {
        self.slot.wait_timeout(timeout)
    }
}

pub(crate) struct QueryRequest {
    /// Server-assigned request sequence number — the trace-ring key.
    seq: u64,
    query: Vec<f32>,
    k: usize,
    /// Shed (TimedOut) if a worker picks this up after the deadline.
    deadline: Option<Instant>,
    submitted: Instant,
    slot: Arc<ResponseSlot>,
}

/// Serving-layer metric handles (all no-ops on a disabled registry).
struct ServeObs {
    submitted: Counter,
    completed: Counter,
    rejected: Counter,
    timed_out: Counter,
    degraded: Counter,
    failed: Counter,
    worker_panics: Counter,
    worker_respawns: Counter,
    queue_depth: Gauge,
    latency_us: Histogram,
    queue_wait_us: Histogram,
}

impl ServeObs {
    fn bind(registry: &MetricsRegistry) -> Self {
        Self {
            submitted: registry.counter("serve.submitted"),
            completed: registry.counter("serve.completed"),
            rejected: registry.counter("serve.rejected"),
            timed_out: registry.counter("serve.timed_out"),
            degraded: registry.counter("serve.degraded"),
            failed: registry.counter("serve.failed"),
            worker_panics: registry.counter("serve.worker_panics"),
            worker_respawns: registry.counter("serve.worker_respawns"),
            queue_depth: registry.gauge("serve.queue_depth"),
            latency_us: registry.histogram("serve.latency_us"),
            queue_wait_us: registry.histogram("serve.queue_wait_us"),
        }
    }
}

/// What a worker's engine hands the shell for one evaluated query: the
/// result ids, the candidate ids lost to unreadable pages, and the
/// engine-phase slots of the request's trace — filled by the engine's own
/// stats (`QueryStats::trace`, `TreeQueryStats::trace`,
/// `IngestAnswer::trace`, where the slot meanings are documented). The
/// shell reads everything else it reports off that trace.
type Answer = (Vec<PointId>, Vec<PointId>, RequestTrace);

/// Reads the serving generation: the shared cache's (bumps on hot swap) or,
/// for the ingest backend, the manifest's (bumps on seal and compaction).
type Generation = Arc<dyn Fn() -> u64 + Send + Sync>;

/// Everything a worker thread holds except its engine. Each `start*`
/// constructor receives one on the worker's thread and hands it to
/// [`worker_loop`] together with a closure that builds that backend's
/// engine — the only backend-specific code in the server.
struct Worker {
    id: usize,
    queue: Arc<BoundedQueue<QueryRequest>>,
    in_flight: Arc<AtomicUsize>,
    obs: Arc<ServeObs>,
    registry: MetricsRegistry,
    config: ServeConfig,
    generation: Generation,
}

impl Worker {
    /// The `worker{i}` label of this worker's `query.*` series.
    fn label(&self) -> String {
        format!("worker{}", self.id)
    }
}

/// A running pool of query workers over one shared cache.
pub struct QueryServer {
    queue: Arc<BoundedQueue<QueryRequest>>,
    workers: Vec<JoinHandle<()>>,
    in_flight: Arc<AtomicUsize>,
    obs: Arc<ServeObs>,
    accepting: Arc<std::sync::atomic::AtomicBool>,
    /// Next request sequence number (trace-ring key).
    seq: Arc<AtomicU64>,
    registry: MetricsRegistry,
    slo: Option<Arc<SloMonitor>>,
    cache_generation: Generation,
    /// The live-mutable engine behind this server, when it was started with
    /// [`QueryServer::start_ingest`] — the admin endpoint reports its status.
    ingest: Option<Arc<IngestEngine>>,
    worker_count: usize,
    queue_capacity: usize,
    started: Instant,
}

impl QueryServer {
    /// Spawn `config.workers` threads. The shared cache's observability is
    /// bound once, centrally (per-shard labels); each worker additionally
    /// binds its own `worker{i}`-labeled `query.*` series.
    pub fn start(
        parts: SharedParts,
        cache: Arc<dyn ConcurrentPointCache>,
        config: ServeConfig,
        registry: &MetricsRegistry,
    ) -> Self {
        cache.bind_obs(registry);
        // Store-level binding: I/O counters, plus `storage.fault.*` when the
        // store is a fault injector.
        parts.file.bind_obs(registry);
        let generation = {
            let cache = Arc::clone(&cache);
            Arc::new(move || cache.generation())
        };
        Self::spawn(config, registry, generation, move |worker| {
            worker_loop(&worker, || {
                let config = &worker.config;
                let mut engine = parts.engine(Box::new(SharedPointCache::new(Arc::clone(&cache))));
                engine.io_model = config.io_model;
                engine.eager_refetch = config.eager_refetch;
                engine.lookahead = config.lookahead;
                engine.retry = config.retry;
                engine.clock = Arc::clone(&config.clock);
                // Traces are recorded once, at the serving layer, with full
                // lifecycle context — the engine keeps its histograms but
                // stays out of the ring.
                engine.obs =
                    QueryObs::bind_labeled(&worker.registry, &worker.label()).without_traces();
                engine.retry_obs.bind(&worker.registry);
                move |q: &[f32], k: usize| {
                    let (ids, stats) = engine.query(q, k);
                    let trace = stats.trace();
                    (ids, stats.missing, trace)
                }
            })
        })
    }

    /// Spawn `config.workers` threads running [`TreeSearchEngine`]s over the
    /// shared tree parts and one [`ConcurrentNodeCache`] (typically a
    /// [`crate::ShardedNodeCache`]). Leaves fetched by any worker are
    /// admitted into the shared cache and serve every other worker's
    /// lookups; degradation semantics (DESIGN.md §10) are identical to the
    /// point backend — unprovably-missing candidates surface as
    /// [`QueryOutcome::Degraded`].
    pub fn start_tree(
        parts: TreeSharedParts,
        cache: Arc<dyn ConcurrentNodeCache>,
        config: ServeConfig,
        registry: &MetricsRegistry,
    ) -> Self {
        cache.bind_obs(registry);
        parts.file.bind_obs(registry);
        let generation = {
            let cache = Arc::clone(&cache);
            Arc::new(move || cache.generation())
        };
        Self::spawn(config, registry, generation, move |worker| {
            // The tree engine borrows its node cache, so the worker thread
            // owns the shared adapter out here — it survives engine rebuilds
            // after a caught panic.
            let adapter = SharedNodeCache::new(Arc::clone(&cache));
            worker_loop(&worker, || {
                let config = &worker.config;
                let mut engine = parts
                    .engine(&adapter)
                    .with_retry(config.retry)
                    .with_clock(Arc::clone(&config.clock))
                    .with_lookahead(config.lookahead);
                engine.io_model = config.io_model;
                engine.bind_obs_labeled(&worker.registry, &worker.label());
                move |q: &[f32], k: usize| {
                    let (results, stats) = engine.query(q, k);
                    let trace = stats.trace();
                    let ids = results.into_iter().map(|(id, _)| id).collect();
                    (ids, stats.missing, trace)
                }
            })
        })
    }

    /// Spawn `config.workers` threads serving exact queries against a
    /// live-mutable [`IngestEngine`] (DESIGN.md §13). Writers keep
    /// appending to the WAL and sealing segments while this pool answers;
    /// every answer is exact over whatever (memtable ∪ segments −
    /// tombstones) set the query observed. The "cache generation" reported
    /// in traces and `/statusz` is the manifest generation, which bumps on
    /// every seal and compaction — the ingest analogue of a hot swap.
    ///
    /// Of the engine knobs in [`ServeConfig`] only `io_model` applies here
    /// (it prices the trace's modeled refinement time): the engine is built
    /// by the caller, and its segment reads run at look-ahead 0 under
    /// `IngestConfig::max_read_retries`, so `lookahead`, `retry`, `clock`
    /// and `eager_refetch` are not consulted.
    pub fn start_ingest(
        engine: Arc<IngestEngine>,
        config: ServeConfig,
        registry: &MetricsRegistry,
    ) -> Self {
        let generation = {
            let engine = Arc::clone(&engine);
            Arc::new(move || engine.manifest_generation())
        };
        let ingest = Arc::clone(&engine);
        let mut server = Self::spawn(config, registry, generation, move |worker| {
            // No per-worker state to build: the engine is shared and
            // internally synchronized, and a panicked query cannot poison it
            // (it takes no write locks), so the "rebuild" after a caught
            // panic is this same closure again. The engine has no phase
            // clock, so the worker times the call for the trace.
            let io_model = worker.config.io_model;
            worker_loop(&worker, || {
                |q: &[f32], k: usize| {
                    let started = Instant::now();
                    let answer = engine.query(q, k);
                    let trace = answer.trace(started.elapsed(), io_model);
                    let ids = answer.hits.iter().map(|&(_, id)| id).collect();
                    (ids, answer.missing, trace)
                }
            })
        });
        server.ingest = Some(ingest);
        server
    }

    /// The shell every backend shares: queue, counters, and one thread per
    /// worker running `body` — the constructor's own closure, which builds
    /// that backend's engine(s) on the worker thread and enters
    /// [`worker_loop`].
    fn spawn(
        config: ServeConfig,
        registry: &MetricsRegistry,
        cache_generation: Generation,
        body: impl Fn(Worker) + Send + Sync + 'static,
    ) -> Self {
        assert!(config.workers >= 1, "need at least one worker");
        let queue = Arc::new(BoundedQueue::new(config.queue_capacity));
        let in_flight = Arc::new(AtomicUsize::new(0));
        let obs = Arc::new(ServeObs::bind(registry));
        let body = Arc::new(body);

        let workers = (0..config.workers)
            .map(|id| {
                let worker = Worker {
                    id,
                    queue: Arc::clone(&queue),
                    in_flight: Arc::clone(&in_flight),
                    obs: Arc::clone(&obs),
                    registry: registry.clone(),
                    config: config.clone(),
                    generation: Arc::clone(&cache_generation),
                };
                let body = Arc::clone(&body);
                thread::Builder::new()
                    .name(format!("hc-serve-worker{id}"))
                    .spawn(move || body(worker))
                    .expect("spawn worker")
            })
            .collect();

        Self {
            queue,
            workers,
            in_flight,
            obs,
            accepting: Arc::new(std::sync::atomic::AtomicBool::new(true)),
            seq: Arc::new(AtomicU64::new(0)),
            registry: registry.clone(),
            slo: config.slo.clone(),
            cache_generation,
            ingest: None,
            worker_count: config.workers,
            queue_capacity: config.queue_capacity,
            started: Instant::now(),
        }
    }

    /// Admit a query. Non-blocking: a full queue sheds the request
    /// immediately. `deadline` (absolute) sheds it later if still queued
    /// when a worker gets to it.
    pub fn submit(
        &self,
        query: Vec<f32>,
        k: usize,
        deadline: Option<Instant>,
    ) -> Result<Ticket, SubmitError> {
        if !self.accepting.load(Ordering::Acquire) {
            return Err(SubmitError::ShuttingDown);
        }
        let slot = Arc::new(ResponseSlot::new());
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let request = QueryRequest {
            seq,
            query,
            k,
            deadline,
            submitted: Instant::now(),
            slot: Arc::clone(&slot),
        };
        self.in_flight.fetch_add(1, Ordering::AcqRel);
        match self.queue.try_push(request) {
            Ok(()) => {
                self.obs.submitted.inc();
                self.obs.queue_depth.set(self.queue.len() as f64);
                Ok(Ticket { slot })
            }
            Err(PushError::Full(_)) => {
                self.in_flight.fetch_sub(1, Ordering::AcqRel);
                self.obs.rejected.inc();
                // A shed request still leaves a trace and burns the
                // availability SLO — admission rejections are exactly the
                // overload signal the monitor exists to catch.
                self.registry.trace(RequestTrace {
                    seq,
                    worker: u32::MAX,
                    has_deadline: deadline.is_some(),
                    outcome: TraceOutcome::QueueFull,
                    ..RequestTrace::default()
                });
                if let Some(slo) = &self.slo {
                    slo.observe(SloOutcome {
                        answered: false,
                        degraded: false,
                        latency_us: 0,
                    });
                }
                Err(SubmitError::QueueFull)
            }
            Err(PushError::Closed(_)) => {
                self.in_flight.fetch_sub(1, Ordering::AcqRel);
                Err(SubmitError::ShuttingDown)
            }
        }
    }

    /// Requests admitted but not yet fulfilled.
    pub fn in_flight(&self) -> usize {
        self.in_flight.load(Ordering::Acquire)
    }

    pub fn queue_depth(&self) -> usize {
        self.queue.len()
    }

    /// The registry this server reports into.
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// The SLO monitor fed by this server, if one was configured.
    pub fn slo(&self) -> Option<&Arc<SloMonitor>> {
        self.slo.as_ref()
    }

    /// Worker threads in the pool.
    pub fn worker_count(&self) -> usize {
        self.worker_count
    }

    /// Admission queue capacity.
    pub fn queue_capacity(&self) -> usize {
        self.queue_capacity
    }

    /// Whether the server is still accepting submissions.
    pub fn is_accepting(&self) -> bool {
        self.accepting.load(Ordering::Acquire)
    }

    /// Time since the server started.
    pub fn uptime(&self) -> Duration {
        self.started.elapsed()
    }

    /// The cache generation currently serving (bumps on hot swap; 0 for
    /// non-swappable caches).
    pub fn cache_generation(&self) -> u64 {
        (self.cache_generation)()
    }

    // Shared handles for the admin endpoint: it outlives no one (its
    // thread stops on drop) but must read live state without borrowing
    // the server.
    pub(crate) fn queue_handle(&self) -> Arc<BoundedQueue<QueryRequest>> {
        Arc::clone(&self.queue)
    }

    pub(crate) fn in_flight_handle(&self) -> Arc<AtomicUsize> {
        Arc::clone(&self.in_flight)
    }

    pub(crate) fn accepting_handle(&self) -> Arc<std::sync::atomic::AtomicBool> {
        Arc::clone(&self.accepting)
    }

    pub(crate) fn cache_generation_handle(&self) -> Generation {
        Arc::clone(&self.cache_generation)
    }

    /// The live-mutable engine behind this server, when it was started
    /// with [`QueryServer::start_ingest`].
    pub fn ingest_engine(&self) -> Option<&Arc<IngestEngine>> {
        self.ingest.as_ref()
    }

    /// A point-in-time ingest status snapshot, when the backend is
    /// ingest-backed. `/statusz` renders this.
    pub fn ingest_status(&self) -> Option<IngestStatus> {
        self.ingest.as_ref().map(|e| e.status())
    }

    /// Fulfil every request still sitting in the (closed) queue with a
    /// terminal [`QueryOutcome::Failed`]. Workers normally drain the queue
    /// themselves during shutdown; this is the backstop that guarantees no
    /// ticket waits forever even if every worker is already gone.
    fn drain_queue(&self) {
        while let Some(request) = self.queue.pop() {
            self.obs.failed.inc();
            self.in_flight.fetch_sub(1, Ordering::AcqRel);
            request.slot.fulfil(QueryOutcome::Failed {
                reason: "server shut down before a worker ran this request".into(),
            });
        }
    }

    /// Stop admissions, drain the queue, and join every worker. All
    /// already-admitted requests reach a terminal outcome (run, timed out,
    /// or failed) before this returns, so `in_flight` is zero afterwards.
    pub fn shutdown(mut self) {
        self.accepting.store(false, Ordering::Release);
        self.queue.close();
        for handle in self.workers.drain(..) {
            handle.join().expect("worker panicked");
        }
        // Workers drained everything; this only fires if a worker thread
        // died outside the per-request catch (should be impossible).
        self.drain_queue();
        debug_assert_eq!(self.in_flight.load(Ordering::Acquire), 0);
    }
}

impl Drop for QueryServer {
    fn drop(&mut self) {
        // Belt-and-braces for tests that forget shutdown(): close, join, and
        // fulfil anything left queued.
        self.accepting.store(false, Ordering::Release);
        self.queue.close();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
        self.drain_queue();
    }
}

fn panic_reason(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "query evaluation panicked".to_string()
    }
}

/// The one worker loop: pop, shed if late, evaluate behind a panic fence,
/// trace, fulfil. `build` makes this worker's engine — "something that,
/// given `(q, k)`, returns an [`Answer`]" — and is called again after a
/// caught panic, because the old engine's internal state (heap, cache
/// admission mid-write) is suspect. Which backend `build` belongs to is
/// invisible from here.
fn worker_loop<E: FnMut(&[f32], usize) -> Answer>(worker: &Worker, build: impl Fn() -> E) {
    let Worker {
        id,
        queue,
        in_flight,
        obs,
        registry,
        config,
        generation,
    } = worker;
    let mut engine = build();
    // One trace record and one SLO observation per terminal request — the
    // same one-uncontended-lock-per-request discipline as the ring itself.
    let finish_trace =
        |base: RequestTrace, request: &QueryRequest, picked_up: Instant, outcome: TraceOutcome| {
            let now = Instant::now();
            let slack_us = request
                .deadline
                .map(|d| {
                    if d >= now {
                        d.duration_since(now).as_micros().min(i64::MAX as u128) as i64
                    } else {
                        -(now.duration_since(d).as_micros().min(i64::MAX as u128) as i64)
                    }
                })
                .unwrap_or(0);
            let total_us = now.duration_since(request.submitted).as_micros() as u64;
            registry.trace(RequestTrace {
                seq: request.seq,
                queue_wait_us: picked_up.duration_since(request.submitted).as_micros() as u64,
                total_us,
                worker: *id as u32,
                cache_generation: generation(),
                has_deadline: request.deadline.is_some(),
                deadline_slack_us: slack_us,
                outcome,
                ..base
            });
            if let Some(slo) = &config.slo {
                slo.observe(SloOutcome {
                    answered: outcome.is_answered(),
                    degraded: outcome == TraceOutcome::Degraded,
                    latency_us: total_us,
                });
            }
            slack_us
        };

    while let Some(request) = queue.pop() {
        obs.queue_depth.set(queue.len() as f64);
        let picked_up = Instant::now();
        if let Some(deadline) = request.deadline {
            if picked_up > deadline {
                obs.timed_out.inc();
                finish_trace(
                    RequestTrace::default(),
                    &request,
                    picked_up,
                    TraceOutcome::TimedOut,
                );
                // Decrement before fulfilling (here and below): once a ticket
                // resolves, a waiter must never observe this request still
                // counted in `in_flight`.
                in_flight.fetch_sub(1, Ordering::AcqRel);
                request.slot.fulfil(QueryOutcome::TimedOut);
                continue;
            }
        }
        // Isolate the request: a panic inside the engine (poisoned input,
        // index bug) must not take the worker down with queued tickets
        // unfulfilled.
        let evaluated = catch_unwind(AssertUnwindSafe(|| engine(&request.query, request.k)));
        let (ids, missing, trace) = match evaluated {
            Ok(answer) => answer,
            Err(payload) => {
                obs.worker_panics.inc();
                obs.failed.inc();
                finish_trace(
                    RequestTrace::default(),
                    &request,
                    picked_up,
                    TraceOutcome::Failed,
                );
                in_flight.fetch_sub(1, Ordering::AcqRel);
                request.slot.fulfil(QueryOutcome::Failed {
                    reason: panic_reason(payload),
                });
                // The engine that panicked mid-query may hold corrupt
                // scratch state; respawn a fresh one and keep serving.
                engine = build();
                obs.worker_respawns.inc();
                continue;
            }
        };
        // The query was served — feed it to the maintenance window before
        // fulfilment so a rebuild triggered right after sees it.
        if let Some(sampler) = &config.sampler {
            sampler.observe(&request.query);
        }
        let io_pages = u64::from(trace.io_pages);
        if let Some(scale) = config.simulate_io_scale {
            let stall = config.io_model.modeled_time(io_pages).mul_f64(scale);
            if !stall.is_zero() {
                thread::sleep(stall);
            }
        }
        let now = Instant::now();
        let latency = now.duration_since(request.submitted);
        let queue_wait = picked_up.duration_since(request.submitted);
        obs.completed.inc();
        obs.latency_us.record(latency.as_micros() as u64);
        obs.queue_wait_us.record(queue_wait.as_micros() as u64);
        let trace_outcome = if missing.is_empty() {
            TraceOutcome::Done
        } else {
            TraceOutcome::Degraded
        };
        let slack_us = finish_trace(trace, &request, picked_up, trace_outcome);
        let response = QueryResponse {
            ids,
            latency,
            queue_wait,
            io_pages,
            cache_hits: trace.cache_hits as usize,
            candidates: trace.candidates as usize,
            deadline_slack_us: request.deadline.map(|_| slack_us),
        };
        let outcome = if missing.is_empty() {
            QueryOutcome::Done(response)
        } else {
            obs.degraded.inc();
            QueryOutcome::Degraded { response, missing }
        };
        in_flight.fetch_sub(1, Ordering::AcqRel);
        request.slot.fulfil(outcome);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn response_slot_wait_timeout_expires_then_delivers() {
        let slot = Arc::new(ResponseSlot::new());
        assert!(
            slot.wait_timeout(Duration::from_millis(10)).is_none(),
            "unfulfilled slot must time out"
        );
        let fulfiller = Arc::clone(&slot);
        let t = thread::spawn(move || {
            thread::sleep(Duration::from_millis(20));
            fulfiller.fulfil(QueryOutcome::TimedOut);
        });
        let got = slot.wait_timeout(Duration::from_secs(5));
        t.join().expect("no panic");
        assert!(matches!(got, Some(QueryOutcome::TimedOut)));
    }

    #[test]
    fn panic_reason_extracts_common_payloads() {
        assert_eq!(panic_reason(Box::new("boom")), "boom");
        assert_eq!(panic_reason(Box::new(String::from("kaboom"))), "kaboom");
        assert_eq!(panic_reason(Box::new(42u32)), "query evaluation panicked");
    }
}
