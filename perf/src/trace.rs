//! Spans timed from outside the program, and the decorators that record them.
//!
//! The traced pass wraps every public trait object of a serving stack — the
//! candidate index, the concurrent caches, the page store (twice on flat
//! stacks: over the fetch broker and under it) — in a decorator defined
//! here, then drives the engine directly on one thread. Each decorated call
//! becomes a span `(layer, start, end, parent, request)` in an in-memory
//! [`Tracer`]; nothing inside the program is read, so a later change that
//! rewrites the engines' own timers cannot move these numbers by redefining
//! them. A layer's *self* time is its span minus the spans it caused, so the
//! self times of one request add up to its root span exactly.
//!
//! The traced pass is single-threaded and the tracer relies on it: spans are
//! stored per thread and parents come from one open-span chain. It is still
//! `Sync`, because the traits it decorates require that of it.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use hc_cache::{CacheLookup, ConcurrentNodeCache, ConcurrentPointCache, NodeLookup};
use hc_core::dataset::PointId;
use hc_index::{CandidateIndex, LeafedIndex};
use hc_obs::MetricsRegistry;
use hc_storage::{IoStats, PageBuffer, PageStore, StorageError};

/// The boundaries a span can be recorded at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// Root span of one request: the engine's `query` call.
    Query,
    /// `CandidateIndex::candidates`.
    Index,
    /// `LeafedIndex::leaf_lower_bounds`.
    LeafBounds,
    /// Point-cache `lookup` / `lookup_batch`.
    CacheLookup,
    /// Point- or node-cache `admit`.
    CacheAdmit,
    /// Node-cache `lookup`.
    NodeLookup,
    /// `PageStore::read_point` as the engine sees it (over the broker).
    Io,
    /// `PageStore::read_point` on the device side (under the broker).
    Storage,
}

impl Layer {
    pub const ALL: [Layer; 8] = [
        Layer::Query,
        Layer::Index,
        Layer::LeafBounds,
        Layer::CacheLookup,
        Layer::CacheAdmit,
        Layer::NodeLookup,
        Layer::Io,
        Layer::Storage,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Layer::Query => "query",
            Layer::Index => "index.candidates",
            Layer::LeafBounds => "index.leaf_bounds",
            Layer::CacheLookup => "cache.lookup",
            Layer::CacheAdmit => "cache.admit",
            Layer::NodeLookup => "cache.node_lookup",
            Layer::Io => "io.read",
            Layer::Storage => "storage.read",
        }
    }
}

/// Spans a tracer makes room for when created (a traced `flat_cold` pass
/// records about three million).
const SPAN_RESERVE: usize = 1 << 22;

/// Sentinel parent of a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// One recorded span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub layer: Layer,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one, or [`NO_PARENT`].
    pub parent: u32,
    /// Request identifier shared by every span of one request.
    pub request: u32,
    /// The decorated call returned an error (a failed page read).
    pub failed: bool,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

thread_local! {
    /// Spans of the passes driven from this thread, in opening order.
    static SPANS: RefCell<Vec<Span>> = const { RefCell::new(Vec::new()) };
}

/// In-memory span store. Spans are kept until [`Tracer::take`]; nothing is
/// written anywhere while a pass runs.
///
/// On `flat_cold` one query opens some 2,700 spans, so a tenth of a
/// microsecond per span is three percent of trace overhead there. Hence no
/// lock: the spans live in a thread-local vector (the traced pass runs on
/// one thread, and `take` is called from it), a span is written in place
/// when it opens and completed when it closes, and what remains is two
/// clock reads and a few relaxed atomics.
pub struct Tracer {
    epoch: Instant,
    /// Innermost open span, or [`NO_PARENT`].
    open: AtomicU32,
    request: AtomicU32,
}

impl Tracer {
    pub fn new() -> Arc<Self> {
        // Sized for a whole pass up front: growing a vector of millions of
        // spans mid-pass would charge its copies to whichever layer
        // happened to be open.
        SPANS.with_borrow_mut(|spans| spans.reserve(SPAN_RESERVE));
        Arc::new(Self {
            epoch: Instant::now(),
            open: AtomicU32::new(NO_PARENT),
            request: AtomicU32::new(0),
        })
    }

    fn now_ns(&self) -> u64 {
        let since = self.epoch.elapsed();
        since.as_secs() * 1_000_000_000 + u64::from(since.subsec_nanos())
    }

    /// Set the request identifier stamped on the spans that follow.
    pub fn set_request(&self, request: u32) {
        self.request.store(request, Ordering::Relaxed);
    }

    /// Run `f` inside a span of `layer`. The clock is read after the
    /// bookkeeping on entry and before it on exit, so the tracer's own cost
    /// lands in the parent's self time, never in the measured layer.
    pub fn span<R>(&self, layer: Layer, f: impl FnOnce() -> R) -> R {
        self.span_checked(layer, f, |_| false)
    }

    /// [`Tracer::span`] for a fallible call: the span records whether it
    /// failed, so failures are counted at the boundary they happen at.
    pub fn span_result<T, E>(
        &self,
        layer: Layer,
        f: impl FnOnce() -> Result<T, E>,
    ) -> Result<T, E> {
        self.span_checked(layer, f, Result::is_err)
    }

    fn span_checked<R>(
        &self,
        layer: Layer,
        f: impl FnOnce() -> R,
        failed: impl FnOnce(&R) -> bool,
    ) -> R {
        let request = self.request.load(Ordering::Relaxed);
        let index = SPANS.with_borrow_mut(|spans| {
            let index = spans.len() as u32;
            spans.push(Span {
                layer,
                start_ns: 0,
                end_ns: 0,
                parent: self.open.swap(index, Ordering::Relaxed),
                request,
                failed: false,
            });
            index
        });
        let start_ns = self.now_ns();
        let result = f();
        let end_ns = self.now_ns();
        let failed = failed(&result);
        SPANS.with_borrow_mut(|spans| {
            let span = &mut spans[index as usize];
            span.start_ns = start_ns;
            span.end_ns = end_ns;
            span.failed = failed;
            self.open.store(span.parent, Ordering::Relaxed);
        });
        result
    }

    /// Remove and return every span this thread recorded, in opening order:
    /// a span's `parent` is its parent's index in the returned vector. Call
    /// only between requests (no span open).
    pub fn take(&self) -> Vec<Span> {
        debug_assert_eq!(
            self.open.load(Ordering::Relaxed),
            NO_PARENT,
            "take() with spans still open"
        );
        SPANS.with_borrow_mut(|spans| std::mem::replace(spans, Vec::with_capacity(SPAN_RESERVE)))
    }
}

/// Per-layer sums over a set of spans.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LayerTotals {
    /// Span duration minus the durations of the spans it caused.
    self_ns: [u64; Layer::ALL.len()],
    /// Whole span durations.
    total_ns: [u64; Layer::ALL.len()],
    calls: [u64; Layer::ALL.len()],
    failed: [u64; Layer::ALL.len()],
}

impl LayerTotals {
    fn slot(layer: Layer) -> usize {
        Layer::ALL
            .iter()
            .position(|&l| l == layer)
            .expect("every layer is listed in ALL")
    }

    /// Sum `spans`; `parent` indices must refer into the same slice.
    pub fn of(spans: &[Span]) -> Self {
        let mut children_ns = vec![0u64; spans.len()];
        for span in spans {
            if span.parent != NO_PARENT {
                children_ns[span.parent as usize] += span.duration_ns();
            }
        }
        let mut totals = LayerTotals::default();
        for (span, &children) in spans.iter().zip(&children_ns) {
            let slot = Self::slot(span.layer);
            totals.total_ns[slot] += span.duration_ns();
            // Children are timed inside their parent, so the subtraction
            // cannot go negative; saturate anyway rather than trust clocks.
            totals.self_ns[slot] += span.duration_ns().saturating_sub(children);
            totals.calls[slot] += 1;
            totals.failed[slot] += u64::from(span.failed);
        }
        totals
    }

    pub fn self_ns(&self, layer: Layer) -> u64 {
        self.self_ns[Self::slot(layer)]
    }

    pub fn total_ns(&self, layer: Layer) -> u64 {
        self.total_ns[Self::slot(layer)]
    }

    /// Decorated calls made at `layer`.
    pub fn calls(&self, layer: Layer) -> u64 {
        self.calls[Self::slot(layer)]
    }

    /// Of those, the calls that returned an error.
    pub fn failed(&self, layer: Layer) -> u64 {
        self.failed[Self::slot(layer)]
    }

    /// Mean self time per request, µs — the unit in which layer values add
    /// up to the mean root span.
    pub fn self_us_per(&self, layer: Layer, requests: usize) -> f64 {
        self.self_ns(layer) as f64 / 1e3 / requests.max(1) as f64
    }
}

/// Times [`CandidateIndex::candidates`] and counts what it returned.
pub struct TimedIndex {
    inner: Arc<dyn CandidateIndex + Send + Sync>,
    tracer: Arc<Tracer>,
    pub candidates: AtomicU64,
}

impl TimedIndex {
    pub fn new(inner: Arc<dyn CandidateIndex + Send + Sync>, tracer: Arc<Tracer>) -> Self {
        Self {
            inner,
            tracer,
            candidates: AtomicU64::new(0),
        }
    }
}

impl CandidateIndex for TimedIndex {
    fn candidates(&self, q: &[f32], k: usize) -> Vec<PointId> {
        let out = self
            .tracer
            .span(Layer::Index, || self.inner.candidates(q, k));
        self.candidates
            .fetch_add(out.len() as u64, Ordering::Relaxed);
        out
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// Times [`LeafedIndex::leaf_lower_bounds`] only; the metadata accessors
/// are borrowed-slice reads the traversal calls per point.
pub struct TimedLeafed {
    inner: Arc<dyn LeafedIndex + Send + Sync>,
    tracer: Arc<Tracer>,
}

impl TimedLeafed {
    pub fn new(inner: Arc<dyn LeafedIndex + Send + Sync>, tracer: Arc<Tracer>) -> Self {
        Self { inner, tracer }
    }
}

impl LeafedIndex for TimedLeafed {
    fn num_leaves(&self) -> u32 {
        self.inner.num_leaves()
    }

    fn leaf_points(&self, leaf: u32) -> &[PointId] {
        self.inner.leaf_points(leaf)
    }

    fn leaf_lower_bounds(&self, q: &[f32]) -> Vec<(u32, f64)> {
        self.tracer
            .span(Layer::LeafBounds, || self.inner.leaf_lower_bounds(q))
    }

    fn leaf_of(&self, id: PointId) -> u32 {
        self.inner.leaf_of(id)
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// Times point-cache probes and admissions, and counts probes and hits at
/// the boundary where they happen.
pub struct TimedPointCache {
    inner: Arc<dyn ConcurrentPointCache>,
    tracer: Arc<Tracer>,
    pub lookups: AtomicU64,
    pub hits: AtomicU64,
}

impl TimedPointCache {
    pub fn new(inner: Arc<dyn ConcurrentPointCache>, tracer: Arc<Tracer>) -> Self {
        Self {
            inner,
            tracer,
            lookups: AtomicU64::new(0),
            hits: AtomicU64::new(0),
        }
    }

    fn count(&self, results: &[CacheLookup]) {
        let hits = results
            .iter()
            .filter(|r| !matches!(r, CacheLookup::Miss))
            .count();
        self.lookups
            .fetch_add(results.len() as u64, Ordering::Relaxed);
        self.hits.fetch_add(hits as u64, Ordering::Relaxed);
    }
}

impl ConcurrentPointCache for TimedPointCache {
    fn lookup(&self, q: &[f32], id: PointId) -> CacheLookup {
        let out = self
            .tracer
            .span(Layer::CacheLookup, || self.inner.lookup(q, id));
        self.count(std::slice::from_ref(&out));
        out
    }

    fn lookup_batch(&self, q: &[f32], ids: &[PointId], out: &mut Vec<CacheLookup>) {
        self.tracer
            .span(Layer::CacheLookup, || self.inner.lookup_batch(q, ids, out));
        self.count(out);
    }

    fn admit(&self, id: PointId, point: &[f32]) {
        self.tracer
            .span(Layer::CacheAdmit, || self.inner.admit(id, point))
    }

    fn contains(&self, id: PointId) -> bool {
        self.inner.contains(id)
    }

    fn used_bytes(&self) -> usize {
        self.inner.used_bytes()
    }

    fn capacity_bytes(&self) -> usize {
        self.inner.capacity_bytes()
    }

    fn label(&self) -> String {
        self.inner.label()
    }

    fn bind_obs(&self, registry: &MetricsRegistry) {
        self.inner.bind_obs(registry)
    }

    fn generation(&self) -> u64 {
        self.inner.generation()
    }
}

/// Times node-cache probes and admissions; a probe that is not a miss is a
/// hit (exact or compact).
pub struct TimedNodeCache {
    inner: Arc<dyn ConcurrentNodeCache>,
    tracer: Arc<Tracer>,
    pub lookups: AtomicU64,
    pub hits: AtomicU64,
}

impl TimedNodeCache {
    pub fn new(inner: Arc<dyn ConcurrentNodeCache>, tracer: Arc<Tracer>) -> Self {
        Self {
            inner,
            tracer,
            lookups: AtomicU64::new(0),
            hits: AtomicU64::new(0),
        }
    }
}

impl ConcurrentNodeCache for TimedNodeCache {
    fn lookup(&self, q: &[f32], leaf: u32) -> NodeLookup {
        let out = self
            .tracer
            .span(Layer::NodeLookup, || self.inner.lookup(q, leaf));
        self.lookups.fetch_add(1, Ordering::Relaxed);
        if !matches!(out, NodeLookup::Miss) {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        out
    }

    fn admit(&self, leaf: u32, points: &mut dyn ExactSizeIterator<Item = &[f32]>) {
        self.tracer
            .span(Layer::CacheAdmit, || self.inner.admit(leaf, points))
    }

    fn contains(&self, leaf: u32) -> bool {
        self.inner.contains(leaf)
    }

    fn used_bytes(&self) -> usize {
        self.inner.used_bytes()
    }

    fn capacity_bytes(&self) -> usize {
        self.inner.capacity_bytes()
    }

    fn label(&self) -> String {
        self.inner.label()
    }

    fn bind_obs(&self, registry: &MetricsRegistry) {
        self.inner.bind_obs(registry)
    }

    fn generation(&self) -> u64 {
        self.inner.generation()
    }
}

/// Times [`PageStore::read_point`] at one boundary ([`Layer::Io`] over the
/// broker, [`Layer::Storage`] under it); the spans themselves count the
/// reads and the failed reads. Everything else forwards untouched, so
/// `IoStats` stay the device's own.
pub struct TimedStore {
    inner: Arc<dyn PageStore>,
    tracer: Arc<Tracer>,
    layer: Layer,
}

impl TimedStore {
    pub fn new(inner: Arc<dyn PageStore>, tracer: Arc<Tracer>, layer: Layer) -> Self {
        Self {
            inner,
            tracer,
            layer,
        }
    }
}

impl PageStore for TimedStore {
    fn read_point<'s>(
        &'s self,
        id: PointId,
        attempt: u32,
        buffer: &mut PageBuffer,
    ) -> Result<&'s [f32], StorageError> {
        self.tracer
            .span_result(self.layer, || self.inner.read_point(id, attempt, buffer))
    }

    fn begin_query(&self) -> PageBuffer {
        self.inner.begin_query()
    }

    fn page_of(&self, id: PointId) -> u64 {
        self.inner.page_of(id)
    }

    fn stats(&self) -> &IoStats {
        self.inner.stats()
    }

    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn num_pages(&self) -> u64 {
        self.inner.num_pages()
    }

    fn bind_obs(&self, registry: &MetricsRegistry) {
        self.inner.bind_obs(registry)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: Layer, start_ns: u64, end_ns: u64, parent: u32) -> Span {
        Span {
            layer,
            start_ns,
            end_ns,
            parent,
            request: 0,
            failed: false,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_back_to_back_children() {
        // query [0, 100) causes index [10, 30), then io [40, 70) which
        // causes storage [45, 55) and storage [55, 65) back to back.
        let spans = [
            span(Layer::Query, 0, 100, NO_PARENT),
            span(Layer::Index, 10, 30, 0),
            span(Layer::Io, 40, 70, 0),
            span(Layer::Storage, 45, 55, 2),
            span(Layer::Storage, 55, 65, 2),
        ];
        let t = LayerTotals::of(&spans);
        assert_eq!(t.self_ns(Layer::Query), 100 - 20 - 30);
        assert_eq!(t.self_ns(Layer::Index), 20);
        assert_eq!(t.self_ns(Layer::Io), 30 - 20);
        assert_eq!(t.self_ns(Layer::Storage), 20);
        assert_eq!(t.total_ns(Layer::Io), 30);
        assert_eq!(t.calls(Layer::Storage), 2);
        // Self times of one request add up to its root span.
        let sum: u64 = Layer::ALL.iter().map(|&l| t.self_ns(l)).sum();
        assert_eq!(sum, 100);
        assert_eq!(t.self_us_per(Layer::Index, 2), 0.01);
    }

    #[test]
    fn tracer_assigns_parents_from_the_open_stack() {
        let tracer = Tracer::new();
        tracer.set_request(7);
        tracer.span(Layer::Query, || {
            tracer.span(Layer::Index, || ());
            tracer.span(Layer::Io, || tracer.span(Layer::Storage, || ()));
        });
        tracer.set_request(8);
        tracer.span(Layer::Query, || ());
        let spans = tracer.take();
        let shape: Vec<(Layer, u32, u32)> = spans
            .iter()
            .map(|s| (s.layer, s.parent, s.request))
            .collect();
        assert_eq!(
            shape,
            vec![
                (Layer::Query, NO_PARENT, 7),
                (Layer::Index, 0, 7),
                (Layer::Io, 0, 7),
                (Layer::Storage, 2, 7),
                (Layer::Query, NO_PARENT, 8),
            ]
        );
        for s in &spans {
            assert!(s.end_ns >= s.start_ns);
            if s.parent != NO_PARENT {
                let p = spans[s.parent as usize];
                assert!(p.start_ns <= s.start_ns && s.end_ns <= p.end_ns);
            }
        }
        assert!(tracer.take().is_empty(), "take drains the store");
    }

    // ---- Transparency: a decorated stack answers and reads exactly as the
    // ---- plain one does.

    use hc_cache::{SharedNodeCache, SharedPointCache};
    use hc_core::dataset::Dataset;
    use hc_core::histogram::HistogramKind;
    use hc_core::quantize::Quantizer;
    use hc_core::scheme::{ApproxScheme, GlobalScheme};
    use hc_index::{C2lsh, C2lshParams, IDistance};
    use hc_io::{BrokerConfig, FetchBroker};
    use hc_query::{SharedParts, TreeSharedParts};
    use hc_serve::{ShardedCompactCache, ShardedNodeCache};
    use hc_storage::{FaultConfig, FaultInjector, IoSnapshot, PointFile};
    use hc_workload::synth::gaussian_mixture;

    const QUERIES: usize = 12;
    const K: usize = 5;

    struct Fixture {
        dataset: Arc<Dataset>,
        queries: Vec<Vec<f32>>,
        scheme: Arc<dyn ApproxScheme>,
    }

    fn fixture() -> Fixture {
        let dataset = Arc::new(gaussian_mixture(600, 16, 6, 10.0, 0.5, 7));
        let queries = (0..QUERIES)
            .map(|i| {
                let mut q = dataset.point(PointId(i as u32 * 37)).to_vec();
                q[0] += 0.25;
                q
            })
            .collect();
        let quantizer = Quantizer::for_range(dataset.value_range());
        let freq = quantizer.frequency_array(dataset.as_flat());
        let hist = HistogramKind::EquiWidth.build(&freq, 16);
        let scheme: Arc<dyn ApproxScheme> =
            Arc::new(GlobalScheme::new(hist, quantizer, dataset.dim()));
        Fixture {
            dataset,
            queries,
            scheme,
        }
    }

    /// A small flat stack with every seam the harness decorates, a cache too
    /// small to hold the data and 5% transient faults, so misses, admissions,
    /// hot hits, failed reads and retries all occur.
    fn flat_pass(f: &Fixture, tracer: Option<Arc<Tracer>>) -> (Vec<Vec<PointId>>, IoSnapshot) {
        let file = Arc::new(PointFile::new((*f.dataset).clone()));
        let injector = Arc::new(FaultInjector::new(
            Arc::clone(&file),
            FaultConfig {
                seed: 5,
                transient_rate: 0.05,
                ..FaultConfig::none()
            },
        ));
        let broker_config = BrokerConfig {
            hot_pages: 8,
            ..BrokerConfig::default()
        };
        let index: Arc<dyn CandidateIndex + Send + Sync> =
            Arc::new(C2lsh::build(&f.dataset, C2lshParams::default()));
        let cache: Arc<dyn ConcurrentPointCache> =
            Arc::new(ShardedCompactCache::lru(Arc::clone(&f.scheme), 4096, 2));
        let (parts, cache) = match tracer {
            None => (
                SharedParts::new(
                    index,
                    Arc::new(FetchBroker::with_config(injector, broker_config)),
                ),
                cache,
            ),
            Some(t) => {
                let device = Arc::new(TimedStore::new(injector, Arc::clone(&t), Layer::Storage));
                let broker = Arc::new(FetchBroker::with_config(device, broker_config));
                (
                    SharedParts::new(
                        Arc::new(TimedIndex::new(index, Arc::clone(&t))),
                        Arc::new(TimedStore::new(broker, Arc::clone(&t), Layer::Io)),
                    ),
                    Arc::new(TimedPointCache::new(cache, t)) as Arc<dyn ConcurrentPointCache>,
                )
            }
        };
        let mut engine = parts.engine(Box::new(SharedPointCache::new(cache)));
        let answers = f.queries.iter().map(|q| engine.query(q, K).0).collect();
        (answers, file.stats().snapshot())
    }

    #[test]
    fn flat_decorators_change_no_answer_and_no_io_count() {
        let f = fixture();
        let plain = flat_pass(&f, None);
        let tracer = Tracer::new();
        let decorated = flat_pass(&f, Some(Arc::clone(&tracer)));
        assert_eq!(plain.0, decorated.0, "answers differ under decoration");
        assert_eq!(plain.1, decorated.1, "IoStats differ under decoration");
        assert!(plain.1.pages_read > 0 && plain.1.pages_retried > 0);

        let totals = LayerTotals::of(&tracer.take());
        assert_eq!(totals.calls(Layer::Index), QUERIES as u64);
        assert_eq!(totals.calls(Layer::CacheLookup), QUERIES as u64);
        assert!(totals.calls(Layer::CacheAdmit) > 0);
        // Every read the engine issues reaches the device-side boundary
        // exactly once (the broker forwards buffered reads too).
        assert_eq!(totals.calls(Layer::Io), totals.calls(Layer::Storage));
        assert_eq!(
            totals.calls(Layer::Io),
            plain.1.points_fetched + totals.failed(Layer::Io)
        );
        assert!(
            totals.failed(Layer::Storage) > 0,
            "5% faults must fail some reads"
        );
        assert_eq!(totals.failed(Layer::Io), totals.failed(Layer::Storage));
        assert!(
            totals.self_ns(Layer::Io) + totals.self_ns(Layer::Storage)
                <= totals.total_ns(Layer::Io)
        );
    }

    fn tree_pass(f: &Fixture, tracer: Option<Arc<Tracer>>) -> (Vec<Vec<PointId>>, IoSnapshot) {
        let file = Arc::new(PointFile::new((*f.dataset).clone()));
        let index: Arc<dyn LeafedIndex + Send + Sync> =
            Arc::new(IDistance::build(&f.dataset, 4, 8, 3));
        let cache: Arc<dyn ConcurrentNodeCache> =
            Arc::new(ShardedNodeCache::lru(Arc::clone(&f.scheme), 8192, 2));
        let (parts, cache) = match tracer {
            None => (
                TreeSharedParts::new(index, Arc::clone(&f.dataset), file.clone()),
                cache,
            ),
            Some(t) => (
                TreeSharedParts::new(
                    Arc::new(TimedLeafed::new(index, Arc::clone(&t))),
                    Arc::clone(&f.dataset),
                    Arc::new(TimedStore::new(
                        file.clone(),
                        Arc::clone(&t),
                        Layer::Storage,
                    )),
                ),
                Arc::new(TimedNodeCache::new(cache, t)) as Arc<dyn ConcurrentNodeCache>,
            ),
        };
        let adapter = SharedNodeCache::new(cache);
        let engine = parts.engine(&adapter);
        let answers = f
            .queries
            .iter()
            .map(|q| engine.query(q, K).0.into_iter().map(|(id, _)| id).collect())
            .collect();
        (answers, file.stats().snapshot())
    }

    #[test]
    fn tree_decorators_change_no_answer_and_no_io_count() {
        let f = fixture();
        let plain = tree_pass(&f, None);
        let tracer = Tracer::new();
        let decorated = tree_pass(&f, Some(Arc::clone(&tracer)));
        assert_eq!(plain.0, decorated.0, "answers differ under decoration");
        assert_eq!(plain.1, decorated.1, "IoStats differ under decoration");
        assert!(plain.1.pages_read > 0);

        let totals = LayerTotals::of(&tracer.take());
        assert_eq!(totals.calls(Layer::LeafBounds), QUERIES as u64);
        assert!(totals.calls(Layer::NodeLookup) > 0);
        assert!(totals.calls(Layer::CacheAdmit) > 0);
        assert_eq!(totals.calls(Layer::Storage), plain.1.points_fetched);
        assert_eq!(totals.failed(Layer::Storage), 0);
    }
}
