//! Algorithm 1: three-phase kNN search with a histogram-based cache
//! (paper §3.2, Fig. 3).
//!
//! 1. **Candidate generation** — the index reports `C(q)` (in memory).
//! 2. **Candidate reduction** — no I/O: probe the cache for each candidate;
//!    hits yield distance bounds; with the k-th minimum lower bound `lb_k`
//!    and k-th minimum upper bound `ub_k`, candidates with `lb > ub_k` are
//!    pruned and candidates with `ub < lb_k` are moved to the result set as
//!    detected true results.
//! 3. **Candidate refinement** — optimal multi-step search over the
//!    survivors, fetching points from the simulated disk.
//!
//! The engine records per-query statistics (candidate counts, hit/prune
//! ratios, page I/Os, CPU time per phase, modeled refinement seconds) —
//! everything the paper's evaluation plots.

use std::time::{Duration, Instant};

use hc_cache::point::{CacheLookup, PointCache};
use hc_core::dataset::PointId;
use hc_core::distance::kth_smallest;
use hc_index::traits::CandidateIndex;
use hc_obs::trace::{duration_ns, saturate_u32};
use hc_obs::{MetricsRegistry, RequestTrace};
use hc_storage::clock::{Clock, RealClock};
use hc_storage::io_stats::IoModel;
use hc_storage::refine::{refine, BestK, Candidate, Fetcher, RefineSink};
use hc_storage::retry::{RetryObs, RetryPolicy};
use hc_storage::store::PageStore;

use crate::obs::QueryObs;

/// Per-query measurements.
#[derive(Debug, Clone, Default)]
pub struct QueryStats {
    /// `|C(q)|` — candidates reported by the index.
    pub candidates: usize,
    /// Candidates found in the cache.
    pub cache_hits: usize,
    /// Candidates removed by early pruning (`lb > ub_k`).
    pub pruned: usize,
    /// Candidates detected as true results (`ub < lb_k`).
    pub true_results: usize,
    /// Candidates entering phase 3 that may cost I/O (misses + unpruned
    /// bound-hits) — the paper's `C_refine`.
    pub c_refine: usize,
    /// Pages actually fetched during refinement.
    pub io_pages: u64,
    /// Points actually fetched during refinement (≤ `c_refine` thanks to the
    /// multi-step stopping rule).
    pub fetched: usize,
    /// CPU time of candidate generation (phase 1).
    pub gen_cpu: Duration,
    /// CPU time of candidate reduction (phase 2 — bound computation).
    pub reduce_cpu: Duration,
    /// CPU time of the batched cache-bound computation alone — the
    /// `lookup_batch` call inside phase 2, excluding eager refetch I/O and
    /// the pruning pass. This is the slice the per-query tables
    /// accelerate (`phase.bounds_ns`); a subset of `reduce_cpu`.
    pub bounds_cpu: Duration,
    /// CPU time of refinement (phase 3, excluding modeled disk latency).
    pub refine_cpu: Duration,
    /// Modeled refinement wall-clock: `T_io · io_pages` (paper §2.2).
    pub modeled_refine_secs: f64,
    /// Candidate ids whose pages stayed unreadable after retries and could
    /// not be excluded by cached bounds. Non-empty ⇒ the result is degraded
    /// (exactly the top-k of the candidates minus these ids).
    pub missing: Vec<PointId>,
    /// Retried page reads within this query (fault-recovery reruns; a subset
    /// of `io_pages`). `io_pages - pages_retried` is what the §4 cost model
    /// predicts.
    pub pages_retried: u64,
    /// Unreadable candidates proven irrelevant by their cached lower bound —
    /// losses absorbed without degrading the result (DESIGN.md §10).
    pub fault_excluded: usize,
    /// Pages submitted ahead of need by look-ahead batching (DESIGN.md §16).
    pub lookahead_issued: usize,
    /// Prefetched pages never consumed before the stopping rule fired.
    pub lookahead_wasted: usize,
    /// Refinement fetch batches (look-ahead packs the same pages into fewer
    /// batches; equal to the page-missing fetch steps when look-ahead is 0).
    pub io_batches: u64,
}

impl QueryStats {
    /// Modeled total response time: CPU of all phases + modeled disk time.
    pub fn modeled_response_secs(&self) -> f64 {
        self.gen_cpu.as_secs_f64()
            + self.reduce_cpu.as_secs_f64()
            + self.refine_cpu.as_secs_f64()
            + self.modeled_refine_secs
    }

    /// Hit ratio `ρ_hit` for this query.
    pub fn hit_ratio(&self) -> f64 {
        if self.candidates == 0 {
            return 0.0;
        }
        self.cache_hits as f64 / self.candidates as f64
    }

    /// Fraction of cache hits that were pruned or confirmed (`ρ_prune`).
    pub fn prune_ratio(&self) -> f64 {
        if self.cache_hits == 0 {
            return 0.0;
        }
        (self.pruned + self.true_results) as f64 / self.cache_hits as f64
    }

    /// Whether storage faults cost this query candidates it could not prove
    /// irrelevant.
    pub fn is_degraded(&self) -> bool {
        !self.missing.is_empty()
    }

    /// The engine-phase slots of a [`RequestTrace`]. The slots are named
    /// after Algorithm 1, so the flat engine fills them one to one;
    /// `missing` is the count of [`QueryStats::missing`]. Whoever records
    /// the trace — [`QueryObs::observe`] standalone, the serving layer per
    /// request — layers seq, lifecycle fields and the outcome on top.
    pub fn trace(&self) -> RequestTrace {
        RequestTrace {
            candidates: saturate_u32(self.candidates),
            cache_hits: saturate_u32(self.cache_hits),
            pruned: saturate_u32(self.pruned),
            true_results: saturate_u32(self.true_results),
            c_refine: saturate_u32(self.c_refine),
            fetched: saturate_u32(self.fetched),
            io_pages: saturate_u32(self.io_pages),
            pages_retried: saturate_u32(self.pages_retried),
            fault_excluded: saturate_u32(self.fault_excluded),
            missing: saturate_u32(self.missing.len()),
            gen_ns: duration_ns(self.gen_cpu),
            reduce_ns: duration_ns(self.reduce_cpu),
            refine_ns: duration_ns(self.refine_cpu),
            modeled_refine_secs: self.modeled_refine_secs,
            ..RequestTrace::default()
        }
    }
}

/// Aggregates of many queries (what the figures actually plot).
#[derive(Debug, Clone, Default)]
pub struct AggregateStats {
    pub queries: usize,
    pub avg_candidates: f64,
    pub avg_c_refine: f64,
    pub avg_io_pages: f64,
    /// Mean per-query `ρ_hit`.
    pub avg_hit_ratio: f64,
    /// Mean per-query `ρ_prune`.
    pub avg_prune_ratio: f64,
    pub avg_hit_times_prune: f64,
    pub avg_gen_secs: f64,
    pub avg_reduce_secs: f64,
    /// Mean CPU of the batched bound computation (subset of
    /// `avg_reduce_secs`) — the series a bound-path speedup is read from.
    pub avg_bounds_secs: f64,
    pub avg_refine_secs: f64,
    pub avg_response_secs: f64,
    /// Mean retried page reads per query (0 with faults disabled).
    pub avg_pages_retried: f64,
    /// Queries that returned a degraded (explicitly incomplete) result.
    pub degraded_queries: usize,
    /// Mean look-ahead pages issued per query (0 with look-ahead off).
    pub avg_lookahead_issued: f64,
    /// Mean prefetched-but-unconsumed pages per query.
    pub avg_lookahead_wasted: f64,
    /// Mean refinement fetch batches per query.
    pub avg_io_batches: f64,
}

impl AggregateStats {
    pub fn from_queries(stats: &[QueryStats]) -> Self {
        let n = stats.len().max(1) as f64;
        let mut agg = AggregateStats {
            queries: stats.len(),
            ..Default::default()
        };
        for s in stats {
            agg.avg_candidates += s.candidates as f64 / n;
            agg.avg_c_refine += s.c_refine as f64 / n;
            agg.avg_io_pages += s.io_pages as f64 / n;
            agg.avg_hit_ratio += s.hit_ratio() / n;
            agg.avg_prune_ratio += s.prune_ratio() / n;
            agg.avg_hit_times_prune += s.hit_ratio() * s.prune_ratio() / n;
            agg.avg_gen_secs += s.gen_cpu.as_secs_f64() / n;
            agg.avg_reduce_secs += s.reduce_cpu.as_secs_f64() / n;
            agg.avg_bounds_secs += s.bounds_cpu.as_secs_f64() / n;
            agg.avg_refine_secs += (s.refine_cpu.as_secs_f64() + s.modeled_refine_secs) / n;
            agg.avg_response_secs += s.modeled_response_secs() / n;
            agg.avg_pages_retried += s.pages_retried as f64 / n;
            agg.degraded_queries += usize::from(s.is_degraded());
            agg.avg_lookahead_issued += s.lookahead_issued as f64 / n;
            agg.avg_lookahead_wasted += s.lookahead_wasted as f64 / n;
            agg.avg_io_batches += s.io_batches as f64 / n;
        }
        agg
    }

    /// Mean first-attempt page reads per query — `avg_io_pages` with the
    /// fault-recovery reruns subtracted; the figure comparable to the §4
    /// cost-model prediction even under fault injection.
    pub fn avg_first_attempt_io(&self) -> f64 {
        (self.avg_io_pages - self.avg_pages_retried).max(0.0)
    }
}

/// Phase 3's [`RefineSink`]: every fetched point is offered to the cache for
/// admission (dynamic policies).
struct AdmitFetched<'c>(&'c mut dyn PointCache);

impl RefineSink for AdmitFetched<'_> {
    fn fetched(&mut self, id: PointId, point: &[f32]) {
        self.0.admit(id, point);
    }
}

/// The three-phase kNN engine.
pub struct KnnEngine<'a> {
    pub index: &'a dyn CandidateIndex,
    pub file: &'a dyn PageStore,
    pub cache: Box<dyn PointCache + 'a>,
    pub io_model: IoModel,
    /// The paper's footnote-6 optimization: fetch cache-miss candidates
    /// during phase 2 so their exact distances tighten `lb_k`/`ub_k` before
    /// pruning. Pays the miss I/O up front; wins when the hit ratio is
    /// mid-range (at low hit ratios little can be pruned anyway, at high
    /// ones the bounds are already tight — the footnote's own caveat).
    pub eager_refetch: bool,
    /// How hard refinement fights transient storage faults. The default
    /// policy retries up to 3 times with zero backoff — free on a pristine
    /// store, effective under fault injection.
    pub retry: RetryPolicy,
    /// Time source for backoff waits (default: the wall clock). Swap in a
    /// `SimulatedClock` to make nonzero-base policies free under test.
    pub clock: std::sync::Arc<dyn Clock>,
    /// Look-ahead depth for refinement: pages of the next `lookahead`
    /// lb-ordered candidates are submitted with each fetch batch. 0 (the
    /// default) is the classic one-page-per-step refiner; results are
    /// bit-identical for every depth (DESIGN.md §16).
    pub lookahead: usize,
    /// Metric handles; [`QueryObs::noop`] until [`KnnEngine::bind_obs`].
    pub obs: QueryObs,
    /// `retry.*` telemetry; inert until bound.
    pub retry_obs: RetryObs,
}

impl<'a> KnnEngine<'a> {
    pub fn new(
        index: &'a dyn CandidateIndex,
        file: &'a dyn PageStore,
        cache: Box<dyn PointCache + 'a>,
    ) -> Self {
        Self {
            index,
            file,
            cache,
            io_model: IoModel::HDD,
            eager_refetch: false,
            retry: RetryPolicy::default(),
            clock: std::sync::Arc::new(RealClock),
            lookahead: 0,
            obs: QueryObs::noop(),
            retry_obs: RetryObs::new(),
        }
    }

    /// Set the refinement look-ahead depth (0 disables batching).
    pub fn with_lookahead(mut self, lookahead: usize) -> Self {
        self.lookahead = lookahead;
        self
    }

    /// Enable the footnote-6 eager-refetch optimization.
    pub fn with_eager_refetch(mut self, on: bool) -> Self {
        self.eager_refetch = on;
        self
    }

    /// Override the storage retry policy.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Route backoff waits through `clock` (default: [`RealClock`]).
    pub fn with_clock(mut self, clock: std::sync::Arc<dyn Clock>) -> Self {
        self.clock = clock;
        self
    }

    /// Report this engine's pipeline into `registry`: per-query metrics and
    /// traces, the cache's hit/eviction counters, the store's I/O (and, for
    /// fault-injected stores, `storage.fault.*`) counters, and the `retry.*`
    /// series. A noop registry leaves everything disabled.
    pub fn bind_obs(&mut self, registry: &MetricsRegistry) {
        self.obs = QueryObs::bind(registry);
        self.cache.bind_obs(registry);
        self.file.bind_obs(registry);
        self.retry_obs.bind(registry);
    }

    /// Like [`KnnEngine::bind_obs`] but with the `query.*` / `phase.*`
    /// series labeled — one label per worker engine in a multi-threaded
    /// server, so per-worker load stays distinguishable.
    pub fn bind_obs_labeled(&mut self, registry: &MetricsRegistry, label: &str) {
        self.obs = QueryObs::bind_labeled(registry, label);
        self.cache.bind_obs(registry);
        self.file.bind_obs(registry);
        self.retry_obs.bind(registry);
    }

    /// Execute Algorithm 1. Returns the k nearest candidate ids (identifiers
    /// only, as in the paper; detected true results carry no distance) and
    /// the query's statistics.
    pub fn query(&mut self, q: &[f32], k: usize) -> (Vec<PointId>, QueryStats) {
        assert!(k >= 1);
        let mut stats = QueryStats::default();

        // Phase 1: candidate generation.
        let t0 = Instant::now();
        let candidates = self.index.candidates(q, k);
        stats.gen_cpu = t0.elapsed();
        stats.candidates = candidates.len();

        // Phase 2: candidate reduction (part 2.1 — cache lookups). The
        // fetcher spans phases 2 and 3 so eager refetches and refinement
        // share within-query page dedup and one I/O account.
        let mut fetcher = Fetcher::new(self.file, self.retry, &self.retry_obs, self.clock.as_ref());
        let t1 = Instant::now();
        // Part 2.1a — one batched cache probe for the whole candidate set.
        // The compact cache fills the per-query tables once and bounds every
        // resident candidate with a table walk (sharded caches take one lock
        // per shard); the timing around just this call is `phase.bounds_ns`.
        let tb = Instant::now();
        let mut lookups = Vec::with_capacity(candidates.len());
        self.cache.lookup_batch(q, &candidates, &mut lookups);
        stats.bounds_cpu = tb.elapsed();
        // Part 2.1b — eager-refetch misses, then extract the bound columns.
        // (Probing before admitting means an eager admission can no longer
        // evict a later candidate ahead of its own probe — batch residency
        // is decided at one instant, which is also what a concurrent server
        // observes.)
        let mut lbs = Vec::with_capacity(candidates.len());
        let mut ubs = Vec::with_capacity(candidates.len());
        for (&id, lk) in candidates.iter().zip(lookups.iter_mut()) {
            if self.eager_refetch && matches!(lk, CacheLookup::Miss) {
                // Footnote 6: resolve the miss now; its exact distance
                // tightens ub_k for everyone else. A failed eager read is
                // not yet a loss — the candidate just stays a Miss and
                // refinement retries it (and degrades there if it must).
                if let Ok(point) = fetcher.fetch(id) {
                    let d = hc_core::distance::euclidean(q, point);
                    self.cache.admit(id, point);
                    stats.fetched += 1;
                    // Not counted as a cache hit: it still cost disk I/O.
                    *lk = CacheLookup::Exact(d);
                    lbs.push(d);
                    ubs.push(d);
                    continue;
                }
            }
            let (lb, ub) = match &*lk {
                CacheLookup::Miss => (0.0, f64::INFINITY),
                CacheLookup::Exact(d) => {
                    stats.cache_hits += 1;
                    (*d, *d)
                }
                CacheLookup::Bounds(b) => {
                    stats.cache_hits += 1;
                    (b.lb, b.ub)
                }
            };
            lbs.push(lb);
            ubs.push(ub);
        }
        // Part 2.2 — early pruning and true-result detection.
        let lb_k = kth_smallest(&lbs, k);
        let ub_k = kth_smallest(&ubs, k);
        let mut results: Vec<PointId> = Vec::new();
        let mut known: Vec<(PointId, f64)> = Vec::new();
        let mut pending: Vec<Candidate> = Vec::new();
        for ((&id, lk), (&lb, &ub)) in candidates.iter().zip(&lookups).zip(lbs.iter().zip(&ubs)) {
            if lb > ub_k {
                stats.pruned += 1;
                continue;
            }
            if ub < lb_k {
                stats.true_results += 1;
                results.push(id);
                continue;
            }
            match lk {
                CacheLookup::Exact(d) => known.push((id, *d)),
                CacheLookup::Bounds(b) => pending.push(Candidate { id, lb: b.lb }),
                CacheLookup::Miss => pending.push(Candidate { id, lb: 0.0 }),
            }
        }
        stats.reduce_cpu = t1.elapsed();
        stats.c_refine = pending.len();

        // Phase 3: multi-step refinement for the remaining k' slots. I/O is
        // accounted from the phase-2 snapshot so eager refetches count too.
        let t2 = Instant::now();
        if results.len() < k {
            let mut best = BestK::new(k - results.len());
            for (id, d) in known {
                best.push(id, d);
            }
            let outcome = refine(
                &mut fetcher,
                q,
                best,
                pending,
                Vec::new(),
                self.lookahead,
                &mut AdmitFetched(self.cache.as_mut()),
            );
            stats.fetched += outcome.fetched;
            stats.missing = outcome.missing;
            stats.fault_excluded = outcome.excluded_by_bounds;
            stats.lookahead_issued = outcome.lookahead_issued;
            stats.lookahead_wasted = outcome.lookahead_wasted;
            stats.io_batches = outcome.io_batches;
            results.extend(outcome.results.into_iter().map(|(id, _)| id));
        }
        let io_delta = fetcher.io();
        stats.io_pages = io_delta.pages_read;
        stats.pages_retried = io_delta.pages_retried;
        stats.refine_cpu = t2.elapsed();
        stats.modeled_refine_secs = self.io_model.modeled_secs(stats.io_pages);
        results.truncate(k);
        self.obs.observe(&stats);
        (results, stats)
    }

    /// Run a batch of queries and aggregate.
    pub fn run_batch(&mut self, queries: &[Vec<f32>], k: usize) -> AggregateStats {
        let stats: Vec<QueryStats> = queries.iter().map(|q| self.query(q, k).1).collect();
        AggregateStats::from_queries(&stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hc_cache::point::{CompactPointCache, ExactPointCache, NoCache};
    use hc_core::dataset::Dataset;
    use hc_core::distance::euclidean;
    use hc_core::histogram::classic::equi_width;
    use hc_core::quantize::Quantizer;
    use hc_core::scheme::GlobalScheme;
    use hc_storage::point_file::PointFile;
    use std::sync::Arc;

    /// A trivial index that returns every point as a candidate.
    struct ScanIndex {
        n: u32,
    }

    impl CandidateIndex for ScanIndex {
        fn candidates(&self, _q: &[f32], _k: usize) -> Vec<PointId> {
            (0..self.n).map(PointId).collect()
        }

        fn name(&self) -> &'static str {
            "scan"
        }
    }

    fn world(n: usize) -> (Dataset, PointFile) {
        let ds = Dataset::from_rows(
            &(0..n)
                .map(|i| vec![i as f32, (2 * i % 17) as f32])
                .collect::<Vec<_>>(),
        );
        (ds.clone(), PointFile::new(ds))
    }

    fn exact_knn(ds: &Dataset, q: &[f32], k: usize) -> Vec<PointId> {
        let mut all: Vec<(f64, PointId)> = ds.iter().map(|(id, p)| (euclidean(q, p), id)).collect();
        all.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite"));
        all.into_iter().take(k).map(|(_, id)| id).collect()
    }

    fn scheme(ds: &Dataset) -> Arc<dyn hc_core::scheme::ApproxScheme> {
        let (lo, hi) = ds.value_range();
        let quant = Quantizer::new(lo, hi, 256);
        Arc::new(GlobalScheme::new(equi_width(256, 64), quant, ds.dim()))
    }

    #[test]
    fn no_cache_fetches_every_candidate() {
        let (ds, file) = world(30);
        let index = ScanIndex { n: 30 };
        let mut engine = KnnEngine::new(&index, &file, Box::new(NoCache));
        let (res, stats) = engine.query(&[10.2, 3.0], 3);
        assert_eq!(res, exact_knn(&ds, &[10.2, 3.0], 3));
        assert_eq!(stats.cache_hits, 0);
        assert_eq!(stats.c_refine, 30);
        assert_eq!(stats.fetched, 30, "no bounds → full fetch");
    }

    #[test]
    fn compact_cache_prunes_without_losing_correctness() {
        let (ds, file) = world(50);
        let index = ScanIndex { n: 50 };
        let ranking: Vec<PointId> = (0u32..50).map(PointId).collect();
        let cache = CompactPointCache::hff(&ds, &ranking, 1 << 20, scheme(&ds));
        let mut engine = KnnEngine::new(&index, &file, Box::new(cache));
        for q in [[7.7f32, 1.0], [33.3, 9.0], [0.0, 0.0]] {
            let (res, stats) = engine.query(&q, 5);
            let mut want = exact_knn(&ds, &q, 5);
            let mut got = res.clone();
            got.sort();
            want.sort();
            assert_eq!(got, want, "q={q:?}");
            assert!(stats.pruned > 0, "expected early pruning to fire");
            assert!(stats.fetched < 50, "pruning must reduce fetches");
        }
    }

    #[test]
    fn exact_cache_hits_cost_no_io() {
        let (ds, file) = world(40);
        let index = ScanIndex { n: 40 };
        let ranking: Vec<PointId> = (0u32..40).map(PointId).collect();
        let cache = ExactPointCache::hff(&ds, &ranking, 1 << 20); // everything cached
        let mut engine = KnnEngine::new(&index, &file, Box::new(cache));
        let (res, stats) = engine.query(&[5.0, 5.0], 4);
        assert_eq!(res.len(), 4);
        assert_eq!(stats.io_pages, 0, "fully cached exact → zero I/O");
        assert_eq!(stats.cache_hits, 40);
    }

    #[test]
    fn partial_exact_cache_reduces_but_does_not_eliminate_io() {
        let (ds, file) = world(60);
        let index = ScanIndex { n: 60 };
        // Cache only the first 10 points.
        let ranking: Vec<PointId> = (0u32..10).map(PointId).collect();
        let cache = ExactPointCache::hff(&ds, &ranking, 10 * ds.point_bytes());
        let mut engine = KnnEngine::new(&index, &file, Box::new(cache));
        let (res, stats) = engine.query(&[30.0, 8.0], 3);
        let mut got = res;
        got.sort();
        let mut want = exact_knn(&ds, &[30.0, 8.0], 3);
        want.sort();
        assert_eq!(got, want);
        assert!(stats.cache_hits == 10);
        assert!(stats.io_pages > 0);
    }

    #[test]
    fn stats_ratios_are_consistent() {
        let (ds, file) = world(50);
        let index = ScanIndex { n: 50 };
        let ranking: Vec<PointId> = (0u32..50).map(PointId).collect();
        let cache = CompactPointCache::hff(&ds, &ranking, 1 << 20, scheme(&ds));
        let mut engine = KnnEngine::new(&index, &file, Box::new(cache));
        let (_, stats) = engine.query(&[25.0, 4.0], 5);
        assert!(stats.hit_ratio() > 0.99);
        assert!((0.0..=1.0).contains(&stats.prune_ratio()));
        assert_eq!(
            stats.candidates,
            stats.pruned
                + stats.true_results
                + stats.c_refine
                + (stats.cache_hits
                    - stats.pruned
                    - stats.true_results
                    - (stats.cache_hits - stats.pruned - stats.true_results)),
            "partition identity (misses are inside c_refine)"
        );
        assert!(stats.modeled_response_secs() >= stats.modeled_refine_secs);
    }

    #[test]
    fn eager_refetch_preserves_results_and_counts_io() {
        let (ds, file) = world(50);
        let index = ScanIndex { n: 50 };
        // Cache half the points compactly so eager refetch has misses to
        // resolve and hits to prune.
        let ranking: Vec<PointId> = (0u32..25).map(PointId).collect();
        let mk = |eager: bool| -> (Vec<PointId>, QueryStats) {
            let cache = CompactPointCache::hff(&ds, &ranking, 1 << 20, scheme(&ds));
            let mut engine =
                KnnEngine::new(&index, &file, Box::new(cache)).with_eager_refetch(eager);
            engine.query(&[20.0, 5.0], 4)
        };
        let (res_lazy, st_lazy) = mk(false);
        let (res_eager, st_eager) = mk(true);
        let mut a = res_lazy.clone();
        let mut b = res_eager.clone();
        a.sort();
        b.sort();
        assert_eq!(a, b, "eager refetch changed results");
        // Every miss was fetched eagerly, so fetched ≥ number of misses (25).
        assert!(st_eager.fetched >= 25, "fetched {}", st_eager.fetched);
        assert!(st_eager.io_pages >= st_lazy.io_pages.min(1));
    }

    #[test]
    fn batch_aggregation_averages() {
        let (_, file) = world(20);
        let index = ScanIndex { n: 20 };
        let mut engine = KnnEngine::new(&index, &file, Box::new(NoCache));
        let queries = vec![vec![1.0f32, 1.0], vec![5.0, 5.0]];
        let agg = engine.run_batch(&queries, 2);
        assert_eq!(agg.queries, 2);
        assert!((agg.avg_candidates - 20.0).abs() < 1e-9);
        assert!(agg.avg_io_pages > 0.0);
    }

    #[test]
    fn from_queries_on_empty_slice_is_all_zero() {
        let agg = AggregateStats::from_queries(&[]);
        assert_eq!(agg.queries, 0);
        assert_eq!(agg.avg_candidates, 0.0);
        assert_eq!(agg.avg_hit_ratio, 0.0);
        assert_eq!(agg.avg_prune_ratio, 0.0);
        assert_eq!(agg.avg_response_secs, 0.0);
    }

    #[test]
    fn from_queries_single_query_copies_its_values() {
        let s = QueryStats {
            candidates: 100,
            cache_hits: 50,
            pruned: 20,
            true_results: 5,
            c_refine: 40,
            io_pages: 12,
            fetched: 30,
            gen_cpu: Duration::from_millis(1),
            reduce_cpu: Duration::from_millis(2),
            bounds_cpu: Duration::from_micros(1500),
            refine_cpu: Duration::from_millis(3),
            modeled_refine_secs: 0.06,
            missing: vec![PointId(7)],
            pages_retried: 2,
            fault_excluded: 1,
            lookahead_issued: 4,
            lookahead_wasted: 1,
            io_batches: 6,
        };
        let agg = AggregateStats::from_queries(std::slice::from_ref(&s));
        assert_eq!(agg.queries, 1);
        assert!((agg.avg_candidates - 100.0).abs() < 1e-12);
        assert!((agg.avg_io_pages - 12.0).abs() < 1e-12);
        assert!((agg.avg_pages_retried - 2.0).abs() < 1e-12);
        assert!((agg.avg_first_attempt_io() - 10.0).abs() < 1e-12);
        assert_eq!(agg.degraded_queries, 1);
        assert!((agg.avg_hit_ratio - 0.5).abs() < 1e-12);
        assert!((agg.avg_prune_ratio - 0.5).abs() < 1e-12);
        assert!((agg.avg_hit_times_prune - 0.25).abs() < 1e-12);
        assert!((agg.avg_bounds_secs - 0.0015).abs() < 1e-12);
        assert!((agg.avg_refine_secs - 0.063).abs() < 1e-12);
        assert!((agg.avg_response_secs - s.modeled_response_secs()).abs() < 1e-12);
    }

    #[test]
    fn from_queries_means_and_ratios() {
        let mk = |candidates, cache_hits, pruned, io_pages| QueryStats {
            candidates,
            cache_hits,
            pruned,
            io_pages,
            ..Default::default()
        };
        // Ratios are averaged per query, not pooled: (1.0 + 0.5)/2, not 30/40.
        let stats = [mk(20, 20, 10, 4), mk(20, 10, 5, 8)];
        let agg = AggregateStats::from_queries(&stats);
        assert_eq!(agg.queries, 2);
        assert!((agg.avg_candidates - 20.0).abs() < 1e-12);
        assert!((agg.avg_io_pages - 6.0).abs() < 1e-12);
        assert!((agg.avg_hit_ratio - 0.75).abs() < 1e-12);
        assert!((agg.avg_prune_ratio - 0.5).abs() < 1e-12);
        assert!((agg.avg_hit_times_prune - (1.0 * 0.5 + 0.5 * 0.5) / 2.0).abs() < 1e-12);
    }

    #[test]
    fn batch_aggregates_match_registry_series() {
        use hc_obs::MetricsRegistry;
        let (ds, file) = world(50);
        let index = ScanIndex { n: 50 };
        let ranking: Vec<PointId> = (0u32..50).map(PointId).collect();
        let cache = CompactPointCache::hff(&ds, &ranking, 1 << 20, scheme(&ds));
        let registry = MetricsRegistry::new();
        let mut engine = KnnEngine::new(&index, &file, Box::new(cache));
        engine.bind_obs(&registry);
        let queries = vec![vec![7.7f32, 1.0], vec![33.3, 9.0], vec![0.0, 0.0]];
        let agg = engine.run_batch(&queries, 5);
        let snap = registry.snapshot();
        assert_eq!(snap.counter("query.count"), Some(3));
        // Histogram sums are exact, so the registry-side means reproduce the
        // aggregate (ppm truncation costs < 1e-6 per query).
        let rho = snap.histogram("query.rho_hit_ppm").expect("rho series");
        assert!((rho.mean() / 1e6 - agg.avg_hit_ratio).abs() < 1e-5);
        let io = snap.histogram("query.io_pages").expect("io series");
        assert!((io.mean() - agg.avg_io_pages).abs() < 1e-9);
        let cand = snap
            .histogram("query.candidates")
            .expect("candidates series");
        assert!((cand.mean() - agg.avg_candidates).abs() < 1e-9);
        assert_eq!(snap.traces.len(), 3);
        // Storage counters flowed through the same registry.
        assert!(snap.counter("storage.pages_read").expect("io mirrored") > 0);
    }
}
