//! Exact kNN search on tree indexes with a leaf-node cache
//! (paper §3.6.1, Fig. 7).
//!
//! The tree's non-leaf information lives in memory; leaves (data pages) live
//! on disk. The search processes leaves in ascending lower-bound order:
//!
//! * a leaf **exactly cached** contributes its points' exact distances for
//!   free;
//! * a leaf **compactly cached** contributes per-point lower/upper bounds —
//!   upper bounds tighten the running k-th upper bound (pruning whole leaves
//!   early), lower bounds let unpromising points be skipped, and surviving
//!   points are deferred to a multi-step pass that fetches their leaf only if
//!   still necessary;
//! * an uncached leaf is fetched from disk (one node I/O) and evaluated
//!   exactly.
//!
//! Traversal stops once the next leaf's lower bound exceeds the current k-th
//! upper bound; the deferred pass then resolves remaining approximate
//! candidates in lower-bound order with the usual optimal stopping rule.
//! Results are always exact — the cache only changes the I/O, never the
//! answer (verified by tests against linear scan).
//!
//! ## Fallible reads and degradation (DESIGN.md §10)
//!
//! Leaf members are fetched through the [`PageStore`] trait under a
//! [`RetryPolicy`], so every physical read verifies the page checksum and
//! transient faults are retried with deterministic backoff (waits go through
//! the [`Clock`] abstraction — no real sleeping under test). A member whose
//! read exhausts its retries is *deferred, not dropped*: at the end of the
//! query it is judged against the final k-th exact distance. If its best
//! known lower bound (the leaf bound, or its compact per-point bound) proves
//! it could not have been a result, it is excluded soundly
//! (`fault_excluded`); otherwise its id is reported in
//! [`TreeQueryStats::missing`] and the answer is explicitly degraded — never
//! silently wrong. A leaf with any failed member is never admitted into the
//! node cache: caches only ever hold checksum-verified data.

use std::collections::HashSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

use hc_cache::node::{NodeCache, NodeLookup};
use hc_core::dataset::{Dataset, PointId};
use hc_core::distance::euclidean;
use hc_index::traits::LeafedIndex;
use hc_obs::trace::{duration_ns, saturate_u32};
use hc_obs::{MetricsRegistry, RequestTrace};
use hc_storage::clock::{Clock, RealClock};
use hc_storage::error::StorageError;
use hc_storage::io_stats::IoModel;
use hc_storage::refine::{refine, BestK, Candidate, Fetcher, RefineSink};
use hc_storage::retry::{RetryObs, RetryPolicy};
use hc_storage::store::PageStore;

use crate::obs::TreeQueryObs;

/// Per-query statistics of a tree search.
#[derive(Debug, Clone, Default)]
pub struct TreeQueryStats {
    /// Leaves whose lower bound was examined (all of them, by construction).
    pub leaves_total: usize,
    /// Leaf nodes fetched from disk (the I/O count — one page per leaf).
    pub leaf_fetches: u64,
    /// Leaves answered by the exact node cache.
    pub exact_hits: usize,
    /// Leaves answered by the compact node cache.
    pub compact_hits: usize,
    /// Points deferred from compact leaves into the multi-step pass.
    pub deferred: usize,
    /// Leaves visited during traversal (not pruned by the stopping rule).
    pub leaves_visited: usize,
    /// Identifiers of fetched leaves, for offline frequency collection.
    pub fetched_leaves: Vec<u32>,
    /// Physical pages read from the store (includes failed attempts).
    pub io_pages: u64,
    /// Physical reads that were fault-recovery reruns.
    pub pages_retried: u64,
    /// Points whose read failed and whose bounds could not prove them
    /// irrelevant — sorted; non-empty means the answer is degraded.
    pub missing: Vec<PointId>,
    /// Points whose read failed but whose lower bound proved they could not
    /// be results — the answer stays exact despite the fault.
    pub fault_excluded: usize,
    /// Pages submitted ahead of need by the deferred pass's look-ahead.
    pub lookahead_issued: u64,
    /// Prefetched pages never consumed before the stopping rule fired.
    pub lookahead_wasted: u64,
    /// CPU time of the leaf-bound computation phase.
    pub bounds_cpu: Duration,
    /// CPU time of the traversal phase.
    pub traverse_cpu: Duration,
    /// CPU time of the deferred multi-step pass.
    pub deferred_cpu: Duration,
    /// CPU time of the whole query.
    pub cpu: Duration,
    /// Modeled disk time: `T_io · leaf_fetches`.
    pub modeled_io_secs: f64,
}

impl TreeQueryStats {
    pub fn modeled_response_secs(&self) -> f64 {
        self.cpu.as_secs_f64() + self.modeled_io_secs
    }

    /// Whether the result is provably the exact top-k despite any faults.
    pub fn is_exact(&self) -> bool {
        self.missing.is_empty()
    }

    /// The engine-phase slots of a [`RequestTrace`]. The slots are named
    /// after Algorithm 1; the tree pipeline (§3.6.1) is the same idea at
    /// leaf granularity and fills them like this:
    ///
    /// | slot | tree meaning |
    /// |---|---|
    /// | `candidates` | leaves considered (`leaves_total`) |
    /// | `cache_hits` | exact + compact node-cache hits |
    /// | `pruned` | leaves skipped by bound ordering (`leaves_total − leaves_visited`) |
    /// | `true_results` | leaves answered exactly (`exact_hits`) |
    /// | `c_refine` | points deferred into the multi-step pass |
    /// | `fetched` | leaf fetches |
    /// | `gen_ns` / `reduce_ns` / `refine_ns` | bounds / traverse / deferred CPU |
    /// | `modeled_refine_secs` | `modeled_io_secs` |
    ///
    /// `io_pages`, `pages_retried`, `fault_excluded` and `missing` (a
    /// count) mean what they mean for the flat engine.
    pub fn trace(&self) -> RequestTrace {
        RequestTrace {
            candidates: saturate_u32(self.leaves_total),
            cache_hits: saturate_u32(self.exact_hits + self.compact_hits),
            pruned: saturate_u32(self.leaves_total.saturating_sub(self.leaves_visited)),
            true_results: saturate_u32(self.exact_hits),
            c_refine: saturate_u32(self.deferred),
            fetched: saturate_u32(self.leaf_fetches),
            io_pages: saturate_u32(self.io_pages),
            pages_retried: saturate_u32(self.pages_retried),
            fault_excluded: saturate_u32(self.fault_excluded),
            missing: saturate_u32(self.missing.len()),
            gen_ns: duration_ns(self.bounds_cpu),
            reduce_ns: duration_ns(self.traverse_cpu),
            refine_ns: duration_ns(self.deferred_cpu),
            modeled_refine_secs: self.modeled_io_secs,
            ..RequestTrace::default()
        }
    }
}

/// Tree-search engine: an exact [`LeafedIndex`] plus a [`NodeCache`], with
/// leaf members read through a fallible [`PageStore`].
///
/// `dataset` backs the *exact node cache* reads only — an exactly cached
/// leaf's points are memory-resident by definition, so they cost neither
/// I/O nor a fault roll. Every other member read goes through `store`.
pub struct TreeSearchEngine<'a> {
    pub index: &'a dyn LeafedIndex,
    pub dataset: &'a Dataset,
    pub store: &'a dyn PageStore,
    pub node_cache: &'a dyn NodeCache,
    pub io_model: IoModel,
    retry: RetryPolicy,
    clock: Arc<dyn Clock>,
    /// Look-ahead depth of the deferred multi-step pass: pages of the next
    /// `lookahead` lb-ordered deferred candidates are prefetched alongside
    /// each evaluation. 0 (the default) disables it; results are identical
    /// for every depth (DESIGN.md §16).
    lookahead: usize,
    obs: TreeQueryObs,
    retry_obs: RetryObs,
}

impl<'a> TreeSearchEngine<'a> {
    pub fn new(
        index: &'a dyn LeafedIndex,
        dataset: &'a Dataset,
        store: &'a dyn PageStore,
        node_cache: &'a dyn NodeCache,
    ) -> Self {
        Self {
            index,
            dataset,
            store,
            node_cache,
            io_model: IoModel::HDD,
            retry: RetryPolicy::default(),
            clock: Arc::new(RealClock),
            lookahead: 0,
            obs: TreeQueryObs::noop(),
            retry_obs: RetryObs::new(),
        }
    }

    /// Override the retry policy (default: [`RetryPolicy::default`]).
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Set the deferred-pass look-ahead depth (0 disables it).
    pub fn with_lookahead(mut self, lookahead: usize) -> Self {
        self.lookahead = lookahead;
        self
    }

    /// Route backoff waits through `clock` (default: [`RealClock`]).
    pub fn with_clock(mut self, clock: Arc<dyn Clock>) -> Self {
        self.clock = clock;
        self
    }

    /// Register this engine's `query.*` / `phase.tree_*` / `retry.*` series.
    pub fn bind_obs(&mut self, registry: &MetricsRegistry) {
        self.obs = TreeQueryObs::bind(registry);
        self.retry_obs.bind(registry);
    }

    /// Like [`TreeSearchEngine::bind_obs`] but with per-worker labels on the
    /// query series (retry counters stay process-wide, as in `KnnEngine`).
    pub fn bind_obs_labeled(&mut self, registry: &MetricsRegistry, label: &str) {
        self.obs = TreeQueryObs::bind_labeled(registry, label);
        self.retry_obs.bind(registry);
    }

    /// Exact kNN with node caching. Returns `(id, distance)` ascending over
    /// the readable points; check [`TreeQueryStats::missing`] for ids whose
    /// reads failed and could not be excluded by bounds.
    pub fn query(&self, q: &[f32], k: usize) -> (Vec<(PointId, f64)>, TreeQueryStats) {
        let t0 = Instant::now();
        let mut stats = TreeQueryStats::default();
        let mut fetcher =
            Fetcher::new(self.store, self.retry, &self.retry_obs, self.clock.as_ref());

        let mut leaf_bounds = self.index.leaf_lower_bounds(q);
        leaf_bounds.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("finite").then(a.0.cmp(&b.0)));
        stats.leaves_total = leaf_bounds.len();
        stats.bounds_cpu = t0.elapsed();
        let t_traverse = Instant::now();

        // Running best-k exact distances; `ub_best` additionally folds in
        // the upper bounds of deferred (bounded) candidates, which is a valid
        // prune threshold: at least k seen candidates lie within it.
        let mut best = BestK::new(k);
        let mut ub_best = BestK::new(k);
        let mut deferred: Vec<Candidate> = Vec::new();
        // Points whose read exhausted its retries, with the tightest lower
        // bound known for them (here the leaf bound). Judged against the
        // final k-th distance by the deferred pass.
        let mut dead: Vec<Candidate> = Vec::new();
        let mut leaves = LeafReads {
            index: self.index,
            node_cache: self.node_cache,
            fetched: HashSet::new(),
            order: Vec::new(),
        };

        for &(leaf, lb) in &leaf_bounds {
            if lb > ub_best.kth().unwrap_or(f64::INFINITY) {
                break; // no point in this or any later leaf can qualify
            }
            stats.leaves_visited += 1;
            match self.node_cache.lookup(q, leaf) {
                NodeLookup::Exact => {
                    stats.exact_hits += 1;
                    for p in self.index.leaf_points(leaf) {
                        let d = euclidean(q, self.dataset.point(*p));
                        best.push(*p, d);
                        ub_best.push(*p, d);
                    }
                }
                NodeLookup::Bounds(bounds) => {
                    stats.compact_hits += 1;
                    let pts = self.index.leaf_points(leaf);
                    debug_assert_eq!(pts.len(), bounds.len());
                    for (p, b) in pts.iter().zip(&bounds) {
                        ub_best.push(*p, b.ub);
                        if b.lb <= ub_best.kth().unwrap_or(f64::INFINITY) {
                            deferred.push(Candidate { id: *p, lb: b.lb });
                        }
                    }
                }
                NodeLookup::Miss => leaves.read(&mut fetcher, leaf, |p, read| match read {
                    Ok(v) => {
                        let d = euclidean(q, v);
                        best.push(p, d);
                        ub_best.push(p, d);
                    }
                    // The leaf bound is a sound lower bound for every
                    // member; contribute no upper bound.
                    Err(_) => dead.push(Candidate { id: p, lb }),
                }),
            }
        }
        stats.traverse_cpu = t_traverse.elapsed();
        let t_deferred = Instant::now();

        // Multi-step pass over deferred approximate candidates: the sink
        // fetches a candidate's leaf (dedup) only while its lb can still beat
        // the k-th exact distance. The candidate's own page is buffered if
        // the leaf read reached it; the faults are deterministic, so a page
        // that failed the sweep fails the evaluation too and the candidate is
        // judged by its compact lower bound at the end.
        stats.deferred = deferred.len();
        let outcome = refine(
            &mut fetcher,
            q,
            best,
            deferred,
            dead,
            self.lookahead,
            &mut leaves,
        );
        stats.lookahead_issued = outcome.lookahead_issued as u64;
        stats.lookahead_wasted = outcome.lookahead_wasted as u64;
        stats.fault_excluded = outcome.excluded_by_bounds;
        stats.missing = outcome.missing;
        stats.leaf_fetches = leaves.order.len() as u64;
        stats.fetched_leaves = leaves.order;
        stats.deferred_cpu = t_deferred.elapsed();

        let io = fetcher.io();
        stats.io_pages = io.pages_read;
        stats.pages_retried = io.pages_retried;
        stats.cpu = t0.elapsed();
        stats.modeled_io_secs = self.io_model.modeled_secs(stats.leaf_fetches);
        self.obs.observe(&stats);
        (outcome.results, stats)
    }
}

/// The leaves this query has read from the store, each at most once. As the
/// deferred pass's [`RefineSink`] it sweeps a candidate's whole leaf before
/// the candidate itself is evaluated, warming the node cache.
struct LeafReads<'a> {
    index: &'a dyn LeafedIndex,
    node_cache: &'a dyn NodeCache,
    fetched: HashSet<u32>,
    /// `fetched` in read order, for offline frequency collection.
    order: Vec<u32>,
}

impl LeafReads<'_> {
    /// Read every member of `leaf` (one node I/O) unless this query already
    /// did, showing each read to `each`.
    fn read<'s>(
        &mut self,
        fetcher: &mut Fetcher<'s>,
        leaf: u32,
        mut each: impl FnMut(PointId, Result<&'s [f32], StorageError>),
    ) {
        if !self.fetched.insert(leaf) {
            return;
        }
        self.order.push(leaf);
        let pts = self.index.leaf_points(leaf);
        let mut members: Vec<&[f32]> = Vec::with_capacity(pts.len());
        for p in pts {
            let read = fetcher.fetch(*p);
            if let Ok(v) = read {
                members.push(v);
            }
            each(*p, read);
        }
        // Never admit a partially read leaf: the cache must only hold data
        // that passed checksum verification in full.
        if members.len() == pts.len() {
            self.node_cache.admit(leaf, &mut members.into_iter());
        }
    }
}

impl RefineSink for LeafReads<'_> {
    fn before_fetch(&mut self, fetcher: &mut Fetcher<'_>, id: PointId) {
        self.read(fetcher, self.index.leaf_of(id), |_, _| {});
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hc_cache::node::{CompactNodeCache, ExactNodeCache, NoNodeCache};
    use hc_core::histogram::classic::equi_width;
    use hc_core::quantize::Quantizer;
    use hc_core::scheme::GlobalScheme;
    use hc_index::idistance::IDistance;
    use hc_index::vptree::VpTree;
    use hc_storage::fault::{FaultConfig, FaultInjector};
    use hc_storage::point_file::PointFile;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::sync::Arc;

    fn dataset(n: usize, d: usize, seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        Dataset::from_rows(
            &(0..n)
                .map(|_| (0..d).map(|_| rng.gen_range(0.0..10.0)).collect())
                .collect::<Vec<_>>(),
        )
    }

    fn file(ds: &Dataset) -> PointFile {
        PointFile::new(ds.clone())
    }

    fn exact_knn(ds: &Dataset, q: &[f32], k: usize) -> Vec<f64> {
        let mut all: Vec<f64> = ds.iter().map(|(_, p)| euclidean(q, p)).collect();
        all.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        all.truncate(k);
        all
    }

    fn scheme(ds: &Dataset) -> Arc<dyn hc_core::scheme::ApproxScheme> {
        let (lo, hi) = ds.value_range();
        let quant = Quantizer::new(lo, hi, 512);
        Arc::new(GlobalScheme::new(equi_width(512, 128), quant, ds.dim()))
    }

    #[test]
    fn idistance_search_is_exact_without_cache() {
        let ds = dataset(300, 6, 1);
        let f = file(&ds);
        let idx = IDistance::build(&ds, 8, 10, 1);
        let engine = TreeSearchEngine::new(&idx, &ds, &f, &NoNodeCache);
        for qi in [3usize, 77, 250] {
            let q = ds.point(PointId::from(qi)).to_vec();
            let (res, stats) = engine.query(&q, 5);
            let want = exact_knn(&ds, &q, 5);
            let got: Vec<f64> = res.iter().map(|&(_, d)| d).collect();
            for (a, b) in got.iter().zip(&want) {
                assert!((a - b).abs() < 1e-9, "q{qi}");
            }
            assert!(stats.leaf_fetches > 0);
            assert!(stats.leaf_fetches as usize <= idx.num_leaves() as usize);
        }
    }

    #[test]
    fn vptree_search_is_exact_without_cache() {
        let ds = dataset(250, 5, 2);
        let f = file(&ds);
        let idx = VpTree::build(&ds, 8, 2);
        let engine = TreeSearchEngine::new(&idx, &ds, &f, &NoNodeCache);
        let q = ds.point(PointId(100)).to_vec();
        let (res, _) = engine.query(&q, 7);
        let want = exact_knn(&ds, &q, 7);
        for (got, want) in res.iter().map(|&(_, d)| d).zip(&want) {
            assert!((got - want).abs() < 1e-9);
        }
    }

    #[test]
    fn stopping_rule_skips_far_leaves() {
        let ds = dataset(400, 4, 3);
        let f = file(&ds);
        let idx = IDistance::build(&ds, 10, 8, 3);
        let engine = TreeSearchEngine::new(&idx, &ds, &f, &NoNodeCache);
        let q = ds.point(PointId(0)).to_vec();
        let (_, stats) = engine.query(&q, 3);
        assert!(
            (stats.leaves_visited as u32) < idx.num_leaves(),
            "visited {} of {}",
            stats.leaves_visited,
            idx.num_leaves()
        );
    }

    #[test]
    fn exact_node_cache_eliminates_io_for_cached_leaves() {
        let ds = dataset(200, 5, 4);
        let idx = IDistance::build(&ds, 6, 8, 4);
        // Cache every leaf.
        let mut cache = ExactNodeCache::new(ds.dim(), usize::MAX / 2);
        for leaf in 0..idx.num_leaves() {
            assert!(cache.try_fill(leaf, idx.leaf_points(leaf).len()));
        }
        let f = file(&ds);
        let engine = TreeSearchEngine::new(&idx, &ds, &f, &cache);
        let q = ds.point(PointId(42)).to_vec();
        let (res, stats) = engine.query(&q, 5);
        assert_eq!(stats.leaf_fetches, 0);
        assert_eq!(stats.io_pages, 0, "exact hits must not touch the store");
        let want = exact_knn(&ds, &q, 5);
        for (got, want) in res.iter().map(|&(_, d)| d).zip(&want) {
            assert!((got - want).abs() < 1e-9);
        }
    }

    #[test]
    fn compact_node_cache_keeps_results_exact_and_cuts_io() {
        let ds = dataset(300, 6, 5);
        let idx = VpTree::build(&ds, 8, 5);
        let s = scheme(&ds);
        let mut cache = CompactNodeCache::new(s, usize::MAX / 2);
        for leaf in 0..idx.num_leaves() {
            let pts: Vec<&[f32]> = idx.leaf_points(leaf).iter().map(|p| ds.point(*p)).collect();
            assert!(cache.try_fill(leaf, pts.into_iter()));
        }
        let f = file(&ds);
        let cached_engine = TreeSearchEngine::new(&idx, &ds, &f, &cache);
        let bare_engine = TreeSearchEngine::new(&idx, &ds, &f, &NoNodeCache);
        let mut cached_io = 0u64;
        let mut bare_io = 0u64;
        for qi in [10usize, 99, 222] {
            let q = ds.point(PointId::from(qi)).to_vec();
            let (res_c, st_c) = cached_engine.query(&q, 5);
            let (res_b, st_b) = bare_engine.query(&q, 5);
            let want = exact_knn(&ds, &q, 5);
            for ((gc, gb), w) in res_c
                .iter()
                .map(|&(_, d)| d)
                .zip(res_b.iter().map(|&(_, d)| d))
                .zip(&want)
            {
                assert!((gc - w).abs() < 1e-9, "cached result wrong");
                assert!((gb - w).abs() < 1e-9, "bare result wrong");
            }
            cached_io += st_c.leaf_fetches;
            bare_io += st_b.leaf_fetches;
        }
        assert!(
            cached_io < bare_io,
            "compact node cache should cut I/O: {cached_io} vs {bare_io}"
        );
    }

    #[test]
    fn deferred_lookahead_is_outcome_invariant_under_faults() {
        // 256-dim points → 4 per page, so prefetches actually cross pages.
        // For each fault schedule, every look-ahead depth must produce the
        // same results, missing sets, and bound exclusions as depth 0.
        let ds = dataset(200, 256, 11);
        let idx = VpTree::build(&ds, 8, 11);
        let f = Arc::new(PointFile::new(ds.clone()));
        let run = |lookahead: usize, seed: u64| {
            let mut cache = CompactNodeCache::new(scheme(&ds), usize::MAX / 2);
            for leaf in 0..idx.num_leaves() {
                let pts: Vec<&[f32]> = idx.leaf_points(leaf).iter().map(|p| ds.point(*p)).collect();
                assert!(cache.try_fill(leaf, pts.into_iter()));
            }
            let inj = FaultInjector::new(Arc::clone(&f), FaultConfig::mixed(seed, 0.25));
            let engine = TreeSearchEngine::new(&idx, &ds, &inj, &cache).with_lookahead(lookahead);
            let mut out = Vec::new();
            let mut issued = 0u64;
            for qi in [10usize, 99, 180] {
                let q = ds.point(PointId::from(qi)).to_vec();
                let (res, st) = engine.query(&q, 5);
                issued += st.lookahead_issued;
                out.push((res, st.missing, st.fault_excluded));
            }
            (out, issued)
        };
        for seed in [1u64, 9] {
            let (base, base_issued) = run(0, seed);
            assert_eq!(base_issued, 0, "depth 0 must not prefetch");
            for m in [1usize, 3, 8] {
                let (got, _) = run(m, seed);
                assert_eq!(got, base, "seed {seed} depth {m}");
            }
        }
    }

    #[test]
    fn lru_node_cache_warms_up_across_queries() {
        use hc_cache::node::LruNodeCache;
        let ds = dataset(300, 5, 7);
        let idx = IDistance::build(&ds, 6, 8, 7);
        let cache = LruNodeCache::new(scheme(&ds), ds.file_bytes());
        let f = file(&ds);
        let engine = TreeSearchEngine::new(&idx, &ds, &f, &cache);
        let q = ds.point(PointId(42)).to_vec();
        let (res_cold, cold) = engine.query(&q, 5);
        let (res_warm, warm) = engine.query(&q, 5);
        assert!(
            warm.leaf_fetches < cold.leaf_fetches,
            "warm {} !< cold {}",
            warm.leaf_fetches,
            cold.leaf_fetches
        );
        // Exactness preserved both times.
        let want = exact_knn(&ds, &q, 5);
        for (got, want) in res_cold
            .iter()
            .map(|&(_, d)| d)
            .chain(res_warm.iter().map(|&(_, d)| d))
            .zip(want.iter().chain(&want))
        {
            assert!((got - want).abs() < 1e-9);
        }
        assert!(cache.used_bytes() <= cache.capacity_bytes());
    }

    #[test]
    fn fetched_leaves_are_recorded_for_frequency_collection() {
        let ds = dataset(150, 4, 6);
        let f = file(&ds);
        let idx = IDistance::build(&ds, 5, 8, 6);
        let engine = TreeSearchEngine::new(&idx, &ds, &f, &NoNodeCache);
        let (_, stats) = engine.query(ds.point(PointId(7)), 3);
        assert_eq!(stats.fetched_leaves.len() as u64, stats.leaf_fetches);
        let unique: HashSet<u32> = stats.fetched_leaves.iter().copied().collect();
        assert_eq!(unique.len(), stats.fetched_leaves.len(), "no duplicates");
    }

    #[test]
    fn pristine_store_reads_count_io_pages_and_stay_exact() {
        let ds = dataset(200, 6, 8);
        let f = file(&ds);
        let idx = IDistance::build(&ds, 6, 8, 8);
        let engine = TreeSearchEngine::new(&idx, &ds, &f, &NoNodeCache);
        let q = ds.point(PointId(11)).to_vec();
        let (res, stats) = engine.query(&q, 5);
        let want = exact_knn(&ds, &q, 5);
        for (got, want) in res.iter().map(|&(_, d)| d).zip(&want) {
            assert!((got - want).abs() < 1e-9);
        }
        assert!(stats.io_pages > 0, "miss leaves must read the store");
        assert_eq!(stats.pages_retried, 0);
        assert!(stats.is_exact());
        assert_eq!(stats.fault_excluded, 0);
    }

    #[test]
    fn unreadable_storage_degrades_with_sorted_missing_ids() {
        let ds = dataset(120, 5, 9);
        let idx = IDistance::build(&ds, 5, 8, 9);
        let cfg = FaultConfig {
            seed: 3,
            unreadable_rate: 1.0,
            ..FaultConfig::none()
        };
        let store = FaultInjector::new(Arc::new(file(&ds)), cfg);
        let engine = TreeSearchEngine::new(&idx, &ds, &store, &NoNodeCache);
        let q = ds.point(PointId(0)).to_vec();
        let (res, stats) = engine.query(&q, 5);
        assert!(res.is_empty(), "nothing readable, nothing returned");
        assert!(!stats.is_exact());
        assert!(!stats.missing.is_empty());
        let mut sorted = stats.missing.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(stats.missing, sorted, "missing ids sorted and deduped");
        // With no exact distances there is no dk: nothing may be excluded.
        assert_eq!(stats.fault_excluded, 0);
    }

    #[test]
    fn exact_cache_answers_survive_a_dead_disk() {
        // Every leaf exactly cached: the disk can be entirely unreadable and
        // the answer must still be the exact top-k with zero missing ids.
        let ds = dataset(180, 5, 10);
        let idx = IDistance::build(&ds, 6, 8, 10);
        let mut cache = ExactNodeCache::new(ds.dim(), usize::MAX / 2);
        for leaf in 0..idx.num_leaves() {
            assert!(cache.try_fill(leaf, idx.leaf_points(leaf).len()));
        }
        let cfg = FaultConfig {
            seed: 4,
            unreadable_rate: 1.0,
            ..FaultConfig::none()
        };
        let store = FaultInjector::new(Arc::new(file(&ds)), cfg);
        let engine = TreeSearchEngine::new(&idx, &ds, &store, &cache);
        let q = ds.point(PointId(33)).to_vec();
        let (res, stats) = engine.query(&q, 5);
        assert!(stats.is_exact());
        assert_eq!(stats.io_pages, 0);
        let want = exact_knn(&ds, &q, 5);
        for (got, want) in res.iter().map(|&(_, d)| d).zip(&want) {
            assert!((got - want).abs() < 1e-9);
        }
    }

    #[test]
    fn failed_reads_never_populate_the_node_caches() {
        // The node-granularity mirror of the PageBuffer guarantee: a leaf
        // with any failed member read must not be admitted anywhere.
        let ds = dataset(160, 5, 11);
        let idx = IDistance::build(&ds, 5, 8, 11);
        let cfg = FaultConfig {
            seed: 6,
            unreadable_rate: 1.0,
            ..FaultConfig::none()
        };
        let store = FaultInjector::new(Arc::new(file(&ds)), cfg);
        let q = ds.point(PointId(1)).to_vec();

        // Dynamic LRU cache: stays empty under a fully dead disk.
        let lru = hc_cache::node::LruNodeCache::new(scheme(&ds), ds.file_bytes());
        let engine = TreeSearchEngine::new(&idx, &ds, &store, &lru);
        let _ = engine.query(&q, 5);
        assert!(lru.is_empty(), "failed reads must never be admitted");
        assert_eq!(lru.used_bytes(), 0);

        // Static caches (exact/compact): `admit` is a no-op by design, so a
        // degraded query must leave their resident sets untouched.
        let mut exact = ExactNodeCache::new(ds.dim(), usize::MAX / 2);
        assert!(exact.try_fill(0, idx.leaf_points(0).len()));
        let before = exact.used_bytes();
        let engine = TreeSearchEngine::new(&idx, &ds, &store, &exact);
        let _ = engine.query(&q, 5);
        assert_eq!(exact.used_bytes(), before);
        assert_eq!(exact.len(), 1);

        let mut compact = CompactNodeCache::new(scheme(&ds), usize::MAX / 2);
        let pts: Vec<&[f32]> = idx.leaf_points(0).iter().map(|p| ds.point(*p)).collect();
        assert!(compact.try_fill(0, pts.into_iter()));
        let before = compact.used_bytes();
        let engine = TreeSearchEngine::new(&idx, &ds, &store, &compact);
        let _ = engine.query(&q, 5);
        assert_eq!(compact.used_bytes(), before);
        assert_eq!(compact.len(), 1);
    }

    #[test]
    fn partially_dead_disk_admits_only_fully_read_leaves() {
        // One point per page (1024-dim) so a single unreadable page kills
        // exactly one leaf member; its leaf must be skipped by admission
        // while fully readable leaves still warm the cache.
        let ds = dataset(24, 1024, 12);
        let idx = IDistance::build(&ds, 3, 4, 12);
        let pristine = Arc::new(file(&ds));
        let q = ds.point(PointId(2)).to_vec();
        // Find a seed whose only unreadable page is one the query actually
        // visits (deterministic search, mirrors the storage-crate idiom).
        let (seed, bad_page) = (0..u64::MAX)
            .find_map(|seed| {
                let cfg = FaultConfig {
                    seed,
                    unreadable_rate: 0.05,
                    ..FaultConfig::none()
                };
                let store = FaultInjector::new(Arc::clone(&pristine), cfg);
                let lru = hc_cache::node::LruNodeCache::new(scheme(&ds), ds.file_bytes());
                let engine = TreeSearchEngine::new(&idx, &ds, &store, &lru);
                let (_, stats) = engine.query(&q, 3);
                (stats.missing.len() == 1).then(|| (seed, stats.missing[0]))
            })
            .expect("some seed yields exactly one dead visited point");
        let cfg = FaultConfig {
            seed,
            unreadable_rate: 0.05,
            ..FaultConfig::none()
        };
        let store = FaultInjector::new(Arc::clone(&pristine), cfg);
        let lru = hc_cache::node::LruNodeCache::new(scheme(&ds), ds.file_bytes());
        let engine = TreeSearchEngine::new(&idx, &ds, &store, &lru);
        let (_, stats) = engine.query(&q, 3);
        let dead_leaf = idx.leaf_of(bad_page);
        assert!(
            !lru.contains(dead_leaf),
            "leaf {dead_leaf} had a failed member and must not be cached"
        );
        let healthy_cached = stats
            .fetched_leaves
            .iter()
            .filter(|&&l| l != dead_leaf)
            .filter(|&&l| lru.contains(l))
            .count();
        assert!(healthy_cached > 0, "fully read leaves still warm the cache");
    }

    #[test]
    fn transient_faults_are_retried_to_an_exact_answer() {
        // 256-dim points → few points per 4 KB page, so the query touches
        // many distinct pages and a 0.3 transient rate is sure to fire.
        let ds = dataset(150, 256, 13);
        let idx = IDistance::build(&ds, 5, 8, 13);
        let pristine = Arc::new(file(&ds));
        let q = ds.point(PointId(70)).to_vec();
        // Deterministic seed search (the storage-crate idiom): retries fired
        // but no page exhausted its budget, so recovery is total.
        let (res, stats) = (0..u64::MAX)
            .find_map(|seed| {
                let cfg = FaultConfig {
                    seed,
                    transient_rate: 0.3,
                    ..FaultConfig::none()
                };
                let store = FaultInjector::new(Arc::clone(&pristine), cfg);
                let engine = TreeSearchEngine::new(&idx, &ds, &store, &NoNodeCache);
                let (res, stats) = engine.query(&q, 5);
                (stats.pages_retried > 0 && stats.is_exact()).then_some((res, stats))
            })
            .expect("some seed retries transients to full recovery");
        assert!(stats.pages_retried > 0);
        assert_eq!(stats.fault_excluded, 0);
        let want = exact_knn(&ds, &q, 5);
        for (got, want) in res.iter().map(|&(_, d)| d).zip(&want) {
            assert!((got - want).abs() < 1e-9);
        }
    }

    #[test]
    fn backoff_during_tree_search_uses_the_injected_clock() {
        use hc_storage::clock::SimulatedClock;
        let ds = dataset(100, 256, 14);
        let idx = IDistance::build(&ds, 4, 8, 14);
        let cfg = FaultConfig {
            seed: 8,
            transient_rate: 0.5,
            ..FaultConfig::none()
        };
        let store = FaultInjector::new(Arc::new(file(&ds)), cfg);
        let clock = Arc::new(SimulatedClock::new());
        let policy = RetryPolicy {
            base: Duration::from_millis(100),
            ..RetryPolicy::default()
        };
        let engine = TreeSearchEngine::new(&idx, &ds, &store, &NoNodeCache)
            .with_retry(policy)
            .with_clock(Arc::clone(&clock) as Arc<dyn Clock>);
        let t0 = Instant::now();
        let (_, stats) = engine.query(ds.point(PointId(5)), 3);
        assert!(stats.pages_retried > 0);
        assert!(clock.sleep_count() > 0, "retries must request backoff");
        assert!(
            t0.elapsed() < Duration::from_millis(100),
            "100ms-base backoff must cost no real time on a simulated clock"
        );
    }

    #[test]
    fn tree_obs_reports_phase_and_io_series() {
        let registry = MetricsRegistry::new();
        let ds = dataset(150, 5, 15);
        let f = file(&ds);
        let idx = IDistance::build(&ds, 5, 8, 15);
        let mut engine = TreeSearchEngine::new(&idx, &ds, &f, &NoNodeCache);
        engine.bind_obs(&registry);
        let (_, stats) = engine.query(ds.point(PointId(3)), 3);
        let snap = registry.snapshot();
        assert_eq!(snap.counter("query.count"), Some(1));
        assert_eq!(snap.counter("query.degraded").unwrap_or(0), 0);
        let io = snap.histogram("query.io_pages").expect("io series");
        assert_eq!(io.count, 1);
        assert_eq!(io.sum, stats.io_pages);
        let fetches = snap.histogram("query.leaf_fetches").expect("fetch series");
        assert_eq!(fetches.sum, stats.leaf_fetches);
        assert!(snap.histogram("phase.tree_traverse_ns").expect("phase").sum > 0);
    }
}
