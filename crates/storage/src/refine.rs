//! The one lb-ordered refiner (Seidl & Kriegel SIGMOD '98, Kriegel et al.
//! SSTD '07 — the paper's references \[26\] and \[22\], phase 3 of
//! Algorithm 1).
//!
//! Given candidates with sound lower distance bounds, [`refine`] fetches
//! exact points in ascending lower-bound order and stops as soon as the next
//! lower bound reaches the current k-th exact distance — at that moment no
//! unfetched candidate can enter the result. Seidl & Kriegel prove this fetch
//! order and stopping rule optimal: no correct algorithm fetches fewer
//! candidates. Every backend runs this loop: the flat engine's phase 3, the
//! tree engine's deferred pass and the ingest segments' search differ only in
//! how they seed the best-k heap and in their [`RefineSink`].
//!
//! ## Fallible reads and the deferred verdict (DESIGN.md §10)
//!
//! All reads go through a per-query [`Fetcher`], which owns the page buffer
//! and runs the [`RetryPolicy`] ladder. A candidate whose page stays
//! unreadable is *deferred*, not dropped: d_k only shrinks as later fetches
//! succeed, so after the scan it is judged against the *final* k-th distance
//! and either proven irrelevant by its lower bound (`lb ≥ d_k`, counted in
//! [`RefineOutcome::excluded_by_bounds`]) or reported in
//! [`RefineOutcome::missing`], making the result explicitly degraded rather
//! than silently wrong.
//!
//! ## Look-ahead batching (DESIGN.md §16)
//!
//! With `lookahead = m > 0`, each step submits the pages of the next `m`
//! lb-ordered candidates together with the current candidate's — one *batch*
//! per step instead of one page per step, so a batch-aware device (or a
//! coalescing broker underneath) amortizes per-request cost. Prefetching is
//! **outcome-invariant**: it never touches the result heap, the stopping
//! rule or the sink, and the fault schedule is a pure function of
//! `(page, attempt)` — a prefetched page succeeds or fails exactly as the
//! evaluation read would have. A failed prefetch is memoized and replayed by
//! [`Fetcher::fetch`] (the same [`StorageError`] the evaluation ladder would
//! have produced) rather than re-running the ladder, so retries are not
//! double-counted. Pages fetched ahead but never consumed — the stopping
//! rule fired first — are counted as *wasted* look-ahead, the price of
//! batching that `storage.io.lookahead_wasted` keeps honest.

use std::collections::{BinaryHeap, HashMap, HashSet};

use hc_core::dataset::PointId;
use hc_core::distance::euclidean;

use crate::clock::Clock;
use crate::error::StorageError;
use crate::io_stats::IoSnapshot;
use crate::point_file::PageBuffer;
use crate::retry::{RetryObs, RetryPolicy};
use crate::store::PageStore;

/// One query's read path: store, page buffer, retry ladder, backoff clock
/// and the look-ahead memo behind a single [`Fetcher::fetch`].
pub struct Fetcher<'s> {
    store: &'s dyn PageStore,
    buffer: PageBuffer,
    retry: RetryPolicy,
    obs: &'s RetryObs,
    clock: &'s dyn Clock,
    io_before: IoSnapshot,
    /// Pages whose prefetch exhausted its retries, with the error the
    /// evaluation ladder would have produced (deterministic schedule ⇒
    /// identical).
    prefetch_failed: HashMap<u64, StorageError>,
    /// Prefetched pages not yet consumed by a `fetch`.
    ahead: HashSet<u64>,
    lookahead_issued: usize,
    /// Ladder runs that reached the store (the page was not yet buffered).
    submitted: u64,
}

impl<'s> Fetcher<'s> {
    /// Begin a query on `store`: a fresh page buffer, and the I/O counters'
    /// starting point for [`Fetcher::io`].
    pub fn new(
        store: &'s dyn PageStore,
        retry: RetryPolicy,
        obs: &'s RetryObs,
        clock: &'s dyn Clock,
    ) -> Self {
        Self {
            store,
            buffer: store.begin_query(),
            retry,
            obs,
            clock,
            io_before: store.stats().snapshot(),
            prefetch_failed: HashMap::new(),
            ahead: HashSet::new(),
            lookahead_issued: 0,
            submitted: 0,
        }
    }

    /// Fetch a point, retrying transient faults. A page whose prefetch
    /// already lost the full ladder fails here with that same error.
    pub fn fetch(&mut self, id: PointId) -> Result<&'s [f32], StorageError> {
        // The memo stays empty until the first prefetch: at look-ahead 0 a
        // fetch is exactly one ladder run.
        if self.lookahead_issued > 0 {
            let page = self.store.page_of(id);
            self.ahead.remove(&page);
            if let Some(&e) = self.prefetch_failed.get(&page) {
                return Err(e);
            }
        }
        self.run_ladder(id)
    }

    /// Submit `id`'s page ahead of need, unless it is buffered or known dead.
    fn prefetch(&mut self, id: PointId) {
        let page = self.store.page_of(id);
        if self.buffer.contains(page) || self.prefetch_failed.contains_key(&page) {
            return;
        }
        self.lookahead_issued += 1;
        self.store.stats().record_lookahead_issued();
        self.ahead.insert(page);
        if let Err(e) = self.run_ladder(id) {
            self.prefetch_failed.insert(page, e);
        }
    }

    fn run_ladder(&mut self, id: PointId) -> Result<&'s [f32], StorageError> {
        let buffered = self.buffer.pages_touched();
        let read = self
            .retry
            .fetch_with(self.store, id, &mut self.buffer, self.obs, self.clock);
        // Buffered pages never fail and never grow the buffer.
        if read.is_err() || self.buffer.pages_touched() > buffered {
            self.submitted += 1;
        }
        read
    }

    /// The store's I/O counters since this query began.
    pub fn io(&self) -> IoSnapshot {
        self.store.stats().snapshot().delta_since(self.io_before)
    }
}

/// The k best `(distance, id)` pairs seen so far; ties on distance keep the
/// smaller id.
#[derive(Debug, Clone)]
pub struct BestK {
    k: usize,
    heap: BinaryHeap<Hit>,
}

/// Max-heap entry ordered by `(distance, id)`.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Hit {
    dist: f64,
    id: PointId,
}

impl Eq for Hit {}

impl PartialOrd for Hit {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Hit {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.dist
            .total_cmp(&other.dist)
            .then(self.id.cmp(&other.id))
    }
}

impl BestK {
    pub fn new(k: usize) -> Self {
        assert!(k >= 1);
        Self {
            k,
            heap: BinaryHeap::with_capacity(k),
        }
    }

    pub fn push(&mut self, id: PointId, dist: f64) {
        debug_assert!(!dist.is_nan(), "NaN distance");
        let hit = Hit { dist, id };
        if self.heap.len() < self.k {
            self.heap.push(hit);
        } else if let Some(mut worst) = self.heap.peek_mut() {
            if hit < *worst {
                *worst = hit;
            }
        }
    }

    /// The k-th smallest distance, once k entries exist.
    pub fn kth(&self) -> Option<f64> {
        (self.heap.len() >= self.k).then(|| self.heap.peek().expect("k >= 1").dist)
    }

    /// Ascending by `(distance, id)`.
    pub fn into_sorted(self) -> Vec<(PointId, f64)> {
        self.heap
            .into_sorted_vec()
            .into_iter()
            .map(|h| (h.id, h.dist))
            .collect()
    }
}

/// A candidate awaiting exact evaluation, with a sound lower bound on its
/// distance (0 when nothing is known).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Candidate {
    pub id: PointId,
    pub lb: f64,
}

/// The per-backend hooks of [`refine`]. Neither may touch the result heap.
pub trait RefineSink {
    /// Called for each candidate the stopping rule let through, before its
    /// own fetch (the tree engine sweeps the candidate's leaf here).
    fn before_fetch(&mut self, _fetcher: &mut Fetcher<'_>, _id: PointId) {}

    /// Called with each successfully fetched candidate (the flat engine
    /// admits it into the point cache here).
    fn fetched(&mut self, _id: PointId, _point: &[f32]) {}
}

/// The sink of a backend with nothing to do at either hook.
pub struct NoSink;

impl RefineSink for NoSink {}

/// Outcome of a refinement run.
#[derive(Debug, Clone)]
pub struct RefineOutcome {
    /// The `k` nearest among the *readable* candidates, ascending by
    /// `(distance, id)`. Equals the true top-k whenever `missing` is empty.
    pub results: Vec<(PointId, f64)>,
    /// How many candidates were actually fetched and evaluated.
    pub fetched: usize,
    /// Candidates the stopping rule eliminated without a read.
    pub pruned: usize,
    /// Candidates whose pages stayed unreadable after retries AND whose
    /// lower bounds could not prove them irrelevant, sorted and deduped.
    /// Non-empty ⇒ the result is degraded: it is exactly the top-k over the
    /// candidate set minus these ids.
    pub missing: Vec<PointId>,
    /// Unreadable candidates that were nevertheless *excluded soundly*: the
    /// lower bound already placed them at or beyond the final k-th distance,
    /// so losing their page lost no information. These do not degrade the
    /// result.
    pub excluded_by_bounds: usize,
    /// Pages submitted ahead of need by look-ahead batching.
    pub lookahead_issued: usize,
    /// Prefetched pages never consumed by an evaluated candidate (the
    /// stopping rule fired first) — wasted device work.
    pub lookahead_wasted: usize,
    /// Fetch batches submitted: steps that performed at least one page read
    /// (own page, sink reads or prefetch). With `lookahead = 0` this equals
    /// the number of page-missing fetch steps; larger look-ahead packs the
    /// same pages into fewer batches.
    pub io_batches: u64,
}

impl RefineOutcome {
    /// Whether the result is the provably exact top-k of the candidate set.
    pub fn is_exact(&self) -> bool {
        self.missing.is_empty()
    }
}

/// Multi-step refinement of `candidates` into `best`, which the caller may
/// have seeded with exact distances it got without this loop (cache hits,
/// already-read leaves); `dead` likewise seeds the deferred list with
/// candidates the caller already failed to read. `lookahead` is the number
/// of upcoming candidates whose pages are submitted together with each
/// evaluation (0 is the classic one-page-per-step refiner; see the module
/// docs for the outcome-invariance argument).
pub fn refine(
    fetcher: &mut Fetcher<'_>,
    q: &[f32],
    mut best: BestK,
    mut candidates: Vec<Candidate>,
    mut dead: Vec<Candidate>,
    lookahead: usize,
    sink: &mut impl RefineSink,
) -> RefineOutcome {
    candidates.sort_by(|a, b| a.lb.total_cmp(&b.lb).then(a.id.cmp(&b.id)));

    let mut fetched = 0usize;
    let mut pruned = 0usize;
    let mut io_batches = 0u64;
    for i in 0..candidates.len() {
        let cand = candidates[i];
        if best.kth().is_some_and(|dk| cand.lb >= dk) {
            // Optimal stopping: no later candidate can qualify.
            pruned = candidates.len() - i;
            break;
        }
        // One batch per step: whatever this candidate still needs from the
        // device plus the next `lookahead` candidates' pages.
        let submitted = fetcher.submitted;
        for next in candidates.iter().skip(i + 1).take(lookahead) {
            fetcher.prefetch(next.id);
        }
        sink.before_fetch(fetcher, cand.id);
        match fetcher.fetch(cand.id) {
            Ok(point) => {
                fetched += 1;
                sink.fetched(cand.id, point);
                best.push(cand.id, euclidean(q, point));
            }
            // Retries exhausted or the page is dead: defer the verdict.
            Err(_) => dead.push(cand),
        }
        if fetcher.submitted > submitted {
            io_batches += 1;
        }
    }
    let lookahead_wasted = fetcher.ahead.len();
    fetcher
        .store
        .stats()
        .record_lookahead_wasted(lookahead_wasted as u64);

    // A failed read may only disappear from the answer if its lower bound
    // proves the lost page held nothing: the point was at least the final
    // d_k away ("exploit every bit").
    let before = dead.len();
    if let Some(dk) = best.kth() {
        dead.retain(|cand| cand.lb < dk);
    }
    let excluded_by_bounds = before - dead.len();
    let mut missing: Vec<PointId> = dead.into_iter().map(|cand| cand.id).collect();
    missing.sort();
    missing.dedup();

    RefineOutcome {
        results: best.into_sorted(),
        fetched,
        pruned,
        missing,
        excluded_by_bounds,
        lookahead_issued: fetcher.lookahead_issued,
        lookahead_wasted,
        io_batches,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::RealClock;
    use crate::fault::{FaultConfig, FaultInjector};
    use crate::point_file::PointFile;
    use hc_core::dataset::Dataset;
    use std::sync::Arc;

    fn file() -> PointFile {
        // 1-d points at 0, 10, 20, ..., 90; one point per "row".
        let ds = Dataset::from_rows(&(0..10).map(|i| vec![(i * 10) as f32]).collect::<Vec<_>>());
        PointFile::new(ds)
    }

    fn pend(id: u32, lb: f64) -> Candidate {
        Candidate {
            id: PointId(id),
            lb,
        }
    }

    fn run(
        store: &dyn PageStore,
        q: &[f32],
        k: usize,
        known: &[(PointId, f64)],
        pending: Vec<Candidate>,
    ) -> RefineOutcome {
        run_ahead(store, q, k, known, pending, 0)
    }

    fn run_ahead(
        store: &dyn PageStore,
        q: &[f32],
        k: usize,
        known: &[(PointId, f64)],
        pending: Vec<Candidate>,
        lookahead: usize,
    ) -> RefineOutcome {
        let obs = RetryObs::new();
        let mut fetcher = Fetcher::new(store, RetryPolicy::default(), &obs, &RealClock);
        let mut best = BestK::new(k);
        for &(id, d) in known {
            best.push(id, d);
        }
        refine(
            &mut fetcher,
            q,
            best,
            pending,
            Vec::new(),
            lookahead,
            &mut NoSink,
        )
    }

    #[test]
    fn finds_exact_knn_among_candidates() {
        let f = file();
        let pending: Vec<Candidate> = (0..10u32).map(|i| pend(i, 0.0)).collect();
        let out = run(&f, &[34.0], 2, &[], pending);
        let ids: Vec<u32> = out.results.iter().map(|(id, _)| id.0).collect();
        assert_eq!(ids, vec![3, 4]); // 30 and 40 are nearest to 34
        assert!(out.is_exact());
    }

    #[test]
    fn tight_lower_bounds_stop_early() {
        let f = file();
        // Exact lower bounds: only the true nearest needs fetching once k=1
        // and the second-best lb exceeds the first's exact distance.
        let pending: Vec<Candidate> = (0..10u32)
            .map(|i| pend(i, ((i as f64) * 10.0 - 34.0).abs()))
            .collect();
        let out = run(&f, &[34.0], 1, &[], pending);
        assert_eq!(out.results[0].0, PointId(3));
        assert_eq!(out.fetched, 1, "optimal stopping should fetch exactly one");
    }

    #[test]
    fn zero_lower_bounds_force_full_scan() {
        let f = file();
        let pending: Vec<Candidate> = (0..10u32).map(|i| pend(i, 0.0)).collect();
        let out = run(&f, &[34.0], 1, &[], pending);
        assert_eq!(out.fetched, 10, "no bounds → no early stopping");
    }

    #[test]
    fn known_distances_tighten_the_threshold() {
        let f = file();
        // Point 3 (dist 4) known for free: every pending lb ≥ 4 is skipped.
        let known = [(PointId(3), 4.0)];
        let pending: Vec<Candidate> = (0..10u32)
            .filter(|&i| i != 3)
            .map(|i| pend(i, ((i as f64) * 10.0 - 34.0).abs()))
            .collect();
        let out = run(&f, &[34.0], 1, &known, pending);
        assert_eq!(out.results[0].0, PointId(3));
        assert_eq!(out.fetched, 0, "known result should suppress all fetches");
    }

    #[test]
    fn k_larger_than_candidates_returns_everything() {
        let f = file();
        let pending = vec![pend(1, 0.0), pend(2, 0.0)];
        let out = run(&f, &[0.0], 5, &[], pending);
        assert_eq!(out.results.len(), 2);
    }

    #[test]
    fn results_are_sorted_ascending() {
        let f = file();
        let pending: Vec<Candidate> = (0..10u32).map(|i| pend(i, 0.0)).collect();
        let out = run(&f, &[55.0], 4, &[], pending);
        for w in out.results.windows(2) {
            assert!(w[0].1 <= w[1].1);
        }
    }

    #[test]
    fn unreadable_candidate_degrades_instead_of_panicking() {
        // 1-d points, 1024 points/page would co-locate everything; use 1024-d
        // to force one point per page so we can kill exactly one candidate.
        let ds = Dataset::from_rows(
            &(0..6)
                .map(|i| vec![(i * 10) as f32; 1024])
                .collect::<Vec<_>>(),
        );
        let f = Arc::new(PointFile::new(ds));
        // Find a seed that kills exactly the page of point 1 and nothing else.
        let seed = (0..u64::MAX)
            .find(|&s| {
                let inj = FaultInjector::new(
                    Arc::clone(&f),
                    FaultConfig {
                        seed: s,
                        unreadable_rate: 0.2,
                        ..FaultConfig::none()
                    },
                );
                (0..6u32).all(|id| {
                    let mut b = PageStore::begin_query(&inj);
                    let dead = inj.read_point(PointId(id), 0, &mut b).is_err();
                    dead == (id == 1)
                })
            })
            .expect("some seed kills exactly page 1");
        let inj = FaultInjector::new(
            Arc::clone(&f),
            FaultConfig {
                seed,
                unreadable_rate: 0.2,
                ..FaultConfig::none()
            },
        );
        // Query at 12: true top-2 is {1 (dist ~2·32), 0 or 2}. Point 1 is
        // unreadable with an uninformative bound → it must land in missing,
        // and the result must be the top-2 of the readable rest.
        let pending: Vec<Candidate> = (0..6u32).map(|i| pend(i, 0.0)).collect();
        let out = run(&inj, [12.0f32; 1024].as_slice(), 2, &[], pending);
        assert_eq!(out.missing, vec![PointId(1)]);
        assert!(!out.is_exact());
        let ids: Vec<u32> = out.results.iter().map(|(id, _)| id.0).collect();
        assert_eq!(ids, vec![2, 0], "top-2 of the readable candidates");
    }

    #[test]
    fn tight_cached_bound_keeps_dead_page_untouched() {
        // The primary way cached bounds absorb faults: the dead candidate's
        // lower bound places it past the stopping threshold, so refinement
        // never reads its page at all — the loss is invisible and free.
        let ds = Dataset::from_rows(
            &(0..6)
                .map(|i| vec![(i * 10) as f32; 1024])
                .collect::<Vec<_>>(),
        );
        let f = Arc::new(PointFile::new(ds));
        let seed = (0..u64::MAX)
            .find(|&s| {
                let inj = FaultInjector::new(
                    Arc::clone(&f),
                    FaultConfig {
                        seed: s,
                        unreadable_rate: 0.2,
                        ..FaultConfig::none()
                    },
                );
                (0..6u32).all(|id| {
                    let mut b = PageStore::begin_query(&inj);
                    inj.read_point(PointId(id), 0, &mut b).is_err() == (id == 4)
                })
            })
            .expect("some seed kills exactly page 4");
        let inj = FaultInjector::new(
            Arc::clone(&f),
            FaultConfig {
                seed,
                unreadable_rate: 0.2,
                ..FaultConfig::none()
            },
        );
        f.stats().reset();
        // Query at 0. True distances scale with i·10·32; point 4's tight lb
        // is far beyond the 2nd-best readable distance, so the stopping rule
        // skips it before its dead page is ever touched.
        let pending: Vec<Candidate> = (0..6u32)
            .map(|i| {
                let exact = (i as f64) * 10.0 * 32.0;
                pend(i, if i == 4 { exact } else { 0.0 })
            })
            .collect();
        let out = run(&inj, [0.0f32; 1024].as_slice(), 2, &[], pending);
        assert!(out.is_exact(), "bound-excluded loss must not degrade");
        let ids: Vec<u32> = out.results.iter().map(|(id, _)| id.0).collect();
        assert_eq!(ids, vec![0, 1]);
        assert_eq!(
            f.stats().pages_read(),
            5,
            "the dead page must never be read: 5 healthy fetches only"
        );
    }

    #[test]
    fn deferred_unreadable_candidate_excluded_on_bound_tie() {
        // The deferred reckoning: a dead candidate attempted while the heap
        // was still filling is excluded afterwards when its cached lb reaches
        // the final k-th distance — here an exact tie from a duplicate point.
        let ds = Dataset::from_rows(&[vec![10.0f32; 1024], vec![10.0f32; 1024]]);
        let f = Arc::new(PointFile::new(ds));
        let seed = (0..u64::MAX)
            .find(|&s| {
                let inj = FaultInjector::new(
                    Arc::clone(&f),
                    FaultConfig {
                        seed: s,
                        unreadable_rate: 0.5,
                        ..FaultConfig::none()
                    },
                );
                (0..2u32).all(|id| {
                    let mut b = PageStore::begin_query(&inj);
                    inj.read_point(PointId(id), 0, &mut b).is_err() == (id == 0)
                })
            })
            .expect("some seed kills exactly page 0");
        let inj = FaultInjector::new(
            Arc::clone(&f),
            FaultConfig {
                seed,
                unreadable_rate: 0.5,
                ..FaultConfig::none()
            },
        );
        // Both points sit at distance 320 from the query; both carry tight
        // bounds. id 0 sorts first (lb tie), is attempted (heap not yet
        // full), dies, and is deferred; id 1 then fills the heap at exactly
        // id 0's lb — the bound proves the loss changed nothing.
        let d = 10.0 * 32.0;
        let pending = vec![pend(0, d), pend(1, d)];
        let out = run(&inj, [0.0f32; 1024].as_slice(), 1, &[], pending);
        assert!(out.is_exact());
        assert_eq!(out.excluded_by_bounds, 1);
        let ids: Vec<u32> = out.results.iter().map(|(id, _)| id.0).collect();
        assert_eq!(ids, vec![1]);
    }

    #[test]
    fn fewer_readable_than_k_reports_all_dead_candidates_missing() {
        let ds = Dataset::from_rows(
            &(0..3)
                .map(|i| vec![(i * 10) as f32; 1024])
                .collect::<Vec<_>>(),
        );
        let f = Arc::new(PointFile::new(ds));
        let seed = (0..u64::MAX)
            .find(|&s| {
                let inj = FaultInjector::new(
                    Arc::clone(&f),
                    FaultConfig {
                        seed: s,
                        unreadable_rate: 0.5,
                        ..FaultConfig::none()
                    },
                );
                (0..3u32).all(|id| {
                    let mut b = PageStore::begin_query(&inj);
                    inj.read_point(PointId(id), 0, &mut b).is_err() == (id != 0)
                })
            })
            .expect("some seed kills pages 1 and 2");
        let inj = FaultInjector::new(
            Arc::clone(&f),
            FaultConfig {
                seed,
                unreadable_rate: 0.5,
                ..FaultConfig::none()
            },
        );
        let pending: Vec<Candidate> = (0..3u32).map(|i| pend(i, 0.0)).collect();
        let out = run(&inj, [0.0f32; 1024].as_slice(), 2, &[], pending);
        // Only point 0 was readable: short result, both dead ids missing
        // (best.len() < k ⇒ no bound can exclude anything).
        assert_eq!(out.results.len(), 1);
        assert_eq!(out.missing, vec![PointId(1), PointId(2)]);
    }

    #[test]
    fn full_lookahead_packs_the_scan_into_one_batch() {
        // One point per page; zero bounds force a full scan. With look-ahead
        // covering the whole pending list, every page is submitted in the
        // first step's batch and all later steps find their page buffered.
        let ds = Dataset::from_rows(
            &(0..6)
                .map(|i| vec![(i * 10) as f32; 1024])
                .collect::<Vec<_>>(),
        );
        let f = PointFile::new(ds);
        let pending: Vec<Candidate> = (0..6u32).map(|i| pend(i, 0.0)).collect();
        let flat = run_ahead(&f, [12.0f32; 1024].as_slice(), 2, &[], pending.clone(), 0);
        assert_eq!(flat.io_batches, 6, "no look-ahead: one batch per page");
        assert_eq!(flat.lookahead_issued, 0);

        let batched = run_ahead(&f, [12.0f32; 1024].as_slice(), 2, &[], pending, 8);
        assert_eq!(batched.io_batches, 1, "full look-ahead: a single batch");
        assert_eq!(batched.lookahead_issued, 5);
        assert_eq!(
            batched.lookahead_wasted, 0,
            "full scan consumes every prefetch"
        );
        assert_eq!(
            batched.results, flat.results,
            "batching must not change results"
        );
        assert_eq!(f.stats().lookahead_issued(), 5);
    }

    #[test]
    fn early_stop_counts_unconsumed_prefetches_as_wasted() {
        let ds = Dataset::from_rows(
            &(0..6)
                .map(|i| vec![(i * 10) as f32; 1024])
                .collect::<Vec<_>>(),
        );
        let f = PointFile::new(ds);
        // Candidate 0 is exact-best; the rest carry bounds far past its
        // distance, so the stopping rule fires right after step 0 — the
        // three pages prefetched alongside it are pure waste.
        let mut pending = vec![pend(0, 0.0)];
        pending.extend((1..6u32).map(|i| pend(i, 1e6)));
        let out = run_ahead(&f, [0.0f32; 1024].as_slice(), 1, &[], pending, 3);
        assert_eq!(out.results[0].0, PointId(0));
        assert_eq!(out.lookahead_issued, 3);
        assert_eq!(out.lookahead_wasted, 3);
        assert_eq!(f.stats().lookahead_wasted(), 3);
        // 1 own page + 3 prefetched: waste shows up in physical reads too.
        assert_eq!(f.stats().pages_read(), 4);
    }

    #[test]
    fn lookahead_is_outcome_invariant_under_mixed_faults() {
        // The module-docs claim, checked head-on: for the same fault
        // schedule, every look-ahead depth yields bit-identical results,
        // missing sets, and bound exclusions — faults roll per
        // (page, attempt), so a prefetch observes exactly what the
        // evaluation read would have.
        let ds = Dataset::from_rows(
            &(0..12)
                .map(|i| vec![(i * 7) as f32; 1024])
                .collect::<Vec<_>>(),
        );
        let f = Arc::new(PointFile::new(ds));
        for seed in [3u64, 17, 4242] {
            let inj = FaultInjector::new(Arc::clone(&f), FaultConfig::mixed(seed, 0.3));
            let queries: [&[f32]; 3] = [&[5.0; 1024], &[40.0; 1024], &[80.0; 1024]];
            for q in queries {
                let pending: Vec<Candidate> = (0..12u32)
                    .map(|i| {
                        pend(
                            i,
                            ((i as f64) * 7.0 * 32.0 - q[0] as f64 * 32.0).abs() * 0.5,
                        )
                    })
                    .collect();
                let baseline = run_ahead(&inj, q, 3, &[], pending.clone(), 0);
                for m in [1usize, 2, 5, 16] {
                    let out = run_ahead(&inj, q, 3, &[], pending.clone(), m);
                    assert_eq!(out.results, baseline.results, "seed {seed} m {m}");
                    assert_eq!(out.missing, baseline.missing, "seed {seed} m {m}");
                    assert_eq!(
                        out.excluded_by_bounds, baseline.excluded_by_bounds,
                        "seed {seed} m {m}"
                    );
                }
            }
        }
    }
}
