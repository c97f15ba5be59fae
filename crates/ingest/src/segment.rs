//! Sealed immutable segments (DESIGN.md §13.3).
//!
//! A seal flushes one memtable snapshot into a [`Segment`]: the live
//! vectors become a paged, per-page-checksummed [`PointFile`] (the same
//! codec and fallible [`PageStore`] machinery the frozen base dataset
//! uses), the tombstones ride along as a sorted id list, and a per-segment
//! compact-code sidecar is built at seal time — the paper's bit-packed
//! τ-bit encoding via [`GlobalScheme`], fitted to *this segment's* value
//! distribution (GoVector-style per-segment caching: each sealed run keeps
//! its own compact codes rather than sharing one global pool).
//!
//! Queries use the sidecar for sound distance lower bounds and hand them to
//! the shared lb-ordered refiner ([`hc_storage::refine`]): exact vectors are
//! read in ascending-lb order through the fallible store's retry ladder
//! until the k-th exact distance is ≤ the next lower bound, so the answer
//! over the segment's unmasked rows is exact while most pages are never
//! read, and an unreadable row only counts as missing if its sidecar bound
//! cannot exclude it against the final k-th distance (DESIGN.md §10).
//!
//! Like the base file, a segment can be wrapped in a [`FaultInjector`]
//! (per-segment seed) so sealed pages fail realistically; scrub passes
//! repair them from the seal-time replica via [`ScrubbablePageStore`].
//!
//! Query reads go through a per-segment [`FetchBroker`] (DESIGN.md §16):
//! concurrent server workers searching the same sealed run coalesce
//! identical page reads and share a hot-page buffer, while scrub keeps
//! walking the raw store underneath. Broker sharing is outcome-preserving —
//! fault rolls are a pure function of `(page, attempt)`, so a hot or
//! coalesced read observes exactly what a private read would have.

use std::collections::HashSet;
use std::sync::Arc;

use hc_io::FetchBroker;

use hc_core::bounds::DistBounds;
use hc_core::dataset::{Dataset, PointId};
use hc_core::distance::euclidean;
use hc_core::histogram::HistogramKind;
use hc_core::quantize::Quantizer;
use hc_core::scan::{scan_slots, BlockedCodes, QueryTables, ScanScratch, Simd};
use hc_core::scheme::{ApproxScheme, GlobalScheme};
use hc_obs::MetricsRegistry;
use hc_storage::clock::RealClock;
use hc_storage::fault::{FaultConfig, FaultInjector};
use hc_storage::point_file::PointFile;
use hc_storage::refine::{refine, BestK, Candidate, Fetcher, NoSink};
use hc_storage::retry::{RetryObs, RetryPolicy};
use hc_storage::scrub::ScrubbablePageStore;
use hc_storage::store::PageStore;

/// Sidecar fit parameters: how a seal builds its segment's compact codes.
#[derive(Debug, Clone, Copy)]
pub struct SidecarConfig {
    /// Histogram bucket budget B (τ = ⌈log₂ B⌉ bits per code).
    pub buckets: u32,
    /// Quantizer domain size over the segment's value range.
    pub n_dom: u32,
}

impl Default for SidecarConfig {
    fn default() -> Self {
        Self {
            buckets: 64,
            n_dom: 1024,
        }
    }
}

/// One sealed, immutable level of the store.
pub struct Segment {
    /// Seal ordinal: higher = newer. Compaction outputs keep the max of
    /// their inputs so newest-first ordering survives merges.
    seq: u64,
    /// Local slot → user id, sorted ascending (slot `i` stores `keys[i]`).
    keys: Vec<u32>,
    /// Ids deleted as of this seal, sorted — they mask older segments.
    tombstones: Vec<u32>,
    /// The pristine seal-time file: replica for scrub repair and offline
    /// (no-I/O) access for verification.
    file: Arc<PointFile>,
    /// The raw device: the file itself, or a fault-injecting wrapper
    /// around it. Scrub cycles walk this directly.
    store: Arc<dyn ScrubbablePageStore>,
    /// The path queries actually read through: a per-segment broker over
    /// `store` that coalesces concurrent identical page reads and serves
    /// re-referenced pages from a shared hot buffer.
    read_store: Arc<FetchBroker>,
    /// The sidecar's bound scheme, fitted to this segment's distribution.
    scheme: GlobalScheme,
    /// τ-bit codes in the blocked dimension-major layout, one lane per key
    /// — the segment-local mirror of the cache's compact store, so the
    /// bound pass runs the same table-driven block kernel.
    codes: BlockedCodes,
    /// `retry.*` telemetry of this segment's reads; inert until bound.
    retry_obs: RetryObs,
}

/// What one segment search did and found.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct SegmentSearch {
    /// Ascending `(exact distance, id)` — at most k, exact over the
    /// segment's unmasked live rows minus `missing`.
    pub hits: Vec<(f64, PointId)>,
    /// Unmasked candidates whose bounds were evaluated.
    pub considered: usize,
    /// Candidates eliminated by the lower bound without an exact read.
    pub pruned: usize,
    /// Exact vectors actually fetched.
    pub fetched: usize,
    /// Page reads this search issued: device reads (failed attempts and
    /// retries included) plus pages the segment broker served from its hot
    /// buffer or a coalesced flight.
    pub io_pages: usize,
    /// Device reads that were retries of transient page faults.
    pub pages_retried: usize,
    /// Ids whose page stayed unreadable within the retry budget and whose
    /// sidecar lower bound could not prove them irrelevant — the answer
    /// over this segment is exact minus these (degraded, surfaced to the
    /// caller, never silently wrong).
    pub missing: Vec<PointId>,
    /// Unreadable rows whose sidecar lower bound reached the final k-th
    /// distance: lost pages that cost the answer nothing.
    pub fault_excluded: usize,
}

impl Segment {
    /// Seal a memtable snapshot into a segment. `live` must be sorted by id
    /// (as [`crate::memtable::Memtable::snapshot_for_seal`] yields it);
    /// `fault` wraps the sealed file in a [`FaultInjector`] so its pages
    /// fail like the base dataset's.
    pub fn build(
        seq: u64,
        live: Vec<(u32, Vec<f32>)>,
        tombstones: Vec<u32>,
        dim: usize,
        sidecar: SidecarConfig,
        fault: Option<FaultConfig>,
    ) -> Self {
        debug_assert!(live.windows(2).all(|w| w[0].0 < w[1].0), "live sorted");
        let mut dataset = Dataset::with_dim(dim);
        let mut keys = Vec::with_capacity(live.len());
        for (id, vector) in &live {
            keys.push(*id);
            dataset.push(vector);
        }
        // `value_range` widens degenerate ranges and covers the empty case,
        // so the quantizer is always well-formed.
        let (lo, hi) = dataset.value_range();
        let quantizer = Quantizer::new(lo, hi, sidecar.n_dom);
        let histogram = HistogramKind::EquiDepth.build(
            &quantizer.frequency_array(dataset.as_flat()),
            sidecar.buckets,
        );
        let scheme = GlobalScheme::new(histogram, quantizer, dim);
        let mut codes = BlockedCodes::new(dim, scheme.tau());
        let mut words = Vec::with_capacity(scheme.words_per_point());
        for (slot, (_, vector)) in live.iter().enumerate() {
            words.clear();
            scheme.encode_into(vector, &mut words);
            codes.set_lane(
                slot,
                hc_core::codes::CodeIter::new(&words, scheme.tau(), dim),
            );
        }
        let file = Arc::new(PointFile::new(dataset));
        let store: Arc<dyn ScrubbablePageStore> = match fault {
            Some(cfg) => Arc::new(FaultInjector::new(Arc::clone(&file), cfg)),
            None => Arc::clone(&file) as Arc<dyn ScrubbablePageStore>,
        };
        let read_store = Arc::new(FetchBroker::new(Arc::clone(&store) as Arc<dyn PageStore>));
        Self {
            seq,
            keys,
            tombstones,
            file,
            store,
            read_store,
            scheme,
            codes,
            retry_obs: RetryObs::new(),
        }
    }

    /// Count this segment's read retries in `registry`'s `retry.*` series.
    pub fn bind_obs(&self, registry: &MetricsRegistry) {
        self.retry_obs.bind(registry);
    }

    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Rows stored (live at seal time; masking happens above).
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Local slot → user id.
    pub fn key_of(&self, local: u32) -> u32 {
        self.keys[local as usize]
    }

    pub fn keys(&self) -> &[u32] {
        &self.keys
    }

    pub fn tombstones(&self) -> &[u32] {
        &self.tombstones
    }

    /// Whether this segment tombstones `id` (binary search; sorted list).
    pub fn is_tombstoned(&self, id: u32) -> bool {
        self.tombstones.binary_search(&id).is_ok()
    }

    /// Whether this segment stores a version of `id`.
    pub fn contains_key(&self, id: u32) -> bool {
        self.keys.binary_search(&id).is_ok()
    }

    /// The raw device (fault-injected when configured) — what scrub cycles
    /// walk.
    pub fn store(&self) -> &Arc<dyn ScrubbablePageStore> {
        &self.store
    }

    /// The broker queries read through: single-flight coalescing plus a
    /// shared hot-page buffer over [`Segment::store`].
    pub fn read_store(&self) -> &Arc<FetchBroker> {
        &self.read_store
    }

    /// The pristine seal-time file (replica / offline access).
    pub fn file(&self) -> &Arc<PointFile> {
        &self.file
    }

    /// Offline (no-I/O, infallible) row access — compaction merges read
    /// through this, exactly like cache rebuilds read the base dataset.
    pub fn row(&self, local: u32) -> &[f32] {
        self.file.dataset().point(PointId(local))
    }

    /// Sidecar bytes per row (compact-code footprint, for obs). The blocked
    /// layout packs `64·τ` bits per 64 lanes, so the per-row cost equals the
    /// row-major `bytes_per_point` the budget formulas already use.
    pub fn sidecar_bytes(&self) -> usize {
        self.scheme.bytes_per_point() * self.keys.len()
    }

    /// Exact top-k over `locals` (this segment's still-live slots per the
    /// manifest) minus ids in `mask` (shadowed by newer levels), refined in
    /// ascending-lower-bound order with at most `max_retries` re-reads of a
    /// transiently failing page.
    pub fn top_k(
        &self,
        q: &[f32],
        k: usize,
        locals: &[u32],
        mask: &HashSet<u32>,
        max_retries: u32,
    ) -> SegmentSearch {
        let mut out = SegmentSearch::default();
        if k == 0 {
            return out;
        }
        // Bound pass: one lb per unmasked candidate, sidecar only, no I/O.
        // One table build per query, then `scan_slots` sweeps the unmasked
        // lanes of the dimension-major sidecar: whole-block where a block's
        // survivors are a lane prefix (a freshly sealed segment: all of
        // them), the hoisted per-lane walk where deletes or newer levels left holes.
        // Bit-identical to `scheme.bounds`. This sequential scan is the one
        // traffic the transposed layout serves — the point and node caches
        // are probed by id and keep row-major words (DESIGN.md §15).
        let unmasked: Vec<u32> = locals
            .iter()
            .copied()
            .filter(|&local| !mask.contains(&self.key_of(local)))
            .collect();
        out.considered = unmasked.len();
        let intervals = self
            .scheme
            .scan_intervals()
            .expect("GlobalScheme always exposes scan intervals");
        let tables = QueryTables::build(q, &intervals);
        let pairs: Vec<(u32, u32)> = unmasked
            .iter()
            .enumerate()
            .map(|(i, &local)| (local, i as u32))
            .collect();
        let mut bounds = vec![DistBounds::UNKNOWN; unmasked.len()];
        let mut scratch = ScanScratch::default();
        scan_slots(
            &tables,
            &self.codes,
            &pairs,
            &mut bounds,
            &mut scratch,
            Simd::Auto,
        );
        let by_lb: Vec<Candidate> = unmasked
            .iter()
            .zip(&bounds)
            .map(|(&local, b)| Candidate {
                id: PointId(local),
                lb: b.lb,
            })
            .collect();

        // Refine pass: the shared lb-ordered refiner over local slots (slot
        // order is key order, so its `(distance, id)` tie rule is the
        // segment's). Reads go through the segment broker, so concurrent
        // workers coalesce identical pages and share hot residency.
        let retry = RetryPolicy {
            max_retries,
            ..RetryPolicy::default()
        };
        let mut fetcher =
            Fetcher::new(self.read_store.as_ref(), retry, &self.retry_obs, &RealClock);
        let refined = refine(
            &mut fetcher,
            q,
            BestK::new(k),
            by_lb,
            Vec::new(),
            0,
            &mut NoSink,
        );
        let key = |local: PointId| PointId(self.key_of(local.0));
        out.hits = refined
            .results
            .into_iter()
            .map(|(local, d)| (d, key(local)))
            .collect();
        out.missing = refined.missing.into_iter().map(key).collect();
        out.fault_excluded = refined.excluded_by_bounds;
        out.pruned = refined.pruned;
        out.fetched = refined.fetched;
        let io = fetcher.io();
        out.io_pages = (io.pages_read + io.hot_hits + io.pages_coalesced) as usize;
        out.pages_retried = io.pages_retried as usize;
        out
    }

    /// Brute-force exact top-k over unmasked `locals` via offline access —
    /// the oracle the tests and the bench verifier compare against.
    pub fn top_k_reference(
        &self,
        q: &[f32],
        k: usize,
        locals: &[u32],
        mask: &HashSet<u32>,
    ) -> Vec<(f64, PointId)> {
        let mut hits: Vec<(f64, PointId)> = locals
            .iter()
            .filter(|&&local| !mask.contains(&self.key_of(local)))
            .map(|&local| (euclidean(q, self.row(local)), PointId(self.key_of(local))))
            .collect();
        hits.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        hits.truncate(k);
        hits
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seal(seq: u64, rows: &[(u32, Vec<f32>)], tombs: &[u32]) -> Segment {
        Segment::build(
            seq,
            rows.to_vec(),
            tombs.to_vec(),
            rows.first().map_or(2, |(_, v)| v.len()),
            SidecarConfig::default(),
            None,
        )
    }

    fn grid_rows(n: u32, d: usize) -> Vec<(u32, Vec<f32>)> {
        (0..n)
            .map(|i| {
                (
                    i * 3, // sparse, non-contiguous user ids
                    (0..d).map(|j| ((i as usize * d + j) % 17) as f32).collect(),
                )
            })
            .collect()
    }

    #[test]
    fn top_k_matches_brute_force_and_prunes() {
        let rows = grid_rows(120, 8);
        let s = seal(1, &rows, &[]);
        let locals: Vec<u32> = (0..rows.len() as u32).collect();
        let mask = HashSet::new();
        let q: Vec<f32> = (0..8).map(|j| (j as f32) * 0.7).collect();
        let got = s.top_k(&q, 5, &locals, &mask, 3);
        let want = s.top_k_reference(&q, 5, &locals, &mask);
        assert_eq!(got.hits, want);
        assert!(got.missing.is_empty());
        assert!(
            got.pruned > 0,
            "sidecar bounds should prune some of 120 candidates"
        );
        assert_eq!(got.fetched + got.pruned, got.considered);
    }

    #[test]
    fn mask_and_live_locals_shadow_rows() {
        let rows = grid_rows(30, 4);
        let s = seal(1, &rows, &[]);
        let q = vec![0.0f32; 4];
        // Mask half the ids (as if the memtable rewrote them)…
        let mask: HashSet<u32> = rows.iter().map(|(id, _)| *id).step_by(2).collect();
        let locals: Vec<u32> = (0..rows.len() as u32).collect();
        let got = s.top_k(&q, 30, &locals, &mask, 3);
        assert!(got.hits.iter().all(|(_, id)| !mask.contains(&id.0)));
        assert_eq!(got.hits.len(), 15);
        // …and drop some locals (as if a newer segment superseded them).
        let fewer: Vec<u32> = (0..10u32).collect();
        let got = s.top_k(&q, 30, &fewer, &HashSet::new(), 3);
        assert_eq!(got.hits.len(), 10);
    }

    #[test]
    fn faulted_segment_stays_exact_modulo_missing() {
        // 150 dims → 6 points per 4KB page → 20 pages, so fault rolls have
        // real pages to land on (one-page segments buffer after one read).
        let rows = grid_rows(120, 150);
        let fault = FaultConfig {
            seed: 13,
            transient_rate: 0.3,
            unreadable_rate: 0.15,
            ..FaultConfig::none()
        };
        let s = Segment::build(
            2,
            rows.clone(),
            vec![],
            150,
            SidecarConfig::default(),
            Some(fault),
        );
        let locals: Vec<u32> = (0..rows.len() as u32).collect();
        let mask = HashSet::new();
        let mut retried = 0;
        for shift in 0..8 {
            let q: Vec<f32> = (0..150).map(|j| (16 - (j % 8) + shift) as f32).collect();
            let got = s.top_k(&q, 6, &locals, &mask, 4);
            retried += got.pages_retried;
            // Every returned hit is exact; missing ids explain any
            // divergence from the oracle.
            let missing: HashSet<u32> = got.missing.iter().map(|id| id.0).collect();
            let oracle: Vec<(f64, PointId)> = s
                .top_k_reference(&q, 6 + missing.len(), &locals, &mask)
                .into_iter()
                .filter(|(_, id)| !missing.contains(&id.0))
                .take(6)
                .collect();
            assert_eq!(got.hits, oracle, "shift {shift}");
        }
        assert!(retried > 0, "transient faults must retry somewhere");
    }

    #[test]
    fn dead_row_attempted_early_is_excluded_by_its_sidecar_bound() {
        // One row per page (1024 dims). Rows 0 and 1 are duplicates sitting
        // on the query, so both carry lb = 0 and row 0 sorts first: it is
        // attempted while the heap is still empty, its page is dead, and the
        // verdict waits. Row 1 then fills the heap at distance 0 — row 0's
        // bound reaches the final d_k, so the lost page cost nothing.
        let rows: Vec<(u32, Vec<f32>)> = [10.0f32, 10.0, 200.0, 300.0]
            .iter()
            .enumerate()
            .map(|(i, &v)| (i as u32 * 3, vec![v; 1024]))
            .collect();
        let locals: Vec<u32> = (0..4).collect();
        let q = [10.0f32; 1024];
        // With k = 4 the heap never fills (one row is dead), so nothing can
        // be excluded and `missing` names exactly the dead rows.
        let s = (0..u64::MAX)
            .find_map(|seed| {
                let fault = FaultConfig {
                    seed,
                    unreadable_rate: 0.3,
                    ..FaultConfig::none()
                };
                let s = Segment::build(
                    7,
                    rows.clone(),
                    vec![],
                    1024,
                    SidecarConfig::default(),
                    Some(fault),
                );
                let dead = s.top_k(&q, 4, &locals, &HashSet::new(), 3).missing;
                (dead == [PointId(0)]).then_some(s)
            })
            .expect("some seed kills exactly row 0's page");
        let got = s.top_k(&q, 1, &locals, &HashSet::new(), 3);
        assert_eq!(got.hits, vec![(0.0, PointId(3))]);
        assert!(
            got.missing.is_empty(),
            "a bound-excluded loss is not missing"
        );
        assert_eq!(got.fault_excluded, 1);
        assert_eq!(got.pruned, 2);
    }

    /// The blocked sidecar's table-driven bounds must be bit-identical to
    /// the scalar `GlobalScheme::bounds` over the reconstructed row-major
    /// words — the segment-level leg of the scan equivalence battery.
    #[test]
    fn blocked_sidecar_bounds_match_scalar_scheme() {
        let rows = grid_rows(90, 7); // ragged final block (90 = 64 + 26)
        let s = seal(5, &rows, &[]);
        let q: Vec<f32> = (0..7).map(|j| j as f32 * 1.3 - 2.0).collect();
        let intervals = s.scheme.scan_intervals().expect("global scheme");
        let tables = QueryTables::build(&q, &intervals);
        let mut words = Vec::new();
        for slot in 0..s.len() {
            s.codes.gather_point_words(slot, &mut words);
            let want = s.scheme.bounds(&q, &words);
            let got = tables.lane_bounds(s.codes.lane_codes(slot));
            assert_eq!(got.lb.to_bits(), want.lb.to_bits(), "slot {slot} lb");
            assert_eq!(got.ub.to_bits(), want.ub.to_bits(), "slot {slot} ub");
        }
    }

    #[test]
    fn empty_and_tombstone_only_segments_work() {
        let s = seal(3, &[], &[4, 9]);
        assert!(s.is_empty());
        assert!(s.is_tombstoned(4));
        assert!(!s.is_tombstoned(5));
        let got = s.top_k(&[0.0, 0.0], 5, &[], &HashSet::new(), 3);
        assert!(got.hits.is_empty());
        assert_eq!(s.store().num_pages(), 0);
    }

    #[test]
    fn segment_broker_serves_repeat_queries_from_hot_pages() {
        let rows = grid_rows(120, 150); // 6 points per page → 20 pages
        let s = seal(6, &rows, &[]);
        let locals: Vec<u32> = (0..rows.len() as u32).collect();
        let q: Vec<f32> = (0..150).map(|j| (j % 8) as f32).collect();
        let first = s.top_k(&q, 6, &locals, &HashSet::new(), 3);
        let physical = s.file().stats().pages_read();
        assert!(physical > 0);
        let second = s.top_k(&q, 6, &locals, &HashSet::new(), 3);
        assert_eq!(first.hits, second.hits, "broker must not change results");
        assert_eq!(
            s.file().stats().pages_read(),
            physical,
            "the repeat query must be served from the segment's hot buffer"
        );
        assert!(s.file().stats().hot_hits() > 0);
    }

    #[test]
    fn scrub_repairs_a_faulted_segment() {
        use hc_storage::scrub::Scrubber;
        let rows = grid_rows(120, 150); // 20 pages
        let fault = FaultConfig {
            seed: 7,
            unreadable_rate: 0.5,
            ..FaultConfig::none()
        };
        let s = Segment::build(4, rows, vec![], 150, SidecarConfig::default(), Some(fault));
        let report = Scrubber::default().run(s.store().as_ref());
        assert!(report.pages_bad > 0, "seed 7 @ 0.5 must kill pages");
        assert!(report.is_clean(), "all dead pages repair from the replica");
        // Post-scrub, the full refine path reads everything it needs.
        let locals: Vec<u32> = (0..s.len() as u32).collect();
        let got = s.top_k(&[0.0; 150], 10, &locals, &HashSet::new(), 3);
        assert!(got.missing.is_empty(), "repaired segment must not degrade");
    }
}
