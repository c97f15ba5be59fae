//! Point-level caches: what Algorithm 1's phase 2 consults for every
//! candidate id (paper Fig. 3, step 2.1).
//!
//! Three information levels:
//! * [`NoCache`] — the NO-CACHE baseline: every candidate goes to disk.
//! * [`ExactPointCache`] — the EXACT baseline: raw `f32` vectors; a hit
//!   yields the exact distance but each item costs `d·4` bytes.
//! * [`CompactPointCache`] — the paper's approach: bit-packed approximate
//!   points under any [`ApproxScheme`]; a hit yields distance *bounds* but an
//!   item costs only `⌈d·τ/64⌉` words, so the same budget covers `L_value/τ`
//!   times more points (Theorem 1).
//!
//! Each cache supports the static **HFF** policy (constructed full from the
//! workload's frequency ranking, immutable at query time) and the dynamic
//! **LRU** policy (admit on fetch, evict least-recently-used).
//!
//! The compact cache has one layout and two ways to read it: a slot is its
//! point's row-major packed words; `lookup` bounds a hit with the scalar
//! `ApproxScheme::bounds` (the reference), `lookup_batch` fills the thread's
//! per-query tables once and walks the hits' rows through them together
//! ([`crate::tables::bound_rows`], shared with the node caches) — same
//! residency, recency and counters, bit-identical bounds.

use std::collections::HashMap;
use std::sync::Arc;

use hc_core::bounds::DistBounds;
use hc_core::dataset::{Dataset, PointId};
use hc_core::distance::euclidean;
use hc_core::scan::{QueryTables, Simd};
use hc_core::scheme::ApproxScheme;
use hc_obs::MetricsRegistry;

use crate::lru::{LruList, SlotKeys};
use crate::obs::CacheObs;
use crate::tables::{bound_rows, with_query_tables};

/// Cache replacement / placement policy (paper §2.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CachePolicy {
    /// Highest-frequency-first: static content fixed offline from the query
    /// workload \[25\].
    Hff,
    /// Least-recently-used: dynamic, admits points as they are fetched.
    Lru,
}

impl std::fmt::Display for CachePolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            CachePolicy::Hff => "HFF",
            CachePolicy::Lru => "LRU",
        })
    }
}

/// Result of a cache probe for one candidate.
#[derive(Debug, Clone, PartialEq)]
pub enum CacheLookup {
    /// Not cached: Algorithm 1 assigns the unknown bounds `(0, +∞)`.
    Miss,
    /// Exact cache hit: the true distance, no disk I/O needed at all.
    Exact(f64),
    /// Compact cache hit: sound lower/upper bounds from the τ-bit codes.
    Bounds(DistBounds),
}

impl CacheLookup {
    /// The distance knowledge this probe yields, as bounds: exact hits
    /// collapse to a zero-width interval, misses to `(0, +∞)`. The
    /// degradation path uses this to decide whether a cached bound can
    /// substitute for an unreadable candidate (DESIGN.md §10).
    pub fn as_bounds(&self) -> DistBounds {
        match *self {
            CacheLookup::Miss => DistBounds::UNKNOWN,
            CacheLookup::Exact(d) => DistBounds { lb: d, ub: d },
            CacheLookup::Bounds(b) => b,
        }
    }
}

/// The interface Algorithm 1 consumes.
pub trait PointCache {
    /// Probe the cache for candidate `id` against query `q`.
    fn lookup(&mut self, q: &[f32], id: PointId) -> CacheLookup;

    /// Offer a point that refinement just fetched from disk. Dynamic
    /// policies admit (possibly evicting); static policies ignore.
    fn admit(&mut self, id: PointId, point: &[f32]);

    /// Whether `id` is currently resident (no recency side effects).
    fn contains(&self, id: PointId) -> bool;

    /// Payload bytes currently used.
    fn used_bytes(&self) -> usize;

    /// Configured byte budget `CS`.
    fn capacity_bytes(&self) -> usize;

    /// Label for experiment tables, e.g. `"EXACT/HFF"`.
    fn label(&self) -> String;

    /// Register this cache's hit/miss/insertion/eviction counters and
    /// occupancy gauges in `registry`, labeled with [`PointCache::label`].
    /// The default is a no-op (e.g. [`NoCache`] has nothing to report).
    fn bind_obs(&mut self, _registry: &MetricsRegistry) {}

    /// Probe a whole candidate set at once: `out[i]` answers `ids[i]`.
    ///
    /// Semantically identical to calling [`PointCache::lookup`] per id in
    /// order (including LRU recency effects and hit/miss accounting) — the
    /// default does exactly that — but batch-aware caches override it to
    /// amortize per-query work: the compact cache fills the per-query
    /// bucket-distance tables once (`crate::tables`) and bounds every
    /// resident candidate with `d` table reads.
    fn lookup_batch(&mut self, q: &[f32], ids: &[PointId], out: &mut Vec<CacheLookup>) {
        out.clear();
        for &id in ids {
            out.push(self.lookup(q, id));
        }
    }
}

/// The NO-CACHE baseline.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoCache;

impl PointCache for NoCache {
    fn lookup(&mut self, _q: &[f32], _id: PointId) -> CacheLookup {
        CacheLookup::Miss
    }

    fn admit(&mut self, _id: PointId, _point: &[f32]) {}

    fn contains(&self, _id: PointId) -> bool {
        false
    }

    fn used_bytes(&self) -> usize {
        0
    }

    fn capacity_bytes(&self) -> usize {
        0
    }

    fn label(&self) -> String {
        "NO-CACHE".to_owned()
    }
}

/// Outcome of a dynamic-cache slot allocation.
struct Alloc {
    slot: u32,
    evicted: bool,
}

/// Slot-allocated storage bookkeeping shared by both cache kinds.
struct Slots {
    map: HashMap<PointId, u32>,
    ids: SlotKeys<PointId>,
    lru: Option<LruList>,
    max_items: usize,
}

impl Slots {
    fn new(max_items: usize, policy: CachePolicy) -> Self {
        Self {
            map: HashMap::with_capacity(max_items.min(1 << 20)),
            ids: SlotKeys::new(),
            lru: match policy {
                CachePolicy::Hff => None,
                CachePolicy::Lru => Some(LruList::new()),
            },
            max_items,
        }
    }

    fn get(&mut self, id: PointId) -> Option<u32> {
        let slot = *self.map.get(&id)?;
        if let Some(lru) = &mut self.lru {
            lru.touch(slot as usize);
        }
        Some(slot)
    }

    /// Allocate a slot for `id`, evicting if needed. Returns `None` when the
    /// cache is static (HFF) or has zero capacity; [`Alloc::evicted`] tells
    /// the caller whether a victim was displaced.
    fn allocate(&mut self, id: PointId) -> Option<Alloc> {
        if self.max_items == 0 || self.map.contains_key(&id) {
            return None;
        }
        let lru = self.lru.as_mut()?; // static caches never admit
        let evicted = self.map.len() >= self.max_items;
        if evicted {
            // The victim's slot is the one `assign` hands out next.
            let victim = lru.pop_back().expect("full cache has entries") as u32;
            self.map.remove(&self.ids.key(victim));
            self.ids.release(victim);
        }
        let slot = self.ids.assign(id);
        self.map.insert(id, slot);
        lru.push_front(slot as usize);
        Some(Alloc { slot, evicted })
    }

    /// Static fill used by HFF construction (bypasses the LRU-only guard).
    fn fill(&mut self, id: PointId) -> u32 {
        debug_assert!(self.lru.is_none(), "fill is for static caches");
        debug_assert!(self.map.len() < self.max_items);
        let slot = self.ids.assign(id);
        self.map.insert(id, slot);
        slot
    }

    fn len(&self) -> usize {
        self.map.len()
    }
}

/// EXACT cache: raw `f32` points.
pub struct ExactPointCache {
    slots: Slots,
    data: Vec<f32>,
    dim: usize,
    capacity_bytes: usize,
    policy: CachePolicy,
    obs: CacheObs,
}

impl ExactPointCache {
    /// Bytes per cached item.
    pub fn bytes_per_point(dim: usize) -> usize {
        dim * std::mem::size_of::<f32>()
    }

    /// Static HFF cache: fill with the ranking's most frequent points until
    /// the budget is exhausted.
    pub fn hff(dataset: &Dataset, ranking: &[PointId], capacity_bytes: usize) -> Self {
        let dim = dataset.dim();
        let per = Self::bytes_per_point(dim);
        let max_items = (capacity_bytes / per).min(dataset.len());
        let mut slots = Slots::new(max_items, CachePolicy::Hff);
        let mut data = Vec::with_capacity(max_items * dim);
        for &id in ranking.iter().take(max_items) {
            slots.fill(id);
            data.extend_from_slice(dataset.point(id));
        }
        Self {
            slots,
            data,
            dim,
            capacity_bytes,
            policy: CachePolicy::Hff,
            obs: CacheObs::noop(),
        }
    }

    /// Dynamic LRU cache, initially empty.
    pub fn lru(dim: usize, capacity_bytes: usize) -> Self {
        let per = Self::bytes_per_point(dim);
        let max_items = capacity_bytes / per;
        Self {
            slots: Slots::new(max_items, CachePolicy::Lru),
            data: Vec::new(),
            dim,
            capacity_bytes,
            policy: CachePolicy::Lru,
            obs: CacheObs::noop(),
        }
    }

    /// Number of resident points.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    pub fn is_empty(&self) -> bool {
        self.slots.len() == 0
    }

    fn point(&self, slot: u32) -> &[f32] {
        let s = slot as usize;
        &self.data[s * self.dim..(s + 1) * self.dim]
    }
}

impl PointCache for ExactPointCache {
    fn lookup(&mut self, q: &[f32], id: PointId) -> CacheLookup {
        match self.slots.get(id) {
            Some(slot) => {
                self.obs.hits.inc();
                CacheLookup::Exact(euclidean(q, self.point(slot)))
            }
            None => {
                self.obs.misses.inc();
                CacheLookup::Miss
            }
        }
    }

    fn admit(&mut self, id: PointId, point: &[f32]) {
        debug_assert_eq!(point.len(), self.dim);
        if let Some(alloc) = self.slots.allocate(id) {
            let s = alloc.slot as usize;
            if self.data.len() < (s + 1) * self.dim {
                self.data.resize((s + 1) * self.dim, 0.0);
            }
            self.data[s * self.dim..(s + 1) * self.dim].copy_from_slice(point);
            self.obs.insertions.inc();
            if alloc.evicted {
                self.obs.evictions.inc();
            }
            self.obs.used_bytes.set(self.used_bytes() as f64);
        }
    }

    fn contains(&self, id: PointId) -> bool {
        self.slots.map.contains_key(&id)
    }

    fn used_bytes(&self) -> usize {
        self.slots.len() * Self::bytes_per_point(self.dim)
    }

    fn capacity_bytes(&self) -> usize {
        self.capacity_bytes
    }

    fn label(&self) -> String {
        format!("EXACT/{}", self.policy)
    }

    fn bind_obs(&mut self, registry: &MetricsRegistry) {
        self.obs = CacheObs::bind(registry, &self.label());
        self.obs.used_bytes.set(self.used_bytes() as f64);
        self.obs.capacity_bytes.set(self.capacity_bytes as f64);
    }
}

/// Compact cache of bit-packed approximate points under a scheme.
///
/// One row-major slab: slot `s` owns the `wpp = ⌈d·τ/64⌉` contiguous words
/// `words[s·wpp .. (s+1)·wpp]` — the paper's per-point item (§3.2, footnote
/// 5), probed by id and written one admitted point at a time, which is the
/// traffic a point cache sees. (The dimension-major layout of
/// `hc_core::scan` serves sequential whole-list scans; DESIGN.md §15 has the
/// measurements that put each layout where it is.)
pub struct CompactPointCache {
    slots: Slots,
    scheme: Arc<dyn ApproxScheme>,
    words: Vec<u64>,
    /// Words per slot: `scheme.words_per_point()`.
    wpp: usize,
    capacity_bytes: usize,
    policy: CachePolicy,
    /// Encode buffer of [`CompactPointCache::write_slot`].
    scratch: Vec<u64>,
    /// `(slot, output position)` of each hit of the probe in progress.
    hits: Vec<(u32, u32)>,
    obs: CacheObs,
}

impl CompactPointCache {
    fn new(
        scheme: Arc<dyn ApproxScheme>,
        max_items: usize,
        capacity_bytes: usize,
        policy: CachePolicy,
    ) -> Self {
        Self {
            slots: Slots::new(max_items, policy),
            words: Vec::new(),
            wpp: scheme.words_per_point(),
            scheme,
            capacity_bytes,
            policy,
            scratch: Vec::new(),
            hits: Vec::new(),
            obs: CacheObs::noop(),
        }
    }

    /// Static HFF cache filled from the frequency ranking.
    pub fn hff(
        dataset: &Dataset,
        ranking: &[PointId],
        capacity_bytes: usize,
        scheme: Arc<dyn ApproxScheme>,
    ) -> Self {
        assert_eq!(scheme.dim(), dataset.dim());
        let max_items = (capacity_bytes / scheme.bytes_per_point()).min(dataset.len());
        let mut cache = Self::new(scheme, max_items, capacity_bytes, CachePolicy::Hff);
        for &id in ranking.iter().take(max_items) {
            let slot = cache.slots.fill(id);
            cache.write_slot(slot, dataset.point(id));
        }
        cache
    }

    /// Dynamic LRU cache, initially empty.
    pub fn lru(scheme: Arc<dyn ApproxScheme>, capacity_bytes: usize) -> Self {
        let max_items = capacity_bytes / scheme.bytes_per_point();
        Self::new(scheme, max_items, capacity_bytes, CachePolicy::Lru)
    }

    /// Encode `point` into `slot`'s row (slots are reused on eviction).
    fn write_slot(&mut self, slot: u32, point: &[f32]) {
        let at = slot as usize * self.wpp;
        self.scratch.clear();
        self.scheme.encode_into(point, &mut self.scratch);
        if self.words.len() < at + self.wpp {
            self.words.resize(at + self.wpp, 0);
        }
        self.words[at..at + self.wpp].copy_from_slice(&self.scratch);
    }

    /// Probe the ids of `probes` in order, then bound the hits together:
    /// `probes` yields `(position, id)` and `out[position]`, which the caller
    /// has set to [`CacheLookup::Miss`], becomes the hit's bounds. The first
    /// pass does what per-id lookups in that order do to the cache —
    /// residency, LRU touch — and counts hits and misses once for the batch;
    /// the second hands the hits' rows to [`bound_rows`]: `tables` is what
    /// [`with_query_tables`] yields for `(scheme, q)`, or `None` for the
    /// scalar [`ApproxScheme::bounds`] reference.
    fn probe_each(
        &mut self,
        q: &[f32],
        tables: Option<&QueryTables>,
        probes: impl Iterator<Item = (usize, PointId)>,
        out: &mut [CacheLookup],
    ) {
        self.hits.clear();
        let mut misses = 0;
        for (at, id) in probes {
            debug_assert_eq!(out[at], CacheLookup::Miss);
            match self.slots.get(id) {
                Some(slot) => self.hits.push((slot, at as u32)),
                None => misses += 1,
            }
        }
        self.obs.hits.add(self.hits.len() as u64);
        self.obs.misses.add(misses);
        let (words, wpp) = (&self.words, self.wpp);
        let rows = self.hits.iter().map(|&(slot, _)| {
            let at = slot as usize * wpp;
            &words[at..at + wpp]
        });
        let mut answered = self.hits.iter();
        bound_rows(self.scheme.as_ref(), tables, q, rows, |bounds| {
            let &(_, at) = answered.next().expect("one bound per hit");
            out[at as usize] = CacheLookup::Bounds(bounds);
        });
    }

    /// Number of resident points.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    pub fn is_empty(&self) -> bool {
        self.slots.len() == 0
    }

    /// The coding scheme in use.
    pub fn scheme(&self) -> &Arc<dyn ApproxScheme> {
        &self.scheme
    }

    /// Like [`PointCache::bind_obs`] but under an explicit label instead of
    /// [`PointCache::label`]. Shard-per-mutex wrappers use this to keep each
    /// shard's series separate (e.g. `"COMPACT(τ=8)/LRU/shard3"`).
    pub fn bind_obs_as(&mut self, registry: &MetricsRegistry, label: &str) {
        self.obs = CacheObs::bind(registry, label);
        self.obs.used_bytes.set(self.used_bytes() as f64);
        self.obs.capacity_bytes.set(self.capacity_bytes as f64);
    }

    /// Batch probe through tables the caller already holds — the sharded
    /// wrapper takes them from [`with_query_tables`] once per query and
    /// hands them to every shard it locks, each with its share of the
    /// positions. `out[at]` answers `ids[at]` for every `at` of `positions`
    /// and must hold [`CacheLookup::Miss`] on entry; recency and accounting
    /// effects are those of per-id [`PointCache::lookup`] calls in
    /// `positions` order, and so is every bound, bit for bit.
    pub fn lookup_batch_with_tables(
        &mut self,
        q: &[f32],
        tables: Option<&QueryTables>,
        ids: &[PointId],
        positions: &[u32],
        out: &mut [CacheLookup],
    ) {
        let probes = positions.iter().map(|&at| (at as usize, ids[at as usize]));
        self.probe_each(q, tables, probes, out);
    }
}

impl PointCache for CompactPointCache {
    fn lookup(&mut self, q: &[f32], id: PointId) -> CacheLookup {
        let mut looked = [CacheLookup::Miss];
        self.probe_each(q, None, std::iter::once((0, id)), &mut looked);
        let [looked] = looked;
        looked
    }

    fn admit(&mut self, id: PointId, point: &[f32]) {
        if let Some(alloc) = self.slots.allocate(id) {
            self.write_slot(alloc.slot, point);
            self.obs.insertions.inc();
            if alloc.evicted {
                self.obs.evictions.inc();
            }
            self.obs.used_bytes.set(self.used_bytes() as f64);
        }
    }

    fn contains(&self, id: PointId) -> bool {
        self.slots.map.contains_key(&id)
    }

    fn lookup_batch(&mut self, q: &[f32], ids: &[PointId], out: &mut Vec<CacheLookup>) {
        out.clear();
        out.resize(ids.len(), CacheLookup::Miss);
        let scheme = Arc::clone(&self.scheme);
        with_query_tables(&scheme, q, Simd::Auto, |tables| {
            self.probe_each(q, tables, ids.iter().copied().enumerate(), out)
        });
    }

    fn used_bytes(&self) -> usize {
        self.slots.len() * self.scheme.bytes_per_point()
    }

    fn capacity_bytes(&self) -> usize {
        self.capacity_bytes
    }

    fn label(&self) -> String {
        format!("COMPACT(τ={})/{}", self.scheme.tau(), self.policy)
    }

    fn bind_obs(&mut self, registry: &MetricsRegistry) {
        self.bind_obs_as(registry, &self.label());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hc_core::bounds::BoundsAcc;
    use hc_core::codes::{pack_codes, words_per_point, CodeIter};
    use hc_core::histogram::classic::equi_width;
    use hc_core::histogram::multidim::MultiDimBuckets;
    use hc_core::quantize::Quantizer;
    use hc_core::scan::ScanIntervals;
    use hc_core::scheme::{GlobalScheme, IndividualScheme, MultiDimScheme};

    fn dataset() -> Dataset {
        Dataset::from_rows(
            &(0..20)
                .map(|i| vec![i as f32, (20 - i) as f32])
                .collect::<Vec<_>>(),
        )
    }

    fn scheme(ds: &Dataset, b: u32) -> Arc<dyn ApproxScheme> {
        let quant = Quantizer::new(0.0, 21.0, 64);
        Arc::new(GlobalScheme::new(equi_width(64, b), quant, ds.dim()))
    }

    #[test]
    fn hff_exact_fills_ranking_prefix() {
        let ds = dataset();
        let ranking: Vec<PointId> = (0u32..20).map(PointId).collect();
        // Budget for exactly 3 points (2 dims × 4 bytes = 8 bytes each).
        let mut c = ExactPointCache::hff(&ds, &ranking, 24);
        assert_eq!(c.len(), 3);
        assert!(matches!(c.lookup(&[0.0, 20.0], PointId(0)), CacheLookup::Exact(d) if d < 1e-9));
        assert_eq!(c.lookup(&[0.0, 0.0], PointId(5)), CacheLookup::Miss);
        assert_eq!(c.used_bytes(), 24);
    }

    #[test]
    fn hff_is_immutable_at_runtime() {
        let ds = dataset();
        let mut c = ExactPointCache::hff(&ds, &[PointId(0)], 8);
        c.admit(PointId(5), ds.point(PointId(5)));
        assert!(!c.contains(PointId(5)), "HFF must ignore admissions");
    }

    #[test]
    fn lru_exact_admits_and_evicts() {
        let ds = dataset();
        let mut c = ExactPointCache::lru(2, 16); // 2 points
        c.admit(PointId(1), ds.point(PointId(1)));
        c.admit(PointId(2), ds.point(PointId(2)));
        // Touch 1 so 2 becomes the LRU victim.
        let _ = c.lookup(&[0.0, 0.0], PointId(1));
        c.admit(PointId(3), ds.point(PointId(3)));
        assert!(c.contains(PointId(1)));
        assert!(!c.contains(PointId(2)), "LRU victim should be evicted");
        assert!(c.contains(PointId(3)));
    }

    #[test]
    fn compact_holds_more_items_than_exact_at_same_budget() {
        let ds = Dataset::from_rows(&vec![vec![0.5f32; 64]; 100]);
        let quant = Quantizer::new(0.0, 1.0, 64);
        let s: Arc<dyn ApproxScheme> = Arc::new(GlobalScheme::new(equi_width(64, 16), quant, 64));
        let ranking: Vec<PointId> = (0u32..100).map(PointId).collect();
        let budget = 64 * 4 * 10; // ten exact points
        let exact = ExactPointCache::hff(&ds, &ranking, budget);
        let compact = CompactPointCache::hff(&ds, &ranking, budget, s);
        assert_eq!(exact.len(), 10);
        // τ=4, d=64 → 256 bits = 4 words = 32 bytes/point → 80 items.
        assert!(
            compact.len() > 4 * exact.len(),
            "{} vs {}",
            compact.len(),
            exact.len()
        );
    }

    #[test]
    fn compact_lookup_bounds_are_sound() {
        let ds = dataset();
        let s = scheme(&ds, 16);
        let ranking: Vec<PointId> = (0u32..20).map(PointId).collect();
        let mut c = CompactPointCache::hff(&ds, &ranking, 1 << 20, s);
        let q = [3.3f32, 17.2];
        for (id, p) in ds.iter() {
            match c.lookup(&q, id) {
                CacheLookup::Bounds(b) => {
                    let d = euclidean(&q, p);
                    assert!(b.contains(d), "{id}: {d} outside [{}, {}]", b.lb, b.ub);
                }
                other => panic!("expected bounds, got {other:?}"),
            }
        }
    }

    #[test]
    fn compact_lru_round_trips_admissions() {
        let ds = dataset();
        let s = scheme(&ds, 8);
        let per = s.bytes_per_point();
        let mut c = CompactPointCache::lru(s, per * 2);
        c.admit(PointId(4), ds.point(PointId(4)));
        assert!(c.contains(PointId(4)));
        match c.lookup(&[4.0, 16.0], PointId(4)) {
            CacheLookup::Bounds(b) => assert!(b.lb <= 1e-6),
            other => panic!("{other:?}"),
        }
        // Fill beyond capacity; first admission unused since, so it evicts.
        c.admit(PointId(5), ds.point(PointId(5)));
        c.admit(PointId(6), ds.point(PointId(6)));
        assert!(!c.contains(PointId(4)) || !c.contains(PointId(5)));
        assert!(c.contains(PointId(6)));
        assert!(c.used_bytes() <= c.capacity_bytes());
    }

    #[test]
    fn zero_capacity_caches_never_hit() {
        let ds = dataset();
        let mut e = ExactPointCache::lru(2, 0);
        e.admit(PointId(0), ds.point(PointId(0)));
        assert_eq!(e.lookup(&[0.0, 0.0], PointId(0)), CacheLookup::Miss);
        let mut n = NoCache;
        assert_eq!(n.lookup(&[0.0, 0.0], PointId(0)), CacheLookup::Miss);
    }

    #[test]
    fn bound_cache_reports_hits_misses_and_evictions() {
        let ds = dataset();
        let registry = MetricsRegistry::new();
        let mut c = ExactPointCache::lru(2, 16); // 2 points
        c.bind_obs(&registry);
        c.admit(PointId(1), ds.point(PointId(1)));
        c.admit(PointId(2), ds.point(PointId(2)));
        let _ = c.lookup(&[0.0, 0.0], PointId(1)); // hit
        let _ = c.lookup(&[0.0, 0.0], PointId(9)); // miss
        c.admit(PointId(3), ds.point(PointId(3))); // evicts 2
        let snap = registry.snapshot();
        let get = |name: &str| {
            snap.counters
                .iter()
                .find(|(id, _)| id.name == name && id.label.as_deref() == Some("EXACT/LRU"))
                .map(|(_, v)| *v)
        };
        assert_eq!(get("cache.hits"), Some(1));
        assert_eq!(get("cache.misses"), Some(1));
        assert_eq!(get("cache.insertions"), Some(3));
        assert_eq!(get("cache.evictions"), Some(1));
        assert_eq!(snap.gauge("cache.used_bytes"), Some(16.0));
        assert_eq!(snap.gauge("cache.capacity_bytes"), Some(16.0));
    }

    #[test]
    fn labels_identify_configuration() {
        let ds = dataset();
        let e = ExactPointCache::hff(&ds, &[], 0);
        assert_eq!(e.label(), "EXACT/HFF");
        let c = CompactPointCache::lru(scheme(&ds, 16), 128);
        assert!(c.label().starts_with("COMPACT(τ=4)/LRU"));
    }

    fn assert_lookups_bit_identical(a: &CacheLookup, b: &CacheLookup, ctx: &str) {
        match (a, b) {
            (CacheLookup::Miss, CacheLookup::Miss) => {}
            (CacheLookup::Bounds(x), CacheLookup::Bounds(y)) => {
                assert_eq!(x.lb.to_bits(), y.lb.to_bits(), "{ctx}: lb");
                assert_eq!(x.ub.to_bits(), y.ub.to_bits(), "{ctx}: ub");
            }
            other => panic!("{ctx}: mismatched lookups {other:?}"),
        }
    }

    /// A shared-table scheme packing its few buckets at a freely chosen
    /// code width — real histograms tie τ to the bucket count, which puts
    /// τ = 32 out of reach.
    struct WideScheme {
        d: usize,
        tau: u32,
        real: Vec<(f32, f32)>,
    }

    impl ApproxScheme for WideScheme {
        fn dim(&self) -> usize {
            self.d
        }
        fn tau(&self) -> u32 {
            self.tau
        }
        fn words_per_point(&self) -> usize {
            words_per_point(self.d, self.tau)
        }
        fn encode_into(&self, point: &[f32], out: &mut Vec<u64>) {
            let code = |v: f32| {
                let b = self.real.iter().position(|&(_, hi)| v <= hi);
                b.unwrap_or(self.real.len() - 1) as u32
            };
            pack_codes(point.iter().map(|&v| code(v)), self.tau, out);
        }
        fn bounds(&self, q: &[f32], words: &[u64]) -> DistBounds {
            let mut acc = BoundsAcc::new();
            for (j, code) in CodeIter::new(words, self.tau, self.d).enumerate() {
                let (lo, hi) = self.real[code as usize];
                acc.add(q[j], lo, hi);
            }
            acc.finish()
        }
        fn error_norm_sq(&self, _words: &[u64]) -> f64 {
            unreachable!("a point cache never asks")
        }
        fn scan_intervals(&self) -> Option<ScanIntervals<'_>> {
            Some(ScanIntervals::Shared(&self.real))
        }
    }

    /// Schemes over `D`-dimensional points with values in `[0, 21]`: global
    /// histograms at τ ∈ {1, 5, 8, 13}, free-width tables up to τ = 32, a
    /// ragged individual scheme, and mHC-R (no tables: the batch path must
    /// fall back to `scheme.bounds`). `D = 7` makes τ = 5 and 13 straddle
    /// word boundaries and leaves a row's last word partly used.
    fn scheme_families() -> Vec<(String, Arc<dyn ApproxScheme>)> {
        const D: usize = 7;
        let n_dom = 1u32 << 13;
        let mut out: Vec<(String, Arc<dyn ApproxScheme>)> = Vec::new();
        for tau in [1u32, 5, 8, 13] {
            let quant = Quantizer::new(0.0, 21.0, n_dom);
            let s = GlobalScheme::new(equi_width(n_dom, 1 << tau), quant, D);
            assert_eq!(s.tau(), tau);
            out.push((format!("global tau={tau}"), Arc::new(s)));
        }
        for tau in [1u32, 5, 8, 13, 32] {
            let nb = 1usize << tau.min(5);
            let real = (0..nb)
                .map(|b| {
                    (
                        b as f32 * 21.0 / nb as f32,
                        (b + 1) as f32 * 21.0 / nb as f32,
                    )
                })
                .collect();
            out.push((
                format!("wide tau={tau}"),
                Arc::new(WideScheme { d: D, tau, real }),
            ));
        }
        let (hists, quants) = (0..D)
            .map(|j| {
                let quant = Quantizer::new(-1.0 - j as f32, 22.0, n_dom);
                (equi_width(n_dom, 2 + (j as u32 % 5) * 3), quant)
            })
            .unzip();
        out.push((
            "individual ragged".to_owned(),
            Arc::new(IndividualScheme::new(hists, quants)),
        ));
        let rects: Vec<(Vec<f32>, Vec<f32>)> = (0..3)
            .map(|r| {
                let (mut lo, mut hi) = (vec![0.0f32; D], vec![21.0f32; D]);
                (lo[0], hi[0]) = (r as f32 * 7.0, r as f32 * 7.0 + 7.0);
                (lo, hi)
            })
            .collect();
        let multidim = MultiDimScheme::new(MultiDimBuckets::from_rects(&rects));
        assert!(multidim.scan_intervals().is_none());
        out.push(("multidim".to_owned(), Arc::new(multidim)));
        out
    }

    fn hits_and_misses(registry: &MetricsRegistry) -> (u64, u64) {
        let snap = registry.snapshot();
        (
            snap.counter_sum("cache.hits"),
            snap.counter_sum("cache.misses"),
        )
    }

    /// The batch path ≡ per-id `lookup` ≡ `scheme.bounds`, bit for bit, on
    /// two caches given the same history — one only ever probed by batch,
    /// one only per id — under LRU (admissions with evictions, then the
    /// same victims afterwards) and HFF, with equal hit/miss counters.
    #[test]
    fn batch_path_matches_per_id_lookup_and_scheme_bounds() {
        let n = 24u32;
        let ids: Vec<PointId> = (0..n).map(PointId).collect();
        for (ctx, s) in scheme_families() {
            let d = s.dim();
            let rows: Vec<Vec<f32>> = (0..n as usize)
                .map(|i| {
                    (0..d)
                        .map(|j| ((i * 131 + j * 37) % 210) as f32 * 0.1)
                        .collect()
                })
                .collect();
            let ds = Dataset::from_rows(&rows);
            let per = s.bytes_per_point();
            let make = |policy: CachePolicy| -> CompactPointCache {
                match policy {
                    CachePolicy::Hff => CompactPointCache::hff(&ds, &ids, per * 9, Arc::clone(&s)),
                    CachePolicy::Lru => {
                        let mut c = CompactPointCache::lru(Arc::clone(&s), per * 9);
                        // 17 admissions into 9 slots: evictions reuse rows.
                        for i in [0u32, 3, 5, 7, 9, 11, 13, 15, 17, 19, 2, 4, 0, 3, 23, 21, 1] {
                            c.admit(PointId(i), ds.point(PointId(i)));
                        }
                        c
                    }
                }
            };
            for policy in [CachePolicy::Lru, CachePolicy::Hff] {
                let (reg_b, reg_s) = (MetricsRegistry::new(), MetricsRegistry::new());
                let (mut batch, mut seq) = (make(policy), make(policy));
                batch.bind_obs(&reg_b);
                seq.bind_obs(&reg_s);
                // Queries go a, b, a: the third batch finds the thread's
                // table memo holding another query's tables.
                let probes: [Vec<PointId>; 3] = [
                    ids.iter().rev().copied().collect(),
                    ids.iter().step_by(2).copied().collect(),
                    ids.clone(),
                ];
                for (round, probe) in probes.iter().enumerate() {
                    let q: Vec<f32> = (0..d)
                        .map(|j| ((j * 53 + round % 2 * 7) % 21) as f32)
                        .collect();
                    let mut got = Vec::new();
                    batch.lookup_batch(&q, probe, &mut got);
                    assert_eq!(got.len(), probe.len());
                    for (&id, got) in probe.iter().zip(&got) {
                        let ctx = format!("{ctx} {policy} round {round} {id}");
                        let want = seq.lookup(&q, id);
                        assert_lookups_bit_identical(got, &want, &ctx);
                        if let CacheLookup::Bounds(b) = got {
                            let reference = s.bounds(&q, &s.encode(ds.point(id)));
                            assert_eq!(b.lb.to_bits(), reference.lb.to_bits(), "{ctx}: lb");
                            assert_eq!(b.ub.to_bits(), reference.ub.to_bits(), "{ctx}: ub");
                        }
                    }
                    assert_eq!(hits_and_misses(&reg_b), hits_and_misses(&reg_s), "{ctx}");
                    // Same recency after the probes ⇒ same victims.
                    let newcomer = PointId((6 + 2 * round as u32) % n);
                    batch.admit(newcomer, ds.point(newcomer));
                    seq.admit(newcomer, ds.point(newcomer));
                    for &id in &ids {
                        assert_eq!(batch.contains(id), seq.contains(id), "{ctx} {policy}: {id}");
                    }
                }
                let (hits, misses) = hits_and_misses(&reg_b);
                assert!(hits > 0 && misses > 0, "{ctx} {policy}: {hits}/{misses}");
            }
        }
    }

    /// `lookup_batch` must be observably identical to per-id `lookup`s in
    /// order — including LRU recency side effects that decide who gets
    /// evicted next.
    #[test]
    fn lookup_batch_matches_sequential_semantics() {
        let ds = dataset();
        let s = scheme(&ds, 16);
        let per = s.bytes_per_point();
        let mut batch = CompactPointCache::lru(Arc::clone(&s), per * 3);
        let mut seq = CompactPointCache::lru(Arc::clone(&s), per * 3);
        let q = [1.0f32, 19.0];
        for &id in &[1u32, 2, 3] {
            batch.admit(PointId(id), ds.point(PointId(id)));
            seq.admit(PointId(id), ds.point(PointId(id)));
        }
        // Probe (1, 2) → 3 becomes the LRU victim in *both* caches.
        let probe: Vec<PointId> = vec![PointId(1), PointId(2)];
        let mut out = Vec::new();
        batch.lookup_batch(&q, &probe, &mut out);
        let want: Vec<CacheLookup> = probe.iter().map(|&id| seq.lookup(&q, id)).collect();
        for (i, (a, b)) in want.iter().zip(out.iter()).enumerate() {
            assert_lookups_bit_identical(b, a, &format!("idx {i}"));
        }
        batch.admit(PointId(9), ds.point(PointId(9)));
        seq.admit(PointId(9), ds.point(PointId(9)));
        assert!(!batch.contains(PointId(3)), "batch recency must evict 3");
        assert!(!seq.contains(PointId(3)), "sequential recency must evict 3");
        assert!(batch.contains(PointId(1)) && seq.contains(PointId(1)));
    }
}
