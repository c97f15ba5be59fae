//! Leaf-node caches for exact tree indexes (paper §3.6.1).
//!
//! For tree-based kNN search the cache item is a **leaf node** — the
//! approximate (or exact) representations of all points in that node — not an
//! individual point. Construction follows the paper: replay the workload,
//! collect leaf access frequencies, fill the cache with leaves in descending
//! frequency order (HFF).
//!
//! * [`ExactNodeCache`] — a cached leaf's points are readable without I/O
//!   (EXACT baseline in Fig. 16); costs `points · d · 4` bytes per leaf.
//! * [`CompactNodeCache`] — a cached leaf stores bit-packed approximate
//!   points: a hit yields per-point distance *bounds* that tighten `ub_k` and
//!   prune whole nodes before they are fetched; costs
//!   `points · ⌈d·τ/64⌉ · 8` bytes per leaf.

use std::collections::HashMap;
use std::sync::Arc;

use hc_core::bounds::DistBounds;
use hc_core::scan::Simd;
use hc_core::scheme::ApproxScheme;
use hc_obs::MetricsRegistry;

use crate::lru::{LruList, SlotKeys};
use crate::obs::CacheObs;
use crate::tables::{bound_rows, with_query_tables};

/// Result of probing a node cache for one leaf.
#[derive(Debug, Clone, PartialEq)]
pub enum NodeLookup {
    /// Leaf not cached: reading its points costs one node I/O.
    Miss,
    /// Exactly cached: the caller may read the leaf's points for free.
    Exact,
    /// Compactly cached: sound bounds for each point, in the leaf's point
    /// order.
    Bounds(Vec<DistBounds>),
}

/// Interface the tree-search pipeline consults per leaf.
pub trait NodeCache {
    fn lookup(&self, q: &[f32], leaf: u32) -> NodeLookup;

    /// Offer a leaf the search just fetched from disk, with its member
    /// vectors in leaf order. Dynamic policies admit (possibly evicting);
    /// static caches ignore. Interior mutability keeps the trait object
    /// shareable across queries, mirroring the point-cache design.
    fn admit(&self, _leaf: u32, _points: &mut dyn ExactSizeIterator<Item = &[f32]>) {}

    fn contains(&self, leaf: u32) -> bool;
    fn used_bytes(&self) -> usize;
    fn capacity_bytes(&self) -> usize;
    fn label(&self) -> String;

    /// Register this cache's hit/miss/insertion/eviction counters and
    /// occupancy gauges in `registry`, labeled with [`NodeCache::label`] —
    /// the node-granularity mirror of `PointCache::bind_obs`. The default is
    /// a no-op (e.g. [`NoNodeCache`] has nothing to report).
    fn bind_obs(&mut self, _registry: &MetricsRegistry) {}
}

/// Bound every member of one cached leaf: `words` is the leaf's row-major
/// packed codes, `scheme.words_per_point()` words per member in leaf order.
///
/// This is the one bounding routine of the compact node caches. Members
/// go through the thread's memoised per-query tables ([`with_query_tables`]:
/// one table fill per query) and [`bound_rows`] — the routine the point
/// cache's batch path bounds its hits with, here walking the leaf's members
/// in lock-step — so every bound is bit-identical to
/// [`ApproxScheme::bounds`], which schemes without per-dimension intervals
/// (mHC-R) fall back to.
///
/// It takes no cache state, so a concurrent wrapper can run it *after*
/// releasing whatever lock guarded the probe that produced `words`.
pub fn leaf_bounds(scheme: &Arc<dyn ApproxScheme>, q: &[f32], words: &[u64]) -> Vec<DistBounds> {
    with_query_tables(scheme, q, Simd::Auto, |tables| {
        let wpp = scheme.words_per_point();
        let mut bounds = Vec::with_capacity(words.len() / wpp);
        let members = words.chunks_exact(wpp);
        bound_rows(scheme.as_ref(), tables, q, members, |b| bounds.push(b));
        bounds
    })
}

/// A node cache that caches nothing (NO-CACHE baseline for tree search).
#[derive(Debug, Default, Clone, Copy)]
pub struct NoNodeCache;

impl NodeCache for NoNodeCache {
    fn lookup(&self, _q: &[f32], _leaf: u32) -> NodeLookup {
        NodeLookup::Miss
    }

    fn contains(&self, _leaf: u32) -> bool {
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

/// EXACT leaf cache: a set of resident leaves whose raw points are free to
/// read. Static (HFF): fill once offline via [`ExactNodeCache::try_fill`].
pub struct ExactNodeCache {
    resident: HashMap<u32, usize>, // leaf → bytes
    used: usize,
    capacity_bytes: usize,
    dim: usize,
    obs: CacheObs,
}

impl ExactNodeCache {
    pub fn new(dim: usize, capacity_bytes: usize) -> Self {
        Self {
            resident: HashMap::new(),
            used: 0,
            capacity_bytes,
            dim,
            obs: CacheObs::noop(),
        }
    }

    /// Try to add a leaf with `num_points` members; returns whether it fit.
    /// Call in descending access-frequency order for HFF semantics.
    pub fn try_fill(&mut self, leaf: u32, num_points: usize) -> bool {
        let bytes = num_points * self.dim * 4;
        if self.used + bytes > self.capacity_bytes || self.resident.contains_key(&leaf) {
            return false;
        }
        self.resident.insert(leaf, bytes);
        self.used += bytes;
        true
    }

    /// Number of resident leaves.
    pub fn len(&self) -> usize {
        self.resident.len()
    }

    pub fn is_empty(&self) -> bool {
        self.resident.is_empty()
    }
}

impl NodeCache for ExactNodeCache {
    fn lookup(&self, _q: &[f32], leaf: u32) -> NodeLookup {
        if self.resident.contains_key(&leaf) {
            self.obs.hits.inc();
            NodeLookup::Exact
        } else {
            self.obs.misses.inc();
            NodeLookup::Miss
        }
    }

    fn contains(&self, leaf: u32) -> bool {
        self.resident.contains_key(&leaf)
    }

    fn used_bytes(&self) -> usize {
        self.used
    }

    fn capacity_bytes(&self) -> usize {
        self.capacity_bytes
    }

    fn label(&self) -> String {
        "EXACT-NODE/HFF".to_owned()
    }

    fn bind_obs(&mut self, registry: &MetricsRegistry) {
        self.obs = CacheObs::bind(registry, &self.label());
        self.obs.used_bytes.set(self.used as f64);
        self.obs.capacity_bytes.set(self.capacity_bytes as f64);
    }
}

/// Compact leaf cache: per-leaf packed approximate points.
pub struct CompactNodeCache {
    scheme: Arc<dyn ApproxScheme>,
    /// leaf → row-major packed words of all member points.
    resident: HashMap<u32, Vec<u64>>,
    used: usize,
    capacity_bytes: usize,
    obs: CacheObs,
}

impl CompactNodeCache {
    pub fn new(scheme: Arc<dyn ApproxScheme>, capacity_bytes: usize) -> Self {
        Self {
            scheme,
            resident: HashMap::new(),
            used: 0,
            capacity_bytes,
            obs: CacheObs::noop(),
        }
    }

    /// Try to add a leaf given its member point vectors (in leaf order);
    /// returns whether it fit. Call in descending access-frequency order.
    pub fn try_fill<'a>(
        &mut self,
        leaf: u32,
        points: impl ExactSizeIterator<Item = &'a [f32]>,
    ) -> bool {
        let n = points.len();
        let bytes = n * self.scheme.bytes_per_point();
        if self.used + bytes > self.capacity_bytes || self.resident.contains_key(&leaf) {
            return false;
        }
        let mut words = Vec::with_capacity(n * self.scheme.words_per_point());
        for p in points {
            self.scheme.encode_into(p, &mut words);
        }
        self.resident.insert(leaf, words);
        self.used += bytes;
        true
    }

    /// Number of resident leaves.
    pub fn len(&self) -> usize {
        self.resident.len()
    }

    pub fn is_empty(&self) -> bool {
        self.resident.is_empty()
    }

    /// The coding scheme in use.
    pub fn scheme(&self) -> &Arc<dyn ApproxScheme> {
        &self.scheme
    }
}

impl NodeCache for CompactNodeCache {
    fn lookup(&self, q: &[f32], leaf: u32) -> NodeLookup {
        match self.resident.get(&leaf) {
            None => {
                self.obs.misses.inc();
                NodeLookup::Miss
            }
            Some(words) => {
                self.obs.hits.inc();
                NodeLookup::Bounds(leaf_bounds(&self.scheme, q, words))
            }
        }
    }

    fn contains(&self, leaf: u32) -> bool {
        self.resident.contains_key(&leaf)
    }

    fn used_bytes(&self) -> usize {
        self.used
    }

    fn capacity_bytes(&self) -> usize {
        self.capacity_bytes
    }

    fn label(&self) -> String {
        format!("COMPACT-NODE(τ={})/HFF", self.scheme.tau())
    }

    fn bind_obs(&mut self, registry: &MetricsRegistry) {
        self.obs = CacheObs::bind(registry, &self.label());
        self.obs.used_bytes.set(self.used as f64);
        self.obs.capacity_bytes.set(self.capacity_bytes as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hc_core::dataset::Dataset;
    use hc_core::distance::euclidean;
    use hc_core::histogram::classic::equi_width;
    use hc_core::quantize::Quantizer;
    use hc_core::scheme::GlobalScheme;

    fn scheme(d: usize) -> Arc<dyn ApproxScheme> {
        let quant = Quantizer::new(0.0, 10.0, 64);
        Arc::new(GlobalScheme::new(equi_width(64, 8), quant, d))
    }

    #[test]
    fn exact_node_cache_respects_budget() {
        let mut c = ExactNodeCache::new(4, 100); // 4-dim, 16 B per point
        assert!(c.try_fill(0, 3)); // 48 B
        assert!(c.try_fill(1, 3)); // 96 B
        assert!(!c.try_fill(2, 1), "would exceed 100 B");
        assert_eq!(c.len(), 2);
        assert_eq!(c.used_bytes(), 96);
        assert_eq!(c.lookup(&[0.0; 4], 0), NodeLookup::Exact);
        assert_eq!(c.lookup(&[0.0; 4], 2), NodeLookup::Miss);
    }

    #[test]
    fn compact_node_cache_returns_per_point_bounds() {
        let ds = Dataset::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]]);
        let s = scheme(2);
        let mut c = CompactNodeCache::new(s, 1 << 16);
        let pts: Vec<&[f32]> = ds.iter().map(|(_, p)| p).collect();
        assert!(c.try_fill(0, pts.clone().into_iter()));
        let q = [2.0f32, 2.0];
        match c.lookup(&q, 0) {
            NodeLookup::Bounds(bounds) => {
                assert_eq!(bounds.len(), 3);
                for (b, p) in bounds.iter().zip(&pts) {
                    assert!(b.contains(euclidean(&q, p)));
                }
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn compact_nodes_fit_more_than_exact_at_same_budget() {
        let d = 64;
        let points: Vec<Vec<f32>> = (0..6).map(|_| vec![5.0f32; d]).collect();
        let budget = 6 * d * 4; // one exact leaf of 6 points
        let mut exact = ExactNodeCache::new(d, budget);
        assert!(exact.try_fill(0, 6));
        assert!(!exact.try_fill(1, 6));
        let mut compact = CompactNodeCache::new(scheme(d), budget);
        let mut filled = 0;
        for leaf in 0..10u32 {
            if compact.try_fill(leaf, points.iter().map(|p| p.as_slice())) {
                filled += 1;
            }
        }
        assert!(
            filled > 1,
            "compact should hold multiple leaves, got {filled}"
        );
    }

    #[test]
    fn duplicate_fill_is_rejected() {
        let mut c = ExactNodeCache::new(2, 1000);
        assert!(c.try_fill(0, 2));
        assert!(!c.try_fill(0, 2));
    }

    #[test]
    fn no_node_cache_always_misses() {
        let c = NoNodeCache;
        assert_eq!(c.lookup(&[1.0], 0), NodeLookup::Miss);
        assert_eq!(c.used_bytes(), 0);
    }
}

/// Dynamic (LRU) compact leaf cache: admits leaves as the search fetches
/// them, evicting the least-recently-used leaves to stay within budget.
///
/// The paper evaluates HFF (static) node caches; the LRU variant rounds out
/// the §5.2.1 policy comparison at node granularity and matters when no
/// historical workload exists yet.
pub struct LruNodeCache {
    scheme: Arc<dyn ApproxScheme>,
    inner: std::cell::RefCell<LruNodeInner>,
    capacity_bytes: usize,
    obs: CacheObs,
}

struct LruNodeInner {
    /// leaf → (row-major packed words, recency slot). The words sit behind
    /// an `Arc` so a probe can hand them out and the caller can bound them
    /// after the cache (and any lock around it) has moved on — an eviction
    /// in between drops the map's reference, not the probed words.
    resident: HashMap<u32, (Arc<[u64]>, u32)>,
    /// Recency order over slots: the back is the LRU victim.
    recency: LruList,
    /// Which leaf holds which slot.
    slots: SlotKeys<u32>,
    used: usize,
}

impl LruNodeCache {
    pub fn new(scheme: Arc<dyn ApproxScheme>, capacity_bytes: usize) -> Self {
        Self {
            scheme,
            inner: std::cell::RefCell::new(LruNodeInner {
                resident: HashMap::new(),
                recency: LruList::new(),
                slots: SlotKeys::new(),
                used: 0,
            }),
            capacity_bytes,
            obs: CacheObs::noop(),
        }
    }

    /// Number of resident leaves.
    pub fn len(&self) -> usize {
        self.inner.borrow().resident.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The cache-state half of a lookup: find `leaf`, make it the most
    /// recently used, count the hit or miss, and return its packed words
    /// for [`leaf_bounds`]. No bound is computed here, so this is all a
    /// lock around the cache has to cover.
    pub fn probe(&self, leaf: u32) -> Option<Arc<[u64]>> {
        let mut guard = self.inner.borrow_mut();
        let inner = &mut *guard;
        let Some((words, slot)) = inner.resident.get(&leaf) else {
            self.obs.misses.inc();
            return None;
        };
        self.obs.hits.inc();
        inner.recency.touch(*slot as usize);
        Some(Arc::clone(words))
    }
}

impl NodeCache for LruNodeCache {
    fn lookup(&self, q: &[f32], leaf: u32) -> NodeLookup {
        match self.probe(leaf) {
            None => NodeLookup::Miss,
            Some(words) => NodeLookup::Bounds(leaf_bounds(&self.scheme, q, &words)),
        }
    }

    fn admit(&self, leaf: u32, points: &mut dyn ExactSizeIterator<Item = &[f32]>) {
        let n = points.len();
        let bytes = n * self.scheme.bytes_per_point();
        if bytes > self.capacity_bytes {
            return; // a single oversized leaf can never fit
        }
        let mut guard = self.inner.borrow_mut();
        let inner = &mut *guard;
        if inner.resident.contains_key(&leaf) {
            return;
        }
        // Evict least-recently-used leaves until the new one fits.
        while inner.used + bytes > self.capacity_bytes {
            let slot = inner
                .recency
                .pop_back()
                .expect("used > 0 implies non-empty");
            let victim = inner.slots.key(slot as u32);
            let (words, _) = inner.resident.remove(&victim).expect("present");
            inner.slots.release(slot as u32);
            inner.used -= words.len() * 8;
            self.obs.evictions.inc();
        }
        let mut words = Vec::with_capacity(n * self.scheme.words_per_point());
        for p in points {
            self.scheme.encode_into(p, &mut words);
        }
        debug_assert_eq!(words.len() * 8, bytes);
        let slot = inner.slots.assign(leaf);
        inner.resident.insert(leaf, (words.into(), slot));
        inner.recency.push_front(slot as usize);
        inner.used += bytes;
        self.obs.insertions.inc();
        self.obs.used_bytes.set(inner.used as f64);
    }

    fn contains(&self, leaf: u32) -> bool {
        self.inner.borrow().resident.contains_key(&leaf)
    }

    fn used_bytes(&self) -> usize {
        self.inner.borrow().used
    }

    fn capacity_bytes(&self) -> usize {
        self.capacity_bytes
    }

    fn label(&self) -> String {
        format!("COMPACT-NODE(τ={})/LRU", self.scheme.tau())
    }

    fn bind_obs(&mut self, registry: &MetricsRegistry) {
        self.bind_obs_as(registry, &self.label());
    }
}

impl LruNodeCache {
    /// Like [`NodeCache::bind_obs`] but with an explicit series label.
    /// `ShardedNodeCache` uses this to give each shard its own series
    /// (e.g. `"SHARDED-NODE(τ=8)/LRU×4/shard2"`).
    pub fn bind_obs_as(&mut self, registry: &MetricsRegistry, label: &str) {
        self.obs = CacheObs::bind(registry, label);
        self.obs.used_bytes.set(self.inner.borrow().used as f64);
        self.obs.capacity_bytes.set(self.capacity_bytes as f64);
    }
}

#[cfg(test)]
mod lru_tests {
    use super::*;
    use hc_core::histogram::classic::equi_width;
    use hc_core::quantize::Quantizer;
    use hc_core::scheme::GlobalScheme;

    fn scheme(d: usize) -> Arc<dyn ApproxScheme> {
        let quant = Quantizer::new(0.0, 10.0, 64);
        Arc::new(GlobalScheme::new(equi_width(64, 8), quant, d))
    }

    fn leaf_points(v: f32, n: usize) -> Vec<Vec<f32>> {
        (0..n).map(|i| vec![v + i as f32 * 0.1, v]).collect()
    }

    #[test]
    fn admits_and_serves_bounds() {
        let c = LruNodeCache::new(scheme(2), 1 << 16);
        let pts = leaf_points(1.0, 3);
        c.admit(7, &mut pts.iter().map(|p| p.as_slice()));
        assert!(c.contains(7));
        match c.lookup(&[1.0, 1.0], 7) {
            NodeLookup::Bounds(b) => assert_eq!(b.len(), 3),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn evicts_least_recently_used_leaf() {
        let s = scheme(2);
        let per_leaf = 3 * s.bytes_per_point();
        let c = LruNodeCache::new(s, per_leaf * 2);
        let pts = leaf_points(0.0, 3);
        c.admit(1, &mut pts.iter().map(|p| p.as_slice()));
        c.admit(2, &mut pts.iter().map(|p| p.as_slice()));
        let _ = c.lookup(&[0.0, 0.0], 1); // 2 becomes LRU
        c.admit(3, &mut pts.iter().map(|p| p.as_slice()));
        assert!(c.contains(1) && c.contains(3));
        assert!(!c.contains(2));
        assert!(c.used_bytes() <= c.capacity_bytes());
    }

    #[test]
    fn oversized_leaf_is_rejected() {
        let s = scheme(2);
        let c = LruNodeCache::new(s, 4);
        let pts = leaf_points(0.0, 5);
        c.admit(1, &mut pts.iter().map(|p| p.as_slice()));
        assert!(!c.contains(1));
    }

    #[test]
    fn bound_node_cache_reports_hits_misses_and_evictions() {
        let s = scheme(2);
        let per_leaf = 3 * s.bytes_per_point();
        let registry = MetricsRegistry::new();
        let mut c = LruNodeCache::new(s, per_leaf * 2);
        c.bind_obs(&registry);
        let pts = leaf_points(0.0, 3);
        c.admit(1, &mut pts.iter().map(|p| p.as_slice()));
        c.admit(2, &mut pts.iter().map(|p| p.as_slice()));
        let _ = c.lookup(&[0.0, 0.0], 1); // hit
        let _ = c.lookup(&[0.0, 0.0], 9); // miss
        c.admit(3, &mut pts.iter().map(|p| p.as_slice())); // evicts 2
        let snap = registry.snapshot();
        let label = c.label();
        let get = |name: &str| {
            snap.counters
                .iter()
                .find(|(id, _)| id.name == name && id.label.as_deref() == Some(label.as_str()))
                .map(|(_, v)| *v)
        };
        assert_eq!(get("cache.hits"), Some(1));
        assert_eq!(get("cache.misses"), Some(1));
        assert_eq!(get("cache.insertions"), Some(3));
        assert_eq!(get("cache.evictions"), Some(1));
        assert_eq!(snap.gauge("cache.used_bytes"), Some(c.used_bytes() as f64));
        assert_eq!(
            snap.gauge("cache.capacity_bytes"),
            Some((per_leaf * 2) as f64)
        );
    }

    /// Every bound a compact node cache returns is `scheme.bounds` of that
    /// member, bit for bit — HFF and LRU flavours. The caches sit on two
    /// different schemes and take the same query alternately on this one
    /// thread, so each lookup finds the table memo filled for the *other*
    /// scheme and must not use it.
    #[test]
    fn lookups_are_bit_identical_to_scheme_bounds() {
        let quant = Quantizer::new(0.0, 10.0, 64);
        let coarse: Arc<dyn ApproxScheme> =
            Arc::new(GlobalScheme::new(equi_width(64, 4), quant.clone(), 2));
        let fine = scheme(2);
        let pts = leaf_points(1.0, 6);
        let members = || pts.iter().map(|p| p.as_slice());
        let lru = LruNodeCache::new(Arc::clone(&coarse), 1 << 16);
        lru.admit(3, &mut members());
        let mut hff = CompactNodeCache::new(Arc::clone(&fine), 1 << 16);
        assert!(hff.try_fill(3, members()));
        let caches: [(&dyn NodeCache, &Arc<dyn ApproxScheme>); 2] =
            [(&lru, &coarse), (&hff, &fine)];
        let q = [1.25f32, 7.5];
        for round in 0..2 {
            for (cache, scheme) in caches {
                let NodeLookup::Bounds(got) = cache.lookup(&q, 3) else {
                    panic!("{} round {round}: not a compact hit", cache.label());
                };
                assert_eq!(got.len(), pts.len());
                for (got, p) in got.iter().zip(&pts) {
                    let want = scheme.bounds(&q, &scheme.encode(p));
                    assert_eq!(
                        (got.lb.to_bits(), got.ub.to_bits()),
                        (want.lb.to_bits(), want.ub.to_bits()),
                        "{} round {round}",
                        cache.label()
                    );
                }
            }
        }
    }

    /// A probed leaf's words outlive its eviction: `probe` hands out a
    /// reference of its own, which is what lets a concurrent wrapper bound
    /// after dropping its lock.
    #[test]
    fn probed_words_survive_eviction() {
        let s = scheme(2);
        let per_leaf = 3 * s.bytes_per_point();
        let c = LruNodeCache::new(Arc::clone(&s), per_leaf);
        let pts = leaf_points(2.0, 3);
        c.admit(1, &mut pts.iter().map(|p| p.as_slice()));
        let words = c.probe(1).expect("resident");
        c.admit(2, &mut leaf_points(5.0, 3).iter().map(|p| p.as_slice()));
        assert!(!c.contains(1), "the one-leaf budget evicted leaf 1");
        assert!(c.probe(1).is_none());
        let q = [2.0f32, 2.0];
        for (b, p) in leaf_bounds(&s, &q, &words).iter().zip(&pts) {
            let want = s.bounds(&q, &s.encode(p));
            assert_eq!(b.lb.to_bits(), want.lb.to_bits());
            assert_eq!(b.ub.to_bits(), want.ub.to_bits());
        }
    }

    /// A random probe/admit sequence over leaves of 1–4 members evicts the
    /// same leaves in the same order as a stamp model: every resident leaf
    /// carries the tick of its last admit or hit, and the victim is always
    /// the smallest stamp.
    #[test]
    fn evictions_match_a_stamp_model() {
        let s = scheme(2);
        let per_point = s.bytes_per_point();
        let capacity = 9 * per_point;
        let c = LruNodeCache::new(Arc::clone(&s), capacity);
        let members = |leaf: u32| 1 + leaf as usize % 4;
        // leaf → stamp, and the bytes they hold.
        let mut model: HashMap<u32, u64> = HashMap::new();
        let mut model_used = 0;
        let mut evictions = 0;
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        for tick in 1..=4_000u64 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let leaf = (state >> 33) as u32 % 24;
            if (state >> 20) & 1 == 0 {
                assert_eq!(c.probe(leaf).is_some(), model.contains_key(&leaf));
                model.entry(leaf).and_modify(|stamp| *stamp = tick);
                continue;
            }
            let pts = leaf_points(leaf as f32 * 0.25, members(leaf));
            c.admit(leaf, &mut pts.iter().map(|p| p.as_slice()));
            if model.contains_key(&leaf) {
                continue;
            }
            let bytes = members(leaf) * per_point;
            let mut victims = Vec::new();
            while model_used + bytes > capacity {
                let (&victim, _) = model.iter().min_by_key(|(_, &stamp)| stamp).expect("used");
                model.remove(&victim);
                model_used -= members(victim) * per_point;
                victims.push(victim);
            }
            model.insert(leaf, tick);
            model_used += bytes;
            for &victim in &victims {
                assert!(!c.contains(victim), "tick {tick}: {victim} survived");
            }
            evictions += victims.len();
            for &resident in model.keys() {
                assert!(c.contains(resident), "tick {tick}: {resident} lost");
            }
            assert_eq!((c.len(), c.used_bytes()), (model.len(), model_used));
        }
        assert!(evictions > 500, "only {evictions} evictions");
    }

    #[test]
    fn readmission_is_idempotent() {
        let c = LruNodeCache::new(scheme(2), 1 << 16);
        let pts = leaf_points(0.0, 2);
        c.admit(4, &mut pts.iter().map(|p| p.as_slice()));
        let used = c.used_bytes();
        c.admit(4, &mut pts.iter().map(|p| p.as_slice()));
        assert_eq!(c.used_bytes(), used);
    }
}
