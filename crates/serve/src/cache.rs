//! The sharded shell and the sharded concurrent compact cache.
//!
//! One byte budget `CS`, N = 2^b shards, each shard an independent
//! single-threaded cache behind its own `Mutex`: that shell is [`Sharded`],
//! written once for the point cache here and the node cache in
//! [`crate::node_cache`]. A key maps to a shard by multiplicative
//! (Fibonacci) hashing, so consecutive ids — which the paper's permuted
//! point file scatters anyway — spread evenly and two workers only contend
//! when they probe the *same* shard at the same instant.
//!
//! [`ShardedCompactCache`] shards a [`CompactPointCache`] (bit-packed slab
//! and LRU list) by `PointId`. The paper's compact representation is what
//! makes this split essentially free: at τ = 8 bits per dimension an item
//! is 4× smaller than the raw vector, so even `CS/N` bytes per shard holds
//! thousands of items and the per-shard LRU behaves like the global one
//! (the workload's hot set is spread uniformly over shards by the hash).

use std::sync::{Arc, Mutex, MutexGuard};

use hc_cache::concurrent::ConcurrentPointCache;
use hc_cache::point::{CacheLookup, CompactPointCache, PointCache};
use hc_cache::tables::with_query_tables;
use hc_core::dataset::PointId;
use hc_core::scan::Simd;
use hc_core::scheme::ApproxScheme;
use hc_obs::MetricsRegistry;

/// What [`Sharded`] asks of one shard. The module is private, so the two
/// shard types of this crate are the only implementors there can be.
mod shard {
    pub trait Shard {
        fn len(&self) -> usize;
        /// `(used_bytes, capacity_bytes)`.
        fn occupancy(&self) -> (usize, usize);
        fn label(&self) -> String;
        fn bind_obs_as(&mut self, registry: &hc_obs::MetricsRegistry, label: &str);
    }
}
pub(crate) use shard::Shard;

/// N `Mutex<C>` shards under one byte budget: the constructor check, the
/// shard hash, the per-shard accounting and the per-shard `cache.*` series.
/// What a lookup or an admission does under the lock stays with each cache.
pub struct Sharded<C> {
    shards: Vec<Mutex<C>>,
    /// `32 - log2(num_shards)`; shard = `(key * φ32) >> shard_shift`.
    shard_shift: u32,
    /// Kept so probes can take per-query tables, and bound what they
    /// probed, outside the shard locks.
    pub(crate) scheme: Arc<dyn ApproxScheme>,
}

/// Multiplicative (Fibonacci) hash of a 32-bit key onto `2^(32 - shift)`
/// shards.
fn fib_shard(key: u32, shift: u32) -> usize {
    /// Knuth's multiplicative constant: ⌊2^32 / φ⌋.
    const FIB_MULT: u32 = 0x9E37_79B9;
    if shift == 32 {
        return 0; // single shard; a 32-bit shift would overflow
    }
    (key.wrapping_mul(FIB_MULT) >> shift) as usize
}

impl<C: Shard> Sharded<C> {
    /// `capacity_bytes` split evenly over `num_shards` shards, each built by
    /// `shard(scheme, bytes)`.
    ///
    /// # Panics
    /// Panics if `num_shards` is zero or not a power of two.
    pub(crate) fn build(
        scheme: Arc<dyn ApproxScheme>,
        capacity_bytes: usize,
        num_shards: usize,
        shard: fn(Arc<dyn ApproxScheme>, usize) -> C,
    ) -> Self {
        assert!(
            num_shards.is_power_of_two(),
            "num_shards must be a power of two, got {num_shards}"
        );
        let per_shard = capacity_bytes / num_shards;
        Self {
            shards: (0..num_shards)
                .map(|_| Mutex::new(shard(Arc::clone(&scheme), per_shard)))
                .collect(),
            shard_shift: 32 - num_shards.trailing_zeros(),
            scheme,
        }
    }

    pub(crate) fn shard_of(&self, key: u32) -> usize {
        fib_shard(key, self.shard_shift)
    }

    pub(crate) fn lock(&self, shard: usize) -> MutexGuard<'_, C> {
        self.shards[shard].lock().expect("shard poisoned")
    }

    /// Lock the shard `key` hashes to.
    pub(crate) fn shard(&self, key: u32) -> MutexGuard<'_, C> {
        self.lock(self.shard_of(key))
    }

    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Total resident items across shards.
    pub fn len(&self) -> usize {
        (0..self.shards.len()).map(|s| self.lock(s).len()).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Per-shard `(used_bytes, capacity_bytes)` — the stress tests assert
    /// the budget invariant shard by shard.
    pub fn shard_occupancy(&self) -> Vec<(usize, usize)> {
        (0..self.shards.len())
            .map(|s| self.lock(s).occupancy())
            .collect()
    }

    /// `(used_bytes, capacity_bytes)` over all shards.
    pub(crate) fn occupancy(&self) -> (usize, usize) {
        self.shard_occupancy()
            .iter()
            .fold((0, 0), |sum, s| (sum.0 + s.0, sum.1 + s.1))
    }

    /// Bind each shard under its own label (`"COMPACT(τ=8)/LRU/shard3"`),
    /// so hot-shard skew is visible; aggregate with
    /// `RegistrySnapshot::counter_sum("cache.hits")`.
    pub(crate) fn bind_shards(&self, registry: &MetricsRegistry) {
        for s in 0..self.shards.len() {
            let mut shard = self.lock(s);
            let label = format!("{}/shard{s}", shard.label());
            shard.bind_obs_as(registry, &label);
        }
    }
}

impl Shard for CompactPointCache {
    fn len(&self) -> usize {
        self.len()
    }
    fn occupancy(&self) -> (usize, usize) {
        (self.used_bytes(), self.capacity_bytes())
    }
    fn label(&self) -> String {
        PointCache::label(self)
    }
    fn bind_obs_as(&mut self, registry: &MetricsRegistry, label: &str) {
        self.bind_obs_as(registry, label)
    }
}

/// N `Mutex<CompactPointCache>` shards under one byte budget.
pub type ShardedCompactCache = Sharded<CompactPointCache>;

impl ShardedCompactCache {
    /// Dynamic LRU cache of `capacity_bytes` split evenly over `num_shards`
    /// (a power of two) shards.
    ///
    /// # Panics
    /// Panics if `num_shards` is zero or not a power of two.
    pub fn lru(scheme: Arc<dyn ApproxScheme>, capacity_bytes: usize, num_shards: usize) -> Self {
        Self::build(scheme, capacity_bytes, num_shards, CompactPointCache::lru)
    }

    /// Offline HFF-style warm fill (§4): admit points in descending
    /// workload-frequency order, stopping per shard once it is at budget so
    /// the hottest points stay resident (a plain `admit` loop through a
    /// full LRU shard would evict them). Already-resident points are
    /// skipped. Returns how many points were newly admitted.
    pub fn warm_fill(&self, dataset: &hc_core::dataset::Dataset, ranking: &[PointId]) -> usize {
        let need = self.scheme.bytes_per_point();
        let mut filled = 0;
        for &id in ranking {
            let mut shard = self.shard(id.0);
            if shard.contains(id) {
                continue;
            }
            if shard.used_bytes() + need > shard.capacity_bytes() {
                continue; // shard full of hotter points — keep them
            }
            shard.admit(id, dataset.point(id));
            filled += 1;
        }
        filled
    }
}

impl ConcurrentPointCache for ShardedCompactCache {
    fn lookup(&self, q: &[f32], id: PointId) -> CacheLookup {
        self.shard(id.0).lookup(q, id)
    }

    /// Batch probe: one lock acquisition per *shard touched* (not per
    /// candidate), with the per-query tables taken once out here and shared
    /// read-only by every shard's table walk.
    fn lookup_batch(&self, q: &[f32], ids: &[PointId], out: &mut Vec<CacheLookup>) {
        out.clear();
        out.resize(ids.len(), CacheLookup::Miss);
        // Counting sort of the candidate positions by shard, stable so each
        // shard is probed in `ids` order: `ends[s]` starts as shard `s`'s
        // first index into `order` and finishes as one past its last.
        let mut ends = vec![0u32; self.num_shards() + 1];
        for &id in ids {
            ends[self.shard_of(id.0) + 1] += 1;
        }
        for s in 1..ends.len() {
            ends[s] += ends[s - 1];
        }
        let mut order = vec![0u32; ids.len()];
        for (at, &id) in ids.iter().enumerate() {
            let end = &mut ends[self.shard_of(id.0)];
            order[*end as usize] = at as u32;
            *end += 1;
        }
        // The tables come from the thread's memo (`hc_cache::tables`): a
        // refill of one long-lived buffer per worker, shared with the node
        // tower.
        with_query_tables(&self.scheme, q, Simd::Auto, |tables| {
            let mut start = 0;
            for (s, &end) in ends[..self.num_shards()].iter().enumerate() {
                let positions = &order[start as usize..end as usize];
                start = end;
                if !positions.is_empty() {
                    self.lock(s)
                        .lookup_batch_with_tables(q, tables, ids, positions, out);
                }
            }
        })
    }

    fn admit(&self, id: PointId, point: &[f32]) {
        self.shard(id.0).admit(id, point)
    }

    fn contains(&self, id: PointId) -> bool {
        self.shard(id.0).contains(id)
    }

    fn used_bytes(&self) -> usize {
        self.occupancy().0
    }

    fn capacity_bytes(&self) -> usize {
        self.occupancy().1
    }

    fn label(&self) -> String {
        let tau = self.scheme.tau();
        format!("SHARDED-COMPACT(τ={tau})/LRU×{}", self.num_shards())
    }

    fn bind_obs(&self, registry: &MetricsRegistry) {
        self.bind_shards(registry)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hc_core::histogram::classic::equi_width;
    use hc_core::quantize::Quantizer;
    use hc_core::scheme::GlobalScheme;

    fn scheme(dim: usize) -> Arc<dyn ApproxScheme> {
        let quant = Quantizer::new(0.0, 100.0, 256);
        Arc::new(GlobalScheme::new(equi_width(256, 32), quant, dim))
    }

    fn point(i: u32) -> Vec<f32> {
        vec![i as f32, (i % 7) as f32]
    }

    #[test]
    fn rejects_non_power_of_two_shards() {
        let result = std::panic::catch_unwind(|| ShardedCompactCache::lru(scheme(2), 1 << 12, 3));
        assert!(result.is_err());
    }

    #[test]
    fn single_shard_works() {
        let c = ShardedCompactCache::lru(scheme(2), 1 << 12, 1);
        c.admit(PointId(1), &point(1));
        assert!(c.contains(PointId(1)));
        assert_eq!(c.num_shards(), 1);
    }

    #[test]
    fn admissions_land_in_one_shard_and_lookups_find_them() {
        let c = ShardedCompactCache::lru(scheme(2), 1 << 14, 8);
        for i in 0..100u32 {
            c.admit(PointId(i), &point(i));
        }
        assert_eq!(c.len(), 100);
        for i in 0..100u32 {
            assert!(c.contains(PointId(i)), "id {i} lost");
            match c.lookup(&point(i), PointId(i)) {
                CacheLookup::Bounds(b) => assert!(b.lb <= 1e-6, "self-distance lb {}", b.lb),
                other => panic!("expected bounds, got {other:?}"),
            }
        }
    }

    #[test]
    fn ids_spread_over_shards() {
        let c = ShardedCompactCache::lru(scheme(2), 1 << 16, 8);
        for i in 0..256u32 {
            c.admit(PointId(i), &point(i));
        }
        let occupied = c
            .shard_occupancy()
            .iter()
            .filter(|(used, _)| *used > 0)
            .count();
        assert!(
            occupied >= 6,
            "fibonacci hash left {occupied}/8 shards used"
        );
    }

    #[test]
    fn per_shard_budget_is_respected() {
        let s = scheme(2);
        let per_item = s.bytes_per_point();
        // Room for 4 items per shard across 4 shards.
        let c = ShardedCompactCache::lru(s, per_item * 16, 4);
        for i in 0..500u32 {
            c.admit(PointId(i), &point(i));
        }
        for (used, cap) in c.shard_occupancy() {
            assert!(used <= cap, "shard over budget: {used} > {cap}");
        }
        assert!(c.used_bytes() <= c.capacity_bytes());
        assert!(c.len() <= 16);
    }

    #[test]
    fn per_shard_obs_series_are_labeled() {
        let registry = MetricsRegistry::new();
        let c = ShardedCompactCache::lru(scheme(2), 1 << 14, 4);
        c.bind_obs(&registry);
        c.admit(PointId(3), &point(3));
        let _ = c.lookup(&point(3), PointId(3)); // hit
        let _ = c.lookup(&point(9), PointId(9)); // miss
        let snap = registry.snapshot();
        assert_eq!(snap.counter_sum("cache.hits"), 1);
        assert_eq!(snap.counter_sum("cache.misses"), 1);
        assert_eq!(snap.counter_sum("cache.insertions"), 1);
        let shard_labels = snap
            .counters
            .iter()
            .filter(|(id, _)| id.name == "cache.hits")
            .count();
        assert_eq!(shard_labels, 4, "one series per shard");
    }

    #[test]
    fn label_names_the_configuration() {
        let c = ShardedCompactCache::lru(scheme(2), 1 << 12, 8);
        assert_eq!(c.label(), "SHARDED-COMPACT(τ=5)/LRU×8");
    }

    /// Sharded batch probes (tables shared across shards) must answer
    /// exactly like per-id lookups (scalar `scheme.bounds` under the lock).
    #[test]
    fn sharded_batch_matches_per_id_lookups() {
        let c = ShardedCompactCache::lru(scheme(2), 1 << 14, 4);
        for i in (0..100u32).step_by(3) {
            c.admit(PointId(i), &point(i));
        }
        let q = [41.5f32, 3.25];
        let ids: Vec<PointId> = (0..100).map(PointId).collect();
        let mut out = Vec::new();
        c.lookup_batch(&q, &ids, &mut out);
        assert_eq!(out.len(), ids.len());
        for (i, &id) in ids.iter().enumerate() {
            // Probe order touches recency, not values — bounds depend only
            // on the stored codes.
            match (&out[i], c.lookup(&q, id)) {
                (CacheLookup::Miss, CacheLookup::Miss) => assert!(id.0 % 3 != 0),
                (CacheLookup::Bounds(b), CacheLookup::Bounds(g)) => {
                    assert_eq!(b.lb.to_bits(), g.lb.to_bits(), "id {id} lb");
                    assert_eq!(b.ub.to_bits(), g.ub.to_bits(), "id {id} ub");
                }
                other => panic!("id {id}: paths disagree on residency {other:?}"),
            }
        }
    }

    #[test]
    fn warm_fill_keeps_the_hottest_points_resident() {
        use hc_core::dataset::Dataset;
        let s = scheme(2);
        let per_item = s.bytes_per_point();
        let rows: Vec<Vec<f32>> = (0..64u32).map(point).collect();
        let dataset = Dataset::from_rows(&rows);
        // Room for 2 items per shard across 2 shards: 4 of 64 fit.
        let c = ShardedCompactCache::lru(s, per_item * 4, 2);
        let ranking: Vec<PointId> = (0..64).map(PointId).collect();
        let filled = c.warm_fill(&dataset, &ranking);
        assert_eq!(filled, c.len());
        assert!((2..=4).contains(&filled), "filled {filled}");
        // The very hottest id always fits into its empty shard.
        assert!(c.contains(PointId(0)), "rank-0 point must be resident");
        // Tail ids were skipped, not admitted-then-evicted.
        assert!(!c.contains(PointId(63)));
        for (used, cap) in c.shard_occupancy() {
            assert!(used <= cap);
        }
        // Idempotent: a second fill admits nothing new.
        assert_eq!(c.warm_fill(&dataset, &ranking), 0);
    }
}
