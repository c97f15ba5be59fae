//! The sharded concurrent node cache (leaf granularity).
//!
//! The node-granularity sibling of [`crate::cache::ShardedCompactCache`],
//! over the same [`Sharded`] shell: one byte budget split over N = 2^b
//! shards, each an independent [`LruNodeCache`] (bit-packed leaves + LRU)
//! behind its own `Mutex`. A leaf id maps to a shard by the shell's
//! multiplicative (Fibonacci) hash, so tree-search
//! workers only contend when they probe the *same* shard at the same
//! instant — which is exactly where concurrency pressure concentrates in
//! cache-conscious index traversal.
//!
//! Leaves are admitted two ways: by the searches themselves (a worker that
//! fetches an uncached leaf offers it to the shard, and the per-shard LRU
//! keeps each shard inside its slice of the budget), and by
//! [`ShardedNodeCache::warm_fill`] — an offline HFF-style fill from a
//! replayed workload's leaf-access ranking, run before tree-backed serving
//! goes live so the first epoch starts warm instead of paying cold misses.
//! The paper's compact representation (§3.6.1) keeps the split cheap: at
//! τ = 8 a cached leaf is ~4× smaller than its raw points.

use std::sync::Arc;

use hc_cache::concurrent::ConcurrentNodeCache;
use hc_cache::node::{leaf_bounds, LruNodeCache, NodeCache, NodeLookup};
use hc_core::scheme::ApproxScheme;
use hc_obs::MetricsRegistry;

use crate::cache::{Shard, Sharded};

impl Shard for LruNodeCache {
    fn len(&self) -> usize {
        self.len()
    }
    fn occupancy(&self) -> (usize, usize) {
        (self.used_bytes(), self.capacity_bytes())
    }
    fn label(&self) -> String {
        NodeCache::label(self)
    }
    fn bind_obs_as(&mut self, registry: &MetricsRegistry, label: &str) {
        self.bind_obs_as(registry, label)
    }
}

/// N `Mutex<LruNodeCache>` shards under one byte budget, keyed by leaf id.
pub type ShardedNodeCache = Sharded<LruNodeCache>;

impl ShardedNodeCache {
    /// Dynamic LRU node cache of `capacity_bytes` split evenly over
    /// `num_shards` (a power of two) shards.
    ///
    /// # Panics
    /// Panics if `num_shards` is zero or not a power of two.
    pub fn lru(scheme: Arc<dyn ApproxScheme>, capacity_bytes: usize, num_shards: usize) -> Self {
        Self::build(scheme, capacity_bytes, num_shards, LruNodeCache::new)
    }

    /// Offline HFF-style warm fill (§3.6.1): admit leaves in descending
    /// replayed-access-frequency order, stopping per shard once it is at
    /// budget so the hottest leaves stay resident (a plain `admit` loop
    /// through a full LRU shard would evict them). Member vectors come from
    /// `dataset` via `index.leaf_points` — this is a RAM-side fill, no
    /// paged I/O. Returns how many leaves were newly admitted.
    pub fn warm_fill(
        &self,
        index: &dyn hc_index::traits::LeafedIndex,
        dataset: &hc_core::dataset::Dataset,
        ranked_leaves: &[u32],
    ) -> usize {
        let mut filled = 0;
        for &leaf in ranked_leaves {
            let shard = self.shard(leaf);
            if shard.contains(leaf) {
                continue;
            }
            let ids = index.leaf_points(leaf);
            let need = ids.len() * self.scheme.bytes_per_point();
            if shard.used_bytes() + need > shard.capacity_bytes() {
                continue; // shard full of hotter leaves — keep them
            }
            shard.admit(leaf, &mut ids.iter().map(|&id| dataset.point(id)));
            filled += 1;
        }
        filled
    }
}

impl ConcurrentNodeCache for ShardedNodeCache {
    /// Probe under the shard lock, bound outside it: the guard is a
    /// temporary of the `let` statement, so by the time [`leaf_bounds`]
    /// walks the leaf's codes the shard is free for other workers — and an
    /// eviction of this leaf in the meantime only drops the map's reference
    /// to the words this call still holds.
    fn lookup(&self, q: &[f32], leaf: u32) -> NodeLookup {
        let probed = self.shard(leaf).probe(leaf);
        match probed {
            None => NodeLookup::Miss,
            Some(words) => NodeLookup::Bounds(leaf_bounds(&self.scheme, q, &words)),
        }
    }

    fn admit(&self, leaf: u32, points: &mut dyn ExactSizeIterator<Item = &[f32]>) {
        self.shard(leaf).admit(leaf, points)
    }

    fn contains(&self, leaf: u32) -> bool {
        self.shard(leaf).contains(leaf)
    }

    fn used_bytes(&self) -> usize {
        self.occupancy().0
    }

    fn capacity_bytes(&self) -> usize {
        self.occupancy().1
    }

    fn label(&self) -> String {
        let tau = self.scheme.tau();
        format!("SHARDED-NODE(τ={tau})/LRU×{}", self.num_shards())
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

    fn leaf_points(leaf: u32, n: usize) -> Vec<Vec<f32>> {
        (0..n)
            .map(|i| vec![leaf as f32 + i as f32 * 0.1, (leaf % 7) as f32])
            .collect()
    }

    fn admit(c: &ShardedNodeCache, leaf: u32, n: usize) {
        let pts = leaf_points(leaf, n);
        c.admit(leaf, &mut pts.iter().map(|p| p.as_slice()));
    }

    #[test]
    fn rejects_non_power_of_two_shards() {
        let result = std::panic::catch_unwind(|| ShardedNodeCache::lru(scheme(2), 1 << 12, 3));
        assert!(result.is_err());
    }

    #[test]
    fn single_shard_works() {
        let c = ShardedNodeCache::lru(scheme(2), 1 << 12, 1);
        admit(&c, 1, 3);
        assert!(c.contains(1));
        assert_eq!(c.num_shards(), 1);
    }

    #[test]
    fn admissions_land_in_one_shard_and_lookups_find_them() {
        let c = ShardedNodeCache::lru(scheme(2), 1 << 16, 8);
        for leaf in 0..64u32 {
            admit(&c, leaf, 3);
        }
        assert_eq!(c.len(), 64);
        for leaf in 0..64u32 {
            assert!(c.contains(leaf), "leaf {leaf} lost");
            match c.lookup(&leaf_points(leaf, 1)[0], leaf) {
                NodeLookup::Bounds(b) => assert_eq!(b.len(), 3),
                other => panic!("expected bounds, got {other:?}"),
            }
        }
    }

    #[test]
    fn leaves_spread_over_shards() {
        let c = ShardedNodeCache::lru(scheme(2), 1 << 18, 8);
        for leaf in 0..256u32 {
            admit(&c, leaf, 2);
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
        let per_leaf = 3 * s.bytes_per_point();
        // Room for 4 leaves per shard across 4 shards.
        let c = ShardedNodeCache::lru(s, per_leaf * 16, 4);
        for leaf in 0..300u32 {
            admit(&c, leaf, 3);
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
        let c = ShardedNodeCache::lru(scheme(2), 1 << 14, 4);
        ConcurrentNodeCache::bind_obs(&c, &registry);
        admit(&c, 3, 2);
        let _ = c.lookup(&[3.0, 3.0], 3); // hit
        let _ = c.lookup(&[9.0, 2.0], 9); // miss
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
        let c = ShardedNodeCache::lru(scheme(2), 1 << 12, 8);
        assert_eq!(c.label(), "SHARDED-NODE(τ=5)/LRU×8");
    }

    #[test]
    fn warm_fill_admits_ranked_leaves_without_evicting_hotter_ones() {
        use hc_core::dataset::{Dataset, PointId};
        use hc_index::traits::LeafedIndex;

        /// Fixed partition of 30 points into 10 leaves of 3.
        struct FixedLeaves {
            members: Vec<Vec<PointId>>,
        }

        impl LeafedIndex for FixedLeaves {
            fn num_leaves(&self) -> u32 {
                self.members.len() as u32
            }
            fn leaf_points(&self, leaf: u32) -> &[PointId] {
                &self.members[leaf as usize]
            }
            fn leaf_lower_bounds(&self, _q: &[f32]) -> Vec<(u32, f64)> {
                (0..self.num_leaves()).map(|l| (l, 0.0)).collect()
            }
            fn leaf_of(&self, id: PointId) -> u32 {
                id.0 / 3
            }
            fn name(&self) -> &'static str {
                "FIXED"
            }
        }

        let s = scheme(2);
        let per_leaf = 3 * s.bytes_per_point();
        let rows: Vec<Vec<f32>> = (0..30u32).map(|i| vec![i as f32, 0.5]).collect();
        let dataset = Dataset::from_rows(&rows);
        let index = FixedLeaves {
            members: (0..10)
                .map(|l| (0..3).map(|i| PointId(l * 3 + i)).collect())
                .collect(),
        };
        // Room for 2 leaves per shard across 2 shards: 4 of 10 fit.
        let c = ShardedNodeCache::lru(s, per_leaf * 4, 2);
        let ranking: Vec<u32> = (0..10).collect();
        let filled = c.warm_fill(&index, &dataset, &ranking);
        assert_eq!(filled, c.len());
        assert!((2..=4).contains(&filled), "filled {filled}");
        assert!(c.contains(0), "rank-0 leaf must be resident");
        assert!(!c.contains(9), "tail leaf skipped, not evict-cycled");
        for (used, cap) in c.shard_occupancy() {
            assert!(used <= cap);
        }
        assert_eq!(c.warm_fill(&index, &dataset, &ranking), 0, "idempotent");
        // Warm-filled leaves serve real bounds.
        match c.lookup(&[0.0, 0.5], 0) {
            NodeLookup::Bounds(b) => assert_eq!(b.len(), 3),
            other => panic!("{other:?}"),
        }
    }

    /// Same query, same thread, across a hot swap to a generation built on
    /// a *different* scheme: the answer must be the new scheme's bounds. The
    /// thread's table memo still holds this query's tables for the old
    /// scheme, so this pins that the memo is keyed on scheme identity.
    #[test]
    fn swap_to_another_scheme_serves_that_schemes_bounds() {
        use hc_cache::swap::SwappableNodeCache;
        let old = scheme(2);
        let new: Arc<dyn ApproxScheme> = Arc::new(GlobalScheme::new(
            equi_width(256, 4),
            Quantizer::new(0.0, 100.0, 256),
            2,
        ));
        let generation = |s: &Arc<dyn ApproxScheme>| -> Arc<dyn ConcurrentNodeCache> {
            let c = ShardedNodeCache::lru(Arc::clone(s), 1 << 14, 2);
            admit(&c, 5, 3);
            Arc::new(c)
        };
        let cache = SwappableNodeCache::new(generation(&old));
        let q = [6.5f32, 2.25];
        let expect = |s: &Arc<dyn ApproxScheme>| -> NodeLookup {
            NodeLookup::Bounds(
                leaf_points(5, 3)
                    .iter()
                    .map(|p| s.bounds(&q, &s.encode(p)))
                    .collect(),
            )
        };
        assert_ne!(expect(&old), expect(&new), "schemes must disagree");
        assert_eq!(cache.lookup(&q, 5), expect(&old));
        cache.swap(generation(&new));
        assert_eq!(cache.lookup(&q, 5), expect(&new));
    }

    #[test]
    fn shared_adapter_runs_the_sharded_cache() {
        use hc_cache::concurrent::SharedNodeCache;
        let shared: Arc<dyn ConcurrentNodeCache> =
            Arc::new(ShardedNodeCache::lru(scheme(2), 1 << 14, 2));
        let adapter = SharedNodeCache::new(Arc::clone(&shared));
        let pts = leaf_points(5, 3);
        NodeCache::admit(&adapter, 5, &mut pts.iter().map(|p| p.as_slice()));
        assert!(shared.contains(5), "adapter admits into the shared cache");
        match NodeCache::lookup(&adapter, &pts[0], 5) {
            NodeLookup::Bounds(b) => assert_eq!(b.len(), 3),
            other => panic!("{other:?}"),
        }
    }
}
