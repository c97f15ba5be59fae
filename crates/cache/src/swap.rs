//! Generational (hot-swappable) cache handles for live maintenance.
//!
//! The paper's §3.5 deployment model rebuilds the histogram scheme and the
//! HFF cache periodically from the observed workload. In a concurrent
//! server that rebuild must land *without* pausing workers: the serving
//! cache is therefore held behind a generation pointer that a maintenance
//! daemon can swap atomically while readers keep probing.
//!
//! [`Swappable`] is that cell, written once for both towers:
//! [`SwappablePointCache`] / [`SwappableNodeCache`] are its instances over
//! `dyn` [`ConcurrentPointCache`] / [`ConcurrentNodeCache`], an
//! `RwLock<Arc<dyn …>>`. Every cache operation takes the read lock just
//! long enough to clone the inner `Arc` (a reference-count bump — no cache
//! work happens under the lock), so the only writer-side critical section
//! is a pointer store. Queries running against the *old* generation finish
//! against the old generation; queries starting after the swap see the new
//! one. Either way each individual probe is served by one coherent cache,
//! which is what keeps results bit-identical through a swap: both
//! generations answer with *sound* bounds over the same dataset, they just
//! differ in which candidates they can answer for.
//!
//! The handle also remembers the [`MetricsRegistry`] it was bound to, so a
//! swapped-in generation is immediately rebound under the same labels.
//! `hc-obs` counters are get-or-create by `(name, label)`, so a rebind
//! *continues* the existing series — per-shard `cache.*` counters stay
//! monotonic across generations instead of resetting.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

use hc_core::dataset::PointId;
use hc_obs::MetricsRegistry;

use crate::concurrent::{ConcurrentNodeCache, ConcurrentPointCache};
use crate::node::NodeLookup;
use crate::point::CacheLookup;

/// What the cell asks of a generation: its label, and binding to a registry.
/// Implemented by the two `dyn` cache traits, which both already have them.
pub trait Generation {
    fn label(&self) -> String;
    fn bind_obs(&self, registry: &MetricsRegistry);
}

impl Generation for dyn ConcurrentPointCache {
    fn label(&self) -> String {
        ConcurrentPointCache::label(self)
    }

    fn bind_obs(&self, registry: &MetricsRegistry) {
        ConcurrentPointCache::bind_obs(self, registry)
    }
}

impl Generation for dyn ConcurrentNodeCache {
    fn label(&self) -> String {
        ConcurrentNodeCache::label(self)
    }

    fn bind_obs(&self, registry: &MetricsRegistry) {
        ConcurrentNodeCache::bind_obs(self, registry)
    }
}

/// A cache handle whose backing generation can be hot-swapped.
///
/// [`Swappable::swap`] installs a new generation and returns the old one
/// (still owned by any in-flight queries that cloned it before the swap);
/// the cache traits are implemented by delegating to the current one.
pub struct Swappable<C: ?Sized> {
    current: RwLock<Arc<C>>,
    generation: AtomicU64,
    /// Registry from the last `bind_obs`, replayed onto swapped-in
    /// generations so their shards keep feeding the same labeled series.
    registry: Mutex<Option<MetricsRegistry>>,
}

/// A point cache whose backing generation can be hot-swapped.
pub type SwappablePointCache = Swappable<dyn ConcurrentPointCache>;

/// A node cache whose backing generation can be hot-swapped — the
/// leaf-granularity instance of the same cell.
pub type SwappableNodeCache = Swappable<dyn ConcurrentNodeCache>;

impl<C: ?Sized + Generation> Swappable<C> {
    /// Wrap `initial` as generation 0.
    pub fn new(initial: Arc<C>) -> Self {
        Self {
            current: RwLock::new(initial),
            generation: AtomicU64::new(0),
            registry: Mutex::new(None),
        }
    }

    /// The generation currently serving. Starts at 0, bumps on every swap.
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// Clone the current generation's handle (a ref-count bump).
    pub fn current(&self) -> Arc<C> {
        Arc::clone(&self.current.read().expect("swap lock poisoned"))
    }

    /// Install `next` as the serving generation and return the previous
    /// one. The write lock is held only for the pointer store; readers that
    /// already cloned the old `Arc` finish their probe against it.
    pub fn swap(&self, next: Arc<C>) -> Arc<C> {
        // Rebind *before* publishing so the first post-swap probe already
        // counts into the live series.
        if let Some(registry) = self
            .registry
            .lock()
            .expect("registry lock poisoned")
            .as_ref()
        {
            next.bind_obs(registry);
        }
        let old = {
            let mut current = self.current.write().expect("swap lock poisoned");
            std::mem::replace(&mut *current, next)
        };
        self.generation.fetch_add(1, Ordering::AcqRel);
        old
    }

    fn swap_label(&self) -> String {
        format!(
            "SWAP(gen={})[{}]",
            self.generation(),
            self.current().label()
        )
    }

    /// Remember `registry` for later swaps and bind the current generation.
    fn bind_and_remember(&self, registry: &MetricsRegistry) {
        *self.registry.lock().expect("registry lock poisoned") = Some(registry.clone());
        self.current().bind_obs(registry);
    }
}

impl ConcurrentPointCache for SwappablePointCache {
    fn lookup(&self, q: &[f32], id: PointId) -> CacheLookup {
        self.current().lookup(q, id)
    }

    fn lookup_batch(&self, q: &[f32], ids: &[PointId], out: &mut Vec<CacheLookup>) {
        // One generation serves the whole batch (the clone pins it), and the
        // inner batch path keeps its one-lock-per-shard + shared-tables
        // optimization instead of degrading to per-id delegated lookups.
        self.current().lookup_batch(q, ids, out)
    }

    fn admit(&self, id: PointId, point: &[f32]) {
        self.current().admit(id, point)
    }

    fn contains(&self, id: PointId) -> bool {
        self.current().contains(id)
    }

    fn used_bytes(&self) -> usize {
        self.current().used_bytes()
    }

    fn capacity_bytes(&self) -> usize {
        self.current().capacity_bytes()
    }

    fn label(&self) -> String {
        self.swap_label()
    }

    fn bind_obs(&self, registry: &MetricsRegistry) {
        self.bind_and_remember(registry)
    }

    fn generation(&self) -> u64 {
        Swappable::generation(self)
    }
}

impl ConcurrentNodeCache for SwappableNodeCache {
    fn lookup(&self, q: &[f32], leaf: u32) -> NodeLookup {
        self.current().lookup(q, leaf)
    }

    fn admit(&self, leaf: u32, points: &mut dyn ExactSizeIterator<Item = &[f32]>) {
        self.current().admit(leaf, points)
    }

    fn contains(&self, leaf: u32) -> bool {
        self.current().contains(leaf)
    }

    fn used_bytes(&self) -> usize {
        self.current().used_bytes()
    }

    fn capacity_bytes(&self) -> usize {
        self.current().capacity_bytes()
    }

    fn label(&self) -> String {
        self.swap_label()
    }

    fn bind_obs(&self, registry: &MetricsRegistry) {
        self.bind_and_remember(registry)
    }

    fn generation(&self) -> u64 {
        Swappable::generation(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::AtomicUsize;

    /// Concurrent cache that answers `Exact(tag)` for every id, and counts
    /// `bind_obs` calls — enough to see which generation served a probe and
    /// whether the swap rebound it.
    struct TaggedCache {
        tag: f64,
        binds: AtomicUsize,
    }

    impl TaggedCache {
        fn shared(tag: f64) -> Arc<Self> {
            Arc::new(Self {
                tag,
                binds: AtomicUsize::new(0),
            })
        }
    }

    impl ConcurrentPointCache for TaggedCache {
        fn lookup(&self, _q: &[f32], _id: PointId) -> CacheLookup {
            CacheLookup::Exact(self.tag)
        }

        fn admit(&self, _id: PointId, _point: &[f32]) {}

        fn contains(&self, _id: PointId) -> bool {
            true
        }

        fn used_bytes(&self) -> usize {
            0
        }

        fn capacity_bytes(&self) -> usize {
            0
        }

        fn label(&self) -> String {
            format!("TAG({})", self.tag)
        }

        fn bind_obs(&self, _registry: &MetricsRegistry) {
            self.binds.fetch_add(1, Ordering::Relaxed);
        }
    }

    #[test]
    fn swap_changes_served_generation_and_returns_old() {
        let gen0 = TaggedCache::shared(1.0);
        let gen1 = TaggedCache::shared(2.0);
        let swappable = SwappablePointCache::new(gen0);
        assert_eq!(swappable.generation(), 0);
        assert_eq!(
            swappable.lookup(&[0.0], PointId(0)),
            CacheLookup::Exact(1.0)
        );

        let old = swappable.swap(gen1);
        assert_eq!(swappable.generation(), 1);
        assert_eq!(
            swappable.lookup(&[0.0], PointId(0)),
            CacheLookup::Exact(2.0)
        );
        // The old generation is handed back intact.
        assert_eq!(old.lookup(&[0.0], PointId(0)), CacheLookup::Exact(1.0));
    }

    #[test]
    fn in_flight_clone_survives_swap() {
        let swappable = SwappablePointCache::new(TaggedCache::shared(1.0));
        let in_flight = swappable.current();
        swappable.swap(TaggedCache::shared(2.0));
        // A query that grabbed the old generation before the swap still
        // probes the old generation — never a torn mixture of the two.
        assert_eq!(
            in_flight.lookup(&[0.0], PointId(7)),
            CacheLookup::Exact(1.0)
        );
        assert_eq!(
            swappable.lookup(&[0.0], PointId(7)),
            CacheLookup::Exact(2.0)
        );
    }

    #[test]
    fn swapped_in_generation_is_rebound_to_stored_registry() {
        let registry = MetricsRegistry::new();
        let gen0 = TaggedCache::shared(1.0);
        let gen1 = TaggedCache::shared(2.0);
        let swappable =
            SwappablePointCache::new(Arc::clone(&gen0) as Arc<dyn ConcurrentPointCache>);

        swappable.bind_obs(&registry);
        assert_eq!(gen0.binds.load(Ordering::Relaxed), 1);

        swappable.swap(Arc::clone(&gen1) as Arc<dyn ConcurrentPointCache>);
        assert_eq!(
            gen1.binds.load(Ordering::Relaxed),
            1,
            "swap must rebind the incoming generation"
        );
    }

    #[test]
    fn swap_without_bind_does_not_rebind() {
        let gen1 = TaggedCache::shared(2.0);
        let swappable = SwappablePointCache::new(TaggedCache::shared(1.0));
        swappable.swap(Arc::clone(&gen1) as Arc<dyn ConcurrentPointCache>);
        assert_eq!(gen1.binds.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn label_names_the_generation() {
        let swappable = SwappablePointCache::new(TaggedCache::shared(1.0));
        assert_eq!(swappable.label(), "SWAP(gen=0)[TAG(1)]");
        swappable.swap(TaggedCache::shared(2.0));
        assert_eq!(swappable.label(), "SWAP(gen=1)[TAG(2)]");
    }

    /// Node-side fixture: remembers admitted leaves.
    struct LeafCache {
        leaves: std::sync::Mutex<HashSet<u32>>,
        binds: AtomicUsize,
    }

    impl LeafCache {
        fn shared() -> Arc<Self> {
            Arc::new(Self {
                leaves: std::sync::Mutex::new(HashSet::new()),
                binds: AtomicUsize::new(0),
            })
        }
    }

    impl ConcurrentNodeCache for LeafCache {
        fn lookup(&self, _q: &[f32], leaf: u32) -> NodeLookup {
            if self.leaves.lock().expect("lock").contains(&leaf) {
                NodeLookup::Exact
            } else {
                NodeLookup::Miss
            }
        }

        fn admit(&self, leaf: u32, _points: &mut dyn ExactSizeIterator<Item = &[f32]>) {
            self.leaves.lock().expect("lock").insert(leaf);
        }

        fn contains(&self, leaf: u32) -> bool {
            self.leaves.lock().expect("lock").contains(&leaf)
        }

        fn used_bytes(&self) -> usize {
            self.leaves.lock().expect("lock").len()
        }

        fn capacity_bytes(&self) -> usize {
            1024
        }

        fn label(&self) -> String {
            "LEAF".to_owned()
        }

        fn bind_obs(&self, _registry: &MetricsRegistry) {
            self.binds.fetch_add(1, Ordering::Relaxed);
        }
    }

    #[test]
    fn node_swap_changes_generation_and_rebinds() {
        let registry = MetricsRegistry::new();
        let gen0 = LeafCache::shared();
        let gen1 = LeafCache::shared();
        let swappable = SwappableNodeCache::new(Arc::clone(&gen0) as Arc<dyn ConcurrentNodeCache>);
        swappable.bind_obs(&registry);

        let pts = [vec![1.0f32]];
        swappable.admit(3, &mut pts.iter().map(|p| p.as_slice()));
        assert_eq!(swappable.lookup(&[0.0], 3), NodeLookup::Exact);
        assert_eq!(swappable.generation(), 0);

        let old = swappable.swap(Arc::clone(&gen1) as Arc<dyn ConcurrentNodeCache>);
        assert_eq!(swappable.generation(), 1);
        // Fresh generation: the leaf admitted to gen 0 is gone …
        assert_eq!(swappable.lookup(&[0.0], 3), NodeLookup::Miss);
        // … but the returned old generation still holds it.
        assert!(old.contains(3));
        assert_eq!(gen1.binds.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn concurrent_probes_during_swaps_never_tear() {
        use std::thread;
        let swappable = Arc::new(SwappablePointCache::new(TaggedCache::shared(0.0)));
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        thread::scope(|scope| {
            for _ in 0..4 {
                let swappable = Arc::clone(&swappable);
                let stop = Arc::clone(&stop);
                scope.spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        // Every probe must observe *some* complete
                        // generation tag, never garbage.
                        match swappable.lookup(&[0.0], PointId(1)) {
                            CacheLookup::Exact(d) => {
                                assert_eq!(d.fract(), 0.0, "torn read: {d}");
                            }
                            other => panic!("unexpected lookup {other:?}"),
                        }
                    }
                });
            }
            for g in 1..=100u64 {
                swappable.swap(TaggedCache::shared(g as f64));
            }
            stop.store(true, Ordering::Relaxed);
        });
        assert_eq!(swappable.generation(), 100);
    }
}
