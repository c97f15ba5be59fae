//! Multi-threaded stress tests for [`ShardedNodeCache`]: invariants the
//! single-threaded `LruNodeCache` guarantees must survive N threads
//! hammering the shards concurrently, and the labeled per-shard `cache.*`
//! counters must account for every operation exactly.

use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Duration;

use hc_cache::concurrent::ConcurrentNodeCache;
use hc_cache::node::{LruNodeCache, NodeCache, NodeLookup};
use hc_core::bounds::DistBounds;
use hc_core::distance::euclidean;
use hc_core::histogram::classic::equi_width;
use hc_core::quantize::Quantizer;
use hc_core::scheme::{ApproxScheme, GlobalScheme};
use hc_obs::MetricsRegistry;
use hc_serve::ShardedNodeCache;

const DIM: usize = 2;
const POINTS_PER_LEAF: usize = 3;

fn scheme() -> Arc<dyn ApproxScheme> {
    let quant = Quantizer::new(0.0, 1024.0, 256);
    Arc::new(GlobalScheme::new(equi_width(256, 64), quant, DIM))
}

fn leaf_points(leaf: u32) -> Vec<Vec<f32>> {
    (0..POINTS_PER_LEAF)
        .map(|i| {
            (0..DIM)
                .map(|j| ((leaf as usize * 31 + i * 11 + j * 7) % 1024) as f32)
                .collect()
        })
        .collect()
}

fn admit(cache: &dyn ConcurrentNodeCache, leaf: u32) {
    let pts = leaf_points(leaf);
    cache.admit(leaf, &mut pts.iter().map(|p| p.as_slice()));
}

/// With room for every admitted leaf, no admission may be lost: concurrent
/// admits of distinct leaves all stay resident.
#[test]
fn concurrent_leaf_admissions_are_not_lost_when_capacity_allows() {
    const THREADS: u32 = 8;
    const PER_THREAD: u32 = 64;
    let s = scheme();
    let total = (THREADS * PER_THREAD) as usize;
    let cache = Arc::new(ShardedNodeCache::lru(
        Arc::clone(&s),
        s.bytes_per_point() * POINTS_PER_LEAF * total * 4,
        8,
    ));
    thread::scope(|scope| {
        for t in 0..THREADS {
            let cache = Arc::clone(&cache);
            scope.spawn(move || {
                for i in 0..PER_THREAD {
                    admit(cache.as_ref(), t * PER_THREAD + i);
                }
            });
        }
    });
    assert_eq!(cache.len(), total, "admissions lost");
    for leaf in 0..THREADS * PER_THREAD {
        assert!(cache.contains(leaf), "leaf {leaf} missing");
    }
}

/// Under a tight budget with far more admissions than fit, every shard must
/// stay within its byte slice — no cross-shard borrowing, no overshoot.
#[test]
fn shards_never_exceed_their_budget_under_churn() {
    const THREADS: u32 = 8;
    const OPS: u32 = 2000;
    let s = scheme();
    // Room for ~32 leaves total across 4 shards; 16k admissions churn hard.
    let cache = Arc::new(ShardedNodeCache::lru(
        Arc::clone(&s),
        s.bytes_per_point() * POINTS_PER_LEAF * 32,
        4,
    ));
    thread::scope(|scope| {
        for t in 0..THREADS {
            let cache = Arc::clone(&cache);
            scope.spawn(move || {
                for i in 0..OPS {
                    let leaf = (t * OPS + i) % 512;
                    admit(cache.as_ref(), leaf);
                    match cache.lookup(&leaf_points(leaf)[0], leaf) {
                        NodeLookup::Miss | NodeLookup::Exact => {}
                        NodeLookup::Bounds(b) => {
                            for db in &b {
                                assert!(db.lb.is_finite() && db.ub.is_finite(), "torn bounds");
                                assert!(db.lb <= db.ub + 1e-9, "lb {} > ub {}", db.lb, db.ub);
                            }
                        }
                    }
                }
            });
        }
    });
    for (shard, (used, cap)) in cache.shard_occupancy().iter().enumerate() {
        assert!(used <= cap, "shard {shard} over budget: {used} > {cap}");
    }
    assert!(cache.used_bytes() <= cache.capacity_bytes());
}

/// The sharded cache is a pure partition of `LruNodeCache`: for the same
/// resident leaves, a concurrent lookup returns bit-identical bounds to a
/// single-threaded oracle holding the same contents.
#[test]
fn concurrent_lookups_equal_single_threaded_oracle() {
    const LEAVES: u32 = 128;
    let s = scheme();
    let budget = s.bytes_per_point() * POINTS_PER_LEAF * LEAVES as usize * 2;
    let sharded = Arc::new(ShardedNodeCache::lru(Arc::clone(&s), budget, 8));

    // Populate the sharded cache from 4 threads, the oracle serially.
    thread::scope(|scope| {
        for t in 0..4u32 {
            let sharded = Arc::clone(&sharded);
            scope.spawn(move || {
                for leaf in (t..LEAVES).step_by(4) {
                    admit(sharded.as_ref(), leaf);
                }
            });
        }
    });

    let queries: Vec<Vec<f32>> = (0..16)
        .map(|q| leaf_points(q * 37 + 5)[0].clone())
        .collect();
    thread::scope(|scope| {
        for q in &queries {
            let sharded = Arc::clone(&sharded);
            let s = Arc::clone(&s);
            scope.spawn(move || {
                // Each thread re-derives the oracle itself: the compact
                // encoding is deterministic, so a fresh single-threaded
                // cache with the same contents is the ground truth.
                let oracle = LruNodeCache::new(Arc::clone(&s), budget);
                for leaf in 0..LEAVES {
                    let pts = leaf_points(leaf);
                    oracle.admit(leaf, &mut pts.iter().map(|p| p.as_slice()));
                }
                for leaf in 0..LEAVES {
                    let want = oracle.lookup(q, leaf);
                    let got = sharded.lookup(q, leaf);
                    assert_eq!(got, want, "leaf {leaf} diverged from the oracle");
                }
            });
        }
    });
}

/// Deterministic op counts from many threads must be exactly accounted for
/// by the labeled per-shard `cache.*` counter series.
#[test]
fn totals_match_labeled_per_shard_counters() {
    const THREADS: u32 = 8;
    const LEAVES: u32 = 64;
    const MISSES_PER_THREAD: u32 = 32;
    let registry = MetricsRegistry::new();
    let s = scheme();
    let cache = Arc::new(ShardedNodeCache::lru(
        Arc::clone(&s),
        s.bytes_per_point() * POINTS_PER_LEAF * LEAVES as usize * 4,
        4,
    ));
    ConcurrentNodeCache::bind_obs(cache.as_ref(), &registry);

    // Phase 1: disjoint admissions — exactly LEAVES insertions in total.
    thread::scope(|scope| {
        for t in 0..4u32 {
            let cache = Arc::clone(&cache);
            scope.spawn(move || {
                for leaf in (t..LEAVES).step_by(4) {
                    admit(cache.as_ref(), leaf);
                }
            });
        }
    });
    // Phase 2: every thread hits each resident leaf once and misses
    // MISSES_PER_THREAD absent leaves once.
    thread::scope(|scope| {
        for t in 0..THREADS {
            let cache = Arc::clone(&cache);
            scope.spawn(move || {
                let q = leaf_points(t)[0].clone();
                for leaf in 0..LEAVES {
                    assert!(!matches!(cache.lookup(&q, leaf), NodeLookup::Miss));
                }
                for leaf in LEAVES..LEAVES + MISSES_PER_THREAD {
                    assert!(matches!(cache.lookup(&q, leaf), NodeLookup::Miss));
                }
            });
        }
    });

    let snap = registry.snapshot();
    assert_eq!(snap.counter_sum("cache.insertions"), LEAVES as u64);
    assert_eq!(
        snap.counter_sum("cache.hits"),
        (THREADS * LEAVES) as u64,
        "every resident-leaf lookup is a hit"
    );
    assert_eq!(
        snap.counter_sum("cache.misses"),
        (THREADS * MISSES_PER_THREAD) as u64,
        "every absent-leaf lookup is a miss"
    );
    let hit_series = snap
        .counters
        .iter()
        .filter(|(id, _)| id.name == "cache.hits")
        .count();
    assert_eq!(hit_series, 4, "one labeled series per shard");
}

/// A scheme whose first `bounds` call reports that it has started and then
/// waits to be released. It exposes no `scan_intervals`, so the node cache
/// bounds through `ApproxScheme::bounds` and the gate sits exactly where
/// the per-leaf bounding work happens.
struct GatedScheme {
    inner: Arc<dyn ApproxScheme>,
    gate: Mutex<Option<(Sender<()>, Receiver<()>)>>,
}

impl ApproxScheme for GatedScheme {
    fn dim(&self) -> usize {
        self.inner.dim()
    }
    fn tau(&self) -> u32 {
        self.inner.tau()
    }
    fn words_per_point(&self) -> usize {
        self.inner.words_per_point()
    }
    fn encode_into(&self, point: &[f32], out: &mut Vec<u64>) {
        self.inner.encode_into(point, out)
    }
    fn bounds(&self, q: &[f32], words: &[u64]) -> DistBounds {
        let gate = self.gate.lock().expect("gate").take();
        if let Some((started, release)) = gate {
            started.send(()).expect("test is listening");
            release
                .recv_timeout(Duration::from_secs(20))
                .expect("an admit on this shard never completed: the lock is held while bounding");
        }
        self.inner.bounds(q, words)
    }
    fn error_norm_sq(&self, words: &[u64]) -> f64 {
        self.inner.error_norm_sq(words)
    }
}

/// The shard lock covers the probe only. While one thread is inside the
/// bounding of leaf 1, another thread's `admit` on the *same* shard
/// completes — and, the shard holding one leaf, evicts leaf 1. The lookup
/// still returns sound bounds for the leaf as it was probed, and the shard
/// never exceeds its budget. (With the lock held across the bounding, the
/// admit below would wait on the lookup and the lookup on the admit.)
#[test]
fn bounding_runs_outside_the_shard_lock_and_survives_eviction() {
    let (started_tx, started_rx) = channel();
    let (release_tx, release_rx) = channel();
    let gated: Arc<dyn ApproxScheme> = Arc::new(GatedScheme {
        inner: scheme(),
        gate: Mutex::new(Some((started_tx, release_rx))),
    });
    let one_leaf = gated.bytes_per_point() * POINTS_PER_LEAF;
    // One shard, room for one leaf: every admit contends with every lookup
    // and every second admit evicts.
    let cache = ShardedNodeCache::lru(gated, one_leaf, 1);
    admit(&cache, 1);
    let q = leaf_points(9)[0].clone();

    let bounds = thread::scope(|scope| {
        let lookup = scope.spawn(|| cache.lookup(&q, 1));
        started_rx
            .recv_timeout(Duration::from_secs(20))
            .expect("the lookup reached the bounding of leaf 1");
        admit(&cache, 2);
        assert!(cache.contains(2), "admit completed mid-bound");
        assert!(!cache.contains(1), "and evicted the leaf being bounded");
        assert_eq!(cache.shard_occupancy(), vec![(one_leaf, one_leaf)]);
        release_tx.send(()).expect("lookup is waiting");
        match lookup.join().expect("lookup thread") {
            NodeLookup::Bounds(b) => b,
            other => panic!("leaf 1 was resident when probed, got {other:?}"),
        }
    });

    let members = leaf_points(1);
    assert_eq!(bounds.len(), members.len());
    for (b, p) in bounds.iter().zip(&members) {
        let exact = euclidean(&q, p);
        assert!(
            b.contains(exact),
            "unsound bounds for an evicted-mid-bound leaf: {exact} outside [{}, {}]",
            b.lb,
            b.ub
        );
    }
    assert_eq!(cache.shard_occupancy(), vec![(one_leaf, one_leaf)]);
}
