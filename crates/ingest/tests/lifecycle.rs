//! End-to-end lifecycle test: a long seeded mixed-op run crossing many
//! seals and compactions, exactness-checked against a brute-force shadow
//! throughout, then killed and recovered — the whole DESIGN.md §13 story
//! in one walk.

use std::collections::HashMap;
use std::sync::Arc;

use hc_core::dataset::PointId;
use hc_ingest::{IngestConfig, IngestEngine, WalDevice};
use hc_obs::MetricsRegistry;
use hc_storage::FaultConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const DIM: usize = 6;

fn vector(rng: &mut StdRng) -> Vec<f32> {
    (0..DIM).map(|_| rng.gen_range(-100.0..100.0f32)).collect()
}

/// Ascending (distance, id) over the shadow — the exactness oracle.
fn reference(shadow: &HashMap<u32, Vec<f32>>, q: &[f32], k: usize) -> Vec<PointId> {
    let mut scored: Vec<(f64, u32)> = shadow
        .iter()
        .map(|(&id, v)| {
            let d = q
                .iter()
                .zip(v.iter())
                .map(|(a, b)| {
                    let diff = *a as f64 - *b as f64;
                    diff * diff
                })
                .sum::<f64>()
                .sqrt();
            (d, id)
        })
        .collect();
    scored.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    scored.truncate(k);
    scored.into_iter().map(|(_, id)| PointId(id)).collect()
}

fn assert_exact(engine: &IngestEngine, shadow: &HashMap<u32, Vec<f32>>, q: &[f32], k: usize) {
    let answer = engine.query(q, k);
    assert!(answer.missing.is_empty(), "no faults configured");
    let got: Vec<PointId> = answer.hits.iter().map(|&(_, id)| id).collect();
    assert_eq!(got, reference(shadow, q, k), "mid-ingest answer diverged");
}

#[test]
fn long_mixed_run_stays_exact_through_seals_compactions_and_a_crash() {
    let registry = MetricsRegistry::new();
    let device = Arc::new(WalDevice::new());
    let mut config = IngestConfig::new(DIM);
    // ~20 rows per seal, compaction every 3 segments: a 1200-op run
    // crosses dozens of generation swaps.
    config.memtable_max_bytes = 20 * (DIM * 4 + 64);
    config.compact_min_segments = 3;
    let engine = IngestEngine::new(Arc::clone(&device), config, &registry);

    let mut rng = StdRng::seed_from_u64(0x11FE);
    let mut shadow: HashMap<u32, Vec<f32>> = HashMap::new();
    let mut last_generation = 0u64;
    for step in 0..1200u32 {
        let roll = rng.gen_range(0..10);
        if roll < 7 || shadow.is_empty() {
            let id = rng.gen_range(0..300u32);
            let v = vector(&mut rng);
            engine.insert(PointId(id), v.clone()).expect("admitted");
            shadow.insert(id, v);
        } else {
            let ids: Vec<u32> = shadow.keys().copied().collect();
            let id = ids[rng.gen_range(0..ids.len())];
            engine.delete(PointId(id)).expect("admitted");
            shadow.remove(&id);
        }
        engine.maybe_compact();
        let generation = engine.manifest_generation();
        assert!(generation >= last_generation, "generation regressed");
        last_generation = generation;
        if step % 40 == 0 {
            let q = vector(&mut rng);
            assert_exact(&engine, &shadow, &q, 10);
        }
    }
    let pre_crash = engine.status();
    assert!(pre_crash.seals >= 10, "run too tame: {pre_crash:?}");
    assert!(pre_crash.compactions >= 1, "never compacted: {pre_crash:?}");

    assert!(
        pre_crash.wal_checkpoint_seq > 0,
        "seals must have checkpointed the log: {pre_crash:?}"
    );

    // Kill and recover: segment images hold everything up to the last
    // checkpoint, the WAL holds the tail — together they must reconstruct
    // the identical live set, and replay must touch only the tail.
    drop(engine);
    let (engine, replayed) = IngestEngine::recover(Arc::clone(&device), config, &registry);
    assert_eq!(
        replayed.records.len() as u64,
        1200 - pre_crash.wal_checkpoint_seq,
        "replay must cover exactly the post-checkpoint tail"
    );
    assert!(
        engine.manifest_generation() >= last_generation,
        "generation must be monotonic across restart"
    );
    let mut live: Vec<u32> = engine.live_ids().into_iter().collect();
    live.sort_unstable();
    let mut expected: Vec<u32> = shadow.keys().copied().collect();
    expected.sort_unstable();
    assert_eq!(live, expected, "recovered live set diverged");
    for _ in 0..10 {
        let q = vector(&mut rng);
        assert_exact(&engine, &shadow, &q, 10);
    }
}

#[test]
fn faulted_lifecycle_degrades_but_never_lies_then_scrubs_clean() {
    // Wide rows (150 dims → 6 per page) so segment files span many pages
    // and the fault seed actually kills some.
    const WIDE: usize = 150;
    let registry = MetricsRegistry::new();
    let device = Arc::new(WalDevice::new());
    let mut config = IngestConfig::new(WIDE);
    config.memtable_max_bytes = usize::MAX;
    config.fault = Some(FaultConfig {
        seed: 7,
        unreadable_rate: 0.4,
        ..FaultConfig::none()
    });
    let engine = IngestEngine::new(Arc::clone(&device), config, &registry);

    let mut rng = StdRng::seed_from_u64(99);
    let mut shadow: HashMap<u32, Vec<f32>> = HashMap::new();
    for id in 0..90u32 {
        let v: Vec<f32> = (0..WIDE).map(|_| rng.gen_range(-10.0..10.0f32)).collect();
        engine.insert(PointId(id), v.clone()).expect("admitted");
        shadow.insert(id, v);
    }
    engine.seal();

    // Degraded phase: answers must be the exact top-k of the *readable*
    // candidates — hits ∪ missing covers the true top-k, no substitutions.
    let mut degraded = 0;
    for _ in 0..12 {
        let q: Vec<f32> = (0..WIDE).map(|_| rng.gen_range(-10.0..10.0f32)).collect();
        let answer = engine.query(&q, 8);
        if !answer.missing.is_empty() {
            degraded += 1;
        }
        let mut readable = shadow.clone();
        for id in &answer.missing {
            readable.remove(&id.0);
        }
        let got: Vec<PointId> = answer.hits.iter().map(|&(_, id)| id).collect();
        assert_eq!(
            got,
            reference(&readable, &q, 8),
            "degraded answer must be exact over the readable set"
        );
    }
    assert!(degraded > 0, "fault seed never fired — test is vacuous");
    assert!(
        registry.snapshot().counter("retry.attempts").unwrap_or(0) > 0,
        "segment reads must show up in the retry.* series"
    );

    // Scrub repairs from the pristine replica; service returns to exact.
    let report = engine.scrub();
    assert!(report.pages_repaired > 0);
    assert!(report.is_clean());
    for _ in 0..12 {
        let q: Vec<f32> = (0..WIDE).map(|_| rng.gen_range(-10.0..10.0f32)).collect();
        assert_exact(&engine, &shadow, &q, 8);
    }
}
