//! Property-based tests (proptest) for the core invariants the paper's
//! correctness rests on:
//!
//! 1. bounds soundness — `dist⁻ ≤ dist ≤ dist⁺` for every scheme and data,
//! 2. Lemma 1 — `dist⁺ − dist ≤ ||ε(c)||`,
//! 3. code round-trips through bit packing,
//! 4. histogram well-formedness (cover the domain, ≤ B buckets) for every
//!    construction on arbitrary frequency arrays,
//! 5. Algorithm 2 DP optimality against brute force on small domains,
//! 6. Lemma 3 monotonicity of Υ,
//! 7. multi-step refinement = exact kNN for arbitrary lower bounds that are
//!    sound.

use proptest::prelude::*;

use exploit_every_bit::core::codes::{pack_codes, unpack_code, words_per_point};
use exploit_every_bit::core::dataset::{Dataset, PointId};
use exploit_every_bit::core::distance::euclidean;
use exploit_every_bit::core::histogram::knn_optimal::{m3_metric, UpsilonCost};
use exploit_every_bit::core::histogram::{dp, HistogramKind};
use exploit_every_bit::core::prelude::*;

fn small_points(d: usize, n: usize) -> impl Strategy<Value = Vec<Vec<f32>>> {
    prop::collection::vec(prop::collection::vec(-100.0f32..100.0, d..=d), 1..=n)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// (1) + (2): global-scheme bounds sandwich the exact distance and obey
    /// Lemma 1, for arbitrary data, query, τ, and histogram kind.
    #[test]
    fn bounds_sound_for_all_histograms(
        rows in small_points(4, 12),
        q in prop::collection::vec(-120.0f32..120.0, 4..=4),
        tau in 1u32..8,
        kind_idx in 0usize..4,
    ) {
        let ds = Dataset::from_rows(&rows);
        let (lo, hi) = ds.value_range();
        let quant = Quantizer::new(lo, hi, 256);
        let kind = [
            HistogramKind::EquiWidth,
            HistogramKind::EquiDepth,
            HistogramKind::VOptimal,
            HistogramKind::KnnOptimal,
        ][kind_idx];
        let freq = quant.frequency_array(ds.as_flat());
        let hist = kind.build(&freq, 1 << tau);
        let scheme = GlobalScheme::new(hist, quant, ds.dim());
        for (_, p) in ds.iter() {
            let w = scheme.encode(p);
            let b = scheme.bounds(&q, &w);
            let d = euclidean(&q, p);
            prop_assert!(b.lb <= d + 1e-5, "lb {} > dist {d}", b.lb);
            prop_assert!(b.ub >= d - 1e-5, "ub {} < dist {d}", b.ub);
            let eps = scheme.error_norm_sq(&w).sqrt();
            prop_assert!(b.ub - d <= eps + 1e-4, "Lemma 1 violated: {} > {eps}", b.ub - d);
        }
    }

    /// (3): bit packing round-trips arbitrary code sequences at any τ.
    #[test]
    fn codes_round_trip(
        tau in 1u32..=24,
        codes in prop::collection::vec(0u32..u32::MAX, 1..40),
    ) {
        let mask = if tau == 32 { u32::MAX } else { (1u32 << tau) - 1 };
        let codes: Vec<u32> = codes.into_iter().map(|c| c & mask).collect();
        let mut words = Vec::new();
        pack_codes(codes.iter().copied(), tau, &mut words);
        prop_assert_eq!(words.len(), words_per_point(codes.len(), tau));
        for (i, &c) in codes.iter().enumerate() {
            prop_assert_eq!(unpack_code(&words, tau, i), c);
        }
    }

    /// (4): every construction yields a well-formed histogram — covers
    /// [0, N_dom), at most B buckets, strictly increasing boundaries.
    #[test]
    fn histograms_are_well_formed(
        freq in prop::collection::vec(0u64..50, 4..64),
        b in 1u32..32,
        kind_idx in 0usize..4,
    ) {
        let kind = [
            HistogramKind::EquiWidth,
            HistogramKind::EquiDepth,
            HistogramKind::VOptimal,
            HistogramKind::KnnOptimal,
        ][kind_idx];
        let n_dom = freq.len() as u32;
        let hist = kind.build(&freq, b);
        prop_assert!(hist.num_buckets() as u32 <= b.min(n_dom));
        prop_assert_eq!(hist.bucket_levels(0).0, 0);
        prop_assert_eq!(hist.bucket_levels(hist.num_buckets() as u32 - 1).1, n_dom - 1);
        // Every level maps to exactly one bucket whose interval contains it.
        for level in 0..n_dom {
            let bk = hist.bucket_of_level(level);
            let (l, u) = hist.bucket_levels(bk);
            prop_assert!(l <= level && level <= u);
        }
    }

    /// (5): Algorithm 2 matches exhaustive search on small domains.
    #[test]
    fn dp_is_optimal_on_small_domains(
        freq in prop::collection::vec(0u64..9, 3..10),
        b in 1u32..5,
    ) {
        let hist = HistogramKind::KnnOptimal.build(&freq, b);
        let got = m3_metric(&hist, &freq);
        let want = brute_force_m3(&freq, b);
        prop_assert!((got - want).abs() < 1e-9, "dp {got} vs brute {want}");
    }

    /// (6): Υ is monotone under left-expansion (Lemma 3) for arbitrary F'.
    #[test]
    fn upsilon_monotone(freq in prop::collection::vec(0u64..100, 2..24)) {
        let cost = UpsilonCost::new(&freq);
        let n = freq.len() as u32;
        for u in 0..n {
            let mut prev = f64::NEG_INFINITY;
            for l in (0..=u).rev() {
                let c = dp::IntervalCost::cost(&cost, l, u);
                prop_assert!(c >= prev - 1e-12);
                prev = c;
            }
        }
    }

    /// (7): multi-step refinement with arbitrary *sound* lower bounds always
    /// returns the exact kNN among candidates — for every look-ahead depth,
    /// and with any prefix of the points already known exactly.
    #[test]
    fn refine_is_exact_for_sound_bounds(
        rows in small_points(3, 15),
        q in prop::collection::vec(-120.0f32..120.0, 3..=3),
        k in 1usize..5,
        slack in prop::collection::vec(0.0f64..50.0, 15),
        lookahead in 0usize..=8,
        known in 0usize..15,
    ) {
        use exploit_every_bit::storage::refine::{refine, BestK, Candidate, Fetcher, NoSink};
        use exploit_every_bit::storage::{PointFile, RealClock, RetryObs, RetryPolicy};

        let ds = Dataset::from_rows(&rows);
        let file = PointFile::new(ds.clone());
        let mut best = BestK::new(k);
        let mut candidates = Vec::new();
        for (id, p) in ds.iter() {
            let d = euclidean(&q, p);
            if id.index() < known {
                best.push(id, d);
            } else {
                // A sound lower bound: exact distance minus arbitrary slack.
                let lb = (d - slack[id.index() % slack.len()]).max(0.0);
                candidates.push(Candidate { id, lb });
            }
        }
        let obs = RetryObs::new();
        let mut fetcher = Fetcher::new(&file, RetryPolicy::default(), &obs, &RealClock);
        let out = refine(&mut fetcher, &q, best, candidates, Vec::new(), lookahead, &mut NoSink);
        // Compare against sorted exact distances.
        let mut all: Vec<f64> = ds.iter().map(|(_, p)| euclidean(&q, p)).collect();
        all.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let want = &all[..k.min(all.len())];
        prop_assert_eq!(out.results.len(), want.len());
        for ((_, got), want) in out.results.iter().zip(want) {
            prop_assert!((got - want).abs() < 1e-9);
        }
    }
}

/// Exhaustive minimum of the M3 metric over partitions into at most `b`
/// buckets.
fn brute_force_m3(freq: &[u64], b: u32) -> f64 {
    fn upsilon(freq: &[u64], l: usize, u: usize) -> f64 {
        let w: u64 = freq[l..=u].iter().sum();
        let width = (u - l) as f64;
        w as f64 * width * width
    }
    fn rec(freq: &[u64], start: usize, b: u32) -> f64 {
        if start == freq.len() {
            return 0.0;
        }
        if b == 1 {
            return upsilon(freq, start, freq.len() - 1);
        }
        let mut best = f64::INFINITY;
        for end in start..freq.len() {
            let c = upsilon(freq, start, end) + rec(freq, end + 1, b - 1);
            if c < best {
                best = c;
            }
        }
        best
    }
    rec(freq, 0, b)
}

/// Deterministic cross-check that `PointId` ordering in QR construction is
/// stable (regression guard for the builder's tie-breaking).
#[test]
fn pointid_ordering_is_stable() {
    let mut v = vec![PointId(3), PointId(1), PointId(2)];
    v.sort();
    assert_eq!(v, vec![PointId(1), PointId(2), PointId(3)]);
}
