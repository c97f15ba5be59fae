//! The scalar-vs-vectorized equivalence battery for the blocked compact
//! scan (`hc_core::scan`).
//!
//! A word-parallel bound kernel that is *almost* right silently breaks the
//! exactness guarantee every bench asserts, so equivalence here is bitwise
//! (`f64::to_bits`), never approximate:
//!
//! * blocked kernel ≡ scalar `ApproxScheme::bounds` — for arbitrary dim/τ
//!   (including word-straddling τ = 5, 7, 11 and the τ = 32 mask edge),
//!   random schemes, queries, lanes-per-block, and ragged tail blocks;
//! * AVX2 gather path ≡ scalar-blocked fallback under forced kernel
//!   selection (`Simd::ForceAvx2` vs `Simd::Scalar`), and the AVX2 table fill
//!   ≡ the scalar fill on both halves of every `(lb², ub²)` entry;
//! * the 4-lane exact-distance kernel's AVX2 path ≡ its portable reference;
//! * the one routine that bounds row-major cached points
//!   (`hc_cache::tables::bound_rows`: the lock-step walk, full groups and
//!   every tail width) ≡ per-row `ApproxScheme::bounds`, for global,
//!   individual (ragged) and multi-dimensional schemes, τ ∈ {1, 5, 8, 13, 32};
//! * the node caches' leaf routine (`hc_cache::node::leaf_bounds`: memoised
//!   tables + `bound_rows` over the leaf's members) ≡ the same, over the same
//!   schemes, for leaves of 1, 6 and 65 members;
//! * the point cache's batch path (`CompactPointCache::lookup_batch`: the
//!   same memoised tables, `bound_rows` over the hits' rows) ≡
//!   `ApproxScheme::bounds` over the same scheme families, LRU and HFF.
//!
//! CI runs this suite three times: default, `RUSTFLAGS="-C
//! target-feature=+avx2"`, and `HC_SCAN_SIMD=off` (see `ci.sh`).

use std::sync::Arc;

use hc_cache::node::leaf_bounds;
use hc_cache::point::{CacheLookup, CompactPointCache, PointCache};
use hc_cache::tables::{bound_rows, with_query_tables};
use hc_core::bounds::{BoundsAcc, DistBounds};
use hc_core::codes::{pack_codes, words_per_point, CodeIter, PackedCodes};
use hc_core::dataset::{Dataset, PointId};
use hc_core::distance::sq_euclidean_portable;
use hc_core::histogram::classic::{equi_depth, equi_width};
use hc_core::histogram::multidim::MultiDimBuckets;
use hc_core::quantize::Quantizer;
use hc_core::scan::{
    avx2_available, scan_slots, BlockedCodes, QueryTables, ScanIntervals, ScanScratch, Simd,
};
use hc_core::scheme::{ApproxScheme, GlobalScheme, IndividualScheme, MultiDimScheme};
use proptest::prelude::*;

/// Assert two bound pairs are bit-identical (not merely close).
fn assert_bits_eq(got: DistBounds, want: DistBounds, ctx: &str) {
    assert_eq!(
        got.lb.to_bits(),
        want.lb.to_bits(),
        "{ctx}: lb {} vs {}",
        got.lb,
        want.lb
    );
    assert_eq!(
        got.ub.to_bits(),
        want.ub.to_bits(),
        "{ctx}: ub {} vs {}",
        got.ub,
        want.ub
    );
}

/// Synthetic per-dimension interval tables for τ too large to enumerate 2^τ
/// buckets (τ up to 32 packs at full width while indexing a small table —
/// codes are bucket ids, never required to span the whole code space).
fn synth_shared(nb: usize, seed: i64) -> Vec<(f32, f32)> {
    (0..nb)
        .map(|b| {
            let lo = (b as f32) * 0.37 + (seed % 7) as f32 * 0.11 - 2.0;
            (lo, lo + 0.25 + (b % 3) as f32 * 0.4)
        })
        .collect()
}

fn run_all_kernels(
    tables: &QueryTables,
    bc: &BlockedCodes,
    slots: &[(u32, u32)],
    n: usize,
) -> Vec<(DistBounds, DistBounds)> {
    let mut scalar = vec![DistBounds::UNKNOWN; n];
    let mut simd = vec![DistBounds::UNKNOWN; n];
    let mut scratch = ScanScratch::default();
    scan_slots(tables, bc, slots, &mut scalar, &mut scratch, Simd::Scalar);
    let forced = if avx2_available() {
        Simd::ForceAvx2
    } else {
        Simd::Auto
    };
    scan_slots(tables, bc, slots, &mut simd, &mut scratch, forced);
    scalar.into_iter().zip(simd).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Synthetic schemes across the full τ range, arbitrary lanes-per-block
    /// (ragged tails included): blocked scalar ≡ table-free reference, and
    /// the SIMD kernel ≡ blocked scalar, all bitwise.
    #[test]
    fn blocked_matches_scalar_arbitrary_tau(
        tau_i in 0usize..12,
        d in 1usize..40,
        lanes_i in 0usize..6,
        n in 1usize..90,
        seed in 0i64..1000,
    ) {
        const TAUS: [u32; 12] = [1, 2, 3, 5, 7, 8, 11, 13, 16, 21, 27, 32];
        const LANES: [usize; 6] = [1, 3, 5, 8, 17, 64];
        let tau = TAUS[tau_i];
        let lanes = LANES[lanes_i];
        // Bucket count decoupled from 2^τ for big τ (tables are sized by
        // the scheme's bucket count, never 2^τ) but capped so codes fit.
        let nb = 24usize.min(1usize << tau.min(8));
        let real = synth_shared(nb, seed);
        let intervals = ScanIntervals::Shared(&real);
        let q: Vec<f32> = (0..d).map(|j| ((j as i64 * 31 + seed) % 17) as f32 * 0.3 - 2.0).collect();
        let tables = QueryTables::build(&q, &intervals);

        let mut bc = BlockedCodes::with_lanes(d, tau, lanes);
        let mut reference = Vec::with_capacity(n);
        for slot in 0..n {
            let codes: Vec<u32> = (0..d)
                .map(|j| ((slot as i64 * 131 + j as i64 * 17 + seed) % nb as i64) as u32)
                .collect();
            bc.set_lane(slot, codes.iter().copied());
            // Reference: the scalar interval math, dimension-ascending.
            let mut acc = hc_core::bounds::BoundsAcc::new();
            for (j, &c) in codes.iter().enumerate() {
                let (lo, hi) = real[c as usize];
                acc.add(q[j], lo, hi);
            }
            reference.push(acc.finish());
        }
        let slots: Vec<(u32, u32)> = (0..n as u32).map(|s| (s, s)).collect();
        for (i, (scalar, simd)) in run_all_kernels(&tables, &bc, &slots, n).into_iter().enumerate() {
            assert_bits_eq(scalar, reference[i], &format!("scalar tau={tau} lanes={lanes} slot={i}"));
            assert_bits_eq(simd, reference[i], &format!("simd tau={tau} lanes={lanes} slot={i}"));
        }
    }

    /// Real global scheme end to end: encode → transpose → blocked scan vs
    /// `ApproxScheme::bounds` over the packed words. Random subsets probe
    /// sparse and dense block groups alike.
    #[test]
    fn global_scheme_blocked_matches_bounds(
        buckets_i in 0usize..5,
        d in 1usize..24,
        n in 1usize..100,
        pick_every in 1usize..5,
        seed in 0u64..500,
    ) {
        const BUCKETS: [u32; 5] = [2, 4, 8, 32, 128];
        let buckets = BUCKETS[buckets_i];
        let rows: Vec<Vec<f32>> = (0..n.max(2))
            .map(|i| (0..d).map(|j| ((i as u64 * 37 + j as u64 * 11 + seed) % 97) as f32).collect())
            .collect();
        let ds = Dataset::from_rows(&rows);
        let (lo, hi) = ds.value_range();
        let scheme = GlobalScheme::new(equi_width(256, buckets), Quantizer::new(lo, hi, 256), d);
        let q: Vec<f32> = (0..d).map(|j| ((j as u64 * 13 + seed) % 97) as f32).collect();

        let mut pc = PackedCodes::new(d, scheme.tau());
        for row in &rows {
            let mut w = Vec::new();
            scheme.encode_into(row, &mut w);
            pc.push(hc_core::codes::CodeIter::new(&w, scheme.tau(), d));
        }
        let bc = BlockedCodes::from_packed(&pc);
        let intervals = scheme.scan_intervals().expect("global scheme has intervals");
        let tables = QueryTables::build(&q, &intervals);

        let picked: Vec<u32> = (0..pc.len() as u32).step_by(pick_every).collect();
        let slots: Vec<(u32, u32)> = picked.iter().enumerate().map(|(i, &s)| (s, i as u32)).collect();
        for (i, (scalar, simd)) in
            run_all_kernels(&tables, &bc, &slots, picked.len()).into_iter().enumerate()
        {
            let want = scheme.bounds(&q, pc.point_words(picked[i] as usize));
            assert_bits_eq(scalar, want, &format!("scalar b={buckets} slot={}", picked[i]));
            assert_bits_eq(simd, want, &format!("simd b={buckets} slot={}", picked[i]));
        }
    }

    /// Individual (per-dimension histogram) scheme: ragged per-dim bucket
    /// counts exercise the table stride padding.
    #[test]
    fn individual_scheme_blocked_matches_bounds(
        d in 2usize..10,
        n in 2usize..60,
        seed in 0u64..300,
    ) {
        let rows: Vec<Vec<f32>> = (0..n)
            .map(|i| (0..d).map(|j| ((i as u64 * 41 + j as u64 * 29 + seed) % 89) as f32).collect())
            .collect();
        let ds = Dataset::from_rows(&rows);
        let mut hists = Vec::new();
        let mut quants = Vec::new();
        for j in 0..d {
            let col: Vec<f32> = rows.iter().map(|r| r[j]).collect();
            let quant = Quantizer::new(-1.0, 90.0, 128);
            let freq = quant.frequency_array(&col);
            // Ragged: bucket count varies per dimension.
            let b = 2 + (j % 4) as u32 * 2;
            hists.push(equi_depth(&freq, b));
            quants.push(quant);
        }
        let scheme = IndividualScheme::new(hists, quants);
        let q: Vec<f32> = (0..d).map(|j| ((j as u64 * 53 + seed) % 89) as f32).collect();

        let mut pc = PackedCodes::new(d, scheme.tau());
        for row in &rows {
            let mut w = Vec::new();
            scheme.encode_into(row, &mut w);
            pc.push(hc_core::codes::CodeIter::new(&w, scheme.tau(), d));
        }
        let bc = BlockedCodes::from_packed(&pc);
        let tables = QueryTables::build(&q, &scheme.scan_intervals().expect("per-dim intervals"));
        let slots: Vec<(u32, u32)> = (0..n as u32).map(|s| (s, s)).collect();
        for (i, (scalar, simd)) in run_all_kernels(&tables, &bc, &slots, n).into_iter().enumerate() {
            let want = scheme.bounds(&q, pc.point_words(i));
            assert_bits_eq(scalar, want, &format!("scalar ihc slot={i}"));
            assert_bits_eq(simd, want, &format!("simd ihc slot={i}"));
        }
        let _ = ds;
    }

    /// The 4-lane exact-distance kernel: AVX2 ≡ portable, bitwise, for
    /// arbitrary dimensionality (ragged tails) and values.
    #[test]
    fn exact_distance_kernels_bit_identical(
        d in 1usize..300,
        seed in 0u64..1000,
    ) {
        let q: Vec<f32> = (0..d).map(|j| ((j as u64 * 71 + seed) % 113) as f32 * 0.17 - 9.0).collect();
        let c: Vec<f32> = (0..d).map(|j| ((j as u64 * 43 + seed * 3) % 113) as f32 * 0.13 - 7.0).collect();
        let portable = sq_euclidean_portable(&q, &c);
        let dispatched = hc_core::distance::sq_euclidean(&q, &c);
        prop_assert_eq!(portable.to_bits(), dispatched.to_bits());
        #[cfg(target_arch = "x86_64")]
        if avx2_available() {
            // SAFETY: availability checked.
            let simd = unsafe { hc_core::distance::sq_euclidean_avx2(&q, &c) };
            prop_assert_eq!(portable.to_bits(), simd.to_bits());
        }
    }
}

/// Deterministic sweep of every word-straddling τ with dense block groups —
/// the exact configurations the proptests sample, pinned so a CI run can
/// never miss them.
#[test]
fn straddling_taus_dense_blocks_exhaustive() {
    for tau in [5u32, 7, 11] {
        for lanes in [64usize, 7] {
            let d = 19;
            let nb = 24;
            let real = synth_shared(nb, tau as i64);
            let q: Vec<f32> = (0..d).map(|j| j as f32 * 0.21 - 1.0).collect();
            let tables = QueryTables::build(&q, &ScanIntervals::Shared(&real));
            let mut bc = BlockedCodes::with_lanes(d, tau, lanes);
            let n = 130; // several blocks + ragged tail
            for slot in 0..n {
                bc.set_lane(slot, (0..d).map(|j| ((slot * 7 + j * 3) % nb) as u32));
            }
            let slots: Vec<(u32, u32)> = (0..n as u32).map(|s| (s, s)).collect();
            for (i, (scalar, simd)) in run_all_kernels(&tables, &bc, &slots, n)
                .into_iter()
                .enumerate()
            {
                let want = tables.lane_bounds(bc.lane_codes(i));
                assert_bits_eq(scalar, want, &format!("tau={tau} lanes={lanes} slot={i}"));
                assert_bits_eq(simd, want, &format!("tau={tau} lanes={lanes} slot={i}"));
            }
        }
    }
}

/// The vectorized table fill must reproduce the scalar fill bit for bit, on
/// both halves of every `(lb², ub²)` entry — including inside-interval zeros,
/// ragged (non-multiple-of-4) bucket counts, and intervals on both sides of
/// the query.
#[test]
fn pair_table_fill_avx2_matches_scalar() {
    if !avx2_available() {
        return;
    }
    for nb in [1usize, 2, 3, 4, 5, 7, 8, 13, 64, 255, 256] {
        let real: Vec<(f32, f32)> = (0..nb)
            .map(|b| (b as f32 * 0.5 - 3.0, b as f32 * 0.5 - 2.5))
            .collect();
        // Queries below, inside, between, and above the intervals.
        let q: Vec<f32> = (0..9).map(|j| j as f32 * 7.7 - 5.0).collect();
        let intervals = ScanIntervals::Shared(&real);
        let scalar = QueryTables::build_with(&q, &intervals, Simd::Scalar);
        let simd = QueryTables::build_with(&q, &intervals, Simd::ForceAvx2);
        assert_eq!((scalar.dim(), scalar.stride()), (simd.dim(), simd.stride()));
        for j in 0..q.len() {
            for b in 0..nb {
                let (want, got) = (scalar.entry(j, b), simd.entry(j, b));
                assert_eq!(got[0].to_bits(), want[0].to_bits(), "nb={nb} lb²[{j}][{b}]");
                assert_eq!(got[1].to_bits(), want[1].to_bits(), "nb={nb} ub²[{j}][{b}]");
            }
        }
    }
}

/// The compact cache consumes schemes through `Arc<dyn ApproxScheme>`; make
/// sure interval access survives the trait object.
#[test]
fn scan_intervals_through_trait_object() {
    let rows: Vec<Vec<f32>> = (0..32)
        .map(|i| vec![i as f32, (i * 3 % 17) as f32])
        .collect();
    let ds = Dataset::from_rows(&rows);
    let (lo, hi) = ds.value_range();
    let scheme: Arc<dyn ApproxScheme> = Arc::new(GlobalScheme::new(
        equi_width(64, 8),
        Quantizer::new(lo, hi, 64),
        2,
    ));
    let q = [3.0f32, 5.0];
    let tables = QueryTables::build(&q, &scheme.scan_intervals().expect("intervals"));
    let words = scheme.encode(&rows[7]);
    let want = scheme.bounds(&q, &words);
    let got = tables.lane_bounds(hc_core::codes::CodeIter::new(&words, scheme.tau(), 2));
    assert_bits_eq(got, want, "trait object");
}

/// A shared-table scheme whose code width is chosen freely: `nb` buckets
/// packed at `tau` bits. Real histograms tie τ to the bucket count
/// (`⌈log₂ B⌉`), which puts τ = 32 out of reach; the leaf routine's decode
/// and table walk depend on τ and the tables on `nb`, separately.
struct WideScheme {
    d: usize,
    tau: u32,
    real: Vec<(f32, f32)>,
}

impl WideScheme {
    fn code_of(&self, v: f32) -> u32 {
        self.real
            .iter()
            .position(|&(_, hi)| v <= hi)
            .unwrap_or(self.real.len() - 1) as u32
    }
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
        pack_codes(point.iter().map(|&v| self.code_of(v)), self.tau, out);
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
        unreachable!("the leaf routine never asks")
    }
    fn scan_intervals(&self) -> Option<ScanIntervals<'_>> {
        Some(ScanIntervals::Shared(&self.real))
    }
}

/// Values in `[0, 100)`, deterministic, different per `(point, dim, salt)`.
fn leaf_value(i: usize, j: usize, salt: usize) -> f32 {
    ((i * 131 + j * 37 + salt * 17) % 1000) as f32 * 0.1
}

/// `leaf_bounds` against per-member `scheme.bounds`, bitwise, for leaves of
/// 1, 6 and 65 members and three queries asked in the order a, b, a — the
/// third call finds the thread's table memo holding another query's tables.
fn assert_leaf_path_matches(scheme: &Arc<dyn ApproxScheme>, ctx: &str) {
    let d = scheme.dim();
    let wpp = scheme.words_per_point();
    let query = |salt: usize| -> Vec<f32> { (0..d).map(|j| leaf_value(7, j, salt)).collect() };
    for members in [1usize, 6, 65] {
        let mut words = Vec::new();
        for i in 0..members {
            let p: Vec<f32> = (0..d).map(|j| leaf_value(i, j, members)).collect();
            scheme.encode_into(&p, &mut words);
        }
        assert_eq!(words.len(), members * wpp);
        for q in [query(1), query(2), query(1)] {
            let got = leaf_bounds(scheme, &q, &words);
            assert_eq!(got.len(), members, "{ctx}: member count");
            for (i, (got, member)) in got.iter().zip(words.chunks_exact(wpp)).enumerate() {
                let want = scheme.bounds(&q, member);
                assert_bits_eq(*got, want, &format!("{ctx} members={members} i={i}"));
            }
        }
    }
}

/// The scheme families and code widths both table-walk legs run over. d = 19
/// makes τ = 5 and τ = 13 straddle word boundaries inside a point's row and
/// leaves the row's last word partly used.
fn battery_schemes() -> Vec<(String, Arc<dyn ApproxScheme>)> {
    const D: usize = 19;
    let mut schemes: Vec<(String, Arc<dyn ApproxScheme>)> = Vec::new();
    for tau in [1u32, 5, 8, 13] {
        let n_dom = 1u32 << 13;
        let scheme = GlobalScheme::new(
            equi_width(n_dom, 1 << tau),
            Quantizer::new(0.0, 100.0, n_dom),
            D,
        );
        assert_eq!(scheme.tau(), tau);
        schemes.push((format!("global tau={tau}"), Arc::new(scheme)));
    }
    for tau in [1u32, 5, 8, 13, 32] {
        let real = synth_shared(2usize.pow(tau.min(5)).max(2), tau as i64);
        let scheme = WideScheme { d: D, tau, real };
        schemes.push((format!("wide tau={tau}"), Arc::new(scheme)));
    }
    for tau in [5u32, 8, 13] {
        // Ragged: dimension j has between 2 and 2^τ buckets.
        let n_dom = 1u32 << 13;
        let (hists, quants): (Vec<_>, Vec<_>) = (0..D)
            .map(|j| {
                let buckets = if j == 3 {
                    1 << tau
                } else {
                    2 + (j as u32 % 5) * 3
                };
                (
                    equi_width(n_dom, buckets),
                    Quantizer::new(-1.0 - j as f32, 101.0, n_dom),
                )
            })
            .unzip();
        let scheme = IndividualScheme::new(hists, quants);
        assert_eq!(scheme.tau(), tau);
        schemes.push((format!("individual tau={tau}"), Arc::new(scheme)));
    }
    // mHC-R: no per-dimension intervals, so the routine must fall back to
    // `scheme.bounds` (one word per member).
    // Slabs along dimension 0, so every point lies in exactly one rectangle.
    let rects: Vec<(Vec<f32>, Vec<f32>)> = (0..5)
        .map(|r| {
            let (mut lo, mut hi) = (vec![0.0f32; D], vec![100.0f32; D]);
            (lo[0], hi[0]) = (r as f32 * 20.0, r as f32 * 20.0 + 20.0);
            (lo, hi)
        })
        .collect();
    let multidim = MultiDimScheme::new(MultiDimBuckets::from_rects(&rects));
    assert!(multidim.scan_intervals().is_none());
    schemes.push(("multidim".to_owned(), Arc::new(multidim)));
    schemes
}

/// `bound_rows` — the routine both cache towers bound their rows with —
/// against per-row `scheme.bounds`, bitwise, for every row count from none to
/// seventeen: every full-group count and every tail width of a lock-step walk
/// up to eight wide. From two rows up the second row *is* the first, so one
/// group holds the same row twice.
#[test]
fn bound_rows_matches_scheme_bounds_at_every_row_count() {
    for (ctx, scheme) in battery_schemes() {
        let d = scheme.dim();
        let points: Vec<Vec<u64>> = (0..17)
            .map(|i| scheme.encode(&(0..d).map(|j| leaf_value(i, j, 5)).collect::<Vec<_>>()))
            .collect();
        let q: Vec<f32> = (0..d).map(|j| leaf_value(7, j, 1)).collect();
        for count in 0..=points.len() {
            let mut rows: Vec<&[u64]> = points[..count].iter().map(Vec::as_slice).collect();
            if count >= 2 {
                rows[1] = rows[0];
            }
            let mut got = Vec::new();
            with_query_tables(&scheme, &q, Simd::Auto, |tables| {
                assert_eq!(tables.is_some(), scheme.scan_intervals().is_some());
                bound_rows(scheme.as_ref(), tables, &q, rows.iter().copied(), |b| {
                    got.push(b)
                });
            });
            assert_eq!(got.len(), count, "{ctx}: one bound per row");
            for (i, (got, row)) in got.iter().zip(&rows).enumerate() {
                let want = scheme.bounds(&q, row);
                assert_bits_eq(*got, want, &format!("{ctx} rows={count} i={i}"));
            }
        }
    }
}

/// The leaf path of the node caches across scheme families and code widths.
/// Schemes alternate, so every `leaf_bounds` call after a switch must refill
/// the memo.
#[test]
fn leaf_path_matches_scheme_bounds() {
    let schemes = battery_schemes();
    for (ctx, scheme) in &schemes {
        assert_leaf_path_matches(scheme, ctx);
    }
    // Back through the list in reverse: each scheme is now probed right
    // after a *different* predecessor than the first time.
    for (ctx, scheme) in schemes.iter().rev() {
        assert_leaf_path_matches(scheme, ctx);
    }
}

/// The point cache's batch path across the same families: every hit of
/// `lookup_batch` — an LRU cache after evictions reused rows, and a static
/// HFF fill — carries exactly `scheme.bounds` of the point's encoding, and
/// every non-resident id is a miss. Queries go a, b, a, and the schemes
/// alternate as in the leaf leg, so the memo is refilled and reused.
#[test]
fn point_batch_path_matches_scheme_bounds() {
    const N: usize = 70;
    let schemes = battery_schemes();
    for (ctx, scheme) in schemes.iter().chain(schemes.iter().rev()) {
        let d = scheme.dim();
        let rows: Vec<Vec<f32>> = (0..N)
            .map(|i| (0..d).map(|j| leaf_value(i, j, 3)).collect())
            .collect();
        let ds = Dataset::from_rows(&rows);
        let ids: Vec<PointId> = (0..N as u32).map(PointId).collect();
        let budget = scheme.bytes_per_point() * 40;
        let mut lru = CompactPointCache::lru(Arc::clone(scheme), budget);
        for &id in ids.iter().chain(&ids[..25]) {
            lru.admit(id, ds.point(id));
        }
        let hff = CompactPointCache::hff(&ds, &ids, budget, Arc::clone(scheme));
        for (policy, mut cache) in [("lru", lru), ("hff", hff)] {
            assert_eq!(cache.len(), 40, "{ctx} {policy}");
            for salt in [1usize, 2, 1] {
                let q: Vec<f32> = (0..d).map(|j| leaf_value(7, j, salt)).collect();
                let mut out = Vec::new();
                cache.lookup_batch(&q, &ids, &mut out);
                assert_eq!(out.len(), N);
                for (&id, got) in ids.iter().zip(&out) {
                    let ctx = format!("{ctx} {policy} {id}");
                    match got {
                        CacheLookup::Bounds(got) => {
                            assert!(cache.contains(id), "{ctx}: hit on a non-resident id");
                            let want = scheme.bounds(&q, &scheme.encode(ds.point(id)));
                            assert_bits_eq(*got, want, &ctx);
                        }
                        CacheLookup::Miss => assert!(!cache.contains(id), "{ctx}: missed"),
                        CacheLookup::Exact(_) => panic!("{ctx}: compact cache answered exact"),
                    }
                }
            }
        }
    }
}
