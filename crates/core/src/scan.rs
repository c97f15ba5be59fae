//! Blocked compact scan: bound whole blocks of candidates per pass.
//!
//! Phase 2 of Algorithm 1 walks every candidate's τ-bit codes and recomputes
//! the per-bucket interval distances scalar-wise, per candidate. The PQ
//! fast-scan playbook (André, "Exploiting Modern Hardware for
//! High-Dimensional Nearest Neighbor Search") maps directly onto our
//! bit-packed codes and splits that work in two:
//!
//! 1. **Once per query** — precompute, for every dimension `j` and every
//!    bucket `b`, the `(lb², ub²)` contribution of `q[j]` against bucket
//!    `b`'s real interval ([`QueryTables`]). The interval math runs `d·nb`
//!    times instead of `d·|C|` times.
//! 2. **Per block of candidates** — store resident codes transposed
//!    (dimension-major, [`BlockedCodes`]) so one pass per dimension extracts
//!    a whole block's codes with word-parallel shifts/masks and accumulates
//!    table entries into per-lane running sums ([`scan_slots`]). The inner
//!    table-gather loop has a runtime-detected AVX2 path (two lanes'
//!    16-byte `(lb², ub²)` entries per vector add, plain loads; no hardware
//!    gather) with a scalar-blocked fallback. Points stored row-major (the
//!    point and node caches) are walked several at a time in lock-step
//!    instead ([`QueryTables::rows_bounds`]).
//!
//! ## Layout
//!
//! Slots are grouped into blocks of [`LANES`] lanes. Within a block the
//! words are **dimension-major**: dimension `j`'s row packs the block's
//! `LANES` codes contiguously at τ bits each (same packing rule as
//! [`crate::codes::pack_codes`], applied across lanes instead of across
//! dimensions):
//!
//! ```text
//! row-major (PackedCodes)             blocked/transposed (BlockedCodes)
//! slot0: |c00|c01|c02|...|c0,d-1|     dim0: |c00|c10|c20|...|c(L-1),0|
//! slot1: |c10|c11|c12|...|c1,d-1|     dim1: |c01|c11|c21|...|c(L-1),1|
//!  ...                                 ...        (one block, L lanes)
//! ```
//!
//! With `LANES = 64` a block's row is exactly `τ` words — the transpose is
//! the *same bits* reshaped, zero padding for every τ (row-major padding is
//! per point, blocked padding only in the final partial block).
//!
//! ## Why the bounds stay bit-exact
//!
//! Table entries are computed by the same [`interval_contrib`] the scalar
//! [`crate::bounds::BoundsAcc`] path uses, and every kernel accumulates a
//! candidate's terms **per lane in dimension-ascending order** — the exact
//! addition sequence of the scalar path. Vectorization happens *across
//! candidates* (one `[lb², ub²]` accumulator per lane), never across
//! dimensions, so
//! f64 non-associativity never enters: `scan_slots` output is bit-identical
//! to `ApproxScheme::bounds`, and the AVX2 gather path is bit-identical to
//! the scalar-blocked fallback (per-lane adds are independent). The
//! equivalence battery in `crates/core/tests/scan_equivalence.rs` enforces
//! this with `f64::to_bits` comparisons.

use std::sync::OnceLock;

use crate::bounds::{interval_contrib, DistBounds};
use crate::codes::{pack_codes, words_per_point, PackedCodes};

/// Lanes (candidate slots) per block. 64 makes every dimension row exactly
/// τ words: `64·τ` bits per row for any τ in `[1, 32]`.
pub const LANES: usize = 64;

/// Minimum candidates resident in one block before the whole-block kernel
/// pays for itself; sparser blocks go through the per-lane table path
/// (which is bit-identical, so this threshold is a pure perf knob).
const MIN_BLOCK_GROUP: usize = 8;

/// Per-dimension bucket intervals a scheme exposes for table precompute.
///
/// `Shared` — one interval table for every dimension (global-histogram
/// schemes); `PerDim` — dimension `j` has its own table (individual-histogram
/// schemes, possibly ragged). Schemes without per-dimension bucket structure
/// (the multi-dimensional scheme) return `None` from
/// [`crate::scheme::ApproxScheme::scan_intervals`] and keep the scalar path.
#[derive(Debug, Clone, Copy)]
pub enum ScanIntervals<'a> {
    /// Every dimension shares one bucket → `[lo, hi]` table.
    Shared(&'a [(f32, f32)]),
    /// `tables[j]` is dimension `j`'s bucket → `[lo, hi]` table.
    PerDim(&'a [Vec<(f32, f32)>]),
}

impl ScanIntervals<'_> {
    /// Bucket count of dimension `j`.
    #[inline]
    fn buckets(&self, j: usize) -> usize {
        match self {
            ScanIntervals::Shared(t) => t.len(),
            ScanIntervals::PerDim(t) => t[j].len(),
        }
    }

    /// Interval of bucket `code` on dimension `j`.
    #[inline]
    pub fn interval(&self, j: usize, code: u32) -> (f32, f32) {
        match self {
            ScanIntervals::Shared(t) => t[code as usize],
            ScanIntervals::PerDim(t) => t[j][code as usize],
        }
    }

    /// Dimension `j`'s full interval table, contiguous.
    #[inline]
    fn row(&self, j: usize) -> &[(f32, f32)] {
        match self {
            ScanIntervals::Shared(t) => t,
            ScanIntervals::PerDim(t) => &t[j],
        }
    }
}

/// Per-query bucket-distance tables: for each dimension `j` and bucket `b`,
/// the `(lb², ub²)` contribution of `q[j]` against bucket `b`'s interval.
///
/// Built once per query (cost `O(d·nb)`), then every candidate's bounds are
/// `d` table reads instead of `d` interval computations. Rows are padded
/// to a uniform `stride` (the max bucket count over dimensions) so kernels
/// index with one multiply. A bucket's two contributions sit side by side in
/// one 16-byte entry, so a lookup touches one cache line, not one in each of
/// two arrays.
#[derive(Default)]
pub struct QueryTables {
    d: usize,
    stride: usize,
    /// `pairs[j·stride + b] = [lb², ub²]` of `q[j]` against bucket `b`.
    pairs: Vec<[f64; 2]>,
}

impl QueryTables {
    /// Build the tables for query `q` against a scheme's bucket intervals.
    pub fn build(q: &[f32], intervals: &ScanIntervals<'_>) -> Self {
        Self::build_with(q, intervals, Simd::Auto)
    }

    /// [`QueryTables::build`] with an explicit SIMD selection — the
    /// equivalence tests force each path and compare outputs bitwise. The
    /// table entries are independent (pure elementwise interval math), so
    /// vectorizing the build across buckets cannot change a single bit.
    pub fn build_with(q: &[f32], intervals: &ScanIntervals<'_>, simd: Simd) -> Self {
        let mut tables = Self::default();
        tables.rebuild(q, intervals, simd);
        tables
    }

    /// Refill `self` for a new query, reusing the table storage. Repeated
    /// per-query builds through one buffer skip the multi-hundred-KB
    /// allocation (and its page faults) that a fresh [`QueryTables::build`]
    /// pays; the resulting entries are identical.
    pub fn rebuild(&mut self, q: &[f32], intervals: &ScanIntervals<'_>, simd: Simd) {
        let d = q.len();
        let stride = (0..d).map(|j| intervals.buckets(j)).max().unwrap_or(0);
        assert!(
            stride > 0 && stride <= i32::MAX as usize,
            "bucket count {stride} unusable for table scan"
        );
        self.d = d;
        self.stride = stride;
        // Size the storage without re-zeroing on reuse: every entry below a
        // row's bucket count is overwritten by the fill, and entries at or
        // beyond it are never gathered (codes index below the bucket count),
        // so stale padding from a previous query is unobservable.
        let len = d * stride;
        if self.pairs.len() != len {
            self.pairs.clear();
            self.pairs.resize(len, [0.0; 2]);
        }
        let use_avx2 = simd.use_avx2();
        for (j, &qj) in q.iter().enumerate() {
            let buckets = intervals.row(j);
            let row = &mut self.pairs[j * stride..j * stride + buckets.len()];
            #[cfg(target_arch = "x86_64")]
            if use_avx2 {
                // SAFETY: `use_avx2` implies runtime AVX2 support; `row` was
                // sliced to `buckets.len()` entries above.
                unsafe { fill_row_avx2(qj, buckets, row) };
                continue;
            }
            #[cfg(not(target_arch = "x86_64"))]
            let _ = use_avx2;
            fill_row_scalar(qj, buckets, row);
        }
    }

    /// Dimensionality the tables were built for.
    #[inline]
    pub fn dim(&self) -> usize {
        self.d
    }

    /// Row stride (padded bucket count).
    #[inline]
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Dimension `j`'s table row: `stride` entries, of which the leading
    /// bucket count are filled.
    #[inline]
    fn row(&self, j: usize) -> &[[f64; 2]] {
        &self.pairs[j * self.stride..(j + 1) * self.stride]
    }

    /// The `[lb², ub²]` contribution of `q[j]` against bucket `bucket`.
    #[inline]
    pub fn entry(&self, j: usize, bucket: usize) -> [f64; 2] {
        self.pairs[j * self.stride + bucket]
    }

    /// Bound a single candidate through the tables, one code at a time — the
    /// reference the lock-step and blocked walks are tested against.
    /// Accumulates in dimension-ascending order — the same f64 addition
    /// sequence as `ApproxScheme::bounds`, hence bit-identical output.
    #[inline]
    pub fn lane_bounds(&self, codes: impl Iterator<Item = u32>) -> DistBounds {
        let mut acc = [0.0f64; 2];
        for (j, code) in codes.enumerate() {
            add_pair(&mut acc, self.entry(j, code as usize));
        }
        finish(acc)
    }

    /// Bound `N` row-major packed points (`⌈d·τ/64⌉` words each, as
    /// [`crate::codes::pack_codes`] lays them out) in lock-step: dimension
    /// `j` of all `N` before dimension `j + 1` of any.
    ///
    /// One point walked alone is a chain of `d` dependent f64 adds per
    /// bound, each waiting on a table load; `N` points give the core `N`
    /// independent chains and `N` loads to overlap. Every point's own sums
    /// still fold in dimension-ascending order, so each result is
    /// bit-identical to [`QueryTables::lane_bounds`] of that point, and so to
    /// `ApproxScheme::bounds`. All rows share one bit geometry (same `τ`,
    /// same `d`), so where a code sits in its word is tracked once for the
    /// group, not once per point.
    ///
    /// # Panics
    /// Panics if a row is shorter than `⌈d·τ/64⌉` words or holds a code at or
    /// beyond the table stride.
    pub fn rows_bounds<const N: usize>(&self, rows: [&[u64]; N], tau: u32) -> [DistBounds; N] {
        // The same walk twice: with τ = 8 — the width every served stack
        // uses — known at compile time, a code is a byte move and a shift by
        // a constant; by a run-time τ each shift goes through `cl`. Kept on
        // end-to-end pairs against `self.walk(rows, tau)` alone (CHANGES.md,
        // PR 16): `tree_warm` qps 640 → 746, `flat_warm` 2,341 → 2,533,
        // ahead in 10 of 10 each.
        if tau == 8 {
            self.walk(rows, 8)
        } else {
            self.walk(rows, tau)
        }
    }

    #[inline(always)]
    fn walk<const N: usize>(&self, rows: [&[u64]; N], tau: u32) -> [DistBounds; N] {
        let t = tau as usize;
        let mask = code_mask(tau);
        let rows = rows.map(|r| &r[..words_per_point(self.d, tau)]);
        let mut acc = [[0.0f64; 2]; N];
        // Each row's current word with the codes already read shifted out,
        // the count of unread bits left in it (the same for every row), and
        // the index of the word to load next.
        let mut cur = [0u64; N];
        let mut have = 0;
        let mut next = 0;
        for table in self.pairs.chunks_exact(self.stride).take(self.d) {
            if have >= t {
                for (acc, cur) in acc.iter_mut().zip(&mut cur) {
                    add_pair(acc, table[(*cur & mask) as usize]);
                    *cur >>= t;
                }
                have -= t;
            } else {
                // The code's low `have` bits are what is left of the current
                // word (none when the previous code ended on the boundary),
                // the rest are the low bits of the next one.
                for ((acc, cur), row) in acc.iter_mut().zip(&mut cur).zip(&rows) {
                    let word = row[next];
                    add_pair(acc, table[((*cur | word << have) & mask) as usize]);
                    *cur = word >> (t - have);
                }
                next += 1;
                have += 64 - t;
            }
        }
        acc.map(finish)
    }
}

/// Fold one table entry into a candidate's running `[lb², ub²]`.
#[inline(always)]
fn add_pair(acc: &mut [f64; 2], entry: [f64; 2]) {
    acc[0] += entry[0];
    acc[1] += entry[1];
}

/// Running `[lb², ub²]` → bounds.
#[inline(always)]
fn finish(acc: [f64; 2]) -> DistBounds {
    DistBounds {
        lb: acc[0].sqrt(),
        ub: acc[1].sqrt(),
    }
}

/// Cache-resident codes in blocked, dimension-major (transposed) layout —
/// the storage the whole-block kernels scan. See the module docs for the
/// word order (pinned by known-answer tests).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockedCodes {
    d: usize,
    tau: u32,
    lanes: usize,
    /// Words per dimension row = ⌈lanes·τ / 64⌉.
    wpr: usize,
    /// `blocks · d · wpr` words; block `b`, dim `j` row starts at
    /// `(b·d + j)·wpr`.
    words: Vec<u64>,
}

impl BlockedCodes {
    /// Standard layout: [`LANES`] lanes per block.
    pub fn new(d: usize, tau: u32) -> Self {
        Self::with_lanes(d, tau, LANES)
    }

    /// Custom lanes-per-block (tests exercise ragged/odd block sizes; the
    /// serving path always uses [`LANES`]).
    pub fn with_lanes(d: usize, tau: u32, lanes: usize) -> Self {
        assert!((1..=32).contains(&tau), "tau must be in [1, 32]");
        assert!(d > 0 && lanes > 0);
        Self {
            d,
            tau,
            lanes,
            wpr: (lanes * tau as usize).div_ceil(64),
            words: Vec::new(),
        }
    }

    /// Transpose an entire row-major container (slot `i` ↦ lane `i`).
    pub fn from_packed(pc: &PackedCodes) -> Self {
        let mut s = Self::new(pc.dim(), pc.tau());
        for slot in 0..pc.len() {
            s.set_lane(slot, pc.decode(slot));
        }
        s
    }

    #[inline]
    pub fn dim(&self) -> usize {
        self.d
    }

    #[inline]
    pub fn tau(&self) -> u32 {
        self.tau
    }

    /// Lanes per block.
    #[inline]
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Words per dimension row.
    #[inline]
    pub fn words_per_row(&self) -> usize {
        self.wpr
    }

    /// Slots currently addressable (whole blocks; grows on `set_lane`).
    #[inline]
    pub fn capacity_slots(&self) -> usize {
        (self.words.len() / (self.d * self.wpr)) * self.lanes
    }

    /// Total payload bytes of the container.
    #[inline]
    pub fn total_bytes(&self) -> usize {
        self.words.len() * 8
    }

    /// Dimension `j`'s packed code row of block `block`.
    #[inline]
    pub fn row(&self, block: usize, j: usize) -> &[u64] {
        let at = (block * self.d + j) * self.wpr;
        &self.words[at..at + self.wpr]
    }

    /// Grow storage (zero-filled whole blocks) to cover `slot`.
    fn ensure_slot(&mut self, slot: usize) {
        let blocks_needed = slot / self.lanes + 1;
        let words_needed = blocks_needed * self.d * self.wpr;
        if self.words.len() < words_needed {
            self.words.resize(words_needed, 0);
        }
    }

    /// Write (or overwrite — slots are reused on eviction) one candidate's
    /// codes into its lane across all dimension rows.
    pub fn set_lane(&mut self, slot: usize, codes: impl ExactSizeIterator<Item = u32>) {
        debug_assert_eq!(codes.len(), self.d);
        self.ensure_slot(slot);
        let tau = self.tau as usize;
        let mask = code_mask(self.tau);
        let lane = slot % self.lanes;
        let block = slot / self.lanes;
        let bit = lane * tau;
        let w = bit / 64;
        let shift = bit % 64;
        let spills = shift + tau > 64;
        for (j, code) in codes.enumerate() {
            debug_assert!(self.tau == 32 || u64::from(code) <= mask);
            let at = (block * self.d + j) * self.wpr;
            let row = &mut self.words[at..at + self.wpr];
            row[w] = (row[w] & !(mask << shift)) | ((code as u64) << shift);
            if spills {
                // shift + τ > 64 with τ ≤ 32 forces shift ≥ 33, so
                // `64 - shift` is always a partial shift (< 32). Same
                // invariant as `codes::pack_codes`.
                debug_assert!(shift > 32);
                let hi_bits = 64 - shift;
                row[w + 1] = (row[w + 1] & !(mask >> hi_bits)) | ((code as u64) >> hi_bits);
            }
        }
    }

    /// Extract one code: dimension `j` of the candidate in `slot`.
    #[inline]
    pub fn code(&self, slot: usize, j: usize) -> u32 {
        let row = self.row(slot / self.lanes, j);
        extract_lane(row, self.tau, slot % self.lanes)
    }

    /// Decode a candidate's full code sequence (dimension order).
    #[inline]
    pub fn lane_codes(&self, slot: usize) -> LaneIter<'_> {
        debug_assert!(slot < self.capacity_slots());
        LaneIter {
            codes: self,
            slot,
            j: 0,
        }
    }

    /// Reconstruct the row-major packed words of `slot` — exactly what
    /// `pack_codes` would produce for the same code sequence, so
    /// `ApproxScheme::bounds`/`error_norm_sq` can run against a transposed
    /// store unchanged.
    pub fn gather_point_words(&self, slot: usize, out: &mut Vec<u64>) {
        out.clear();
        pack_codes(self.lane_codes(slot), self.tau, out);
    }
}

/// Iterator over one lane's `d` codes (see [`BlockedCodes::lane_codes`]).
pub struct LaneIter<'a> {
    codes: &'a BlockedCodes,
    slot: usize,
    j: usize,
}

impl Iterator for LaneIter<'_> {
    type Item = u32;

    #[inline]
    fn next(&mut self) -> Option<u32> {
        if self.j == self.codes.d {
            return None;
        }
        let c = self.codes.code(self.slot, self.j);
        self.j += 1;
        Some(c)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.codes.d - self.j;
        (rem, Some(rem))
    }
}

impl ExactSizeIterator for LaneIter<'_> {}

#[inline]
fn code_mask(tau: u32) -> u64 {
    if tau == 32 {
        u32::MAX as u64
    } else {
        (1u64 << tau) - 1
    }
}

/// Extract lane `l`'s τ-bit code from a packed dimension row.
#[inline]
fn extract_lane(row: &[u64], tau: u32, l: usize) -> u32 {
    let bit = l * tau as usize;
    let w = bit / 64;
    let shift = bit % 64;
    let mut v = row[w] >> shift;
    if shift + tau as usize > 64 {
        debug_assert!(shift > 32);
        v |= row[w + 1] << (64 - shift);
    }
    (v & code_mask(tau)) as u32
}

/// Word-parallel row decode: unpack `n` lanes' codes from one dimension row
/// with a single sequential bit walk.
#[inline]
fn decode_row(row: &[u64], tau: u32, n: usize, out: &mut [u32]) {
    let t = tau as usize;
    let mask = code_mask(tau);
    let mut bit = 0usize;
    for o in out.iter_mut().take(n) {
        let w = bit >> 6;
        let shift = bit & 63;
        let mut v = row[w] >> shift;
        if shift + t > 64 {
            v |= row[w + 1] << (64 - shift);
        }
        *o = (v & mask) as u32;
        bit += t;
    }
}

/// Kernel selection for the table-gather inner loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Simd {
    /// Runtime feature detection (AVX2 when the CPU has it), overridable
    /// with `HC_SCAN_SIMD=off` in the environment.
    #[default]
    Auto,
    /// Force the scalar-blocked fallback (reference for SIMD equivalence).
    Scalar,
    /// Force the AVX2 path; panics if the CPU lacks AVX2. Test-facing.
    ForceAvx2,
}

/// Whether this CPU supports the AVX2 gather path.
#[inline]
pub fn avx2_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// `HC_SCAN_SIMD=off` (or `0`/`scalar`) disables the SIMD path for
/// `Simd::Auto` callers — the forced-scalar leg of the CI equivalence gate.
fn simd_env_disabled() -> bool {
    static DISABLED: OnceLock<bool> = OnceLock::new();
    *DISABLED.get_or_init(|| {
        std::env::var("HC_SCAN_SIMD")
            .map(|v| matches!(v.as_str(), "off" | "0" | "scalar"))
            .unwrap_or(false)
    })
}

impl Simd {
    /// Resolve to "use the AVX2 kernel?" for this process.
    #[inline]
    pub fn use_avx2(self) -> bool {
        match self {
            Simd::Auto => avx2_available() && !simd_env_disabled(),
            Simd::Scalar => false,
            Simd::ForceAvx2 => {
                assert!(avx2_available(), "ForceAvx2 on a CPU without AVX2");
                true
            }
        }
    }

    /// Label for metrics/bench output: which kernel `Auto` resolves to.
    pub fn label(self) -> &'static str {
        if self.use_avx2() {
            "avx2"
        } else {
            "scalar-blocked"
        }
    }
}

/// Reusable buffers for [`scan_slots`] so the per-query hot path never
/// allocates.
#[derive(Default)]
pub struct ScanScratch {
    codes: Vec<u32>,
    /// Per-lane running `[lb², ub²]`, interleaved like the table entries.
    acc: Vec<[f64; 2]>,
    pairs: Vec<(u32, u32)>,
}

/// Fill one dimension's table row via [`interval_contrib`] — the reference
/// for the vectorized fill below.
#[inline]
fn fill_row_scalar(q: f32, buckets: &[(f32, f32)], row: &mut [[f64; 2]]) {
    for (entry, &(lo, hi)) in row.iter_mut().zip(buckets) {
        let (l, u) = interval_contrib(q, lo, hi);
        *entry = [l, u];
    }
}

/// Vectorized row fill: 4 buckets per iteration, each lane evaluating
/// [`interval_contrib`] with the same f64 operation sequence (sub → abs →
/// min/max → mul, then a mask-select for the inside-interval case), so the
/// stored entries are bit-identical to the scalar fill. This matters at
/// small candidate sets, where the `d·nb` build cost rivals the scan
/// itself.
///
/// # Safety
/// Caller must ensure AVX2 is available. `row` must be at least
/// `buckets.len()` entries long (sliced so by the caller).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn fill_row_avx2(q: f32, buckets: &[(f32, f32)], row: &mut [[f64; 2]]) {
    use std::arch::x86_64::*;
    debug_assert!(row.len() >= buckets.len());
    let n = buckets.len();
    let out = row.as_mut_ptr() as *mut f64;
    let chunks = n / 4;
    let qv = _mm256_set1_pd(f64::from(q));
    let qs = _mm_set1_ps(q);
    let abs_mask = _mm256_castsi256_pd(_mm256_set1_epi64x(i64::MAX));
    let ptr = buckets.as_ptr() as *const f32;
    for c in 0..chunks {
        // Deinterleave 4 (lo, hi) pairs into lo/hi lanes.
        let v0 = _mm_loadu_ps(ptr.add(c * 8)); // lo0 hi0 lo1 hi1
        let v1 = _mm_loadu_ps(ptr.add(c * 8 + 4)); // lo2 hi2 lo3 hi3
        let los = _mm_shuffle_ps::<0b10_00_10_00>(v0, v1);
        let his = _mm_shuffle_ps::<0b11_01_11_01>(v0, v1);
        // `q < lo || q > hi` is an f32 comparison in the scalar path;
        // compare in f32 here too (f64 would agree — the widening is exact
        // — but this keeps the correspondence obvious).
        let outside32 = _mm_or_ps(_mm_cmplt_ps(qs, los), _mm_cmpgt_ps(qs, his));
        let outside = _mm256_cvtps_pd_mask(outside32);
        let lo_d = _mm256_cvtps_pd(los);
        let hi_d = _mm256_cvtps_pd(his);
        let dl = _mm256_and_pd(_mm256_sub_pd(qv, lo_d), abs_mask);
        let du = _mm256_and_pd(_mm256_sub_pd(qv, hi_d), abs_mask);
        let far = _mm256_max_pd(dl, du);
        let near = _mm256_min_pd(dl, du);
        let ub = _mm256_mul_pd(far, far);
        // near² is discarded (masked to +0.0) inside the interval, exactly
        // the scalar branch.
        let lb = _mm256_and_pd(outside, _mm256_mul_pd(near, near));
        // Interleave to (lb, ub) entries: unpack pairs buckets (0, 2) and
        // (1, 3) within the 128-bit halves, the half swap restores order.
        let even = _mm256_unpacklo_pd(lb, ub); // lb0 ub0 lb2 ub2
        let odd = _mm256_unpackhi_pd(lb, ub); // lb1 ub1 lb3 ub3
        _mm256_storeu_pd(out.add(c * 8), _mm256_permute2f128_pd::<0x20>(even, odd));
        _mm256_storeu_pd(
            out.add(c * 8 + 4),
            _mm256_permute2f128_pd::<0x31>(even, odd),
        );
    }
    for b in chunks * 4..n {
        let (lo, hi) = *buckets.get_unchecked(b);
        let (l, u) = interval_contrib(q, lo, hi);
        *row.get_unchecked_mut(b) = [l, u];
    }
}

/// Widen a 4-lane f32 comparison mask to 4 f64 lanes (all-ones or all-zero
/// per lane; `cvtps_pd` on a mask would not preserve the bit pattern).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn _mm256_cvtps_pd_mask(m: std::arch::x86_64::__m128) -> std::arch::x86_64::__m256d {
    use std::arch::x86_64::*;
    // Sign-extend each 32-bit lane mask to 64 bits.
    _mm256_castsi256_pd(_mm256_cvtepi32_epi64(_mm_castps_si128(m)))
}

/// Accumulate one dimension's table entries into every lane's running sums.
/// Scalar-blocked fallback; bit-identical to the AVX2 path because each
/// lane's accumulator is independent.
#[inline]
fn gather_add_scalar(codes: &[u32], table: &[[f64; 2]], acc: &mut [[f64; 2]]) {
    for (acc, &c) in acc.iter_mut().zip(codes) {
        add_pair(acc, table[c as usize]);
    }
}

/// AVX2 table-gather: two lanes per vector add, each lane's `(lb², ub²)`
/// entry one 16-byte load into its half of the register, scalar tail in the
/// same lane order. Not `vgatherdpd` (`_mm256_i32gather_pd`): where that
/// instruction is microcoded it loses to the scalar fallback outright
/// (measured 2.2× slower on the reference sandbox), and which CPUs those are
/// is not in CPUID. Plain loads have no such cliff.
///
/// # Safety
/// Caller must ensure AVX2 is available, `acc` is at least `codes.len()`
/// long, and every code indexes within the table row (guaranteed by the
/// encoder: codes < bucket count ≤ stride).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn gather_add_avx2(codes: &[u32], table: &[[f64; 2]], acc: &mut [[f64; 2]]) {
    use std::arch::x86_64::*;
    debug_assert!(acc.len() >= codes.len());
    let n = codes.len();
    let sums = acc.as_mut_ptr() as *mut f64;
    for c in 0..n / 2 {
        let at = c * 2;
        let e0 = table.get_unchecked(*codes.get_unchecked(at) as usize);
        let e1 = table.get_unchecked(*codes.get_unchecked(at + 1) as usize);
        let entries = _mm256_set_m128d(_mm_loadu_pd(e1.as_ptr()), _mm_loadu_pd(e0.as_ptr()));
        let sum = _mm256_loadu_pd(sums.add(at * 2));
        _mm256_storeu_pd(sums.add(at * 2), _mm256_add_pd(sum, entries));
    }
    if n % 2 == 1 {
        let c = *codes.get_unchecked(n - 1) as usize;
        add_pair(acc.get_unchecked_mut(n - 1), *table.get_unchecked(c));
    }
}

/// Bound one lane through the tables with the lane's bit geometry hoisted:
/// within a block, a lane's bit offset is the same in every dimension row,
/// so the word index, shift, and straddle test are loop-invariant — the
/// per-dimension work collapses to one strided load, a fixed shift+mask,
/// and two table adds. Accumulation order matches [`QueryTables::lane_bounds`]
/// term for term, so the result is bit-identical.
fn lane_bounds_hoisted(tables: &QueryTables, codes: &BlockedCodes, slot: usize) -> DistBounds {
    debug_assert_eq!(tables.d, codes.d);
    let lanes = codes.lanes;
    let t = codes.tau as usize;
    let bit = (slot % lanes) * t;
    let w = bit >> 6;
    let shift = bit & 63;
    let straddle = shift + t > 64;
    let mask = code_mask(codes.tau);
    let base = (slot / lanes) * codes.d * codes.wpr;
    let words = &codes.words[base..base + codes.d * codes.wpr];
    let mut acc = [0.0f64; 2];
    let mut at = w;
    for j in 0..codes.d {
        let mut v = words[at] >> shift;
        if straddle {
            v |= words[at + 1] << (64 - shift);
        }
        add_pair(&mut acc, tables.entry(j, (v & mask) as usize));
        at += codes.wpr;
    }
    finish(acc)
}

/// Bound all `n_lanes` leading lanes of `block`: per dimension, decode the
/// row word-parallel, then gather-add table entries into per-lane sums.
fn scan_block(
    tables: &QueryTables,
    codes: &BlockedCodes,
    block: usize,
    n_lanes: usize,
    scratch: &mut ScanScratch,
    use_avx2: bool,
) {
    debug_assert_eq!(tables.d, codes.d);
    scratch.codes.resize(n_lanes, 0);
    scratch.acc.clear();
    scratch.acc.resize(n_lanes, [0.0; 2]);
    for j in 0..codes.d {
        let row = codes.row(block, j);
        decode_row(row, codes.tau, n_lanes, &mut scratch.codes);
        let table = tables.row(j);
        #[cfg(target_arch = "x86_64")]
        if use_avx2 {
            // SAFETY: `use_avx2` implies runtime AVX2 support; the code and
            // accumulator buffers were both resized to `n_lanes` above; codes
            // come from the encoder, hence < bucket count ≤ table stride.
            unsafe { gather_add_avx2(&scratch.codes, table, &mut scratch.acc) };
            continue;
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = use_avx2;
        gather_add_scalar(&scratch.codes, table, &mut scratch.acc);
    }
}

/// Bound an arbitrary set of resident candidates through the blocked store.
///
/// `slots` pairs a storage slot with the caller's output index; `out[idx]`
/// receives that candidate's bounds. Candidates are grouped by block: groups
/// covering a full lane prefix run the whole-block kernel, everything else
/// the per-lane table path — both bit-identical to `ApproxScheme::bounds`,
/// so the grouping heuristic can never change results.
pub fn scan_slots(
    tables: &QueryTables,
    codes: &BlockedCodes,
    slots: &[(u32, u32)],
    out: &mut [DistBounds],
    scratch: &mut ScanScratch,
    simd: Simd,
) {
    let use_avx2 = simd.use_avx2();
    let lanes = codes.lanes;
    scratch.pairs.clear();
    scratch.pairs.extend_from_slice(slots);
    scratch.pairs.sort_unstable();
    // Borrow the sort buffer back out so `scratch` stays free for the
    // block kernel inside the loop.
    let pairs = std::mem::take(&mut scratch.pairs);
    let mut at = 0;
    while at < pairs.len() {
        let block = pairs[at].0 as usize / lanes;
        let mut end = at + 1;
        while end < pairs.len() && pairs[end].0 as usize / lanes == block {
            end += 1;
        }
        let group = &pairs[at..end];
        // The whole-block kernel pays off only when the group is a full lane
        // prefix (entry `i` in lane `i` — whole-cache scans, freshly packed
        // segments): one word-parallel decode then a SIMD-width gather-add.
        // Scattered hits go lane-at-a-time instead — each lane's bit offset
        // is then constant across dimensions, so the per-dimension extraction
        // is a fixed shift+mask over rows the prefix walk keeps in L1, which
        // measures faster than decoding lanes nobody asked about.
        let full_prefix = group.len() >= MIN_BLOCK_GROUP
            && group
                .iter()
                .enumerate()
                .all(|(i, &(slot, _))| slot as usize % lanes == i);
        if full_prefix {
            scan_block(tables, codes, block, group.len(), scratch, use_avx2);
            for &(slot, idx) in group {
                let l = slot as usize % lanes;
                out[idx as usize] = finish(scratch.acc[l]);
            }
        } else {
            for &(slot, idx) in group {
                out[idx as usize] = lane_bounds_hoisted(tables, codes, slot as usize);
            }
        }
        at = end;
    }
    scratch.pairs = pairs;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounds::BoundsAcc;

    /// Deterministic pseudo-random codes without pulling in a RNG.
    fn synth_codes(d: usize, nb: usize, seed: u64) -> Vec<u32> {
        (0..d)
            .map(|j| {
                let h = (seed ^ (j as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
                    .wrapping_mul(0xBF58_476D_1CE4_E5B9);
                ((h >> 33) % nb as u64) as u32
            })
            .collect()
    }

    fn synth_intervals(nb: usize) -> Vec<(f32, f32)> {
        (0..nb)
            .map(|b| (b as f32 * 0.5 - 3.0, b as f32 * 0.5 - 2.5))
            .collect()
    }

    #[test]
    fn known_answer_word_order() {
        // 4 lanes, τ=4, d=2 → one word per row. Lane codes pack
        // little-endian within the row word, lane 0 in the lowest bits:
        // dim0 codes [1,3,5,7] → 0x7531, dim1 codes [2,4,6,8] → 0x8642.
        let mut bc = BlockedCodes::with_lanes(2, 4, 4);
        for (slot, cs) in [[1u32, 2], [3, 4], [5, 6], [7, 8]].iter().enumerate() {
            bc.set_lane(slot, cs.iter().copied());
        }
        assert_eq!(bc.words_per_row(), 1);
        assert_eq!(bc.row(0, 0), &[0x7531]);
        assert_eq!(bc.row(0, 1), &[0x8642]);
        // A fifth slot opens block 1; its rows sit after block 0's d rows.
        bc.set_lane(4, [0xFu32, 0x9].iter().copied());
        assert_eq!(bc.row(1, 0), &[0xF]);
        assert_eq!(bc.row(1, 1), &[0x9]);
        assert_eq!(bc.capacity_slots(), 8);
    }

    #[test]
    fn known_answer_word_order_straddling() {
        // 64 lanes, τ=5 → 320-bit rows (5 words); lane 12 starts at bit 60
        // of word 0 and spills 1 bit into word 1.
        let mut bc = BlockedCodes::new(1, 5);
        bc.set_lane(12, [0b10111u32].iter().copied());
        let row = bc.row(0, 0);
        assert_eq!(row[0], 0b0111u64 << 60);
        assert_eq!(row[1], 0b1);
        assert_eq!(bc.code(12, 0), 0b10111);
    }

    #[test]
    fn set_lane_overwrites_cleanly() {
        // Slot reuse (LRU eviction) must not leak stale bits — including on
        // the word-straddling spill path.
        let mut bc = BlockedCodes::new(3, 7);
        bc.set_lane(9, [0x7Fu32, 0x7F, 0x7F].iter().copied());
        bc.set_lane(10, [0x55u32, 0x2A, 0x11].iter().copied());
        bc.set_lane(9, [0u32, 1, 2].iter().copied());
        assert_eq!(bc.lane_codes(9).collect::<Vec<_>>(), vec![0, 1, 2]);
        assert_eq!(
            bc.lane_codes(10).collect::<Vec<_>>(),
            vec![0x55, 0x2A, 0x11]
        );
    }

    #[test]
    fn round_trips_all_taus_with_ragged_blocks() {
        for tau in 1..=32u32 {
            let nb_mask = if tau == 32 { u32::MAX } else { (1 << tau) - 1 };
            for lanes in [1usize, 3, 8, 64] {
                let d = 5;
                let mut bc = BlockedCodes::with_lanes(d, tau, lanes);
                let pts: Vec<Vec<u32>> = (0..7)
                    .map(|p| {
                        (0..d)
                            .map(|j| ((p as u64 * 2654435761 + j as u64 * 40503) as u32) & nb_mask)
                            .collect()
                    })
                    .collect();
                for (slot, p) in pts.iter().enumerate() {
                    bc.set_lane(slot, p.iter().copied());
                }
                for (slot, p) in pts.iter().enumerate() {
                    assert_eq!(
                        &bc.lane_codes(slot).collect::<Vec<_>>(),
                        p,
                        "tau={tau} lanes={lanes} slot={slot}"
                    );
                }
            }
        }
    }

    #[test]
    fn from_packed_and_gather_round_trip() {
        let d = 9;
        let tau = 11;
        let mut pc = PackedCodes::new(d, tau);
        for p in 0..70usize {
            pc.push((0..d).map(|j| ((p * 131 + j * 17) % (1 << tau)) as u32));
        }
        let bc = BlockedCodes::from_packed(&pc);
        let mut words = Vec::new();
        for slot in 0..pc.len() {
            assert_eq!(
                bc.lane_codes(slot).collect::<Vec<_>>(),
                pc.decode(slot).collect::<Vec<_>>()
            );
            bc.gather_point_words(slot, &mut words);
            assert_eq!(&words[..], pc.point_words(slot), "slot {slot}");
        }
    }

    #[test]
    fn tables_match_scalar_contributions() {
        let nb = 16;
        let real = synth_intervals(nb);
        let q = [0.25f32, -1.5, 2.0];
        let tables = QueryTables::build(&q, &ScanIntervals::Shared(&real));
        let codes = [3u32, 0, 15];
        // Reference: BoundsAcc in dim order.
        let mut acc = BoundsAcc::new();
        for (j, &c) in codes.iter().enumerate() {
            let (lo, hi) = real[c as usize];
            acc.add(q[j], lo, hi);
        }
        let want = acc.finish();
        let got = tables.lane_bounds(codes.iter().copied());
        assert_eq!(want.lb.to_bits(), got.lb.to_bits());
        assert_eq!(want.ub.to_bits(), got.ub.to_bits());
    }

    #[test]
    fn scan_slots_matches_lane_bounds_dense_and_sparse() {
        let d = 17;
        let tau = 6u32;
        let nb = 40; // fewer buckets than 2^τ — tables are sized by nb
        let real = synth_intervals(nb);
        let q: Vec<f32> = (0..d).map(|j| (j as f32 * 0.37) - 2.0).collect();
        let tables = QueryTables::build(&q, &ScanIntervals::Shared(&real));
        let mut bc = BlockedCodes::new(d, tau);
        let n = 150; // spans 3 blocks, last one ragged
        for slot in 0..n {
            bc.set_lane(slot, synth_codes(d, nb, slot as u64).into_iter());
        }
        // Dense group in block 0, sparse singletons elsewhere, unsorted.
        let picks: Vec<u32> = vec![140, 3, 77, 1, 0, 63, 9, 4, 5, 6, 7, 8, 2, 130];
        let slots: Vec<(u32, u32)> = picks
            .iter()
            .enumerate()
            .map(|(i, &s)| (s, i as u32))
            .collect();
        let mut out = vec![DistBounds::UNKNOWN; picks.len()];
        let mut scratch = ScanScratch::default();
        for simd in [Simd::Scalar, Simd::Auto] {
            scan_slots(&tables, &bc, &slots, &mut out, &mut scratch, simd);
            for (i, &slot) in picks.iter().enumerate() {
                let want = tables.lane_bounds(bc.lane_codes(slot as usize));
                assert_eq!(
                    out[i].lb.to_bits(),
                    want.lb.to_bits(),
                    "slot {slot} {simd:?}"
                );
                assert_eq!(
                    out[i].ub.to_bits(),
                    want.ub.to_bits(),
                    "slot {slot} {simd:?}"
                );
            }
        }
    }

    #[test]
    fn simd_flag_resolution() {
        assert!(!Simd::Scalar.use_avx2());
        if avx2_available() {
            assert!(Simd::ForceAvx2.use_avx2());
        }
        assert_eq!(Simd::Scalar.label(), "scalar-blocked");
    }
}
