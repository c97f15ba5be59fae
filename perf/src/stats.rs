//! The one percentile/summary helper of the harness.
//!
//! Quantiles here take `q` in `[0, 1]` and use the nearest-rank rule. The
//! helper deliberately does not reuse `hc_serve::LoadReport::percentile_us`
//! (argument in 0–100) or `hc_fleet::FleetLoadReport::percentile_us`
//! (argument in 0–1): their conventions disagree, and a benchmark that mixed
//! them would compare different ranks under one name.

/// Nearest-rank quantile of an ascending slice: the smallest sample with at
/// least `q · n` samples at or below it. `q` is clamped to `[0, 1]`.
///
/// # Panics
/// Panics on an empty slice — a percentile of nothing is a harness bug.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let n = sorted.len();
    let rank = (q.clamp(0.0, 1.0) * n as f64).ceil() as usize;
    sorted[rank.clamp(1, n) - 1]
}

/// Percentiles a summary may report as its tail, ascending.
const TAIL_LADDER: [f64; 6] = [0.5, 0.9, 0.95, 0.99, 0.999, 0.9999];

/// Samples required beyond a percentile before it is trusted as a tail.
const MIN_BEYOND: usize = 10;

/// Median, p95 and the highest percentile the sample supports, always with
/// the sample count they were taken from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub count: usize,
    pub p50: f64,
    pub p95: f64,
    /// The highest ladder percentile with at least ten samples beyond it
    /// (0.5 when the sample is too small for anything higher).
    pub tail_q: f64,
    pub tail: f64,
    pub mean: f64,
}

impl Summary {
    /// Summarize `samples` (any order). Returns `None` when empty.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        if samples.is_empty() {
            return None;
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        let tail_q = TAIL_LADDER
            .iter()
            .copied()
            .rfind(|&q| n - ((q * n as f64).ceil() as usize).min(n) >= MIN_BEYOND)
            .unwrap_or(TAIL_LADDER[0]);
        Some(Summary {
            count: n,
            p50: quantile(&sorted, 0.5),
            p95: quantile(&sorted, 0.95),
            tail_q,
            tail: quantile(&sorted, tail_q),
            mean: mean(&sorted),
        })
    }
}

/// Arithmetic mean; 0 for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// Median (nearest rank) of values in any order; 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    quantile(&sorted, 0.5)
}

/// `part / whole`, 0 when `whole` is 0 — for ratios over counts that a
/// workload may legitimately leave at zero.
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|v| v as f64).collect()
    }

    #[test]
    fn quantile_is_nearest_rank_on_unit_interval() {
        let s = ramp(100);
        assert_eq!(quantile(&s, 0.5), 50.0);
        assert_eq!(quantile(&s, 0.95), 95.0);
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(quantile(&s, 1.0), 100.0);
        // A 0–100 argument would saturate to the maximum: the convention
        // is 0–1, and anything above clamps.
        assert_eq!(quantile(&s, 95.0), 100.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        // 100 samples: p90 leaves exactly 10 beyond, p95 only 5.
        let s = Summary::of(&ramp(100)).expect("non-empty");
        assert_eq!(s.count, 100);
        assert_eq!(s.tail_q, 0.9);
        assert_eq!(s.tail, 90.0);
        // 1,000 samples support p99 (10 beyond) but not p99.9 (1 beyond).
        let s = Summary::of(&ramp(1000)).expect("non-empty");
        assert_eq!(s.tail_q, 0.99);
        assert_eq!(s.tail, 990.0);
        // A tiny sample falls back to the median.
        let s = Summary::of(&ramp(12)).expect("non-empty");
        assert_eq!(s.tail_q, 0.5);
    }

    #[test]
    fn summary_reports_median_p95_and_mean_in_any_order() {
        let mut v = ramp(200);
        v.reverse();
        let s = Summary::of(&v).expect("non-empty");
        assert_eq!((s.p50, s.p95), (100.0, 190.0));
        assert!((s.mean - 100.5).abs() < 1e-12);
        assert!(Summary::of(&[]).is_none());
    }

    #[test]
    fn median_and_ratio_handle_empty_inputs() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(ratio(1.0, 0.0), 0.0);
        assert_eq!(ratio(1.0, 4.0), 0.25);
    }
}
