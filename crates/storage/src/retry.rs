//! Bounded retries with decorrelated-jitter backoff (DESIGN.md §10).
//!
//! The refiner's [`crate::refine::Fetcher`] reads candidate points through
//! [`RetryPolicy::fetch_with`] instead of calling the store directly.
//! Transient faults ([`StorageError::is_transient`]) are retried up to
//! `max_retries` times with a decorrelated-jitter sleep between attempts;
//! permanent faults and exhausted budgets surface to the refiner, which
//! degrades around the loss (the candidate is deferred and, unless its lower
//! bound excludes it, the response is marked `Degraded`).
//!
//! Defaults are zero-cost: `base = Duration::ZERO` means no sleeping at all,
//! so unit tests and benches with faults disabled pay nothing. The backoff is
//! deterministic — jitter comes from a seeded splitmix64 stream keyed on
//! `(seed, page, attempt)`, not a thread-local RNG — so chaos runs reproduce
//! bit-identically.

use std::time::Duration;

use hc_core::dataset::PointId;
use hc_obs::{Counter, Histogram, MetricsRegistry};

use crate::clock::Clock;
use crate::error::StorageError;
use crate::point_file::PageBuffer;
use crate::store::PageStore;

/// How hard to fight transient storage faults before giving up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Re-issues after the first attempt (so `max_retries = 3` means at most
    /// 4 physical reads of a page per fetch).
    pub max_retries: u32,
    /// Base backoff unit. `Duration::ZERO` (the default) disables sleeping
    /// entirely while keeping the retry loop.
    pub base: Duration,
    /// Upper clamp on any single backoff sleep.
    pub cap: Duration,
    /// Seed of the deterministic jitter stream.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_retries: 3,
            base: Duration::ZERO,
            cap: Duration::from_millis(50),
            seed: 0xB0FF_5EED,
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries: the first error is final.
    pub fn none() -> Self {
        Self {
            max_retries: 0,
            ..Self::default()
        }
    }

    /// Decorrelated-jitter backoff for a given attempt (1-based: the sleep
    /// before re-issue number `attempt`). `sleep = min(cap, uniform(base,
    /// prev * 3))` per the classic AWS scheme, with the uniform draw taken
    /// from a deterministic hash of `(seed, page, attempt)`.
    pub fn backoff(&self, page: u64, attempt: u32) -> Duration {
        if self.base.is_zero() {
            return Duration::ZERO;
        }
        let base_us = self.base.as_micros() as u64;
        let cap_us = self.cap.as_micros() as u64;
        // prev follows the deterministic expectation chain base * 3^(a-1),
        // clamped at the cap so the uniform window stays bounded.
        let prev_us = base_us
            .saturating_mul(3u64.saturating_pow(attempt.saturating_sub(1)))
            .min(cap_us);
        let hi_us = prev_us.saturating_mul(3).min(cap_us).max(base_us);
        let span = hi_us - base_us;
        let draw = if span == 0 {
            0
        } else {
            mix(self.seed ^ page.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ u64::from(attempt))
                % (span + 1)
        };
        Duration::from_micros((base_us + draw).min(cap_us))
    }

    /// Fetch a point through `store`, retrying transient faults. Returns the
    /// point floats, or the error that exhausted the budget / was permanent.
    /// Every attempt, success, exhaustion, and backoff sleep is recorded in
    /// `obs` (no-op until bound to a registry). Backoff waits are handed to
    /// `clock` instead of `thread::sleep`, so a
    /// [`crate::clock::SimulatedClock`] makes nonzero-base policies free and
    /// deterministically inspectable.
    pub fn fetch_with<'s>(
        &self,
        store: &'s dyn PageStore,
        id: PointId,
        buffer: &mut PageBuffer,
        obs: &RetryObs,
        clock: &dyn Clock,
    ) -> Result<&'s [f32], StorageError> {
        let mut attempt: u32 = 0;
        loop {
            obs.record_attempt();
            match store.read_point(id, attempt, &mut *buffer) {
                Ok(point) => {
                    if attempt > 0 {
                        obs.record_success_after_retry();
                    }
                    return Ok(point);
                }
                Err(err) => {
                    let retryable = err.is_transient() && attempt < self.max_retries;
                    if !retryable {
                        if err.is_transient() {
                            obs.record_exhausted();
                        }
                        return Err(err);
                    }
                    attempt += 1;
                    let sleep = self.backoff(store.page_of(id), attempt);
                    obs.record_backoff(sleep);
                    if !sleep.is_zero() {
                        clock.sleep(sleep);
                    }
                }
            }
        }
    }
}

/// splitmix64 finalizer — a cheap, well-distributed 64-bit mix.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Registry-backed retry telemetry. A fresh `RetryObs` is inert; binding it
/// to a registry activates the `retry.*` series.
#[derive(Debug, Default)]
pub struct RetryObs {
    inner: std::sync::OnceLock<RetryMirror>,
}

#[derive(Debug)]
struct RetryMirror {
    attempts: Counter,
    success_after_retry: Counter,
    exhausted: Counter,
    backoff_us: Histogram,
}

impl RetryObs {
    pub fn new() -> Self {
        Self::default()
    }

    /// Activate the `retry.attempts` / `retry.success` / `retry.exhausted`
    /// counters and the `retry.backoff_us` histogram. Once-only, like
    /// [`crate::io_stats::IoStats::bind`].
    pub fn bind(&self, registry: &MetricsRegistry) {
        if !registry.is_enabled() {
            return;
        }
        let _ = self.inner.set(RetryMirror {
            attempts: registry.counter("retry.attempts"),
            success_after_retry: registry.counter("retry.success"),
            exhausted: registry.counter("retry.exhausted"),
            backoff_us: registry.histogram("retry.backoff_us"),
        });
    }

    fn record_attempt(&self) {
        if let Some(m) = self.inner.get() {
            m.attempts.inc();
        }
    }

    fn record_success_after_retry(&self) {
        if let Some(m) = self.inner.get() {
            m.success_after_retry.inc();
        }
    }

    fn record_exhausted(&self) {
        if let Some(m) = self.inner.get() {
            m.exhausted.inc();
        }
    }

    fn record_backoff(&self, sleep: Duration) {
        if let Some(m) = self.inner.get() {
            m.backoff_us.record(sleep.as_micros() as u64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::SimulatedClock;
    use crate::fault::{FaultConfig, FaultInjector};
    use crate::point_file::PointFile;
    use hc_core::dataset::Dataset;
    use std::sync::Arc;

    fn file(n: usize, d: usize) -> PointFile {
        let rows: Vec<Vec<f32>> = (0..n)
            .map(|i| (0..d).map(|j| (i * d + j) as f32).collect())
            .collect();
        PointFile::new(Dataset::from_rows(&rows))
    }

    /// A store whose every physical read fails with a transient fault — the
    /// shape that exhausts the whole retry budget deterministically.
    fn always_transient(n: usize, d: usize) -> FaultInjector {
        FaultInjector::new(
            Arc::new(file(n, d)),
            FaultConfig {
                seed: 5,
                transient_rate: 1.0,
                ..FaultConfig::none()
            },
        )
    }

    #[test]
    fn zero_base_backoff_never_sleeps() {
        let p = RetryPolicy::default();
        for attempt in 1..=5 {
            assert_eq!(p.backoff(42, attempt), Duration::ZERO);
        }
        // Through the whole fetch loop too: an exhausted zero-base retry
        // budget requests no sleeps from the clock at all.
        let store = always_transient(6, 150);
        let clock = SimulatedClock::new();
        let obs = RetryObs::new();
        let mut buf = PageStore::begin_query(&store);
        assert!(p
            .fetch_with(&store, PointId(0), &mut buf, &obs, &clock)
            .is_err());
        assert_eq!(clock.sleep_count(), 0, "zero base must stay sleep-free");
    }

    #[test]
    fn backoff_is_deterministic_bounded_and_grows() {
        let p = RetryPolicy {
            base: Duration::from_micros(100),
            cap: Duration::from_millis(10),
            ..RetryPolicy::default()
        };
        let base_us = p.base.as_micros() as u64;
        let cap_us = p.cap.as_micros() as u64;
        for page in 0..32u64 {
            for attempt in 1..=6u32 {
                let a = p.backoff(page, attempt);
                assert_eq!(a, p.backoff(page, attempt), "jitter must be deterministic");
                assert!(a >= p.base && a <= p.cap, "sleep {a:?} out of [base, cap]");
                // Decorrelated-jitter window: the draw stays inside
                // [base, min(cap, 3^attempt · base)] — the window triples
                // per attempt until the cap clamps it.
                let hi_us = base_us
                    .saturating_mul(3u64.saturating_pow(attempt))
                    .min(cap_us);
                assert!(
                    a.as_micros() as u64 <= hi_us,
                    "attempt {attempt}: draw {a:?} above window {hi_us}µs"
                );
            }
        }
        // Different pages decorrelate: not every page draws the same sleep.
        let draws: std::collections::HashSet<Duration> =
            (0..32u64).map(|page| p.backoff(page, 2)).collect();
        assert!(draws.len() > 1, "jitter must vary across pages");
    }

    #[test]
    fn fetch_succeeds_on_pristine_store() {
        let f = file(12, 150);
        let policy = RetryPolicy::default();
        let obs = RetryObs::new();
        let clock = SimulatedClock::new();
        let mut buf = PageStore::begin_query(&f);
        let p = policy
            .fetch_with(&f, PointId(4), &mut buf, &obs, &clock)
            .unwrap();
        assert_eq!(p[0], 600.0);
        assert_eq!(f.stats().pages_read(), 1);
        assert_eq!(f.stats().pages_retried(), 0);
        assert_eq!(clock.sleep_count(), 0, "a clean read must not back off");
    }

    #[test]
    fn obs_counts_attempts_once_bound() {
        let registry = MetricsRegistry::new();
        let obs = RetryObs::new();
        obs.bind(&registry);
        let f = file(6, 150);
        let policy = RetryPolicy::default();
        let clock = SimulatedClock::new();
        let mut buf = PageStore::begin_query(&f);
        policy
            .fetch_with(&f, PointId(0), &mut buf, &obs, &clock)
            .unwrap();
        policy
            .fetch_with(&f, PointId(1), &mut buf, &obs, &clock)
            .unwrap();
        assert_eq!(registry.snapshot().counter("retry.attempts"), Some(2));
        assert_eq!(registry.snapshot().counter("retry.success"), Some(0));
    }

    #[test]
    fn simulated_clock_sees_the_exact_backoff_sequence() {
        // A nonzero-base policy against a store that faults every attempt:
        // the clock must receive exactly backoff(page, 1..=max_retries), in
        // order, with no real time passing.
        let policy = RetryPolicy {
            max_retries: 3,
            base: Duration::from_millis(200),
            cap: Duration::from_secs(5),
            ..RetryPolicy::default()
        };
        let store = always_transient(6, 150);
        let clock = SimulatedClock::new();
        let obs = RetryObs::new();
        let id = PointId(0);
        let page = store.page_of(id);
        let t0 = std::time::Instant::now();
        let mut buf = PageStore::begin_query(&store);
        let err = policy
            .fetch_with(&store, id, &mut buf, &obs, &clock)
            .unwrap_err();
        assert!(err.is_transient());
        assert!(
            t0.elapsed() < Duration::from_millis(100),
            "600ms+ of virtual backoff must cost no real time"
        );
        let want: Vec<Duration> = (1..=3).map(|a| policy.backoff(page, a)).collect();
        assert_eq!(clock.sleeps(), want, "clock must see each draw in order");
        assert!(want.iter().all(|s| *s >= policy.base));
        assert_eq!(clock.total_slept(), want.iter().sum());
    }

    #[test]
    fn backoff_histogram_and_total_elapsed_match_the_simulated_clock() {
        // Total-elapsed accounting: the retry.backoff_us histogram and the
        // simulated clock must agree on count and total, and the buckets
        // must hold every recorded sleep.
        let registry = MetricsRegistry::new();
        let obs = RetryObs::new();
        obs.bind(&registry);
        let policy = RetryPolicy {
            max_retries: 3,
            base: Duration::from_millis(1),
            cap: Duration::from_millis(50),
            ..RetryPolicy::default()
        };
        let store = always_transient(24, 150);
        let clock = SimulatedClock::new();
        for id in [0u32, 6, 12, 18] {
            let mut buf = PageStore::begin_query(&store);
            assert!(policy
                .fetch_with(&store, PointId(id), &mut buf, &obs, &clock)
                .is_err());
        }
        let snap = registry.snapshot();
        let hist = snap.histogram("retry.backoff_us").expect("backoff series");
        assert_eq!(hist.count, 12, "4 fetches × 3 backoffs each");
        assert_eq!(clock.sleep_count(), 12);
        assert_eq!(hist.sum, clock.total_slept().as_micros() as u64);
        let bucket_total: u64 = hist.buckets.iter().map(|&(_, c)| c).sum();
        assert_eq!(bucket_total, hist.count, "buckets must cover every sleep");
        assert!(hist.min >= policy.base.as_micros() as u64);
        assert!(hist.max <= policy.cap.as_micros() as u64);
        assert_eq!(snap.counter("retry.attempts"), Some(16));
        assert_eq!(snap.counter("retry.exhausted"), Some(4));
    }
}
