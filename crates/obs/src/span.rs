//! RAII phase timers.
//!
//! A [`SpanTimer`] measures the wall-clock time between its creation and its
//! drop and records the elapsed nanoseconds into a [`Histogram`]. For a
//! disabled histogram the timer skips the clock reads entirely, so a span
//! around a noop registry costs two branches.
//!
//! ```
//! use hc_obs::{span, MetricsRegistry};
//!
//! let registry = MetricsRegistry::new();
//! {
//!     let _t = span!(registry, "refine");
//!     // ... phase 3 work ...
//! } // drop records into histogram "phase.refine_ns"
//! assert_eq!(registry.histogram("phase.refine_ns").snapshot().count, 1);
//! ```

use std::time::Instant;

use crate::metrics::Histogram;
use crate::trace::duration_ns;

/// Times a scope and records nanoseconds into a histogram on drop.
#[derive(Debug)]
pub struct SpanTimer {
    sink: Histogram,
    start: Option<Instant>,
}

impl SpanTimer {
    /// Start timing into `sink`. No clock is read if `sink` is disabled.
    #[inline]
    pub fn start(sink: Histogram) -> Self {
        let start = sink.is_enabled().then(Instant::now);
        Self { sink, start }
    }

    /// Stop early and record; otherwise drop records.
    #[inline]
    pub fn finish(self) {}

    /// Elapsed nanoseconds so far (0 when disabled).
    pub fn elapsed_ns(&self) -> u64 {
        self.start.map_or(0, |s| duration_ns(s.elapsed()))
    }
}

impl Drop for SpanTimer {
    #[inline]
    fn drop(&mut self) {
        if let Some(start) = self.start {
            self.sink.record(duration_ns(start.elapsed()));
        }
    }
}

/// Open a phase span recording into `phase.<name>_ns` of a registry.
///
/// `span!(registry, "refine")` is shorthand for
/// `SpanTimer::start(registry.histogram("phase.refine_ns"))`. Bind the
/// result (`let _t = span!(…)`) — an unbound span drops immediately.
/// Pre-registered histograms can use `SpanTimer::start` directly to avoid
/// the name lookup on hot paths.
#[macro_export]
macro_rules! span {
    ($registry:expr, $name:expr) => {
        $crate::SpanTimer::start($registry.histogram(concat!("phase.", $name, "_ns")))
    };
}

#[cfg(test)]
mod tests {
    use crate::MetricsRegistry;

    #[test]
    fn span_records_on_drop() {
        let r = MetricsRegistry::new();
        {
            let _t = span!(r, "reduce");
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let s = r.histogram("phase.reduce_ns").snapshot();
        assert_eq!(s.count, 1);
        assert!(s.max >= 1_000_000, "slept 2ms but recorded {} ns", s.max);
    }

    #[test]
    fn noop_span_reads_no_clock() {
        let r = MetricsRegistry::noop();
        let t = span!(r, "gen");
        assert_eq!(t.elapsed_ns(), 0);
        t.finish();
    }

    #[test]
    fn nested_spans_feed_distinct_phases() {
        let r = MetricsRegistry::new();
        {
            let _outer = span!(r, "outer");
            let _inner = span!(r, "inner");
        }
        assert_eq!(r.histogram("phase.outer_ns").snapshot().count, 1);
        assert_eq!(r.histogram("phase.inner_ns").snapshot().count, 1);
    }
}
