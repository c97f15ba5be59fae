//! Bounded per-request trace ring.
//!
//! Aggregates (histograms) answer "how is the pipeline doing"; the trace
//! ring answers "what did the slow requests actually do". Every request
//! pushes one fixed-size [`RequestTrace`] record into a mutex-guarded ring
//! that keeps the most recent `capacity` requests. One short uncontended
//! lock per *request* (not per candidate) keeps this off the hot path.
//!
//! A [`RequestTrace`] follows a request through its whole life, not just
//! the engine's inner phases: queue wait, worker id, cache generation
//! served, storage fault/retry annotations, deadline slack, and the final
//! [`TraceOutcome`]. When an engine runs standalone (the experiment
//! binaries drive `KnnEngine` directly, with no server in front), the
//! serving-side fields are simply zero — the engine-phase fields carry the
//! same meaning either way.

use std::collections::VecDeque;
use std::sync::Mutex;
use std::time::Duration;

/// Default ring capacity (records, ~150 B each).
pub const DEFAULT_TRACE_CAPACITY: usize = 1024;

/// Hard ceiling on the ring capacity. [`TraceLog::with_capacity`] clamps
/// both the preallocation *and* the stored capacity to this bound, so the
/// ring can never grow past it no matter what a caller asks for.
pub const MAX_TRACE_CAPACITY: usize = 1 << 16;

/// Narrow a per-query count into one of [`RequestTrace`]'s `u32` slots,
/// saturating rather than wrapping.
pub fn saturate_u32<T: TryInto<u32>>(n: T) -> u32 {
    n.try_into().unwrap_or(u32::MAX)
}

/// A phase duration as (saturating) nanoseconds, for the `*_ns` slots.
pub fn duration_ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Terminal state of a traced request — the serving layer's
/// `QueryOutcome` plus `QueueFull` (a request shed at the admission door
/// still leaves a trace).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum TraceOutcome {
    /// Exact top-k answer.
    #[default]
    Done,
    /// Answered, but storage faults cost it candidates (DESIGN.md §10).
    Degraded,
    /// Shed on an expired deadline without running.
    TimedOut,
    /// Refused at the admission queue.
    QueueFull,
    /// Evaluation panicked or the server shut down with it queued.
    Failed,
}

impl TraceOutcome {
    pub fn as_str(&self) -> &'static str {
        match self {
            TraceOutcome::Done => "done",
            TraceOutcome::Degraded => "degraded",
            TraceOutcome::TimedOut => "timed_out",
            TraceOutcome::QueueFull => "queue_full",
            TraceOutcome::Failed => "failed",
        }
    }

    /// Whether the request got an answer (exact or degraded).
    pub fn is_answered(&self) -> bool {
        matches!(self, TraceOutcome::Done | TraceOutcome::Degraded)
    }
}

/// One request's worth of pipeline events, end to end. All fields are plain
/// numbers so a record never allocates.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RequestTrace {
    /// Monotone per-process sequence number (assigned by the server, or by
    /// the engine when running standalone).
    pub seq: u64,
    // --- engine phases, in Algorithm 1's terms. Each engine maps its own
    //     per-query stats onto these slots in its `trace()` method
    //     (`QueryStats`, `TreeQueryStats`, `IngestAnswer`); what a slot
    //     means for the tree and ingest engines is documented there ---
    /// `|C(q)|` — candidates from the index.
    pub candidates: u32,
    /// Cache hits among candidates.
    pub cache_hits: u32,
    /// Candidates pruned early (`lb > ub_k`).
    pub pruned: u32,
    /// Candidates detected as true results (`ub < lb_k`).
    pub true_results: u32,
    /// Candidates entering refinement (the paper's `C_refine`).
    pub c_refine: u32,
    /// Points fetched from the simulated disk.
    pub fetched: u32,
    /// Pages read (after within-query dedup).
    pub io_pages: u32,
    /// Phase CPU times, nanoseconds.
    pub gen_ns: u64,
    pub reduce_ns: u64,
    pub refine_ns: u64,
    /// Modeled refinement wall-clock seconds (`T_io · io_pages`).
    pub modeled_refine_secs: f64,
    // --- request lifecycle (zero when the engine runs standalone) ---
    /// Time the request sat queued before a worker picked it up, µs.
    pub queue_wait_us: u64,
    /// Submit-to-terminal wall time, µs (includes queue wait and any
    /// simulated I/O stall).
    pub total_us: u64,
    /// Id of the worker that ran the request.
    pub worker: u32,
    /// Cache generation that served the request (bumps on hot swap).
    pub cache_generation: u64,
    // --- storage fault annotations (from the fallible page store) ---
    /// Page reads that were fault-recovery reruns.
    pub pages_retried: u32,
    /// Unreadable candidates proven irrelevant by cached bounds — faults
    /// absorbed without degrading the answer.
    pub fault_excluded: u32,
    /// Candidates lost to unreadable pages (non-zero ⇒ `Degraded`).
    pub missing: u32,
    // --- deadline ---
    /// Whether the request carried a deadline.
    pub has_deadline: bool,
    /// Budget remaining when the request reached its terminal state, µs;
    /// negative means the deadline had already passed. Zero (with
    /// `has_deadline == false`) when no deadline was set.
    pub deadline_slack_us: i64,
    /// Terminal state of the request.
    pub outcome: TraceOutcome,
}

impl RequestTrace {
    /// `ρ_hit` of this request.
    pub fn rho_hit(&self) -> f64 {
        if self.candidates == 0 {
            0.0
        } else {
            self.cache_hits as f64 / self.candidates as f64
        }
    }

    /// `ρ_prune` of this request (pruned or confirmed fraction of hits).
    pub fn rho_prune(&self) -> f64 {
        if self.cache_hits == 0 {
            0.0
        } else {
            (self.pruned + self.true_results) as f64 / self.cache_hits as f64
        }
    }

    /// Modeled total response seconds (CPU + modeled disk).
    pub fn modeled_response_secs(&self) -> f64 {
        (self.gen_ns + self.reduce_ns + self.refine_ns) as f64 * 1e-9 + self.modeled_refine_secs
    }

    /// Wall latency when served through the server, else the modeled time.
    /// This is the sort key `/tracez` and the incident file rank by.
    pub fn latency_secs(&self) -> f64 {
        if self.total_us > 0 {
            self.total_us as f64 * 1e-6
        } else {
            self.modeled_response_secs()
        }
    }
}

/// The bounded ring. `disabled()` (capacity 0) never stores anything.
#[derive(Debug)]
pub struct TraceLog {
    ring: Mutex<VecDeque<RequestTrace>>,
    capacity: usize,
}

impl Default for TraceLog {
    fn default() -> Self {
        Self::with_capacity(DEFAULT_TRACE_CAPACITY)
    }
}

impl TraceLog {
    /// A ring retaining the last `capacity` records, clamped to
    /// [`MAX_TRACE_CAPACITY`] — the stored capacity and the preallocation
    /// are clamped together, so the ring never silently grows past the
    /// bound it preallocated for.
    pub fn with_capacity(capacity: usize) -> Self {
        let capacity = capacity.min(MAX_TRACE_CAPACITY);
        Self {
            ring: Mutex::new(VecDeque::with_capacity(capacity)),
            capacity,
        }
    }

    /// A log that drops everything (for the noop registry).
    pub fn disabled() -> Self {
        Self::with_capacity(0)
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Append a record, evicting the oldest once full.
    pub fn record(&self, t: RequestTrace) {
        if self.capacity == 0 {
            return;
        }
        let mut ring = self.ring.lock().expect("trace ring poisoned");
        if ring.len() == self.capacity {
            ring.pop_front();
        }
        ring.push_back(t);
    }

    pub fn len(&self) -> usize {
        self.ring.lock().expect("trace ring poisoned").len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn clear(&self) {
        self.ring.lock().expect("trace ring poisoned").clear();
    }

    /// Copy out the retained records, oldest first.
    pub fn to_vec(&self) -> Vec<RequestTrace> {
        self.ring
            .lock()
            .expect("trace ring poisoned")
            .iter()
            .copied()
            .collect()
    }

    /// The `n` retained requests scoring highest under `key` — e.g.
    /// `slowest_by(8, |t| t.latency_secs())` for a slow-request report, or
    /// keyed on `io_pages` for I/O outliers.
    pub fn slowest_by<K: FnMut(&RequestTrace) -> f64>(
        &self,
        n: usize,
        mut key: K,
    ) -> Vec<RequestTrace> {
        let mut all = self.to_vec();
        all.sort_by(|a, b| {
            key(b)
                .partial_cmp(&key(a))
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        all.truncate(n);
        all
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace(seq: u64, io_pages: u32) -> RequestTrace {
        RequestTrace {
            seq,
            io_pages,
            candidates: 10,
            cache_hits: 5,
            ..Default::default()
        }
    }

    #[test]
    fn ring_keeps_most_recent() {
        let log = TraceLog::with_capacity(3);
        for seq in 0..5 {
            log.record(trace(seq, seq as u32));
        }
        let got: Vec<u64> = log.to_vec().iter().map(|t| t.seq).collect();
        assert_eq!(got, vec![2, 3, 4]);
    }

    #[test]
    fn disabled_ring_stores_nothing() {
        let log = TraceLog::disabled();
        log.record(trace(1, 1));
        assert!(log.is_empty());
    }

    #[test]
    fn capacity_is_clamped_in_storage_not_just_preallocation() {
        let log = TraceLog::with_capacity(MAX_TRACE_CAPACITY + 100);
        assert_eq!(
            log.capacity(),
            MAX_TRACE_CAPACITY,
            "stored capacity must honor the same clamp as the preallocation"
        );
    }

    #[test]
    fn slowest_by_orders_by_key() {
        let log = TraceLog::with_capacity(10);
        for (seq, pages) in [(0, 5), (1, 50), (2, 1), (3, 20)] {
            log.record(trace(seq, pages));
        }
        let top: Vec<u64> = log
            .slowest_by(2, |t| t.io_pages as f64)
            .iter()
            .map(|t| t.seq)
            .collect();
        assert_eq!(top, vec![1, 3]);
    }

    #[test]
    fn trace_ratios_match_query_stats_semantics() {
        let t = RequestTrace {
            candidates: 100,
            cache_hits: 80,
            pruned: 40,
            true_results: 20,
            ..Default::default()
        };
        assert!((t.rho_hit() - 0.8).abs() < 1e-12);
        assert!((t.rho_prune() - 0.75).abs() < 1e-12);
        let zero = RequestTrace::default();
        assert_eq!(zero.rho_hit(), 0.0);
        assert_eq!(zero.rho_prune(), 0.0);
    }

    #[test]
    fn latency_prefers_wall_time_over_model() {
        let modeled_only = RequestTrace {
            modeled_refine_secs: 0.5,
            ..Default::default()
        };
        assert!((modeled_only.latency_secs() - 0.5).abs() < 1e-12);
        let served = RequestTrace {
            total_us: 2_000_000,
            modeled_refine_secs: 0.5,
            ..Default::default()
        };
        assert!((served.latency_secs() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn outcome_answered_split() {
        assert!(TraceOutcome::Done.is_answered());
        assert!(TraceOutcome::Degraded.is_answered());
        assert!(!TraceOutcome::TimedOut.is_answered());
        assert!(!TraceOutcome::QueueFull.is_answered());
        assert!(!TraceOutcome::Failed.is_answered());
    }
}
