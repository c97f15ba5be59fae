//! Query-engine observability: per-query metrics, traces, and the
//! cost-model drift monitor.
//!
//! [`QueryObs`] is the engine-side bundle of pre-registered handles — one
//! registry lookup per handle at bind time, lock-free updates per query.
//! Every query feeds:
//!
//! * `query.count` — queries executed,
//! * `phase.gen_ns` / `phase.reduce_ns` / `phase.refine_ns` — Algorithm 1
//!   phase CPU histograms, plus `phase.bounds_ns` for the batched
//!   cache-bound computation inside phase 2 (the table-walk hot loop),
//! * `query.candidates` / `query.c_refine` / `query.io_pages` — per-query
//!   work-size histograms,
//! * `query.rho_hit_ppm` / `query.rho_prune_ppm` — the paper's ρ_hit and
//!   ρ_prune per query, scaled to parts-per-million,
//! * one [`RequestTrace`] record in the registry's bounded trace ring —
//!   unless the bundle was built [`QueryObs::without_traces`], which the
//!   serving layer uses so each request is traced exactly once (at the
//!   server, with full lifecycle context) rather than once per layer.
//!
//! [`DriftMonitor`] closes the §4 loop: experiments store the cost model's
//! predicted `ρ_hit` / refinement I/O next to the measured values, so a
//! report shows at a glance when the model has drifted from reality
//! (the paper's Fig. 12 validation, as a pair of gauges per run).

use std::sync::atomic::{AtomicU64, Ordering};

use hc_core::cost_model::TauEstimate;
use hc_obs::trace::duration_ns;
use hc_obs::{Counter, Gauge, Histogram, MetricsRegistry, RequestTrace, TraceOutcome};

use crate::knn::QueryStats;
use crate::tree_search::TreeQueryStats;

/// Pre-registered metric handles for the kNN engine.
#[derive(Debug, Default)]
pub struct QueryObs {
    enabled: bool,
    record_traces: bool,
    queries: Counter,
    gen_ns: Histogram,
    reduce_ns: Histogram,
    bounds_ns: Histogram,
    refine_ns: Histogram,
    rho_hit_ppm: Histogram,
    rho_prune_ppm: Histogram,
    candidates: Histogram,
    c_refine: Histogram,
    io_pages: Histogram,
    registry: MetricsRegistry,
    seq: AtomicU64,
}

impl QueryObs {
    /// A disabled bundle; [`QueryObs::observe`] is a single branch.
    pub fn noop() -> Self {
        Self::default()
    }

    /// Register the engine's series in `registry`.
    pub fn bind(registry: &MetricsRegistry) -> Self {
        Self::bind_impl(registry, None)
    }

    /// Register the engine's series under a label — one per worker in a
    /// multi-threaded server, so `query.count{worker3}` etc. stay separate.
    /// Aggregate across workers with `RegistrySnapshot::counter_sum` /
    /// `histogram_merged`.
    pub fn bind_labeled(registry: &MetricsRegistry, label: &str) -> Self {
        Self::bind_impl(registry, Some(label))
    }

    fn bind_impl(registry: &MetricsRegistry, label: Option<&str>) -> Self {
        let counter = |name: &str| match label {
            Some(l) => registry.counter_with_label(name, l),
            None => registry.counter(name),
        };
        let histogram = |name: &str| match label {
            Some(l) => registry.histogram_with_label(name, l),
            None => registry.histogram(name),
        };
        Self {
            enabled: registry.is_enabled(),
            record_traces: registry.is_enabled(),
            queries: counter("query.count"),
            gen_ns: histogram("phase.gen_ns"),
            reduce_ns: histogram("phase.reduce_ns"),
            bounds_ns: histogram("phase.bounds_ns"),
            refine_ns: histogram("phase.refine_ns"),
            rho_hit_ppm: histogram("query.rho_hit_ppm"),
            rho_prune_ppm: histogram("query.rho_prune_ppm"),
            candidates: histogram("query.candidates"),
            c_refine: histogram("query.c_refine"),
            io_pages: histogram("query.io_pages"),
            registry: registry.clone(),
            seq: AtomicU64::new(0),
        }
    }

    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Keep the histograms but stop writing trace-ring entries. The
    /// serving layer binds its per-worker engines this way: the server
    /// records one end-to-end [`RequestTrace`] per request itself, and a
    /// second engine-side record would double the ring traffic while
    /// carrying strictly less context.
    pub fn without_traces(mut self) -> Self {
        self.record_traces = false;
        self
    }

    /// Record one finished query: histograms plus a trace-ring entry.
    pub fn observe(&self, stats: &QueryStats) {
        if !self.enabled {
            return;
        }
        self.queries.inc();
        self.gen_ns.record(duration_ns(stats.gen_cpu));
        self.reduce_ns.record(duration_ns(stats.reduce_cpu));
        self.bounds_ns.record(duration_ns(stats.bounds_cpu));
        self.refine_ns.record(duration_ns(stats.refine_cpu));
        self.rho_hit_ppm.record_ratio(stats.hit_ratio());
        self.rho_prune_ppm.record_ratio(stats.prune_ratio());
        self.candidates.record(stats.candidates as u64);
        self.c_refine.record(stats.c_refine as u64);
        self.io_pages.record(stats.io_pages);
        if self.record_traces {
            self.registry.trace(RequestTrace {
                seq: self.seq.fetch_add(1, Ordering::Relaxed),
                outcome: if stats.missing.is_empty() {
                    TraceOutcome::Done
                } else {
                    TraceOutcome::Degraded
                },
                ..stats.trace()
            });
        }
    }
}

/// Pre-registered metric handles for the tree-search engine — the
/// node-granularity mirror of [`QueryObs`]. The phase split follows the
/// tree pipeline (leaf-bound computation → traversal → deferred multi-step
/// pass) rather than Algorithm 1's gen/reduce/refine.
#[derive(Debug, Default)]
pub struct TreeQueryObs {
    enabled: bool,
    queries: Counter,
    bounds_ns: Histogram,
    traverse_ns: Histogram,
    deferred_ns: Histogram,
    leaf_fetches: Histogram,
    leaves_visited: Histogram,
    deferred: Histogram,
    io_pages: Histogram,
    degraded: Counter,
}

impl TreeQueryObs {
    /// A disabled bundle; [`TreeQueryObs::observe`] is a single branch.
    pub fn noop() -> Self {
        Self::default()
    }

    /// Register the engine's series in `registry`.
    pub fn bind(registry: &MetricsRegistry) -> Self {
        Self::bind_impl(registry, None)
    }

    /// Register under a label — one per worker in a multi-threaded server.
    pub fn bind_labeled(registry: &MetricsRegistry, label: &str) -> Self {
        Self::bind_impl(registry, Some(label))
    }

    fn bind_impl(registry: &MetricsRegistry, label: Option<&str>) -> Self {
        let counter = |name: &str| match label {
            Some(l) => registry.counter_with_label(name, l),
            None => registry.counter(name),
        };
        let histogram = |name: &str| match label {
            Some(l) => registry.histogram_with_label(name, l),
            None => registry.histogram(name),
        };
        Self {
            enabled: registry.is_enabled(),
            queries: counter("query.count"),
            bounds_ns: histogram("phase.tree_bounds_ns"),
            traverse_ns: histogram("phase.tree_traverse_ns"),
            deferred_ns: histogram("phase.tree_deferred_ns"),
            leaf_fetches: histogram("query.leaf_fetches"),
            leaves_visited: histogram("query.leaves_visited"),
            deferred: histogram("query.deferred"),
            io_pages: histogram("query.io_pages"),
            degraded: counter("query.degraded"),
        }
    }

    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Record one finished tree query.
    pub fn observe(&self, stats: &TreeQueryStats) {
        if !self.enabled {
            return;
        }
        self.queries.inc();
        self.bounds_ns.record(duration_ns(stats.bounds_cpu));
        self.traverse_ns.record(duration_ns(stats.traverse_cpu));
        self.deferred_ns.record(duration_ns(stats.deferred_cpu));
        self.leaf_fetches.record(stats.leaf_fetches);
        self.leaves_visited.record(stats.leaves_visited as u64);
        self.deferred.record(stats.deferred as u64);
        self.io_pages.record(stats.io_pages);
        if !stats.missing.is_empty() {
            self.degraded.inc();
        }
    }
}

/// Predicted-vs-observed cost-model gauges (`costmodel.*`).
///
/// `refine_io` is in the model's unit — expected page fetches per query
/// (Eqn. 1 with one page per refined candidate for the paper's
/// high-dimensional datasets); callers pass the measured `avg_io_pages`.
#[derive(Debug, Clone, Default)]
pub struct DriftMonitor {
    predicted_rho_hit: Gauge,
    observed_rho_hit: Gauge,
    predicted_refine_io: Gauge,
    observed_refine_io: Gauge,
    rho_hit_drift: Gauge,
    refine_io_drift: Gauge,
}

impl DriftMonitor {
    pub fn noop() -> Self {
        Self::default()
    }

    pub fn bind(registry: &MetricsRegistry) -> Self {
        Self {
            predicted_rho_hit: registry.gauge("costmodel.predicted_rho_hit"),
            observed_rho_hit: registry.gauge("costmodel.observed_rho_hit"),
            predicted_refine_io: registry.gauge("costmodel.predicted_refine_io"),
            observed_refine_io: registry.gauge("costmodel.observed_refine_io"),
            rho_hit_drift: registry.gauge("costmodel.rho_hit_drift"),
            refine_io_drift: registry.gauge("costmodel.refine_io_drift"),
        }
    }

    /// Store a prediction next to its measurement. Drift gauges are signed:
    /// `observed − predicted` for ρ_hit, and the relative error
    /// `(observed − predicted) / max(predicted, 1)` for refinement I/O.
    pub fn record(&self, predicted: &TauEstimate, observed_rho_hit: f64, observed_io: f64) {
        self.predicted_rho_hit.set(predicted.rho_hit);
        self.observed_rho_hit.set(observed_rho_hit);
        self.predicted_refine_io.set(predicted.refine_io);
        self.observed_refine_io.set(observed_io);
        self.rho_hit_drift.set(observed_rho_hit - predicted.rho_hit);
        self.refine_io_drift
            .set((observed_io - predicted.refine_io) / predicted.refine_io.max(1.0));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hc_core::dataset::PointId;
    use std::time::Duration;

    fn stats() -> QueryStats {
        QueryStats {
            candidates: 100,
            cache_hits: 80,
            pruned: 40,
            true_results: 20,
            c_refine: 30,
            io_pages: 12,
            fetched: 15,
            gen_cpu: Duration::from_micros(3),
            reduce_cpu: Duration::from_micros(50),
            bounds_cpu: Duration::from_micros(40),
            refine_cpu: Duration::from_micros(7),
            modeled_refine_secs: 0.06,
            missing: Vec::new(),
            pages_retried: 0,
            fault_excluded: 0,
            lookahead_issued: 0,
            lookahead_wasted: 0,
            io_batches: 0,
        }
    }

    #[test]
    fn observe_feeds_histograms_and_traces() {
        let registry = MetricsRegistry::new();
        let obs = QueryObs::bind(&registry);
        obs.observe(&stats());
        obs.observe(&stats());
        let snap = registry.snapshot();
        assert_eq!(snap.counter("query.count"), Some(2));
        let rho = snap.histogram("query.rho_hit_ppm").expect("rho_hit series");
        assert_eq!(rho.count, 2);
        assert_eq!(rho.max, 800_000);
        assert_eq!(snap.histogram("query.io_pages").expect("io series").sum, 24);
        assert!(snap.histogram("phase.reduce_ns").expect("phase series").sum >= 2 * 50_000);
        assert!(
            snap.histogram("phase.bounds_ns")
                .expect("bounds series")
                .sum
                >= 2 * 40_000
        );
        assert_eq!(snap.traces.len(), 2);
        assert_eq!(snap.traces[1].seq, 1);
        assert!((snap.traces[0].rho_hit() - 0.8).abs() < 1e-9);
    }

    /// The stats → trace slot mappings, pinned where they live. Every input
    /// is a distinct value, so a swapped pair of slots cannot pass.
    #[test]
    fn trace_maps_flat_and_tree_stats_onto_the_engine_slots() {
        let mut flat = stats();
        flat.missing = vec![PointId(3), PointId(9)];
        flat.pages_retried = 4;
        flat.fault_excluded = 5;
        assert_eq!(
            flat.trace(),
            RequestTrace {
                candidates: 100,
                cache_hits: 80,
                pruned: 40,
                true_results: 20,
                c_refine: 30,
                fetched: 15,
                io_pages: 12,
                pages_retried: 4,
                fault_excluded: 5,
                missing: 2,
                gen_ns: 3_000,
                reduce_ns: 50_000,
                refine_ns: 7_000,
                modeled_refine_secs: 0.06,
                ..RequestTrace::default()
            }
        );

        let tree = TreeQueryStats {
            leaves_total: 200,
            leaf_fetches: 11,
            exact_hits: 6,
            compact_hits: 70,
            deferred: 33,
            leaves_visited: 150,
            fetched_leaves: vec![1, 2],
            io_pages: 13,
            pages_retried: 2,
            missing: vec![PointId(8)],
            fault_excluded: 1,
            lookahead_issued: 21,
            lookahead_wasted: 22,
            bounds_cpu: Duration::from_micros(5),
            traverse_cpu: Duration::from_micros(60),
            deferred_cpu: Duration::from_micros(9),
            cpu: Duration::from_micros(80),
            modeled_io_secs: 0.065,
        };
        assert_eq!(
            tree.trace(),
            RequestTrace {
                candidates: 200, // leaves considered
                cache_hits: 76,  // exact + compact hits
                pruned: 50,      // leaves_total − leaves_visited
                true_results: 6, // exact hits
                c_refine: 33,    // deferred
                fetched: 11,     // leaf fetches
                io_pages: 13,
                pages_retried: 2,
                fault_excluded: 1,
                missing: 1,
                gen_ns: 5_000,     // bounds
                reduce_ns: 60_000, // traverse
                refine_ns: 9_000,  // deferred pass
                modeled_refine_secs: 0.065,
                ..RequestTrace::default()
            }
        );
        // Counts too large for a slot saturate instead of wrapping.
        let huge = TreeQueryStats {
            leaf_fetches: u64::MAX,
            io_pages: 1 << 40,
            ..TreeQueryStats::default()
        };
        assert_eq!(huge.trace().fetched, u32::MAX);
        assert_eq!(huge.trace().io_pages, u32::MAX);
    }

    #[test]
    fn without_traces_keeps_histograms_but_skips_the_ring() {
        let registry = MetricsRegistry::new();
        let obs = QueryObs::bind(&registry).without_traces();
        obs.observe(&stats());
        let snap = registry.snapshot();
        assert_eq!(snap.counter("query.count"), Some(1));
        assert!(snap.traces.is_empty(), "trace ring must stay untouched");
    }

    #[test]
    fn degraded_stats_trace_as_degraded() {
        let registry = MetricsRegistry::new();
        let obs = QueryObs::bind(&registry);
        let mut s = stats();
        s.missing = vec![PointId(3)];
        s.pages_retried = 2;
        s.fault_excluded = 1;
        obs.observe(&s);
        let traces = registry.traces().to_vec();
        assert_eq!(traces[0].outcome, hc_obs::TraceOutcome::Degraded);
        assert_eq!(traces[0].missing, 1);
        assert_eq!(traces[0].pages_retried, 2);
        assert_eq!(traces[0].fault_excluded, 1);
    }

    #[test]
    fn noop_obs_records_nothing() {
        let obs = QueryObs::noop();
        assert!(!obs.is_enabled());
        obs.observe(&stats()); // must not panic, must not allocate series
        let bound = QueryObs::bind(&MetricsRegistry::noop());
        assert!(!bound.is_enabled());
        bound.observe(&stats());
    }

    #[test]
    fn drift_monitor_stores_signed_errors() {
        let registry = MetricsRegistry::new();
        let drift = DriftMonitor::bind(&registry);
        let predicted = TauEstimate {
            tau: 8,
            rho_hit: 0.9,
            rho_refine: 0.2,
            refine_io: 40.0,
        };
        drift.record(&predicted, 0.85, 50.0);
        let snap = registry.snapshot();
        assert_eq!(snap.gauge("costmodel.predicted_rho_hit"), Some(0.9));
        assert_eq!(snap.gauge("costmodel.observed_rho_hit"), Some(0.85));
        assert!((snap.gauge("costmodel.rho_hit_drift").expect("set") + 0.05).abs() < 1e-12);
        assert!((snap.gauge("costmodel.refine_io_drift").expect("set") - 0.25).abs() < 1e-12);
    }
}
