//! The metric catalog and the report a run prints.
//!
//! Every metric the benchmark can emit is declared here once, with its unit
//! and direction; `BENCHMARK.json` is generated from it (a unit test keeps
//! the committed file in step). A run fills a [`Report`]; printing it emits one
//! `metric <name> <value> <unit> n=<samples>` line per metric, then the
//! contract's one-line JSON object as the last line of standard output.

use std::fmt::Write as _;

use crate::trace::Span;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One declared metric. `bound` is the share of the parent's median by
/// which an end-to-end metric may worsen; per-layer metrics carry none.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// Measured with tracing off, on every workload.
pub const END_TO_END: &[MetricDef] = &[
    e2e("qps", "1/s", Higher, 0.08),
    e2e("query_p50_us", "us", Lower, 0.08),
    e2e("query_p95_us", "us", Lower, 0.12),
    e2e("pages_per_query", "pages", Lower, 0.05),
    e2e("heap_peak_mb", "MB", Lower, 0.06),
    e2e("setup_s", "s", Lower, 0.15),
];

/// From the `--trace 1` run. A metric that has no meaning on a workload is
/// reported as 0 there (README.md lists which apply where).
pub const PER_LAYER: &[MetricDef] = &[
    // hc-index
    layer("index.candidates_us", "us", Lower),
    layer("index.candidates_per_query", "count", Lower),
    layer("index.leaf_bounds_us", "us", Lower),
    // hc-cache (+ hc-core::scan)
    layer("cache.lookup_us", "us", Lower),
    layer("cache.lookup_ns_per_hit", "ns", Lower),
    layer("cache.hit_ratio", "ratio", Higher),
    layer("cache.admit_us", "us", Lower),
    layer("cache.used_share", "ratio", Higher),
    layer("cache.node_lookup_us", "us", Lower),
    layer("cache.node_hit_ratio", "ratio", Higher),
    // hc-query
    layer("query.self_us", "us", Lower),
    layer("query.fetched_per_query", "count", Lower),
    layer("query.refine_share", "ratio", Lower),
    layer("query.degraded_share", "ratio", Lower),
    // hc-io
    layer("io.self_us", "us", Lower),
    layer("io.hot_hit_ratio", "ratio", Higher),
    layer("io.coalesced_per_1k", "count", Higher),
    layer("io.lookahead_wasted_share", "ratio", Lower),
    // hc-storage
    layer("storage.read_us", "us", Lower),
    layer("storage.read_ns_per_page", "ns", Lower),
    layer("storage.pages_per_query", "pages", Lower),
    layer("storage.retries_per_query", "count", Lower),
    layer("storage.read_errors_per_1k", "count", Lower),
    // hc-serve
    layer("serve.queue_wait_p50_us", "us", Lower),
    layer("serve.queue_wait_p95_us", "us", Lower),
    layer("serve.overhead_us", "us", Lower),
    layer("serve.parallel_efficiency", "ratio", Higher),
    layer("serve.latency_tail_us", "us", Lower),
    layer("serve.latency_tail_pct", "%", Higher),
    // hc-fleet
    layer("fleet.shard_latency_us", "us", Lower),
    layer("fleet.router_overhead_us", "us", Lower),
    layer("fleet.merge_us", "us", Lower),
    layer("fleet.hedges_per_1k", "count", Lower),
    layer("fleet.fanout_skew", "ratio", Lower),
    layer("fleet.degraded_share", "ratio", Lower),
    // hc-ingest
    layer("ingest.write_us_per_op", "us", Lower),
    layer("ingest.write_p99_us", "us", Lower),
    layer("ingest.write_late_max_us", "us", Lower),
    layer("ingest.insert_us", "us", Lower),
    layer("ingest.delete_us", "us", Lower),
    layer("ingest.maint_cycle_ms", "ms", Lower),
    layer("ingest.seals", "count", Lower),
    layer("ingest.compactions", "count", Lower),
    layer("ingest.segments_mean", "count", Lower),
    layer("ingest.query_us", "us", Lower),
    layer("ingest.space_per_live_byte", "ratio", Lower),
    layer("ingest.recover_ms", "ms", Lower),
    layer("ingest.replayed_ops", "count", Lower),
    // hc-maint
    layer("maint.rebuild_swap_ms", "ms", Lower),
    layer("maint.post_swap_hit_ratio", "ratio", Higher),
    // hc-obs and the tracer's own honesty checks
    layer("obs.overhead_pct", "%", Lower),
    layer("trace.overhead_pct", "%", Lower),
    layer("trace.unaccounted_pct", "%", Lower),
    layer("trace.direct_us", "us", Lower),
    layer("trace.dominance_ok", "count", Higher),
];

/// The workloads, with the reason each exists (mirrored in BENCHMARK.json).
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "flat_warm",
        "working set fits the compact cache (hit ratio 1): candidate generation and batched bounds dominate, storage and io must not",
    ),
    (
        "flat_cold",
        "working set exceeds cache and hot buffer, 1% curable faults: refine loop, checksummed reads, retries and the broker dominate",
    ),
    (
        "tree_warm",
        "iDistance leaves behind the node-cache tower: traversal and per-leaf bounds; point-cache and C2LSH changes must leave it flat",
    ),
    (
        "fleet_fanout",
        "2 shards x 2 replicas behind the router with latency spikes on primaries: polling, hedging, merge and the slowest shard's tail",
    ),
    (
        "ingest_mixed",
        "paced WAL writes with seals and compactions beside closed-loop reads, then crash recovery: write stalls against query latency",
    ),
];

/// The directory that holds the benchmark and nothing else.
pub const PATHS: &[&str] = &["perf"];

/// How the driver starts one run (it appends `--workload … --seed …
/// --seconds … --trace …`). Cargo builds the package on the first run.
pub const COMMAND: &[&str] = &[
    "cargo",
    "run",
    "--release",
    "--quiet",
    "--manifest-path",
    "perf/Cargo.toml",
    "--",
];

/// Seconds one run measures.
pub const RUN_SECONDS: u32 = 10;

/// `BENCHMARK.json`, generated from the catalog so the two cannot drift.
pub fn benchmark_json() -> String {
    let list = |items: &[&str]| {
        items
            .iter()
            .map(|s| quote(s))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|(name, why)| format!("    {{\"name\": {}, \"why\": {}}}", quote(name), quote(why)))
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|d| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                quote(d.name),
                quote(d.unit),
                quote(d.better.as_str()),
                number(d.bound.expect("end-to-end metrics are bounded"))
            )
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|d| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                quote(d.name),
                quote(d.unit),
                quote(d.better.as_str())
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [{}],\n  \"run_seconds\": {},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        list(COMMAND),
        list(PATHS),
        RUN_SECONDS,
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n")
    )
}

/// Values a run measured, in insertion order.
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    values: Vec<(&'static str, f64, usize)>,
}

impl Metrics {
    /// Record `name` = `value`, taken from `samples` samples. A second
    /// write to the same name replaces the first.
    pub fn set(&mut self, name: &'static str, value: f64, samples: usize) {
        match self.values.iter_mut().find(|(n, _, _)| *n == name) {
            Some(slot) => *slot = (name, value, samples),
            None => self.values.push((name, value, samples)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(n, _, _)| *n == name)
            .map(|&(_, v, _)| v)
    }

    fn samples(&self, name: &str) -> usize {
        self.values
            .iter()
            .find(|(n, _, _)| *n == name)
            .map_or(0, |&(_, _, s)| s)
    }
}

/// Everything one run of one workload produced.
#[derive(Debug, Clone)]
pub struct Report {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    /// Requests whose answers were held to the oracle.
    pub attempted: u64,
    /// Failed, timed-out, refused or oracle-mismatched requests.
    pub failed: u64,
    pub metrics: Metrics,
    /// Human-readable remarks: first mismatches, dominance failures.
    pub notes: Vec<String>,
    /// Spans of the traced pass, kept in memory until `--out` dumps them.
    pub spans: Vec<Span>,
}

impl Report {
    pub fn new(workload: &'static str, seed: u64, seconds: f64, traced: bool) -> Self {
        Self {
            workload,
            seed,
            seconds,
            traced,
            attempted: 0,
            failed: 0,
            metrics: Metrics::default(),
            notes: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// A run is correct when it verified something and nothing failed.
    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0
    }

    /// The metric list this run must print in full.
    pub fn catalog(&self) -> &'static [MetricDef] {
        if self.traced {
            PER_LAYER
        } else {
            END_TO_END
        }
    }

    /// Count one verification outcome; keeps the first few reasons.
    pub fn verdict<E: std::fmt::Display>(&mut self, what: &str, outcome: Result<(), E>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failed += 1;
            if self.notes.len() < 8 {
                self.notes.push(format!("MISMATCH {what}: {e}"));
            }
        }
    }

    /// Every catalog metric as `(def, value, samples)`. An end-to-end metric
    /// a workload failed to set is a harness bug; a per-layer metric that
    /// does not apply to the workload reads 0.
    pub fn rows(&self) -> Vec<(&'static MetricDef, f64, usize)> {
        self.catalog()
            .iter()
            .map(|def| {
                let value = match self.metrics.get(def.name) {
                    Some(v) => v,
                    None if self.traced => 0.0,
                    None => panic!("{} did not measure {}", self.workload, def.name),
                };
                (def, value, self.metrics.samples(def.name))
            })
            .collect()
    }

    /// The `metric …` lines plus notes, for people and for `--all`.
    pub fn human(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "workload {} seed {} seconds {} trace {}",
            self.workload, self.seed, self.seconds, self.traced as u8
        );
        for (def, value, samples) in self.rows() {
            let _ = writeln!(
                out,
                "metric {} {} {} n={}",
                def.name,
                number(value),
                def.unit,
                samples
            );
        }
        for note in &self.notes {
            let _ = writeln!(out, "note {note}");
        }
        let _ = writeln!(
            out,
            "checked {} answers, {} failed",
            self.attempted, self.failed
        );
        out
    }

    /// The contract's last line: exactly `correct`, `attempted`, `failed`
    /// and `metrics`.
    pub fn contract_line(&self) -> String {
        let metrics: Vec<String> = self
            .rows()
            .into_iter()
            .map(|(def, value, _)| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    quote(def.name),
                    number(value),
                    quote(def.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A JSON number with every digit the measurement has. Non-finite values
/// have no JSON form; they become 0 and the run is flagged elsewhere.
pub fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// A JSON string literal.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_contract_limits() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|d| d.name)
            .chain(WORKLOADS.iter().map(|w| w.0))
            .collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        for name in names {
            assert!(name.len() <= 64, "{name} too long");
            assert!(name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        for def in END_TO_END.iter().chain(PER_LAYER) {
            assert!(def.unit.len() <= 16);
            assert!(def
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!(WORKLOADS.iter().all(|w| w.1.len() <= 200));
        let setup = END_TO_END
            .iter()
            .find(|d| d.name == "setup_s")
            .expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let widest = END_TO_END
            .iter()
            .filter_map(|d| d.bound)
            .fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(widest), "setup_s takes the widest bound");
        assert!(widest <= 0.25);
    }

    /// BENCHMARK.json sits at the repository root, outside this package; when
    /// the package is checked out alone there is nothing to compare against.
    /// Regenerate the file with `perf --print-benchmark-json`.
    #[test]
    fn benchmark_json_is_the_catalog() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        if let Ok(committed) = std::fs::read_to_string(path) {
            assert_eq!(committed, benchmark_json());
        }
    }

    #[test]
    fn benchmark_json_meets_the_contract_limits() {
        let text = benchmark_json();
        assert!(text.len() <= 64 * 1024);
        for key in [
            "\"command\"",
            "\"paths\"",
            "\"run_seconds\"",
            "\"workloads\"",
            "\"end_to_end\"",
            "\"per_layer\"",
        ] {
            assert_eq!(text.matches(key).count(), 1, "{key}");
        }
        assert!(text.contains(
            "{\"name\": \"setup_s\", \"unit\": \"s\", \"better\": \"lower\", \"bound\": "
        ));
        assert!(COMMAND.len() <= 32 && COMMAND.iter().all(|a| a.len() <= 200));
        assert!((1..=60).contains(&RUN_SECONDS));
    }

    #[test]
    fn contract_line_has_exactly_the_four_keys_and_every_metric() {
        let mut r = Report::new("flat_warm", 1, 1.0, false);
        for (i, def) in END_TO_END.iter().enumerate() {
            r.metrics.set(def.name, 1.5 + i as f64, 10);
        }
        r.verdict("q0", Ok::<(), String>(()));
        let line = r.contract_line();
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {")
        );
        for def in END_TO_END {
            assert!(line.contains(&format!("\"{}\": {{\"value\": ", def.name)));
        }
        assert!(line.contains("\"qps\": {\"value\": 1.5, \"unit\": \"1/s\"}"));
        assert!(!line.contains('\n'));
        r.verdict("q1", Err("boom"));
        assert!(!r.correct());
        assert!(r.contract_line().contains("\"correct\": false"));
        assert!(r.human().contains("note MISMATCH q1: boom"));
    }

    #[test]
    fn traced_report_defaults_unset_layers_to_zero() {
        let mut r = Report::new("tree_warm", 1, 1.0, true);
        r.metrics.set("index.leaf_bounds_us", 12.25, 3);
        let rows = r.rows();
        assert_eq!(rows.len(), PER_LAYER.len());
        assert!(r
            .human()
            .contains("metric index.leaf_bounds_us 12.25 us n=3"));
        assert!(r.human().contains("metric fleet.merge_us 0 us n=0"));
    }

    #[test]
    fn json_helpers_escape_and_keep_digits() {
        assert_eq!(quote("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        assert_eq!(number(1.2034), "1.2034");
        assert_eq!(number(f64::NAN), "0");
    }
}
