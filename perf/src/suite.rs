//! `--all` and `--repeat-check`: the whole matrix, one child process per
//! workload and mode, merged into one report.
//!
//! A workload runs in its own process so that peak memory, allocator state
//! and thread pools of one cannot leak into another's numbers. The parent
//! reads the children's `metric …` lines — the same lines a person reads —
//! so there is one output format, not two.

use std::fmt::Write as _;
use std::process::{Command, Stdio};

use crate::report::{number, quote, Report, END_TO_END, WORKLOADS};
use crate::trace::Layer;
use crate::Options;

/// Per-layer counts that must repeat exactly between two runs of the same
/// code and seed, and the workloads on which they are deterministic (single
/// thread, or count-triggered maintenance).
const EXACT: &[(&str, &[&str])] = &[
    (
        "storage.pages_per_query",
        &["flat_warm", "flat_cold", "tree_warm"],
    ),
    ("ingest.seals", &["ingest_mixed"]),
    ("ingest.compactions", &["ingest_mixed"]),
];

/// One metric as parsed back from a child.
#[derive(Debug, Clone, PartialEq)]
struct Row {
    name: String,
    value: f64,
    unit: String,
    samples: usize,
}

/// What one child (one workload, one mode) reported.
#[derive(Debug, Clone, Default)]
struct ChildReport {
    rows: Vec<Row>,
    notes: Vec<String>,
    attempted: u64,
    failed: u64,
    /// Exit status 0 and a parsable verdict line.
    ok: bool,
}

impl ChildReport {
    fn get(&self, name: &str) -> Option<f64> {
        self.rows.iter().find(|r| r.name == name).map(|r| r.value)
    }
}

/// Both modes of one workload.
#[derive(Debug, Clone)]
struct WorkloadReport {
    name: &'static str,
    end_to_end: ChildReport,
    per_layer: ChildReport,
}

/// The merged matrix.
#[derive(Debug, Clone)]
pub struct Matrix {
    seed: u64,
    seconds: f64,
    workloads: Vec<WorkloadReport>,
}

fn parse_child(stdout: &str, exit_ok: bool) -> ChildReport {
    let mut child = ChildReport::default();
    let mut verdict_seen = false;
    for line in stdout.lines() {
        let words: Vec<&str> = line.split_whitespace().collect();
        match words.as_slice() {
            ["metric", name, value, unit, samples] => {
                if let (Ok(value), Some(Ok(samples))) =
                    (value.parse(), samples.strip_prefix("n=").map(str::parse))
                {
                    child.rows.push(Row {
                        name: name.to_string(),
                        value,
                        unit: unit.to_string(),
                        samples,
                    });
                }
            }
            ["note", ..] => child.notes.push(line["note ".len()..].to_string()),
            ["checked", attempted, "answers,", failed, "failed"] => {
                if let (Ok(a), Ok(f)) = (attempted.parse(), failed.parse()) {
                    (child.attempted, child.failed) = (a, f);
                    verdict_seen = true;
                }
            }
            _ => {}
        }
    }
    child.ok = exit_ok && verdict_seen && child.failed == 0 && child.attempted > 0;
    child
}

fn run_child(opts: &Options, workload: &str, trace: bool) -> ChildReport {
    let exe = std::env::current_exe().expect("the running binary has a path");
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--check-dominance")
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if opts.smoke {
        command.arg("--smoke");
    }
    // `output` waits for the child, so no process outlives this call.
    let output = command.output().expect("cannot start a child run");
    let stdout = String::from_utf8_lossy(&output.stdout);
    for line in stdout.lines().filter(|l| !l.starts_with('{')) {
        println!("  {line}");
    }
    parse_child(&stdout, output.status.success())
}

/// Run every workload in both modes. Prints as it goes; writes the merged
/// JSON to `--out` when given. `None` when any child failed.
pub fn run_all(opts: &Options) -> Option<Matrix> {
    let mut workloads = Vec::new();
    for &(name, _) in WORKLOADS {
        println!("== {name}: end to end (tracing off)");
        let end_to_end = run_child(opts, name, false);
        println!("== {name}: per layer (traced)");
        let per_layer = run_child(opts, name, true);
        workloads.push(WorkloadReport {
            name,
            end_to_end,
            per_layer,
        });
    }
    let matrix = Matrix {
        seed: opts.seed,
        seconds: opts.seconds,
        workloads,
    };
    print!("{}", matrix.table());
    if let Some(path) = &opts.out {
        if let Err(e) = std::fs::write(path, matrix.to_json()) {
            eprintln!("cannot write {}: {e}", path.display());
            return None;
        }
    }
    let failed: Vec<&str> = matrix
        .workloads
        .iter()
        .filter(|w| !(w.end_to_end.ok && w.per_layer.ok))
        .map(|w| w.name)
        .collect();
    if failed.is_empty() {
        Some(matrix)
    } else {
        println!("FAILED: {}", failed.join(", "));
        None
    }
}

impl Matrix {
    /// End-to-end metrics, one row per metric, one column per workload.
    fn table(&self) -> String {
        let mut out = String::new();
        let _ = write!(out, "\n{:<18}", format!("seed {}", self.seed));
        for w in &self.workloads {
            let _ = write!(out, "{:>14}", w.name);
        }
        out.push('\n');
        for def in END_TO_END {
            let _ = write!(out, "{:<18}", format!("{} [{}]", def.name, def.unit));
            for w in &self.workloads {
                match w.end_to_end.get(def.name) {
                    Some(v) => {
                        let _ = write!(out, "{v:>14.3}");
                    }
                    None => {
                        let _ = write!(out, "{:>14}", "-");
                    }
                }
            }
            out.push('\n');
        }
        out
    }

    fn to_json(&self) -> String {
        let child = |c: &ChildReport| {
            let rows: Vec<String> = c
                .rows
                .iter()
                .map(|r| {
                    format!(
                        "{}: {{\"value\": {}, \"unit\": {}, \"n\": {}}}",
                        quote(&r.name),
                        number(r.value),
                        quote(&r.unit),
                        r.samples
                    )
                })
                .collect();
            let notes: Vec<String> = c.notes.iter().map(|n| quote(n)).collect();
            format!(
                "{{\"attempted\": {}, \"failed\": {}, \"notes\": [{}], \"metrics\": {{\n      {}\n    }}}}",
                c.attempted,
                c.failed,
                notes.join(", "),
                rows.join(",\n      ")
            )
        };
        let workloads: Vec<String> = self
            .workloads
            .iter()
            .map(|w| {
                format!(
                    "  {}: {{\n    \"end_to_end\": {},\n    \"per_layer\": {}\n  }}",
                    quote(w.name),
                    child(&w.end_to_end),
                    child(&w.per_layer)
                )
            })
            .collect();
        format!(
            "{{\n\"seed\": {}, \"run_seconds\": {},\n\"workloads\": {{\n{}\n}}\n}}\n",
            self.seed,
            number(self.seconds),
            workloads.join(",\n")
        )
    }
}

/// Two sets of runs of the same code and seed must agree within the
/// benchmark's own bounds on every end-to-end metric, and exactly on the
/// deterministic counts; a third set on the next seed must pass the oracle
/// and the dominance self-check.
pub fn repeat_check(opts: &Options) -> bool {
    println!("#### repeat-check: first set, seed {}", opts.seed);
    let Some(first) = run_all(opts) else {
        return false;
    };
    println!("#### repeat-check: second set, seed {}", opts.seed);
    let Some(second) = run_all(opts) else {
        return false;
    };
    let mut ok = true;
    for (a, b) in first.workloads.iter().zip(&second.workloads) {
        for def in END_TO_END {
            let bound = def.bound.expect("end-to-end metrics are bounded");
            let (Some(x), Some(y)) = (a.end_to_end.get(def.name), b.end_to_end.get(def.name))
            else {
                println!("MISSING {} {}", a.name, def.name);
                ok = false;
                continue;
            };
            let gap = (x - y).abs() / x.abs().max(f64::MIN_POSITIVE);
            let verdict = if gap <= bound { "ok" } else { "DISAGREE" };
            println!(
                "{verdict:<9}{:<14}{:<18}{x:>14.3}{y:>14.3}  gap {:.2}% of bound {:.0}%",
                a.name,
                def.name,
                gap * 100.0,
                bound * 100.0
            );
            ok &= gap <= bound;
        }
        for &(metric, workloads) in EXACT {
            if !workloads.contains(&a.name) {
                continue;
            }
            let (x, y) = (a.per_layer.get(metric), b.per_layer.get(metric));
            let same = x.is_some() && x == y;
            println!(
                "{:<9}{:<14}{metric:<28}{x:?} vs {y:?} (must repeat exactly)",
                if same { "ok" } else { "DISAGREE" },
                a.name
            );
            ok &= same;
        }
    }
    let next = Options {
        seed: opts.seed + 1,
        out: None,
        ..opts.clone()
    };
    println!("#### repeat-check: third set, seed {}", next.seed);
    ok &= run_all(&next).is_some();
    println!("repeat-check {}", if ok { "passed" } else { "FAILED" });
    ok
}

/// The full single-run report for `--out`: every metric with its sample
/// count, the notes, and (traced) every span.
pub fn report_json(report: &Report) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\n\"workload\": {}, \"seed\": {}, \"run_seconds\": {}, \"trace\": {},\n\"correct\": {}, \"attempted\": {}, \"failed\": {},\n\"notes\": [{}],\n\"metrics\": {{\n",
        quote(report.workload),
        report.seed,
        number(report.seconds),
        report.traced,
        report.correct(),
        report.attempted,
        report.failed,
        report
            .notes
            .iter()
            .map(|n| quote(n))
            .collect::<Vec<_>>()
            .join(", ")
    );
    let rows: Vec<String> = report
        .rows()
        .into_iter()
        .map(|(def, value, samples)| {
            format!(
                "  {}: {{\"value\": {}, \"unit\": {}, \"better\": {}, \"n\": {}}}",
                quote(def.name),
                number(value),
                quote(def.unit),
                quote(def.better.as_str()),
                samples
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n},\n");
    let layers: Vec<String> = Layer::ALL.iter().map(|l| quote(l.name())).collect();
    let _ = write!(
        out,
        "\"span_layers\": [{}],\n\"span_fields\": [\"layer\", \"start_ns\", \"end_ns\", \"parent\", \"request\", \"failed\"],\n\"spans\": [",
        layers.join(", ")
    );
    for (i, span) in report.spans.iter().enumerate() {
        let layer = Layer::ALL
            .iter()
            .position(|&l| l == span.layer)
            .expect("every layer is listed");
        // A root span's parent is written as -1.
        let parent = if span.parent == crate::trace::NO_PARENT {
            -1
        } else {
            i64::from(span.parent)
        };
        let _ = write!(
            out,
            "{}\n[{layer},{},{},{parent},{},{}]",
            if i == 0 { "" } else { "," },
            span.start_ns,
            span.end_ns,
            span.request,
            span.failed as u8
        );
    }
    out.push_str("\n]\n}\n");
    out
}

/// Keeps the catalog's per-layer list honest: everything [`EXACT`] names
/// must exist.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::PER_LAYER;

    #[test]
    fn exact_counts_name_real_metrics_and_workloads() {
        for &(metric, workloads) in EXACT {
            assert!(PER_LAYER.iter().any(|d| d.name == metric), "{metric}");
            for w in workloads {
                assert!(WORKLOADS.iter().any(|(name, _)| name == w), "{w}");
            }
        }
    }

    #[test]
    fn child_output_parses_back() {
        let mut report = Report::new("flat_warm", 3, 1.0, false);
        for (i, def) in END_TO_END.iter().enumerate() {
            report.metrics.set(def.name, 0.5 + i as f64, 7 + i);
        }
        report.verdict("q", Ok::<(), String>(()));
        report.notes.push("DOMINANCE something odd".into());
        let text = format!("{}{}\n", report.human(), report.contract_line());
        let child = parse_child(&text, true);
        assert!(child.ok);
        assert_eq!((child.attempted, child.failed), (1, 0));
        assert_eq!(child.rows.len(), END_TO_END.len());
        assert_eq!(child.get("qps"), Some(0.5));
        assert_eq!(child.rows[1].samples, 8);
        assert_eq!(child.notes, vec!["DOMINANCE something odd".to_string()]);
        // A failed verdict, a bad exit status, or no verdict line at all
        // each make the child not ok.
        report.verdict("q", Err("wrong"));
        assert!(!parse_child(&report.human(), true).ok);
        assert!(!parse_child(&text, false).ok);
        assert!(!parse_child("metric qps 1 1/s n=1\n", true).ok);
    }

    #[test]
    fn report_json_lists_metrics_and_spans() {
        let mut report = Report::new("tree_warm", 1, 2.0, true);
        report.metrics.set("index.leaf_bounds_us", 9.5, 4);
        report.verdict("q", Ok::<(), String>(()));
        report.spans = vec![
            crate::trace::Span {
                layer: Layer::Query,
                start_ns: 5,
                end_ns: 50,
                parent: crate::trace::NO_PARENT,
                request: 3,
                failed: false,
            },
            crate::trace::Span {
                layer: Layer::Storage,
                start_ns: 10,
                end_ns: 20,
                parent: 0,
                request: 3,
                failed: true,
            },
        ];
        let json = report_json(&report);
        assert!(json.contains("\"index.leaf_bounds_us\": {\"value\": 9.5, \"unit\": \"us\", \"better\": \"lower\", \"n\": 4}"));
        assert!(json.contains("[0,5,50,-1,3,0]"));
        assert!(json.contains("[7,10,20,0,3,1]"));
        assert!(json.contains("\"correct\": true"));
    }
}
