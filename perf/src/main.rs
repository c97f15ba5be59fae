//! `perf` — the repository's one reproducible benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perf/Cargo.toml -- \
//!     --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out FILE]
//! cargo run --release --manifest-path perf/Cargo.toml -- --all [--smoke] [--out FILE]
//! cargo run --release --manifest-path perf/Cargo.toml -- --repeat-check [--smoke]
//! ```
//!
//! One invocation runs one workload in its own process, holds every answer
//! to the oracle, prints every metric by name and unit, and ends standard
//! output with the one-line JSON object `BENCHMARK.json`'s contract asks
//! for. `--trace 0` (the default) measures the end-to-end metrics with
//! tracing off; `--trace 1` runs the per-layer passes. README.md has the
//! tables.

mod flat;
mod fleet;
mod heap;
mod ingest;
mod layers;
mod load;
mod oracle;
mod report;
mod stats;
mod suite;
mod trace;
mod tree;
mod world;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use report::{Report, WORKLOADS};

#[global_allocator]
static ALLOCATOR: heap::Counting = heap::Counting;

/// Seconds a run measures when `--seconds` is not given (`run_seconds` in
/// BENCHMARK.json).
const DEFAULT_SECONDS: f64 = report::RUN_SECONDS as f64;
/// `--smoke` divides every count and the timed window by this.
const SMOKE_DIVISOR: f64 = 20.0;
/// Times set-up is repeated in an end-to-end run; the median is reported.
const SETUP_REPEATS: usize = 3;

/// What one invocation was asked to do.
#[derive(Debug, Clone)]
pub struct Options {
    pub workload: String,
    /// Drives the dataset, the request stream, the mutation stream and the
    /// fault schedule.
    pub seed: u64,
    /// Length of the timed window.
    pub seconds: f64,
    /// Per-layer run instead of the end-to-end run.
    pub trace: bool,
    pub smoke: bool,
    /// Write the full report (and, traced, the spans) here as JSON.
    pub out: Option<PathBuf>,
    /// Treat a failed dominance self-check as a failed run. Set by `--all`;
    /// the bare contract invocation only reports it, because a change that
    /// legitimately shrinks a dominant layer must still be measurable.
    pub check_dominance: bool,
}

impl Options {
    /// A fixed request count, divided in `--smoke`.
    pub fn scaled(&self, count: usize) -> usize {
        if self.smoke {
            ((count as f64 / SMOKE_DIVISOR) as usize).max(1)
        } else {
            count
        }
    }

    /// Requests of a traced pass: a fixed rate times `--seconds`, so the
    /// count — and every count derived from it — repeats exactly.
    pub fn traced_requests(&self, per_second: usize) -> usize {
        ((per_second as f64 * self.seconds) as usize).max(1)
    }

    fn setup_repeats(&self) -> usize {
        if self.smoke || self.trace {
            1
        } else {
            SETUP_REPEATS
        }
    }
}

/// Build the system under test several times, time each build, and keep
/// the last. Earlier builds are dropped (servers join their workers) before
/// the next starts. Returns (median seconds, builds, last build).
pub fn median_setup<T>(opts: &Options, mut build: impl FnMut() -> T) -> (f64, usize, T) {
    let repeats = opts.setup_repeats();
    let mut times = Vec::with_capacity(repeats);
    let mut kept = None;
    for _ in 0..repeats {
        drop(kept.take());
        let started = Instant::now();
        kept = Some(build());
        times.push(started.elapsed().as_secs_f64());
    }
    (
        stats::median(&times),
        repeats,
        kept.expect("at least one set-up"),
    )
}

/// Record the dominance self-check: whether each workload still isolates
/// the layers it exists to isolate. Failures are always noted; they fail
/// the run only when the caller asked for that.
pub fn finish_dominance(report: &mut Report, opts: &Options, checks: Vec<(bool, String)>) {
    let ok = checks.iter().all(|(ok, _)| *ok);
    report
        .metrics
        .set("trace.dominance_ok", ok as u8 as f64, checks.len());
    for (passed, what) in checks {
        if passed {
            continue;
        }
        if opts.check_dominance {
            report.verdict("dominance", Err::<(), _>(what));
        } else {
            report.notes.push(format!("DOMINANCE {what}"));
        }
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: perf --workload <{}> [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out FILE]\n       perf --all [--seed N] [--seconds S] [--smoke] [--out FILE]\n       perf --repeat-check [--seed N] [--seconds S] [--smoke]",
        WORKLOADS
            .iter()
            .map(|w| w.0)
            .collect::<Vec<_>>()
            .join("|")
    );
    std::process::exit(2)
}

enum Mode {
    One,
    All,
    RepeatCheck,
}

fn parse() -> (Mode, Options) {
    let mut opts = Options {
        workload: String::new(),
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        smoke: false,
        out: None,
        check_dominance: false,
    };
    let mut mode = Mode::One;
    let mut seconds_given = false;
    let mut args = std::env::args().skip(1).peekable();
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("{name} needs a value");
                usage()
            })
        };
        match arg.as_str() {
            "--workload" => opts.workload = value("--workload"),
            "--seed" => opts.seed = value("--seed").parse().unwrap_or_else(|_| usage()),
            "--seconds" => {
                opts.seconds = value("--seconds").parse().unwrap_or_else(|_| usage());
                seconds_given = true;
            }
            "--trace" => {
                // `--trace` alone means on; the contract passes 0 or 1.
                opts.trace = match args.peek().map(String::as_str) {
                    Some("0") => {
                        args.next();
                        false
                    }
                    Some("1") => {
                        args.next();
                        true
                    }
                    _ => true,
                }
            }
            "--smoke" => opts.smoke = true,
            "--out" => opts.out = Some(PathBuf::from(value("--out"))),
            "--check-dominance" => opts.check_dominance = true,
            "--print-benchmark-json" => {
                print!("{}", report::benchmark_json());
                std::process::exit(0)
            }
            "--all" => mode = Mode::All,
            "--repeat-check" => mode = Mode::RepeatCheck,
            _ => usage(),
        }
    }
    if !(opts.seconds.is_finite() && opts.seconds > 0.0 && opts.seconds <= 60.0) {
        eprintln!("--seconds must be in (0, 60]");
        usage();
    }
    if opts.smoke && !seconds_given {
        opts.seconds = DEFAULT_SECONDS / SMOKE_DIVISOR;
    }
    (mode, opts)
}

fn run_one(opts: &Options) -> Report {
    match opts.workload.as_str() {
        "flat_warm" => flat::run_warm(opts),
        "flat_cold" => flat::run_cold(opts),
        "tree_warm" => tree::run(opts),
        "fleet_fanout" => fleet::run(opts),
        "ingest_mixed" => ingest::run(opts),
        _ => usage(),
    }
}

fn main() -> ExitCode {
    let (mode, opts) = parse();
    let ok = match mode {
        Mode::One => {
            let report = run_one(&opts);
            if let Some(path) = &opts.out {
                if let Err(e) = std::fs::write(path, suite::report_json(&report)) {
                    eprintln!("cannot write {}: {e}", path.display());
                    return ExitCode::from(2);
                }
            }
            print!("{}", report.human());
            println!("{}", report.contract_line());
            report.correct()
        }
        Mode::All => suite::run_all(&opts).is_some(),
        Mode::RepeatCheck => suite::repeat_check(&opts),
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every workload in both modes at smoke scale: the oracle passes and
    /// every catalog metric is reported, the end-to-end ones non-zero. The
    /// full-size corpus takes minutes to index in an unoptimized build.
    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "needs an optimized build: cargo test --release"
    )]
    fn every_workload_passes_the_oracle_in_both_modes_at_smoke_scale() {
        for &(workload, _) in WORKLOADS {
            for trace in [false, true] {
                let opts = Options {
                    workload: workload.to_string(),
                    seed: 3,
                    seconds: 0.5,
                    trace,
                    smoke: true,
                    out: None,
                    check_dominance: false,
                };
                let report = run_one(&opts);
                assert!(
                    report.correct(),
                    "{workload} trace={trace}: {:?}",
                    report.notes
                );
                let rows = report.rows();
                assert_eq!(rows.len(), report.catalog().len());
                for (def, value, _) in rows {
                    assert!(value.is_finite(), "{workload} {}", def.name);
                    assert!(trace || value > 0.0, "{workload} {} is zero", def.name);
                }
                // Spans come from the decorated stacks of the traced runs.
                let decorated =
                    trace && matches!(workload, "flat_warm" | "flat_cold" | "tree_warm");
                assert_eq!(!report.spans.is_empty(), decorated, "{workload}");
            }
        }
    }
}
