//! Ad-hoc experiment runner: measure any (dataset, method, τ, cache size, k)
//! combination without editing code.
//!
//! ```text
//! cargo run --release -p hc-bench --bin sweep -- \
//!     --dataset sogou --method hc-o --tau 8 --cs-frac 0.3 --k 10 --scale test
//! ```
//!
//! Methods: no-cache, exact, c-va, mhc-r, hc-w, hc-d, hc-v, hc-o,
//! ihc-w, ihc-d, ihc-o. Repeat `--method` / `--tau` / `--k` to sweep.

use hc_bench::world::{Method, World};
use hc_core::histogram::HistogramKind;
use hc_obs::MetricsRegistry;
use hc_query::DriftMonitor;
use hc_workload::{Preset, Scale};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let get_all = |flag: &str| -> Vec<String> {
        args.windows(2)
            .filter(|w| w[0] == flag)
            .map(|w| w[1].clone())
            .collect()
    };
    let get = |flag: &str, default: &str| -> String {
        get_all(flag).pop().unwrap_or_else(|| default.to_owned())
    };

    let scale = match get("--scale", "test").as_str() {
        "test" => Scale::Test,
        "bench" => Scale::Bench,
        "full" => Scale::Full,
        other => panic!("unknown scale {other:?}"),
    };
    let preset = match get("--dataset", "nus").as_str() {
        "nus" | "nus-wide" => Preset::nus_wide(scale),
        "img" | "imgnet" => Preset::imgnet(scale),
        "sogou" => Preset::sogou(scale),
        other => panic!("unknown dataset {other:?} (nus|img|sogou)"),
    };
    let methods: Vec<Method> = {
        let names = get_all("--method");
        let names = if names.is_empty() {
            vec!["hc-o".to_owned()]
        } else {
            names
        };
        names.iter().map(|n| parse_method(n)).collect()
    };
    let taus: Vec<u32> = {
        let ts = get_all("--tau");
        if ts.is_empty() {
            vec![hc_bench::world::DEFAULT_TAU]
        } else {
            ts.iter()
                .map(|t| t.parse().expect("numeric --tau"))
                .collect()
        }
    };
    let ks: Vec<usize> = {
        let ks = get_all("--k");
        if ks.is_empty() {
            vec![10]
        } else {
            ks.iter().map(|v| v.parse().expect("numeric --k")).collect()
        }
    };
    let cs_frac: f64 = get("--cs-frac", "0.3").parse().expect("numeric --cs-frac");

    let world = World::build(preset, ks[0]);
    let cs = (world.dataset.file_bytes() as f64 * cs_frac) as usize;
    println!(
        "dataset={} n={} d={} |WL|={} CS={:.1}MB ({:.0}% of file)",
        world.preset.name,
        world.dataset.len(),
        world.dataset.dim(),
        world.log.workload.len(),
        cs as f64 / 1e6,
        cs_frac * 100.0
    );
    println!(
        "{:<10} {:>4} {:>4} {:>10} {:>10} {:>12} {:>12} {:>14}",
        "method", "τ", "k", "|C(q)|", "C_refine", "I/O pages", "hit×prune", "refine (s)"
    );
    // Drift gauges compare each run against the §4 cost model instantiated
    // for *that method* (item size, histogram, Theorem 2/3 variant), so
    // `costmodel.*` drift means the model mispredicts — not that the method
    // simply differs from the equi-width baseline. Measured I/O is
    // first-attempt reads only: the model prices page fetches, not the
    // storage layer's retries.
    let drift = DriftMonitor::bind(MetricsRegistry::global());
    for &method in &methods {
        for &tau in &taus {
            for &k in &ks {
                let agg = world.measure(world.cache(method, tau, cs), k);
                let est = world.estimate(method, tau, cs);
                drift.record(&est, agg.avg_hit_ratio, agg.avg_first_attempt_io());
                println!(
                    "{:<10} {tau:>4} {k:>4} {:>10.1} {:>10.1} {:>12.1} {:>12.3} {:>14.4}",
                    method.label(),
                    agg.avg_candidates,
                    agg.avg_c_refine,
                    agg.avg_io_pages,
                    agg.avg_hit_times_prune,
                    agg.avg_refine_secs
                );
            }
        }
    }
    hc_bench::report::emit("sweep");
}

fn parse_method(name: &str) -> Method {
    match name {
        "no-cache" | "nocache" => Method::NoCache,
        "exact" => Method::Exact,
        "c-va" | "cva" => Method::CVa,
        "mhc-r" | "mhcr" => Method::MhcR,
        "hc-w" => Method::Hc(HistogramKind::EquiWidth),
        "hc-d" => Method::Hc(HistogramKind::EquiDepth),
        "hc-v" => Method::Hc(HistogramKind::VOptimal),
        "hc-o" => Method::Hc(HistogramKind::KnnOptimal),
        "ihc-w" => Method::IHc(HistogramKind::EquiWidth),
        "ihc-d" => Method::IHc(HistogramKind::EquiDepth),
        "ihc-o" => Method::IHc(HistogramKind::KnnOptimal),
        other => panic!("unknown method {other:?}"),
    }
}
