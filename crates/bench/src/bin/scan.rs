//! Microbench of the phase-2 bound kernels: scalar `ApproxScheme::bounds`
//! vs the blocked compact scan (table-driven, dimension-major), with and
//! without the SIMD table-gather inner loop.
//!
//! ```text
//! cargo run --release -p hc-bench --bin scan               # full
//! cargo run --release -p hc-bench --bin scan -- --smoke    # CI
//! ```
//!
//! Every kernel's output is asserted bit-identical to the scalar reference
//! on every run — this binary measures the *same* numbers, never different
//! ones. Timings include the per-query table build for the blocked kernels
//! (that cost is real and amortizes over the candidate set). Results land
//! in `target/metrics/scan.metrics.json` as `scan.*` gauges.
//!
//! The last row is leaf-shaped — what a tree query asks of the node cache:
//! [`LEAVES`] separately allocated row-major leaves of [`LEAF_POINTS`]
//! members, one `leaf_bounds` call each (the node caches' routine: the
//! thread's memoised tables, filled by the query's first call, then a
//! per-member table walk) against per-member `ApproxScheme::bounds`.

use std::sync::Arc;
use std::time::Instant;

use hc_bench::world::DEFAULT_TAU;
use hc_cache::node::leaf_bounds;
use hc_core::bounds::DistBounds;
use hc_core::codes::{CodeIter, PackedCodes};
use hc_core::histogram::HistogramKind;
use hc_core::quantize::Quantizer;
use hc_core::scan::{scan_slots, BlockedCodes, QueryTables, ScanScratch, Simd};
use hc_core::scheme::{ApproxScheme, GlobalScheme};
use hc_obs::MetricsRegistry;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const SEED: u64 = 0x5ca9;
/// Leaves a `tree_warm` query probes, and members per leaf (one 4 KiB page
/// of d = 150 `f32` points).
const LEAVES: usize = 1_900;
const LEAF_POINTS: usize = 6;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let get = |flag: &str, default: usize| -> usize {
        args.windows(2)
            .filter(|w| w[0] == flag)
            .map(|w| w[1].parse().expect("numeric flag"))
            .next_back()
            .unwrap_or(default)
    };
    let n = get("--points", if smoke { 8_000 } else { 40_000 });
    let dim = get("--dim", 150);
    let queries = get("--queries", if smoke { 12 } else { 40 });
    let tau = get("--tau", DEFAULT_TAU as usize) as u32;

    // Synthetic clustered data over [0, 256): the kernel cost depends only
    // on (n, d, τ, bucket count), not on where the values fall.
    let mut rng = StdRng::seed_from_u64(SEED);
    let rows: Vec<Vec<f32>> = (0..n)
        .map(|i| {
            let center = (i % 7) as f32 * 32.0;
            (0..dim)
                .map(|_| (center + rng.gen_range(0.0f32..64.0)).min(255.0))
                .collect()
        })
        .collect();
    let quantizer = Quantizer::new(0.0, 256.0, 1024);
    let flat: Vec<f32> = rows.iter().flatten().copied().collect();
    let hist = HistogramKind::EquiDepth.build(&quantizer.frequency_array(&flat), 1 << tau.min(20));
    let scheme: Arc<dyn ApproxScheme> = Arc::new(GlobalScheme::new(hist, quantizer, dim));

    // Encode once into both layouts.
    let mut packed = PackedCodes::with_capacity(dim, scheme.tau(), n);
    let mut words = Vec::with_capacity(scheme.words_per_point());
    for row in &rows {
        words.clear();
        scheme.encode_into(row, &mut words);
        packed.push(CodeIter::new(&words, scheme.tau(), dim));
    }
    let blocked = BlockedCodes::from_packed(&packed);
    let leaves: Vec<Vec<u64>> = (0..LEAVES)
        .map(|l| {
            (0..LEAF_POINTS)
                .flat_map(|i| packed.point_words((l * LEAF_POINTS + i) % n))
                .copied()
                .collect()
        })
        .collect();

    let qs: Vec<Vec<f32>> = (0..queries)
        .map(|_| (0..dim).map(|_| rng.gen_range(0.0f32..256.0)).collect())
        .collect();
    let intervals = scheme.scan_intervals().expect("global scheme");
    let pairs: Vec<(u32, u32)> = (0..n as u32).map(|i| (i, i)).collect();
    let mut scratch = ScanScratch::default();
    let mut bounds = vec![DistBounds::UNKNOWN; n];

    // Per-query wall times, one vector per kernel.
    let mut t_scalar = Vec::with_capacity(queries);
    let mut t_blocked = Vec::with_capacity(queries);
    let mut t_simd = Vec::with_capacity(queries);
    let mut t_leaf_scalar = Vec::with_capacity(queries);
    let mut t_leaf = Vec::with_capacity(queries);
    let mut reference = vec![DistBounds::UNKNOWN; n];
    let wpp = scheme.words_per_point();
    for q in &qs {
        let t0 = Instant::now();
        let want: Vec<Vec<DistBounds>> = leaves
            .iter()
            .map(|leaf| {
                leaf.chunks_exact(wpp)
                    .map(|w| scheme.bounds(q, w))
                    .collect()
            })
            .collect();
        t_leaf_scalar.push(t0.elapsed().as_nanos() as u64);
        let t0 = Instant::now();
        let got: Vec<Vec<DistBounds>> = leaves
            .iter()
            .map(|leaf| leaf_bounds(&scheme, q, leaf))
            .collect();
        t_leaf.push(t0.elapsed().as_nanos() as u64);
        for (l, (got, want)) in got.iter().zip(&want).enumerate() {
            assert_eq!(got.len(), want.len(), "leaf {l} member count");
            for (got, want) in got.iter().zip(want) {
                assert_eq!(
                    (got.lb.to_bits(), got.ub.to_bits()),
                    (want.lb.to_bits(), want.ub.to_bits()),
                    "leaf path diverged from scalar at leaf {l}",
                );
            }
        }

        let t0 = Instant::now();
        for (i, r) in reference.iter_mut().enumerate() {
            *r = scheme.bounds(q, packed.point_words(i));
        }
        t_scalar.push(t0.elapsed().as_nanos() as u64);

        for (simd, times) in [(Simd::Scalar, &mut t_blocked), (Simd::Auto, &mut t_simd)] {
            let t0 = Instant::now();
            let tables = QueryTables::build(q, &intervals);
            scan_slots(&tables, &blocked, &pairs, &mut bounds, &mut scratch, simd);
            times.push(t0.elapsed().as_nanos() as u64);
            for (i, (got, want)) in bounds.iter().zip(&reference).enumerate() {
                assert_eq!(
                    (got.lb.to_bits(), got.ub.to_bits()),
                    (want.lb.to_bits(), want.ub.to_bits()),
                    "kernel {} diverged from scalar at slot {i}",
                    simd.label(),
                );
            }
        }
    }

    let p50 = |v: &mut Vec<u64>| -> u64 {
        v.sort_unstable();
        v[v.len() / 2]
    };
    let scalar_ns = p50(&mut t_scalar);
    let blocked_ns = p50(&mut t_blocked);
    let simd_ns = p50(&mut t_simd);
    let per_point = |ns: u64| ns as f64 / n as f64;
    let simd_label = Simd::Auto.label();
    println!(
        "n={n} d={dim} τ={tau} buckets={} queries={queries} simd={simd_label}",
        1u32 << tau.min(20)
    );
    println!(
        "{:<16} {:>12} {:>12} {:>10}",
        "kernel", "p50 (µs/q)", "ns/point", "speedup"
    );
    for (name, ns) in [
        ("scalar", scalar_ns),
        ("blocked-scalar", blocked_ns),
        (simd_label, simd_ns),
    ] {
        println!(
            "{name:<16} {:>12.1} {:>12.2} {:>9.2}×",
            ns as f64 / 1e3,
            per_point(ns),
            scalar_ns as f64 / ns as f64
        );
    }

    let leaf_scalar_ns = p50(&mut t_leaf_scalar);
    let leaf_ns = p50(&mut t_leaf);
    let per_leaf_point = |ns: u64| ns as f64 / (LEAVES * LEAF_POINTS) as f64;
    println!("leaf-shaped: {LEAVES} leaves × {LEAF_POINTS} points, one call per leaf");
    for (name, ns) in [("leaf-scalar", leaf_scalar_ns), ("leaf-tables", leaf_ns)] {
        println!(
            "{name:<16} {:>12.1} {:>12.2} {:>9.2}×",
            ns as f64 / 1e3,
            per_leaf_point(ns),
            leaf_scalar_ns as f64 / ns as f64
        );
    }

    let registry = MetricsRegistry::global();
    registry
        .gauge("scan.leaf_scalar_ns_per_point")
        .set(per_leaf_point(leaf_scalar_ns));
    registry
        .gauge("scan.leaf_ns_per_point")
        .set(per_leaf_point(leaf_ns));
    registry
        .gauge("scan.speedup_leaf")
        .set(leaf_scalar_ns as f64 / leaf_ns as f64);
    registry.gauge("scan.points").set(n as f64);
    registry.gauge("scan.dim").set(dim as f64);
    registry
        .gauge("scan.scalar_ns_per_point")
        .set(per_point(scalar_ns));
    registry
        .gauge("scan.blocked_scalar_ns_per_point")
        .set(per_point(blocked_ns));
    registry
        .gauge("scan.blocked_simd_ns_per_point")
        .set(per_point(simd_ns));
    registry
        .gauge("scan.speedup_blocked_scalar")
        .set(scalar_ns as f64 / blocked_ns as f64);
    registry
        .gauge("scan.speedup_blocked_simd")
        .set(scalar_ns as f64 / simd_ns as f64);

    // The blocked kernel exists to be faster; hold it to that here, where
    // the candidate set is dense enough to amortize the table build. The
    // margin is intentionally below the big-run speedup so scheduling
    // jitter on a loaded CI box does not flake the gate.
    let speedup = scalar_ns as f64 / simd_ns as f64;
    assert!(
        speedup >= 1.5,
        "blocked kernel ({simd_label}) only {speedup:.2}× over scalar"
    );
    hc_bench::report::emit("scan");
}
