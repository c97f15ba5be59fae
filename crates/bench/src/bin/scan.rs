//! Microbench of the phase-2 bound kernels against scalar
//! `ApproxScheme::bounds`, one row per kind of traffic that exists:
//!
//! * **dense** — what a sealed segment's sidecar sees (`Segment::top_k`, the
//!   one user of the dimension-major store): every lane of a
//!   `BlockedCodes` bounded in one `scan_slots` pass, scalar-blocked and
//!   SIMD, at `--tau` (default 8) and at the sidecar's default 64 buckets;
//! * **leaf** — what a tree query asks of the node cache: [`LEAVES`]
//!   separately allocated row-major leaves of [`LEAF_POINTS`] members, one
//!   `leaf_bounds` call each;
//! * **point** — what a flat query asks of the point cache: [`CANDIDATES`]
//!   scattered ids of a [`RESIDENT`]-point `CompactPointCache` (fewer when
//!   `--points` is smaller), one
//!   `lookup_batch` per query (hash probe, LRU touch and counters included).
//!
//! The leaf and point rows walk row-major words through the thread's
//! memoised tables (`hc_cache::tables`), filled by the query's first call;
//! `scan.tables_fill_ns` is that fill alone (a refill of one reused buffer,
//! which is what a serving thread does once per query).
//!
//! ```text
//! cargo run --release -p hc-bench --bin scan               # full
//! cargo run --release -p hc-bench --bin scan -- --smoke    # CI
//! ```
//!
//! Every kernel's output is asserted bit-identical to the scalar reference
//! on every run — this binary measures the *same* numbers, never different
//! ones — and that is all it asserts: how much faster a kernel is than scalar
//! depends on the machine and on what else it is running, so the speedups
//! are gauges, not gates. Timings include the per-query table build (that
//! cost is real and amortizes over the candidate set). Results land in
//! `target/metrics/scan.metrics.json` as `scan.*` gauges.

use std::sync::Arc;
use std::time::Instant;

use hc_bench::world::DEFAULT_TAU;
use hc_cache::node::leaf_bounds;
use hc_cache::point::{CacheLookup, CompactPointCache, PointCache};
use hc_core::bounds::DistBounds;
use hc_core::codes::{CodeIter, PackedCodes};
use hc_core::dataset::PointId;
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
/// Points resident in `flat_warm`'s cache, and candidates per query.
const RESIDENT: usize = 19_600;
const CANDIDATES: usize = 1_050;
/// `hc_ingest::segment::SidecarConfig::default().buckets`.
const SIDECAR_BUCKETS: u32 = 64;

fn p50(v: &mut [u64]) -> u64 {
    v.sort_unstable();
    v[v.len() / 2]
}

/// One table line for a kernel that took `ns` per query over `units` points;
/// returns its speedup over `scalar_ns`.
fn print_row(name: &str, ns: u64, units: usize, scalar_ns: u64) -> f64 {
    let speedup = scalar_ns as f64 / ns as f64;
    println!(
        "{name:<16} {:>12.1} {:>12.2} {speedup:>9.2}×",
        ns as f64 / 1e3,
        ns as f64 / units as f64,
    );
    speedup
}

fn assert_bits_eq(got: &DistBounds, want: &DistBounds, ctx: impl Fn() -> String) {
    assert_eq!(
        (got.lb.to_bits(), got.ub.to_bits()),
        (want.lb.to_bits(), want.ub.to_bits()),
        "{} diverged from scalar",
        ctx(),
    );
}

fn global_scheme(flat: &[f32], dim: usize, buckets: u32) -> Arc<dyn ApproxScheme> {
    let quantizer = Quantizer::new(0.0, 256.0, 1024);
    let hist = HistogramKind::EquiDepth.build(&quantizer.frequency_array(flat), buckets);
    Arc::new(GlobalScheme::new(hist, quantizer, dim))
}

fn pack(scheme: &dyn ApproxScheme, rows: &[Vec<f32>]) -> PackedCodes {
    let mut packed = PackedCodes::with_capacity(scheme.dim(), scheme.tau(), rows.len());
    let mut words = Vec::with_capacity(scheme.words_per_point());
    for row in rows {
        words.clear();
        scheme.encode_into(row, &mut words);
        packed.push(CodeIter::new(&words, scheme.tau(), scheme.dim()));
    }
    packed
}

/// The dense rows under one scheme: per-query p50 of scalar, blocked-scalar
/// and SIMD over all of `packed`, printed and recorded under `label`.
fn dense_rows(scheme: &dyn ApproxScheme, packed: &PackedCodes, qs: &[Vec<f32>], label: &str) {
    let n = packed.len();
    let blocked = BlockedCodes::from_packed(packed);
    let intervals = scheme.scan_intervals().expect("global scheme");
    let pairs: Vec<(u32, u32)> = (0..n as u32).map(|i| (i, i)).collect();
    let mut scratch = ScanScratch::default();
    let mut bounds = vec![DistBounds::UNKNOWN; n];
    let mut reference = vec![DistBounds::UNKNOWN; n];
    let (mut t_scalar, mut t_blocked, mut t_simd) = (Vec::new(), Vec::new(), Vec::new());
    for q in qs {
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
                assert_bits_eq(got, want, || format!("{label} {} slot {i}", simd.label()));
            }
        }
    }
    let scalar_ns = p50(&mut t_scalar);
    let registry = MetricsRegistry::global();
    println!("dense: {n} lanes, τ={}, {label}", scheme.tau());
    for (name, series, ns) in [
        ("scalar", "scalar", scalar_ns),
        ("blocked-scalar", "blocked_scalar", p50(&mut t_blocked)),
        (Simd::Auto.label(), "blocked_simd", p50(&mut t_simd)),
    ] {
        let speedup = print_row(name, ns, n, scalar_ns);
        registry
            .gauge_with_label(&format!("scan.{series}_ns_per_point"), label)
            .set(ns as f64 / n as f64);
        if series != "scalar" {
            registry
                .gauge_with_label(&format!("scan.speedup_{series}"), label)
                .set(speedup);
        }
    }
}

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
    let n = get("--points", if smoke { 20_000 } else { 40_000 });
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
    let flat: Vec<f32> = rows.iter().flatten().copied().collect();
    let qs: Vec<Vec<f32>> = (0..queries)
        .map(|_| (0..dim).map(|_| rng.gen_range(0.0f32..256.0)).collect())
        .collect();
    println!("d={dim} queries={queries} simd={}", Simd::Auto.label());
    println!(
        "{:<16} {:>12} {:>12} {:>10}",
        "kernel", "p50 (µs/q)", "ns/point", "speedup"
    );

    let scheme = global_scheme(&flat, dim, 1 << tau.min(20));
    let packed = pack(scheme.as_ref(), &rows);
    dense_rows(
        scheme.as_ref(),
        &packed,
        &qs,
        &format!("buckets={}", 1u32 << tau.min(20)),
    );
    let sidecar = global_scheme(&flat, dim, SIDECAR_BUCKETS);
    dense_rows(
        sidecar.as_ref(),
        &pack(sidecar.as_ref(), &rows),
        &qs,
        &format!("buckets={SIDECAR_BUCKETS}"),
    );

    // The per-query table fill on its own, under the τ-bit scheme.
    let intervals = scheme.scan_intervals().expect("global scheme");
    let mut tables = QueryTables::default();
    let mut t_fill: Vec<u64> = qs
        .iter()
        .map(|q| {
            let t0 = Instant::now();
            tables.rebuild(q, &intervals, Simd::Auto);
            t0.elapsed().as_nanos() as u64
        })
        .collect();
    let fill_ns = p50(&mut t_fill);
    println!(
        "table fill: {} entries of 16 B, {:.1} µs per query",
        tables.dim() * tables.stride(),
        fill_ns as f64 / 1e3
    );
    MetricsRegistry::global()
        .gauge("scan.tables_fill_ns")
        .set(fill_ns as f64);

    // Leaf-shaped and point-shaped rows, under the τ-bit scheme.
    let leaves: Vec<Vec<u64>> = (0..LEAVES)
        .map(|l| {
            (0..LEAF_POINTS)
                .flat_map(|i| packed.point_words((l * LEAF_POINTS + i) % n))
                .copied()
                .collect()
        })
        .collect();
    let resident = RESIDENT.min(n);
    let mut cache =
        CompactPointCache::lru(Arc::clone(&scheme), scheme.bytes_per_point() * resident);
    for (i, row) in rows[..resident].iter().enumerate() {
        cache.admit(PointId(i as u32), row);
    }
    assert_eq!(cache.len(), resident);
    let wpp = scheme.words_per_point();
    let (mut t_leaf_scalar, mut t_leaf) = (Vec::new(), Vec::new());
    let (mut t_point_scalar, mut t_point) = (Vec::new(), Vec::new());
    let mut looked = Vec::new();
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
                assert_bits_eq(got, want, || format!("leaf path at leaf {l}"));
            }
        }

        // A query's candidates: ids scattered over the residents (a prime
        // stride from a random start, so they are distinct).
        let start = rng.gen_range(0..resident);
        let ids: Vec<PointId> = (0..CANDIDATES)
            .map(|i| PointId(((start + i * 7919) % resident) as u32))
            .collect();
        let t0 = Instant::now();
        let want: Vec<DistBounds> = ids
            .iter()
            .map(|id| scheme.bounds(q, packed.point_words(id.0 as usize)))
            .collect();
        t_point_scalar.push(t0.elapsed().as_nanos() as u64);
        let t0 = Instant::now();
        cache.lookup_batch(q, &ids, &mut looked);
        t_point.push(t0.elapsed().as_nanos() as u64);
        for ((id, got), want) in ids.iter().zip(&looked).zip(&want) {
            let CacheLookup::Bounds(got) = got else {
                panic!("resident {id} not answered with bounds: {got:?}");
            };
            assert_bits_eq(got, want, || format!("point batch path at {id}"));
        }
    }

    let registry = MetricsRegistry::global();
    let leaf_scalar_ns = p50(&mut t_leaf_scalar);
    let leaf_ns = p50(&mut t_leaf);
    println!("leaf-shaped: {LEAVES} leaves × {LEAF_POINTS} points, one call per leaf");
    print_row(
        "leaf-scalar",
        leaf_scalar_ns,
        LEAVES * LEAF_POINTS,
        leaf_scalar_ns,
    );
    let leaf_speedup = print_row("leaf-tables", leaf_ns, LEAVES * LEAF_POINTS, leaf_scalar_ns);
    let per_leaf_point = |ns: u64| ns as f64 / (LEAVES * LEAF_POINTS) as f64;
    registry
        .gauge("scan.leaf_scalar_ns_per_point")
        .set(per_leaf_point(leaf_scalar_ns));
    registry
        .gauge("scan.leaf_ns_per_point")
        .set(per_leaf_point(leaf_ns));
    registry.gauge("scan.speedup_leaf").set(leaf_speedup);

    let point_scalar_ns = p50(&mut t_point_scalar);
    let point_ns = p50(&mut t_point);
    println!("point-shaped: {CANDIDATES} of {resident} resident ids, one lookup_batch per query");
    print_row("point-scalar", point_scalar_ns, CANDIDATES, point_scalar_ns);
    let point_speedup = print_row("point-tables", point_ns, CANDIDATES, point_scalar_ns);
    registry
        .gauge("scan.point_scalar_ns_per_hit")
        .set(point_scalar_ns as f64 / CANDIDATES as f64);
    registry
        .gauge("scan.point_ns_per_hit")
        .set(point_ns as f64 / CANDIDATES as f64);
    registry.gauge("scan.speedup_point").set(point_speedup);
    registry.gauge("scan.points").set(n as f64);
    registry.gauge("scan.dim").set(dim as f64);

    hc_bench::report::emit("scan");
}
