#!/usr/bin/env bash
# Local CI gate. Everything runs offline: the workspace's external
# dependencies (rand / proptest / criterion) are vendored as path
# dependencies under third_party/, so no network access is required.
set -euo pipefail
cd "$(dirname "$0")"
export CARGO_NET_OFFLINE=true

cargo fmt --check
cargo clippy --workspace --all-targets -- -D warnings
cargo build --release
cargo test -q --workspace

# Serving layer: unit + stress + admission tests (point and node caches),
# then a CI-sized serve_scale run that exercises the metrics JSON path end
# to end — including the 4-worker tree-backed section, whose per-shard
# node-cache counters must have seen traffic.
cargo test -q -p hc-serve
cargo test -q -p hc-serve --test node_stress
cargo test -q -p hc-query --test tree_chaos
cargo run -q --release -p hc-bench --bin serve_scale -- --smoke
test -s target/metrics/serve_scale.metrics.json
grep -q '"name":"serve.qps","label":"tree"' target/metrics/serve_scale.metrics.json
grep -q '"name":"serve.queue_wait_p99_us"' target/metrics/serve_scale.metrics.json
grep -q '"name":"serve.deadline_slack_p05_us","label":"overload"' target/metrics/serve_scale.metrics.json

# Table-driven bound kernels (DESIGN.md §15): the scalar-vs-vectorized
# equivalence battery under all three kernel selections — default (runtime
# feature detection), AVX2 pinned on at compile time, and SIMD force-disabled
# via the env override — then a microbench smoke whose own asserts require
# bit-identical bounds from every kernel and a real speedup over scalar on
# each kind of traffic: the dense blocked scan (segment sidecars), the node
# caches' per-leaf routine and the point cache's batch path.
cargo test -q -p hc-core --test scan_equivalence
RUSTFLAGS="-C target-feature=+avx2" cargo test -q -p hc-core --test scan_equivalence
HC_SCAN_SIMD=off cargo test -q -p hc-core --test scan_equivalence
cargo run -q --release -p hc-bench --bin scan -- --smoke
test -s target/metrics/scan.metrics.json
grep -q '"name":"scan.speedup_blocked_simd"' target/metrics/scan.metrics.json
grep -q '"name":"scan.leaf_ns_per_point"' target/metrics/scan.metrics.json
grep -q '"name":"scan.speedup_leaf"' target/metrics/scan.metrics.json
grep -q '"name":"scan.point_ns_per_hit"' target/metrics/scan.metrics.json
grep -q '"name":"scan.speedup_point"' target/metrics/scan.metrics.json

# Ops plane: exposition-grammar lint, request-trace/SLO/admin integration
# tests, then a live endpoint smoke — bind an ephemeral admin port against
# a tiny server and fetch /metrics and /healthz over a raw TCP socket,
# asserting status 200 and non-empty bodies (what a scrape or a load
# balancer probe actually sees).
cargo test -q -p hc-obs
cargo test -q -p hc-obs --test exposition_lint
cargo test -q -p hc-serve --test admin
cargo run -q --release -p hc-bench --bin ops_smoke

# Chaos smoke: fault-injected serve sweep over both engine families. The
# binary itself asserts zero incorrect results, ≥99% availability at a 1%
# fault rate, bit-identical results at rate 0, and degradation actually
# firing at the top rate; here we additionally check the metrics report
# exists and recorded both the flat-path degradation and the tree sweep.
cargo run -q --release -p hc-bench --bin chaos -- --smoke
test -s target/metrics/chaos.metrics.json
grep -q '"name":"serve.degraded","value":[1-9]' target/metrics/chaos.metrics.json
grep -q '"name":"chaos.tree.availability"' target/metrics/chaos.metrics.json
grep -q '"name":"chaos.tree.pages_retried"' target/metrics/chaos.metrics.json
# The chaos SLO arc must have tripped the flight recorder: an incident file
# with the registry snapshot and the degraded traces that caused it.
grep -q '"name":"chaos.slo.incidents","value":[1-9]' target/metrics/chaos.metrics.json
# The latency-spike class ran on the simulated clock and lost nothing.
grep -q '"name":"chaos.spike.count","value":[1-9]' target/metrics/chaos.metrics.json
test -s target/metrics/incident-0.json
grep -q '"degraded_traces"' target/metrics/incident-0.json

# Maintenance layer: lifecycle (rebuild-equivalence + warm fill), hot-swap
# concurrency stress, and scrub/repair chaos, then a CI-sized drift run.
# The drift binary asserts the full story itself — hit-ratio collapse under
# a hotspot rotation, rebuild + hot-swap under load, recovery within 10% of
# steady state, zero incorrect results throughout, scrub back to exact, and
# warm-filled node cache beating admission-only — so here we only check the
# metrics report landed with the headline series.
cargo test -q -p hc-maint
cargo test -q -p hc-maint --test lifecycle
cargo test -q -p hc-maint --test swap_stress
cargo test -q -p hc-maint --test scrub_chaos
cargo run -q --release -p hc-bench --bin drift -- --smoke
test -s target/metrics/drift.metrics.json
grep -q '"name":"drift.recovery_ratio"' target/metrics/drift.metrics.json
grep -q '"name":"maint.swaps","value":[1-9]' target/metrics/drift.metrics.json
grep -q '"name":"maint.scrub.repaired","value":[1-9]' target/metrics/drift.metrics.json
grep -q '"name":"drift.node.first_epoch_hit_warm"' target/metrics/drift.metrics.json
# Drift's scrub section rode an SloMonitor through Critical and back: the
# transition counter and the burn gauges must be in its report.
grep -q '"name":"slo.transitions","value":[1-9]' target/metrics/drift.metrics.json
grep -q '"name":"slo.burn_fast","label":"exactness"' target/metrics/drift.metrics.json

# Live ingest (DESIGN.md §13): WAL/memtable/segment/manifest unit suites,
# crash-recovery property tests (arbitrary truncation, torn tails, bit
# rot), the end-to-end lifecycle walk, the serve-backend integration, and
# a CI-sized ingest bench — sustained mixed mutations with concurrent
# query load where every verified burst must be exact against the
# brute-force live-set oracle, and a mid-run kill/restart must replay all
# acked writes from the WAL with the manifest generation monotonic.
cargo test -q -p hc-ingest
cargo test -q -p hc-ingest --test crash_recovery
cargo test -q -p hc-ingest --test lifecycle
cargo test -q -p hc-serve --test ingest_serve
ingest_out="$(cargo run -q --release -p hc-bench --bin ingest -- --smoke)"
grep -q ' 0 incorrect results' <<<"$ingest_out"
grep -q '^wal replay: .* (monotonic)$' <<<"$ingest_out"
test -s target/metrics/ingest.metrics.json
grep -q '"name":"ingest.seals","value":[1-9]' target/metrics/ingest.metrics.json
grep -q '"name":"ingest.wal_replayed_records","value":[1-9]' target/metrics/ingest.metrics.json
grep -q '"name":"ingest.wal_checkpoints","value":[1-9]' target/metrics/ingest.metrics.json
grep -q '"name":"ingest.compactions","value":[1-9]' target/metrics/ingest.metrics.json
grep -q '"name":"maint.ingest.cycles","value":[1-9]' target/metrics/ingest.metrics.json

# Batched I/O (DESIGN.md §16): broker unit suite, the single-flight
# concurrency/fault-propagation tests, and the proptest battery proving
# concurrent queries through a shared broker stay bit-identical to the
# single-threaded broker-less reference under fault schedules up to 30%.
# The io bench smoke asserts the rest itself — identical answers on every
# pass, ≥20% physical-page reduction, a better refine p50 than the
# sharing-disabled passthrough, a bounded look-ahead waste ratio, and a
# chaos sweep with zero incorrect answers — so here we check the report
# landed with the headline series: zero incorrect, real coalescing, and
# the waste-ratio gauge present.
cargo test -q -p hc-io
cargo test -q -p hc-io --test single_flight
cargo test -q -p hc-io --test broker_props
cargo run -q --release -p hc-bench --bin io -- --smoke
test -s target/metrics/io.metrics.json
grep -q '"name":"io.incorrect","value":0' target/metrics/io.metrics.json
grep -q '"name":"io.pages_coalesced","value":[1-9]' target/metrics/io.metrics.json
grep -q '"name":"io.lookahead_wasted_ratio"' target/metrics/io.metrics.json
grep -q '"name":"storage.io.hot_hits","value":[1-9]' target/metrics/io.metrics.json

# Fleet (DESIGN.md §14): router merge correctness proptests, scatter-gather
# integration tests (hedging, failover, shard death, scrub recovery, the
# fleet admin plane), then the CI-sized fleet bench — mixed-tenant Zipf
# traffic through a mid-run replica kill at 100% fault rate, a whole-shard
# kill, and a scrub recovery. The binary asserts zero incorrect answers,
# ≥99% availability through both kills, bounded p99, and the /healthz arc
# (200 with a dead replica, 503 with a dead shard, 200 after scrub); here
# we check the arc landed in the metrics report.
cargo test -q -p hc-fleet
cargo test -q -p hc-fleet --test merge_props
cargo test -q -p hc-fleet --test fleet
cargo run -q --release -p hc-bench --bin fleet -- --smoke
test -s target/metrics/fleet.metrics.json
grep -q '"name":"fleet.incorrect","value":0' target/metrics/fleet.metrics.json
grep -q '"name":"fleet.hedges_fired","value":[1-9]' target/metrics/fleet.metrics.json
grep -q '"name":"fleet.failovers","value":[1-9]' target/metrics/fleet.metrics.json
grep -q '"name":"fleet.kill.healthz_status","value":200' target/metrics/fleet.metrics.json
grep -q '"name":"fleet.degrade.healthz_status","value":503' target/metrics/fleet.metrics.json
grep -q '"name":"fleet.recover.healthz_status","value":200' target/metrics/fleet.metrics.json
grep -q '"name":"fleet.bench.pages_repaired","value":[1-9]' target/metrics/fleet.metrics.json

# Benchmark package (BENCHMARK.json, perf/README.md): `perf/` is a package
# of its own outside the workspace, so nothing above notices when a refactor
# of the crates breaks its build. Build it, run its suite (which smokes every
# workload in both modes against the oracle), then the CLI's own smoke run
# of the whole 5 × 2 matrix (≈ 20 s; `--smoke` needs a mode, `--all` is it).
cargo test --release --manifest-path perf/Cargo.toml
cargo run --release --quiet --manifest-path perf/Cargo.toml -- --all --smoke >/dev/null
