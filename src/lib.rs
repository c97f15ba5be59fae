//! # exploit-every-bit
//!
//! A from-scratch Rust reproduction of **“Exploit Every Bit: Effective
//! Caching for High-Dimensional Nearest Neighbor Search”** (Bo Tang,
//! Man Lung Yiu, Kien A. Hua; IEEE TKDE 28(5), 2016).
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`core`] — histograms (HC-W/D/V/O), bit-packed approximate points,
//!   distance bounds, metrics, and the §4 cost model.
//! * [`storage`] — the paged disk simulator and point file with I/O
//!   accounting, and the optimal multi-step refiner every engine reads
//!   through.
//! * [`io`] — the concurrent fetch broker between refiners and the page
//!   store: cross-query single-flight page coalescing, a GoVector-style
//!   hot/cold shared page buffer, and the batch-aware device cost model
//!   behind look-ahead refinement.
//! * [`index`] — C2LSH, iDistance, VA-file, VP-tree, R-tree.
//! * [`cache`] — HFF/LRU policies over exact, compact, C-VA, and leaf-node
//!   caches.
//! * [`query`] — Algorithm 1 (three-phase kNN search) and the tree search,
//!   plus the offline builder that replays a workload to derive `F'` and
//!   candidate frequencies.
//! * [`workload`] — synthetic dataset presets and Zipf query logs.
//! * [`obs`] — the metrics registry, phase spans, per-query trace ring, and
//!   Prometheus/JSON exporters every layer above reports into.
//! * [`serve`] — the concurrent query service: sharded compact cache,
//!   bounded admission queue with overload shedding, worker-thread engine
//!   pool, and closed/open-loop load generators.
//! * [`maint`] — the live cache-lifecycle subsystem: query-stream sampling,
//!   background §3.5 rebuilds hot-swapped in by generation, offline
//!   node-cache warm fill, and storage scrub/repair.
//! * [`ingest`] — the live-mutable dataset: checksummed WAL, tombstone-aware
//!   memtable, sealed per-page-checksummed segments with compact-code
//!   sidecars, generational manifest swaps, and exact mid-ingest queries.
//! * [`fleet`] — fault-domain sharded serving: partitioned shard stacks
//!   with independent replicas, a scatter-gather router with per-shard
//!   deadlines, hedged fan-out, and failover, and fleet-wide graceful
//!   degradation with a fleet-level SLO and admin plane.
//!
//! See `examples/quickstart.rs` for an end-to-end walkthrough and
//! `DESIGN.md` for the full system inventory and experiment index.

pub use hc_cache as cache;
pub use hc_core as core;
pub use hc_fleet as fleet;
pub use hc_index as index;
pub use hc_ingest as ingest;
pub use hc_io as io;
pub use hc_maint as maint;
pub use hc_obs as obs;
pub use hc_query as query;
pub use hc_serve as serve;
pub use hc_storage as storage;
pub use hc_workload as workload;

/// One-stop prelude for applications.
pub mod prelude {
    pub use hc_core::prelude::*;
}
