//! # hc-io — batched, coalesced I/O between refiners and the page store
//!
//! The refinement phase is where the paper's architecture actually touches
//! the disk: candidates that survive cache reduction are fetched in
//! ascending lower-bound order (Seidl–Kriegel optimal multi-step). Under a
//! single query that access pattern is already optimal; under *concurrent*
//! queries it leaves three kinds of I/O on the table, and this crate picks
//! them up without changing a single query's observable outcome:
//!
//! * **Cross-query single-flight** ([`FetchBroker`]) — identical page reads
//!   issued by concurrent queries collapse onto one in-flight fetch; every
//!   waiter shares the outcome, errors included, with the original
//!   [`StorageError`](hc_storage::StorageError) class.
//! * **Shared hot-page buffer** ([`HotPageBuffer`]) — a GoVector-style
//!   hot/cold split over page numbers: pages earn hot residency by
//!   re-reference, so scan-once pages wash out of a small FIFO probation
//!   segment instead of displacing the working set.
//! * **Look-ahead batching** ([`BatchIoModel`] + the `lookahead` depth of
//!   the one refiner, [`hc_storage::refine`]) — the multi-step refiner
//!   submits the next `m` lb-ordered candidate pages together with the
//!   current one, so a batch-aware device pays one seek for several
//!   transfers. The refiner reports issued/wasted prefetches
//!   (`storage.io.lookahead_*`), and `BatchIoModel` prices the batched
//!   schedule analytically.
//!
//! The broker is itself a [`PageStore`](hc_storage::PageStore), so retry
//! ladders, refiners, and serving workers stack on top unchanged. See the
//! module docs of [`broker`] for the outcome-preservation argument and the
//! accounting discipline, and DESIGN.md §16 for the full design.

pub mod broker;
pub mod hot;

pub use broker::{BrokerConfig, FetchBroker};
pub use hot::HotPageBuffer;

use std::time::Duration;

use hc_storage::IoModel;

/// Batch-aware device cost model: a batch of `p` pages costs one seek plus
/// `p` transfers, against [`IoModel`]'s flat per-page `t_io`.
///
/// This is the analytic companion to look-ahead batching: with the same
/// page count, fewer-but-larger batches cost less wall time. Benches use
/// it to price a refine schedule from its `(io_batches, io_pages)` pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchIoModel {
    /// Fixed cost paid once per batch (seek + dispatch).
    pub t_seek: Duration,
    /// Incremental cost per page in a batch.
    pub t_transfer: Duration,
}

impl BatchIoModel {
    /// Spinning disk: seek dominates (4 ms seek + 1 ms transfer — a
    /// one-page batch matches [`IoModel::HDD`]'s 5 ms flat cost).
    pub const HDD: Self = Self {
        t_seek: Duration::from_millis(4),
        t_transfer: Duration::from_millis(1),
    };

    /// Flash: dispatch overhead still dominates a 4 KB transfer (80 µs +
    /// 20 µs — a one-page batch matches [`IoModel::SSD`]'s 100 µs).
    pub const SSD: Self = Self {
        t_seek: Duration::from_micros(80),
        t_transfer: Duration::from_micros(20),
    };

    /// Split an [`IoModel`]'s flat per-page cost into seek and transfer
    /// shares, so a one-page batch costs exactly `t_io`.
    pub fn from_io_model(model: IoModel, seek_fraction: f64) -> Self {
        let f = seek_fraction.clamp(0.0, 1.0);
        Self {
            t_seek: model.t_io.mul_f64(f),
            t_transfer: model.t_io.mul_f64(1.0 - f),
        }
    }

    /// Modeled seconds for a schedule of `batches` batches moving `pages`
    /// pages in total.
    pub fn modeled_secs(&self, batches: u64, pages: u64) -> f64 {
        self.t_seek.as_secs_f64() * batches as f64 + self.t_transfer.as_secs_f64() * pages as f64
    }

    /// Modeled duration for the same schedule.
    pub fn modeled_time(&self, batches: u64, pages: u64) -> Duration {
        Duration::from_secs_f64(self.modeled_secs(batches, pages))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_page_batches_match_the_flat_model() {
        let pages = 96u64;
        let flat = IoModel::SSD.modeled_secs(pages);
        let batched = BatchIoModel::SSD.modeled_secs(pages, pages);
        assert!(
            (flat - batched).abs() < 1e-12,
            "degenerate batching must price like the flat model: {flat} vs {batched}"
        );
    }

    #[test]
    fn batching_strictly_beats_page_at_a_time() {
        // Same 96 pages in batches of 4: 24 seeks instead of 96.
        let unbatched = BatchIoModel::HDD.modeled_secs(96, 96);
        let batched = BatchIoModel::HDD.modeled_secs(24, 96);
        assert!(batched < unbatched);
        // HDD numbers: 24*4ms + 96*1ms = 192ms vs 96*5ms = 480ms.
        assert!((batched - 0.192).abs() < 1e-12);
        assert!((unbatched - 0.480).abs() < 1e-12);
    }

    #[test]
    fn from_io_model_preserves_single_page_cost() {
        let m = BatchIoModel::from_io_model(IoModel::HDD, 0.8);
        assert!((m.modeled_secs(1, 1) - IoModel::HDD.modeled_secs(1)).abs() < 1e-9);
        let clamped = BatchIoModel::from_io_model(IoModel::SSD, 7.0);
        assert_eq!(clamped.t_transfer, Duration::ZERO);
    }
}
