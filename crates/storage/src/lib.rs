//! # hc-storage
//!
//! The disk substrate of the reproduction: a deterministic paged "disk" for
//! the sequential point file, I/O accounting with a latency model, and the
//! physical file orderings of the paper's §5.2.2 experiment.
//!
//! The paper stores datasets on a hard disk with the OS cache disabled and
//! measures refinement cost in candidate fetches (`T_refine ≈ T_io ·
//! C_refine`, §2.2). This crate replaces the physical disk with an exact
//! simulation: every 4 KB page fetch increments a counter, and modeled time
//! is `T_io × pages`. See DESIGN.md §4 for why this substitution preserves
//! the paper's comparisons.
//!
//! The read path is fallible (DESIGN.md §10): pages carry build-time
//! checksums verified on every physical read ([`codec`]), reads go through
//! the [`PageStore`] trait and return `Result<&[f32], StorageError>`, a
//! seedable [`FaultInjector`] can make any fault class actually happen, and
//! [`RetryPolicy`] bounds the recovery effort above it. Every engine's exact
//! reads run through the one lb-ordered refiner in [`refine`], which owns that
//! ladder and the degradation verdict for reads it loses. Backoff waits go
//! through the [`Clock`] abstraction, so the only real `thread::sleep` in
//! the recovery path lives inside [`RealClock`] and tests run on a
//! [`SimulatedClock`]. A [`Scrubber`] pass (DESIGN.md §11) walks every
//! page, verifies checksums physically, and repairs sticky-unreadable
//! pages from the build-time replica so degraded availability recovers.

pub mod clock;
pub mod codec;
pub mod error;
pub mod fault;
pub mod io_stats;
pub mod ordering;
pub mod point_file;
pub mod refine;
pub mod retry;
pub mod scrub;
pub mod store;

pub use clock::{Clock, RealClock, SimulatedClock};
pub use error::StorageError;
pub use fault::{FaultConfig, FaultInjector};
pub use io_stats::{IoModel, IoSnapshot, IoStats};
pub use point_file::{PageBuffer, PointFile, PAGE_SIZE};
pub use retry::{RetryObs, RetryPolicy};
pub use scrub::{ScrubReport, ScrubbablePageStore, Scrubber};
pub use store::PageStore;
