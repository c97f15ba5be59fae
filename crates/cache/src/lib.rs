//! # hc-cache
//!
//! Byte-budgeted RAM caches for the candidate refinement phase.
//!
//! The paper's central idea is to cache **compact approximate points**
//! (bit-packed τ-bit codes) instead of raw vectors: at the same byte budget
//! the cache holds `L_value/τ` times more points, and each hit yields sound
//! lower/upper distance bounds that prune candidates before they cost disk
//! I/O. This crate provides:
//!
//! * [`point::PointCache`] — the cache interface Algorithm 1 consults,
//!   with EXACT (raw points) and compact (approximate points)
//!   implementations under both the **HFF** static policy (§4: fill offline
//!   with the most frequently requested candidates) and the **LRU** dynamic
//!   policy (§5.2.1),
//! * [`cva`] — the C-VA baseline (§5.2.4): the *whole* dataset cached as an
//!   equi-depth-coded VA-file whose code length is tuned down until it fits,
//! * [`node`] — leaf-node caches for exact tree indexes (§3.6.1), again in
//!   EXACT and compact flavors,
//! * [`concurrent`] — the `&self` / `Send + Sync` counterpart of
//!   [`point::PointCache`] for multi-threaded serving (`hc-serve`), plus the
//!   [`concurrent::SharedPointCache`] adapter back into the engine's trait,
//! * [`tables`] — the per-thread memo of per-query bucket-distance tables
//!   (one fill per query per thread, one table buffer per thread) and
//!   [`tables::bound_rows`], the one routine that bounds cached points
//!   through them: both towers store a point as its contiguous row-major
//!   words, and it walks a few such rows at a time in lock-step — the point
//!   cache's batch path hands it a batch's hits, the node caches a leaf's
//!   members,
//! * [`swap`] — one generational cell ([`swap::Swappable`], instantiated as
//!   [`swap::SwappablePointCache`] and [`swap::SwappableNodeCache`]) that
//!   lets a maintenance daemon hot-swap a freshly rebuilt cache under live
//!   readers (§3.5 periodic rebuild).
//!
//! Byte accounting matches the paper's model: an exact item costs
//! `d · 4` bytes, a compact item `⌈d·τ/64⌉` words (footnote 5); lookup-table
//! overhead is excluded (`N_item·τ = N*_item·L_value`, Theorem 1).

pub mod concurrent;
pub mod cva;
pub mod lru;
pub mod node;
pub mod obs;
pub mod point;
pub mod swap;
pub mod tables;

pub use concurrent::{
    ConcurrentNodeCache, ConcurrentPointCache, SharedNodeCache, SharedPointCache,
};
pub use cva::cva_cache;
pub use node::{CompactNodeCache, ExactNodeCache, LruNodeCache, NodeCache, NodeLookup};
pub use point::{
    CacheLookup, CachePolicy, CompactPointCache, ExactPointCache, NoCache, PointCache,
};
pub use swap::{SwappableNodeCache, SwappablePointCache};
