//! # hc-query
//!
//! The query pipeline of the reproduction:
//!
//! * [`knn::KnnEngine`] — Algorithm 1, the paper's three-phase kNN search
//!   (candidate generation → cache-based candidate reduction → multi-step
//!   refinement) over any [`hc_index::traits::CandidateIndex`] and
//!   [`hc_cache::point::PointCache`],
//! * [`tree_search::TreeSearchEngine`] — exact kNN on tree indexes with
//!   leaf-node caching (§3.6.1),
//! * [`builder`] — the offline workload replay that derives HFF rankings,
//!   the `QR` multiset, `F'[x]`, and cost-model statistics.
//!
//! Query results are identical with and without caching (the cache only
//! changes I/O): integration tests assert this against linear scan.

pub mod builder;
pub mod join;
pub mod knn;
pub mod maintenance;
pub mod obs;
pub mod tree_search;

pub use builder::{replay_leaf_accesses, replay_workload, Replay, SharedParts, TreeSharedParts};
pub use join::{cluster_outer, knn_join, JoinResult};
pub use knn::{AggregateStats, KnnEngine, QueryStats};
pub use maintenance::{CacheMaintainer, MaintenanceConfig};
pub use obs::{DriftMonitor, QueryObs, TreeQueryObs};
pub use tree_search::{TreeQueryStats, TreeSearchEngine};
