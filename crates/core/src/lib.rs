//! # hc-core
//!
//! Core building blocks of the *Exploit Every Bit* reproduction (Tang, Yiu,
//! Hua; TKDE 2016): datasets and distances, the discrete value domain,
//! histogram construction (including the paper's kNN-optimal histogram via
//! the Algorithm 2 dynamic program), bit-packed approximate points, sound
//! lower/upper distance bounds, the M1/M2/M3 histogram metrics, and the §4
//! cost model for tuning the code length τ.
//!
//! Everything here is pure and in-memory; disk simulation, indexes, caches
//! and the query pipeline live in the sibling crates (`hc-storage`,
//! `hc-index`, `hc-cache`, `hc-query`).
//!
//! ## Quick tour
//!
//! ```
//! use hc_core::prelude::*;
//!
//! // A tiny 2-d dataset (paper Figure 5a).
//! let ds = Dataset::from_rows(&[
//!     vec![2.0, 20.0], vec![10.0, 16.0], vec![19.0, 30.0],
//!     vec![26.0, 4.0], vec![11.0, 18.0], vec![3.0, 24.0],
//! ]);
//! let quant = Quantizer::new(0.0, 32.0, 32);
//!
//! // An equi-width histogram with 4 buckets (τ = 2) and its coding scheme.
//! let hist = HistogramKind::EquiWidth.build(&quant.frequency_array(ds.as_flat()), 4);
//! let scheme = GlobalScheme::new(hist, quant, ds.dim());
//!
//! // Encode p1 = (2, 20) → |00|10| and bound its distance from q = (9, 11).
//! let codes = scheme.encode(ds.point(PointId(0)));
//! let b = scheme.bounds(&[9.0, 11.0], &codes);
//! assert!(b.lb <= hc_core::distance::euclidean(&[9.0, 11.0], ds.point(PointId(0))));
//! ```

pub mod bounds;
pub mod codes;
pub mod cost_model;
pub mod dataset;
pub mod distance;
pub mod histogram;
pub mod metric;
pub mod normalize;
pub mod quantize;
pub mod scan;
pub mod scheme;

/// Convenient re-exports of the types most programs need.
pub mod prelude {
    pub use crate::bounds::DistBounds;
    pub use crate::codes::PackedCodes;
    pub use crate::cost_model::WorkloadStats;
    pub use crate::dataset::{Dataset, PointId};
    pub use crate::histogram::{Histogram, HistogramKind};
    pub use crate::normalize::Normalizer;
    pub use crate::quantize::Quantizer;
    pub use crate::scan::{QueryTables, ScanIntervals, Simd};
    pub use crate::scheme::{ApproxScheme, GlobalScheme, IndividualScheme, MultiDimScheme};
}
