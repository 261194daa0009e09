#![deny(missing_docs)]

//! Statistics and reporting helpers for the Olympian experiment harness.
//!
//! Every figure and table experiment in `crates/bench` funnels its raw
//! measurements through this crate: summary statistics ([`Summary`]),
//! empirical CDFs ([`Cdf`]), fairness indices ([`jain_fairness`]) and
//! fixed-width ASCII tables/bars ([`table`]).

mod cdf;
mod stats;
pub mod table;

pub use cdf::{nearest_rank, Cdf};
pub use stats::{
    jain_fairness, jain_from_sums, linear_fit, max_min_ratio, try_jain_fairness, try_max_min_ratio,
    Summary,
};
