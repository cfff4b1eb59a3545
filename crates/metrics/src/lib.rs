//! # eclair-metrics
//!
//! Shared measurement infrastructure for the ECLAIR reproduction
//! (Wornow et al., *Automating the Enterprise with Foundation Models*,
//! VLDB 2024).
//!
//! Every experiment in the paper reports one of a small set of quantities:
//! binary-classification precision/recall/F1 (Table 4), per-example accuracy
//! averaged over a task set (Tables 2 and 3), or per-SOP step counts averaged
//! over workflows (Table 1). This crate provides those quantities once, with
//! the ASCII/markdown table rendering used by the `eclair-bench` harnesses.
//!
//! ## Quick example
//!
//! ```
//! use eclair_metrics::classification::BinaryConfusion;
//!
//! let mut cm = BinaryConfusion::default();
//! for (predicted, actual) in [(true, true), (true, false), (false, true), (true, true)] {
//!     cm.observe(predicted, actual);
//! }
//! assert!((cm.precision() - 2.0 / 3.0).abs() < 1e-12);
//! assert!((cm.recall() - 2.0 / 3.0).abs() < 1e-12);
//! ```

#![cfg_attr(not(test), warn(unused_crate_dependencies))]

pub mod classification;
pub mod report;
pub mod stats;
pub mod table;

pub use classification::BinaryConfusion;
pub use report::{PaperComparison, PaperRow};
pub use stats::Summary;
pub use table::Table;
