//! Experiment harness reproducing every table and figure of the EDBT 2015
//! evaluation (§5). Each binary in `src/bin/` regenerates one artifact; see
//! DESIGN.md §3 for the index and EXPERIMENTS.md for recorded results.

#![deny(deprecated)]
#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod args;
pub mod datasets;
pub mod grid;
pub mod measure;
pub mod plot;
pub mod report;
pub mod tables;

pub use args::HarnessArgs;
pub use datasets::{load, Dataset};
pub use grid::{run_cell, run_grid, run_sweep, GridCell};
pub use measure::{available_cores, median};
pub use plot::LineChart;
pub use report::{build_report, write_report};
pub use tables::Table;
