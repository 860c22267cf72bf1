//! # tm-harness — the experiment driver
//!
//! Reproduces every table and figure of the Part-HTM evaluation (§7):
//!
//! * [`driver`] — run a workload on N threads under any executor, with merged
//!   protocol and hardware statistics;
//! * [`algo`] — the competitor set and the per-cell dispatcher;
//! * [`loadgen`] — open-loop arrival plans (Poisson/burst) and log-bucketed
//!   latency histograms for the `tm-server` load harness;
//! * [`report`] — figure-shaped tables (threads x algorithms) and Table-1-shaped
//!   statistics reports;
//! * [`experiments`] — one entry per table/figure, with the paper's workload
//!   parameters (scaled where DESIGN.md says so) and per-experiment HTM geometry.
//!
//! The `repro` binary prints any experiment:
//!
//! ```text
//! repro fig3a            # one experiment
//! repro all --scale 0.2  # everything, 5x fewer transactions per cell
//! ```

pub mod algo;
pub mod driver;
pub mod experiments;
pub mod loadgen;
pub mod report;
pub mod schedx;

pub use algo::{run_cell, run_cell_virtual, run_cell_with, Algo};
pub use driver::{run_threads, run_threads_virtual, run_threads_virtual_harvest, RunResult};
pub use loadgen::{ArrivalProcess, LatencyHisto};
pub use report::{StatsReport, Table, Unit};
