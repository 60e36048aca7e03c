//! # mrdmd-bench
//!
//! Benchmark harness regenerating every table and figure of the paper's
//! evaluation (Sec. IV–VI). The `repro` binary exposes one subcommand per
//! artefact; the Criterion benches cover the micro-level kernels.
//!
//! Default workload sizes are scaled to run on a laptop-class container in
//! minutes; `--full` selects the paper's original sizes where feasible.

pub mod experiments;
pub mod harness;

pub use harness::{median, timeit, timeit_mean, ExperimentOutput, Workloads};
