//! # imrdmd-cli
//!
//! Command-line front end for the I-mrDMD suite. The library half holds the
//! testable command implementations; `main.rs` is a thin argv shim.
//!
//! ```text
//! imrdmd-cli synth   --nodes 64 --steps 1200 --seed 7 --out logs.csv
//! imrdmd-cli fit     --input logs.csv --dt 20 --levels 6 --model model.json
//! imrdmd-cli update  --model model.json --input new.csv
//! imrdmd-cli analyze --model model.json --input logs.csv
//! imrdmd-cli render  --model model.json --input logs.csv --layout "xc40 …" --out rack.svg
//! imrdmd-cli info    --model model.json
//! imrdmd-cli stream  --input logs.csv --dt 20 --model model.json \
//!                    --gap-policy hold --store-dir store --resume --metrics-every 5
//! imrdmd-cli metrics --input logs.csv --dt 20 --format prom
//! ```
//!
//! Snapshot CSVs use the `hpc-telemetry` format (header `series,t0,t1,…`);
//! models are the serde-JSON form of [`imrdmd::IMrDmd`].

#![warn(missing_docs)]
pub mod args;
pub mod commands;

pub use args::{parse_args, Command};
pub use commands::run;

/// CLI error: message plus a nonzero exit intent.
#[derive(Debug)]
pub struct CliError(pub String);

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for CliError {}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError(format!("io error: {e}"))
    }
}

impl From<hpc_telemetry::IoError> for CliError {
    fn from(e: hpc_telemetry::IoError) -> Self {
        CliError(e.to_string())
    }
}

impl From<serde_json::Error> for CliError {
    fn from(e: serde_json::Error) -> Self {
        CliError(format!("model (de)serialisation: {e}"))
    }
}

impl From<imrdmd::CoreError> for CliError {
    fn from(e: imrdmd::CoreError) -> Self {
        CliError(e.to_string())
    }
}

impl From<imrdmd::CheckpointError> for CliError {
    fn from(e: imrdmd::CheckpointError) -> Self {
        CliError(format!("checkpoint: {e}"))
    }
}
