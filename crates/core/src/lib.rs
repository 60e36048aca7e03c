//! # imrdmd
//!
//! Incremental multiresolution Dynamic Mode Decomposition for streaming
//! assessment of multifidelity HPC telemetry — a from-scratch Rust
//! implementation of the method of *"An Incremental Multi-Level, Multi-Scale
//! Approach to Assessment of Multifidelity HPC Systems"* (SC 2024).
//!
//! The pipeline, bottom to top:
//!
//! - [`dmd::Dmd`]: exact DMD of a snapshot window (Eqs. 1–6),
//! - [`mrdmd::MrDmd`]: the batch multiresolution recursion that
//!   screens slow to fast dynamics into a binary tree of
//!   [`mrdmd::ModeSet`]s (Eqs. 7–8),
//! - [`imrdmd::IMrDmd`]: the paper's contribution — streaming
//!   updates that fold new snapshots into the level-1 SVD and recurse only
//!   over the new window (Algorithm 1),
//! - [`spectrum`]: mode frequency/power spectrum and band filtering
//!   (Eqs. 9–10),
//! - [`baseline`]: baseline selection, per-sensor z-scores, and the 2-D mode
//!   embedding used in the paper's method comparison.
//!
//! ```
//! use hpc_linalg::Mat;
//! use imrdmd::prelude::*;
//!
//! // 32 sensors × 600 snapshots of a slow + fast oscillation.
//! let data = Mat::from_fn(32, 600, |i, j| {
//!     let t = j as f64 * 0.5;
//!     (0.02 * t).sin() * (i as f64 * 0.2).cos() + 0.1 * (1.3 * t).sin()
//! });
//! let cfg = IMrDmdConfig::default();
//! let mut model = IMrDmd::fit(&data.cols_range(0, 500), &cfg);
//! let report = model.partial_fit(&data.cols_range(500, 600));
//! assert_eq!(model.n_steps(), 600);
//! assert!(report.drift.is_finite());
//! let spectrum = mode_spectrum(model.nodes());
//! assert!(!spectrum.is_empty());
//! ```

#![warn(missing_docs)]
pub mod archive;
pub mod baseline;
pub mod checkpoint;
pub mod compression;
pub mod dmd;
pub mod error;
pub mod health;
pub mod imrdmd;
pub mod ingest;
pub mod mrdmd;
pub mod obs;
pub mod spectrum;
pub mod storage;
pub mod wal;
pub mod windowed;

/// Convenient glob import of the main types.
pub mod prelude {
    pub use crate::archive::{
        archive_bytes, write_archive, ArchiveError, ArchiveInfo, ArchiveReader, QuantTier,
    };
    pub use crate::baseline::{
        classify, embedding_2d, row_mode_magnitudes, select_baseline_rows, NodeState, ZScores,
        ZThresholds,
    };
    pub use crate::checkpoint::{
        is_valid_shard_name, latest_checkpoint, latest_checkpoint_for_shard, load_checkpoint,
        load_state_checkpoint, save_checkpoint, save_state_checkpoint, shard_checkpoint_history,
        shard_checkpoints, CheckpointError, Checkpointer,
    };
    pub use crate::compression::{compression_report, CompressionReport};
    pub use crate::dmd::{
        sparse_amplitudes, Dmd, DmdConfig, DmdConfigBuilder, FitStrategy, RankSelection,
    };
    pub use crate::error::CoreError;
    pub use crate::health::{FitFault, HealthSnapshot, LevelHealth, SolverStats, SubtreeHealth};
    pub use crate::imrdmd::{AsyncRefit, IMrDmd, IMrDmdConfig, IMrDmdConfigBuilder, RoundReport};
    pub use crate::ingest::{GapPolicy, IngestGuard, RepairReport};
    pub use crate::mrdmd::{ModeSet, MrDmd, MrDmdConfig, MrDmdConfigBuilder};
    pub use crate::obs::{MetricsLine, MetricsSnapshot, Observer};
    pub use crate::spectrum::{
        mode_spectrum, power_by_level, power_histogram, BandFilter, SpectrumPoint,
    };
    pub use crate::wal::{shard_wals, Durability, Wal, WalError, WalFrame, WalReplay};
    pub use crate::windowed::{WindowedConfig, WindowedMrDmd};
}

pub use prelude::*;
