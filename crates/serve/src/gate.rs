//! The ingest gate: the daemon's one entry point from a parsed ingest
//! request to a shard round.
//!
//! [`EngineGate::submit`] locks the tenant's shard and runs
//! [`Shard::ingest`](crate::shard::Shard::ingest) under that lock, so each
//! tenant's rounds stay serialised in arrival order while different tenants
//! ingest in parallel. Every round is the same per-tree
//! [`IMrDmd::try_partial_fit`](imrdmd::IMrDmd::try_partial_fit) that WAL
//! replay and the CLI run, which is what makes crash recovery bitwise.

use hpc_linalg::Mat;
use imrdmd::{GapPolicy, IMrDmdConfig};

use crate::error::ServeError;
use crate::manager::{lock_shard, ShardCell};
use crate::shard::IngestReply;

/// The gate between ingest requests and shard rounds. It holds no state:
/// the shard lock is the only synchronisation a round needs.
#[derive(Debug, Default)]
pub struct EngineGate;

impl EngineGate {
    /// A gate.
    pub fn new() -> EngineGate {
        EngineGate
    }

    /// Absorbs one batch into `cell`'s shard: blocks on the shard lock,
    /// then returns exactly what
    /// [`Shard::ingest`](crate::shard::Shard::ingest) does.
    pub fn submit(
        &self,
        cell: ShardCell,
        batch: Mat,
        first_step: Option<usize>,
        cfg: &IMrDmdConfig,
        policy: GapPolicy,
    ) -> Result<IngestReply, ServeError> {
        lock_shard(&cell).ingest(&batch, first_step, cfg, policy)
    }
}
