//! One tenant's streaming decomposition, with checkpoint lifecycle.
//!
//! A shard owns everything that must survive a restart as a unit: the
//! [`IMrDmd`] model, the [`IngestGuard`] (whose per-sensor last-good
//! carry determines how boundary gaps repair — restoring the model
//! without it would break bitwise resume), and the absorbed-round count.
//! The trio serialises as one [`ShardSnapshot`] through the core
//! checkpoint wire format, namespaced per shard so a whole fleet shares
//! one `--checkpoint-dir`.
//!
//! Lifecycle: a shard is **empty** until its first batch (cold start:
//! guard repair + [`IMrDmd::fit`], mirroring `imrdmd-cli stream`), then
//! **ready** (batches flow through [`IMrDmd::try_partial_fit`]), or
//! **corrupt** if its checkpoint failed to restore — a corrupt shard
//! answers 503 on every route but never takes the daemon down.
//!
//! Durability: when a [`Wal`] is attached, every acked batch is logged —
//! **repaired** (post-[`GapPolicy`]) so replay is deterministic — before
//! the reply is built, and [`Shard::recover`] rebuilds the exact
//! pre-crash state from the newest valid checkpoint plus the WAL tail.
//! A WAL write failure moves the shard to **durability-degraded**: it
//! keeps absorbing and serving (checkpoint-interval durability only) and
//! reports the cause through `/status` and `serve.wal.*` metrics rather
//! than failing ingest.

use hpc_linalg::Mat;
use imrdmd::checkpoint::{
    load_state_checkpoint, shard_checkpoint_history, CheckpointError, Checkpointer,
};
use imrdmd::wal::Wal;
use imrdmd::{GapPolicy, HealthSnapshot, IMrDmd, IMrDmdConfig, IngestGuard, RoundReport};
use serde::{Deserialize, Serialize};
use std::path::Path;

use crate::error::ServeError;
use crate::obs;

/// Everything a shard persists, as one checkpoint payload.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ShardSnapshot {
    /// Tenant the snapshot belongs to (sanity-checked on restore).
    pub tenant: String,
    /// The decomposition state.
    pub model: IMrDmd,
    /// The ingest guard, including per-sensor last-good carry.
    pub guard: IngestGuard,
    /// Rounds absorbed since the shard was created.
    pub rounds: u64,
}

/// Coarse shard lifecycle state, as reported by `/status`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum ShardState {
    /// Created but no batch absorbed yet.
    Empty,
    /// Fitted and serving.
    Ready,
    /// Serving, but the write-ahead log stopped accepting appends (e.g.
    /// disk full): acked batches are durable only to the last checkpoint.
    DurabilityDegraded,
    /// Checkpoint restore failed; refusing traffic.
    Corrupt,
}

/// The `/status` document.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ShardStatus {
    /// Tenant id.
    pub tenant: String,
    /// Lifecycle state.
    pub state: ShardState,
    /// Snapshots absorbed (clients resume streaming from here).
    pub steps: usize,
    /// Rounds (batches) absorbed.
    pub rounds: u64,
    /// Snapshots buffered below the minimum window.
    pub pending: usize,
    /// Modes currently extracted.
    pub modes: usize,
    /// Why the shard is corrupt, if it is.
    pub corrupt_cause: Option<String>,
    /// Why the write-ahead log stopped accepting appends, if it did.
    pub degraded_cause: Option<String>,
}

/// The `POST /v1/{tenant}/ingest` response document.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct IngestReply {
    /// Tenant id.
    pub tenant: String,
    /// Rounds absorbed including this one.
    pub round: u64,
    /// Total snapshots absorbed including this batch.
    pub steps: usize,
    /// True for the batch that cold-started the shard (fit, not
    /// partial-fit; there is no [`RoundReport`] for it).
    pub cold_start: bool,
    /// The round report, absent on cold start.
    pub report: Option<RoundReport>,
}

/// What [`Shard::recover`] rebuilt, with its provenance.
#[derive(Debug)]
pub struct RecoveredShard {
    /// The rebuilt shard (possibly corrupt when nothing was usable).
    pub shard: Shard,
    /// True when a checkpoint (any vintage) was restored.
    pub from_checkpoint: bool,
    /// Corrupt checkpoints skipped before one validated (newest-first).
    pub fallbacks: usize,
    /// WAL frames replayed on top of the restored base.
    pub replayed: usize,
    /// True when a torn WAL tail was truncated away.
    pub torn_wal: bool,
}

/// One tenant's decomposition plus its durable lifecycle.
#[derive(Debug)]
pub struct Shard {
    tenant: String,
    model: Option<IMrDmd>,
    guard: Option<IngestGuard>,
    rounds: u64,
    corrupt_cause: Option<String>,
    checkpointer: Option<Checkpointer>,
    wal: Option<Wal>,
    degraded_cause: Option<String>,
}

impl Shard {
    /// An empty shard, checkpointing into `checkpointer` if given.
    pub fn new(tenant: &str, checkpointer: Option<Checkpointer>) -> Shard {
        Shard {
            tenant: tenant.to_string(),
            model: None,
            guard: None,
            rounds: 0,
            corrupt_cause: None,
            checkpointer,
            wal: None,
            degraded_cause: None,
        }
    }

    /// Attaches (or detaches) the write-ahead log this shard appends to.
    pub fn with_wal(mut self, wal: Option<Wal>) -> Shard {
        self.wal = wal;
        self
    }

    /// Marks the shard durability-degraded from birth (e.g. its WAL could
    /// not be opened). The shard still serves.
    pub fn with_degraded_cause(mut self, cause: Option<String>) -> Shard {
        self.degraded_cause = cause;
        self
    }

    /// A shard restored from a checkpoint snapshot.
    pub fn from_snapshot(snap: ShardSnapshot, checkpointer: Option<Checkpointer>) -> Shard {
        Shard {
            tenant: snap.tenant,
            model: Some(snap.model),
            guard: Some(snap.guard),
            rounds: snap.rounds,
            corrupt_cause: None,
            checkpointer,
            wal: None,
            degraded_cause: None,
        }
    }

    /// A shard whose checkpoint failed integrity checks. It holds its
    /// tenant slot (so the operator sees it) but answers 503 everywhere.
    pub fn corrupt(tenant: &str, cause: &CheckpointError) -> Shard {
        Shard {
            tenant: tenant.to_string(),
            model: None,
            guard: None,
            rounds: 0,
            corrupt_cause: Some(cause.to_string()),
            checkpointer: None,
            wal: None,
            degraded_cause: None,
        }
    }

    /// Tenant id.
    pub fn tenant(&self) -> &str {
        &self.tenant
    }

    /// Lifecycle state.
    pub fn state(&self) -> ShardState {
        if self.corrupt_cause.is_some() {
            ShardState::Corrupt
        } else if self.degraded_cause.is_some() {
            ShardState::DurabilityDegraded
        } else if self.model.is_some() {
            ShardState::Ready
        } else {
            ShardState::Empty
        }
    }

    /// The `/status` document.
    pub fn status(&self) -> ShardStatus {
        ShardStatus {
            tenant: self.tenant.clone(),
            state: self.state(),
            steps: self.model.as_ref().map_or(0, |m| m.n_steps()),
            rounds: self.rounds,
            pending: self.model.as_ref().map_or(0, |m| m.pending_len()),
            modes: self.model.as_ref().map_or(0, |m| m.n_modes()),
            corrupt_cause: self.corrupt_cause.clone(),
            degraded_cause: self.degraded_cause.clone(),
        }
    }

    fn fitted(&self) -> Result<&IMrDmd, ServeError> {
        if let Some(cause) = &self.corrupt_cause {
            return Err(ServeError::ShardCorrupt {
                tenant: self.tenant.clone(),
                cause: cause.clone(),
            });
        }
        self.model
            .as_ref()
            .ok_or_else(|| ServeError::UnknownTenant(self.tenant.clone()))
    }

    /// Health snapshot of a fitted shard.
    pub fn health(&self) -> Result<HealthSnapshot, ServeError> {
        Ok(self.fitted()?.health())
    }

    /// Runs `f` against the fitted model (spectrum, forecast,
    /// reconstruction — any read).
    pub fn with_model<T>(&self, f: impl FnOnce(&IMrDmd) -> T) -> Result<T, ServeError> {
        Ok(f(self.fitted()?))
    }

    /// Absorbs one batch: cold-start fit on the first, `try_partial_fit`
    /// after, and a checkpoint tick on success. `first_step` (from the
    /// CSV header) is validated against the shard clock so duplicated
    /// batches from at-least-once collectors are rejected with 409
    /// instead of silently skewing the timeline.
    ///
    /// The [`GapPolicy`] repair runs before the round, so the WAL records
    /// the deterministic repaired batch (appended before the reply — the
    /// ack — is built, so an acked batch is always recoverable); the
    /// round's own repair of it is a bitwise no-op.
    pub fn ingest(
        &mut self,
        batch: &Mat,
        first_step: Option<usize>,
        cfg: &IMrDmdConfig,
        policy: GapPolicy,
    ) -> Result<IngestReply, ServeError> {
        if let Some(cause) = &self.corrupt_cause {
            return Err(ServeError::ShardCorrupt {
                tenant: self.tenant.clone(),
                cause: cause.clone(),
            });
        }
        let steps_now = self.model.as_ref().map_or(0, |m| m.n_steps());
        if let Some(got) = first_step {
            if got != steps_now {
                return Err(ServeError::OutOfOrder {
                    expected: steps_now,
                    got,
                });
            }
        }
        let (clean, report) = match &mut self.model {
            None => {
                let mut guard = IngestGuard::new(policy, batch.rows());
                let (clean, _rep) = guard.repair(batch)?;
                self.model = Some(IMrDmd::try_fit(clean.as_ref().unwrap_or(batch), cfg)?);
                self.guard = Some(guard);
                (clean, None)
            }
            Some(model) => {
                let guard = self
                    .guard
                    .get_or_insert_with(|| IngestGuard::new(policy, batch.rows()));
                let (clean, repairs) = guard.repair(batch)?;
                let mut report = model.try_partial_fit(clean.as_ref().unwrap_or(batch), guard)?;
                // The round repaired an already-repaired batch (a no-op);
                // the reply must carry what the real repair pass did.
                report.repairs = repairs;
                (clean, Some(report))
            }
        };
        let effective = clean.as_ref().unwrap_or(batch);
        self.rounds += 1;
        self.wal_append(steps_now, effective);
        let reply = IngestReply {
            tenant: self.tenant.clone(),
            round: self.rounds,
            steps: self.model.as_ref().map_or(0, |m| m.n_steps()),
            cold_start: report.is_none(),
            report,
        };
        obs::INGEST_BATCHES.inc();
        obs::INGEST_SNAPSHOTS.add(batch.cols() as u64);
        self.tick_checkpoint();
        Ok(reply)
    }

    /// Appends one repaired batch to the WAL. A failed append is *not* an
    /// ingest failure: the shard degrades to checkpoint-interval
    /// durability (sticky until restart), keeps serving, and the failure
    /// is counted on `serve.wal.append_failures`.
    fn wal_append(&mut self, first_step: usize, effective: &Mat) {
        if self.degraded_cause.is_some() {
            return;
        }
        let Some(wal) = &mut self.wal else {
            return;
        };
        if let Err(e) = wal.append(first_step as u64, effective) {
            obs::WAL_APPEND_FAILURES.inc();
            self.degraded_cause = Some(e.to_string());
        }
    }

    /// Advances the checkpoint schedule. A failed write is *not* an
    /// ingest failure: the batch is already absorbed and the response
    /// must report that truthfully; durability degrades to the previous
    /// checkpoint and the failure is counted on `serve.checkpoint_failures`.
    /// After a successful write, checkpoint retention prunes to keep-last-K
    /// and the WAL drops every frame older than the oldest *retained*
    /// checkpoint — so any retained checkpoint plus the remaining tail
    /// can still rebuild the shard.
    fn tick_checkpoint(&mut self) {
        let wrote = {
            let (Some(model), Some(guard)) = (&self.model, &self.guard) else {
                return;
            };
            let Some(ck) = &mut self.checkpointer else {
                return;
            };
            let steps = model.n_steps();
            let tenant = &self.tenant;
            let rounds = self.rounds;
            match ck.tick_state_with(steps, || ShardSnapshot {
                tenant: tenant.clone(),
                model: model.clone(),
                guard: guard.clone(),
                rounds,
            }) {
                Ok(path) => path.is_some(),
                Err(_) => {
                    obs::CHECKPOINT_FAILURES.inc();
                    false
                }
            }
        };
        if wrote {
            self.truncate_wal();
        }
    }

    /// Drops WAL frames made redundant by checkpoint retention.
    /// Best-effort: a failed truncation only leaves extra (skippable)
    /// frames behind.
    fn truncate_wal(&mut self) {
        let (Some(ck), Some(wal)) = (&self.checkpointer, &mut self.wal) else {
            return;
        };
        if let Ok(Some(floor)) = ck.prune() {
            if wal.retain_from(floor).is_ok() {
                obs::WAL_TRUNCATIONS.inc();
            }
        }
    }

    /// Writes a final checkpoint unconditionally (graceful shutdown),
    /// then syncs and trims the WAL. No-op for empty or corrupt shards.
    pub fn checkpoint_now(&mut self) -> Result<(), CheckpointError> {
        {
            let (Some(model), Some(guard), Some(ck)) =
                (&self.model, &self.guard, &self.checkpointer)
            else {
                return Ok(());
            };
            ck.write_state(
                model.n_steps(),
                &ShardSnapshot {
                    tenant: self.tenant.clone(),
                    model: model.clone(),
                    guard: guard.clone(),
                    rounds: self.rounds,
                },
            )?;
        }
        if let Some(wal) = &mut self.wal {
            let _ = wal.sync();
        }
        self.truncate_wal();
        Ok(())
    }

    /// Rebuilds a shard from whatever `dir` holds for `tenant`: the
    /// newest checkpoint that passes integrity checks (falling back,
    /// newest-first, past corrupt ones), then the WAL tail replayed
    /// through the same deterministic pipeline the live ingest path uses.
    /// A torn final WAL frame (crash mid-append — by construction never
    /// acked) is truncated away. Because repairing a repaired batch is a
    /// bitwise no-op and every fit path is bitwise-reproducible, the
    /// rebuilt state is bitwise-identical to a run that never crashed.
    ///
    /// Only when *no* checkpoint validates and the WAL cannot rebuild
    /// from step 0 does the shard come back [`ShardState::Corrupt`].
    pub fn recover(
        dir: &Path,
        tenant: &str,
        cfg: &IMrDmdConfig,
        policy: GapPolicy,
        checkpointer: Option<Checkpointer>,
    ) -> RecoveredShard {
        let history = shard_checkpoint_history(dir, tenant).unwrap_or_default();
        let had_checkpoints = !history.is_empty();
        let mut snap: Option<ShardSnapshot> = None;
        let mut fallbacks = 0usize;
        let mut last_err: Option<CheckpointError> = None;
        for (_, path) in &history {
            match load_state_checkpoint::<ShardSnapshot>(path) {
                Ok(mut s) => {
                    // The server's thread budget wins over whatever the
                    // checkpointed config carried (results are bitwise-
                    // identical at every setting).
                    s.model.set_n_threads(cfg.mr.n_threads);
                    snap = Some(s);
                    break;
                }
                Err(e) => {
                    fallbacks += 1;
                    last_err = Some(e);
                }
            }
        }
        let from_checkpoint = snap.is_some();
        let replay = Wal::recover(dir, tenant).unwrap_or_default();
        let torn_wal = replay.torn;

        let mut shard = match snap {
            Some(s) => Shard::from_snapshot(s, checkpointer),
            None => {
                let wal_restarts_from_zero =
                    replay.frames.first().is_some_and(|f| f.first_step == 0);
                if had_checkpoints && !wal_restarts_from_zero {
                    // Every checkpoint failed and the WAL cannot rebuild
                    // the prefix: refuse traffic rather than serve a
                    // silently different timeline.
                    let cause = last_err.unwrap_or_else(|| {
                        CheckpointError::BadHeader("no checkpoint validated".into())
                    });
                    return RecoveredShard {
                        shard: Shard::corrupt(tenant, &cause),
                        from_checkpoint: false,
                        fallbacks,
                        replayed: 0,
                        torn_wal,
                    };
                }
                Shard::new(tenant, checkpointer)
            }
        };

        let mut replayed = 0usize;
        for frame in &replay.frames {
            let steps_now = shard.model.as_ref().map_or(0, |m| m.n_steps()) as u64;
            if frame.first_step < steps_now {
                // Already inside the restored checkpoint.
                continue;
            }
            if frame.first_step > steps_now
                || shard.replay_frame(&frame.batch, cfg, policy).is_err()
            {
                // A gap (stale log vs a newer checkpoint) or a replay
                // fault: stop here and serve what was rebuilt.
                break;
            }
            replayed += 1;
        }
        obs::WAL_REPLAYED.add(replayed as u64);
        RecoveredShard {
            shard,
            from_checkpoint,
            fallbacks,
            replayed,
            torn_wal,
        }
    }

    /// Applies one WAL frame through the live pipeline, without WAL
    /// appends, checkpoint ticks, or serve counters. The frame is already
    /// repaired, so the guard's repair pass is a bitwise no-op that
    /// advances `last_good` exactly as the original round did.
    fn replay_frame(
        &mut self,
        batch: &Mat,
        cfg: &IMrDmdConfig,
        policy: GapPolicy,
    ) -> Result<(), imrdmd::CoreError> {
        match &mut self.model {
            None => {
                let mut guard = IngestGuard::new(policy, batch.rows());
                let (clean, _rep) = guard.repair(batch)?;
                let model = IMrDmd::fit(clean.as_ref().unwrap_or(batch), cfg);
                self.model = Some(model);
                self.guard = Some(guard);
                self.rounds = 1;
            }
            Some(model) => {
                let guard = self
                    .guard
                    .get_or_insert_with(|| IngestGuard::new(policy, batch.rows()));
                model.try_partial_fit(batch, guard)?;
                self.rounds += 1;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpc_telemetry::{theta, Scenario};

    fn cfg() -> IMrDmdConfig {
        IMrDmdConfig::default()
    }

    #[test]
    fn cold_start_then_rounds() {
        let sc = Scenario::sc_log(theta().scaled(4), 200, 3);
        let mut shard = Shard::new("t0", None);
        assert_eq!(shard.state(), ShardState::Empty);
        assert!(shard.health().is_err());

        let r0 = shard
            .ingest(
                &sc.generate(0, 100),
                Some(0),
                &cfg(),
                GapPolicy::Interpolate,
            )
            .unwrap();
        assert!(r0.cold_start);
        assert_eq!(shard.state(), ShardState::Ready);

        let r1 = shard
            .ingest(
                &sc.generate(100, 200),
                Some(100),
                &cfg(),
                GapPolicy::Interpolate,
            )
            .unwrap();
        assert!(!r1.cold_start);
        assert_eq!(r1.steps, 200);
        assert!(r1.report.is_some());
        assert!(shard.health().is_ok());
    }

    #[test]
    fn one_snapshot_cold_start_is_400() {
        let sc = Scenario::sc_log(theta().scaled(4), 1, 3);
        let mut shard = Shard::new("t0", None);
        let err = shard
            .ingest(&sc.generate(0, 1), Some(0), &cfg(), GapPolicy::Interpolate)
            .unwrap_err();
        assert_eq!(err.status(), 400);
        assert!(
            err.to_string().contains("at least two snapshots, got 1"),
            "{err}"
        );
        assert_eq!(shard.state(), ShardState::Empty);
    }

    #[test]
    fn out_of_order_batch_is_409() {
        let sc = Scenario::sc_log(theta().scaled(4), 200, 3);
        let mut shard = Shard::new("t0", None);
        shard
            .ingest(
                &sc.generate(0, 100),
                Some(0),
                &cfg(),
                GapPolicy::Interpolate,
            )
            .unwrap();
        // Redelivering the same window must be refused, not absorbed twice.
        let err = shard
            .ingest(
                &sc.generate(0, 100),
                Some(0),
                &cfg(),
                GapPolicy::Interpolate,
            )
            .unwrap_err();
        assert_eq!(err.status(), 409);
    }

    #[test]
    fn corrupt_shard_is_503_not_panic() {
        let cause = CheckpointError::BadHeader("torn".into());
        let mut shard = Shard::corrupt("t9", &cause);
        assert_eq!(shard.state(), ShardState::Corrupt);
        assert_eq!(shard.health().unwrap_err().status(), 503);
        let sc = Scenario::sc_log(theta().scaled(4), 50, 3);
        let err = shard
            .ingest(&sc.generate(0, 50), None, &cfg(), GapPolicy::Interpolate)
            .unwrap_err();
        assert_eq!(err.status(), 503);
        assert!(shard.status().corrupt_cause.is_some());
    }
}
