//! Incremental multiresolution DMD (I-mrDMD) — Algorithm 1 of the paper.
//!
//! The batch mrDMD recomputes the entire tree whenever new snapshots arrive,
//! which on terabyte environment-log streams exceeds the collection interval.
//! I-mrDMD instead keeps the level-1 (root) SVD as an [`IncrementalSvd`] and,
//! per arriving batch of `T₁` snapshots:
//!
//! 1. folds the batch's decimated columns into the root SVD (Brand update),
//! 2. re-solves the cheap `r × r` root eigenproblem → updated level-1 modes
//!    spanning `[0, T+T₁)`,
//! 3. increments the level of every previously computed node, so the new
//!    level 2 corresponds to the timeline split at `T` (Fig. 1(c)),
//! 4. runs the multiresolution recursion *only* on the new window
//!    `[T, T+T₁)` residual, at levels `2..L`,
//! 5. measures the Frobenius drift between the new and previous level-1
//!    reconstructions over `[0, T)` (on the decimated grid, so the check is
//!    `O(P·r·T/step)` not `O(P·T)`); when a threshold is exceeded the stale
//!    deeper levels can be recomputed — synchronously or on a worker thread
//!    (the paper defers this step to future work; here it is an opt-in
//!    extension).
//!
//! The cost of `partial_fit` is therefore governed by the batch length, not
//! by the accumulated history — the property behind Table I's flat
//! "Partial Fit" column.

use crate::dmd::{Dmd, DmdConfig, FitStrategy};
use crate::error::CoreError;
use crate::health::{FitFault, HealthSnapshot, LevelHealth, SolverStats, SubtreeHealth};
use crate::ingest::{IngestGuard, RepairReport};
use crate::mrdmd::{fit_halves, fit_tree, reconstruct_nodes, ModeSet, MrDmd, MrDmdConfig};
use hpc_linalg::pool::WorkerPool;
use hpc_linalg::{EigStats, IncrementalSvd, Mat, SketchSvd};
use serde::{Deserialize, Serialize};

/// Consecutive failed root solves after which the retained root modes are
/// reported [`SubtreeHealth::Stale`] instead of merely degraded.
pub const ROOT_STALE_AFTER: usize = 3;

/// Configuration of the incremental decomposition.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct IMrDmdConfig {
    /// The underlying multiresolution configuration.
    pub mr: MrDmdConfig,
    /// Rank cap of the streaming root SVD.
    pub isvd_max_rank: usize,
    /// Frobenius drift (new vs old root reconstruction over the old window,
    /// decimated grid) beyond which the tree is flagged stale.
    pub drift_threshold: Option<f64>,
    /// Retain the full-resolution history (needed for [`IMrDmd::recompute`]
    /// and exact reconstruction comparisons; costs `O(P·T)` memory).
    pub keep_history: bool,
    /// Automatically run [`IMrDmd::refresh_subtrees`] inside `partial_fit`
    /// whenever the drift threshold trips (requires `keep_history`). Off by
    /// default: the paper treats the refresh as an asynchronous side task.
    pub auto_refresh: bool,
}

impl Default for IMrDmdConfig {
    fn default() -> Self {
        IMrDmdConfig {
            mr: MrDmdConfig::default(),
            isvd_max_rank: 48,
            drift_threshold: None,
            keep_history: false,
            auto_refresh: false,
        }
    }
}

impl IMrDmdConfig {
    /// Checks every field's domain, including the nested
    /// [`MrDmdConfig::validate`]: a nonzero streaming-SVD rank cap, a
    /// positive finite drift threshold when set, and the cross-field
    /// constraint that `auto_refresh` requires `keep_history` (the refresh
    /// refits from history and would otherwise panic mid-stream).
    pub fn validate(&self) -> Result<(), CoreError> {
        self.mr.validate()?;
        let fail = |what: String| Err(CoreError::InvalidConfig { what });
        if self.isvd_max_rank < 1 {
            return fail("isvd_max_rank must be at least 1".into());
        }
        if let Some(th) = self.drift_threshold {
            if !(th > 0.0 && th.is_finite()) {
                return fail(format!(
                    "drift_threshold must be positive and finite, got {th}"
                ));
            }
        }
        if self.auto_refresh && !self.keep_history {
            return fail("auto_refresh requires keep_history".into());
        }
        Ok(())
    }

    /// Builder-first construction; [`IMrDmdConfigBuilder::build`] runs
    /// [`validate`](Self::validate), so cross-field mistakes (e.g.
    /// `auto_refresh` without `keep_history`) fail at construction instead
    /// of panicking mid-stream.
    pub fn builder() -> IMrDmdConfigBuilder {
        IMrDmdConfigBuilder {
            cfg: IMrDmdConfig::default(),
        }
    }
}

/// Builder for [`IMrDmdConfig`]; see [`IMrDmdConfig::builder`].
#[derive(Clone, Debug)]
pub struct IMrDmdConfigBuilder {
    cfg: IMrDmdConfig,
}

impl IMrDmdConfigBuilder {
    /// The underlying multiresolution configuration.
    #[must_use]
    pub fn mr(mut self, mr: MrDmdConfig) -> Self {
        self.cfg.mr = mr;
        self
    }

    /// Rank cap of the streaming root SVD.
    #[must_use]
    pub fn isvd_max_rank(mut self, isvd_max_rank: usize) -> Self {
        self.cfg.isvd_max_rank = isvd_max_rank;
        self
    }

    /// Frobenius drift beyond which the tree is flagged stale.
    #[must_use]
    pub fn drift_threshold(mut self, drift_threshold: f64) -> Self {
        self.cfg.drift_threshold = Some(drift_threshold);
        self
    }

    /// Retain the full-resolution history.
    #[must_use]
    pub fn keep_history(mut self, keep_history: bool) -> Self {
        self.cfg.keep_history = keep_history;
        self
    }

    /// Refresh subtrees automatically when the drift threshold trips.
    #[must_use]
    pub fn auto_refresh(mut self, auto_refresh: bool) -> Self {
        self.cfg.auto_refresh = auto_refresh;
        self
    }

    /// Validates every field and returns the configuration.
    pub fn build(self) -> Result<IMrDmdConfig, CoreError> {
        self.cfg.validate()?;
        Ok(self.cfg)
    }
}

/// Outcome of one streaming round ([`IMrDmd::partial_fit`] or
/// [`IMrDmd::try_partial_fit`]): what the decomposition did, what the
/// ingest guard repaired, the node fits that failed during this round, and
/// the post-round health snapshot.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RoundReport {
    /// Snapshots absorbed by this round.
    pub batch_len: usize,
    /// Decimated columns appended to the root SVD.
    pub new_root_cols: usize,
    /// Frobenius drift of the root reconstruction over the old timeline.
    pub drift: f64,
    /// Whether accumulated drift has exceeded the configured threshold.
    pub stale: bool,
    /// Modes extracted in the new window's subtree.
    pub new_subtree_modes: usize,
    /// Snapshots still buffered below `min_window`, awaiting a subtree fit.
    pub pending: usize,
    /// Node fits that failed numerically during this round, root failures
    /// included (the root degrades in place and leaves no [`FitFault`]).
    pub new_faults: usize,
    /// What the ingest guard repaired before the update (all-zero for the
    /// unguarded [`IMrDmd::partial_fit`] path).
    pub repairs: RepairReport,
    /// The node-fit faults recorded during this round, in occurrence order.
    pub faults: Vec<FitFault>,
    /// Health of the whole tree after the round.
    pub health: HealthSnapshot,
}

/// Streaming multiresolution DMD state.
///
/// Serializable: a fitted model can be persisted (e.g. JSON via serde) and
/// resumed in a later session, including the streaming SVD state — only the
/// optional full-resolution history makes the payload large.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct IMrDmd {
    cfg: IMrDmdConfig,
    p: usize,
    t_total: usize,
    /// Root decimation step, fixed at the initial fit so the streaming grid
    /// stays arithmetic (`0, s, 2s, …`).
    root_step: usize,
    /// Decimated root stream (`P × n_sub`).
    sub_data: Mat,
    /// Absolute index of the next decimated column to capture.
    next_sub_abs: usize,
    /// Streaming SVD of the decimated stream minus its last column (the `X`
    /// matrix of the root DMD pair). Under `FitStrategy::Sketched` this is a
    /// rank-1 placeholder that is never updated — `sketch` carries the root
    /// factorisation instead.
    isvd: IncrementalSvd,
    /// Streaming randomized sketch of the same `X` stream, present exactly
    /// when the configured strategy is `Sketched` (absent in checkpoints
    /// written before fit strategies existed). Its probed range basis is
    /// reused and residual-refreshed across `partial_fit` rounds instead of
    /// re-drawn per fit — the tentpole invariant of the sketched path.
    sketch: Option<SketchSvd>,
    /// Level-1 slow modes over `[0, t_total)`.
    root: ModeSet,
    /// Levels ≥ 2 (old nodes level-shifted, plus per-batch new subtrees).
    subnodes: Vec<ModeSet>,
    /// Drift measured at each partial fit.
    drift_log: Vec<f64>,
    stale: bool,
    history: Option<Mat>,
    /// Sub-`min_window` tail of the stream (`P × k`, `k < min_window`): raw
    /// snapshots absorbed by the root but whose residual subtree fit is
    /// deferred until enough accumulate. Always empty when `max_levels < 2`.
    pending: Mat,
    /// Health of the root subtree: degraded roots keep serving the previous
    /// modes (window-extended) until a solve succeeds again.
    root_health: SubtreeHealth,
    /// Consecutive failed root solves; `>= ROOT_STALE_AFTER` flips
    /// `root_health` from `Degraded` to `Stale`.
    root_fail_streak: usize,
    /// Failed node fits across the tree, in occurrence order.
    faults: Vec<FitFault>,
    /// Display form of the most recent solver error anywhere in the pipeline.
    last_error: Option<String>,
    /// Streaming-SVD drift breaches that re-orthogonalisation couldn't repair.
    isvd_drift_breaches: usize,
    /// QR iterations of the last successful root eigendecomposition.
    last_eig_iterations: usize,
    /// Balanced restarts of that eigendecomposition.
    last_eig_restarts: usize,
}

impl IMrDmd {
    /// Initial fit: identical tree to the batch [`MrDmd`] (same root, same
    /// recursion), plus the streaming SVD state for subsequent updates.
    /// Panics on an out-of-domain configuration or fewer than two
    /// snapshots; see [`try_fit`](Self::try_fit).
    pub fn fit(data: &Mat, cfg: &IMrDmdConfig) -> IMrDmd {
        match Self::try_fit(data, cfg) {
            Ok(m) => m,
            // Preserved legacy contract: the infallible entry point aborts
            // on input it cannot fit, as its assert used to.
            #[allow(clippy::panic)]
            Err(e) => panic!("I-mrDMD fit failed: {e}"),
        }
    }

    /// Fallible twin of [`fit`](Self::fit): a configuration outside its
    /// domain is [`CoreError::InvalidConfig`], and fewer than two snapshots,
    /// raw or after the root's decimation, is
    /// [`CoreError::TooFewSnapshots`]. A failed root solve is not an error:
    /// the root stays empty and is reported degraded, as in a streaming
    /// round.
    pub fn try_fit(data: &Mat, cfg: &IMrDmdConfig) -> Result<IMrDmd, CoreError> {
        cfg.validate()?;
        let p = data.rows();
        let t = data.cols();
        if t < 2 {
            return Err(CoreError::TooFewSnapshots { got: t, step: 1 });
        }
        let root_step = cfg.mr.subsample_step(t);
        let sub = data.subsample_cols(root_step);
        let n_sub = sub.cols();
        if n_sub < 2 {
            return Err(CoreError::TooFewSnapshots {
                got: n_sub,
                step: root_step,
            });
        }
        let x = sub.cols_range(0, n_sub - 1);
        let (isvd, sketch) = match cfg.mr.strategy {
            FitStrategy::Exact => (IncrementalSvd::new(&x, cfg.isvd_max_rank.max(1)), None),
            FitStrategy::Sketched {
                rank_oversample,
                power_iters,
                seed,
            } => {
                let sk = SketchSvd::new(
                    &x,
                    cfg.isvd_max_rank.max(1),
                    rank_oversample,
                    power_iters,
                    seed,
                );
                // Rank-1 placeholder (O(P) state, never updated): keeps the
                // field non-optional so the exact path is untouched.
                (IncrementalSvd::new(&x.cols_range(0, 1), 1), Some(sk))
            }
        };
        let mut state = IMrDmd {
            cfg: *cfg,
            p,
            t_total: t,
            root_step,
            sub_data: sub,
            next_sub_abs: n_sub * root_step,
            isvd,
            sketch,
            root: empty_root(p, t, root_step),
            subnodes: Vec::new(),
            drift_log: Vec::new(),
            stale: false,
            history: cfg.keep_history.then(|| data.clone()),
            pending: Mat::zeros(p, 0),
            root_health: SubtreeHealth::Healthy,
            root_fail_streak: 0,
            faults: Vec::new(),
            last_error: None,
            isvd_drift_breaches: 0,
            last_eig_iterations: 0,
            last_eig_restarts: 0,
        };
        match state.try_solve_root(t) {
            Ok(solved) => state.adopt_root(solved),
            // No previous modes to fall back on at the initial fit: the root
            // stays empty and is reported degraded from step 0.
            Err(e) => state.root_failed(&e, 0),
        }
        // Residual after the root's slow dynamics, then the usual recursion
        // over the two halves at level 2 — all in place on one buffer.
        let mut residual = data.clone();
        state.subtract_root(&mut residual, 0, 0);
        let pool = WorkerPool::new(cfg.mr.n_threads);
        fit_halves(
            &mut residual,
            0,
            t,
            0,
            0,
            &cfg.mr,
            1,
            cfg.mr.max_levels,
            &pool,
            &mut state.subnodes,
            &mut state.faults,
        );
        for f in &mut state.faults {
            f.at_step = t;
        }
        if state.last_error.is_none() {
            if let Some(f) = state.faults.last() {
                state.last_error = Some(f.cause.clone());
            }
        }
        Ok(state)
    }

    /// Solves the root DMD from the current streaming SVD and returns the
    /// slow-mode set spanning a window of `window` snapshots, plus the
    /// eigensolver's iteration statistics. A solver failure (after the
    /// kernel's own escalation ladder) is returned, not panicked — the
    /// caller degrades the root instead.
    fn try_solve_root(&self, window: usize) -> Result<(ModeSet, EigStats), CoreError> {
        let n_sub = self.sub_data.cols();
        let y = self.sub_data.cols_range(1, n_sub);
        let dmd_cfg = DmdConfig {
            dt: self.cfg.mr.dt * self.root_step as f64,
            rank: self.cfg.mr.rank,
            strategy: self.cfg.mr.strategy,
        };
        // The exact root reads the streaming SVD's factors in place.
        let dmd = match &self.sketch {
            Some(sk) => Dmd::try_from_svd(&sk.to_svd(), &y, &self.sub_data, &dmd_cfg),
            None => Dmd::try_from_parts(
                self.isvd.u(),
                self.isvd.s(),
                self.isvd.v(),
                &y,
                &self.sub_data,
                &dmd_cfg,
            ),
        }?;
        let root = ModeSet::slow(&dmd, &self.cfg.mr, 1, 0, window, self.root_step, 0);
        Ok((root, dmd.eig_stats))
    }

    /// Puts a freshly solved root in service and ends any failure streak.
    fn adopt_root(&mut self, (root, stats): (ModeSet, EigStats)) {
        self.root = root;
        self.last_eig_iterations = stats.iterations;
        self.last_eig_restarts = stats.restarts;
        self.root_fail_streak = 0;
        self.root_health = SubtreeHealth::Healthy;
    }

    /// Records a failed root solve at step `at`. The failure streak grows,
    /// the onset of the current streak is kept, and after
    /// [`ROOT_STALE_AFTER`] consecutive failures the root is reported
    /// `Stale` instead of `Degraded`. The caller keeps the previous modes in
    /// service.
    fn root_failed(&mut self, e: &CoreError, at: usize) {
        self.root_fail_streak += 1;
        let cause = e.to_string();
        self.last_error = Some(cause.clone());
        let since = match &self.root_health {
            SubtreeHealth::Degraded { since, .. } | SubtreeHealth::Stale { since, .. } => *since,
            SubtreeHealth::Healthy => at,
        };
        self.root_health = if self.root_fail_streak >= ROOT_STALE_AFTER {
            SubtreeHealth::Stale { since, cause }
        } else {
            SubtreeHealth::Degraded { since, cause }
        };
    }

    /// The residual step of Eq. 8 against the root: subtracts the root's
    /// contribution from `residual`, whose column 0 is absolute snapshot
    /// `abs0` and whose row 0 is global sensor row `row0`. Rows the root
    /// does not cover are left as they are.
    fn subtract_root(&self, residual: &mut Mat, abs0: usize, row0: usize) {
        let (abs, dt) = (|c| abs0 + c, self.cfg.mr.dt);
        self.root
            .eval_into(0..residual.cols(), abs, dt, -1.0, row0, residual);
    }

    /// Absorbs a batch of `T₁` new snapshots (columns) and updates the tree
    /// per Algorithm 1. Returns a report of what changed.
    ///
    /// The unguarded twin of [`Self::try_partial_fit`]: no ingest repair,
    /// and a row-count mismatch panics where the `try_` variant returns an
    /// error.
    pub fn partial_fit(&mut self, batch: &Mat) -> RoundReport {
        assert_eq!(
            batch.rows(),
            self.p,
            "batch row count must match the stream"
        );
        self.round(batch, RepairReport::default())
    }

    /// One streaming round: the Algorithm-1 update (steps 1–5 of the module
    /// doc) and its [`RoundReport`]. Every entry point funnels here —
    /// [`Self::partial_fit`], [`Self::try_partial_fit`], the serving
    /// daemon's ingest and its write-ahead-log replay.
    fn round(&mut self, batch: &Mat, repairs: RepairReport) -> RoundReport {
        debug_assert_eq!(batch.rows(), self.p);
        let _span = crate::obs::ROUND_NS.span();
        crate::obs::ROUND_COUNT.inc();
        let faults_before = self.faults.len();
        let t1 = batch.cols();
        let mut n_new = 0usize;
        let mut drift = 0.0f64;
        let mut root_failed = false;
        let mut new_modes = 0usize;
        if t1 > 0 {
            let t_old = self.t_total;
            let t_new = t_old + t1;

            // (1) Extend the decimated root stream and the streaming SVD.
            let mut new_cols: Vec<usize> = Vec::new(); // batch-local column indices
            while self.next_sub_abs < t_new {
                new_cols.push(self.next_sub_abs - t_old);
                self.next_sub_abs += self.root_step;
            }
            n_new = new_cols.len();
            let old_sub_cols = self.sub_data.cols();
            if n_new > 0 {
                let mut block = Mat::zeros(self.p, n_new);
                for (k, &c) in new_cols.iter().enumerate() {
                    block.set_col(k, &batch.col(c));
                }
                // The streaming SVD covers X = decimated[..n−1]; the previous
                // last column now enters X together with all but the last of
                // the new block.
                let mut x_block = Mat::zeros(self.p, n_new);
                x_block.set_col(0, &self.sub_data.col(old_sub_cols - 1));
                for k in 0..n_new - 1 {
                    x_block.set_col(k + 1, &block.col(k));
                }
                // A drift breach is recorded, not fatal: the update is
                // already applied and the repair pass has done what it
                // could. The sketched path refreshes its reused basis
                // instead (infallible — residual directions are folded in,
                // never drifted past).
                if let Some(sk) = &mut self.sketch {
                    sk.absorb(&x_block);
                } else if let Err(e) = self.isvd.try_update(&x_block) {
                    self.isvd_drift_breaches += 1;
                    self.last_error = Some(e.to_string());
                }
                self.sub_data = self.sub_data.hstack(&block);
            }

            // (2) Updated level-1 modes over [0, T+T₁). A failed solve keeps
            // the previous root (window-extended) and marks it degraded — the
            // stream keeps absorbing batches on the old modes. `old_root` is
            // what the drift scan compares against; a root that only had its
            // window extended needs no scan when the scan is provably zero.
            let old_root = if n_new > 0 {
                let old_root =
                    std::mem::replace(&mut self.root, empty_root(self.p, t_new, self.root_step));
                match self.try_solve_root(t_new) {
                    Ok(solved) => self.adopt_root(solved),
                    Err(e) => {
                        root_failed = true;
                        self.root_failed(&e, t_new);
                        self.root = old_root.clone();
                        self.root.window = t_new;
                    }
                }
                Some(old_root)
            } else if drift_scan_is_provably_zero(
                &self.root,
                old_sub_cols,
                self.root_step,
                self.cfg.mr.dt,
            ) {
                self.root.window = t_new;
                None
            } else {
                let old_root = self.root.clone();
                self.root.window = t_new;
                Some(old_root)
            };

            // (5) Drift of the root reconstruction over the old timeline:
            // the Frobenius norm of new minus old, evaluated at the
            // decimated snapshots (cheap: `O(P·r·n_sub)`).
            if let Some(old_root) = &old_root {
                let (p, n, dt) = (self.p, old_sub_cols, self.cfg.mr.dt);
                let abs = |k| k * self.root_step;
                let mut diff = Mat::zeros(p, n);
                self.root.eval_into(0..n, abs, dt, 1.0, 0, &mut diff);
                old_root.eval_into(0..n, abs, dt, -1.0, 0, &mut diff);
                drift = (0..n)
                    .map(|k| (0..p).map(|i| diff[(i, k)] * diff[(i, k)]).sum::<f64>())
                    .fold(0.0, |acc, col| acc + col)
                    .sqrt();
            }
            self.drift_log.push(drift);
            if let Some(th) = self.cfg.drift_threshold {
                if drift > th {
                    self.stale = true;
                }
            }

            // (3)+(4) Accumulate the batch into the pending window; once
            // `min_window` snapshots are pending, shift the previous nodes
            // one level down (Fig. 1(c): the timeline now splits at the
            // pending window's start) and run the multiresolution recursion
            // over the pending window only. Sub-`min_window` batches
            // therefore accumulate instead of silently losing their residual.
            self.t_total = t_new;
            if let Some(h) = &mut self.history {
                *h = h.hstack(batch);
            }
            if self.cfg.mr.max_levels >= 2 {
                self.pending = if self.pending.cols() == 0 {
                    batch.clone()
                } else {
                    self.pending.hstack(batch)
                };
                if self.pending.cols() >= self.cfg.mr.min_window {
                    new_modes = self.flush_pending_window();
                }
            }
            if self.stale && self.cfg.auto_refresh && self.history.is_some() {
                self.refresh_subtrees();
            }
        }
        // An auto-refresh replaces the fault list, so it may have shrunk.
        let faults = self
            .faults
            .get(faults_before..)
            .unwrap_or_default()
            .to_vec();
        let new_faults = faults.len() + usize::from(root_failed);
        crate::obs::FIT_FAULTS.add(new_faults as u64);
        crate::obs::ROUND_PENDING.set(self.pending.cols() as f64);
        crate::obs::ROUND_DRIFT.set(drift);
        let health = self.health();
        crate::obs::HEALTH_COVERAGE.set(health.coverage);
        RoundReport {
            batch_len: t1,
            new_root_cols: n_new,
            drift,
            stale: self.stale,
            new_subtree_modes: new_modes,
            pending: self.pending.cols(),
            new_faults,
            repairs,
            faults,
            health,
        }
    }

    /// Fits the deferred subtree over the pending window and clears it.
    /// Returns the number of modes extracted.
    fn flush_pending_window(&mut self) -> usize {
        let w = self.pending.cols();
        if w < 2 || self.cfg.mr.max_levels < 2 {
            return 0;
        }
        let pend = std::mem::replace(&mut self.pending, Mat::zeros(self.p, 0));
        let start = self.t_total - w;
        // The previous nodes deepen by one: the timeline is now split at the
        // pending window's start.
        for node in &mut self.subnodes {
            node.level += 1;
        }
        let mut residual = pend;
        self.subtract_root(&mut residual, start, 0);
        let before = self.subnodes.len();
        let faults_before = self.faults.len();
        let pool = WorkerPool::new(self.cfg.mr.n_threads);
        fit_tree(
            &mut residual,
            0,
            w,
            start,
            0,
            &self.cfg.mr,
            2,
            self.cfg.mr.max_levels,
            &pool,
            &mut self.subnodes,
            &mut self.faults,
        );
        let t_total = self.t_total;
        for f in &mut self.faults[faults_before..] {
            f.at_step = t_total;
        }
        if let Some(f) = self.faults[faults_before..].last() {
            self.last_error = Some(f.cause.clone());
        }
        self.subnodes[before..].iter().map(ModeSet::n_modes).sum()
    }

    /// Snapshots buffered below `min_window`, awaiting their subtree fit.
    pub fn pending_len(&self) -> usize {
        self.pending.cols()
    }

    /// Forces the subtree fit over whatever is pending, even below
    /// `min_window` (e.g. at end of stream). Returns the modes extracted.
    pub fn flush_pending(&mut self) -> usize {
        self.flush_pending_window()
    }

    /// Gap/NaN-tolerant [`partial_fit`](Self::partial_fit): the batch is
    /// validated and repaired by `guard` first, and every failure mode
    /// (shape mismatch, non-finite values under
    /// [`GapPolicy::Reject`](crate::ingest::GapPolicy::Reject)) surfaces as
    /// a [`CoreError`] instead of a panic or a silently poisoned SVD.
    pub fn try_partial_fit(
        &mut self,
        batch: &Mat,
        guard: &mut IngestGuard,
    ) -> Result<RoundReport, CoreError> {
        if batch.rows() != self.p {
            return Err(CoreError::ShapeMismatch {
                expected_rows: self.p,
                got_rows: batch.rows(),
            });
        }
        let (clean, repairs) = guard.repair(batch)?;
        Ok(self.round(clean.as_ref().unwrap_or(batch), repairs))
    }

    /// Current level-1 mode set.
    pub fn root(&self) -> &ModeSet {
        &self.root
    }

    /// Every node: root first, then levels ≥ 2 in insertion order.
    pub fn nodes(&self) -> impl Iterator<Item = &ModeSet> {
        std::iter::once(&self.root).chain(self.subnodes.iter())
    }

    /// Total modes across the tree.
    pub fn n_modes(&self) -> usize {
        self.nodes().map(ModeSet::n_modes).sum()
    }

    /// Snapshots absorbed so far.
    pub fn n_steps(&self) -> usize {
        self.t_total
    }

    /// Number of sensors (rows).
    pub fn n_rows(&self) -> usize {
        self.p
    }

    /// Deepest level currently materialised.
    pub fn depth(&self) -> usize {
        self.nodes().map(|n| n.level).max().unwrap_or(0)
    }

    /// The drift recorded at each partial fit.
    pub fn drift_log(&self) -> &[f64] {
        &self.drift_log
    }

    /// Health of the root subtree.
    pub fn root_health(&self) -> &SubtreeHealth {
        &self.root_health
    }

    /// Every recorded node-fit failure, in occurrence order.
    pub fn fit_faults(&self) -> &[FitFault] {
        &self.faults
    }

    /// Aggregated health snapshot: per-level node counts, coverage of the
    /// intended tree by healthy nodes, the last solver error, and solver
    /// statistics. Derived from serialized state, so a model restored from a
    /// checkpoint reports the identical snapshot.
    pub fn health(&self) -> HealthSnapshot {
        // Per-level tallies: materialised nodes are healthy by construction
        // (a failed fit never produces a node); recorded faults are the
        // degraded windows. The root's slot at level 1 follows root_health.
        let mut levels: Vec<LevelHealth> = Vec::new();
        fn bump(levels: &mut Vec<LevelHealth>, level: usize, healthy: bool) {
            if let Some(slot) = levels.iter_mut().find(|l| l.level == level) {
                if healthy {
                    slot.healthy += 1;
                } else {
                    slot.degraded += 1;
                }
                return;
            }
            levels.push(LevelHealth {
                level,
                healthy: usize::from(healthy),
                degraded: usize::from(!healthy),
            });
        }
        bump(&mut levels, 1, self.root_health.is_healthy());
        for node in &self.subnodes {
            bump(&mut levels, node.level, true);
        }
        for fault in &self.faults {
            bump(&mut levels, fault.level, false);
        }
        levels.sort_by_key(|l| l.level);
        let healthy_nodes: usize = levels.iter().map(|l| l.healthy).sum();
        let degraded_nodes: usize = levels.iter().map(|l| l.degraded).sum();
        let total = healthy_nodes + degraded_nodes;
        let coverage = if total == 0 {
            1.0
        } else {
            healthy_nodes as f64 / total as f64
        };
        HealthSnapshot {
            root: self.root_health.clone(),
            levels,
            healthy_nodes,
            degraded_nodes,
            coverage,
            last_error: self.last_error.clone(),
            solver: SolverStats {
                last_eig_iterations: self.last_eig_iterations,
                last_eig_restarts: self.last_eig_restarts,
                last_inner_svd_sweeps: self.isvd.last_inner_sweeps(),
                isvd_drift: self.isvd.orthogonality_drift(),
                isvd_drift_breaches: self.isvd_drift_breaches,
            },
        }
    }

    /// Whether accumulated drift has exceeded the configured threshold.
    pub fn is_stale(&self) -> bool {
        self.stale
    }

    /// The streaming configuration.
    pub fn config(&self) -> &IMrDmdConfig {
        &self.cfg
    }

    /// Overrides the worker-thread knob (0 = auto, 1 = serial) for all
    /// subsequent fits and reconstructions — handy when a model serialized on
    /// one machine is resumed on another. Results are bitwise-identical at
    /// every setting.
    pub fn set_n_threads(&mut self, n_threads: usize) {
        self.cfg.mr.n_threads = n_threads;
    }

    /// Rank of the streaming root SVD.
    pub fn root_rank(&self) -> usize {
        match &self.sketch {
            Some(sk) => sk.rank(),
            None => self.isvd.rank(),
        }
    }

    /// The streaming sketch behind the root fit, when the tree was built
    /// with [`FitStrategy::Sketched`]. Test-only introspection hook for the
    /// basis-reuse invariant.
    #[cfg(test)]
    pub(crate) fn sketch_state(&self) -> Option<&SketchSvd> {
        self.sketch.as_ref()
    }

    /// Reconstructs the denoised signal over absolute snapshots `[t0, t1)`.
    pub fn reconstruct_range(&self, t0: usize, t1: usize) -> Mat {
        assert!(t0 <= t1 && t1 <= self.t_total);
        let pool = WorkerPool::new(self.cfg.mr.n_threads);
        reconstruct_nodes(
            &self.nodes().collect::<Vec<_>>(),
            self.p,
            t0,
            t1,
            self.cfg.mr.dt,
            &pool,
        )
    }

    /// Reconstructs the full absorbed timeline.
    pub fn reconstruct(&self) -> Mat {
        self.reconstruct_range(0, self.t_total)
    }

    /// Full-resolution history, if `keep_history` was enabled.
    pub fn history(&self) -> Option<&Mat> {
        self.history.as_ref()
    }

    /// Rebuilds the whole tree from history with a fresh batch fit — the
    /// "recompute stale levels" escape hatch the paper defers to future work.
    ///
    /// # Panics
    /// Panics if `keep_history` was not enabled.
    pub fn recompute(&mut self) {
        // Documented `# Panics` contract: calling without history is a
        // programming error, not a runtime condition.
        #[allow(clippy::expect_used)]
        let data = self
            .history
            .clone()
            .expect("recompute requires keep_history");
        *self = IMrDmd::fit(&data, &self.cfg);
    }

    /// Refreshes only levels 2..L against the *current* root — the cheaper
    /// variant of [`recompute`](Self::recompute) the paper sketches: the root
    /// SVD state is kept, the stale deeper levels are refitted from the
    /// residual, with the two halves processed on separate threads (the
    /// "embarrassingly parallel" observation of Sec. III-A.1).
    ///
    /// # Panics
    /// Panics if `keep_history` was not enabled.
    pub fn refresh_subtrees(&mut self) {
        // Documented `# Panics` contract, mirroring `recompute`.
        #[allow(clippy::expect_used)]
        let data = self
            .history
            .as_ref()
            .expect("refresh_subtrees requires keep_history");
        let t = self.t_total;
        let mut residual = data.clone();
        self.subtract_root(&mut residual, 0, 0);
        let mr = self.cfg.mr;
        let mut fresh: Vec<ModeSet> = Vec::new();
        let mut fresh_faults: Vec<FitFault> = Vec::new();
        // The halves are independent subtrees ("embarrassingly parallel",
        // Sec. III-A.1); fit_halves fans them — and their own halves, down to
        // the size cutoff — across the worker pool instead of the former
        // hard-coded two-thread split.
        let pool = WorkerPool::new(mr.n_threads);
        fit_halves(
            &mut residual,
            0,
            t,
            0,
            0,
            &mr,
            1,
            mr.max_levels,
            &pool,
            &mut fresh,
            &mut fresh_faults,
        );
        // Degraded-window retention: a window whose refresh failed keeps the
        // node the previous tree served for it (if any) instead of going
        // dark. The fault stays on record so health() reports the window as
        // degraded.
        for f in &mut fresh_faults {
            f.at_step = t;
            if let Some(old) = self.subnodes.iter().find(|n| {
                n.start == f.start && n.window == f.window && n.row_offset == f.row_offset
            }) {
                fresh.push(old.clone());
            }
        }
        if let Some(f) = fresh_faults.last() {
            self.last_error = Some(f.cause.clone());
        }
        self.subnodes = fresh;
        self.faults = fresh_faults;
        // The refreshed subtrees cover the whole timeline, pending window
        // included — nothing is deferred any more.
        self.pending = Mat::zeros(self.p, 0);
        self.stale = false;
    }

    /// Adds entirely new telemetry series (sensors) to the streaming state —
    /// the paper's second future-work item. `new_rows` must carry the full
    /// history of the new sensors (`r × n_steps`).
    ///
    /// The root SVD absorbs the rows incrementally; the new sensors' own
    /// multiscale structure is fitted as a dedicated level-2 subtree covering
    /// only the appended rows (`ModeSet::row_offset`). Previously fitted
    /// nodes are untouched — they simply contribute nothing to the new rows.
    ///
    /// # Panics
    /// Panics if the column count differs from the absorbed timeline.
    pub fn add_series(&mut self, new_rows: &Mat) {
        assert_eq!(
            new_rows.cols(),
            self.t_total,
            "new series must span the absorbed timeline"
        );
        if new_rows.rows() == 0 {
            return;
        }
        let p_old = self.p;
        let r = new_rows.rows();
        // Extend the decimated root stream and its SVD.
        let new_sub = new_rows.subsample_cols(self.root_step);
        debug_assert_eq!(new_sub.cols(), self.sub_data.cols());
        let n_sub = self.sub_data.cols();
        if self.sketch.is_none() {
            self.isvd.update_rows(&new_sub.cols_range(0, n_sub - 1));
        }
        self.sub_data = self.sub_data.vstack(&new_sub);
        self.p = p_old + r;
        // Row additions change the probe dimension itself, so the sketched
        // basis cannot be patched incrementally: re-probe from the retained
        // decimated stream (cheap next to the per-round absorbs it replaces).
        if let Some(sk) = &mut self.sketch {
            if let FitStrategy::Sketched {
                rank_oversample,
                power_iters,
                seed,
            } = self.cfg.mr.strategy
            {
                let x = self.sub_data.cols_range(0, n_sub - 1);
                *sk = SketchSvd::new(
                    &x,
                    self.cfg.isvd_max_rank.max(1),
                    rank_oversample,
                    power_iters,
                    seed,
                );
            }
        }
        // Root modes now cover all rows.
        match self.try_solve_root(self.t_total) {
            Ok(solved) => self.adopt_root(solved),
            // The previous root (covering only the old rows) stays in
            // service; the appended rows get no root contribution until a
            // solve succeeds.
            Err(e) => self.root_failed(&e, self.t_total),
        }
        // Dedicated subtree for the new sensors' residual dynamics — over
        // the already-fitted timeline only: the pending tail stays deferred
        // (and now carries the new rows too), so the flush that eventually
        // covers it never overlaps this subtree.
        let t_cov = self.t_total - self.pending.cols();
        let mut residual = new_rows.cols_range(0, t_cov);
        self.subtract_root(&mut residual, 0, p_old);
        {
            let faults_before = self.faults.len();
            let pool = WorkerPool::new(self.cfg.mr.n_threads);
            fit_halves(
                &mut residual,
                0,
                t_cov,
                0,
                p_old,
                &self.cfg.mr,
                1,
                self.cfg.mr.max_levels,
                &pool,
                &mut self.subnodes,
                &mut self.faults,
            );
            let t_total = self.t_total;
            for f in &mut self.faults[faults_before..] {
                f.at_step = t_total;
            }
        }
        if self.pending.cols() > 0 {
            self.pending = self
                .pending
                .vstack(&new_rows.cols_range(t_cov, self.t_total));
        }
        if let Some(h) = &mut self.history {
            *h = h.vstack(new_rows);
        }
    }

    /// Forecasts `horizon` snapshots past the absorbed timeline by
    /// extrapolating the mode dynamics of the root and of every node whose
    /// window touches the right edge (the most recent context at each
    /// timescale).
    ///
    /// DMD forecasting is only trustworthy over horizons comparable to the
    /// finest captured timescale; growth clamping keeps the extrapolation
    /// bounded regardless.
    pub fn forecast(&self, horizon: usize) -> Mat {
        let (t, dt) = (self.t_total, self.cfg.mr.dt);
        let mut out = Mat::zeros(self.p, horizon);
        for node in self.nodes().filter(|n| n.start + n.window == t) {
            let abs = |h| t + h;
            node.eval_into(0..horizon, abs, dt, 1.0, 0, &mut out);
        }
        out
    }

    /// Equivalent batch decomposition of the same tree (for comparisons).
    pub fn as_mrdmd(&self) -> MrDmd {
        MrDmd {
            config: self.cfg.mr,
            nodes: self.nodes().cloned().collect(),
            n_rows: self.p,
            n_steps: self.t_total,
            faults: self.faults.clone(),
        }
    }
}

/// True when the `n_new == 0` drift scan may be skipped outright: extending
/// the root window rewrites only `ModeSet::window`, which
/// [`ModeSet::eval_into`] ignores, so the scan subtracts each
/// reconstruction column from a bitwise-identical copy of itself — every term
/// is `x − x`, which is exactly `+0.0` whenever `x` is finite, and the
/// accumulated drift is exactly `+0.0`. The guard proves every intermediate
/// of the evaluation stays finite by bounding the mode-weight magnitudes over
/// the scanned time range; any non-finite input (where `x − x` would be NaN)
/// makes it return `false` and the round runs the full scan.
fn drift_scan_is_provably_zero(
    node: &ModeSet,
    old_sub_cols: usize,
    root_step: usize,
    dt: f64,
) -> bool {
    if node.n_modes() == 0 || old_sub_cols == 0 {
        return true;
    }
    let last_abs = (old_sub_cols - 1) * root_step;
    if last_abs < node.start {
        // Every scanned column predates the window: both evaluations are the
        // zero vector.
        return true;
    }
    if !dt.is_finite() {
        return false;
    }
    let t_max = (last_abs - node.start) as f64 * dt;
    if !t_max.is_finite() {
        return false;
    }
    // |exp(ω·t)| = exp(Re(ω)·t) is monotone in t, so its maximum over the
    // scanned range [0, t_max] sits at an endpoint.
    let mut weight_bound = 0.0f64;
    for (w, a) in node.omegas.iter().zip(&node.amplitudes) {
        if !(w.re.is_finite() && w.im.is_finite() && a.re.is_finite() && a.im.is_finite()) {
            return false;
        }
        let growth = (w.re * t_max).max(0.0).exp();
        let wb = growth * (a.re.abs() + a.im.abs());
        if !wb.is_finite() {
            return false;
        }
        weight_bound = weight_bound.max(wb);
    }
    let mut mode_bound = 0.0f64;
    for i in 0..node.modes.rows() {
        for m in node.modes.row(i) {
            if !(m.re.is_finite() && m.im.is_finite()) {
                return false;
            }
            mode_bound = mode_bound.max(m.re.abs() + m.im.abs());
        }
    }
    // Headroom factor 16 covers the re/im cross terms of the complex
    // accumulation; staying far below f64::MAX rules out overflow anywhere
    // in the mul_add chain.
    let acc_bound = 16.0 * node.n_modes() as f64 * mode_bound * weight_bound;
    acc_bound.is_finite() && acc_bound < 1e300
}

/// Spawns a background thread that refits the decomposition from history;
/// poll [`AsyncRefit::try_take`] and swap the result in when ready.
///
/// This implements the paper's observation that the levels-2..L refresh "is
/// an embarrassingly parallel problem \[that\] would not add an overhead to the
/// current computation": the stream keeps absorbing batches while the refit
/// runs elsewhere.
pub struct AsyncRefit {
    rx: crossbeam::channel::Receiver<IMrDmd>,
}

impl AsyncRefit {
    /// Starts a refit of `data` under `cfg` on a new thread.
    pub fn spawn(data: Mat, cfg: IMrDmdConfig) -> AsyncRefit {
        let (tx, rx) = crossbeam::channel::bounded(1);
        std::thread::spawn(move || {
            let refit = IMrDmd::fit(&data, &cfg);
            let _ = tx.send(refit);
        });
        AsyncRefit { rx }
    }

    /// Returns the refit if it has finished, without blocking.
    ///
    /// `Ok(None)` means the refit is still running; [`CoreError::RefitDead`]
    /// means the worker thread died (panicked) without delivering — the two
    /// used to be indistinguishable, so callers polled a dead refit forever.
    pub fn try_take(&self) -> Result<Option<IMrDmd>, CoreError> {
        match self.rx.try_recv() {
            Ok(m) => Ok(Some(m)),
            Err(crossbeam::channel::TryRecvError::Empty) => Ok(None),
            Err(crossbeam::channel::TryRecvError::Disconnected) => Err(CoreError::RefitDead),
        }
    }

    /// Blocks until the refit finishes; [`CoreError::RefitDead`] if the
    /// worker thread died without delivering.
    pub fn take(self) -> Result<IMrDmd, CoreError> {
        self.rx.recv().map_err(|_| CoreError::RefitDead)
    }
}

fn empty_root(p: usize, window: usize, step: usize) -> ModeSet {
    ModeSet {
        level: 1,
        start: 0,
        window,
        step,
        row_offset: 0,
        modes: hpc_linalg::CMat::zeros(p, 0),
        lambdas: vec![],
        omegas: vec![],
        amplitudes: vec![],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dmd::RankSelection;
    use hpc_linalg::c64;

    const TAU: f64 = std::f64::consts::TAU;

    fn mode_set(omega: c64, amp: c64, mode: c64) -> ModeSet {
        ModeSet {
            level: 1,
            start: 0,
            window: 32,
            step: 2,
            row_offset: 0,
            modes: hpc_linalg::CMat::from_fn(3, 1, |_, _| mode),
            lambdas: vec![c64::ONE],
            omegas: vec![omega],
            amplitudes: vec![amp],
        }
    }

    #[test]
    fn try_fit_rejects_fewer_than_two_snapshots() {
        for t in [0, 1] {
            let data = Mat::from_fn(4, t, |i, _| i as f64);
            match IMrDmd::try_fit(&data, &IMrDmdConfig::default()) {
                Err(CoreError::TooFewSnapshots { got, step: 1 }) => assert_eq!(got, t),
                other => panic!("{t} snapshots: {:?}", other.map(|m| m.n_steps())),
            }
        }
        let data = Mat::from_fn(4, 2, |i, j| (i + j) as f64);
        assert!(IMrDmd::try_fit(&data, &IMrDmdConfig::default()).is_ok());
        // A zero Nyquist factor would divide by zero in the decimation step.
        let mut cfg = IMrDmdConfig::default();
        cfg.mr.nyquist_factor = 0;
        assert!(matches!(
            IMrDmd::try_fit(&data, &cfg),
            Err(CoreError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn drift_skip_guard_accepts_finite_and_rejects_pathological_roots() {
        let c = |re: f64, im: f64| c64 { re, im };
        // Ordinary finite modes: the window-extension scan is provably zero.
        assert!(drift_scan_is_provably_zero(
            &mode_set(c(-0.1, 2.0), c(1.0, 0.5), c(0.3, -0.2)),
            20,
            2,
            0.5
        ));
        // Zero modes / zero columns are trivially zero.
        assert!(drift_scan_is_provably_zero(
            &empty_root(3, 32, 2),
            20,
            2,
            0.5
        ));
        assert!(drift_scan_is_provably_zero(
            &mode_set(c(0.0, 1.0), c(1.0, 0.0), c(1.0, 0.0)),
            0,
            2,
            0.5
        ));
        // NaN anywhere means the full scan yields NaN, not zero: refuse.
        assert!(!drift_scan_is_provably_zero(
            &mode_set(c(f64::NAN, 0.0), c(1.0, 0.0), c(1.0, 0.0)),
            20,
            2,
            0.5
        ));
        assert!(!drift_scan_is_provably_zero(
            &mode_set(c(0.0, 1.0), c(1.0, 0.0), c(f64::NAN, 0.0)),
            20,
            2,
            0.5
        ));
        // Growth that overflows exp() over the scanned range: refuse.
        assert!(!drift_scan_is_provably_zero(
            &mode_set(c(100.0, 0.0), c(1.0, 0.0), c(1.0, 0.0)),
            20,
            2,
            0.5
        ));
        // Magnitudes that could overflow the accumulation: refuse.
        assert!(!drift_scan_is_provably_zero(
            &mode_set(c(0.0, 1.0), c(1e200, 0.0), c(1e200, 0.0)),
            20,
            2,
            0.5
        ));
    }

    fn stream_data(p: usize, t: usize, dt: f64) -> Mat {
        Mat::from_fn(p, t, |i, j| {
            let x = i as f64 / p as f64;
            let tt = j as f64 * dt;
            (TAU * 0.01 * tt + 2.0 * x).sin()
                + 0.4 * (TAU * 0.3 * tt + 4.0 * x).cos()
                + 0.02 * (TAU * 5.0 * tt + 9.0 * x).sin()
        })
    }

    fn cfg(dt: f64) -> IMrDmdConfig {
        IMrDmdConfig {
            mr: MrDmdConfig {
                dt,
                max_levels: 4,
                max_cycles: 2,
                rank: RankSelection::Fixed(6),
                nyquist_factor: 4,
                min_window: 16,
                max_window_growth: 1e3,
                n_threads: 0,
                ..MrDmdConfig::default()
            },
            isvd_max_rank: 24,
            drift_threshold: None,
            keep_history: true,
            auto_refresh: false,
        }
    }

    fn sketched(mut c: IMrDmdConfig, seed: u64) -> IMrDmdConfig {
        c.mr.strategy = FitStrategy::Sketched {
            rank_oversample: 4,
            power_iters: 1,
            seed,
        };
        c
    }

    #[test]
    fn sketched_stream_is_bitwise_deterministic_across_thread_counts() {
        // The sketched path must be exactly reproducible at any worker
        // count: the probe is seeded and every product routes through the
        // deterministic GEMM. Stream two batches and compare the full
        // serialized state bit for bit (after normalising the one config
        // field that legitimately differs).
        let dt = 0.5;
        let data = stream_data(24, 200, dt);
        let mut states: Vec<String> = Vec::new();
        for threads in [1usize, 2, 4, 8] {
            let mut c = sketched(cfg(dt), 1234);
            c.mr.n_threads = threads;
            let mut tree = IMrDmd::fit(&data.cols_range(0, 120), &c);
            tree.partial_fit(&data.cols_range(120, 160));
            tree.partial_fit(&data.cols_range(160, 200));
            tree.set_n_threads(0);
            states.push(serde_json::to_string(&tree).unwrap_or_default());
        }
        assert!(!states[0].is_empty());
        for (i, s) in states.iter().enumerate().skip(1) {
            assert_eq!(*s, states[0], "thread count #{i} diverged");
        }
    }

    #[test]
    fn sketched_stream_reuses_and_refreshes_one_probe() {
        // The tentpole invariant: one cold-start probe at fit, zero
        // re-probes across partial_fit rounds (refreshes are residual-driven
        // basis growth, not fresh Gaussian draws).
        let dt = 0.5;
        // Wide enough that the cold start takes the genuine probe branch
        // (l = isvd_max_rank + oversample must undercut the block shape).
        let data = stream_data(80, 240, dt);
        let mut c = sketched(cfg(dt), 9);
        // Keep the probe width under the cold-start block's column count so
        // the genuine randomized branch runs (not the small-shape fallback).
        c.isvd_max_rank = 8;
        let mut tree = IMrDmd::fit(&data.cols_range(0, 120), &c);
        let sk = tree.sketch_state().unwrap();
        assert_eq!(sk.probes_drawn(), 1, "cold start draws exactly one probe");
        let cap = sk.basis_cap();
        for k in 0..4 {
            tree.partial_fit(&data.cols_range(120 + 30 * k, 150 + 30 * k));
        }
        let sk = tree.sketch_state().unwrap();
        assert_eq!(sk.probes_drawn(), 1, "partial_fit must not re-probe");
        assert!(
            sk.basis_cols() >= 1 && sk.basis_cols() <= cap,
            "refreshed basis stays within the compression cap"
        );
        assert!(tree.root_rank() > 0);
    }

    #[test]
    fn sketched_root_tracks_exact_frequencies() {
        // Accuracy on the pipeline level: the sketched root recovers the
        // same dominant frequencies as the exact path on planted dynamics.
        let dt = 0.5;
        let data = stream_data(24, 200, dt);
        let exact = IMrDmd::fit(&data, &cfg(dt));
        let sk = IMrDmd::fit(&data, &sketched(cfg(dt), 77));
        let fe = exact.root().frequencies();
        let fs = sk.root().frequencies();
        assert!(!fe.is_empty() && !fs.is_empty(), "{fe:?} vs {fs:?}");
        for a in &fe {
            let close = fs.iter().any(|b| (a - b).abs() < 1e-6 + 0.05 * a.abs());
            assert!(close, "exact frequency {a} unmatched: {fe:?} vs {fs:?}");
        }
    }

    #[test]
    fn checkpoint_without_strategy_fields_loads_as_exact() {
        // A checkpoint written before fit strategies existed has neither the
        // `sketch` state nor the `strategy` config field: both must
        // deserialize to the historical exact behaviour, bit for bit.
        let dt = 0.5;
        let data = stream_data(12, 80, dt);
        let tree = IMrDmd::fit(&data, &cfg(dt));
        let json = serde_json::to_string(&tree).unwrap_or_default();
        let legacy = json
            .replace(",\"strategy\":\"Exact\"", "")
            .replace(",\"sketch\":null", "");
        assert_ne!(legacy, json, "surgery must remove both new fields");
        let back: IMrDmd = match serde_json::from_str(&legacy) {
            Ok(t) => t,
            Err(e) => panic!("legacy checkpoint rejected: {e}"),
        };
        assert_eq!(serde_json::to_string(&back).unwrap_or_default(), json);
    }

    #[test]
    fn initial_fit_matches_batch_reconstruction() {
        let dt = 1.0;
        let data = stream_data(8, 512, dt);
        let c = cfg(dt);
        let inc = IMrDmd::fit(&data, &c);
        let batch = MrDmd::fit(&data, &c.mr);
        let e_inc = inc.reconstruct().fro_dist(&data);
        let e_batch = batch.reconstruct().fro_dist(&data);
        // Same algorithm, possibly different SVD numerics — errors must be
        // close (Q2).
        assert!(
            (e_inc - e_batch).abs() <= 0.1 * e_batch.max(1e-9) + 1e-6,
            "inc {e_inc} vs batch {e_batch}"
        );
    }

    #[test]
    fn partial_fit_extends_timeline_and_tree() {
        let dt = 1.0;
        let data = stream_data(8, 768, dt);
        let c = cfg(dt);
        let mut inc = IMrDmd::fit(&data.cols_range(0, 512), &c);
        let before_nodes = inc.nodes().count();
        let report = inc.partial_fit(&data.cols_range(512, 768));
        assert_eq!(report.batch_len, 256);
        assert!(report.new_root_cols > 0);
        assert_eq!(inc.n_steps(), 768);
        assert!(inc.nodes().count() > before_nodes);
        assert_eq!(inc.root().window, 768);
    }

    #[test]
    fn old_nodes_shift_one_level_per_update() {
        let dt = 1.0;
        let data = stream_data(6, 640, dt);
        let c = cfg(dt);
        let mut inc = IMrDmd::fit(&data.cols_range(0, 512), &c);
        let old_levels: Vec<usize> = inc.subnodes.iter().map(|n| n.level).collect();
        inc.partial_fit(&data.cols_range(512, 640));
        for (k, lvl) in old_levels.iter().enumerate() {
            assert_eq!(inc.subnodes[k].level, lvl + 1);
        }
    }

    #[test]
    fn incremental_accuracy_close_to_batch_after_update() {
        // Q2: the reconstruction difference between I-mrDMD and mrDMD stays
        // small relative to signal norm.
        let dt = 1.0;
        let data = stream_data(8, 768, dt);
        let c = cfg(dt);
        let mut inc = IMrDmd::fit(&data.cols_range(0, 512), &c);
        inc.partial_fit(&data.cols_range(512, 768));
        let batch = MrDmd::fit(&data, &c.mr);
        let e_inc = inc.reconstruct().fro_dist(&data) / data.fro_norm();
        let e_batch = batch.reconstruct().fro_dist(&data) / data.fro_norm();
        assert!(e_inc < e_batch + 0.15, "inc {e_inc} batch {e_batch}");
    }

    #[test]
    fn multiple_small_batches_accumulate() {
        let dt = 1.0;
        let data = stream_data(6, 512 + 4 * 64, dt);
        let c = cfg(dt);
        let mut inc = IMrDmd::fit(&data.cols_range(0, 512), &c);
        for k in 0..4 {
            let s = 512 + k * 64;
            inc.partial_fit(&data.cols_range(s, s + 64));
        }
        assert_eq!(inc.n_steps(), 512 + 256);
        assert_eq!(inc.drift_log().len(), 4);
        let rel = inc.reconstruct().fro_dist(&data) / data.fro_norm();
        assert!(rel < 0.5, "relative error {rel}");
    }

    #[test]
    fn drift_threshold_marks_stale_and_recompute_clears() {
        let dt = 1.0;
        let base = stream_data(6, 512, dt);
        let mut c = cfg(dt);
        c.drift_threshold = Some(1e-12); // absurdly tight: any update trips it
        let mut inc = IMrDmd::fit(&base, &c);
        // A regime change guarantees nonzero drift.
        let shifted = Mat::from_fn(6, 128, |i, j| base[(i, j % 512)] + 5.0);
        inc.partial_fit(&shifted);
        assert!(inc.is_stale());
        inc.recompute();
        assert!(!inc.is_stale());
        assert_eq!(inc.n_steps(), 640);
    }

    #[test]
    fn async_refit_produces_equivalent_state() {
        let dt = 1.0;
        let data = stream_data(6, 512, dt);
        let c = cfg(dt);
        let refit = AsyncRefit::spawn(data.clone(), c)
            .take()
            .expect("refit thread lives");
        let direct = IMrDmd::fit(&data, &c);
        assert_eq!(refit.n_steps(), direct.n_steps());
        assert!(refit.reconstruct().fro_dist(&direct.reconstruct()) < 1e-6);
    }

    #[test]
    fn batch_smaller_than_root_step_still_processed() {
        let dt = 1.0;
        // 510 snapshots → root step 31, decimated grid {0, 31, …, 496}, next
        // grid point at 527 — an 8-snapshot batch adds no root column.
        let data = stream_data(6, 518, dt);
        let c = cfg(dt);
        let mut inc = IMrDmd::fit(&data.cols_range(0, 510), &c);
        let step = inc.root_step;
        assert!(step > 8, "test premise: batch shorter than root step");
        let report = inc.partial_fit(&data.cols_range(510, 518));
        assert_eq!(report.new_root_cols, 0);
        assert_eq!(inc.n_steps(), 518);
        assert_eq!(inc.root().window, 518);
    }

    #[test]
    fn empty_batch_is_noop() {
        let dt = 1.0;
        let data = stream_data(6, 512, dt);
        let mut inc = IMrDmd::fit(&data, &cfg(dt));
        let report = inc.partial_fit(&Mat::zeros(6, 0));
        assert_eq!(report.batch_len, 0);
        assert_eq!(inc.n_steps(), 512);
    }

    #[test]
    fn refresh_subtrees_restores_batch_quality() {
        let dt = 1.0;
        let data = stream_data(8, 768, dt);
        let c = cfg(dt);
        let mut inc = IMrDmd::fit(&data.cols_range(0, 512), &c);
        // Several updates accumulate structural divergence from the batch tree.
        for k in 0..4 {
            let lo = 512 + 64 * k;
            inc.partial_fit(&data.cols_range(lo, lo + 64));
        }
        let before = inc.reconstruct().fro_dist(&data);
        inc.refresh_subtrees();
        assert!(!inc.is_stale());
        let after = inc.reconstruct().fro_dist(&data);
        // A refreshed tree (halving splits against the current root) is at
        // least comparable to the incrementally grown one.
        assert!(
            after <= before * 1.2 + 1e-9,
            "refresh worsened: {before} → {after}"
        );
        assert_eq!(inc.n_steps(), 768);
        assert_eq!(inc.root().window, 768);
    }

    #[test]
    fn add_series_extends_rows_and_reconstruction() {
        let dt = 1.0;
        let all = stream_data(12, 512, dt);
        let c = cfg(dt);
        let mut inc = IMrDmd::fit(&all.rows_range(0, 7), &c);
        inc.add_series(&all.rows_range(7, 12));
        assert_eq!(inc.n_rows(), 12);
        let rec = inc.reconstruct();
        assert_eq!(rec.rows(), 12);
        assert!(rec.as_slice().iter().all(|v| v.is_finite()));
        // The added rows reconstruct comparably to a fresh batch fit on the
        // same rows — the incremental path loses nothing fundamental.
        let new_part = rec.rows_range(7, 12);
        let target = all.rows_range(7, 12);
        let rel = new_part.fro_dist(&target) / target.fro_norm();
        let fresh = MrDmd::fit(&target, &c.mr);
        let rel_fresh = fresh.reconstruct().fro_dist(&target) / target.fro_norm();
        assert!(
            rel <= rel_fresh + 0.15,
            "add_series rel err {rel} vs fresh fit on same rows {rel_fresh}"
        );
        // And subsequent partial fits accept the widened stream.
        let more = Mat::from_fn(12, 64, |i, j| all[(i, (512 + j) % 512)]);
        inc.partial_fit(&more);
        assert_eq!(inc.n_steps(), 576);
    }

    #[test]
    fn add_series_nodes_carry_row_offset() {
        let dt = 1.0;
        let all = stream_data(8, 512, dt);
        let c = cfg(dt);
        let mut inc = IMrDmd::fit(&all.rows_range(0, 6), &c);
        inc.add_series(&all.rows_range(6, 8));
        assert!(
            inc.nodes()
                .any(|n| n.row_offset == 6 && n.modes.rows() == 2),
            "expected a dedicated subtree for the appended rows"
        );
        // Root covers all rows.
        assert_eq!(inc.root().modes.rows(), 8);
        assert_eq!(inc.root().row_offset, 0);
    }

    #[test]
    fn forecast_tracks_stationary_oscillation() {
        let dt = 1.0;
        let data = stream_data(8, 640, dt);
        let c = cfg(dt);
        let inc = IMrDmd::fit(&data.cols_range(0, 576), &c);
        let horizon = 32;
        let fc = inc.forecast(horizon);
        assert_eq!(fc.shape(), (8, horizon));
        assert!(fc.as_slice().iter().all(|v| v.is_finite()));
        // The forecast must beat a zero predictor on the de-meaned truth.
        let truth = data.cols_range(576, 576 + horizon);
        let err = fc.fro_dist(&truth);
        let zero_err = truth.fro_norm();
        assert!(
            err < zero_err,
            "forecast err {err} vs zero-predictor {zero_err}"
        );
    }

    #[test]
    fn auto_refresh_clears_staleness_inline() {
        let dt = 1.0;
        let data = stream_data(8, 768, dt);
        let mut c = cfg(dt);
        c.drift_threshold = Some(1e-12);
        c.auto_refresh = true;
        c.keep_history = true;
        let mut inc = IMrDmd::fit(&data.cols_range(0, 512), &c);
        inc.partial_fit(&data.cols_range(512, 768));
        // The inline refresh ran and cleared the flag.
        assert!(!inc.is_stale());
        // Its tree is the refreshed (halving) structure, still covering all.
        assert_eq!(inc.n_steps(), 768);
        let rel = inc.reconstruct().fro_dist(&data) / data.fro_norm();
        assert!(rel < 0.5, "post-refresh error {rel}");
    }

    #[test]
    fn model_persists_through_serde_roundtrip() {
        let dt = 1.0;
        let data = stream_data(8, 640, dt);
        let c = cfg(dt);
        let mut model = IMrDmd::fit(&data.cols_range(0, 512), &c);
        model.partial_fit(&data.cols_range(512, 640));
        let json = serde_json::to_string(&model).expect("serialise");
        let mut back: IMrDmd = serde_json::from_str(&json).expect("deserialise");
        assert_eq!(back.n_steps(), model.n_steps());
        assert_eq!(back.n_modes(), model.n_modes());
        assert!(back.reconstruct().fro_dist(&model.reconstruct()) < 1e-12);
        // The resumed model keeps streaming.
        let more = Mat::from_fn(8, 64, |i, j| data[(i, j % 640)]);
        back.partial_fit(&more);
        assert_eq!(back.n_steps(), 704);
    }

    #[test]
    fn healthy_stream_reports_full_coverage() {
        let dt = 1.0;
        let data = stream_data(8, 640, dt);
        let mut inc = IMrDmd::fit(&data.cols_range(0, 512), &cfg(dt));
        inc.partial_fit(&data.cols_range(512, 640));
        let h = inc.health();
        assert!(h.all_healthy(), "{h:?}");
        assert!(h.root.is_healthy());
        assert_eq!(h.degraded_nodes, 0);
        assert_eq!(h.coverage, 1.0);
        assert_eq!(h.healthy_nodes, inc.nodes().count());
        // Levels are ascending and tally up.
        for w in h.levels.windows(2) {
            assert!(w[0].level < w[1].level);
        }
        assert_eq!(
            h.levels.iter().map(|l| l.healthy).sum::<usize>(),
            h.healthy_nodes
        );
        // The solver actually worked for the root.
        assert!(h.solver.last_eig_iterations > 0);
        assert_eq!(h.solver.isvd_drift_breaches, 0);
        assert!(h.solver.isvd_drift < 1e-8, "{}", h.solver.isvd_drift);
    }

    #[test]
    fn health_state_survives_serde_roundtrip() {
        let dt = 1.0;
        let data = stream_data(8, 640, dt);
        let mut inc = IMrDmd::fit(&data.cols_range(0, 512), &cfg(dt));
        inc.partial_fit(&data.cols_range(512, 640));
        let json = serde_json::to_string(&inc).expect("serialize");
        let back: IMrDmd = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(back.health(), inc.health());
        assert_eq!(back.fit_faults(), inc.fit_faults());
        assert_eq!(back.root_health(), inc.root_health());
    }

    #[test]
    fn compression_report_flows_from_stream_state() {
        let dt = 1.0;
        let data = stream_data(16, 1024, dt);
        let inc = IMrDmd::fit(&data, &cfg(dt));
        let r = crate::compression::compression_report(inc.nodes(), inc.n_rows(), inc.n_steps());
        assert_eq!(r.n_modes, inc.n_modes());
        assert!(r.ratio > 1.0, "ratio {}", r.ratio);
    }
}
