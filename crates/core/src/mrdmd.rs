//! Multiresolution Dynamic Mode Decomposition (Kutz, Fu & Brunton 2016).
//!
//! mrDMD screens dynamics from slow to fast: at each level the window's DMD
//! is computed on a decimated copy (four times the Nyquist rate of the
//! slowest retained modes, Sec. III-A), the modes oscillating at most
//! `max_cycles` times per window are kept as that level's contribution, their
//! reconstruction is subtracted, and the residual is split in half and
//! recursed on. The collected per-node mode sets form a binary tree over the
//! timeline; summing every node's slow-mode reconstruction over its window
//! reproduces the signal minus the high-frequency noise floor (Eqs. 7–8).

use crate::dmd::{Dmd, DmdConfig, FitStrategy, RankSelection};
use crate::error::CoreError;
use crate::health::FitFault;
use hpc_linalg::pool::WorkerPool;
use hpc_linalg::{c64, CMat, Mat};
use serde::{Deserialize, Serialize};
use std::ops::Range;

/// Minimum residual-buffer size (`rows × cols` elements) of a subtree before
/// the recursion forks it onto another worker. Mirrors the role of
/// `PAR_FLOP_THRESHOLD` in the matmul kernel: below this the ~0.1 ms thread
/// spawn would rival the subtree's own arithmetic.
pub(crate) const PAR_TREE_MIN_ELEMS: usize = 32_768;

/// Output columns [`ModeSet::eval_tiles`] evaluates per tile. A tile's
/// weights (`2 × k × 64` f64, 16 KiB at 16 modes) stay in L1 while every
/// row of the node reuses them.
const COL_TILE: usize = 64;

/// Columns the row loop of [`ModeSet::eval_tiles`] keeps in registers at
/// once; [`COL_TILE`] is a whole number of them.
const LANES: usize = 8;

/// Configuration of the multiresolution recursion.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct MrDmdConfig {
    /// Snapshot spacing in seconds.
    pub dt: f64,
    /// Maximum recursion depth `L` (level 1 = whole timeline).
    pub max_levels: usize,
    /// Modes oscillating at most this many times per window count as "slow".
    pub max_cycles: usize,
    /// SVD truncation rule for every per-node DMD.
    pub rank: RankSelection,
    /// Decimation keeps `nyquist_factor × 2 × max_cycles` samples per window
    /// (the paper follows its refs. \[2\], \[3\] in using four times the Nyquist limit).
    pub nyquist_factor: usize,
    /// Windows shorter than this many snapshots are not split further.
    pub min_window: usize,
    /// Cap on in-window amplitude growth: a mode's `Re ψ` is clamped so that
    /// `exp(Re ψ · window)` never exceeds this factor. Residuals at deep
    /// levels are numerically tiny, and an unclamped spurious eigenvalue
    /// `|λ| ≫ 1` would overwhelm its near-zero amplitude exponentially.
    pub max_window_growth: f64,
    /// Worker threads for the fit and reconstruction: `0` sizes to the
    /// machine (`HPC_LINALG_THREADS` or `available_parallelism`), `1` runs
    /// serially, `n ≥ 2` uses exactly `n` threads. Results are
    /// bitwise-identical at every setting — the pool only moves independent
    /// subtrees and row blocks between threads, never reorders arithmetic.
    pub n_threads: usize,
    /// How every per-node snapshot SVD is computed (absent in old
    /// checkpoints ⇒ [`FitStrategy::Exact`]). Under `Sketched`, each tree
    /// node mixes the configured seed with its absolute window position
    /// ([`FitStrategy::for_node`]) so sibling probes decorrelate while
    /// results stay bitwise-deterministic at any thread count.
    pub strategy: FitStrategy,
}

impl Default for MrDmdConfig {
    fn default() -> Self {
        MrDmdConfig {
            dt: 1.0,
            max_levels: 6,
            max_cycles: 2,
            rank: RankSelection::Svht,
            nyquist_factor: 4,
            min_window: 16,
            max_window_growth: 1e3,
            n_threads: 0,
            strategy: FitStrategy::Exact,
        }
    }
}

impl MrDmdConfig {
    /// Decimation step for a window of `w` snapshots.
    pub fn subsample_step(&self, w: usize) -> usize {
        (w / (self.nyquist_factor * 2 * self.max_cycles)).max(1)
    }

    /// Slow-mode cutoff frequency (Hz) for a window of `w` snapshots:
    /// `max_cycles` oscillations per window duration.
    pub fn slow_cutoff_hz(&self, w: usize) -> f64 {
        self.max_cycles as f64 / (w as f64 * self.dt)
    }

    /// Checks every field's domain: positive finite `dt`, at least one
    /// level and one cycle, a nonzero Nyquist factor, a splittable
    /// `min_window`, a positive growth cap, and a valid rank rule.
    pub fn validate(&self) -> Result<(), CoreError> {
        let fail = |what: String| Err(CoreError::InvalidConfig { what });
        if !(self.dt > 0.0 && self.dt.is_finite()) {
            return fail(format!(
                "snapshot spacing dt must be positive and finite, got {}",
                self.dt
            ));
        }
        if self.max_levels < 1 {
            return fail("max_levels must be at least 1".into());
        }
        if self.max_cycles < 1 {
            return fail("max_cycles must be at least 1".into());
        }
        if self.nyquist_factor < 1 {
            return fail("nyquist_factor must be at least 1".into());
        }
        if self.min_window < 2 {
            return fail(format!(
                "min_window must be at least 2 snapshots, got {}",
                self.min_window
            ));
        }
        if self.max_window_growth <= 0.0 || self.max_window_growth.is_nan() {
            return fail(format!(
                "max_window_growth must be positive, got {}",
                self.max_window_growth
            ));
        }
        self.rank.validate()?;
        self.strategy.validate()
    }

    /// Builder-first construction; [`MrDmdConfigBuilder::build`] runs
    /// [`validate`](Self::validate), so a bad value fails at construction
    /// rather than as a panic inside [`MrDmd::fit`].
    pub fn builder() -> MrDmdConfigBuilder {
        MrDmdConfigBuilder {
            cfg: MrDmdConfig::default(),
        }
    }
}

/// Builder for [`MrDmdConfig`]; see [`MrDmdConfig::builder`].
#[derive(Clone, Debug)]
pub struct MrDmdConfigBuilder {
    cfg: MrDmdConfig,
}

impl MrDmdConfigBuilder {
    /// Snapshot spacing in seconds.
    #[must_use]
    pub fn dt(mut self, dt: f64) -> Self {
        self.cfg.dt = dt;
        self
    }

    /// Maximum recursion depth `L` (level 1 = whole timeline).
    #[must_use]
    pub fn max_levels(mut self, max_levels: usize) -> Self {
        self.cfg.max_levels = max_levels;
        self
    }

    /// Modes oscillating at most this many times per window count as slow.
    #[must_use]
    pub fn max_cycles(mut self, max_cycles: usize) -> Self {
        self.cfg.max_cycles = max_cycles;
        self
    }

    /// SVD truncation rule for every per-node DMD.
    #[must_use]
    pub fn rank(mut self, rank: RankSelection) -> Self {
        self.cfg.rank = rank;
        self
    }

    /// Samples kept per window: `nyquist_factor × 2 × max_cycles`.
    #[must_use]
    pub fn nyquist_factor(mut self, nyquist_factor: usize) -> Self {
        self.cfg.nyquist_factor = nyquist_factor;
        self
    }

    /// Windows shorter than this many snapshots are not split further.
    #[must_use]
    pub fn min_window(mut self, min_window: usize) -> Self {
        self.cfg.min_window = min_window;
        self
    }

    /// Cap on in-window amplitude growth.
    #[must_use]
    pub fn max_window_growth(mut self, max_window_growth: f64) -> Self {
        self.cfg.max_window_growth = max_window_growth;
        self
    }

    /// Worker threads (0 = machine-sized, 1 = serial).
    #[must_use]
    pub fn n_threads(mut self, n_threads: usize) -> Self {
        self.cfg.n_threads = n_threads;
        self
    }

    /// How every per-node snapshot SVD is computed.
    #[must_use]
    pub fn fit_strategy(mut self, strategy: FitStrategy) -> Self {
        self.cfg.strategy = strategy;
        self
    }

    /// Validates every field and returns the configuration.
    pub fn build(self) -> Result<MrDmdConfig, CoreError> {
        self.cfg.validate()?;
        Ok(self.cfg)
    }
}

/// The slow modes extracted at one node (level, window) of the mrDMD tree.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ModeSet {
    /// Level in the multiresolution tree (1 = coarsest / whole timeline).
    pub level: usize,
    /// Absolute snapshot index where this node's window starts.
    pub start: usize,
    /// Window length in snapshots.
    pub window: usize,
    /// Decimation step used for the fit.
    pub step: usize,
    /// First global sensor row this node's modes cover. Nodes fitted on the
    /// original stream use 0; nodes fitted for sensors added later via
    /// [`IMrDmd::add_series`](crate::imrdmd::IMrDmd::add_series) cover only
    /// the appended rows.
    pub row_offset: usize,
    /// Slow DMD modes (`rows × k`, covering global sensor rows
    /// `row_offset..row_offset + rows`).
    pub modes: CMat,
    /// Discrete eigenvalues of the retained modes (at the decimated spacing).
    pub lambdas: Vec<c64>,
    /// Continuous eigenvalues ψ (per second; valid at any time resolution).
    pub omegas: Vec<c64>,
    /// Mode amplitudes fitted at the window start.
    pub amplitudes: Vec<c64>,
}

impl ModeSet {
    /// Number of retained slow modes.
    pub fn n_modes(&self) -> usize {
        self.lambdas.len()
    }

    /// Oscillation frequencies in Hz (Eq. 9).
    pub fn frequencies(&self) -> Vec<f64> {
        self.omegas
            .iter()
            .map(|w| w.im.abs() / (2.0 * std::f64::consts::PI))
            .collect()
    }

    /// Mode powers `‖φ‖₂²` (Eq. 10).
    pub fn powers(&self) -> Vec<f64> {
        (0..self.modes.cols())
            .map(|j| self.modes.col_norm_sqr(j))
            .collect()
    }

    /// The node one DMD fit contributes to the tree: the modes oscillating
    /// at most `max_cycles` times per window (Sec. III-A), in fit order,
    /// each growth rate clamped so its envelope gains at most
    /// `max_window_growth` over the window.
    pub(crate) fn slow(
        dmd: &Dmd,
        cfg: &MrDmdConfig,
        level: usize,
        start: usize,
        window: usize,
        step: usize,
        row_offset: usize,
    ) -> ModeSet {
        let cutoff = cfg.slow_cutoff_hz(window);
        let freqs = dmd.frequencies();
        let keep: Vec<usize> = (0..freqs.len()).filter(|&i| freqs[i] <= cutoff).collect();
        let window_secs = window as f64 * cfg.dt;
        let clamp = window_secs > 0.0 && cfg.max_window_growth.is_finite();
        let max_re = cfg.max_window_growth.ln() / window_secs;
        ModeSet {
            level,
            start,
            window,
            step,
            row_offset,
            modes: dmd.modes.select_cols(&keep),
            lambdas: keep.iter().map(|&i| dmd.lambdas[i]).collect(),
            omegas: keep
                .iter()
                .map(|&i| {
                    let w = dmd.omegas[i];
                    if clamp && w.re > max_re {
                        c64::new(max_re, w.im)
                    } else {
                        w
                    }
                })
                .collect(),
            amplitudes: keep.iter().map(|&i| dmd.amplitudes[i]).collect(),
        }
    }

    /// Eq. 6 for this node — the one evaluator behind reconstruction
    /// (Eq. 7), the residual step of the recursion (Eq. 8), forecasting and
    /// the drift scan. Output column `c` of `cols` is the snapshot `abs(c)`,
    /// evaluated at `t = (abs(c) − start)·dt`; the call adds
    /// `sign · Re Σⱼ φᵢⱼ·e^{ωⱼ·t}·bⱼ` to column `c` of every row of `out` the
    /// node covers. Row 0 of `out` is global sensor row `row0`.
    ///
    /// Nothing is clipped to the node's window: each caller chooses its
    /// snapshots (a forecast extrapolates past the window on purpose). See
    /// [`eval_tiles`](Self::eval_tiles) for the operation order.
    pub(crate) fn eval_into(
        &self,
        cols: Range<usize>,
        abs: impl Fn(usize) -> usize,
        dt: f64,
        sign: f64,
        row0: usize,
        out: &mut Mat,
    ) {
        let (rows, stride) = (row0..row0 + out.rows(), out.cols());
        let out = out.as_mut_slice();
        self.eval_tiles(cols, abs, dt, sign, rows, |row, col, vals| {
            let at = (row - row0) * stride + col;
            for (o, &v) in out[at..at + vals.len()].iter_mut().zip(vals) {
                *o += v;
            }
        });
    }

    /// The Eq. 6 kernel under [`eval_into`](Self::eval_into), one tile of at
    /// most [`COL_TILE`] consecutive output columns at a time. Per tile it
    /// builds the weights `e^{ω·t}·b` once, as split re/im arrays. Then, for
    /// each global row in `rows` the node covers, it accumulates
    /// `acc + φ.re·w.re − φ.im·w.im` from `acc = 0` over the modes in order
    /// across the tile's columns (the real part of `c64::mul_add`, which
    /// never reads the imaginary part), and hands `sign · acc` to
    /// `add(row, first column, values)`.
    ///
    /// Every element's value is therefore the same sum, in the same order,
    /// however the columns are tiled or the output split between workers:
    /// evaluating the nodes in a fixed order gives the same bits.
    pub(crate) fn eval_tiles(
        &self,
        cols: Range<usize>,
        abs: impl Fn(usize) -> usize,
        dt: f64,
        sign: f64,
        rows: Range<usize>,
        mut add: impl FnMut(usize, usize, &[f64]),
    ) {
        // Node-local rows whose global row (`row_offset + i`) is in `rows`.
        let i0 = rows.start.saturating_sub(self.row_offset);
        let i1 = self
            .modes
            .rows()
            .min(rows.end.saturating_sub(self.row_offset));
        let k = self.n_modes();
        if k == 0 || i0 >= i1 || cols.is_empty() {
            return;
        }
        // Weights in blocks of LANES columns, laid out block-major so one
        // block's weights for every mode are contiguous: `w_re[b·k + j]`
        // holds mode j at the block's columns. A ragged tile is padded to
        // whole blocks; the padding columns are computed and dropped.
        let tile = COL_TILE.min(cols.len().next_multiple_of(LANES));
        let blocks = tile / LANES;
        let mut weights = vec![[0.0; LANES]; 2 * k * blocks];
        let (w_re, w_im) = weights.split_at_mut(k * blocks);
        let mut acc = [0.0; COL_TILE];
        for c0 in cols.clone().step_by(tile) {
            let n = tile.min(cols.end - c0);
            for c in 0..n {
                let t = (abs(c0 + c) as f64 - self.start as f64) * dt;
                let (b, l) = (c / LANES, c % LANES);
                for (j, (&w, &a)) in self.omegas.iter().zip(&self.amplitudes).enumerate() {
                    let v = (w * t).exp() * a;
                    w_re[b * k + j][l] = v.re;
                    w_im[b * k + j][l] = v.im;
                }
            }
            let nb = n.div_ceil(LANES);
            for i in i0..i1 {
                row_blocks(self.modes.row(i), w_re, w_im, nb, sign, &mut acc);
                add(self.row_offset + i, c0, &acc[..n]);
            }
        }
    }

    /// A copy keeping only the modes admitted by `filter` — the paper's
    /// "selecting only high-power DMD modes from the mrDMD power spectrum"
    /// (Sec. V) and its frequency-band restriction.
    pub fn filtered(&self, filter: &crate::spectrum::BandFilter) -> ModeSet {
        let keep = filter.select_modes(self);
        ModeSet {
            modes: self.modes.select_cols(&keep),
            lambdas: keep.iter().map(|&i| self.lambdas[i]).collect(),
            omegas: keep.iter().map(|&i| self.omegas[i]).collect(),
            amplitudes: keep.iter().map(|&i| self.amplitudes[i]).collect(),
            ..self.clone()
        }
    }

    /// Frequency (Hz) of this node's highest-power mode, if any.
    pub fn dominant_frequency(&self) -> Option<f64> {
        let powers = self.powers();
        let freqs = self.frequencies();
        powers
            .iter()
            .zip(&freqs)
            .max_by(|a, b| a.0.total_cmp(b.0))
            .map(|(_, &f)| f)
    }

    /// Total mode power of this node.
    pub fn total_power(&self) -> f64 {
        self.powers().iter().sum()
    }
}

/// One row of [`ModeSet::eval_tiles`]: for the first `nb` blocks of
/// [`LANES`] columns, `acc = sign · Σⱼ (φⱼ.re·w_re − φⱼ.im·w_im)` with
/// the modes in order, each block's sums held in registers. Runs the AVX2
/// build of the loop on CPUs that have AVX2 (the check is a cached load).
fn row_blocks(
    phi: &[c64],
    w_re: &[[f64; LANES]],
    w_im: &[[f64; LANES]],
    nb: usize,
    sign: f64,
    acc: &mut [f64; COL_TILE],
) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: the CPU reports AVX2, the one feature the callee enables.
        return unsafe { row_blocks_avx2(phi, w_re, w_im, nb, sign, acc) };
    }
    row_blocks_portable(phi, w_re, w_im, nb, sign, acc)
}

/// The portable build of [`row_blocks`].
#[inline(always)]
fn row_blocks_portable(
    phi: &[c64],
    w_re: &[[f64; LANES]],
    w_im: &[[f64; LANES]],
    nb: usize,
    sign: f64,
    acc: &mut [f64; COL_TILE],
) {
    let k = phi.len();
    let blocks = w_re.chunks_exact(k).zip(w_im.chunks_exact(k));
    for ((re, im), out) in blocks.zip(acc.chunks_exact_mut(LANES)).take(nb) {
        let mut a = [0.0; LANES];
        for ((p, wr), wi) in phi.iter().zip(re).zip(im) {
            for l in 0..LANES {
                a[l] = a[l] + p.re * wr[l] - p.im * wi[l];
            }
        }
        for l in 0..LANES {
            out[l] = sign * a[l];
        }
    }
}

/// [`row_blocks_portable`] compiled for AVX2. Only AVX2 is enabled, not
/// FMA, and Rust never fuses a multiply and an add on its own, so every
/// lane does the portable build's mul/add sequence and gives its bits.
///
/// # Safety
/// Callable only on a CPU that supports AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn row_blocks_avx2(
    phi: &[c64],
    w_re: &[[f64; LANES]],
    w_im: &[[f64; LANES]],
    nb: usize,
    sign: f64,
    acc: &mut [f64; COL_TILE],
) {
    row_blocks_portable(phi, w_re, w_im, nb, sign, acc)
}

/// A fitted multiresolution DMD: the flattened tree of per-node mode sets.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct MrDmd {
    /// Configuration used for the fit.
    pub config: MrDmdConfig,
    /// All nodes, in depth-first order (root first).
    pub nodes: Vec<ModeSet>,
    /// Number of time series (sensors).
    pub n_rows: usize,
    /// Total snapshots covered.
    pub n_steps: usize,
    /// Node fits that failed numerically; the corresponding windows carry no
    /// modes at that level but the rest of the tree is intact.
    pub faults: Vec<FitFault>,
}

impl MrDmd {
    /// Fits the full multiresolution decomposition to `data` (`P × T`).
    ///
    /// A node whose solver fails after its escalation ladder is recorded in
    /// [`faults`](Self::faults) and skipped — the recursion continues into
    /// its halves, so one pathological window degrades locally instead of
    /// aborting the whole fit.
    pub fn fit(data: &Mat, config: &MrDmdConfig) -> MrDmd {
        match Self::try_fit(data, config) {
            Ok(m) => m,
            // Preserved legacy contract: the infallible entry point aborts on
            // an out-of-domain configuration, as its asserts used to.
            #[allow(clippy::panic)]
            Err(e) => panic!("mrDMD fit failed: {e}"),
        }
    }

    /// Fallible twin of [`fit`](Self::fit): configuration problems surface
    /// as [`CoreError::InvalidConfig`] instead of a panic. Per-node solver
    /// failures are still degradations recorded in [`faults`](Self::faults),
    /// never errors — one pathological window must not abort the fit.
    pub fn try_fit(data: &Mat, config: &MrDmdConfig) -> Result<MrDmd, CoreError> {
        config.validate()?;
        let mut nodes = Vec::new();
        let mut faults = Vec::new();
        let mut work = data.clone();
        let t = work.cols();
        let pool = WorkerPool::new(config.n_threads);
        fit_tree(
            &mut work,
            0,
            t,
            0,
            0,
            config,
            1,
            config.max_levels,
            &pool,
            &mut nodes,
            &mut faults,
        );
        Ok(MrDmd {
            config: *config,
            nodes,
            n_rows: data.rows(),
            n_steps: data.cols(),
            faults,
        })
    }

    /// Total number of modes across all nodes.
    pub fn n_modes(&self) -> usize {
        self.nodes.iter().map(ModeSet::n_modes).sum()
    }

    /// Deepest level materialised.
    pub fn depth(&self) -> usize {
        self.nodes.iter().map(|n| n.level).max().unwrap_or(0)
    }

    /// Reconstructs the denoised signal over absolute snapshots
    /// `[t0, t1)` by summing every node's contribution (Eq. 7).
    pub fn reconstruct_range(&self, t0: usize, t1: usize) -> Mat {
        assert!(t0 <= t1 && t1 <= self.n_steps);
        let pool = WorkerPool::new(self.config.n_threads);
        reconstruct_nodes(
            &self.nodes.iter().collect::<Vec<_>>(),
            self.n_rows,
            t0,
            t1,
            self.config.dt,
            &pool,
        )
    }

    /// Reconstructs the full fitted timeline.
    pub fn reconstruct(&self) -> Mat {
        self.reconstruct_range(0, self.n_steps)
    }

    /// The node at `level` whose window contains absolute snapshot `t`, if
    /// one was materialised.
    pub fn node_at(&self, level: usize, t: usize) -> Option<&ModeSet> {
        self.nodes
            .iter()
            .find(|n| n.level == level && t >= n.start && t < n.start + n.window)
    }

    /// A copy of the tree with every node's modes restricted by `filter`
    /// (band and/or power floor). Reconstruction from the filtered tree is
    /// the paper's extra denoising step.
    pub fn filtered(&self, filter: &crate::spectrum::BandFilter) -> MrDmd {
        MrDmd {
            config: self.config,
            nodes: self.nodes.iter().map(|n| n.filtered(filter)).collect(),
            n_rows: self.n_rows,
            n_steps: self.n_steps,
            faults: self.faults.clone(),
        }
    }

    /// A terse per-level summary of the tree (windows, modes, power) — handy
    /// for logs and REPL inspection.
    pub fn tree_summary(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for lvl in 1..=self.depth() {
            let nodes: Vec<&ModeSet> = self.nodes.iter().filter(|n| n.level == lvl).collect();
            let modes: usize = nodes.iter().map(|n| n.n_modes()).sum();
            let power: f64 = nodes.iter().map(|n| n.total_power()).sum();
            let _ = writeln!(
                out,
                "level {lvl}: {} node(s), {} mode(s), total power {power:.3e}",
                nodes.len(),
                modes
            );
        }
        out
    }
}

/// Sums every node's contribution over absolute snapshots `[t0, t1)` into a
/// fresh `n_rows × (t1 − t0)` matrix, fanning the output's column tiles
/// across `pool`. A task owns the row segments of one tile of whole
/// [`COL_TILE`]s, at least `PAR_TREE_MIN_ELEMS` elements, and walks the
/// nodes in the given order, so each (node, column) weight is built once
/// and every element sees exactly the serial pass's additions in the
/// serial order — the result is bitwise-identical at any thread count (the
/// tile width is fixed, not derived from the pool).
pub(crate) fn reconstruct_nodes(
    nodes: &[&ModeSet],
    n_rows: usize,
    t0: usize,
    t1: usize,
    dt: f64,
    pool: &WorkerPool,
) -> Mat {
    let width = t1 - t0;
    let mut out = Mat::zeros(n_rows, width);
    if width == 0 || n_rows == 0 {
        return out;
    }
    let tile_cols = (PAR_TREE_MIN_ELEMS / n_rows).div_ceil(COL_TILE).max(1) * COL_TILE;
    let mut tiles: Vec<(usize, Vec<&mut [f64]>)> = (0..width.div_ceil(tile_cols))
        .map(|t| (t * tile_cols, Vec::with_capacity(n_rows)))
        .collect();
    for row in out.as_mut_slice().chunks_mut(width) {
        for ((_, segs), seg) in tiles.iter_mut().zip(row.chunks_mut(tile_cols)) {
            segs.push(seg);
        }
    }
    pool.for_each(&mut tiles, &|(c0, segs)| {
        let c0 = *c0;
        let (lo, hi) = (t0 + c0, t0 + c0 + segs[0].len());
        for node in nodes {
            let (a, b) = (node.start.max(lo), (node.start + node.window).min(hi));
            if a >= b {
                continue;
            }
            node.eval_tiles(
                a - t0..b - t0,
                |c| t0 + c,
                dt,
                1.0,
                0..n_rows,
                |row, col, vals| {
                    let seg = &mut segs[row][col - c0..col - c0 + vals.len()];
                    for (o, &v) in seg.iter_mut().zip(vals) {
                        *o += v;
                    }
                },
            );
        }
    });
    out
}

/// Fits the subtree over columns `[lo, hi)` of the shared residual buffer
/// `work` (whose column 0 holds absolute snapshot `buf_abs0`), pushing nodes
/// into `nodes`. Residual subtraction happens in place — the recursion never
/// copies the window on the serial path, which keeps the memory traffic at
/// `O(P·T)` per level; a forked right half works on its own copy (see
/// [`fit_halves`]).
///
/// Shared by the batch fit (level 1 over the whole buffer) and the
/// incremental update (level 2 over the new batch at offset `T`).
#[allow(clippy::too_many_arguments)] // internal recursion; the tuple of ranges is clearest flat
pub(crate) fn fit_tree(
    work: &mut Mat,
    lo: usize,
    hi: usize,
    buf_abs0: usize,
    row_offset: usize,
    cfg: &MrDmdConfig,
    level: usize,
    max_levels: usize,
    pool: &WorkerPool,
    nodes: &mut Vec<ModeSet>,
    faults: &mut Vec<FitFault>,
) {
    let w = hi.saturating_sub(lo);
    if w < 2 || work.rows() == 0 {
        return;
    }
    let start_abs = buf_abs0 + lo;
    let step = cfg.subsample_step(w);
    let sub = work.subsample_cols_range(lo, hi, step);
    if sub.cols() >= 2 {
        // Salt from the node's absolute position (level, start, width):
        // independent of traversal order and thread count, unique per node.
        let salt = ((level as u64) << 48) ^ ((start_abs as u64) << 16) ^ w as u64;
        let dmd_cfg = DmdConfig {
            dt: cfg.dt * step as f64,
            rank: cfg.rank,
            strategy: cfg.strategy.for_node(salt),
        };
        match Dmd::try_fit(&sub, &dmd_cfg) {
            Ok(dmd) => {
                let node = ModeSet::slow(&dmd, cfg, level, start_abs, w, step, row_offset);
                if node.n_modes() > 0 {
                    // Subtract the slow reconstruction at full resolution
                    // before recursing (Eq. 8, second term) — in place on
                    // the shared buffer.
                    let abs = |c| buf_abs0 + c;
                    node.eval_into(lo..hi, abs, cfg.dt, -1.0, row_offset, work);
                    nodes.push(node);
                }
            }
            Err(e) => {
                // Degrade, don't die: record the fault, leave the residual
                // untouched (nothing was explained at this level) and keep
                // recursing — the halves see shorter, better-conditioned
                // windows and often still converge.
                faults.push(FitFault {
                    level,
                    start: start_abs,
                    window: w,
                    row_offset,
                    at_step: 0, // stamped by the streaming layer
                    cause: e.to_string(),
                });
            }
        }
    }
    fit_halves(
        work, lo, hi, buf_abs0, row_offset, cfg, level, max_levels, pool, nodes, faults,
    );
}

/// Recurses on the two halves of `[lo, hi)` at `parent_level + 1`, forking
/// the right half onto another worker when the pool has a permit and the
/// half is big enough to amortise the spawn.
///
/// The forked branch gets a *copy* of its columns (the only sound way to
/// hand two threads disjoint halves of one allocation without `unsafe`
/// views). This is safe because no caller ever reads the residual buffer
/// after its subtree is fitted — the buffer exists only to carry residuals
/// *down* the recursion. Left-half nodes land in `nodes` directly; the
/// forked right half collects into a private vector appended afterwards, so
/// the depth-first node order — and, since the copied columns hold the same
/// values the in-place path would see, every fitted mode — is
/// bitwise-identical to the serial recursion.
#[allow(clippy::too_many_arguments)]
pub(crate) fn fit_halves(
    work: &mut Mat,
    lo: usize,
    hi: usize,
    buf_abs0: usize,
    row_offset: usize,
    cfg: &MrDmdConfig,
    parent_level: usize,
    max_levels: usize,
    pool: &WorkerPool,
    nodes: &mut Vec<ModeSet>,
    faults: &mut Vec<FitFault>,
) {
    let w = hi.saturating_sub(lo);
    if parent_level >= max_levels || w / 2 < cfg.min_window {
        return;
    }
    let mid = lo + w / 2;
    let level = parent_level + 1;
    if work.rows() * (hi - mid) >= PAR_TREE_MIN_ELEMS {
        if let Some(fork) = pool.try_fork() {
            let mut right_buf = work.cols_range(mid, hi);
            let right_w = hi - mid;
            let mut right_nodes = Vec::new();
            // Faults mirror the node pattern: the forked branch collects into
            // a private vector appended after the join, so the fault order is
            // bitwise-identical to the serial recursion at any thread count.
            let mut right_faults = Vec::new();
            let left = &mut *work;
            let left_nodes = &mut *nodes;
            let left_faults = &mut *faults;
            fork.join(
                || {
                    fit_tree(
                        left,
                        lo,
                        mid,
                        buf_abs0,
                        row_offset,
                        cfg,
                        level,
                        max_levels,
                        pool,
                        left_nodes,
                        left_faults,
                    )
                },
                || {
                    fit_tree(
                        &mut right_buf,
                        0,
                        right_w,
                        buf_abs0 + mid,
                        row_offset,
                        cfg,
                        level,
                        max_levels,
                        pool,
                        &mut right_nodes,
                        &mut right_faults,
                    )
                },
            );
            nodes.append(&mut right_nodes);
            faults.append(&mut right_faults);
            return;
        }
    }
    fit_tree(
        work, lo, mid, buf_abs0, row_offset, cfg, level, max_levels, pool, nodes, faults,
    );
    fit_tree(
        work, mid, hi, buf_abs0, row_offset, cfg, level, max_levels, pool, nodes, faults,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    const TAU: f64 = std::f64::consts::TAU;

    /// Multiscale signal: slow global traveling wave + fast traveling wave
    /// present only in the second half + high-frequency ripple. Traveling
    /// waves keep each frequency linearly representable (rank-2 subspace).
    fn multiscale_data(p: usize, t: usize, dt: f64) -> Mat {
        Mat::from_fn(p, t, |i, j| {
            let x = i as f64 / p as f64;
            let tt = j as f64 * dt;
            // 0.1 Hz is slow for windows of ≤ 32 snapshots at dt = 0.5
            // (cutoff = 2/(32·0.5) = 0.125 Hz), so a 5-level tree over 512
            // snapshots can capture the burst.
            let slow = (TAU * 0.02 * tt + 2.0 * x).sin();
            let fast = if j >= t / 2 {
                0.6 * (TAU * 0.1 * tt + 5.0 * x).sin()
            } else {
                0.0
            };
            let ripple = 0.02 * (TAU * 20.0 * tt + 11.0 * x).sin();
            slow + fast + ripple
        })
    }

    fn cfg(dt: f64, levels: usize) -> MrDmdConfig {
        MrDmdConfig {
            dt,
            max_levels: levels,
            max_cycles: 2,
            rank: RankSelection::Fixed(6),
            nyquist_factor: 4,
            min_window: 16,
            max_window_growth: 1e3,
            n_threads: 0,
            strategy: FitStrategy::Exact,
        }
    }

    #[test]
    fn tree_structure_covers_timeline() {
        let dt = 0.5;
        let data = multiscale_data(12, 512, dt);
        let m = MrDmd::fit(&data, &cfg(dt, 4));
        assert!(m.depth() >= 3);
        // Every level's windows must tile [0, T) without overlap.
        for lvl in 1..=m.depth() {
            let mut spans: Vec<(usize, usize)> = m
                .nodes
                .iter()
                .filter(|n| n.level == lvl)
                .map(|n| (n.start, n.start + n.window))
                .collect();
            spans.sort();
            for w in spans.windows(2) {
                assert!(w[0].1 <= w[1].0, "overlap at level {lvl}: {spans:?}");
            }
        }
    }

    #[test]
    fn reconstruction_tracks_signal() {
        let dt = 0.5;
        let data = multiscale_data(10, 512, dt);
        let m = MrDmd::fit(&data, &cfg(dt, 5));
        let rec = m.reconstruct();
        let rel = rec.fro_dist(&data) / data.fro_norm();
        assert!(rel < 0.35, "relative reconstruction error {rel}");
    }

    #[test]
    fn deeper_trees_reduce_error() {
        let dt = 0.5;
        let data = multiscale_data(10, 512, dt);
        let shallow = MrDmd::fit(&data, &cfg(dt, 2));
        let deep = MrDmd::fit(&data, &cfg(dt, 5));
        let e_shallow = shallow.reconstruct().fro_dist(&data);
        let e_deep = deep.reconstruct().fro_dist(&data);
        assert!(
            e_deep <= e_shallow * 1.05,
            "deep {e_deep} should not exceed shallow {e_shallow}"
        );
    }

    #[test]
    fn root_captures_slowest_frequency() {
        let dt = 0.5;
        let data = multiscale_data(10, 512, dt);
        let m = MrDmd::fit(&data, &cfg(dt, 4));
        let root = &m.nodes[0];
        assert_eq!(root.level, 1);
        assert_eq!(root.start, 0);
        assert_eq!(root.window, 512);
        let cutoff = m.config.slow_cutoff_hz(512);
        for f in root.frequencies() {
            assert!(
                f <= cutoff + 1e-12,
                "root mode at {f} Hz above cutoff {cutoff}"
            );
        }
    }

    #[test]
    fn fast_transient_lands_in_deeper_levels() {
        let dt = 0.5;
        let data = multiscale_data(10, 512, dt);
        let m = MrDmd::fit(&data, &cfg(dt, 5));
        // The 1.5 Hz burst can only be "slow" for windows short enough that
        // 1.5 Hz ≤ max_cycles/(w·dt): w ≤ 2/(1.5·0.5) ≈ 2.7 snapshots — so it
        // appears via its aliased/fitted dynamics in levels > 1. Check that
        // deeper levels collectively hold more high-frequency content.
        let hf_power_deep: f64 = m
            .nodes
            .iter()
            .filter(|n| n.level >= 3)
            .flat_map(|n| n.frequencies().into_iter().zip(n.powers()))
            .filter(|(f, _)| *f > 0.01)
            .map(|(_, p)| p)
            .sum();
        let hf_power_root: f64 = m.nodes[0]
            .frequencies()
            .into_iter()
            .zip(m.nodes[0].powers())
            .filter(|(f, _)| *f > 0.01)
            .map(|(_, p)| p)
            .sum();
        assert!(hf_power_deep > hf_power_root);
    }

    #[test]
    fn subsample_step_respects_nyquist_times_four() {
        let c = cfg(1.0, 4);
        // 4×Nyquist of max_cycles=2 per window → 16 samples per window.
        assert_eq!(c.subsample_step(1600), 100);
        assert_eq!(c.subsample_step(16), 1);
        assert_eq!(c.subsample_step(5), 1);
    }

    #[test]
    fn max_levels_one_is_plain_slow_dmd() {
        let dt = 0.5;
        let data = multiscale_data(8, 256, dt);
        let m = MrDmd::fit(&data, &cfg(dt, 1));
        assert!(m.nodes.len() <= 1);
        assert!(m.depth() <= 1);
    }

    #[test]
    fn reconstruct_range_matches_full_slice() {
        let dt = 0.5;
        let data = multiscale_data(8, 256, dt);
        let m = MrDmd::fit(&data, &cfg(dt, 4));
        let full = m.reconstruct();
        let part = m.reconstruct_range(100, 200);
        assert!(part.fro_dist(&full.cols_range(100, 200)) < 1e-10);
    }

    #[test]
    fn power_filtering_denoises_without_losing_the_signal() {
        let dt = 0.5;
        let data = multiscale_data(10, 512, dt);
        let m = MrDmd::fit(&data, &cfg(dt, 5));
        let pts = crate::spectrum::mode_spectrum(&m.nodes);
        // Keep only modes above 1% of the peak power.
        let peak = pts.iter().map(|p| p.power).fold(0.0f64, f64::max);
        let strong = m.filtered(&crate::spectrum::BandFilter {
            f_lo: 0.0,
            f_hi: f64::INFINITY,
            min_power: 0.01 * peak,
        });
        assert!(strong.n_modes() < m.n_modes(), "filter must drop something");
        let e_full = m.reconstruct().fro_dist(&data) / data.fro_norm();
        let e_strong = strong.reconstruct().fro_dist(&data) / data.fro_norm();
        // High-power modes carry the signal: error grows only modestly.
        assert!(
            e_strong < e_full + 0.25,
            "full {e_full} vs strong {e_strong}"
        );
        // An impossible band empties the tree.
        let empty = m.filtered(&crate::spectrum::BandFilter::band(1e6, 2e6));
        assert_eq!(empty.n_modes(), 0);
        assert_eq!(empty.reconstruct().fro_norm(), 0.0);
    }

    #[test]
    fn node_navigation_and_summary() {
        let dt = 0.5;
        let data = multiscale_data(8, 256, dt);
        let m = MrDmd::fit(&data, &cfg(dt, 4));
        let root = m.node_at(1, 100).expect("root covers everything");
        assert_eq!(root.level, 1);
        assert!(root.dominant_frequency().is_some());
        assert!(root.total_power() > 0.0);
        // Level-2 lookup picks the correct half.
        if let Some(n) = m.node_at(2, 200) {
            assert!(n.start <= 200 && 200 < n.start + n.window);
        }
        // Out-of-tree queries return None.
        assert!(m.node_at(99, 0).is_none());
        let summary = m.tree_summary();
        assert!(summary.contains("level 1:"));
        assert_eq!(summary.lines().count(), m.depth());
    }

    /// The drift scan's strided column map (`abs = k · step`) over several
    /// tiles, the last one ragged, gives each column the bits a one-column
    /// call gives it, on a row block that starts inside the node.
    #[test]
    fn strided_columns_match_per_column_evaluation() {
        let dt = 0.5;
        let data = multiscale_data(10, 512, dt);
        let m = MrDmd::fit(&data, &cfg(dt, 3));
        let node = m.nodes.iter().max_by_key(|n| n.n_modes()).expect("a node");
        assert!(node.n_modes() >= 2);
        let (n, step, row0) = (3 * COL_TILE + 7, 3, 2);
        let abs = |k| node.start + k * step;
        let mut tiled = Mat::zeros(8, n);
        node.eval_into(0..n, abs, dt, -1.0, row0, &mut tiled);
        let mut single = Mat::zeros(8, n);
        for k in 0..n {
            node.eval_into(k..k + 1, abs, dt, -1.0, row0, &mut single);
        }
        assert!(tiled.as_slice().iter().any(|&v| v != 0.0));
        let bits = |m: &Mat| m.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&tiled), bits(&single));
    }

    /// Both builds of the row loop give the same bits, so the suite's
    /// bitwise checks hold on CPUs with and without AVX2.
    #[test]
    fn row_kernel_builds_agree() {
        let k = 5;
        let phi: Vec<c64> = (0..k)
            .map(|j| c64::new((j as f64 * 1.3).sin(), (j as f64 * 0.7).cos() * 1e-3))
            .collect();
        let w = |seed: f64| -> Vec<[f64; LANES]> {
            (0..k * COL_TILE / LANES)
                .map(|b| std::array::from_fn(|l| ((b * LANES + l) as f64 * seed).sin() * 1e3))
                .collect()
        };
        let (w_re, w_im) = (w(0.37), w(0.91));
        let (mut portable, mut dispatched) = ([0.0; COL_TILE], [0.0; COL_TILE]);
        let nb = COL_TILE / LANES;
        row_blocks_portable(&phi, &w_re, &w_im, nb, -1.0, &mut portable);
        row_blocks(&phi, &w_re, &w_im, nb, -1.0, &mut dispatched);
        assert!(portable.iter().all(|v| v.is_finite() && *v != 0.0));
        assert_eq!(portable.map(f64::to_bits), dispatched.map(f64::to_bits));
    }

    #[test]
    fn constant_signal_is_captured_at_root() {
        let data = Mat::from_fn(6, 128, |i, _| i as f64 + 1.0);
        let m = MrDmd::fit(&data, &cfg(1.0, 3));
        let rec = m.reconstruct();
        assert!(rec.fro_dist(&data) / data.fro_norm() < 1e-6);
    }
}
