//! Exact Dynamic Mode Decomposition (Tu et al. 2014), the per-node solver of
//! the multiresolution recursion.
//!
//! Given snapshots `D ∈ ℝ^{P×T}` sampled every `Δt`, form the shifted pair
//! `X = D[:, :T−1]`, `Y = D[:, 1:]` and approximate the best-fit linear
//! operator `A = Y·X⁺` without ever materialising it (Sec. III-A, Eqs. 1–5):
//! SVD-project to rank `r`, eigendecompose the small `Ã = UᵀYVΣ⁻¹`, and lift
//! the eigenvectors back as exact DMD modes `Φ = YVΣ⁻¹W`.

use crate::error::CoreError;
use hpc_linalg::{
    c64, lstsq_complex, svd_sketched, svd_truncated, svht_rank, try_eig_real, try_lstsq_complex,
    CMat, EigStats, Mat, Svd,
};
use serde::{Deserialize, Serialize};

/// How to pick the SVD truncation rank of the snapshot matrix.
#[derive(Clone, Copy, Debug, PartialEq, Serialize)]
pub enum RankSelection {
    /// Gavish–Donoho optimal singular value hard threshold (the paper's
    /// `do_svht=True` setting).
    Svht,
    /// Fixed rank cap.
    Fixed(usize),
    /// Keep the smallest rank capturing this fraction of squared spectral
    /// energy (0 < fraction ≤ 1).
    Energy(f64),
}

impl RankSelection {
    /// Checks the selection's parameter domain: an [`Energy`] fraction must
    /// lie in `(0, 1]` (NaN is rejected).
    ///
    /// [`Energy`]: RankSelection::Energy
    pub fn validate(&self) -> Result<(), CoreError> {
        if let RankSelection::Energy(frac) = *self {
            let in_domain = frac > 0.0 && frac <= 1.0;
            if !in_domain {
                return Err(CoreError::InvalidConfig {
                    what: format!("energy fraction must be in (0, 1], got {frac}"),
                });
            }
        }
        Ok(())
    }

    /// Resolves the retained rank for singular values `s` of a `rows × cols`
    /// matrix. Total on all inputs: an out-of-domain
    /// [`Energy`](RankSelection::Energy) fraction
    /// (rejected by [`validate`](Self::validate) on every fallible
    /// construction path) falls back to keeping the full spectrum rather
    /// than panicking mid-stream.
    pub fn resolve(&self, s: &[f64], rows: usize, cols: usize) -> usize {
        match *self {
            RankSelection::Svht => svht_rank(s, rows, cols),
            RankSelection::Fixed(r) => r.min(s.len()),
            RankSelection::Energy(frac) => {
                let in_domain = frac > 0.0 && frac <= 1.0;
                let frac = if in_domain { frac } else { 1.0 };
                let total: f64 = s.iter().map(|&x| x * x).sum();
                if total == 0.0 {
                    return 0;
                }
                let mut acc = 0.0;
                for (k, &x) in s.iter().enumerate() {
                    acc += x * x;
                    if acc >= frac * total {
                        return k + 1;
                    }
                }
                s.len()
            }
        }
    }
}

// Manual impl (the derive cannot attach validation): mirrors the derive's
// wire format — unit variant as its name string, payload variants as a
// single-key map — and rejects out-of-domain `Energy` fractions at the
// boundary, so a checkpoint edited by hand cannot smuggle a panic into
// `resolve`.
impl<'de> serde::de::Deserialize<'de> for RankSelection {
    fn deserialize<D: serde::de::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        use serde::de::Error as _;
        let sel = match deserializer.take_content()? {
            serde::Content::Str(s) if s == "Svht" => RankSelection::Svht,
            serde::Content::Map(mut m) if m.len() == 1 => {
                let (key, payload) = m.remove(0);
                match key.as_str() {
                    "Fixed" => {
                        RankSelection::Fixed(serde::from_content::<usize, D::Error>(payload)?)
                    }
                    "Energy" => {
                        RankSelection::Energy(serde::from_content::<f64, D::Error>(payload)?)
                    }
                    other => {
                        return Err(D::Error::custom(format!(
                            "unknown variant `{other}` of RankSelection"
                        )))
                    }
                }
            }
            other => {
                return Err(D::Error::custom(format!(
                    "expected a RankSelection variant, found {other:?}"
                )))
            }
        };
        sel.validate().map_err(D::Error::custom)?;
        Ok(sel)
    }
}

/// How the snapshot SVD underlying a fit is computed.
///
/// `Exact` routes through the historical one-sided Jacobi path and is
/// bitwise-identical to the solver before this enum existed. `Sketched`
/// replaces the dense SVD with a seeded randomized range-finder
/// ([`hpc_linalg::svd_sketched`] for one-shot fits,
/// [`hpc_linalg::SketchSvd`] for streams, where the probed basis is reused
/// and incrementally refreshed across `partial_fit` rounds instead of
/// re-drawn per fit) — see DESIGN.md "Fit strategies" for when it pays off
/// and the accuracy budget it is tested against.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize)]
pub enum FitStrategy {
    /// Exact truncated SVD (one-sided Jacobi) — the historical default.
    #[default]
    Exact,
    /// Seeded randomized range-finder sketch (Halko et al.; Erichson et
    /// al.'s randomized DMD).
    Sketched {
        /// Extra probe columns beyond the retained rank (Halko's `p`;
        /// 5–10 is standard — must be in `1..=64`).
        rank_oversample: usize,
        /// Subspace (power) iterations sharpening the probe against slow
        /// spectral decay (must be `≤ 8`; 1–2 is standard).
        power_iters: usize,
        /// Probe seed: fits are deterministic for a fixed seed at any
        /// thread count. Derived per-node via [`FitStrategy::for_node`].
        seed: u64,
    },
}

impl FitStrategy {
    /// Checks the variant's parameter domain: a `Sketched` oversample must
    /// lie in `1..=64` and `power_iters` in `0..=8`.
    pub fn validate(&self) -> Result<(), CoreError> {
        if let FitStrategy::Sketched {
            rank_oversample,
            power_iters,
            ..
        } = *self
        {
            if rank_oversample == 0 || rank_oversample > 64 {
                return Err(CoreError::InvalidConfig {
                    what: format!(
                        "sketch rank_oversample must be in 1..=64, got {rank_oversample}"
                    ),
                });
            }
            if power_iters > 8 {
                return Err(CoreError::InvalidConfig {
                    what: format!("sketch power_iters must be at most 8, got {power_iters}"),
                });
            }
        }
        Ok(())
    }

    /// Derives the strategy for one tree node: `Sketched` seeds are mixed
    /// with a position-derived salt (splitmix64 finalizer) so sibling nodes
    /// draw decorrelated probes, while staying independent of thread count
    /// and traversal order. `Exact` is returned unchanged.
    #[must_use]
    pub fn for_node(self, salt: u64) -> FitStrategy {
        match self {
            FitStrategy::Exact => FitStrategy::Exact,
            FitStrategy::Sketched {
                rank_oversample,
                power_iters,
                seed,
            } => FitStrategy::Sketched {
                rank_oversample,
                power_iters,
                seed: mix_seed(seed, salt),
            },
        }
    }
}

/// splitmix64 finalizer over `seed ⊕ golden·salt`: cheap, stateless, and
/// avalanching, so adjacent window positions land on unrelated probes.
fn mix_seed(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

// Manual impl for two reasons (mirroring `RankSelection`): the derive
// cannot attach validation, and a checkpoint written before this field
// existed deserializes its absence (`Null`) as the historical `Exact`
// behaviour instead of erroring.
impl<'de> serde::de::Deserialize<'de> for FitStrategy {
    fn deserialize<D: serde::de::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        use serde::de::Error as _;
        #[derive(Deserialize)]
        struct SketchedPayload {
            rank_oversample: usize,
            power_iters: usize,
            seed: u64,
        }
        let strat = match deserializer.take_content()? {
            // Absent field in a pre-strategy checkpoint.
            serde::Content::Null => FitStrategy::Exact,
            serde::Content::Str(s) if s == "Exact" => FitStrategy::Exact,
            serde::Content::Map(mut m) if m.len() == 1 => {
                let (key, payload) = m.remove(0);
                match key.as_str() {
                    "Sketched" => {
                        let p = serde::from_content::<SketchedPayload, D::Error>(payload)?;
                        FitStrategy::Sketched {
                            rank_oversample: p.rank_oversample,
                            power_iters: p.power_iters,
                            seed: p.seed,
                        }
                    }
                    other => {
                        return Err(D::Error::custom(format!(
                            "unknown variant `{other}` of FitStrategy"
                        )))
                    }
                }
            }
            other => {
                return Err(D::Error::custom(format!(
                    "expected a FitStrategy variant, found {other:?}"
                )))
            }
        };
        strat.validate().map_err(D::Error::custom)?;
        Ok(strat)
    }
}

/// Default probe rank for a `Sketched` fit under a spectrum-adaptive rank
/// rule (`Svht` / `Energy`): the rule needs a spectrum to threshold, but
/// probing at the full `min(P, T)` would forfeit the sketch's speedup, so
/// the probe is capped here (matching the incremental path's default
/// `isvd_max_rank` headroom). `Fixed(r)` probes at `r` exactly.
pub const SKETCH_DEFAULT_PROBE: usize = 48;

/// Configuration for a single DMD fit.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct DmdConfig {
    /// Time between snapshots, in seconds.
    pub dt: f64,
    /// Truncation rule for the snapshot SVD.
    pub rank: RankSelection,
    /// How the snapshot SVD is computed (absent in old checkpoints ⇒
    /// [`FitStrategy::Exact`]).
    pub strategy: FitStrategy,
}

impl Default for DmdConfig {
    fn default() -> Self {
        DmdConfig {
            dt: 1.0,
            rank: RankSelection::Svht,
            strategy: FitStrategy::Exact,
        }
    }
}

impl DmdConfig {
    /// Checks every field's domain: `dt` must be positive and finite, and
    /// the rank selection must pass [`RankSelection::validate`]. Called by
    /// [`Dmd::try_fit`] / [`Dmd::try_from_svd`] before any numerics run.
    pub fn validate(&self) -> Result<(), CoreError> {
        let dt_ok = self.dt > 0.0 && self.dt.is_finite();
        if !dt_ok {
            return Err(CoreError::InvalidConfig {
                what: format!(
                    "snapshot spacing dt must be positive and finite, got {}",
                    self.dt
                ),
            });
        }
        self.rank.validate()?;
        self.strategy.validate()
    }

    /// Builder-first construction: every field defaults as in
    /// [`DmdConfig::default`], and [`DmdConfigBuilder::build`] runs the full
    /// domain validation, so an invalid configuration is caught at
    /// construction instead of deep inside a fit.
    ///
    /// ```
    /// use imrdmd::dmd::{DmdConfig, RankSelection};
    /// let cfg = DmdConfig::builder()
    ///     .dt(0.01)
    ///     .rank(RankSelection::Fixed(4))
    ///     .build()
    ///     .unwrap();
    /// assert_eq!(cfg.dt, 0.01);
    /// assert!(DmdConfig::builder().dt(-1.0).build().is_err());
    /// ```
    pub fn builder() -> DmdConfigBuilder {
        DmdConfigBuilder {
            cfg: DmdConfig::default(),
        }
    }
}

/// Builder for [`DmdConfig`]; see [`DmdConfig::builder`].
#[derive(Clone, Debug)]
pub struct DmdConfigBuilder {
    cfg: DmdConfig,
}

impl DmdConfigBuilder {
    /// Time between snapshots, in seconds.
    #[must_use]
    pub fn dt(mut self, dt: f64) -> Self {
        self.cfg.dt = dt;
        self
    }

    /// Truncation rule for the snapshot SVD.
    #[must_use]
    pub fn rank(mut self, rank: RankSelection) -> Self {
        self.cfg.rank = rank;
        self
    }

    /// How the snapshot SVD is computed.
    #[must_use]
    pub fn fit_strategy(mut self, strategy: FitStrategy) -> Self {
        self.cfg.strategy = strategy;
        self
    }

    /// Validates every field and returns the configuration.
    pub fn build(self) -> Result<DmdConfig, CoreError> {
        self.cfg.validate()?;
        Ok(self.cfg)
    }
}

/// An exact DMD of a snapshot sequence.
#[derive(Clone, Debug)]
pub struct Dmd {
    /// Exact DMD modes, one per column (`P × r`).
    pub modes: CMat,
    /// Discrete-time eigenvalues λ of the best-fit operator.
    pub lambdas: Vec<c64>,
    /// Continuous-time eigenvalues ψ = ln(λ)/Δt.
    pub omegas: Vec<c64>,
    /// Mode amplitudes fitted to the first snapshot.
    pub amplitudes: Vec<c64>,
    /// Snapshot spacing used for the fit.
    pub dt: f64,
    /// QR-iteration statistics of the reduced-operator eigendecomposition
    /// (zero for rank-0 fits) — surfaced through the health snapshot.
    pub eig_stats: EigStats,
}

impl Dmd {
    /// Fits an exact DMD to the snapshot matrix `data` (`P × T`, `T ≥ 2`).
    ///
    /// ```
    /// use hpc_linalg::Mat;
    /// use imrdmd::dmd::{Dmd, DmdConfig, RankSelection};
    ///
    /// // A 2 Hz traveling wave sampled at 100 Hz.
    /// let dt = 0.01;
    /// let data = Mat::from_fn(16, 300, |i, j| {
    ///     (std::f64::consts::TAU * 2.0 * j as f64 * dt + i as f64 * 0.2).sin()
    /// });
    /// let cfg = DmdConfig { dt, rank: RankSelection::Fixed(2), ..DmdConfig::default() };
    /// let dmd = Dmd::fit(&data, &cfg);
    /// let f = dmd.frequencies();
    /// assert!((f[0] - 2.0).abs() < 0.05);
    /// ```
    pub fn fit(data: &Mat, cfg: &DmdConfig) -> Dmd {
        match Self::try_fit(data, cfg) {
            Ok(d) => d,
            // Preserved legacy contract: the infallible entry point aborts on
            // solver failure, as the eig/lstsq kernels themselves used to.
            #[allow(clippy::panic)]
            Err(e) => panic!("DMD fit failed: {e}"),
        }
    }

    /// Fallible twin of [`fit`](Self::fit): configuration problems surface as
    /// [`CoreError::InvalidConfig`] and solver failures (eigensolver
    /// non-convergence after its escalation ladder, rank-deficient amplitude
    /// fits) as [`CoreError::Numerical`].
    pub fn try_fit(data: &Mat, cfg: &DmdConfig) -> Result<Dmd, CoreError> {
        assert!(data.cols() >= 2, "DMD needs at least two snapshots");
        let t = data.cols();
        let x = data.cols_range(0, t - 1);
        let y = data.cols_range(1, t);
        let svd_x = match cfg.strategy {
            FitStrategy::Exact => {
                // Oversize the probe a little so SVHT has spectrum to
                // threshold.
                let probe = match cfg.rank {
                    RankSelection::Fixed(r) => r,
                    _ => x.rows().min(x.cols()),
                };
                svd_truncated(&x, probe.max(1))
            }
            FitStrategy::Sketched {
                rank_oversample,
                power_iters,
                seed,
            } => {
                // Adaptive rank rules threshold within the sketched
                // spectrum, probed at the bounded default instead of the
                // full min-dimension (see `SKETCH_DEFAULT_PROBE`).
                let probe = match cfg.rank {
                    RankSelection::Fixed(r) => r,
                    _ => SKETCH_DEFAULT_PROBE.min(x.rows().min(x.cols())),
                };
                svd_sketched(&x, probe.max(1), rank_oversample, power_iters, seed)
            }
        };
        Self::try_from_svd(&svd_x, &y, data, cfg)
    }

    /// Fits a DMD reusing a precomputed (possibly incrementally maintained)
    /// SVD of `X`. `y` must be the one-step-shifted snapshots and `data` the
    /// full matrix (used only for the amplitude fit against column 0).
    ///
    /// This is the entry point of the incremental path: the expensive SVD is
    /// inherited, and everything below is `O(P·r² + r³)`.
    pub fn from_svd(svd_x: &Svd, y: &Mat, data: &Mat, cfg: &DmdConfig) -> Dmd {
        match Self::try_from_svd(svd_x, y, data, cfg) {
            Ok(d) => d,
            // Preserved legacy contract, mirroring `fit`.
            #[allow(clippy::panic)]
            Err(e) => panic!("DMD fit failed: {e}"),
        }
    }

    /// Fallible twin of [`from_svd`](Self::from_svd); see
    /// [`try_fit`](Self::try_fit) for the error contract.
    pub fn try_from_svd(
        svd_x: &Svd,
        y: &Mat,
        data: &Mat,
        cfg: &DmdConfig,
    ) -> Result<Dmd, CoreError> {
        Self::try_from_parts(&svd_x.u, &svd_x.s, &svd_x.v, y, data, cfg)
    }

    /// Borrowed-factor form of [`try_from_svd`](Self::try_from_svd): takes
    /// the SVD of `X` as its parts, so an incrementally maintained
    /// factorisation (whose `u`/`s`/`v` live inside the streaming state)
    /// feeds the fit without first being cloned into an owned [`Svd`].
    pub fn try_from_parts(
        u_x: &Mat,
        s_x: &[f64],
        v_x: &Mat,
        y: &Mat,
        data: &Mat,
        cfg: &DmdConfig,
    ) -> Result<Dmd, CoreError> {
        cfg.validate()?;
        let p = y.rows();
        let r = cfg.rank.resolve(s_x, p, v_x.rows());
        // Never exceed the numerical rank of X: directions with negligible
        // singular values carry no dynamics, only amplified noise
        // (`Svd::numerical_rank` at tol 1e-10, inlined for the slice form).
        let s0 = s_x.first().copied().unwrap_or(0.0);
        let num_rank = s_x.iter().take_while(|&&x| x > 1e-10 * s0).count();
        let r = r.min(num_rank);
        if r == 0 {
            return Ok(Dmd {
                modes: CMat::zeros(p, 0),
                lambdas: vec![],
                omegas: vec![],
                amplitudes: vec![],
                dt: cfg.dt,
                eig_stats: EigStats::default(),
            });
        }
        let u = u_x.cols_range(0, r);
        let v = v_x.cols_range(0, r);
        let sinv: Vec<f64> = s_x[..r]
            .iter()
            .map(|&x| if x > 0.0 { 1.0 / x } else { 0.0 })
            .collect();
        // B = Y·V·Σ⁻¹ (P × r): shared by Ã and the exact modes.
        let b = y.matmul(&scale_cols_real(&v, &sinv));
        let a_tilde = u.t_matmul(&b); // r × r
        let eig = try_eig_real(&a_tilde).map_err(|e| CoreError::Numerical {
            context: format!("eigendecomposition of the {r}×{r} reduced operator"),
            source: e,
        })?;
        // Exact modes Φ = B·W.
        let modes = CMat::from_real(&b).matmul(&eig.vectors);
        let lambdas = eig.values;
        let omegas: Vec<c64> = lambdas
            .iter()
            .map(|&l| {
                if l.abs() < 1e-300 {
                    // A zero eigenvalue is a dead mode; park it far in the
                    // left half-plane so exp(ψt) vanishes.
                    c64::new(-1e6, 0.0)
                } else {
                    l.ln() / cfg.dt
                }
            })
            .collect();
        // Amplitudes from the first snapshot: min ‖Φ·a − x₀‖.
        let x0: Vec<c64> = data.col(0).into_iter().map(c64::from_real).collect();
        let amplitudes = if modes.cols() > 0 {
            try_lstsq_complex(&modes, &x0).map_err(|e| CoreError::Numerical {
                context: "mode-amplitude least squares against the first snapshot".to_string(),
                source: e,
            })?
        } else {
            vec![]
        };
        Ok(Dmd {
            modes,
            lambdas,
            omegas,
            amplitudes,
            dt: cfg.dt,
            eig_stats: eig.stats,
        })
    }

    /// Number of retained modes.
    pub fn rank(&self) -> usize {
        self.lambdas.len()
    }

    /// Oscillation frequency of each mode in Hz (Eq. 9): `|Im ψ| / 2π`.
    pub fn frequencies(&self) -> Vec<f64> {
        self.omegas
            .iter()
            .map(|w| w.im.abs() / (2.0 * std::f64::consts::PI))
            .collect()
    }

    /// Mode powers `‖φᵢ‖₂²` (Eq. 10).
    pub fn powers(&self) -> Vec<f64> {
        (0..self.modes.cols())
            .map(|j| self.modes.col_norm_sqr(j))
            .collect()
    }

    /// Growth rates `Re ψ` (positive = growing, negative = decaying).
    pub fn growth_rates(&self) -> Vec<f64> {
        self.omegas.iter().map(|w| w.re).collect()
    }

    /// Reconstructs `n` uniformly spaced snapshots starting at t = 0:
    /// `x(t) = Re Σᵢ φᵢ·exp(ψᵢ t)·aᵢ` (Eq. 6), evaluated by the tree's
    /// node evaluator (`ModeSet::eval_into`).
    pub fn reconstruct(&self, n: usize) -> Mat {
        let node = crate::mrdmd::ModeSet {
            level: 1,
            start: 0,
            window: n,
            step: 1,
            row_offset: 0,
            modes: self.modes.clone(),
            lambdas: self.lambdas.clone(),
            omegas: self.omegas.clone(),
            amplitudes: self.amplitudes.clone(),
        };
        let p = self.modes.rows();
        let mut out = Mat::zeros(p, n);
        node.eval_into(0..n, |k| k, self.dt, 1.0, 0, &mut out);
        out
    }
}

/// Sparsity-promoting amplitude selection (Jovanović, Schmid & Nichols 2014
/// — the paper's ref. \[44\]): re-fits mode amplitudes under an ℓ₁ penalty so
/// that weak modes drop to exactly zero, via ISTA (iterative
/// shrinkage-thresholding) on `min ‖Φa − x₀‖² + γ‖a‖₁`.
///
/// Returns the sparse amplitudes; entries equal to zero mark discarded
/// modes. Larger `gamma` discards more aggressively.
pub fn sparse_amplitudes(modes: &CMat, x0: &[f64], gamma: f64, iters: usize) -> Vec<c64> {
    assert_eq!(modes.rows(), x0.len());
    assert!(gamma >= 0.0);
    let k = modes.cols();
    if k == 0 {
        return vec![];
    }
    let b: Vec<c64> = x0.iter().map(|&v| c64::from_real(v)).collect();
    // Lipschitz constant of ∇‖Φa − b‖² is 2·σ_max(Φ)² ≤ 2·‖Φ‖_F².
    let lip = 2.0 * modes.fro_norm().powi(2).max(1e-12);
    let step = 1.0 / lip;
    let mut a = lstsq_complex(modes, &b);
    for _ in 0..iters {
        // Gradient step: a ← a − step · 2Φᴴ(Φa − b).
        let residual: Vec<c64> = modes
            .matvec(&a)
            .iter()
            .zip(&b)
            .map(|(&r, &bb)| r - bb)
            .collect();
        let grad = modes.h_matvec(&residual);
        for (ai, g) in a.iter_mut().zip(&grad) {
            *ai -= *g * (2.0 * step);
        }
        // Proximal step: complex soft threshold by step·γ.
        let th = step * gamma;
        for ai in &mut a {
            let m = ai.abs();
            *ai = if m <= th {
                c64::ZERO
            } else {
                *ai * ((m - th) / m)
            };
        }
    }
    a
}

/// Scales column `j` of a real matrix by `d[j]`.
fn scale_cols_real(m: &Mat, d: &[f64]) -> Mat {
    assert_eq!(m.cols(), d.len());
    let mut out = m.clone();
    for i in 0..out.rows() {
        for (x, &s) in out.row_mut(i).iter_mut().zip(d) {
            *x *= s;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two-oscillator synthetic system with known frequencies f1, f2 (Hz).
    ///
    /// Traveling waves: each frequency spans a two-dimensional invariant
    /// subspace (sin and cos components with distinct spatial patterns), so
    /// the dynamics are exactly representable by a linear operator — a
    /// standing wave `sin(ωt)·g(x)` would be spatially rank-1 and is not.
    fn oscillator_data(p: usize, t: usize, dt: f64, f1: f64, f2: f64) -> Mat {
        Mat::from_fn(p, t, |i, j| {
            let x = i as f64 / p as f64;
            let tt = j as f64 * dt;
            (2.0 * std::f64::consts::PI * f1 * tt + 3.0 * x).sin()
                + 0.5 * (2.0 * std::f64::consts::PI * f2 * tt + 7.0 * x).cos()
        })
    }

    #[test]
    fn recovers_planted_frequencies() {
        let dt = 0.01;
        let data = oscillator_data(32, 400, dt, 2.0, 7.0);
        let dmd = Dmd::fit(
            &data,
            &DmdConfig {
                dt,
                rank: RankSelection::Fixed(4),
                ..DmdConfig::default()
            },
        );
        let mut freqs = dmd.frequencies();
        freqs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        // Conjugate pairs: expect {2, 2, 7, 7}.
        assert!((freqs[0] - 2.0).abs() < 0.05, "freqs {freqs:?}");
        assert!((freqs[1] - 2.0).abs() < 0.05);
        assert!((freqs[2] - 7.0).abs() < 0.05);
        assert!((freqs[3] - 7.0).abs() < 0.05);
    }

    #[test]
    fn pure_oscillations_have_unit_eigenvalues() {
        let dt = 0.02;
        let data = oscillator_data(16, 300, dt, 1.0, 4.0);
        let dmd = Dmd::fit(
            &data,
            &DmdConfig {
                dt,
                rank: RankSelection::Fixed(4),
                ..DmdConfig::default()
            },
        );
        for &l in &dmd.lambdas {
            assert!((l.abs() - 1.0).abs() < 1e-6, "|λ| = {}", l.abs());
        }
    }

    #[test]
    fn reconstruction_matches_clean_signal() {
        let dt = 0.01;
        let data = oscillator_data(24, 256, dt, 3.0, 9.0);
        let dmd = Dmd::fit(
            &data,
            &DmdConfig {
                dt,
                rank: RankSelection::Fixed(4),
                ..DmdConfig::default()
            },
        );
        let rec = dmd.reconstruct(256);
        let rel = rec.fro_dist(&data) / data.fro_norm();
        assert!(rel < 1e-6, "relative reconstruction error {rel}");
    }

    #[test]
    fn decaying_mode_has_negative_growth() {
        let dt = 0.05;
        let data = Mat::from_fn(8, 200, |i, j| {
            let tt = j as f64 * dt;
            (-0.5 * tt).exp() * ((i as f64) * 0.7).sin()
        });
        let dmd = Dmd::fit(
            &data,
            &DmdConfig {
                dt,
                rank: RankSelection::Fixed(1),
                ..DmdConfig::default()
            },
        );
        assert_eq!(dmd.rank(), 1);
        assert!(
            (dmd.omegas[0].re + 0.5).abs() < 1e-6,
            "growth {}",
            dmd.omegas[0].re
        );
        assert!(dmd.omegas[0].im.abs() < 1e-8);
    }

    #[test]
    fn svht_rank_matches_signal_complexity() {
        let dt = 0.01;
        let clean = oscillator_data(40, 300, dt, 2.0, 6.0);
        // Add a small white-ish noise floor (splitmix-style hash for good
        // per-entry decorrelation).
        let data = Mat::from_fn(40, 300, |i, j| {
            let mut h = (i as u64)
                .wrapping_mul(0x9e3779b97f4a7c15)
                .wrapping_add((j as u64).wrapping_mul(0xbf58476d1ce4e5b9));
            h ^= h >> 30;
            h = h.wrapping_mul(0xbf58476d1ce4e5b9);
            h ^= h >> 27;
            clean[(i, j)] + 1e-4 * ((h % 10_000) as f64 / 10_000.0 - 0.5)
        });
        let dmd = Dmd::fit(
            &data,
            &DmdConfig {
                dt,
                rank: RankSelection::Svht,
                ..DmdConfig::default()
            },
        );
        // Two oscillators = 4 complex modes; SVHT should land close.
        assert!(dmd.rank() >= 4 && dmd.rank() <= 10, "rank {}", dmd.rank());
    }

    #[test]
    fn energy_rank_selection_caps_spectrum() {
        let s = vec![10.0, 5.0, 1.0, 0.1];
        let r = RankSelection::Energy(0.9).resolve(&s, 100, 4);
        // 10² = 100 of total 126.01 → 79%; +5² → 99.2% ≥ 90% at rank 2.
        assert_eq!(r, 2);
        assert_eq!(RankSelection::Energy(1.0).resolve(&s, 100, 4), 4);
        assert_eq!(RankSelection::Fixed(3).resolve(&s, 100, 4), 3);
    }

    #[test]
    fn energy_validation_rejects_out_of_domain_fractions() {
        assert!(RankSelection::Energy(0.5).validate().is_ok());
        for bad in [0.0, -0.1, 1.5, f64::NAN] {
            assert!(RankSelection::Energy(bad).validate().is_err(), "{bad}");
            // `resolve` must stay total even on invalid fractions: it falls
            // back to keeping the full spectrum instead of panicking.
            assert_eq!(RankSelection::Energy(bad).resolve(&[3.0, 1.0], 10, 2), 2);
        }
        assert!(DmdConfig {
            dt: 0.0,
            rank: RankSelection::Svht,
            ..DmdConfig::default()
        }
        .validate()
        .is_err());
        // The wire boundary rejects invalid fractions too.
        assert!(serde_json::from_str::<RankSelection>("{\"Energy\": 2.0}").is_err());
        let ok: RankSelection = serde_json::from_str("{\"Energy\": 0.75}").unwrap();
        assert_eq!(ok, RankSelection::Energy(0.75));
        let unit: RankSelection = serde_json::from_str("\"Svht\"").unwrap();
        assert_eq!(unit, RankSelection::Svht);
        let fixed: RankSelection = serde_json::from_str("{\"Fixed\": 3}").unwrap();
        assert_eq!(fixed, RankSelection::Fixed(3));
    }

    #[test]
    fn fit_strategy_wire_boundary_and_validation() {
        // Old checkpoints carry no `strategy` field: a config without one
        // must load as `Exact` (the bitwise-compatible default).
        let legacy: DmdConfig = serde_json::from_str("{\"dt\":1.0,\"rank\":\"Svht\"}").unwrap();
        assert_eq!(legacy.strategy, FitStrategy::Exact);
        let unit: FitStrategy = serde_json::from_str("\"Exact\"").unwrap();
        assert_eq!(unit, FitStrategy::Exact);
        // Sketched round-trips through the wire format losslessly.
        let sk = FitStrategy::Sketched {
            rank_oversample: 8,
            power_iters: 2,
            seed: 0x5eed_cafe,
        };
        let wire = serde_json::to_string(&sk).unwrap();
        let back: FitStrategy = serde_json::from_str(&wire).unwrap();
        assert_eq!(back, sk);
        // The wire boundary enforces the same budget as the builder.
        let bad = "{\"Sketched\":{\"rank_oversample\":0,\"power_iters\":1,\"seed\":7}}";
        assert!(serde_json::from_str::<FitStrategy>(bad).is_err());
        let bad = "{\"Sketched\":{\"rank_oversample\":8,\"power_iters\":9,\"seed\":7}}";
        assert!(serde_json::from_str::<FitStrategy>(bad).is_err());
        // validate() rejects out-of-budget parameters directly too.
        assert!(FitStrategy::Sketched {
            rank_oversample: 70,
            power_iters: 1,
            seed: 0,
        }
        .validate()
        .is_err());
        assert!(FitStrategy::Exact.validate().is_ok());
        // Per-node seed mixing: distinct salts give distinct seeds, the same
        // salt is reproducible, and Exact is a fixed point.
        let a = sk.for_node(1);
        let b = sk.for_node(2);
        assert_ne!(a, b);
        assert_eq!(a, sk.for_node(1));
        assert_eq!(FitStrategy::Exact.for_node(99), FitStrategy::Exact);
    }

    #[test]
    fn try_fit_reports_invalid_config_as_error() {
        let data = Mat::from_fn(4, 16, |i, j| ((i + j) as f64 * 0.3).sin());
        let bad = DmdConfig {
            dt: 1.0,
            rank: RankSelection::Energy(7.0),
            ..DmdConfig::default()
        };
        match Dmd::try_fit(&data, &bad) {
            Err(CoreError::InvalidConfig { what }) => assert!(what.contains("energy fraction")),
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
        let good = DmdConfig {
            dt: 1.0,
            rank: RankSelection::Fixed(2),
            ..DmdConfig::default()
        };
        let d = Dmd::try_fit(&data, &good).expect("healthy fit");
        assert!(d.rank() <= 2);
    }

    #[test]
    fn amplitudes_reproduce_first_snapshot() {
        let dt = 0.01;
        let data = oscillator_data(20, 200, dt, 2.0, 5.0);
        let dmd = Dmd::fit(
            &data,
            &DmdConfig {
                dt,
                rank: RankSelection::Fixed(4),
                ..DmdConfig::default()
            },
        );
        let rec0 = dmd.reconstruct(1);
        let x0 = data.cols_range(0, 1);
        assert!(rec0.fro_dist(&x0) < 1e-8 * x0.fro_norm().max(1.0));
    }

    #[test]
    fn sparse_amplitudes_drop_weak_modes() {
        let dt = 0.01;
        // Strong 2 Hz oscillation + weak 7 Hz one.
        let data = Mat::from_fn(24, 300, |i, j| {
            let x = i as f64 / 24.0;
            let tt = j as f64 * dt;
            (2.0 * std::f64::consts::PI * 2.0 * tt + 3.0 * x).sin()
                + 0.02 * (2.0 * std::f64::consts::PI * 7.0 * tt + 7.0 * x).cos()
        });
        let dmd = Dmd::fit(
            &data,
            &DmdConfig {
                dt,
                rank: RankSelection::Fixed(4),
                ..DmdConfig::default()
            },
        );
        let x0 = data.col(0);
        let dense = sparse_amplitudes(&dmd.modes, &x0, 0.0, 200);
        let sparse = sparse_amplitudes(&dmd.modes, &x0, 5.0, 200);
        let nnz = |a: &[c64]| a.iter().filter(|z| z.abs() > 0.0).count();
        assert!(
            nnz(&sparse) < nnz(&dense).max(1) || nnz(&sparse) <= 2,
            "gamma must sparsify: dense {} vs sparse {}",
            nnz(&dense),
            nnz(&sparse)
        );
        // With zero penalty the ISTA fixed point reproduces x0 well.
        let recon = dmd.modes.matvec(&dense);
        let err: f64 = recon
            .iter()
            .zip(&x0)
            .map(|(z, &v)| (*z - c64::from_real(v)).norm_sqr())
            .sum::<f64>()
            .sqrt();
        let base: f64 = x0.iter().map(|v| v * v).sum::<f64>().sqrt();
        assert!(err < 0.05 * base, "dense refit error {err} vs {base}");
    }

    #[test]
    fn sparse_amplitudes_extreme_gamma_kills_everything() {
        let dt = 0.02;
        let data = Mat::from_fn(8, 100, |i, j| ((i + j) as f64 * 0.1).sin());
        let dmd = Dmd::fit(
            &data,
            &DmdConfig {
                dt,
                rank: RankSelection::Fixed(2),
                ..DmdConfig::default()
            },
        );
        let a = sparse_amplitudes(&dmd.modes, &data.col(0), 1e12, 50);
        assert!(a.iter().all(|z| *z == c64::ZERO));
    }

    #[test]
    fn zero_data_yields_empty_decomposition() {
        let data = Mat::zeros(5, 10);
        let dmd = Dmd::fit(&data, &DmdConfig::default());
        assert_eq!(dmd.rank(), 0);
        assert_eq!(dmd.reconstruct(10).fro_norm(), 0.0);
    }
}
