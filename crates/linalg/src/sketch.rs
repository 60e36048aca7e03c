//! Streaming randomized sketch of a column-growing matrix.
//!
//! This is the incremental substrate of `FitStrategy::Sketched`: instead of
//! re-probing a fresh Gaussian range finder on every fit (the batch
//! [`crate::svd::svd_sketched`] path), a [`SketchSvd`] draws **one** probe at
//! cold start and then *reuses* the range basis `Q` across `partial_fit`
//! rounds, augmenting it only with the orthonormal residual directions each
//! new block actually introduces and compressing back under the rank cap when
//! the basis grows past its slack. The factorisation served to the DMD solve
//! is the exact SVD of the small projected stream `B = Qᵀ·[columns]`, rotated
//! back through `Q` — so accuracy is governed by how well `range(Q)` tracks
//! the stream, which the residual-refresh step maintains by construction
//! (every absorbed block's out-of-range mass is added to `Q` before it is
//! projected).
//!
//! The struct mirrors [`crate::isvd::IncrementalSvd`]'s surface where the
//! streaming pipeline needs it (`absorb`, `to_svd`, serde state) and is bitwise
//! deterministic at any thread count: the probe is seeded, panel geometry is
//! shape-derived, and all products route through the deterministic GEMM.

use crate::gemm::{gemm, Trans};
use crate::mat::Mat;
use crate::qr::{orthonormal_complement, qr};
use crate::svd::{svd, GaussianSource, Svd};
use crate::workspace;
use serde::{Deserialize, Serialize};

/// Streaming randomized range sketch with an incrementally refreshed basis.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SketchSvd {
    /// `m × lq` range basis with orthonormal columns (`lq ≤ max_rank +
    /// oversample + refresh slack, compressed back when exceeded`).
    q: Mat,
    /// `lq × t` projected stream `Qᵀ·[absorbed columns]`.
    b: Mat,
    /// Rank served by [`SketchSvd::to_svd`].
    max_rank: usize,
    /// Probe oversampling beyond `max_rank`.
    oversample: usize,
    /// Subspace iterations of the cold-start probe.
    power_iters: usize,
    /// Probe seed (cold start only; refreshes are residual-driven).
    seed: u64,
    /// Columns absorbed so far.
    cols_seen: usize,
    /// Gaussian probes drawn over this sketch's lifetime — stays at its
    /// cold-start value (0 or 1) by construction; the basis-reuse invariant
    /// regression tests assert on it.
    probes_drawn: usize,
}

impl SketchSvd {
    /// Cold start: draws the Gaussian probe on `first_block`, runs the
    /// configured subspace iterations, and projects the block.
    ///
    /// When the oversampled probe `l = max_rank + oversample` would not be
    /// smaller than the block, the range basis is taken directly from a QR of
    /// the block (exact, no randomness) — small fleets degrade gracefully.
    ///
    /// # Panics
    /// Panics if `max_rank == 0` or the block has no rows.
    pub fn new(
        first_block: &Mat,
        max_rank: usize,
        oversample: usize,
        power_iters: usize,
        seed: u64,
    ) -> SketchSvd {
        assert!(max_rank >= 1, "max_rank must be at least 1");
        assert!(first_block.rows() >= 1, "the stream needs at least one row");
        let _span = crate::obs::SKETCH_NS.span();
        let (m, t) = first_block.shape();
        let oversample = oversample.max(1);
        let l = max_rank + oversample;
        let mut probes_drawn = 0;
        let q = if l >= m.min(t.max(1)) {
            qr(first_block).q
        } else {
            crate::obs::SKETCH_PROBES.inc();
            probes_drawn = 1;
            let mut gauss = GaussianSource::new(seed);
            let omega = Mat::from_fn(t, l, |_, _| gauss.next());
            let mut q = range_basis(&first_block.matmul(&omega));
            for _ in 0..power_iters {
                let z = first_block.t_matmul(&q);
                let qz = range_basis(&z);
                q = range_basis(&first_block.matmul(&qz));
            }
            q
        };
        let b = q.t_matmul(first_block);
        SketchSvd {
            q,
            b,
            max_rank,
            oversample,
            power_iters,
            seed,
            cols_seen: t,
            probes_drawn,
        }
    }

    /// Columns absorbed so far.
    pub fn cols_seen(&self) -> usize {
        self.cols_seen
    }

    /// Gaussian probes drawn over this sketch's lifetime: 1 when the cold
    /// start took the randomized branch, 0 on the small-shape fallback —
    /// and never more, because [`SketchSvd::absorb`] refreshes the reused
    /// basis from residuals instead of re-probing.
    pub fn probes_drawn(&self) -> usize {
        self.probes_drawn
    }

    /// Rank served by [`SketchSvd::to_svd`].
    pub fn rank(&self) -> usize {
        self.max_rank.min(self.q.cols()).min(self.cols_seen)
    }

    /// The retained rank cap.
    pub fn max_rank(&self) -> usize {
        self.max_rank
    }

    /// Width of the current range basis.
    pub fn basis_cols(&self) -> usize {
        self.q.cols()
    }

    /// Largest basis width tolerated before a compression pass: the probe
    /// width plus equal refresh slack.
    pub fn basis_cap(&self) -> usize {
        2 * (self.max_rank + self.oversample)
    }

    /// Absorbs a new block of columns, refreshing the basis with the block's
    /// out-of-range residual directions.
    ///
    /// # Panics
    /// Panics if the row count differs from the stream.
    pub fn absorb(&mut self, block: &Mat) {
        assert_eq!(
            block.rows(),
            self.q.rows(),
            "row count must match the stream"
        );
        if block.cols() == 0 {
            return;
        }
        let _span = crate::obs::SKETCH_NS.span();
        let c = block.cols();
        let lq = self.q.cols();
        let t = self.b.cols();
        let mut d = workspace::pooled_zeros(lq, c); // lq × c = Qᵀ·block
        gemm(1.0, &self.q, Trans::Yes, block, Trans::No, 0.0, &mut d);
        // resid = block − Q·d, fused into one gemm (β = 1 on a pooled copy).
        let mut resid = workspace::pooled_copy(block);
        gemm(-1.0, &self.q, Trans::No, &d, Trans::No, 1.0, &mut resid);
        let e = orthonormal_complement(&self.q, &resid, 1e-12); // m × j
        let j = e.cols();
        if j > 0 {
            crate::obs::SKETCH_REFRESHES.inc();
            let mut p = workspace::pooled_zeros(j, c); // j × c = Eᵀ·resid
            gemm(1.0, &e, Trans::Yes, &resid, Trans::No, 0.0, &mut p);
            // B' = [B d; 0 p]: old columns carry zero weight on the new
            // directions (their out-of-range mass was discarded when they
            // were absorbed — the defining approximation of the sketch).
            let mut b_new = Mat::zeros(lq + j, t + c);
            for i in 0..lq {
                b_new.row_mut(i)[..t].copy_from_slice(self.b.row(i));
                b_new.row_mut(i)[t..].copy_from_slice(d.row(i));
            }
            for i in 0..j {
                b_new.row_mut(lq + i)[t..].copy_from_slice(p.row(i));
            }
            self.q = self.q.hstack(&e);
            self.b = b_new;
        } else {
            let mut b_new = Mat::zeros(lq, t + c);
            for i in 0..lq {
                b_new.row_mut(i)[..t].copy_from_slice(self.b.row(i));
                b_new.row_mut(i)[t..].copy_from_slice(d.row(i));
            }
            self.b = b_new;
        }
        self.cols_seen += c;
        if self.q.cols() > self.basis_cap() {
            self.compress();
        }
    }

    /// Rotates the basis onto the dominant directions of the projected
    /// stream and truncates back to the probe width, bounding the state.
    fn compress(&mut self) {
        crate::obs::SKETCH_COMPRESSIONS.inc();
        let f = svd(&self.b);
        let keep = (self.max_rank + self.oversample).min(f.rank()).max(1);
        self.q = self.q.matmul(&f.u.cols_range(0, keep));
        let t = self.b.cols();
        let mut b_new = Mat::zeros(keep, t);
        for i in 0..keep {
            let si = f.s[i];
            for jj in 0..t {
                b_new[(i, jj)] = si * f.v[(jj, i)];
            }
        }
        self.b = b_new;
    }

    /// The served factorisation: exact SVD of the small projected stream,
    /// rotated back through the range basis and truncated to the rank cap.
    pub fn to_svd(&self) -> Svd {
        let _span = crate::obs::SKETCH_NS.span();
        crate::obs::SKETCH_FITS.inc();
        let f = svd(&self.b);
        let keep = self.max_rank.min(f.rank());
        Svd {
            u: self.q.matmul(&f.u.cols_range(0, keep)),
            s: f.s[..keep].to_vec(),
            v: f.v.cols_range(0, keep),
        }
    }

    /// Low-rank reconstruction `Q·B` of the absorbed stream (tests and
    /// accuracy budgets; not on the hot path).
    pub fn reconstruct(&self) -> Mat {
        self.q.matmul(&self.b)
    }
}

/// Orthonormalises a range panel: TSQR for tall-skinny shapes, plain
/// Householder otherwise.
fn range_basis(y: &Mat) -> Mat {
    if y.rows() >= 4 * y.cols().max(1) {
        crate::qr::tsqr(y).q
    } else {
        qr(y).q
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn low_rank_stream(m: usize, t: usize, r: usize) -> Mat {
        let u = Mat::from_fn(m, r, |i, j| ((i * (j + 1)) as f64 * 0.03).sin());
        let v = Mat::from_fn(t, r, |i, j| ((i + 7 * j) as f64 * 0.05).cos());
        u.matmul(&v.transpose())
    }

    #[test]
    fn streaming_sketch_matches_batch_svd_on_low_rank() {
        let a = low_rank_stream(120, 90, 4);
        let mut sk = SketchSvd::new(&a.cols_range(0, 30), 6, 4, 2, 11);
        sk.absorb(&a.cols_range(30, 60));
        sk.absorb(&a.cols_range(60, 90));
        assert_eq!(sk.cols_seen(), 90);
        let f = sk.to_svd();
        let exact = svd(&a);
        for k in 0..4 {
            assert!(
                (f.s[k] - exact.s[k]).abs() < 1e-7 * exact.s[0].max(1.0),
                "σ_{k}: {} vs {}",
                f.s[k],
                exact.s[k]
            );
        }
        assert!(f.reconstruct().fro_dist(&a) < 1e-6 * a.fro_norm());
    }

    #[test]
    fn basis_refresh_tracks_new_directions() {
        // A stream whose second half lives in a different (low-rank)
        // subspace: the reused basis must refresh, not silently project the
        // novelty away.
        let first = Mat::from_fn(
            60,
            30,
            |i, j| if i < 30 { ((i + j) as f64).sin() } else { 0.0 },
        );
        let u2 = Mat::from_fn(60, 3, |i, j| {
            if i >= 30 {
                ((i * (j + 1)) as f64 * 0.11).cos()
            } else {
                0.0
            }
        });
        let v2 = Mat::from_fn(30, 3, |i, j| ((i + 5 * j) as f64 * 0.09).sin());
        let second = u2.matmul(&v2.transpose());
        let mut sk = SketchSvd::new(&first, 8, 4, 1, 5);
        let before = sk.basis_cols();
        sk.absorb(&second);
        assert!(sk.basis_cols() > before, "no refresh happened");
        let full = first.hstack(&second);
        let err = sk.reconstruct().fro_dist(&full);
        assert!(err < 1e-6 * full.fro_norm(), "rel err {err:e}");
    }

    #[test]
    fn compression_bounds_the_basis() {
        let mut sk = SketchSvd::new(&low_rank_stream(64, 16, 3), 4, 2, 1, 9);
        // Keep feeding novel subspaces to force refreshes past the cap.
        for round in 0..12 {
            let block = Mat::from_fn(64, 8, |i, j| {
                (((i * (round + 2) + j * 3) % 29) as f64 * 0.17).sin()
            });
            sk.absorb(&block);
            assert!(
                sk.basis_cols() <= 2 * (4 + 2),
                "basis overgrew: {}",
                sk.basis_cols()
            );
        }
        assert_eq!(sk.cols_seen(), 16 + 12 * 8);
        let f = sk.to_svd();
        assert!(f.rank() <= 4);
        assert_eq!(f.v.rows(), sk.cols_seen());
    }

    #[test]
    fn serde_round_trip_is_bitwise() {
        let mut sk = SketchSvd::new(&low_rank_stream(40, 30, 3), 5, 3, 1, 21);
        sk.absorb(&low_rank_stream(40, 10, 2));
        let json = serde_json::to_string(&sk).unwrap();
        let back: SketchSvd = serde_json::from_str(&json).unwrap();
        assert_eq!(serde_json::to_string(&back).unwrap(), json);
        assert_eq!(back.b.as_slice(), sk.b.as_slice());
    }
}
