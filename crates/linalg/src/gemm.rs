//! Blocked, register-tiled dense matrix kernels with operand packing.
//!
//! This is the single entry point every dense product in the workspace
//! routes through: [`gemm`] computes `C ← α·op(A)·op(B) + β·C` with
//! `op ∈ {identity, transpose}` selected by [`Trans`] flags, so
//! `matmul` (NN), `t_matmul` (TN) and `matmul_nt` (NT) are one kernel and
//! no caller ever materialises a transpose. [`gemv`] is the `n = 1`
//! specialisation sharing the same layer.
//!
//! ## Architecture (BLIS-style three-level blocking)
//!
//! ```text
//! for jc in steps of NC:            // C column blocks   (L3 / TLB)
//!   for pc in steps of KC:          // depth blocks      (B panel in L2)
//!     pack B[pc..pc+KC, jc..jc+NC]  // into NR-wide column panels
//!     for ic in steps of MC:        // C row blocks      (A block in L2)
//!       pack A[ic..ic+MC, pc..pc+KC]// into MR-tall row panels
//!       for each MR × NR tile: micro-kernel (registers)
//! ```
//!
//! The micro-kernel keeps an `MR × NR` accumulator tile in registers and
//! walks the packed panels contiguously, one `k` step at a time. Packing
//! zero-pads ragged edges, so there is a single micro-kernel with masked
//! write-back — no per-element `!= 0.0` branches anywhere on the hot path.
//!
//! ## Determinism
//!
//! The parallel split (row blocks of C, fixed chunks, one per worker) and
//! the cache blocking never change the *per-element* arithmetic: each
//! `C[i][j]` accumulates its `k` products in strictly increasing `k` order
//! (register accumulation within a KC block, block-bumps in increasing
//! `pc` order), and that order depends only on the problem shape — not on
//! the thread count, the row chunk a thread owns, or the MC/NC position of
//! the tile. Results are therefore bitwise-identical at every thread
//! count, preserving the PR-1 pool guarantee. No FMA contraction and no
//! reassociation is performed (the AVX2 path vectorises across independent
//! output elements only), so SIMD dispatch does not change results either.
//!
//! ## Workspaces
//!
//! Packing buffers come from the per-thread pool in [`crate::workspace`],
//! so steady-state calls are allocation-free on long-lived threads.

use crate::cmat::CMat;
use crate::complex::c64;
use crate::mat::Mat;
use crate::pool;
use crate::workspace::{give_cvec, give_vec, take_cvec, take_vec};

/// Rows of the register tile (micro-kernel height).
pub const MR: usize = 4;
/// Columns of the register tile (micro-kernel width).
pub const NR: usize = 8;
/// Row-block size: the packed `MC × KC` A block targets L2.
pub const MC: usize = 128;
/// Depth-block size: one packed panel of B (`KC × NR`) stays L1-resident.
pub const KC: usize = 256;
/// Column-block size: the packed `KC × NC` B block targets L2/L3.
pub const NC: usize = 512;

/// Minimum flop count (`2·m·k·n`) before `gemm` draws workers from the
/// process-wide budget.
const PAR_FLOP_THRESHOLD: usize = 4_000_000;
/// Minimum C rows each spawned worker should own; below this the fork
/// overhead beats the kernel time.
const MIN_ROWS_PER_THREAD: usize = 32;
/// Largest `m`/`n` extent taken by the small-shape fast path, which skips
/// the pack/block machinery entirely (fleets of small per-rack trees issue
/// thousands of such calls per round; packing overhead dominates there).
pub const SMALL_DIM: usize = 32;

/// Whether an operand enters the product as itself or transposed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Trans {
    /// Use the operand as stored.
    No,
    /// Use the operand's transpose (no copy is made).
    Yes,
}

/// A strided read-only view: element `(i, j)` lives at `data[i·rs + j·cs]`.
/// `Trans::Yes` is expressed by swapping the strides, so packing reads the
/// transpose in place.
#[derive(Clone, Copy)]
pub(crate) struct View<'a> {
    data: &'a [f64],
    pub(crate) rows: usize,
    pub(crate) cols: usize,
    rs: usize,
    cs: usize,
}

impl<'a> View<'a> {
    pub(crate) fn of(m: &'a Mat, t: Trans) -> View<'a> {
        match t {
            Trans::No => View {
                data: m.as_slice(),
                rows: m.rows(),
                cols: m.cols(),
                rs: m.cols(),
                cs: 1,
            },
            Trans::Yes => View {
                data: m.as_slice(),
                rows: m.cols(),
                cols: m.rows(),
                rs: 1,
                cs: m.cols(),
            },
        }
    }

    #[inline(always)]
    fn at(&self, i: usize, j: usize) -> f64 {
        self.data[i * self.rs + j * self.cs]
    }
}

/// `C ← α·op(A)·op(B) + β·C`.
///
/// `c` must already have shape `op(A).rows × op(B).cols`. Draws extra
/// workers from the process-wide pool budget for large products (the split
/// is over fixed row blocks of `C` and is bitwise-deterministic; see the
/// module docs).
///
/// # Panics
/// Panics if the operand shapes are inconsistent.
pub fn gemm(alpha: f64, a: &Mat, ta: Trans, b: &Mat, tb: Trans, beta: f64, c: &mut Mat) {
    let av = View::of(a, ta);
    let bv = View::of(b, tb);
    let (m, k, n) = (av.rows, av.cols, bv.cols);
    assert_eq!(k, bv.rows, "gemm inner dimensions must agree");
    assert_eq!(c.shape(), (m, n), "gemm output shape mismatch");
    let _span = crate::obs::GEMM_NS.span();
    crate::obs::GEMM_CALLS.inc();
    crate::obs::GEMM_FLOPS.add(
        2u64.saturating_mul(m as u64)
            .saturating_mul(k as u64)
            .saturating_mul(n as u64),
    );
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 || alpha == 0.0 {
        scale_slice(c.as_mut_slice(), beta);
        return;
    }
    let flops = 2usize.saturating_mul(m).saturating_mul(k).saturating_mul(n);
    let tokens = if flops >= PAR_FLOP_THRESHOLD {
        pool::acquire_workers((m / MIN_ROWS_PER_THREAD).saturating_sub(1))
    } else {
        pool::WorkerTokens::none()
    };
    let threads = 1 + tokens.count();
    gemm_split(threads, alpha, av, bv, beta, c);
    drop(tokens);
}

/// [`gemm`] with an explicit worker count instead of the pool budget.
///
/// Exposed for the determinism tests and kernel tuning: the result is
/// guaranteed bitwise-identical for every `threads ≥ 1`.
#[allow(clippy::too_many_arguments)]
pub fn gemm_threaded(
    threads: usize,
    alpha: f64,
    a: &Mat,
    ta: Trans,
    b: &Mat,
    tb: Trans,
    beta: f64,
    c: &mut Mat,
) {
    let av = View::of(a, ta);
    let bv = View::of(b, tb);
    let (m, k, n) = (av.rows, av.cols, bv.cols);
    assert_eq!(k, bv.rows, "gemm inner dimensions must agree");
    assert_eq!(c.shape(), (m, n), "gemm output shape mismatch");
    let _span = crate::obs::GEMM_NS.span();
    crate::obs::GEMM_CALLS.inc();
    crate::obs::GEMM_FLOPS.add(
        2u64.saturating_mul(m as u64)
            .saturating_mul(k as u64)
            .saturating_mul(n as u64),
    );
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 || alpha == 0.0 {
        scale_slice(c.as_mut_slice(), beta);
        return;
    }
    gemm_split(threads.max(1), alpha, av, bv, beta, c);
}

/// Splits `C` into fixed row chunks (multiples of `MR`) and runs the serial
/// blocked kernel on each, one chunk per worker. The chunking only decides
/// *which thread* fills which rows, never the per-element arithmetic.
fn gemm_split(threads: usize, alpha: f64, a: View<'_>, b: View<'_>, beta: f64, c: &mut Mat) {
    let (m, n) = (a.rows, b.cols);
    if is_small(m, a.cols, n) {
        gemm_small(alpha, a, b, beta, c.as_mut_slice(), n);
        return;
    }
    if threads <= 1 || m < 2 * MR {
        gemm_serial(alpha, a, b, beta, c.as_mut_slice(), 0, m, n);
        return;
    }
    let chunk = m.div_ceil(threads).next_multiple_of(MR);
    let mut chunks: Vec<(usize, &mut [f64])> = c
        .as_mut_slice()
        .chunks_mut(chunk * n)
        .enumerate()
        .map(|(ci, s)| (ci * chunk, s))
        .collect();
    std::thread::scope(|scope| {
        // Invariant: `m ≥ 2·MR > 0` on this path, so `chunks` is nonempty.
        #[allow(clippy::expect_used)]
        let (first, rest) = chunks.split_first_mut().expect("chunks nonempty");
        for (i0, dst) in rest.iter_mut() {
            let i0 = *i0;
            let rows_here = dst.len() / n;
            scope.spawn(move || gemm_serial(alpha, a, b, beta, dst, i0, rows_here, n));
        }
        let rows_here = first.1.len() / n;
        gemm_serial(alpha, a, b, beta, first.1, 0, rows_here, n);
    });
}

/// Whether a shape takes the small-shape fast path: a single depth block
/// (`k ≤ KC`, so β is never split across block bumps) and an output tile
/// small enough that pack/scratch overhead dominates the arithmetic.
#[inline(always)]
pub(crate) fn is_small(m: usize, k: usize, n: usize) -> bool {
    k <= KC && m <= SMALL_DIM && n <= SMALL_DIM
}

/// Direct small-shape kernel: per output element one scalar chain in
/// strictly increasing `k`, then the same masked `α/β` combine as
/// [`write_back_tile`].
///
/// Bitwise-identical to the packed path for every shape it accepts: with
/// `k ≤ KC` there is exactly one depth block, so the packed micro-kernels
/// (scalar and AVX2 alike — separate mul/add, never FMA) also accumulate
/// each `C[i][j]` as one unsplit ascending-`k` chain and apply `α`/`β`
/// once. Padding lanes never reach write-back, so skipping them here
/// changes nothing.
fn gemm_small(alpha: f64, a: View<'_>, b: View<'_>, beta: f64, cdst: &mut [f64], ldc: usize) {
    let (m, k, n) = (a.rows, a.cols, b.cols);
    for i in 0..m {
        let crow = &mut cdst[i * ldc..][..n];
        for (j, cv) in crow.iter_mut().enumerate() {
            let mut s = 0.0;
            for p in 0..k {
                s += a.at(i, p) * b.at(p, j);
            }
            if beta == 0.0 {
                *cv = alpha * s;
            } else if beta == 1.0 {
                *cv += alpha * s;
            } else {
                *cv = beta * *cv + alpha * s;
            }
        }
    }
}

/// Serial blocked GEMM over rows `[row0, row0 + mrows)` of the logical
/// product, writing into `cdst` (row-major, leading dimension `n`,
/// starting at logical row `row0`). Packing buffers come from the
/// per-thread scratch pool. Detects the widest SIMD micro-kernel the CPU
/// supports once per call; every path performs identical arithmetic.
#[allow(clippy::too_many_arguments)]
fn gemm_serial(
    alpha: f64,
    a: View<'_>,
    b: View<'_>,
    beta: f64,
    cdst: &mut [f64],
    row0: usize,
    mrows: usize,
    n: usize,
) {
    #[cfg(target_arch = "x86_64")]
    let avx2 = std::arch::is_x86_feature_detected!("avx2");
    #[cfg(not(target_arch = "x86_64"))]
    let avx2 = false;
    if mrows == 0 {
        return;
    }
    let k = a.cols;
    let mut bpack = take_vec(KC.min(k) * NC.min(n.next_multiple_of(NR)));
    let mut apack = take_vec(KC.min(k) * MC.min(mrows.next_multiple_of(MR)));
    for jc in (0..n).step_by(NC) {
        let nc = NC.min(n - jc);
        let ncp = nc.next_multiple_of(NR);
        for pc in (0..k).step_by(KC) {
            let kc = KC.min(k - pc);
            pack_b(b, pc, kc, jc, nc, ncp, &mut bpack);
            // β is applied exactly once per element, on its first depth block.
            let beta_eff = if pc == 0 { beta } else { 1.0 };
            for ic in (0..mrows).step_by(MC) {
                let mc = MC.min(mrows - ic);
                let mcp = mc.next_multiple_of(MR);
                pack_a(a, row0 + ic, mc, mcp, pc, kc, &mut apack);
                macro_kernel(
                    alpha, &apack, &bpack, beta_eff, cdst, ic, mc, mcp, jc, nc, ncp, n, kc, avx2,
                );
            }
        }
    }
    give_vec(apack);
    give_vec(bpack);
}

/// Packs `B[pc..pc+kc, jc..jc+nc]` into `ncp / NR` column panels, each laid
/// out `k`-major (`panel[p·NR + jj]`), zero-padding the ragged last panel.
#[inline(always)]
fn pack_b(b: View<'_>, pc: usize, kc: usize, jc: usize, nc: usize, ncp: usize, dst: &mut [f64]) {
    let mut off = 0;
    for j0 in (0..ncp).step_by(NR) {
        let jw = NR.min(nc - j0);
        if b.cs == 1 {
            // Row-major source: each k step is a contiguous copy.
            for p in 0..kc {
                let base = off + p * NR;
                let src = &b.data[(pc + p) * b.rs + jc + j0..][..jw];
                dst[base..base + jw].copy_from_slice(src);
                dst[base + jw..base + NR].fill(0.0);
            }
        } else {
            for p in 0..kc {
                let base = off + p * NR;
                for jj in 0..jw {
                    dst[base + jj] = b.at(pc + p, jc + j0 + jj);
                }
                dst[base + jw..base + NR].fill(0.0);
            }
        }
        off += kc * NR;
    }
}

/// Packs `A[row0..row0+mc, pc..pc+kc]` into `mcp / MR` row panels, each laid
/// out `k`-major (`panel[p·MR + ii]`), zero-padding the ragged last panel.
#[inline(always)]
fn pack_a(a: View<'_>, row0: usize, mc: usize, mcp: usize, pc: usize, kc: usize, dst: &mut [f64]) {
    let mut off = 0;
    for i0 in (0..mcp).step_by(MR) {
        let iw = MR.min(mc - i0);
        for p in 0..kc {
            let base = off + p * MR;
            for ii in 0..iw {
                dst[base + ii] = a.at(row0 + i0 + ii, pc + p);
            }
            dst[base + iw..base + MR].fill(0.0);
        }
        off += kc * MR;
    }
}

/// Runs the register-tiled micro-kernel over every `MR × NR` tile of one
/// packed `mc × nc` block of C.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
#[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
fn macro_kernel(
    alpha: f64,
    apack: &[f64],
    bpack: &[f64],
    beta: f64,
    cdst: &mut [f64],
    ic: usize,
    mc: usize,
    mcp: usize,
    jc: usize,
    nc: usize,
    ncp: usize,
    ldc: usize,
    kc: usize,
    avx2: bool,
) {
    for (jp, j0) in (0..ncp).step_by(NR).enumerate() {
        let bpanel = &bpack[jp * kc * NR..][..kc * NR];
        let nr = NR.min(nc - j0);
        for (ip, i0) in (0..mcp).step_by(MR).enumerate() {
            let apanel = &apack[ip * kc * MR..][..kc * MR];
            let mr = MR.min(mc - i0);
            let coff = (ic + i0) * ldc + jc + j0;
            let ctile = &mut cdst[coff..];
            #[cfg(target_arch = "x86_64")]
            if avx2 {
                // SAFETY: the caller verified AVX2 at runtime; the panels
                // hold at least `kc` full tiles by construction.
                unsafe { micro_kernel_avx2(kc, alpha, apanel, bpanel, beta, ctile, ldc, mr, nr) };
                continue;
            }
            micro_kernel(kc, alpha, apanel, bpanel, beta, ctile, ldc, mr, nr);
        }
    }
}

/// The `MR × NR` register tile: accumulates the full (zero-padded) tile over
/// `kc` depth steps, then writes back only the `mr × nr` valid corner.
///
/// Per output element the accumulation is a single scalar chain in
/// increasing `k` — the property the determinism guarantee rests on.
///
/// `acc` is only ever indexed with loop-constant indices so LLVM can promote
/// the whole tile into registers; the variable-size masked write-back reads
/// from a separate spilled copy (see [`write_back_tile`]).
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn micro_kernel(
    kc: usize,
    alpha: f64,
    apanel: &[f64],
    bpanel: &[f64],
    beta: f64,
    c: &mut [f64],
    ldc: usize,
    mr: usize,
    nr: usize,
) {
    let mut acc = [[0.0f64; NR]; MR];
    for (aq, bq) in apanel
        .chunks_exact(MR)
        .zip(bpanel.chunks_exact(NR))
        .take(kc)
    {
        for i in 0..MR {
            let ai = aq[i];
            for j in 0..NR {
                acc[i][j] += ai * bq[j];
            }
        }
    }
    let mut tile = [0.0f64; MR * NR];
    for i in 0..MR {
        for j in 0..NR {
            tile[i * NR + j] = acc[i][j];
        }
    }
    write_back_tile(&tile, alpha, beta, c, ldc, mr, nr);
}

/// AVX2 micro-kernel: eight `__m256d` accumulators (4 rows × 2 half-rows)
/// held explicitly in registers, one broadcast of A per row per depth step.
/// Uses separate `vmulpd`/`vaddpd` — **never** FMA — so every lane performs
/// exactly the scalar `acc += a·b` sequence and results stay bitwise equal
/// to [`micro_kernel`].
///
/// # Safety
/// Caller must have verified AVX2 support; `apanel`/`bpanel` must hold at
/// least `kc` packed tiles and `c` the `mr × nr` output corner.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)]
unsafe fn micro_kernel_avx2(
    kc: usize,
    alpha: f64,
    apanel: &[f64],
    bpanel: &[f64],
    beta: f64,
    c: &mut [f64],
    ldc: usize,
    mr: usize,
    nr: usize,
) {
    use std::arch::x86_64::*;
    debug_assert!(apanel.len() >= kc * MR && bpanel.len() >= kc * NR);
    let ap = apanel.as_ptr();
    let bp = bpanel.as_ptr();
    let mut acc00 = _mm256_setzero_pd();
    let mut acc01 = _mm256_setzero_pd();
    let mut acc10 = _mm256_setzero_pd();
    let mut acc11 = _mm256_setzero_pd();
    let mut acc20 = _mm256_setzero_pd();
    let mut acc21 = _mm256_setzero_pd();
    let mut acc30 = _mm256_setzero_pd();
    let mut acc31 = _mm256_setzero_pd();
    for p in 0..kc {
        let b0 = _mm256_loadu_pd(bp.add(p * NR));
        let b1 = _mm256_loadu_pd(bp.add(p * NR + 4));
        let a0 = _mm256_broadcast_sd(&*ap.add(p * MR));
        acc00 = _mm256_add_pd(acc00, _mm256_mul_pd(a0, b0));
        acc01 = _mm256_add_pd(acc01, _mm256_mul_pd(a0, b1));
        let a1 = _mm256_broadcast_sd(&*ap.add(p * MR + 1));
        acc10 = _mm256_add_pd(acc10, _mm256_mul_pd(a1, b0));
        acc11 = _mm256_add_pd(acc11, _mm256_mul_pd(a1, b1));
        let a2 = _mm256_broadcast_sd(&*ap.add(p * MR + 2));
        acc20 = _mm256_add_pd(acc20, _mm256_mul_pd(a2, b0));
        acc21 = _mm256_add_pd(acc21, _mm256_mul_pd(a2, b1));
        let a3 = _mm256_broadcast_sd(&*ap.add(p * MR + 3));
        acc30 = _mm256_add_pd(acc30, _mm256_mul_pd(a3, b0));
        acc31 = _mm256_add_pd(acc31, _mm256_mul_pd(a3, b1));
    }
    let mut tile = [0.0f64; MR * NR];
    let t = tile.as_mut_ptr();
    _mm256_storeu_pd(t, acc00);
    _mm256_storeu_pd(t.add(4), acc01);
    _mm256_storeu_pd(t.add(8), acc10);
    _mm256_storeu_pd(t.add(12), acc11);
    _mm256_storeu_pd(t.add(16), acc20);
    _mm256_storeu_pd(t.add(20), acc21);
    _mm256_storeu_pd(t.add(24), acc30);
    _mm256_storeu_pd(t.add(28), acc31);
    write_back_tile(&tile, alpha, beta, c, ldc, mr, nr);
}

/// Shared masked `α/β` write-back of the valid `mr × nr` corner of a fully
/// accumulated `MR × NR` tile.
#[inline(always)]
fn write_back_tile(
    tile: &[f64; MR * NR],
    alpha: f64,
    beta: f64,
    c: &mut [f64],
    ldc: usize,
    mr: usize,
    nr: usize,
) {
    for i in 0..mr {
        let trow = &tile[i * NR..][..nr];
        let crow = &mut c[i * ldc..][..nr];
        if beta == 0.0 {
            for (cv, &av) in crow.iter_mut().zip(trow) {
                *cv = alpha * av;
            }
        } else if beta == 1.0 {
            for (cv, &av) in crow.iter_mut().zip(trow) {
                *cv += alpha * av;
            }
        } else {
            for (cv, &av) in crow.iter_mut().zip(trow) {
                *cv = beta * *cv + alpha * av;
            }
        }
    }
}

/// `y ← α·op(A)·x + β·y` — the `n = 1` column of the kernel layer.
///
/// # Panics
/// Panics if `x`/`y` lengths disagree with `op(A)`.
pub fn gemv(alpha: f64, a: &Mat, ta: Trans, x: &[f64], beta: f64, y: &mut [f64]) {
    match ta {
        Trans::No => {
            assert_eq!(x.len(), a.cols(), "gemv operand length mismatch");
            assert_eq!(y.len(), a.rows(), "gemv output length mismatch");
            for (i, yv) in y.iter_mut().enumerate() {
                let mut dot = 0.0;
                for (&av, &xv) in a.row(i).iter().zip(x) {
                    dot += av * xv;
                }
                *yv = if beta == 0.0 {
                    alpha * dot
                } else {
                    beta * *yv + alpha * dot
                };
            }
        }
        Trans::Yes => {
            assert_eq!(x.len(), a.rows(), "gemv operand length mismatch");
            assert_eq!(y.len(), a.cols(), "gemv output length mismatch");
            scale_slice(y, beta);
            // Axpy over rows: vectorises across the independent y lanes.
            for (r, &xr) in x.iter().enumerate() {
                let s = alpha * xr;
                for (yv, &av) in y.iter_mut().zip(a.row(r)) {
                    *yv += s * av;
                }
            }
        }
    }
}

/// `y ← β·y` with the `β ∈ {0, 1}` fast paths (and `0·NaN = 0`).
fn scale_slice(y: &mut [f64], beta: f64) {
    if beta == 0.0 {
        y.fill(0.0);
    } else if beta != 1.0 {
        for v in y {
            *v *= beta;
        }
    }
}

// ---------------------------------------------------------------------------
// Complex kernels
// ---------------------------------------------------------------------------

/// Register-tile height of the complex micro-kernel (each element is two
/// lanes wide, so the tile is half the real one).
pub const CMR: usize = 2;
/// Register-tile width of the complex micro-kernel.
pub const CNR: usize = 4;

/// `C ← A·B` for complex operands, blocked and packed like [`gemm`]
/// (overwrite semantics: the DMD pipeline never needs complex α/β).
///
/// # Panics
/// Panics if inner dimensions disagree or `c` has the wrong shape.
pub fn cgemm(a: &CMat, b: &CMat, c: &mut CMat) {
    assert_eq!(a.cols(), b.rows(), "cgemm inner dimensions must agree");
    assert_eq!(
        c.shape(),
        (a.rows(), b.cols()),
        "cgemm output shape mismatch"
    );
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        c.as_mut_slice().fill(c64::ZERO);
        return;
    }
    let mut bpack = take_cvec(KC.min(k) * NC.min(n.next_multiple_of(CNR)));
    let mut apack = take_cvec(KC.min(k) * MC.min(m.next_multiple_of(CMR)));
    for jc in (0..n).step_by(NC) {
        let nc = NC.min(n - jc);
        let ncp = nc.next_multiple_of(CNR);
        for pc in (0..k).step_by(KC) {
            let kc = KC.min(k - pc);
            // Pack B panels (CNR wide).
            let mut off = 0;
            for j0 in (0..ncp).step_by(CNR) {
                let jw = CNR.min(nc - j0);
                for p in 0..kc {
                    let base = off + p * CNR;
                    let src = &b.row(pc + p)[jc + j0..][..jw];
                    bpack[base..base + jw].copy_from_slice(src);
                    bpack[base + jw..base + CNR].fill(c64::ZERO);
                }
                off += kc * CNR;
            }
            let first_block = pc == 0;
            for ic in (0..m).step_by(MC) {
                let mc = MC.min(m - ic);
                let mcp = mc.next_multiple_of(CMR);
                // Pack A panels (CMR tall).
                let mut aoff = 0;
                for i0 in (0..mcp).step_by(CMR) {
                    let iw = CMR.min(mc - i0);
                    for p in 0..kc {
                        let base = aoff + p * CMR;
                        for ii in 0..iw {
                            apack[base + ii] = a.row(ic + i0 + ii)[pc + p];
                        }
                        for ii in iw..CMR {
                            apack[base + ii] = c64::ZERO;
                        }
                    }
                    aoff += kc * CMR;
                }
                cmacro_kernel(
                    &apack,
                    &bpack,
                    first_block,
                    c.as_mut_slice(),
                    ic,
                    mc,
                    mcp,
                    jc,
                    nc,
                    ncp,
                    n,
                    kc,
                );
            }
        }
    }
    give_cvec(apack);
    give_cvec(bpack);
}

/// `C ← A·B` with a complex left and a **real** right operand (the mixed
/// product the DMD reconstruction uses). Same blocking; B is widened to
/// complex during packing, which leaves the arithmetic per element
/// identical to the dedicated mixed loop it replaces.
///
/// # Panics
/// Panics if inner dimensions disagree or `c` has the wrong shape.
pub fn cgemm_real(a: &CMat, b: &Mat, c: &mut CMat) {
    assert_eq!(a.cols(), b.rows(), "cgemm inner dimensions must agree");
    assert_eq!(
        c.shape(),
        (a.rows(), b.cols()),
        "cgemm output shape mismatch"
    );
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        c.as_mut_slice().fill(c64::ZERO);
        return;
    }
    let mut bpack = take_cvec(KC.min(k) * NC.min(n.next_multiple_of(CNR)));
    let mut apack = take_cvec(KC.min(k) * MC.min(m.next_multiple_of(CMR)));
    for jc in (0..n).step_by(NC) {
        let nc = NC.min(n - jc);
        let ncp = nc.next_multiple_of(CNR);
        for pc in (0..k).step_by(KC) {
            let kc = KC.min(k - pc);
            let mut off = 0;
            for j0 in (0..ncp).step_by(CNR) {
                let jw = CNR.min(nc - j0);
                for p in 0..kc {
                    let base = off + p * CNR;
                    let src = &b.row(pc + p)[jc + j0..][..jw];
                    for (dstv, &sv) in bpack[base..base + jw].iter_mut().zip(src) {
                        *dstv = c64::from_real(sv);
                    }
                    bpack[base + jw..base + CNR].fill(c64::ZERO);
                }
                off += kc * CNR;
            }
            let first_block = pc == 0;
            for ic in (0..m).step_by(MC) {
                let mc = MC.min(m - ic);
                let mcp = mc.next_multiple_of(CMR);
                let mut aoff = 0;
                for i0 in (0..mcp).step_by(CMR) {
                    let iw = CMR.min(mc - i0);
                    for p in 0..kc {
                        let base = aoff + p * CMR;
                        for ii in 0..iw {
                            apack[base + ii] = a.row(ic + i0 + ii)[pc + p];
                        }
                        for ii in iw..CMR {
                            apack[base + ii] = c64::ZERO;
                        }
                    }
                    aoff += kc * CMR;
                }
                cmacro_kernel(
                    &apack,
                    &bpack,
                    first_block,
                    c.as_mut_slice(),
                    ic,
                    mc,
                    mcp,
                    jc,
                    nc,
                    ncp,
                    n,
                    kc,
                );
            }
        }
    }
    give_cvec(apack);
    give_cvec(bpack);
}

#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn cmacro_kernel(
    apack: &[c64],
    bpack: &[c64],
    first_block: bool,
    cdst: &mut [c64],
    ic: usize,
    mc: usize,
    mcp: usize,
    jc: usize,
    nc: usize,
    ncp: usize,
    ldc: usize,
    kc: usize,
) {
    for (jp, j0) in (0..ncp).step_by(CNR).enumerate() {
        let bpanel = &bpack[jp * kc * CNR..][..kc * CNR];
        let nr = CNR.min(nc - j0);
        for (ip, i0) in (0..mcp).step_by(CMR).enumerate() {
            let apanel = &apack[ip * kc * CMR..][..kc * CMR];
            let mr = CMR.min(mc - i0);
            let coff = (ic + i0) * ldc + jc + j0;
            cmicro_kernel(
                kc,
                apanel,
                bpanel,
                first_block,
                &mut cdst[coff..],
                ldc,
                mr,
                nr,
            );
        }
    }
}

/// Complex `CMR × CNR` register tile (re/im pairs accumulated per element in
/// increasing `k`, same order as the scalar loop it replaces).
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn cmicro_kernel(
    kc: usize,
    apanel: &[c64],
    bpanel: &[c64],
    first_block: bool,
    c: &mut [c64],
    ldc: usize,
    mr: usize,
    nr: usize,
) {
    let mut acc = [[c64::ZERO; CNR]; CMR];
    for (aq, bq) in apanel
        .chunks_exact(CMR)
        .zip(bpanel.chunks_exact(CNR))
        .take(kc)
    {
        for i in 0..CMR {
            let ai = aq[i];
            for j in 0..CNR {
                let b = bq[j];
                let t = &mut acc[i][j];
                t.re += ai.re * b.re - ai.im * b.im;
                t.im += ai.re * b.im + ai.im * b.re;
            }
        }
    }
    // Spill via constant indices only, so `acc` itself stays in registers.
    let mut tile = [c64::ZERO; CMR * CNR];
    for i in 0..CMR {
        for j in 0..CNR {
            tile[i * CNR + j] = acc[i][j];
        }
    }
    for i in 0..mr {
        let trow = &tile[i * CNR..][..nr];
        let crow = &mut c[i * ldc..][..nr];
        if first_block {
            crow.copy_from_slice(trow);
        } else {
            for (cv, &av) in crow.iter_mut().zip(trow) {
                *cv += av;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Naive triple-loop reference, per-element `k`-ascending accumulation.
    fn naive(alpha: f64, a: &Mat, ta: Trans, b: &Mat, tb: Trans, beta: f64, c: &Mat) -> Mat {
        let get = |m: &Mat, t: Trans, i: usize, j: usize| match t {
            Trans::No => m[(i, j)],
            Trans::Yes => m[(j, i)],
        };
        let (mm, kk) = match ta {
            Trans::No => (a.rows(), a.cols()),
            Trans::Yes => (a.cols(), a.rows()),
        };
        let nn = match tb {
            Trans::No => b.cols(),
            Trans::Yes => b.rows(),
        };
        let mut out = Mat::zeros(mm, nn);
        for i in 0..mm {
            for j in 0..nn {
                let mut s = 0.0;
                for p in 0..kk {
                    s += get(a, ta, i, p) * get(b, tb, p, j);
                }
                out[(i, j)] = beta * c[(i, j)] + alpha * s;
            }
        }
        out
    }

    fn rel_err(x: &Mat, y: &Mat) -> f64 {
        x.fro_dist(y) / y.fro_norm().max(1.0)
    }

    #[test]
    fn all_transpose_combos_match_naive() {
        let m = 13;
        let k = 17;
        let n = 11;
        let mk = Mat::from_fn(m, k, |i, j| ((i * 7 + j * 3) % 13) as f64 - 6.0);
        let km = Mat::from_fn(k, m, |i, j| ((i * 5 + j) % 9) as f64 - 4.0);
        let kn = Mat::from_fn(k, n, |i, j| ((i + j * 11) % 17) as f64 - 8.0);
        let nk = Mat::from_fn(n, k, |i, j| ((i * 3 + j * 2) % 7) as f64 - 3.0);
        for (a, ta) in [(&mk, Trans::No), (&km, Trans::Yes)] {
            for (b, tb) in [(&kn, Trans::No), (&nk, Trans::Yes)] {
                let mut c = Mat::from_fn(m, n, |i, j| (i + j) as f64 * 0.25);
                let want = naive(0.5, a, ta, b, tb, 2.0, &c);
                gemm(0.5, a, ta, b, tb, 2.0, &mut c);
                assert!(rel_err(&c, &want) < 1e-13, "{ta:?}/{tb:?}");
            }
        }
    }

    #[test]
    fn awkward_sizes_match_naive() {
        // 1, MR±1, NR±1, and non-multiples of every block size.
        for &(m, k, n) in &[
            (1usize, 1usize, 1usize),
            (MR - 1, 2, NR - 1),
            (MR + 1, KC + 1, NR + 1),
            (MC + 3, 5, NC / 64 + 1),
            (33, 129, 65),
        ] {
            let a = Mat::from_fn(m, k, |i, j| ((i * 31 + j * 17) % 23) as f64 / 7.0 - 1.0);
            let b = Mat::from_fn(k, n, |i, j| ((i * 13 + j * 29) % 19) as f64 / 5.0 - 2.0);
            let mut c = Mat::zeros(m, n);
            let want = naive(1.0, &a, Trans::No, &b, Trans::No, 0.0, &c);
            gemm(1.0, &a, Trans::No, &b, Trans::No, 0.0, &mut c);
            assert!(rel_err(&c, &want) < 1e-13, "{m}x{k}x{n}");
        }
    }

    #[test]
    fn threaded_split_is_bitwise_stable() {
        let a = Mat::from_fn(97, 53, |i, j| ((i * 7 + j * 13) % 11) as f64 - 5.0);
        let b = Mat::from_fn(53, 61, |i, j| ((i * 5 + j * 3) % 9) as f64 - 4.0);
        let mut reference = Mat::zeros(97, 61);
        gemm_threaded(1, 1.0, &a, Trans::No, &b, Trans::No, 0.0, &mut reference);
        for t in [2usize, 3, 4, 8, 19] {
            let mut c = Mat::zeros(97, 61);
            gemm_threaded(t, 1.0, &a, Trans::No, &b, Trans::No, 0.0, &mut c);
            assert_eq!(c.as_slice(), reference.as_slice(), "threads={t}");
        }
    }

    #[test]
    fn small_shape_fast_path_is_bitwise_naive() {
        // Shapes on the fast path (m, n ≤ SMALL_DIM, k ≤ KC) take a direct
        // per-element ascending-k chain — exactly the naive oracle — so the
        // comparison is bitwise, not approximate. Straddle the threshold to
        // pin the boundary, and cross thread counts to show the path is
        // taken identically everywhere.
        for &(m, k, n) in &[
            (1usize, 1usize, 1usize),
            (4, 7, 3),
            (SMALL_DIM, KC, SMALL_DIM),
            (SMALL_DIM - 1, 40, SMALL_DIM),
            (16, 48, 6),
        ] {
            let a = Mat::from_fn(m, k, |i, j| ((i * 31 + j * 17) % 23) as f64 / 7.0 - 1.0);
            let b = Mat::from_fn(k, n, |i, j| ((i * 13 + j * 29) % 19) as f64 / 5.0 - 2.0);
            for beta in [0.0, 1.0, 0.5] {
                let c0 = Mat::from_fn(m, n, |i, j| (i * 3 + j) as f64 * 0.125 - 1.0);
                let want = naive(0.75, &a, Trans::No, &b, Trans::No, beta, &c0);
                let mut c = c0.clone();
                gemm(0.75, &a, Trans::No, &b, Trans::No, beta, &mut c);
                assert_eq!(c.as_slice(), want.as_slice(), "{m}x{k}x{n} beta={beta}");
                for t in [1usize, 2, 4] {
                    let mut ct = c0.clone();
                    gemm_threaded(t, 0.75, &a, Trans::No, &b, Trans::No, beta, &mut ct);
                    assert_eq!(ct.as_slice(), c.as_slice(), "{m}x{k}x{n} threads={t}");
                }
            }
        }
        // Just past the threshold the packed path runs; results must agree
        // with the oracle to rounding either way.
        let (m, k, n) = (SMALL_DIM + 1, 20, SMALL_DIM + 1);
        let a = Mat::from_fn(m, k, |i, j| ((i * 7 + j * 3) % 13) as f64 - 6.0);
        let b = Mat::from_fn(k, n, |i, j| ((i * 5 + j) % 9) as f64 - 4.0);
        let mut c = Mat::zeros(m, n);
        let want = naive(1.0, &a, Trans::No, &b, Trans::No, 0.0, &c);
        gemm(1.0, &a, Trans::No, &b, Trans::No, 0.0, &mut c);
        assert!(rel_err(&c, &want) < 1e-13);
    }

    #[test]
    fn empty_and_degenerate_shapes() {
        let a = Mat::zeros(0, 4);
        let b = Mat::zeros(4, 3);
        let mut c = Mat::zeros(0, 3);
        gemm(1.0, &a, Trans::No, &b, Trans::No, 0.0, &mut c);
        // k == 0 zeroes C under beta = 0 (even over NaN).
        let a = Mat::zeros(2, 0);
        let b = Mat::zeros(0, 2);
        let mut c = Mat::from_fn(2, 2, |_, _| f64::NAN);
        gemm(1.0, &a, Trans::No, &b, Trans::No, 0.0, &mut c);
        assert!(c.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn gemv_matches_gemm_column() {
        let a = Mat::from_fn(9, 7, |i, j| (i as f64 - 3.0) * 0.5 + j as f64);
        let x: Vec<f64> = (0..7).map(|i| i as f64 * 0.3 - 1.0).collect();
        let mut y = vec![0.0; 9];
        gemv(1.0, &a, Trans::No, &x, 0.0, &mut y);
        let xm = Mat::from_vec(7, 1, x.clone());
        let mut c = Mat::zeros(9, 1);
        gemm(1.0, &a, Trans::No, &xm, Trans::No, 0.0, &mut c);
        for (i, &yi) in y.iter().enumerate() {
            assert!((yi - c[(i, 0)]).abs() < 1e-12);
        }
    }
}
