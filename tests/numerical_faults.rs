//! Numerical-fault robustness (fallible-core PR, satellite 3).
//!
//! The library contract under test: no finite input panics the numerical
//! core, forced solver non-convergence degrades the affected subtree
//! instead of killing the stream, health state survives checkpoints
//! bitwise, and degraded operation stays bitwise-deterministic across
//! thread counts.
//!
//! The fail points in `hpc_linalg::failpoint` are process-global, so every
//! test here — including the ones that never arm them — serialises through
//! one mutex, and armed tests disarm before releasing it.

use mrdmd_suite::core::imrdmd::ROOT_STALE_AFTER;
use mrdmd_suite::linalg::{failpoint, try_eig_real, try_lstsq_complex, Mat};
use mrdmd_suite::prelude::*;
use std::sync::{Mutex, MutexGuard};

static FAILPOINT_LOCK: Mutex<()> = Mutex::new(());

/// Serialises a test against the process-global fail points and guarantees
/// they are disarmed both on entry and on drop (even across a panic).
struct FailpointGuard(#[allow(dead_code)] MutexGuard<'static, ()>);

impl FailpointGuard {
    fn acquire() -> FailpointGuard {
        let g = FAILPOINT_LOCK
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        failpoint::disarm_all();
        FailpointGuard(g)
    }
}

impl Drop for FailpointGuard {
    fn drop(&mut self) {
        failpoint::disarm_all();
    }
}

const TAU: f64 = std::f64::consts::TAU;

fn signal(p: usize, t: usize) -> Mat {
    Mat::from_fn(p, t, |i, j| {
        let x = i as f64 / p as f64;
        let tt = j as f64;
        (TAU * 0.01 * tt + 2.0 * x).sin()
            + 0.4 * (TAU * 0.3 * tt + 4.0 * x).cos()
            + 0.02 * (TAU * 5.0 * tt + 9.0 * x).sin()
    })
}

fn cfg(n_threads: usize) -> IMrDmdConfig {
    IMrDmdConfig {
        mr: MrDmdConfig {
            dt: 1.0,
            max_levels: 4,
            max_cycles: 2,
            rank: RankSelection::Fixed(6),
            min_window: 16,
            n_threads,
            ..MrDmdConfig::default()
        },
        ..IMrDmdConfig::default()
    }
}

fn tmp(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("imrdmd-numerical-faults");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// Degenerate and ill-conditioned inputs flow through the `try_` APIs as
/// values — `Ok` or a typed error, never a panic.
#[test]
fn pathological_matrices_never_panic() {
    let _g = FailpointGuard::acquire();

    // Defective (Jordan-block) matrix: one eigenvalue, one eigenvector.
    let jordan = Mat::from_fn(4, 4, |i, j| {
        if i == j {
            2.0
        } else if j == i + 1 {
            1.0
        } else {
            0.0
        }
    });
    let _ = try_eig_real(&jordan);

    // Tightly clustered eigenvalues: diag(1, 1+ε, 1+2ε, …) under rotation.
    let n = 6;
    let clustered = Mat::from_fn(n, n, |i, j| {
        let d = if i == j { 1.0 + i as f64 * 1e-14 } else { 0.0 };
        d + 1e-14 * ((i * n + j) as f64).sin()
    });
    let _ = try_eig_real(&clustered);

    // Hilbert matrix (κ ≈ 1/ε at n = 12): eig, least squares, DMD.
    let hilbert = Mat::from_fn(12, 12, |i, j| 1.0 / (i + j + 1) as f64);
    let _ = try_eig_real(&hilbert);
    let ch = CMat::from_real(&hilbert);
    let rhs: Vec<c64> = (0..12).map(|i| c64::new(1.0 + i as f64, 0.0)).collect();
    let _ = try_lstsq_complex(&ch, &rhs);
    let _ = Dmd::try_fit(&hilbert, &DmdConfig::default());

    // Rank-0 and rank-1 snapshot batches.
    let zeros = Mat::zeros(8, 24);
    let _ = Dmd::try_fit(&zeros, &DmdConfig::default());
    let rank1 = Mat::from_fn(8, 24, |i, _| (i as f64 * 0.3).sin());
    let _ = Dmd::try_fit(&rank1, &DmdConfig::default());
    let const_cols = Mat::from_fn(8, 24, |_, j| j as f64);
    let _ = Dmd::try_fit(&const_cols, &DmdConfig::default());

    // The streaming tree absorbs a rank-collapsing batch without dying.
    let data = signal(8, 512);
    let mut model = IMrDmd::fit(&data, &cfg(1));
    model.partial_fit(&Mat::from_fn(8, 64, |_, _| 1.0));
    model.partial_fit(&Mat::zeros(8, 64));
    assert_eq!(model.n_steps(), 640);
    assert!(model.reconstruct().as_slice().iter().all(|v| v.is_finite()));
}

/// The acceptance criterion: forced eigensolver non-convergence leaves
/// `try_partial_fit` returning `Ok`, with the hit subtrees reported as
/// degraded in `health()` and the stream still advancing.
#[test]
fn forced_nonconvergence_degrades_instead_of_erroring() {
    let _g = FailpointGuard::acquire();
    let data = signal(12, 768);
    let mut model = IMrDmd::fit(&data.cols_range(0, 512), &cfg(1));
    assert!(model.health().all_healthy());
    let modes_before = model.n_modes();

    failpoint::arm_eig_nonconvergence(usize::MAX);
    let mut guard = IngestGuard::new(GapPolicy::Interpolate, 12);
    let report = model
        .try_partial_fit(&data.cols_range(512, 640), &mut guard)
        .expect("degraded operation is not an error");
    failpoint::disarm_all();

    assert!(report.new_faults > 0, "{report:?}");
    let h = model.health();
    assert!(!h.root.is_healthy(), "{h:?}");
    assert_eq!(h.root.label(), "degraded");
    assert!(h.root.cause().is_some());
    assert!(h.coverage < 1.0, "{h:?}");
    assert!(h.last_error.is_some());
    // The previous root modes keep serving: nothing was thrown away.
    assert_eq!(model.n_modes(), modes_before);
    assert_eq!(model.n_steps(), 640);
    assert!(model.reconstruct().as_slice().iter().all(|v| v.is_finite()));

    // A healthy batch heals the root and keeps streaming.
    model.partial_fit(&data.cols_range(640, 768));
    assert!(model.root_health().is_healthy());
    assert_eq!(model.n_steps(), 768);
}

/// SubtreeHealth transitions: Healthy → Degraded on the first failed root
/// solve, Stale after `ROOT_STALE_AFTER` consecutive failures (with the
/// original onset step preserved), and back to Healthy on recovery.
#[test]
fn root_health_walks_degraded_to_stale_and_recovers() {
    let _g = FailpointGuard::acquire();
    let data = signal(8, 1024);
    let mut model = IMrDmd::fit(&data.cols_range(0, 512), &cfg(1));
    assert_eq!(model.root_health().label(), "healthy");

    failpoint::arm_eig_nonconvergence(usize::MAX);
    let mut lo = 512;
    let mut onset = None;
    for k in 1..=ROOT_STALE_AFTER {
        model.partial_fit(&data.cols_range(lo, lo + 64));
        lo += 64;
        let h = model.root_health().clone();
        match (k, &h) {
            (k, SubtreeHealth::Degraded { since, .. }) if k < ROOT_STALE_AFTER => {
                let since = *since;
                *onset.get_or_insert(since) = since;
                assert_eq!(onset, Some(since), "onset must not move while failing");
            }
            (k, SubtreeHealth::Stale { since, cause }) if k == ROOT_STALE_AFTER => {
                assert_eq!(Some(*since), onset, "stale keeps the degraded onset");
                assert!(!cause.is_empty());
            }
            _ => panic!("unexpected health after failure {k}: {h:?}"),
        }
    }
    failpoint::disarm_all();

    model.partial_fit(&data.cols_range(lo, lo + 64));
    assert!(
        model.root_health().is_healthy(),
        "{:?}",
        model.root_health()
    );
    assert!(model.health().root.is_healthy());
}

/// A failed root re-solve inside `add_series` keeps the previous root (old
/// rows only) in service instead of panicking, and takes the same health
/// transition as a failed round: a new streak starts `Degraded` at the
/// current step, a running one keeps its onset and stays `Stale`.
#[test]
fn add_series_survives_a_failed_root_solve() {
    let _g = FailpointGuard::acquire();
    let mut model = IMrDmd::fit(&signal(8, 512), &cfg(1));
    failpoint::arm_eig_nonconvergence(1);
    model.add_series(&signal(2, 512));
    failpoint::disarm_all();
    assert_eq!(model.n_rows(), 10);
    assert_eq!(
        model.root().modes.rows(),
        8,
        "the old root stays in service"
    );
    match model.root_health() {
        SubtreeHealth::Degraded { since, .. } => assert_eq!(*since, 512),
        h => panic!("expected a degraded root, got {h:?}"),
    }
    assert!(model.health().last_error.is_some());
    assert!(model.reconstruct().as_slice().iter().all(|v| v.is_finite()));
    model.partial_fit(&signal(10, 576).cols_range(512, 576));
    assert!(
        model.root_health().is_healthy(),
        "{:?}",
        model.root_health()
    );
    assert_eq!(model.root().modes.rows(), 10);

    // A stale root stays stale, with its onset, when add_series fails too.
    let data = signal(8, 704);
    let mut model = IMrDmd::fit(&data.cols_range(0, 512), &cfg(1));
    failpoint::arm_eig_nonconvergence(usize::MAX);
    for lo in [512, 576, 640] {
        model.partial_fit(&data.cols_range(lo, lo + 64));
    }
    let onset = match model.root_health() {
        SubtreeHealth::Stale { since, .. } => *since,
        h => panic!("expected a stale root, got {h:?}"),
    };
    model.add_series(&signal(2, 704));
    failpoint::disarm_all();
    match model.root_health() {
        SubtreeHealth::Stale { since, .. } => assert_eq!(*since, onset),
        h => panic!("add_series must keep the stale root and its onset, got {h:?}"),
    }
}

/// Kill-and-resume: a checkpoint taken while degraded restores the entire
/// model — health state included — bitwise.
#[test]
fn degraded_health_survives_checkpoint_bitwise() {
    let _g = FailpointGuard::acquire();
    let data = signal(8, 704);
    let mut model = IMrDmd::fit(&data.cols_range(0, 512), &cfg(1));
    failpoint::arm_eig_nonconvergence(usize::MAX);
    model.partial_fit(&data.cols_range(512, 576));
    failpoint::disarm_all();
    assert!(!model.root_health().is_healthy());
    assert!(!model.fit_faults().is_empty());

    let path = tmp("degraded.ckpt");
    save_checkpoint(&model, &path).unwrap();
    let restored = load_checkpoint(&path).unwrap();

    let before = serde_json::to_string(&model).unwrap();
    let after = serde_json::to_string(&restored).unwrap();
    assert_eq!(before, after, "checkpoint round-trip must be bitwise");
    assert_eq!(
        serde_json::to_string(&model.health()).unwrap(),
        serde_json::to_string(&restored.health()).unwrap()
    );

    // Both copies absorb the identical continuation identically.
    let mut restored = restored;
    model.partial_fit(&data.cols_range(576, 704));
    restored.partial_fit(&data.cols_range(576, 704));
    assert_eq!(
        serde_json::to_string(&model).unwrap(),
        serde_json::to_string(&restored).unwrap()
    );
}

/// Degraded operation keeps the worker pool's determinism contract: with a
/// sticky (thread-order-independent) fail point armed, the fault log,
/// health snapshot, and reconstruction are bit-for-bit identical for
/// n_threads ∈ {1, 2, 4, 8}.
#[test]
fn degraded_state_is_bitwise_deterministic_across_thread_counts() {
    let _g = FailpointGuard::acquire();
    let data = signal(16, 768);
    let run = |n_threads: usize| -> (String, String, Vec<u64>) {
        let mut model = IMrDmd::fit(&data.cols_range(0, 512), &cfg(n_threads));
        failpoint::arm_eig_nonconvergence(usize::MAX);
        model.partial_fit(&data.cols_range(512, 768));
        failpoint::disarm_all();
        let health = serde_json::to_string(&model.health()).unwrap();
        // The config serialises its own n_threads knob; pin it so the state
        // comparison sees only numerical content.
        model.set_n_threads(1);
        let state = serde_json::to_string(&model).unwrap();
        let rec: Vec<u64> = model
            .reconstruct()
            .as_slice()
            .iter()
            .map(|v| v.to_bits())
            .collect();
        (health, state, rec)
    };
    let reference = run(1);
    assert!(reference.0.contains("egraded"), "{}", reference.0);
    for n in [2, 4, 8] {
        let got = run(n);
        assert_eq!(got.0, reference.0, "health diverged at n_threads = {n}");
        assert_eq!(got.2, reference.2, "reconstruction diverged at n = {n}");
        assert_eq!(got.1, reference.1, "model state diverged at n = {n}");
    }
}

/// The telemetry injector's pathological mode (rank-collapsing batches)
/// streams end to end through the guarded ingest: every batch is absorbed,
/// nothing panics, and the health surface stays finite and readable.
#[test]
fn pathological_stream_batches_keep_streaming() {
    let _g = FailpointGuard::acquire();
    let mut machine = theta().scaled(16);
    machine.series_per_node = 1;
    let scenario = Scenario::sc_log(machine, 1000, 17);
    let faults = FaultConfig {
        seed: 31,
        pathological_prob: 1.0,
        ..FaultConfig::none(31)
    };
    let mut stream = FaultInjector::new(ChunkStream::new(&scenario, 0, 1000, 125), faults);
    let first = stream.next().unwrap();
    let mut guard = IngestGuard::new(GapPolicy::Interpolate, 16);
    let c = IMrDmdConfig {
        mr: MrDmdConfig {
            dt: scenario.dt(),
            max_levels: 4,
            rank: RankSelection::Svht,
            ..MrDmdConfig::default()
        },
        ..IMrDmdConfig::default()
    };
    let mut model = IMrDmd::fit(&first, &c);
    for batch in stream.by_ref() {
        model
            .try_partial_fit(&batch, &mut guard)
            .expect("rank-collapsed batches must not error the stream");
    }
    assert_eq!(model.n_steps(), 1000);
    assert!(stream
        .events()
        .iter()
        .all(|e| matches!(e, FaultEvent::PathologicalBatch { .. })));
    assert_eq!(stream.events().len(), 8);
    let h = model.health();
    assert!(h.coverage >= 0.0 && h.coverage <= 1.0);
    assert!(h.solver.isvd_drift.is_finite());
    assert!(model.reconstruct().as_slice().iter().all(|v| v.is_finite()));
    // The summary renders without surprises either way.
    assert!(h.summary().contains("nodes"), "{}", h.summary());
}
