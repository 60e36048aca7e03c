//! Evaluation oracle for the mrDMD reconstruction (Eqs. 6–7).
//!
//! A naive evaluator written here, reading only `ModeSet`'s public fields,
//! must agree bit for bit with `reconstruct_range`, `forecast` and the f64
//! archive replay. It fixes the per-element operation order the library
//! promises: nodes in `nodes()` order, and within a node the modes in order
//! through `c64::mul_add`, with each node's real part added to the element.

use mrdmd_suite::prelude::*;

const TAU: f64 = std::f64::consts::TAU;

fn signal(p: usize, t: usize) -> Mat {
    Mat::from_fn(p, t, |i, j| {
        let x = i as f64 / p as f64;
        let tt = j as f64;
        (TAU * 0.004 * tt + 2.0 * x).sin()
            + 0.4 * (TAU * 0.05 * tt + 4.0 * x).cos()
            + 0.02 * (TAU * 0.4 * tt + 9.0 * x).sin()
    })
}

fn cfg(n_threads: usize) -> IMrDmdConfig {
    IMrDmdConfig {
        mr: MrDmdConfig {
            dt: 1.0,
            max_levels: 5,
            max_cycles: 2,
            rank: RankSelection::Fixed(6),
            min_window: 16,
            n_threads,
            ..MrDmdConfig::default()
        },
        ..IMrDmdConfig::default()
    }
}

/// `Re Σⱼ φᵢⱼ·e^{ωⱼ·t}·bⱼ` (Eq. 6) of one node at global row `row` and
/// absolute snapshot `abs`, with `t = (abs − start)·dt`; `None` when the
/// node has no modes or does not cover the row.
fn node_value(node: &ModeSet, row: usize, abs: usize, dt: f64) -> Option<f64> {
    let local = row.checked_sub(node.row_offset)?;
    if node.n_modes() == 0 || local >= node.modes.rows() {
        return None;
    }
    let t = (abs - node.start) as f64 * dt;
    let mut acc = c64::ZERO;
    let terms = node.modes.row(local).iter().zip(&node.omegas);
    for ((&phi, &omega), &b) in terms.zip(&node.amplitudes) {
        acc = acc.mul_add(phi, (omega * t).exp() * b);
    }
    Some(acc.re)
}

/// Sums, element by element, every node in `nodes()` order that `admits`
/// the snapshot, over absolute snapshots `cols`.
fn oracle(
    model: &IMrDmd,
    cols: std::ops::Range<usize>,
    admits: impl Fn(&ModeSet, usize) -> bool,
) -> Mat {
    let dt = model.config().mr.dt;
    let t0 = cols.start;
    let mut out = Mat::zeros(model.n_rows(), cols.len());
    for row in 0..model.n_rows() {
        for abs in cols.clone() {
            for node in model.nodes().filter(|n| admits(n, abs)) {
                if let Some(v) = node_value(node, row, abs, dt) {
                    out[(row, abs - t0)] += v;
                }
            }
        }
    }
    out
}

fn assert_bitwise(got: &Mat, want: &Mat, what: &str) {
    assert_eq!(got.shape(), want.shape(), "{what}: shape");
    for (k, (a, b)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
        assert!(
            a.to_bits() == b.to_bits(),
            "{what}: element {k} is {a:e}, the oracle says {b:e}"
        );
    }
}

fn scratch(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("imrdmd-mode-eval-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

#[test]
fn naive_eq6_oracle_matches_reconstruction_forecast_and_replay() {
    // 40 rows × 2048 snapshots. The evaluator works in tiles of 64
    // columns, and `reconstruct_range` hands each worker a column tile of
    // at least 32 768 elements (832 columns at 40 rows), so the full range
    // splits 832 + 832 + 384 with a ragged last tile. The tree mixes a
    // batch fit, a streamed round and an `add_series` subtree, so nodes
    // with a nonzero `row_offset` take part, and its deepest windows (32
    // and 112 snapshots) are narrower than a tile or end mid-tile.
    let data = signal(40, 2048);
    let mut reference: Option<Vec<u64>> = None;
    for n_threads in [1usize, 2, 4] {
        let mut model = IMrDmd::fit(&data.rows_range(0, 36).cols_range(0, 1792), &cfg(n_threads));
        model.partial_fit(&data.rows_range(0, 36).cols_range(1792, 2048));
        model.add_series(&data.rows_range(36, 40));
        assert_eq!((model.n_rows(), model.n_steps()), (40, 2048));
        assert!(model.nodes().any(|n| n.row_offset == 36 && n.n_modes() > 0));
        assert!(model.nodes().any(|n| n.window < 64 && n.n_modes() > 0));

        // The full range; ranges starting and ending mid-tile; one narrower
        // than a tile that straddles node boundaries at 1024 and 1792.
        let in_window = |n: &ModeSet, abs: usize| abs >= n.start && abs < n.start + n.window;
        for (t0, t1) in [
            (0, 2048),
            (100, 1900),
            (37, 1830),
            (1000, 1030),
            (1770, 1801),
        ] {
            let want = oracle(&model, t0..t1, in_window);
            let what = format!("reconstruct_range({t0}, {t1}) at n_threads {n_threads}");
            assert_bitwise(&model.reconstruct_range(t0, t1), &want, &what);

            let path = scratch(&format!("m{n_threads}-{t0}-{t1}.arch"));
            write_archive(&model, &path, QuantTier::F64).unwrap();
            let replayed = ArchiveReader::open(&path).unwrap().replay(t0, t1).unwrap();
            let what = format!("f64 replay({t0}, {t1}) at n_threads {n_threads}");
            assert_bitwise(&replayed, &want, &what);
            let _ = std::fs::remove_file(&path);
        }

        // The forecast extrapolates the nodes whose window ends at the edge.
        let t = model.n_steps();
        let horizon = 24;
        let at_edge = |n: &ModeSet, _: usize| n.start + n.window == t;
        let want = oracle(&model, t..t + horizon, at_edge);
        let what = format!("forecast({horizon}) at n_threads {n_threads}");
        assert_bitwise(&model.forecast(horizon), &want, &what);

        // Every thread count yields the same bits.
        let bits: Vec<u64> = want.as_slice().iter().map(|v| v.to_bits()).collect();
        match &reference {
            Some(r) => assert_eq!(&bits, r, "forecast oracle moved at n_threads {n_threads}"),
            None => reference = Some(bits),
        }
    }
}
