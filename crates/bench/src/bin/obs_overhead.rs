//! `obs_overhead` — release-mode gate on the observability layer's cost.
//!
//! Runs the same GEMM workload with the observer enabled and with
//! `Observer::disabled()`, interleaving trials to decorrelate thermal and
//! scheduler drift, and compares medians. Writes `BENCH_obs.json` and exits
//! nonzero if the enabled median exceeds the disabled median by more than
//! the threshold (default 2%, override with `OBS_OVERHEAD_MAX_PCT`).
//!
//! ```text
//! cargo run --release -p mrdmd-bench --bin obs_overhead [-- --out BENCH_obs.json]
//! ```

use hpc_linalg::obs::Observer;
use hpc_linalg::Mat;
use mrdmd_bench::median;
use std::hint::black_box;
use std::time::Instant;

const TRIALS: usize = 21;
const REPS: usize = 4;

fn test_matrix(m: usize, n: usize) -> Mat {
    Mat::from_fn(m, n, |i, j| {
        let x = (i as f64 * 0.7 + j as f64 * 0.3).sin();
        x + 1.0 / (1.0 + (i + 2 * j) as f64)
    })
}

/// One timed trial: `REPS` repetitions of the paper-shaped products that
/// dominate a fit (Gram product, basis expansion, reconstruction shape).
fn trial(snap: &Mat, u: &Mat, k: &Mat, v: &Mat) -> f64 {
    let start = Instant::now();
    for _ in 0..REPS {
        black_box(snap.t_matmul(snap));
        black_box(u.matmul(k));
        black_box(u.matmul_nt(v));
    }
    start.elapsed().as_secs_f64()
}

fn main() {
    let out_path = {
        let args: Vec<String> = std::env::args().collect();
        args.iter()
            .position(|a| a == "--out")
            .and_then(|i| args.get(i + 1).cloned())
            .unwrap_or_else(|| "BENCH_obs.json".to_string())
    };
    let threshold_pct: f64 = std::env::var("OBS_OVERHEAD_MAX_PCT")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2.0);

    let snap = test_matrix(1024, 150);
    let u = test_matrix(1024, 32);
    let k = test_matrix(32, 150);
    let v = test_matrix(150, 32);

    // Warm-up under both observers so code and page caches are hot.
    Observer::enabled().install();
    trial(&snap, &u, &k, &v);
    Observer::disabled().install();
    trial(&snap, &u, &k, &v);

    let mut on = Vec::with_capacity(TRIALS);
    let mut off = Vec::with_capacity(TRIALS);
    for _ in 0..TRIALS {
        Observer::enabled().install();
        on.push(trial(&snap, &u, &k, &v));
        Observer::disabled().install();
        off.push(trial(&snap, &u, &k, &v));
    }
    Observer::enabled().install();

    let on_med = median(&mut on);
    let off_med = median(&mut off);
    let overhead_pct = (on_med / off_med - 1.0) * 100.0;
    let pass = overhead_pct <= threshold_pct;

    let json = format!(
        "{{\n  \"bench\": \"obs_overhead\",\n  \"trials\": {TRIALS},\n  \"reps_per_trial\": {REPS},\n  \
         \"enabled_median_s\": {on_med:.6},\n  \"disabled_median_s\": {off_med:.6},\n  \
         \"overhead_pct\": {overhead_pct:.3},\n  \"threshold_pct\": {threshold_pct},\n  \"pass\": {pass}\n}}\n"
    );
    if let Err(e) = std::fs::write(&out_path, &json) {
        eprintln!("obs_overhead: cannot write {out_path}: {e}");
        std::process::exit(2);
    }
    println!(
        "observer enabled {on_med:.4} s vs disabled {off_med:.4} s -> {overhead_pct:+.2}% \
         (threshold {threshold_pct}%): {}",
        if pass { "PASS" } else { "FAIL" }
    );
    if !pass {
        std::process::exit(1);
    }
}
