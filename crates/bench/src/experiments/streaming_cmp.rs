//! **Streaming-strategy ablation** (Sec. II-B): the paper argues its
//! incremental-SVD update is preferable to the windowed-mrDMD alternative
//! (overlapping refits with staggered stitching). This experiment streams
//! the same telemetry through three strategies and reports per-batch cost
//! and end-of-stream reconstruction error:
//!
//! - **I-mrDMD** — the paper's incremental update,
//! - **windowed mrDMD** — Gonzales et al.'s sliding windows,
//! - **full refit** — batch mrDMD recomputed on all data each batch (the
//!   accuracy ceiling / cost worst case).

use super::Opts;
use crate::harness::{row, timeit, ExperimentOutput, Workloads};
use imrdmd::prelude::*;

/// One strategy's outcome.
#[derive(Clone, Debug, serde::Serialize)]
pub struct StrategyResult {
    /// Strategy label.
    pub strategy: String,
    /// Mean seconds per streamed batch.
    pub mean_batch_secs: f64,
    /// Worst single batch.
    pub max_batch_secs: f64,
    /// Relative reconstruction error over the full timeline at the end.
    pub rel_error: f64,
    /// Modes retained at the end.
    pub modes: usize,
}

/// Runs the comparison and returns per-strategy results.
pub fn run(opts: &Opts) -> std::io::Result<Vec<StrategyResult>> {
    let mut out = ExperimentOutput::new(&opts.out_dir)?;
    let p = if opts.full { 1024 } else { 384 };
    let t0 = 2000;
    let batches = 8;
    let batch_len = 500;
    let total = t0 + batches * batch_len;
    let scenario = Workloads::sc_log(p, total, opts.seed);
    let data = scenario.generate(0, total);
    out.line(format!(
        "Streaming strategies: {p} series, prime {t0}, then {batches} × {batch_len} snapshots"
    ));
    let mr = Workloads::imrdmd_config(&scenario, 6).mr;
    let mut results = Vec::new();

    // --- I-mrDMD ---
    {
        let cfg = IMrDmdConfig::builder()
            .mr(mr)
            .build()
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidInput, e.to_string()))?;
        imrdmd::obs::reset();
        let mut model = IMrDmd::fit(&data.cols_range(0, t0), &cfg);
        let mut times = Vec::new();
        for b in 0..batches {
            let lo = t0 + b * batch_len;
            let batch = data.cols_range(lo, lo + batch_len);
            let (secs, _) = timeit(|| model.partial_fit(&batch));
            times.push(secs);
        }
        // Per-round timing + metrics artefacts for the dashboard's
        // observability panel (`round N: SECONDS` per line, then the
        // Prometheus rendering of the whole streaming run's counters).
        let mut timing = String::new();
        for (i, secs) in times.iter().enumerate() {
            use std::fmt::Write as _;
            let _ = writeln!(timing, "round {}: {secs:.6}", i + 1);
        }
        out.artefact("round_timings.txt", &timing)?;
        out.artefact(
            "metrics.prom",
            &imrdmd::obs::MetricsSnapshot::capture().to_prometheus(),
        )?;
        let rel = model.reconstruct().fro_dist(&data) / data.fro_norm();
        results.push(StrategyResult {
            strategy: "I-mrDMD".into(),
            mean_batch_secs: times.iter().sum::<f64>() / times.len() as f64,
            max_batch_secs: times.iter().copied().fold(0.0, f64::max),
            rel_error: rel,
            modes: model.n_modes(),
        });
    }

    // --- I-mrDMD + subtree refresh (this repo's extension of the paper's
    //     deferred "update levels 2..L" step): same streaming loop, then one
    //     parallel refresh of the stale deeper levels at the end. ---
    {
        let cfg = IMrDmdConfig {
            mr,
            keep_history: true,
            ..IMrDmdConfig::default()
        };
        let mut model = IMrDmd::fit(&data.cols_range(0, t0), &cfg);
        let mut times = Vec::new();
        for b in 0..batches {
            let lo = t0 + b * batch_len;
            let batch = data.cols_range(lo, lo + batch_len);
            let (secs, _) = timeit(|| model.partial_fit(&batch));
            times.push(secs);
        }
        let (refresh_secs, _) = timeit(|| model.refresh_subtrees());
        let rel = model.reconstruct().fro_dist(&data) / data.fro_norm();
        out.line(format!(
            "  (refresh_subtrees took {refresh_secs:.3} s once at the end)"
        ));
        results.push(StrategyResult {
            strategy: "I-mrDMD+refresh".into(),
            mean_batch_secs: times.iter().sum::<f64>() / times.len() as f64,
            max_batch_secs: times.iter().copied().fold(0.0, f64::max).max(refresh_secs),
            rel_error: rel,
            modes: model.n_modes(),
        });
    }

    // --- Windowed mrDMD (window = prime length, 25% overlap). ---
    {
        let wcfg = WindowedConfig {
            mr,
            window: t0,
            overlap: t0 / 4,
        };
        let mut model = WindowedMrDmd::fit(&data.cols_range(0, t0), &wcfg);
        let mut times = Vec::new();
        for b in 0..batches {
            let lo = t0 + b * batch_len;
            let batch = data.cols_range(lo, lo + batch_len);
            let (secs, _) = timeit(|| model.partial_fit(&batch));
            times.push(secs);
        }
        let rel = model.reconstruct().fro_dist(&data) / data.fro_norm();
        results.push(StrategyResult {
            strategy: "windowed".into(),
            mean_batch_secs: times.iter().sum::<f64>() / times.len() as f64,
            max_batch_secs: times.iter().copied().fold(0.0, f64::max),
            rel_error: rel,
            modes: model.n_modes(),
        });
    }

    // --- Full refit per batch. ---
    {
        let mut times = Vec::new();
        let mut last: Option<MrDmd> = None;
        for b in 0..batches {
            let hi = t0 + (b + 1) * batch_len;
            let window = data.cols_range(0, hi);
            let (secs, fit) = timeit(|| MrDmd::fit(&window, &mr));
            times.push(secs);
            last = Some(fit);
        }
        let fit = last.expect("at least one batch");
        let rel = fit.reconstruct().fro_dist(&data) / data.fro_norm();
        results.push(StrategyResult {
            strategy: "full refit".into(),
            mean_batch_secs: times.iter().sum::<f64>() / times.len() as f64,
            max_batch_secs: times.iter().copied().fold(0.0, f64::max),
            rel_error: rel,
            modes: fit.n_modes(),
        });
    }

    out.line(row(&[
        "strategy".into(),
        "mean s/batch".into(),
        "max s/batch".into(),
        "rel error".into(),
        "modes".into(),
    ]));
    for r in &results {
        out.line(row(&[
            r.strategy.clone(),
            format!("{:.4}", r.mean_batch_secs),
            format!("{:.4}", r.max_batch_secs),
            format!("{:.4}", r.rel_error),
            r.modes.to_string(),
        ]));
    }
    let get = |name: &str| results.iter().find(|r| r.strategy == name).unwrap();
    out.line(String::new());
    out.line(format!(
        "shape: I-mrDMD per-batch cost {:.3}s ≤ windowed {:.3}s ≤ refit {:.3}s; windowed forgets history (error {:.3} vs I-mrDMD {:.3})",
        get("I-mrDMD").mean_batch_secs,
        get("windowed").mean_batch_secs,
        get("full refit").mean_batch_secs,
        get("windowed").rel_error,
        get("I-mrDMD").rel_error,
    ));
    out.artefact(
        "streaming_cmp.json",
        &serde_json::to_string_pretty(&results).unwrap(),
    )?;
    out.finish("streaming_cmp")?;
    Ok(results)
}
