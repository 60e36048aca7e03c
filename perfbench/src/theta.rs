//! `theta-stream`: the paper's Table I shape in the library. 1000 Theta
//! SC-log series, 6 levels, exact SVHT fit: `IMrDmd::fit` on a 2000-step
//! window, then `try_partial_fit` absorbs a run of 250-step batches. A
//! run repeats fit-then-stream [`REPS`] times, each on its own timeline
//! drawn from the seed, and reports medians over the repetitions, so a
//! slow spell of the host or an unusual timeline moves one repetition,
//! not the result.

use std::path::Path;
use std::time::Instant;

use hpc_linalg::Mat;
use hpc_telemetry::{theta, Scenario};
use imrdmd::{GapPolicy, IMrDmd, IMrDmdConfig, IngestGuard, MrDmdConfig, RankSelection};

use crate::host::{self, Counters};
use crate::report::{Outcome, PerOp};
use crate::stats;
use crate::trace::{self, span, within};

/// Series (one per node).
const SERIES: usize = 1000;
/// Decomposition depth.
const LEVELS: usize = 6;
/// Initial fit window, snapshots.
const INIT: usize = 2000;
/// Snapshots per partial fit.
const BATCH: usize = 250;
/// Batches per second of `--seconds`, over all repetitions. A run absorbs
/// a fixed number of batches, sized so that it lasts about `--seconds` on
/// a 2-core host: the same seed then always streams the same timeline,
/// and a faster build does the same work in less time instead of more.
const BATCHES_PER_SECOND: f64 = 8.0;
/// Fewest batches a run absorbs: each repetition's p75 needs ten samples
/// beyond it.
const MIN_BATCHES: usize = 200;
/// Repetitions of fit-then-stream per run; `setup_s` is the median fit.
const REPS: usize = 5;
/// Relative Frobenius error the reconstruction of each repetition's whole
/// streamed timeline must stay within: the bound the repository's
/// streaming tests hold `IMrDmd::reconstruct` to.
const MAX_REL_ERR: f64 = 0.5;
/// Batches replayed single-threaded to check the measured stream against.
const REPLAY_BATCHES: usize = 8;
/// Snapshots per window the timeline error is computed over (bounds the
/// memory of one reconstruction).
const ERR_WINDOW: usize = 500;

/// Why the workload exists, recorded with every result.
pub const WHY: &str = "kernel-bound: fit and partial fit on the paper's Table I shape, skipping the serving and storage layers";

fn scenario(seed: u64, batches: usize) -> Scenario {
    let mut machine = theta().scaled(SERIES);
    machine.series_per_node = 1;
    Scenario::sc_log(machine, INIT + BATCH * batches, seed)
}

/// The paper's configuration: 6 levels, SVHT rank, exact fits.
fn config(dt: f64) -> IMrDmdConfig {
    IMrDmdConfig {
        mr: MrDmdConfig {
            dt,
            max_levels: LEVELS,
            max_cycles: 2,
            rank: RankSelection::Svht,
            ..MrDmdConfig::default()
        },
        isvd_max_rank: 48,
        drift_threshold: None,
        keep_history: false,
        auto_refresh: false,
    }
}

/// Squared error and squared norm of the reconstruction of `[t0, t1)`,
/// and whether every reconstructed value is finite.
fn err_parts(model: &IMrDmd, sc: &Scenario, t0: usize, t1: usize) -> (f64, f64, bool) {
    let want: Mat = sc.generate(t0, t1);
    let got = model.reconstruct_range(t0, t1);
    let (mut num, mut den) = (0.0f64, 0.0f64);
    for (a, b) in want.as_slice().iter().zip(got.as_slice()) {
        num += (a - b) * (a - b);
        den += a * a;
    }
    (num, den, got.as_slice().iter().all(|v| v.is_finite()))
}

/// Relative error of the whole timeline `[0, steps)`, of its worst
/// `ERR_WINDOW`-step window, and of the initial window; plus finiteness.
struct TimelineErr {
    whole: f64,
    worst: f64,
    head: f64,
    finite: bool,
}

fn timeline_err(model: &IMrDmd, sc: &Scenario, steps: usize) -> TimelineErr {
    let (mut num, mut den, mut worst, mut finite) = (0.0, 0.0, 0.0f64, true);
    let (mut head_num, mut head_den) = (0.0, 0.0);
    for t0 in (0..steps).step_by(ERR_WINDOW) {
        let (n, d, f) = err_parts(model, sc, t0, (t0 + ERR_WINDOW).min(steps));
        num += n;
        den += d;
        if t0 < INIT {
            head_num += n;
            head_den += d;
        }
        worst = worst.max((n / d.max(1e-300)).sqrt());
        finite &= f;
    }
    TimelineErr {
        whole: (num / den.max(1e-300)).sqrt(),
        worst,
        head: (head_num / head_den.max(1e-300)).sqrt(),
        finite,
    }
}

/// Runs the workload.
pub fn run(work: &Path, seed: u64, seconds: f64, traced: bool) -> std::io::Result<Outcome> {
    let total = ((seconds * BATCHES_PER_SECOND).round() as usize).max(MIN_BATCHES);
    let batches = total.div_ceil(REPS);
    let mut delta = Counters::default();
    let (mut setups, mut setup_cpus) = (Vec::with_capacity(REPS), Vec::with_capacity(REPS));
    let mut cpus: Vec<f64> = Vec::with_capacity(REPS * batches);
    let mut speed = host::HostSpeed::default();
    let mut fits = Vec::with_capacity(REPS);
    let (mut rep_p50, mut rep_p75, mut rep_rate) = (Vec::new(), Vec::new(), Vec::new());
    let mut ms: Vec<f64> = Vec::with_capacity(REPS * batches);
    let (mut failed, mut new_faults, mut newest) = (0usize, 0usize, 0.0f64);
    let mut errs: Vec<TimelineErr> = Vec::with_capacity(REPS);
    let mut last = None;
    for rep in 0..REPS {
        let sc = scenario(
            seed.wrapping_mul(REPS as u64).wrapping_add(rep as u64),
            batches,
        );
        let cfg = config(sc.dt());
        trace::set_enabled(traced);
        let before = Counters::capture();
        let (start, cpu) = (Instant::now(), host::cpu_s());
        let window = sc.generate(0, INIT);
        let fit_start = Instant::now();
        let mut model = within("imrdmd.fit", || IMrDmd::fit(&window, &cfg));
        fits.push(fit_start.elapsed().as_secs_f64());
        setups.push(start.elapsed().as_secs_f64());
        setup_cpus.push(host::cpu_s() - cpu);
        let faults_before = model.fit_faults().len();
        // The last repetition is checked against a single-threaded replay.
        let checked = rep + 1 == REPS;
        let mut serial = checked.then(|| model.clone());
        if let Some(s) = serial.as_mut() {
            s.set_n_threads(1);
        }
        let mut at_replay = None;
        let mut guard = IngestGuard::new(GapPolicy::Interpolate, SERIES);
        let mut times = Vec::with_capacity(batches);
        let mut t = INIT;
        for b in 0..batches {
            if b % 4 == 0 {
                speed.sample();
            }
            let batch = sc.generate(t, t + BATCH);
            let _root = span(trace::ROOT);
            let (op, cpu) = (Instant::now(), host::cpu_s());
            let r = within("imrdmd.partial_fit", || {
                model.try_partial_fit(&batch, &mut guard)
            });
            times.push(op.elapsed().as_secs_f64() * 1e3);
            cpus.push((host::cpu_s() - cpu) * 1e3);
            failed += usize::from(r.is_err());
            t += BATCH;
            if checked && times.len() == REPLAY_BATCHES {
                at_replay = Some(model.clone());
            }
        }
        rep_p50.push(stats::median(&times));
        rep_p75.extend(stats::quantile(&times, 0.75));
        rep_rate
            .push((SERIES * BATCH * batches) as f64 / (times.iter().sum::<f64>() * 1e-3).max(1e-9));
        ms.extend_from_slice(&times);
        // The error evaluation below is not part of the measured work.
        delta = delta.plus(&Counters::capture().since(&before));
        trace::set_enabled(false);
        new_faults += model.fit_faults().len() - faults_before;
        let (n, d, _) = err_parts(&model, &sc, t - BATCH, t);
        newest = newest.max((n / d.max(1e-300)).sqrt());
        errs.push(timeline_err(&model, &sc, t));
        last = Some((sc, serial, at_replay));
    }
    let (sc, serial, at_replay) = last.expect("at least one repetition");

    // Checks: no new fit faults; the parallel stream equals, bitwise, a
    // single-threaded replay of its first batches; every repetition's
    // whole streamed timeline reconstructs within the bound, with every
    // value finite.
    let replay_ok = at_replay.zip(serial).is_some_and(|(m, mut serial)| {
        let mut guard = IngestGuard::new(GapPolicy::Interpolate, SERIES);
        for b in 0..REPLAY_BATCHES {
            let t0 = INIT + b * BATCH;
            if serial
                .try_partial_fit(&sc.generate(t0, t0 + BATCH), &mut guard)
                .is_err()
            {
                return false;
            }
        }
        let end = INIT + REPLAY_BATCHES * BATCH;
        let (a, b) = (
            m.reconstruct_range(INIT, end),
            serial.reconstruct_range(INIT, end),
        );
        m.n_modes() == serial.n_modes()
            && a.as_slice()
                .iter()
                .zip(b.as_slice())
                .all(|(x, y)| x.to_bits() == y.to_bits())
    });
    let worst_of = |f: fn(&TimelineErr) -> f64| errs.iter().map(f).fold(0.0f64, f64::max);
    let whole = worst_of(|e| e.whole);
    let checks = [
        ("no new fit faults", new_faults == 0),
        ("bitwise equal to a single-threaded replay", replay_ok),
        ("whole-timeline error within bound", whole <= MAX_REL_ERR),
        ("finite reconstruction", errs.iter().all(|e| e.finite)),
    ];
    for (what, ok) in checks {
        if !ok {
            eprintln!("theta-stream: check failed: {what} (whole-timeline error {whole:.4} against {MAX_REL_ERR}, {new_faults} new fit faults)");
        }
        failed += usize::from(!ok);
    }

    // The gated figures are CPU time scaled to the nominal host (see
    // `host::HostSpeed`). The wall-time figures in the report are
    // medians over repetitions (the p75 of each repetition's batches), so a
    // slow spell of the host during one repetition does not move them; the
    // pooled p90 is reported too.
    let p75 = (rep_p75.len() == REPS).then(|| stats::median(&rep_p75));
    let p90 = stats::quantile(&ms, 0.90);
    let (p50, rate) = (stats::median(&rep_p50), stats::median(&rep_rate));

    let cpu_p50 = stats::median(&cpus);
    let cpu_rate =
        (SERIES * BATCH * cpus.len()) as f64 / (cpus.iter().sum::<f64>() * 1e-3).max(1e-9);
    let scale = speed.scale();
    let mut out = Outcome::new(ms.len() + checks.len(), failed);
    out.metric("setup_s", stats::median(&setup_cpus) * scale, "s");
    out.metric("peak_rss_mb", host::peak_rss_mb(None), "MB");
    out.metric("cpu_ms_per_op", cpu_p50 * scale, "ms");
    out.detail("host_speed_scale", scale);
    out.detail("setup_cpu_s", stats::median(&setup_cpus));
    out.detail("setup_wall_s", stats::median(&setups));
    out.detail("partial_fit_cpu_p50_ms", cpu_p50);
    out.detail("stream_cells_per_cpu_s", cpu_rate);
    out.detail("initial_fit_s", stats::median(&fits));
    out.detail("partial_fit_p50_ms", p50);
    out.detail("partial_fit_p75_ms", p75.unwrap_or(f64::NAN));
    out.detail("partial_fit_p90_ms", p90.unwrap_or(f64::NAN));
    out.detail("stream_cells_per_s", rate);
    out.detail("repetitions", REPS as f64);
    out.detail("batches", ms.len() as f64);
    out.detail("timeline_steps", (INIT + BATCH * batches) as f64);
    out.detail("timeline_rel_err", whole);
    out.detail("timeline_rel_err_bound", MAX_REL_ERR);
    out.detail("initial_window_rel_err", worst_of(|e| e.head));
    out.detail("worst_window_rel_err", worst_of(|e| e.worst));
    out.detail("newest_batch_rel_err", newest);
    out.detail("new_fit_faults", new_faults as f64);

    if traced {
        let summary = trace::finish(Some(&work.with_file_name("spans-theta-stream.jsonl")))?;
        let busy_s = ms.iter().sum::<f64>() * 1e-3;
        let mut p = PerOp::new(&summary, &delta, ms.len() as f64, busy_s);
        p.per_call("imrdmd.fit_ms", "imrdmd.fit");
        p.per_call("imrdmd.partial_fit_ms", "imrdmd.partial_fit");
        out.layers = Some(p.finish(&out.metrics));
    }
    Ok(out)
}
