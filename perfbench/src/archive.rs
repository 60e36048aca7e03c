//! `archive-replay`: an analyst's range queries against a mode archive.
//! Set-up fits a 64 × 65536 trace and writes it at the f64 and q16
//! tiers; the load opens an archive and replays a seeded mix of hour,
//! day and full-timeline ranges across both tiers.

use std::path::{Path, PathBuf};
use std::time::Instant;

use hpc_telemetry::{theta, Scenario};
use imrdmd::archive::{write_archive, ArchiveReader, QuantTier};
use imrdmd::{IMrDmd, IMrDmdConfig, MrDmdConfig, RankSelection};

use crate::host::{self, Counters};
use crate::report::{Outcome, PerOp};
use crate::schedule::Rng;
use crate::stats;
use crate::trace::{self, span, within};

/// Series (one per node).
const SERIES: usize = 64;
/// Timeline length, snapshots.
const STEPS: usize = 65_536;
/// Decomposition depth.
const LEVELS: usize = 8;
/// Traces per run, each drawn from the seed and set up once; `setup_s`
/// is the median set-up. What a range costs depends on how many modes
/// the fit of its trace keeps, so the queries rotate over several traces
/// and a run's figures do not rest on one trace's ranks.
const TRACES: usize = 8;
/// An hour and a day of 20 s snapshots.
const HOUR: usize = 180;
const DAY: usize = 4320;
/// Queries per cycle of the mix. A cycle asks one full-timeline
/// question, one day in five, and hours otherwise; runs end on a cycle
/// boundary, so every seed asks the same mix.
const CYCLE: usize = 100;
/// Seconds one cycle takes on a 2-core host, checks included. A run asks
/// a fixed number of cycles, sized from `--seconds` by this figure, so
/// the same seed always asks the same questions and a faster build does
/// the same work in less time.
const CYCLE_SECONDS: f64 = 4.0;

/// Length of query `i`'s range.
fn range_len(i: usize) -> usize {
    match i % CYCLE {
        0 => STEPS,
        j if j % 5 == 2 => DAY,
        _ => HOUR,
    }
}

/// Why the workload exists, recorded with every result.
pub const WHY: &str = "the read side of storage, bound by reconstruction over eight seeded traces; skips the fit, HTTP and WAL layers";

fn config() -> IMrDmdConfig {
    IMrDmdConfig {
        mr: MrDmdConfig {
            dt: 20.0,
            max_levels: LEVELS,
            max_cycles: 2,
            rank: RankSelection::Svht,
            ..MrDmdConfig::default()
        },
        ..IMrDmdConfig::default()
    }
}

/// Generates trace `j`, fits it, and writes both its archives.
fn setup(work: &Path, seed: u64, j: usize) -> std::io::Result<(IMrDmd, [PathBuf; 2])> {
    let mut machine = theta().scaled(SERIES);
    machine.series_per_node = 1;
    let trace_seed = seed.wrapping_mul(TRACES as u64).wrapping_add(j as u64);
    let data = Scenario::sc_log(machine, STEPS, trace_seed).generate(0, STEPS);
    let model = within("imrdmd.fit", || IMrDmd::fit(&data, &config()));
    let paths = [
        work.join(format!("trace{j}.f64.arch")),
        work.join(format!("trace{j}.q16.arch")),
    ];
    for (path, tier) in paths.iter().zip([QuantTier::F64, QuantTier::Q16]) {
        within("archive.write", || write_archive(&model, path, tier))
            .map_err(std::io::Error::other)?;
    }
    Ok((model, paths))
}

fn kind_name(len: usize) -> &'static str {
    match len {
        HOUR => "hour",
        DAY => "day",
        _ => "full",
    }
}

/// Runs the workload.
pub fn run(work: &Path, seed: u64, seconds: f64, traced: bool) -> std::io::Result<Outcome> {
    trace::set_enabled(traced);
    let (mut setups, mut setup_cpus) = (Vec::new(), Vec::new());
    let mut built = Vec::with_capacity(TRACES);
    let mut speed = host::HostSpeed::default();
    for j in 0..TRACES {
        speed.sample();
        let (start, cpu) = (Instant::now(), host::cpu_s());
        built.push(setup(work, seed, j)?);
        setups.push(start.elapsed().as_secs_f64());
        setup_cpus.push(host::cpu_s() - cpu);
    }

    let mut rng = Rng::new(seed, 0xA2C4);
    let before = Counters::capture();
    let (mut times, mut cpus) = (Vec::new(), Vec::new());
    let mut by_kind: [Vec<f64>; 3] = Default::default();
    let (mut admitted, mut blocks) = (0usize, 0u64);
    let (mut failed, mut worst_q16) = (0usize, 0.0f64);
    let queries = CYCLE * ((seconds / CYCLE_SECONDS).round() as usize).max(1);
    for i in 0..queries {
        if i % 10 == 0 {
            speed.sample();
        }
        let len = range_len(i);
        // Alternate tiers, shifting each cycle so every kind meets both;
        // rotate traces every five queries and every cycle, so every
        // kind meets every trace.
        let tier_ix = (i + i / CYCLE) % 2;
        let (model, paths) = &built[(i / 5 + i / CYCLE) % TRACES];
        let t0 = rng.below(STEPS - len + 1);
        let t1 = t0 + len;

        let root = span(trace::ROOT);
        let (op, cpu) = (Instant::now(), host::cpu_s());
        let replayed =
            within("archive.open", || ArchiveReader::open(&paths[tier_ix])).and_then(|mut r| {
                let m = within("archive.replay", || r.replay(t0, t1))?;
                Ok((m, r))
            });
        let secs = op.elapsed().as_secs_f64();
        cpus.push((host::cpu_s() - cpu) * 1e3);
        drop(root);
        let want = within("mrdmd.reconstruct", || model.reconstruct_range(t0, t1));
        let ok = match &replayed {
            Err(e) => {
                eprintln!("archive-replay: [{t0}, {t1}) failed: {e}");
                false
            }
            Ok((got, reader)) => {
                admitted += reader.index().iter().filter(|e| e.admits(t0, t1)).count();
                blocks += reader.blocks_read();
                if tier_ix == 0 {
                    got.as_slice()
                        .iter()
                        .zip(want.as_slice())
                        .all(|(a, b)| a.to_bits() == b.to_bits())
                        && got.shape() == want.shape()
                } else {
                    let norm = want
                        .as_slice()
                        .iter()
                        .fold(0.0f64, |m, v| m.max(v.abs()))
                        .max(1e-300);
                    let err = got
                        .as_slice()
                        .iter()
                        .zip(want.as_slice())
                        .fold(0.0f64, |m, (a, b)| m.max((a - b).abs()))
                        / norm;
                    worst_q16 = worst_q16.max(err);
                    err <= QuantTier::Q16.rel_error_bound() && got.shape() == want.shape()
                }
            }
        };
        if !ok {
            eprintln!(
                "archive-replay: tier {} replay of [{t0}, {t1}) is out of its bound",
                ["f64", "q16"][tier_ix]
            );
        }
        failed += usize::from(!ok);
        times.push(secs);
        by_kind[[HOUR, DAY, STEPS]
            .iter()
            .position(|&l| l == len)
            .unwrap_or(2)]
        .push(secs * 1e3);
    }
    trace::set_enabled(false);
    let delta = Counters::capture().since(&before);

    // Every cycle asks the same mix, so each gives a wall-time p50, a p90
    // (ten of its hundred queries lie beyond) and a throughput; the report
    // carries their medians. The gated figures are CPU time, which the
    // hypervisor's steal from this guest does not inflate.
    let ms: Vec<f64> = times.iter().map(|s| s * 1e3).collect();
    let busy: f64 = times.iter().sum();
    let cycle_cells: usize = (0..CYCLE).map(|i| SERIES * range_len(i)).sum();
    let (mut p50s, mut p90s, mut rates) = (Vec::new(), Vec::new(), Vec::new());
    for c in ms.chunks(CYCLE) {
        p50s.push(stats::median(c));
        p90s.push(stats::quantile(c, 0.90));
        rates.push(cycle_cells as f64 / (c.iter().sum::<f64>() * 1e-3).max(1e-9));
    }
    let p90: Option<Vec<f64>> = p90s.into_iter().collect();
    let p90 = p90.map(|v| stats::median(&v));
    let (p50, rate) = (stats::median(&p50s), stats::median(&rates));
    // The gated figures are set-up and hour-range CPU time, scaled to the
    // nominal host (see `host::HostSpeed`); the report carries them
    // unscaled too. Hour ranges are three queries in four; their CPU time
    // is the cost of a short query, whose interquartile mean averages over
    // the traces. Throughputs are reported, not gated: the full-timeline
    // replay writes 32 MiB per query, so its CPU time follows the memory
    // bandwidth other guests leave (30% apart between runs minutes apart)
    // more than the reference computation does.
    let kind_cpus = |len: usize| -> Vec<f64> {
        (0..cpus.len())
            .filter(|&i| range_len(i) == len)
            .map(|i| cpus[i])
            .collect()
    };
    let cpu_hour = stats::interquartile_mean(&kind_cpus(HOUR));
    let rate_of = |kinds: &[usize]| {
        let ix = (0..cpus.len()).filter(|&i| kinds.contains(&range_len(i)));
        let (cells, ms) = ix.fold((0.0, 0.0), |(c, m), i| {
            (c + (SERIES * range_len(i)) as f64, m + cpus[i])
        });
        cells / (ms * 1e-3).max(1e-9)
    };
    let short_rate = rate_of(&[HOUR, DAY]);
    let scale = speed.scale();
    let mut out = Outcome::new(times.len(), failed);
    out.metric("setup_s", stats::median(&setup_cpus) * scale, "s");
    out.metric("peak_rss_mb", host::peak_rss_mb(None), "MB");
    out.metric("cpu_ms_per_op", cpu_hour * scale, "ms");
    out.detail("host_speed_scale", scale);
    out.detail("setup_cpu_s", stats::median(&setup_cpus));
    out.detail("setup_wall_s", stats::median(&setups));
    out.detail("traces", TRACES as f64);
    for len in [HOUR, DAY, STEPS] {
        out.detail(
            &format!("{}_cpu_ms", kind_name(len)),
            stats::interquartile_mean(&kind_cpus(len)),
        );
    }
    out.detail("short_cells_per_cpu_s", short_rate);
    out.detail("replay_cells_per_cpu_s", rate_of(&[HOUR, DAY, STEPS]));
    out.detail("replay_mb_s", rate * 8.0 / 1e6);
    out.detail("range_p50_ms", p50);
    out.detail("range_p90_ms", p90.unwrap_or(f64::NAN));
    out.detail("ranges", times.len() as f64);
    out.detail("cycles", rates.len() as f64);
    for (k, samples) in [HOUR, DAY, STEPS].iter().zip(&by_kind) {
        out.detail(&format!("{}_p50_ms", kind_name(*k)), stats::median(samples));
        out.detail(&format!("{}_ranges", kind_name(*k)), samples.len() as f64);
    }
    out.detail("q16_worst_rel_err", worst_q16);
    out.detail("q16_rel_err_bound", QuantTier::Q16.rel_error_bound());

    if traced {
        let summary = trace::finish(Some(&work.with_file_name("spans-archive-replay.jsonl")))?;
        let n = times.len() as f64;
        let mut p = PerOp::new(&summary, &delta, n, busy);
        p.spans(&[
            ("archive.open_ms", "archive.open"),
            ("archive.replay_ms", "archive.replay"),
        ]);
        p.per_call("imrdmd.fit_ms", "imrdmd.fit");
        let reconstruct_ms = summary.layer("mrdmd.reconstruct").total_ns as f64 * 1e-6 / n.max(1.0);
        let replay_ms = summary.layer("archive.replay").total_ns as f64 * 1e-6 / n.max(1.0);
        p.set("mrdmd.reconstruct_ms", reconstruct_ms);
        p.set("archive.decode_ms", replay_ms - reconstruct_ms);
        p.set("archive.blocks_read", blocks as f64 / n.max(1.0));
        p.set(
            "archive.seek_efficiency",
            if blocks > 0 {
                admitted as f64 / blocks as f64
            } else {
                0.0
            },
        );
        out.layers = Some(p.finish(&out.metrics));
    }
    Ok(out)
}
