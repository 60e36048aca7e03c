//! Streaming monitor: the paper's online setting end to end, hardened.
//!
//! Telemetry arrives in fixed-size chunks through a fault injector (NaN
//! runs, dropped samples, sensor dropout, and occasional rank-collapsing
//! pathological batches — the stream hygiene of real facility feeds); every
//! chunk passes the gap-repairing ingest guard and is folded into the
//! I-mrDMD state with `try_partial_fit`. Each round prints the model's
//! numerical health summary alongside drift and z-score status. Z-scores are
//! refreshed against a baseline band, hot/idle nodes are reported, and when
//! the root drift crosses the configured threshold a full refit is launched
//! on a background thread (the paper's "embarrassingly parallel" levels-2..L
//! refresh) and swapped in when ready — without stalling the stream.
//!
//! With `--checkpoint-dir` the model is snapshotted atomically every
//! `--checkpoint-every` chunks; `--resume` restarts from the newest
//! checkpoint instead of refitting from scratch (kill it mid-run and rerun
//! with `--resume` to see crash recovery).
//!
//! ```sh
//! cargo run --release --example streaming_monitor -- \
//!     --checkpoint-dir /tmp/monitor-ckpts --checkpoint-every 2
//! # … kill it, then:
//! cargo run --release --example streaming_monitor -- \
//!     --checkpoint-dir /tmp/monitor-ckpts --resume
//! ```

use mrdmd_suite::prelude::*;
use std::path::PathBuf;

struct Opts {
    checkpoint_dir: Option<PathBuf>,
    checkpoint_every: usize,
    resume: bool,
}

fn parse_opts() -> Opts {
    let mut o = Opts {
        checkpoint_dir: None,
        checkpoint_every: 1,
        resume: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--checkpoint-dir" => o.checkpoint_dir = it.next().map(PathBuf::from),
            "--checkpoint-every" => {
                o.checkpoint_every = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--checkpoint-every needs an integer")
            }
            "--resume" => o.resume = true,
            other => panic!("unknown flag `{other}` (try --checkpoint-dir DIR [--checkpoint-every K] [--resume])"),
        }
    }
    o
}

fn main() {
    let opts = parse_opts();
    let n_nodes = 128;
    let total = 3000;
    let chunk = 250;
    let mut machine = theta().scaled(n_nodes);
    machine.series_per_node = 1;
    let scenario = Scenario::sc_log(machine, total, 21);
    println!(
        "streaming {} series in chunks of {chunk} snapshots ({} injected anomalies)",
        scenario.n_series(),
        scenario.anomalies().len()
    );

    let mr = MrDmdConfig::builder()
        .dt(scenario.dt())
        .max_levels(5)
        .max_cycles(2)
        .rank(RankSelection::Svht)
        .build()
        .expect("static config is valid");
    let cfg = IMrDmdConfig::builder()
        .mr(mr)
        .drift_threshold(50.0)
        .keep_history(true)
        .build()
        .expect("static config is valid");

    // Resume from the newest checkpoint, or prime with the first chunk.
    let mut model: Option<IMrDmd> = None;
    if opts.resume {
        let dir = opts
            .checkpoint_dir
            .as_deref()
            .expect("--resume needs --checkpoint-dir");
        if let Some(path) = latest_checkpoint(dir).expect("scan checkpoint dir") {
            let m = load_checkpoint(&path).expect("checkpoint loads");
            println!(
                "resumed from {} at snapshot {} ({} modes)",
                path.display(),
                m.n_steps(),
                m.n_modes()
            );
            model = Some(m);
        } else {
            println!("no checkpoint found — cold start");
        }
    }
    let start = model.as_ref().map_or(0, IMrDmd::n_steps);

    // Corrupt the stream the way real facility feeds are corrupted, and
    // keep the clean stream around to regenerate already-seen history.
    let faults = FaultConfig {
        seed: 977,
        drop_prob: 0.001,
        nan_run_prob: 0.3,
        nan_run_max_len: 10,
        sensor_dropout_prob: 0.05,
        duplicate_prob: 0.0,
        pathological_prob: 0.05,
    };
    let stream = FaultInjector::with_start(
        ChunkStream::new(&scenario, start, total, chunk),
        faults,
        start,
    );
    let mut guard = IngestGuard::new(GapPolicy::Interpolate, scenario.n_series());
    let mut checkpointer = opts
        .checkpoint_dir
        .as_deref()
        .map(|dir| Checkpointer::new(dir, opts.checkpoint_every).expect("checkpoint dir"));

    let th = ZThresholds::default();
    let mut refit: Option<AsyncRefit> = None;
    let mut seen = scenario.generate(0, start);
    let mut total_gaps = 0usize;

    for (round, batch) in stream.enumerate() {
        let (report, repairs) = match &mut model {
            None => {
                // Prime: repair stand-alone, then cold-start the model.
                let (clean, repairs) = guard.repair(&batch).expect("first chunk repairable");
                model = Some(IMrDmd::fit(clean.as_ref().unwrap_or(&batch), &cfg));
                (None, repairs)
            }
            Some(m) => {
                let r = m
                    .try_partial_fit(&batch, &mut guard)
                    .expect("guarded ingest");
                let repairs = r.repairs.clone();
                (Some(r), repairs)
            }
        };
        let m = model.as_mut().expect("model primed above");
        total_gaps += repairs.gaps;
        // The guard repaired `batch`'s gaps before the fit; replaying the
        // clean generator keeps `seen` an honest record for refits.
        let clean_batch = scenario.generate(m.n_steps() - batch.cols(), m.n_steps());
        seen = if seen.cols() == 0 {
            clean_batch
        } else {
            seen.hstack(&clean_batch)
        };

        // Refresh z-scores against a mid-band baseline of the data so far.
        let mags = row_mode_magnitudes(m.nodes(), &BandFilter::all(), seen.rows());
        let baseline = select_baseline_rows(&seen, 40.0, 50.0);
        let status = if baseline.is_empty() {
            "no baseline band".to_string()
        } else {
            let z = ZScores::from_baseline(&mags, &baseline);
            let states = z.states(&th);
            let hot: Vec<usize> = states
                .iter()
                .enumerate()
                .filter(|(_, s)| **s == NodeState::Hot)
                .map(|(i, _)| i)
                .collect();
            let idle = states.iter().filter(|s| **s == NodeState::Idle).count();
            format!(
                "{} hot {:?}{}, {} idle, {:.0}% near baseline",
                hot.len(),
                &hot[..hot.len().min(6)],
                if hot.len() > 6 { "…" } else { "" },
                idle,
                z.fraction_near(&th) * 100.0
            )
        };
        println!(
            "round {:>2}: T = {:>5}, drift {:>9.2e}{}, {:>3} gaps repaired | {} | {}",
            round + 1,
            m.n_steps(),
            report.as_ref().map_or(0.0, |r| r.drift),
            if report.as_ref().is_some_and(|r| r.stale) {
                " [STALE]"
            } else {
                ""
            },
            repairs.repaired,
            status,
            m.health().summary()
        );

        // Periodic atomic checkpoint: kill the process at any point and
        // `--resume` picks up from the last one.
        if let Some(ck) = &mut checkpointer {
            if let Some(path) = ck.tick(m).expect("checkpoint write") {
                println!("          checkpoint → {}", path.display());
            }
        }

        // Drift exceeded: launch (or harvest) the asynchronous refit.
        if m.is_stale() && refit.is_none() {
            println!("          drift threshold exceeded — spawning background refit");
            refit = Some(AsyncRefit::spawn(seen.clone(), cfg));
        }
        if let Some(r) = &refit {
            match r.try_take() {
                Ok(Some(mut fresh)) => {
                    // The refit covers data up to its spawn point; replay any
                    // chunks that arrived since.
                    if fresh.n_steps() < m.n_steps() {
                        let missing = seen.cols_range(fresh.n_steps(), m.n_steps());
                        fresh.partial_fit(&missing);
                    }
                    println!(
                        "          background refit absorbed ({} modes → {} modes)",
                        m.n_modes(),
                        fresh.n_modes()
                    );
                    *m = fresh;
                    refit = None;
                }
                Ok(None) => {} // still running
                Err(e) => {
                    // A dead worker is a fact to report, not a hang to
                    // mistake for "still running".
                    println!("          background refit died ({e}) — keeping streamed model");
                    refit = None;
                }
            }
        }
    }
    if let Some(r) = refit {
        // Drain any in-flight refit so the thread finishes cleanly.
        let _ = r.take();
    }
    let model = model.expect("stream produced at least one chunk");

    // Final verdict against the injected ground truth.
    println!("\n{total_gaps} corrupted readings repaired in-stream");
    let mags = row_mode_magnitudes(model.nodes(), &BandFilter::all(), seen.rows());
    let baseline = select_baseline_rows(&seen, 40.0, 50.0);
    if !baseline.is_empty() {
        let z = ZScores::from_baseline(&mags, &baseline);
        let mut ranked: Vec<usize> = (0..z.z.len()).collect();
        ranked.sort_by(|&a, &b| z.z[b].partial_cmp(&z.z[a]).unwrap());
        println!("top-5 z-scores: {:?}", &ranked[..5]);
        for a in scenario.anomalies() {
            if let Anomaly::Overheat {
                node,
                start,
                end,
                delta,
            } = a
            {
                let rank = ranked.iter().position(|&n| n == *node).unwrap();
                println!(
                    "injected overheat on node {node} (+{delta:.0} °C over [{start},{end})) → z rank {rank} of {}",
                    z.z.len()
                );
            }
        }
    }
    println!(
        "final model: {} modes, depth {}, {} drift samples, health: {}",
        model.n_modes(),
        model.depth(),
        model.drift_log().len(),
        model.health().summary()
    );
}
