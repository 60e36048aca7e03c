//! `perfbench` — the repository benchmark.
//!
//! ```text
//! bash perfbench/run.sh --workload fleet-ingest|theta-stream|archive-replay \
//!     --seed N --seconds S --trace 0|1
//! bash perfbench/run.sh --overhead
//! ```
//!
//! Each run builds its inputs from `--seed`, measures for `--seconds`,
//! checks the program's outputs, and prints a report line (provenance and
//! named figures) followed by the result line: `{"correct", "attempted",
//! "failed", "metrics"}` with the end-to-end metrics (`--trace 0`) or the
//! per-layer metrics (`--trace 1`). It exits nonzero when a check fails.
//! Scratch files live under `.bench_build/perfbench/` in the working
//! directory; every run's metrics are also appended to `results.tsv`
//! there, which `--overhead` reads to report the traced-vs-untraced
//! difference of each end-to-end metric.

mod archive;
mod client;
mod fleet;
mod host;
mod report;
mod schedule;
mod stats;
mod theta;
mod trace;
mod tserver;

use std::collections::BTreeMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Where runs keep scratch files and the results log.
fn scratch_root() -> PathBuf {
    PathBuf::from(".bench_build").join("perfbench")
}

/// A workload: runs in a scratch directory for a seed, a duration and a
/// trace flag.
type Runner = fn(&Path, u64, f64, bool) -> std::io::Result<report::Outcome>;

/// One metric's untraced and traced values.
type Samples = (Vec<f64>, Vec<f64>);

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut map = BTreeMap::new();
    let mut it = args.iter();
    while let Some(k) = it.next() {
        let key = k
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument `{k}`"))?;
        let v = it.next().ok_or_else(|| format!("`{k}` needs a value"))?;
        map.insert(key.to_string(), v.clone());
    }
    let get = |k: &str| map.get(k).ok_or_else(|| format!("missing --{k}"));
    let seconds: f64 = get("seconds")?
        .parse()
        .map_err(|_| "--seconds must be a number".to_string())?;
    if !seconds.is_finite() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: get("workload")?.clone(),
        seed: get("seed")?
            .parse()
            .map_err(|_| "--seed must be a non-negative integer".to_string())?,
        seconds,
        trace: match get("trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not `{other}`")),
        },
    })
}

/// Appends one run's metrics to the results log as
/// `workload<TAB>seed<TAB>trace<TAB>git_rev<TAB>seconds<TAB>name=value...`.
fn append_result(a: &Args, metrics: &[(String, f64, String)]) -> std::io::Result<()> {
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(scratch_root().join("results.tsv"))?;
    let values: Vec<String> = metrics
        .iter()
        .map(|(n, v, _)| format!("{n}={v:?}"))
        .collect();
    writeln!(
        f,
        "{}\t{}\t{}\t{}\t{:?}\t{}",
        a.workload,
        a.seed,
        u8::from(a.trace),
        host::git_rev(),
        a.seconds,
        values.join("\t")
    )
}

fn run(a: &Args) -> Result<ExitCode, String> {
    let (why, runner): (&str, Runner) = match a.workload.as_str() {
        "fleet-ingest" => (fleet::WHY, fleet::run),
        "theta-stream" => (theta::WHY, theta::run),
        "archive-replay" => (archive::WHY, archive::run),
        other => return Err(format!("unknown workload `{other}`")),
    };
    let work = scratch_root().join(format!("{}-{}", a.workload, std::process::id()));
    let _ = std::fs::remove_dir_all(&work);
    std::fs::create_dir_all(&work).map_err(|e| format!("cannot create {}: {e}", work.display()))?;
    let outcome = runner(&work, a.seed, a.seconds, a.trace);
    let store_fs = host::fs_type(&work);
    let _ = std::fs::remove_dir_all(&work);
    let outcome = outcome.map_err(|e| format!("{}: {e}", a.workload))?;
    let line = report::result_line(&outcome, a.trace);
    println!(
        "{}",
        report::report_line(
            &a.workload,
            why,
            a.seed,
            a.seconds,
            a.trace,
            &store_fs,
            &outcome
        )
    );
    println!("{line}");
    let logged = if a.trace {
        outcome.layers.as_deref().unwrap_or(&[])
    } else {
        &outcome.metrics
    };
    if let Err(e) = append_result(a, logged) {
        eprintln!("perfbench: cannot append to the results log: {e}");
    }
    Ok(if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Median traced-minus-untraced difference of each end-to-end metric, per
/// workload, over the runs in the results log; only runs of the same
/// revision and `--seconds` are compared with each other.
fn overhead() -> Result<String, String> {
    let path = scratch_root().join("results.tsv");
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    // (workload, rev, seconds) -> metric -> (untraced values, traced values)
    let mut seen: BTreeMap<String, BTreeMap<String, Samples>> = BTreeMap::new();
    for line in text.lines() {
        let mut fields = line.split('\t');
        let (Some(w), Some(_seed), Some(t), Some(rev), Some(secs)) = (
            fields.next(),
            fields.next(),
            fields.next(),
            fields.next(),
            fields.next(),
        ) else {
            continue;
        };
        let group = format!("{w} {rev} {secs}");
        for kv in fields {
            let Some((name, v)) = kv.split_once('=') else {
                continue;
            };
            let Ok(x) = v.parse::<f64>() else { continue };
            let (name, traced) = match name.strip_prefix("traced.") {
                Some(n) => (n, true),
                None if t == "0" => (name, false),
                None => continue,
            };
            if !report::END_TO_END.iter().any(|(m, _)| *m == name) {
                continue;
            }
            let e = seen
                .entry(group.clone())
                .or_default()
                .entry(name.to_string())
                .or_default();
            if traced {
                e.1.push(x)
            } else {
                e.0.push(x)
            }
        }
    }
    let mut out = String::from(
        "workload git_rev seconds metric untraced_median traced_median overhead_share runs\n",
    );
    for (group, metrics) in &seen {
        for (m, (plain, traced)) in metrics {
            if plain.is_empty() || traced.is_empty() {
                continue;
            }
            let (a, b) = (stats::median(plain), stats::median(traced));
            out.push_str(&format!(
                "{group} {m} {a:.6} {b:.6} {:+.4} {}+{}\n",
                (b - a) / a,
                plain.len(),
                traced.len()
            ));
        }
    }
    Ok(out)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--daemon") {
        // The serving daemon of `fleet-ingest`: `imrdmd-cli`'s own entry
        // point, re-executed from this binary.
        fleet::answer_cpu_probes();
        return match imrdmd_cli::parse_args(&args[1..]).and_then(|cmd| imrdmd_cli::run(&cmd)) {
            Ok(_) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }
    if args.first().map(String::as_str) == Some("--overhead") {
        return match overhead() {
            Ok(table) => {
                print!("{table}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    match parse(&args).and_then(|a| run(&a)) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
