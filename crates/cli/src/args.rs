//! Argument parsing — hand-rolled `--flag value` pairs, no dependencies.

use crate::CliError;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::str::FromStr;

/// A parsed CLI invocation.
#[derive(Clone, Debug, PartialEq)]
pub enum Command {
    /// Generate synthetic telemetry CSV.
    Synth {
        /// Nodes to simulate (one temperature channel each).
        nodes: usize,
        /// Snapshots to generate.
        steps: usize,
        /// Generator seed.
        seed: u64,
        /// Output CSV path.
        out: PathBuf,
    },
    /// Fit a fresh model from a snapshot CSV.
    Fit {
        /// Input snapshot CSV.
        input: PathBuf,
        /// Snapshot spacing in seconds.
        dt: f64,
        /// Tree depth.
        levels: usize,
        /// Slow-mode cycles per window.
        max_cycles: usize,
        /// Worker threads (0 = auto, 1 = serial).
        threads: usize,
        /// Root fit strategy (`exact` or `sketched`).
        fit_strategy: String,
        /// Seed for the sketched strategy's randomized probe (fixed
        /// default when omitted).
        sketch_seed: Option<u64>,
        /// Output model JSON path.
        model: PathBuf,
    },
    /// Stream a new snapshot CSV into an existing model.
    Update {
        /// Model JSON to update.
        model: PathBuf,
        /// New snapshots CSV.
        input: PathBuf,
        /// Where to write the updated model (defaults to `model`).
        model_out: Option<PathBuf>,
        /// Override the model's worker-thread knob (0 = auto, 1 = serial).
        threads: Option<usize>,
    },
    /// Spectrum + z-score analysis of a fitted model.
    Analyze {
        /// Model JSON.
        model: PathBuf,
        /// The telemetry CSV the model was fitted on (for baseline bands).
        input: PathBuf,
        /// Baseline band lower bound (raw units); quantile band if omitted.
        band_lo: Option<f64>,
        /// Baseline band upper bound.
        band_hi: Option<f64>,
    },
    /// Render a rack view SVG from a model + layout string.
    Render {
        /// Model JSON.
        model: PathBuf,
        /// The telemetry CSV (for baselines).
        input: PathBuf,
        /// Layout grammar string (Sec. III-B).
        layout: String,
        /// Output SVG path.
        out: PathBuf,
    },
    /// Print a model's tree summary and compression report.
    Info {
        /// Model JSON.
        model: PathBuf,
    },
    /// Print a model's numerical health: per-level node counts, coverage,
    /// solver statistics, and the last recorded solver error.
    Health {
        /// Model JSON.
        model: PathBuf,
    },
    /// Stream a snapshot CSV through the guarded ingest path in chunks,
    /// with periodic checkpointing and crash-resume.
    Stream {
        /// Input snapshot CSV (may contain NaN gaps as empty fields).
        input: PathBuf,
        /// Snapshot spacing in seconds.
        dt: f64,
        /// Snapshots per ingest batch.
        chunk: usize,
        /// Tree depth.
        levels: usize,
        /// Worker threads (0 = auto, 1 = serial).
        threads: usize,
        /// Gap repair policy (`reject`, `hold`, `interpolate`, `mask`).
        gap_policy: String,
        /// Root fit strategy (`exact` or `sketched`).
        fit_strategy: String,
        /// Seed for the sketched strategy's randomized probe.
        sketch_seed: Option<u64>,
        /// Persistent-store root; checkpoints go to `<store-dir>/checkpoints`.
        store_dir: Option<PathBuf>,
        /// Checkpoint every N chunks (default 1).
        checkpoint_every: usize,
        /// Resume from the newest checkpoint in the checkpoint directory
        /// instead of fitting from scratch.
        resume: bool,
        /// Emit a JSON-line metrics snapshot every N chunks (0 = off).
        metrics_every: usize,
        /// Output model JSON path.
        model: PathBuf,
    },
    /// Run the multi-tenant serving daemon (see `imrdmd-serve`).
    Serve {
        /// Listen address, e.g. `127.0.0.1:8080` or `0.0.0.0:9100`
        /// (`:0` binds an ephemeral port).
        addr: String,
        /// Snapshot spacing in seconds.
        dt: f64,
        /// Tree depth.
        levels: usize,
        /// Worker threads shared by all shards (0 = auto, 1 = serial).
        threads: usize,
        /// Gap repair policy (`reject`, `hold`, `interpolate`, `mask`).
        gap_policy: String,
        /// Root fit strategy (`exact` or `sketched`) for every tenant shard.
        fit_strategy: String,
        /// Seed for the sketched strategy's randomized probe.
        sketch_seed: Option<u64>,
        /// Persistent-store root; per-shard checkpoints and WALs go to
        /// `<store-dir>/checkpoints`. Enables crash recovery.
        store_dir: Option<PathBuf>,
        /// Checkpoint every N batches per shard (default 1).
        checkpoint_every: usize,
        /// Keep the newest K checkpoints per shard (default 3, 0 = all).
        keep_checkpoints: usize,
        /// WAL fsync cadence: `none`, `interval`, or `batch` (default
        /// `interval`).
        durability: String,
        /// Cap on ingest body size, in MiB (default 32).
        max_body_mb: usize,
        /// Cap on resident tenants (default 4096).
        max_tenants: usize,
        /// Fleet-wide in-flight ingest budget (default 256).
        max_inflight: usize,
    },
    /// Stream a snapshot CSV through a fit and print the final metrics
    /// snapshot (JSON or Prometheus text exposition).
    Metrics {
        /// Input snapshot CSV.
        input: PathBuf,
        /// Snapshot spacing in seconds.
        dt: f64,
        /// Tree depth.
        levels: usize,
        /// Snapshots per ingest batch.
        chunk: usize,
        /// Root fit strategy (`exact` or `sketched`).
        fit_strategy: String,
        /// Seed for the sketched strategy's randomized probe.
        sketch_seed: Option<u64>,
        /// Output format: `json` or `prom`.
        format: String,
    },
    /// Write a fitted model as a compressed, seekable mode archive.
    Archive {
        /// Model JSON to archive.
        model: PathBuf,
        /// Quantization tier: `f64` (bitwise), `f32`, or `q16`.
        tier: String,
        /// Output archive path (overrides `--store-dir`).
        out: Option<PathBuf>,
        /// Persistent-store root; the archive goes to
        /// `<store-dir>/archives/<model-stem>.<tier>.arch`.
        store_dir: Option<PathBuf>,
    },
    /// Reconstruct a time range from an archive alone.
    Replay {
        /// Archive file to replay (overrides `--store-dir`).
        archive: Option<PathBuf>,
        /// Persistent-store root; replays the newest archive under
        /// `<store-dir>/archives`.
        store_dir: Option<PathBuf>,
        /// First snapshot of the range (default 0).
        from: Option<usize>,
        /// One past the last snapshot (default: end of timeline).
        to: Option<usize>,
        /// Output CSV path (stdout summary only when omitted).
        out: Option<PathBuf>,
    },
}

/// Usage text shown on parse errors.
pub const USAGE: &str = "usage: imrdmd-cli <synth|fit|update|analyze|render|info|health|stream|serve|metrics|archive|replay> [--flag value]...
  synth   --nodes N --steps T [--seed S] --out FILE.csv
  fit     --input FILE.csv --dt SECONDS [--levels L] [--max-cycles C] [--threads N]
          [--fit-strategy exact|sketched] [--sketch-seed S] --model FILE.json
  update  --model FILE.json --input FILE.csv [--model-out FILE.json] [--threads N]
  analyze --model FILE.json --input FILE.csv [--band-lo X --band-hi Y]
  render  --model FILE.json --input FILE.csv --layout \"SPEC\" --out FILE.svg
  info    --model FILE.json
  health  --model FILE.json
  stream  --input FILE.csv --dt SECONDS --model FILE.json [--chunk N] [--levels L] [--threads N]
          [--gap-policy reject|hold|interpolate|mask]
          [--fit-strategy exact|sketched] [--sketch-seed S]
          [--store-dir DIR]
          [--checkpoint-every K] [--resume] [--metrics-every N]
  serve   --addr HOST:PORT --dt SECONDS [--levels L] [--threads N]
          [--gap-policy reject|hold|interpolate|mask]
          [--fit-strategy exact|sketched] [--sketch-seed S]
          [--store-dir DIR]
          [--checkpoint-every K] [--keep-checkpoints K]
          [--durability none|interval|batch] [--max-body-mb M] [--max-tenants N]
          [--max-inflight N]
  metrics --input FILE.csv --dt SECONDS [--levels L] [--chunk N]
          [--fit-strategy exact|sketched] [--sketch-seed S] [--format json|prom]
  archive --model FILE.json [--tier f64|f32|q16] [--out FILE.arch] [--store-dir DIR]
  replay  --archive FILE.arch | --store-dir DIR
          [--from T0] [--to T1] [--out FILE.csv]";

/// Flags that take no value: their presence means `true`.
const BOOL_FLAGS: &[&str] = &["resume"];

/// The `--flag value` pairs of one invocation. Every getter takes its flag
/// out, so whatever is left once the command is built is a flag the
/// subcommand does not read.
struct Flags(BTreeMap<String, String>);

fn missing(name: &str) -> CliError {
    CliError(format!("missing required --{name}\n{USAGE}"))
}

impl Flags {
    fn take(&mut self, name: &str) -> Option<String> {
        self.0.remove(name)
    }

    fn req(&mut self, name: &str) -> Result<String, CliError> {
        self.take(name).ok_or_else(|| missing(name))
    }

    fn path(&mut self, name: &str) -> Option<PathBuf> {
        self.take(name).map(PathBuf::from)
    }

    fn text_or(&mut self, name: &str, default: &str) -> String {
        self.take(name).unwrap_or_else(|| default.to_string())
    }

    /// `--name` parsed as `T`, if given; `kind` names the expected value in
    /// the error ("an integer", "a number").
    fn parsed<T: FromStr>(&mut self, name: &str, kind: &str) -> Result<Option<T>, CliError> {
        self.take(name)
            .map(|v| {
                v.parse()
                    .map_err(|_| CliError(format!("--{name} must be {kind}")))
            })
            .transpose()
    }

    fn int<T: FromStr>(&mut self, name: &str) -> Result<Option<T>, CliError> {
        self.parsed(name, "an integer")
    }

    fn num(&mut self, name: &str) -> Result<Option<f64>, CliError> {
        self.parsed(name, "a number")
    }

    fn req_int<T: FromStr>(&mut self, name: &str) -> Result<T, CliError> {
        self.int(name)?.ok_or_else(|| missing(name))
    }

    fn req_num(&mut self, name: &str) -> Result<f64, CliError> {
        self.num(name)?.ok_or_else(|| missing(name))
    }
}

/// Parses an argv slice (without the program name).
pub fn parse_args(args: &[String]) -> Result<Command, CliError> {
    let Some(cmd) = args.first() else {
        return Err(CliError(USAGE.into()));
    };
    let mut flags: BTreeMap<String, String> = BTreeMap::new();
    let mut it = args[1..].iter();
    while let Some(flag) = it.next() {
        let Some(name) = flag.strip_prefix("--") else {
            return Err(CliError(format!("expected a --flag, got `{flag}`")));
        };
        if BOOL_FLAGS.contains(&name) {
            flags.insert(name.to_string(), "true".to_string());
            continue;
        }
        let Some(value) = it.next() else {
            return Err(CliError(format!("flag --{name} needs a value")));
        };
        flags.insert(name.to_string(), value.clone());
    }
    // Ignoring a removed durability flag would silently turn checkpoints off.
    if flags.contains_key("checkpoint-dir") {
        return Err(CliError(
            "--checkpoint-dir was removed: use --store-dir DIR \
             (checkpoints live in DIR/checkpoints)"
                .into(),
        ));
    }
    let f = &mut Flags(flags);
    let command = match cmd.as_str() {
        "synth" => Command::Synth {
            nodes: f.req_int("nodes")?,
            steps: f.req_int("steps")?,
            seed: f.int("seed")?.unwrap_or(42),
            out: f.req("out")?.into(),
        },
        "fit" => Command::Fit {
            input: f.req("input")?.into(),
            dt: f.req_num("dt")?,
            levels: f.int("levels")?.unwrap_or(6),
            max_cycles: f.int("max-cycles")?.unwrap_or(2),
            threads: f.int("threads")?.unwrap_or(0),
            fit_strategy: f.text_or("fit-strategy", "exact"),
            sketch_seed: f.int("sketch-seed")?,
            model: f.req("model")?.into(),
        },
        "update" => Command::Update {
            model: f.req("model")?.into(),
            input: f.req("input")?.into(),
            model_out: f.path("model-out"),
            threads: f.int("threads")?,
        },
        "analyze" => Command::Analyze {
            model: f.req("model")?.into(),
            input: f.req("input")?.into(),
            band_lo: f.num("band-lo")?,
            band_hi: f.num("band-hi")?,
        },
        "render" => Command::Render {
            model: f.req("model")?.into(),
            input: f.req("input")?.into(),
            layout: f.req("layout")?,
            out: f.req("out")?.into(),
        },
        "info" => Command::Info {
            model: f.req("model")?.into(),
        },
        "health" => Command::Health {
            model: f.req("model")?.into(),
        },
        "stream" => Command::Stream {
            input: f.req("input")?.into(),
            dt: f.req_num("dt")?,
            chunk: f.int("chunk")?.unwrap_or(64),
            levels: f.int("levels")?.unwrap_or(6),
            threads: f.int("threads")?.unwrap_or(0),
            gap_policy: f.text_or("gap-policy", "reject"),
            fit_strategy: f.text_or("fit-strategy", "exact"),
            sketch_seed: f.int("sketch-seed")?,
            store_dir: f.path("store-dir"),
            checkpoint_every: f.int("checkpoint-every")?.unwrap_or(1),
            resume: f.take("resume").is_some(),
            metrics_every: f.int("metrics-every")?.unwrap_or(0),
            model: f.req("model")?.into(),
        },
        "serve" => Command::Serve {
            addr: f.req("addr")?,
            dt: f.req_num("dt")?,
            levels: f.int("levels")?.unwrap_or(6),
            threads: f.int("threads")?.unwrap_or(0),
            gap_policy: f.text_or("gap-policy", "interpolate"),
            fit_strategy: f.text_or("fit-strategy", "exact"),
            sketch_seed: f.int("sketch-seed")?,
            store_dir: f.path("store-dir"),
            checkpoint_every: f.int("checkpoint-every")?.unwrap_or(1),
            keep_checkpoints: f.int("keep-checkpoints")?.unwrap_or(3),
            durability: f.text_or("durability", "interval"),
            max_body_mb: f.int("max-body-mb")?.unwrap_or(32),
            max_tenants: f.int("max-tenants")?.unwrap_or(4096),
            max_inflight: f.int("max-inflight")?.unwrap_or(256),
        },
        "metrics" => Command::Metrics {
            input: f.req("input")?.into(),
            dt: f.req_num("dt")?,
            levels: f.int("levels")?.unwrap_or(6),
            chunk: f.int("chunk")?.unwrap_or(64),
            fit_strategy: f.text_or("fit-strategy", "exact"),
            sketch_seed: f.int("sketch-seed")?,
            format: f.text_or("format", "json"),
        },
        "archive" => Command::Archive {
            model: f.req("model")?.into(),
            tier: f.text_or("tier", "q16"),
            out: f.path("out"),
            store_dir: f.path("store-dir"),
        },
        "replay" => Command::Replay {
            archive: f.path("archive"),
            store_dir: f.path("store-dir"),
            from: f.int("from")?,
            to: f.int("to")?,
            out: f.path("out"),
        },
        other => return Err(CliError(format!("unknown subcommand `{other}`\n{USAGE}"))),
    };
    // A misspelt flag would otherwise fall back to its default unnoticed.
    if let Some(name) = f.0.keys().next() {
        return Err(CliError(format!(
            "unknown flag --{name} for `{cmd}`\n{USAGE}"
        )));
    }
    Ok(command)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_fit() {
        let c = parse_args(&argv(
            "fit --input a.csv --dt 20 --levels 5 --threads 4 --model m.json",
        ))
        .unwrap();
        assert_eq!(
            c,
            Command::Fit {
                input: "a.csv".into(),
                dt: 20.0,
                levels: 5,
                max_cycles: 2,
                threads: 4,
                fit_strategy: "exact".into(),
                sketch_seed: None,
                model: "m.json".into()
            }
        );
    }

    #[test]
    fn defaults_apply() {
        let c = parse_args(&argv("synth --nodes 8 --steps 100 --out x.csv")).unwrap();
        assert_eq!(
            c,
            Command::Synth {
                nodes: 8,
                steps: 100,
                seed: 42,
                out: "x.csv".into()
            }
        );
        let c = parse_args(&argv("fit --input a.csv --dt 1 --model m.json")).unwrap();
        match c {
            Command::Fit {
                levels,
                max_cycles,
                threads,
                ..
            } => {
                assert_eq!(levels, 6);
                assert_eq!(max_cycles, 2);
                assert_eq!(threads, 0, "auto by default");
            }
            _ => panic!("wrong variant"),
        }
    }

    #[test]
    fn parses_health() {
        let c = parse_args(&argv("health --model m.json")).unwrap();
        assert_eq!(
            c,
            Command::Health {
                model: "m.json".into()
            }
        );
        assert!(parse_args(&argv("health")).is_err());
    }

    #[test]
    fn missing_required_flag_is_an_error() {
        let e = parse_args(&argv("fit --input a.csv --dt 20")).unwrap_err();
        assert!(e.0.contains("--model"));
    }

    #[test]
    fn unknown_subcommand_is_an_error() {
        assert!(parse_args(&argv("frobnicate --x 1")).is_err());
        assert!(parse_args(&[]).is_err());
    }

    #[test]
    fn bad_numbers_are_errors() {
        assert!(parse_args(&argv("fit --input a.csv --dt abc --model m.json")).is_err());
        assert!(parse_args(&argv("synth --nodes x --steps 10 --out o.csv")).is_err());
    }

    #[test]
    fn update_optional_output() {
        let c = parse_args(&argv("update --model m.json --input b.csv")).unwrap();
        assert_eq!(
            c,
            Command::Update {
                model: "m.json".into(),
                input: "b.csv".into(),
                model_out: None,
                threads: None
            }
        );
        let c = parse_args(&argv(
            "update --model m.json --input b.csv --model-out n.json",
        ))
        .unwrap();
        match c {
            Command::Update { model_out, .. } => assert_eq!(model_out, Some("n.json".into())),
            _ => panic!("wrong variant"),
        }
    }

    #[test]
    fn parses_stream_with_defaults() {
        let c = parse_args(&argv("stream --input a.csv --dt 20 --model m.json")).unwrap();
        assert_eq!(
            c,
            Command::Stream {
                input: "a.csv".into(),
                dt: 20.0,
                chunk: 64,
                levels: 6,
                threads: 0,
                gap_policy: "reject".into(),
                fit_strategy: "exact".into(),
                sketch_seed: None,
                store_dir: None,
                checkpoint_every: 1,
                resume: false,
                metrics_every: 0,
                model: "m.json".into(),
            }
        );
    }

    #[test]
    fn parses_metrics_flags() {
        let c = parse_args(&argv("metrics --input a.csv --dt 20")).unwrap();
        assert_eq!(
            c,
            Command::Metrics {
                input: "a.csv".into(),
                dt: 20.0,
                levels: 6,
                chunk: 64,
                fit_strategy: "exact".into(),
                sketch_seed: None,
                format: "json".into(),
            }
        );
        let c = parse_args(&argv(
            "metrics --input a.csv --dt 20 --levels 4 --chunk 32 --format prom",
        ))
        .unwrap();
        match c {
            Command::Metrics {
                levels,
                chunk,
                format,
                ..
            } => {
                assert_eq!((levels, chunk), (4, 32));
                assert_eq!(format, "prom");
            }
            _ => panic!("wrong variant"),
        }
        assert!(parse_args(&argv("metrics --input a.csv")).is_err());
    }

    #[test]
    fn fit_strategy_flags_parse() {
        let c = parse_args(&argv(
            "fit --input a.csv --dt 1 --fit-strategy sketched --sketch-seed 7 --model m.json",
        ))
        .unwrap();
        match c {
            Command::Fit {
                fit_strategy,
                sketch_seed,
                ..
            } => {
                assert_eq!(fit_strategy, "sketched");
                assert_eq!(sketch_seed, Some(7));
            }
            _ => panic!("wrong variant"),
        }
        assert!(
            parse_args(&argv(
                "fit --input a.csv --dt 1 --sketch-seed x --model m.json"
            ))
            .is_err(),
            "--sketch-seed must be an integer"
        );
    }

    #[test]
    fn stream_metrics_every_parses() {
        let c = parse_args(&argv(
            "stream --input a.csv --dt 20 --model m.json --metrics-every 5",
        ))
        .unwrap();
        match c {
            Command::Stream { metrics_every, .. } => assert_eq!(metrics_every, 5),
            _ => panic!("wrong variant"),
        }
        assert!(parse_args(&argv(
            "stream --input a.csv --dt 20 --model m.json --metrics-every x",
        ))
        .is_err());
    }

    #[test]
    fn stream_resume_is_a_bare_flag() {
        let c = parse_args(&argv(
            "stream --input a.csv --dt 20 --model m.json \
             --gap-policy hold --store-dir store --checkpoint-every 4 --resume",
        ))
        .unwrap();
        match c {
            Command::Stream {
                gap_policy,
                store_dir,
                checkpoint_every,
                resume,
                ..
            } => {
                assert_eq!(gap_policy, "hold");
                assert_eq!(store_dir, Some("store".into()));
                assert_eq!(checkpoint_every, 4);
                assert!(resume);
            }
            _ => panic!("wrong variant"),
        }
        // --resume consumes no value: the next token is parsed as a flag.
        let c = parse_args(&argv(
            "stream --input a.csv --dt 20 --resume --model m.json",
        ))
        .unwrap();
        match c {
            Command::Stream { resume, model, .. } => {
                assert!(resume);
                assert_eq!(model, PathBuf::from("m.json"));
            }
            _ => panic!("wrong variant"),
        }
    }

    #[test]
    fn parses_serve_with_defaults() {
        let c = parse_args(&argv("serve --addr 127.0.0.1:0 --dt 20")).unwrap();
        assert_eq!(
            c,
            Command::Serve {
                addr: "127.0.0.1:0".into(),
                dt: 20.0,
                levels: 6,
                threads: 0,
                gap_policy: "interpolate".into(),
                fit_strategy: "exact".into(),
                sketch_seed: None,
                store_dir: None,
                checkpoint_every: 1,
                keep_checkpoints: 3,
                durability: "interval".into(),
                max_body_mb: 32,
                max_tenants: 4096,
                max_inflight: 256,
            }
        );
        let c = parse_args(&argv(
            "serve --addr 0.0.0.0:9100 --dt 1 --levels 4 --threads 2 \
             --gap-policy hold --store-dir ck --checkpoint-every 8 \
             --keep-checkpoints 5 --durability batch \
             --max-body-mb 4 --max-tenants 64 --max-inflight 16",
        ))
        .unwrap();
        match c {
            Command::Serve {
                levels,
                threads,
                gap_policy,
                store_dir,
                checkpoint_every,
                keep_checkpoints,
                durability,
                max_body_mb,
                max_tenants,
                max_inflight,
                ..
            } => {
                assert_eq!((levels, threads), (4, 2));
                assert_eq!(gap_policy, "hold");
                assert_eq!(store_dir, Some("ck".into()));
                assert_eq!((checkpoint_every, max_body_mb, max_tenants), (8, 4, 64));
                assert_eq!((keep_checkpoints, max_inflight), (5, 16));
                assert_eq!(durability, "batch");
            }
            _ => panic!("wrong variant"),
        }
        assert!(
            parse_args(&argv("serve --dt 20")).is_err(),
            "--addr required"
        );
        assert!(
            parse_args(&argv("serve --addr 1.2.3.4:1")).is_err(),
            "--dt required"
        );
    }

    #[test]
    fn parses_archive_and_replay() {
        let c = parse_args(&argv("archive --model m.json")).unwrap();
        assert_eq!(
            c,
            Command::Archive {
                model: "m.json".into(),
                tier: "q16".into(),
                out: None,
                store_dir: None,
            }
        );
        let c = parse_args(&argv(
            "archive --model m.json --tier f64 --out m.arch --store-dir store",
        ))
        .unwrap();
        match c {
            Command::Archive {
                tier,
                out,
                store_dir,
                ..
            } => {
                assert_eq!(tier, "f64");
                assert_eq!(out, Some("m.arch".into()));
                assert_eq!(store_dir, Some("store".into()));
            }
            _ => panic!("wrong variant"),
        }
        let c = parse_args(&argv(
            "replay --archive m.arch --from 100 --to 300 --out r.csv",
        ))
        .unwrap();
        assert_eq!(
            c,
            Command::Replay {
                archive: Some("m.arch".into()),
                store_dir: None,
                from: Some(100),
                to: Some(300),
                out: Some("r.csv".into()),
            }
        );
        assert!(
            parse_args(&argv("replay --archive m.arch --from x")).is_err(),
            "--from must be an integer"
        );
    }

    #[test]
    fn removed_checkpoint_dir_flag_is_an_error() {
        for cmd in [
            "stream --input a.csv --dt 20 --model m.json --checkpoint-dir c",
            "serve --addr 127.0.0.1:0 --dt 20 --checkpoint-dir c",
        ] {
            let err = parse_args(&argv(cmd)).unwrap_err();
            assert!(err.0.contains("--store-dir"), "{err}");
        }
    }

    #[test]
    fn unknown_flags_are_errors() {
        for (cmd, flag) in [
            (
                "stream --input s.csv --dt 20 --model m.json --chunks 50 --chekpoint-every 3",
                "--chekpoint-every",
            ),
            (
                "fit --input a.csv --dt 20 --model m.json --resume",
                "--resume",
            ),
            ("info --model m.json --tier f64", "--tier"),
        ] {
            let err = parse_args(&argv(cmd)).unwrap_err();
            assert!(
                err.0.contains(&format!("unknown flag {flag} ")),
                "{cmd}: {err}"
            );
        }
        // Every flag the benchmark daemon passes is read by `serve`.
        let c = parse_args(&argv(
            "serve --addr 127.0.0.1:0 --dt 20 --levels 4 --gap-policy interpolate \
             --durability interval --checkpoint-every 32 --store-dir store",
        ));
        assert!(matches!(c, Ok(Command::Serve { .. })), "{c:?}");
    }

    #[test]
    fn store_dir_parses_on_stream_and_serve() {
        let c = parse_args(&argv(
            "stream --input a.csv --dt 20 --model m.json --store-dir store",
        ))
        .unwrap();
        match c {
            Command::Stream { store_dir, .. } => assert_eq!(store_dir, Some("store".into())),
            _ => panic!("wrong variant"),
        }
        let c = parse_args(&argv("serve --addr 127.0.0.1:0 --dt 20 --store-dir store")).unwrap();
        match c {
            Command::Serve { store_dir, .. } => assert_eq!(store_dir, Some("store".into())),
            _ => panic!("wrong variant"),
        }
    }

    #[test]
    fn analyze_band_flags() {
        let c = parse_args(&argv(
            "analyze --model m.json --input a.csv --band-lo 40 --band-hi 50",
        ))
        .unwrap();
        match c {
            Command::Analyze {
                band_lo, band_hi, ..
            } => {
                assert_eq!(band_lo, Some(40.0));
                assert_eq!(band_hi, Some(50.0));
            }
            _ => panic!("wrong variant"),
        }
    }
}
