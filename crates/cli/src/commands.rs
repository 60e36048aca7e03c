//! Command implementations. Each returns its human-readable report so the
//! tests can assert on behaviour without capturing stdout.

use crate::args::Command;
use crate::CliError;
use hpc_telemetry::{
    read_snapshots_csv, theta, write_snapshots_csv, LayoutSpec, MachineSpec, Scenario,
};
use imrdmd::compression::compression_report;
use imrdmd::prelude::*;
use rackviz::RackView;
use std::fmt::Write as _;
use std::fs;
use std::path::Path;

/// Executes a parsed command, returning the report text it printed.
pub fn run(cmd: &Command) -> Result<String, CliError> {
    match cmd {
        Command::Synth {
            nodes,
            steps,
            seed,
            out,
        } => synth(*nodes, *steps, *seed, out),
        Command::Fit {
            input,
            dt,
            levels,
            max_cycles,
            threads,
            fit_strategy,
            sketch_seed,
            model,
        } => fit(FitOpts {
            input,
            dt: *dt,
            levels: *levels,
            max_cycles: *max_cycles,
            threads: *threads,
            fit_strategy,
            sketch_seed: *sketch_seed,
            model,
        }),
        Command::Update {
            model,
            input,
            model_out,
            threads,
        } => update(model, input, model_out.as_deref(), *threads),
        Command::Analyze {
            model,
            input,
            band_lo,
            band_hi,
        } => analyze(model, input, *band_lo, *band_hi),
        Command::Render {
            model,
            input,
            layout,
            out,
        } => render(model, input, layout, out),
        Command::Info { model } => info(model),
        Command::Health { model } => health(model),
        Command::Stream {
            input,
            dt,
            chunk,
            levels,
            threads,
            gap_policy,
            fit_strategy,
            sketch_seed,
            store_dir,
            checkpoint_every,
            resume,
            metrics_every,
            model,
        } => stream(StreamOpts {
            input,
            dt: *dt,
            chunk: *chunk,
            levels: *levels,
            threads: *threads,
            gap_policy,
            fit_strategy,
            sketch_seed: *sketch_seed,
            store_dir: store_dir.as_deref(),
            checkpoint_every: *checkpoint_every,
            resume: *resume,
            metrics_every: *metrics_every,
            model,
        }),
        Command::Serve {
            addr,
            dt,
            levels,
            threads,
            gap_policy,
            fit_strategy,
            sketch_seed,
            store_dir,
            checkpoint_every,
            keep_checkpoints,
            durability,
            max_body_mb,
            max_tenants,
            max_inflight,
        } => serve(ServeOpts {
            addr,
            dt: *dt,
            levels: *levels,
            threads: *threads,
            gap_policy,
            fit_strategy,
            sketch_seed: *sketch_seed,
            store_dir: store_dir.as_deref(),
            checkpoint_every: *checkpoint_every,
            keep_checkpoints: *keep_checkpoints,
            durability,
            max_body_mb: *max_body_mb,
            max_tenants: *max_tenants,
            max_inflight: *max_inflight,
        }),
        Command::Metrics {
            input,
            dt,
            levels,
            chunk,
            fit_strategy,
            sketch_seed,
            format,
        } => metrics(
            input,
            *dt,
            *levels,
            *chunk,
            fit_strategy,
            *sketch_seed,
            format,
        ),
        Command::Archive {
            model,
            tier,
            out,
            store_dir,
        } => archive(model, tier, out.as_deref(), store_dir.as_deref()),
        Command::Replay {
            archive,
            store_dir,
            from,
            to,
            out,
        } => replay(
            archive.as_deref(),
            store_dir.as_deref(),
            *from,
            *to,
            out.as_deref(),
        ),
    }
}

/// Borrowed view of [`Command::Fit`]'s flags.
struct FitOpts<'a> {
    input: &'a Path,
    dt: f64,
    levels: usize,
    max_cycles: usize,
    threads: usize,
    fit_strategy: &'a str,
    sketch_seed: Option<u64>,
    model: &'a Path,
}

/// Borrowed view of [`Command::Stream`]'s flags, so the implementation
/// doesn't take eleven positional arguments.
struct StreamOpts<'a> {
    input: &'a Path,
    dt: f64,
    chunk: usize,
    levels: usize,
    threads: usize,
    gap_policy: &'a str,
    fit_strategy: &'a str,
    sketch_seed: Option<u64>,
    store_dir: Option<&'a Path>,
    checkpoint_every: usize,
    resume: bool,
    metrics_every: usize,
    model: &'a Path,
}

/// Borrowed view of [`Command::Serve`]'s flags.
struct ServeOpts<'a> {
    addr: &'a str,
    dt: f64,
    levels: usize,
    threads: usize,
    gap_policy: &'a str,
    fit_strategy: &'a str,
    sketch_seed: Option<u64>,
    store_dir: Option<&'a Path>,
    checkpoint_every: usize,
    keep_checkpoints: usize,
    durability: &'a str,
    max_body_mb: usize,
    max_tenants: usize,
    max_inflight: usize,
}

/// Validates the flags and binds the daemon without running it, so tests
/// can grab the ephemeral port and a shutdown handle first. Returns the
/// bound server plus `(restored, corrupt)` shard counts.
fn bind_server(o: &ServeOpts<'_>) -> Result<(imrdmd_serve::Server, usize, usize), CliError> {
    if o.dt <= 0.0 {
        return Err(CliError("--dt must be positive".into()));
    }
    if o.max_body_mb == 0 {
        return Err(CliError("--max-body-mb must be at least 1".into()));
    }
    let policy = GapPolicy::parse(o.gap_policy)
        .ok_or_else(|| CliError(format!("unknown --gap-policy `{}`", o.gap_policy)))?;
    let strategy = parse_fit_strategy(o.fit_strategy, o.sketch_seed)?;
    let durability = imrdmd::wal::Durability::parse(o.durability)
        .ok_or_else(|| CliError(format!("unknown --durability `{}`", o.durability)))?;
    let cfg = imrdmd_serve::ServeConfig {
        model: stream_config(o.dt, o.levels, 2, o.threads, strategy)?,
        policy,
        checkpoint_dir: o.store_dir.map(|d| d.join("checkpoints")),
        checkpoint_every: o.checkpoint_every.max(1),
        keep_checkpoints: o.keep_checkpoints,
        durability,
        limits: imrdmd_serve::HttpLimits {
            max_body_bytes: o.max_body_mb * 1024 * 1024,
            ..imrdmd_serve::HttpLimits::default()
        },
        max_tenants: o.max_tenants.max(1),
        max_inflight: o.max_inflight.max(1),
        ..imrdmd_serve::ServeConfig::default()
    };
    imrdmd_serve::Server::bind(o.addr, cfg)
        .map_err(|e| CliError(format!("cannot bind {}: {e}", o.addr)))
}

fn serve(o: ServeOpts<'_>) -> Result<String, CliError> {
    let (server, restored, corrupt) = bind_server(&o)?;
    let addr = server.local_addr();
    eprintln!(
        "imrdmd-serve listening on http://{addr} ({restored} shards restored, {corrupt} corrupt)"
    );
    server
        .run()
        .map_err(|e| CliError(format!("server failed: {e}")))?;
    Ok(format!(
        "server on {addr} stopped ({restored} shards restored at boot, {corrupt} corrupt)"
    ))
}

/// Maps the `--fit-strategy`/`--sketch-seed` flags onto [`FitStrategy`].
/// `sketched` uses the library's standard oversampling and power-iteration
/// budget with a fixed default seed, so runs stay reproducible unless a
/// seed is given explicitly.
fn parse_fit_strategy(name: &str, sketch_seed: Option<u64>) -> Result<FitStrategy, CliError> {
    match name {
        "exact" => Ok(FitStrategy::Exact),
        "sketched" => Ok(FitStrategy::Sketched {
            rank_oversample: 8,
            power_iters: 2,
            seed: sketch_seed.unwrap_or(hpc_linalg::DEFAULT_SKETCH_SEED),
        }),
        other => Err(CliError(format!(
            "unknown --fit-strategy `{other}` (expected exact or sketched)"
        ))),
    }
}

/// The streaming configuration every CSV-driven command uses, built (and
/// therefore validated) through the builder-first API.
fn stream_config(
    dt: f64,
    levels: usize,
    max_cycles: usize,
    threads: usize,
    strategy: FitStrategy,
) -> Result<IMrDmdConfig, CliError> {
    let mr = MrDmdConfig::builder()
        .dt(dt)
        .max_levels(levels.max(1))
        .max_cycles(max_cycles.max(1))
        .rank(RankSelection::Svht)
        .n_threads(threads)
        .fit_strategy(strategy)
        .build()?;
    Ok(IMrDmdConfig::builder().mr(mr).build()?)
}

fn load_model(path: &Path) -> Result<IMrDmd, CliError> {
    let json = fs::read_to_string(path)
        .map_err(|e| CliError(format!("cannot read model {}: {e}", path.display())))?;
    Ok(serde_json::from_str(&json)?)
}

fn save_model(path: &Path, model: &IMrDmd) -> Result<(), CliError> {
    fs::write(path, serde_json::to_string(model)?)?;
    Ok(())
}

fn load_csv(path: &Path) -> Result<hpc_linalg::Mat, CliError> {
    let file = fs::File::open(path)
        .map_err(|e| CliError(format!("cannot open {}: {e}", path.display())))?;
    let (m, _first) = read_snapshots_csv(std::io::BufReader::new(file))?;
    Ok(m)
}

fn synth(nodes: usize, steps: usize, seed: u64, out: &Path) -> Result<String, CliError> {
    if nodes == 0 || steps < 2 {
        return Err(CliError("synth needs --nodes ≥ 1 and --steps ≥ 2".into()));
    }
    let mut machine: MachineSpec = theta().scaled(nodes);
    machine.series_per_node = 1;
    let scenario = Scenario::sc_log(machine, steps, seed);
    let data = scenario.generate(0, steps);
    let mut file = std::io::BufWriter::new(fs::File::create(out)?);
    write_snapshots_csv(&mut file, &data, 0)?;
    use std::io::Write as _;
    file.flush()?;
    Ok(format!(
        "wrote {} series × {steps} snapshots (seed {seed}, {} injected anomalies) to {}",
        data.rows(),
        scenario.anomalies().len(),
        out.display()
    ))
}

fn fit(o: FitOpts<'_>) -> Result<String, CliError> {
    if o.dt <= 0.0 {
        return Err(CliError("--dt must be positive".into()));
    }
    let data = load_csv(o.input)?;
    let strategy = parse_fit_strategy(o.fit_strategy, o.sketch_seed)?;
    let cfg = stream_config(o.dt, o.levels, o.max_cycles, o.threads, strategy)?;
    let model = IMrDmd::try_fit(&data, &cfg)?;
    save_model(o.model, &model)?;
    Ok(format!(
        "fitted {} series × {} snapshots: {} modes across {} levels → {}",
        model.n_rows(),
        model.n_steps(),
        model.n_modes(),
        model.depth(),
        o.model.display()
    ))
}

fn update(
    model_path: &Path,
    input: &Path,
    model_out: Option<&Path>,
    threads: Option<usize>,
) -> Result<String, CliError> {
    let mut model = load_model(model_path)?;
    if let Some(n) = threads {
        model.set_n_threads(n);
    }
    let batch = load_csv(input)?;
    if batch.rows() != model.n_rows() {
        return Err(CliError(format!(
            "batch has {} series but the model tracks {}",
            batch.rows(),
            model.n_rows()
        )));
    }
    let report = model.partial_fit(&batch);
    let out = model_out.unwrap_or(model_path);
    save_model(out, &model)?;
    Ok(format!(
        "absorbed {} snapshots (drift {:.3e}, {} new modes); model now spans {} snapshots → {}",
        report.batch_len,
        report.drift,
        report.new_subtree_modes,
        model.n_steps(),
        out.display()
    ))
}

fn analyze(
    model_path: &Path,
    input: &Path,
    band_lo: Option<f64>,
    band_hi: Option<f64>,
) -> Result<String, CliError> {
    let model = load_model(model_path)?;
    let data = load_csv(input)?;
    let (zs, band) = zscores(&model, &data, band_lo, band_hi)?;
    let mut out = String::new();
    let spectrum = mode_spectrum(model.nodes());
    let _ = writeln!(
        out,
        "model: {} modes across {} levels",
        model.n_modes(),
        model.depth()
    );
    for (level, power) in power_by_level(&spectrum) {
        let _ = writeln!(out, "  level {level}: total power {power:.3e}");
    }
    let th = ZThresholds::default();
    let states = zs.states(&th);
    let hot: Vec<usize> = states
        .iter()
        .enumerate()
        .filter(|(_, s)| **s == NodeState::Hot)
        .map(|(i, _)| i)
        .collect();
    let idle = states.iter().filter(|s| **s == NodeState::Idle).count();
    let _ = writeln!(
        out,
        "baseline band {:.2}–{:.2} ({} series): {} hot, {} idle, {:.0}% near baseline",
        band.0,
        band.1,
        zs.baseline_rows.len(),
        hot.len(),
        idle,
        zs.fraction_near(&th) * 100.0
    );
    if !hot.is_empty() {
        let _ = writeln!(out, "hot series: {:?}", &hot[..hot.len().min(16)]);
    }
    Ok(out)
}

fn zscores(
    model: &IMrDmd,
    data: &hpc_linalg::Mat,
    band_lo: Option<f64>,
    band_hi: Option<f64>,
) -> Result<(ZScores, (f64, f64)), CliError> {
    if data.rows() != model.n_rows() {
        return Err(CliError(format!(
            "input has {} series but the model tracks {}",
            data.rows(),
            model.n_rows()
        )));
    }
    let mags = row_mode_magnitudes(model.nodes(), &BandFilter::all(), data.rows());
    let band = match (band_lo, band_hi) {
        (Some(lo), Some(hi)) if lo <= hi => (lo, hi),
        (None, None) => {
            // Middle 40% of per-series means.
            let mut means: Vec<f64> = (0..data.rows())
                .map(|i| data.row(i).iter().sum::<f64>() / data.cols().max(1) as f64)
                .collect();
            means.sort_by(|a, b| a.partial_cmp(b).unwrap());
            (means[means.len() * 3 / 10], means[means.len() * 7 / 10])
        }
        _ => {
            return Err(CliError(
                "--band-lo and --band-hi must be given together, lo ≤ hi".into(),
            ))
        }
    };
    let baseline = select_baseline_rows(data, band.0, band.1);
    if baseline.is_empty() {
        return Err(CliError(format!(
            "no series has a mean in the baseline band {:.2}–{:.2}",
            band.0, band.1
        )));
    }
    Ok((ZScores::from_baseline(&mags, &baseline), band))
}

fn render(model_path: &Path, input: &Path, layout: &str, out: &Path) -> Result<String, CliError> {
    let model = load_model(model_path)?;
    let data = load_csv(input)?;
    let spec = LayoutSpec::parse(layout).map_err(|e| CliError(e.to_string()))?;
    if spec.total_nodes() < model.n_rows() {
        return Err(CliError(format!(
            "layout holds {} nodes but the model tracks {} series",
            spec.total_nodes(),
            model.n_rows()
        )));
    }
    let (zs, _) = zscores(&model, &data, None, None)?;
    let machine = MachineSpec {
        name: spec.system.clone(),
        layout: spec,
        n_nodes: model.n_rows(),
        series_per_node: 1,
        sample_interval_s: 0.0,
    };
    let view = RackView::new(&machine)
        .with_values(&zs.z)
        .with_title(format!("{} — z-scores", machine.name));
    fs::write(out, view.to_svg())?;
    Ok(format!("rack view written to {}", out.display()))
}

fn stream(o: StreamOpts<'_>) -> Result<String, CliError> {
    if o.dt <= 0.0 {
        return Err(CliError("--dt must be positive".into()));
    }
    if o.chunk < 2 {
        return Err(CliError("--chunk must be at least 2".into()));
    }
    let policy = GapPolicy::parse(o.gap_policy)
        .ok_or_else(|| CliError(format!("unknown --gap-policy `{}`", o.gap_policy)))?;
    let ckpt_dir = o.store_dir.map(|d| d.join("checkpoints"));
    let ckpt_dir = ckpt_dir.as_deref();
    if o.resume && ckpt_dir.is_none() {
        return Err(CliError("--resume needs --store-dir".into()));
    }
    let strategy = parse_fit_strategy(o.fit_strategy, o.sketch_seed)?;
    let data = load_csv(o.input)?;
    let total = data.cols();

    // Resume from the newest checkpoint if asked; otherwise cold-start from
    // the first chunk. A resumed model already absorbed `n_steps()` columns
    // (including any pending sub-window — it is checkpointed too), so the
    // stream picks up exactly where the interrupted run stopped.
    let mut resumed_from = None;
    let mut guard = IngestGuard::new(policy, data.rows());
    let (mut model, mut done) = match (o.resume, ckpt_dir) {
        (true, Some(dir)) => match latest_checkpoint(dir)? {
            Some(path) => {
                let model = load_checkpoint(&path)?;
                if model.n_rows() != data.rows() {
                    return Err(CliError(format!(
                        "checkpoint tracks {} series but the input has {}",
                        model.n_rows(),
                        data.rows()
                    )));
                }
                let done = model.n_steps();
                resumed_from = Some((path, done));
                (Some(model), done)
            }
            None => (None, 0),
        },
        _ => (None, 0),
    };
    if done > total {
        return Err(CliError(format!(
            "checkpoint spans {done} snapshots but the input has only {total}"
        )));
    }

    let skipped = done;
    let mut checkpointer = ckpt_dir
        .map(|dir| Checkpointer::new(dir, o.checkpoint_every))
        .transpose()?;
    let mut repairs = RepairReport::default();
    let mut chunks = 0usize;
    let mut ckpts = 0usize;
    let mut out = String::new();
    // Metrics are process-wide monotonic totals; zero them at stream start so
    // the emitted JSON-lines count exactly this stream's work.
    if o.metrics_every > 0 {
        imrdmd::obs::reset();
    }
    while done < total {
        let hi = (done + o.chunk).min(total);
        let batch = data.cols_range(done, hi);
        match &mut model {
            None => {
                // First chunk: repair it stand-alone, then cold-start.
                let (clean, rep) = guard.repair(&batch)?;
                repairs.merge(&rep);
                let cfg = stream_config(o.dt, o.levels, 2, o.threads, strategy)?;
                model = Some(IMrDmd::try_fit(clean.as_ref().unwrap_or(&batch), &cfg)?);
            }
            Some(m) => {
                let report = m.try_partial_fit(&batch, &mut guard)?;
                repairs.merge(&report.repairs);
            }
        }
        done = hi;
        chunks += 1;
        if o.metrics_every > 0 && chunks.is_multiple_of(o.metrics_every) {
            let _ = writeln!(out, "{}", MetricsLine::capture(done, chunks).to_json());
        }
        if let (Some(ck), Some(m)) = (&mut checkpointer, &model) {
            if ck.tick(m)?.is_some() {
                ckpts += 1;
            }
        }
    }

    let model =
        model.ok_or_else(|| CliError("nothing to stream: the input CSV has no columns".into()))?;
    save_model(o.model, &model)?;
    if let Some((path, at)) = resumed_from {
        let _ = writeln!(out, "resumed from {} at snapshot {at}", path.display());
    }
    let _ = writeln!(
        out,
        "streamed {chunks} chunks ({} snapshots, policy {policy}): {} gaps, {} repaired{}",
        total - skipped,
        repairs.gaps,
        repairs.repaired,
        if repairs.masked_rows.is_empty() {
            String::new()
        } else {
            format!(", {} rows masked", repairs.masked_rows.len())
        }
    );
    if ckpts > 0 {
        let _ = writeln!(out, "wrote {ckpts} checkpoints");
    }
    let _ = writeln!(out, "health: {}", model.health().summary());
    let _ = writeln!(
        out,
        "model now spans {} snapshots ({} modes, {} pending) → {}",
        model.n_steps(),
        model.n_modes(),
        model.pending_len(),
        o.model.display()
    );
    Ok(out)
}

/// Streams `input` through a fit (first chunk cold-start, rest through
/// `partial_fit`) and prints the final process metrics snapshot. Metrics
/// are process-local, so the subcommand generates its own workload rather
/// than reading a model file.
fn metrics(
    input: &Path,
    dt: f64,
    levels: usize,
    chunk: usize,
    fit_strategy: &str,
    sketch_seed: Option<u64>,
    format: &str,
) -> Result<String, CliError> {
    if dt <= 0.0 {
        return Err(CliError("--dt must be positive".into()));
    }
    if chunk < 2 {
        return Err(CliError("--chunk must be at least 2".into()));
    }
    if !matches!(format, "json" | "prom") {
        return Err(CliError(format!(
            "unknown --format `{format}` (expected json or prom)"
        )));
    }
    let data = load_csv(input)?;
    let total = data.cols();
    let strategy = parse_fit_strategy(fit_strategy, sketch_seed)?;
    imrdmd::obs::reset();
    let cfg = stream_config(dt, levels, 2, 0, strategy)?;
    let first = chunk.min(total);
    let mut model = IMrDmd::try_fit(&data.cols_range(0, first), &cfg)?;
    for lo in (first..total).step_by(chunk) {
        model.partial_fit(&data.cols_range(lo, (lo + chunk).min(total)));
    }
    let snap = MetricsSnapshot::capture();
    Ok(match format {
        "prom" => snap.to_prometheus(),
        _ => {
            let mut s = snap.to_json();
            s.push('\n');
            s
        }
    })
}

fn info(model_path: &Path) -> Result<String, CliError> {
    let model = load_model(model_path)?;
    let rep = compression_report(model.nodes(), model.n_rows(), model.n_steps());
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{} series × {} snapshots, root rank {}, {} drift samples{}",
        model.n_rows(),
        model.n_steps(),
        model.root_rank(),
        model.drift_log().len(),
        if model.is_stale() { " [STALE]" } else { "" }
    );
    let _ = write!(out, "{}", model.as_mrdmd().tree_summary());
    let _ = writeln!(
        out,
        "storage: raw {:.2} MB → model {:.3} MB ({:.1}x)",
        rep.raw_bytes as f64 / 1e6,
        rep.model_bytes as f64 / 1e6,
        rep.ratio
    );
    Ok(out)
}

fn health(model_path: &Path) -> Result<String, CliError> {
    let model = load_model(model_path)?;
    let h = model.health();
    let mut out = String::new();
    let _ = writeln!(out, "{}", h.summary());
    let _ = writeln!(
        out,
        "root: {}{}",
        h.root.label(),
        h.root
            .cause()
            .map(|c| format!(" — {c}"))
            .unwrap_or_default()
    );
    for l in &h.levels {
        let _ = writeln!(
            out,
            "  level {}: {} healthy, {} degraded",
            l.level, l.healthy, l.degraded
        );
    }
    let _ = writeln!(
        out,
        "coverage: {:.1}% ({} of {} windows served by a live fit)",
        h.coverage * 100.0,
        h.healthy_nodes,
        h.healthy_nodes + h.degraded_nodes
    );
    let _ = writeln!(
        out,
        "solver: eig {} iterations / {} restarts, inner svd {} sweeps, isvd drift {:.3e} ({} breaches)",
        h.solver.last_eig_iterations,
        h.solver.last_eig_restarts,
        h.solver.last_inner_svd_sweeps,
        h.solver.isvd_drift,
        h.solver.isvd_drift_breaches
    );
    if let Some(e) = &h.last_error {
        let _ = writeln!(out, "last error: {e}");
    }
    Ok(out)
}

fn archive(
    model_path: &Path,
    tier: &str,
    out: Option<&Path>,
    store_dir: Option<&Path>,
) -> Result<String, CliError> {
    let tier = QuantTier::parse(tier).ok_or_else(|| {
        CliError(format!(
            "unknown --tier `{tier}` (expected f64, f32, or q16)"
        ))
    })?;
    let model = load_model(model_path)?;
    // --out wins; otherwise the store root's archives/ subdir; otherwise a
    // sibling of the model file.
    let path = match (out, store_dir) {
        (Some(p), _) => p.to_path_buf(),
        (None, Some(store)) => {
            let dir = store.join("archives");
            fs::create_dir_all(&dir)
                .map_err(|e| CliError(format!("cannot create {}: {e}", dir.display())))?;
            let stem = model_path
                .file_stem()
                .and_then(|s| s.to_str())
                .unwrap_or("model");
            dir.join(format!("{stem}.{}.arch", tier.as_str()))
        }
        (None, None) => model_path.with_extension("arch"),
    };
    let info = write_archive(&model, &path, tier)
        .map_err(|e| CliError(format!("cannot write archive: {e}")))?;
    let raw_bytes = (info.n_rows * info.n_steps * std::mem::size_of::<f64>()) as f64;
    Ok(format!(
        "archived {} series × {} snapshots at tier {}: {} node blocks, {:.3} MB ({:.1}x vs raw) → {}",
        info.n_rows,
        info.n_steps,
        info.tier,
        info.n_nodes,
        info.bytes as f64 / 1e6,
        raw_bytes / info.bytes as f64,
        path.display()
    ))
}

/// Picks the newest (by mtime) `*.arch` file under `dir`.
fn newest_archive(dir: &Path) -> Result<std::path::PathBuf, CliError> {
    let entries =
        fs::read_dir(dir).map_err(|e| CliError(format!("cannot read {}: {e}", dir.display())))?;
    let mut newest: Option<(std::time::SystemTime, std::path::PathBuf)> = None;
    for entry in entries {
        let entry = entry?;
        let path = entry.path();
        if path.extension().and_then(|e| e.to_str()) != Some("arch") {
            continue;
        }
        let modified = entry.metadata()?.modified()?;
        if newest.as_ref().is_none_or(|(t, _)| modified > *t) {
            newest = Some((modified, path));
        }
    }
    newest
        .map(|(_, p)| p)
        .ok_or_else(|| CliError(format!("no .arch files under {}", dir.display())))
}

fn replay(
    archive: Option<&Path>,
    store_dir: Option<&Path>,
    from: Option<usize>,
    to: Option<usize>,
    out: Option<&Path>,
) -> Result<String, CliError> {
    let path = match (archive, store_dir) {
        (Some(p), _) => p.to_path_buf(),
        (None, Some(store)) => newest_archive(&store.join("archives"))?,
        (None, None) => {
            return Err(CliError(
                "replay needs --archive FILE or --store-dir DIR".into(),
            ))
        }
    };
    let mut reader = ArchiveReader::open(&path)
        .map_err(|e| CliError(format!("cannot open archive {}: {e}", path.display())))?;
    let info = *reader.info();
    let t0 = from.unwrap_or(0);
    let t1 = to.unwrap_or(info.n_steps);
    let data = reader
        .replay(t0, t1)
        .map_err(|e| CliError(format!("replay failed: {e}")))?;
    let mut report = String::new();
    let _ = writeln!(
        report,
        "replayed [{t0}, {t1}) of {} snapshots from {} (tier {}, {} of {} blocks read)",
        info.n_steps,
        path.display(),
        info.tier,
        reader.blocks_read(),
        info.n_nodes
    );
    if let Some(out) = out {
        let mut file = std::io::BufWriter::new(fs::File::create(out)?);
        write_snapshots_csv(&mut file, &data, t0)?;
        use std::io::Write as _;
        file.flush()?;
        let _ = writeln!(
            report,
            "wrote {} series × {} snapshots to {}",
            data.rows(),
            data.cols(),
            out.display()
        );
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::parse_args;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("imrdmd-cli-tests");
        fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn synth_fit_update_analyze_info_pipeline() {
        let csv = tmp("pipeline.csv");
        let csv2 = tmp("pipeline2.csv");
        let model = tmp("pipeline.json");

        // synth
        let r = run(&parse_args(&argv(&format!(
            "synth --nodes 24 --steps 700 --seed 9 --out {}",
            csv.display()
        )))
        .unwrap())
        .unwrap();
        assert!(r.contains("24 series"));

        // split into initial + batch by rewriting CSVs
        let data = load_csv(&csv).unwrap();
        let mut f = fs::File::create(&csv).unwrap();
        write_snapshots_csv(&mut f, &data.cols_range(0, 500), 0).unwrap();
        let mut f = fs::File::create(&csv2).unwrap();
        write_snapshots_csv(&mut f, &data.cols_range(500, 700), 500).unwrap();

        // fit
        let r = run(&parse_args(&argv(&format!(
            "fit --input {} --dt 20 --levels 4 --model {}",
            csv.display(),
            model.display()
        )))
        .unwrap())
        .unwrap();
        assert!(r.contains("500 snapshots"), "{r}");

        // update
        let r = run(&parse_args(&argv(&format!(
            "update --model {} --input {}",
            model.display(),
            csv2.display()
        )))
        .unwrap())
        .unwrap();
        assert!(r.contains("absorbed 200 snapshots"), "{r}");
        assert!(r.contains("700 snapshots"), "{r}");

        // analyze (auto band)
        let mut full = fs::File::create(&csv).unwrap();
        write_snapshots_csv(&mut full, &data, 0).unwrap();
        let r = run(&parse_args(&argv(&format!(
            "analyze --model {} --input {}",
            model.display(),
            csv.display()
        )))
        .unwrap())
        .unwrap();
        assert!(r.contains("baseline band"), "{r}");
        assert!(r.contains("near baseline"), "{r}");

        // info
        let r =
            run(&parse_args(&argv(&format!("info --model {}", model.display()))).unwrap()).unwrap();
        assert!(r.contains("24 series × 700 snapshots"), "{r}");
        assert!(r.contains("storage:"), "{r}");

        // health — a clean fit reports every window healthy.
        let r = run(&parse_args(&argv(&format!("health --model {}", model.display()))).unwrap())
            .unwrap();
        assert!(r.contains("root healthy"), "{r}");
        assert!(r.contains("coverage: 100.0%"), "{r}");
        assert!(r.contains("level 1: 1 healthy, 0 degraded"), "{r}");
        assert!(r.contains("solver: eig"), "{r}");
        assert!(!r.contains("last error"), "{r}");
    }

    #[test]
    fn render_produces_svg() {
        let csv = tmp("render.csv");
        let model = tmp("render.json");
        let svg = tmp("render.svg");
        run(&parse_args(&argv(&format!(
            "synth --nodes 16 --steps 300 --out {}",
            csv.display()
        )))
        .unwrap())
        .unwrap();
        run(&parse_args(&argv(&format!(
            "fit --input {} --dt 20 --levels 3 --model {}",
            csv.display(),
            model.display()
        )))
        .unwrap())
        .unwrap();
        let cmd = Command::Render {
            model: model.clone(),
            input: csv.clone(),
            layout: "mini 1 1 row0-0:0-3 1 c:0 1 s:0-3 1 b:0 n:0".into(),
            out: svg.clone(),
        };
        let r = run(&cmd).unwrap();
        assert!(r.contains("rack view written"));
        let contents = fs::read_to_string(&svg).unwrap();
        assert!(contents.contains("</svg>"));
    }

    #[test]
    fn update_rejects_mismatched_series() {
        let csv = tmp("mismatch.csv");
        let csv_bad = tmp("mismatch_bad.csv");
        let model = tmp("mismatch.json");
        run(&parse_args(&argv(&format!(
            "synth --nodes 8 --steps 300 --out {}",
            csv.display()
        )))
        .unwrap())
        .unwrap();
        run(&parse_args(&argv(&format!(
            "fit --input {} --dt 20 --levels 3 --model {}",
            csv.display(),
            model.display()
        )))
        .unwrap())
        .unwrap();
        run(&parse_args(&argv(&format!(
            "synth --nodes 9 --steps 100 --out {}",
            csv_bad.display()
        )))
        .unwrap())
        .unwrap();
        let err = run(&Command::Update {
            model: model.clone(),
            input: csv_bad.clone(),
            model_out: None,
            threads: None,
        })
        .unwrap_err();
        assert!(err.0.contains("9 series"), "{err}");
    }

    #[test]
    fn missing_files_are_clean_errors() {
        let err = run(&Command::Info {
            model: tmp("does-not-exist.json"),
        })
        .unwrap_err();
        assert!(err.0.contains("cannot read model"));
        let err = run(&Command::Fit {
            input: tmp("missing.csv"),
            dt: 1.0,
            levels: 3,
            max_cycles: 2,
            threads: 0,
            fit_strategy: "exact".into(),
            sketch_seed: None,
            model: tmp("m.json"),
        })
        .unwrap_err();
        assert!(err.0.contains("cannot open"));
    }

    #[test]
    fn fit_strategy_sketched_is_seed_reproducible() {
        let csv = tmp("sketched.csv");
        let m1 = tmp("sketched1.json");
        let m2 = tmp("sketched2.json");
        run(&parse_args(&argv(&format!(
            "synth --nodes 16 --steps 400 --seed 11 --out {}",
            csv.display()
        )))
        .unwrap())
        .unwrap();
        // Two sketched fits with the same seed write identical models.
        for m in [&m1, &m2] {
            let r = run(&parse_args(&argv(&format!(
                "fit --input {} --dt 20 --levels 4 --fit-strategy sketched \
                 --sketch-seed 5 --model {}",
                csv.display(),
                m.display()
            )))
            .unwrap())
            .unwrap();
            assert!(r.contains("fitted 16 series"), "{r}");
        }
        assert_eq!(
            fs::read_to_string(&m1).unwrap(),
            fs::read_to_string(&m2).unwrap(),
            "sketched fit must be seed-reproducible"
        );
        // Unknown strategies are a clean error.
        let err = run(&parse_args(&argv(&format!(
            "fit --input {} --dt 20 --fit-strategy frob --model {}",
            csv.display(),
            m1.display()
        )))
        .unwrap())
        .unwrap_err();
        assert!(err.0.contains("unknown --fit-strategy"), "{err}");
    }

    #[test]
    fn stream_with_gaps_checkpoints_and_resumes() {
        let csv = tmp("stream.csv");
        let model_a = tmp("stream_a.json");
        let model_b = tmp("stream_b.json");
        let store = tmp("stream_store");
        let _ = fs::remove_dir_all(&store);

        run(&parse_args(&argv(&format!(
            "synth --nodes 16 --steps 600 --seed 3 --out {}",
            csv.display()
        )))
        .unwrap())
        .unwrap();

        // Punch NaN gaps into the CSV, then stream it with hold repair.
        let mut data = load_csv(&csv).unwrap();
        data[(2, 100)] = f64::NAN;
        data[(2, 101)] = f64::NAN;
        data[(7, 350)] = f64::NAN;
        let mut f = fs::File::create(&csv).unwrap();
        write_snapshots_csv(&mut f, &data, 0).unwrap();

        let r = run(&parse_args(&argv(&format!(
            "stream --input {} --dt 20 --chunk 100 --levels 4 --gap-policy hold \
             --store-dir {} --checkpoint-every 2 --model {}",
            csv.display(),
            store.display(),
            model_a.display()
        )))
        .unwrap())
        .unwrap();
        assert!(r.contains("streamed 6 chunks"), "{r}");
        assert!(r.contains("3 gaps, 3 repaired"), "{r}");
        assert!(r.contains("600 snapshots"), "{r}");
        assert!(r.contains("wrote 3 checkpoints"), "{r}");
        assert!(r.contains("health: root healthy"), "{r}");

        // Resume: the newest checkpoint spans all 600 snapshots, so a
        // `--resume` rerun is a no-op that duplicates no work…
        let r = run(&parse_args(&argv(&format!(
            "stream --input {} --dt 20 --chunk 100 --gap-policy hold \
             --store-dir {} --resume --model {}",
            csv.display(),
            store.display(),
            model_b.display()
        )))
        .unwrap())
        .unwrap();
        assert!(r.contains("at snapshot 600"), "{r}");
        assert!(r.contains("streamed 0 chunks (0 snapshots"), "{r}");

        // …but with 200 fresh columns appended it picks up at 600 exactly.
        let longer = data.hstack(&data.cols_range(0, 200));
        let mut f = fs::File::create(&csv).unwrap();
        write_snapshots_csv(&mut f, &longer, 0).unwrap();
        let r = run(&parse_args(&argv(&format!(
            "stream --input {} --dt 20 --chunk 100 --gap-policy hold \
             --store-dir {} --resume --model {}",
            csv.display(),
            store.display(),
            model_b.display()
        )))
        .unwrap())
        .unwrap();
        assert!(r.contains("at snapshot 600"), "{r}");
        assert!(r.contains("streamed 2 chunks (200 snapshots"), "{r}");
        assert!(r.contains("model now spans 800 snapshots"), "{r}");

        // A reject-policy stream over gappy data is a clean error.
        let err = run(&parse_args(&argv(&format!(
            "stream --input {} --dt 20 --chunk 100 --model {}",
            csv.display(),
            model_a.display()
        )))
        .unwrap())
        .unwrap_err();
        assert!(err.0.contains("non-finite"), "{err}");
    }

    #[test]
    fn stream_emits_metrics_lines_and_metrics_subcommand_renders() {
        let csv = tmp("metrics.csv");
        let model = tmp("metrics.json");
        run(&parse_args(&argv(&format!(
            "synth --nodes 12 --steps 400 --seed 5 --out {}",
            csv.display()
        )))
        .unwrap())
        .unwrap();

        let r = run(&parse_args(&argv(&format!(
            "stream --input {} --dt 20 --chunk 100 --levels 3 --metrics-every 2 --model {}",
            csv.display(),
            model.display()
        )))
        .unwrap())
        .unwrap();
        // 4 chunks, a line every 2nd → 2 JSON lines, each a parseable
        // MetricsLine carrying the running counters.
        let lines: Vec<&str> = r.lines().filter(|l| l.starts_with('{')).collect();
        assert_eq!(lines.len(), 2, "{r}");
        for line in &lines {
            let parsed: MetricsLine = serde_json::from_str(line).unwrap();
            // Counters are process-global: other tests may run concurrently,
            // so assert lower bounds only.
            assert!(parsed.snapshot.counter("round.count").unwrap_or(0) >= 1);
            assert!(parsed.snapshot.counter("gemm.calls").unwrap_or(0) >= 1);
        }
        let last: MetricsLine = serde_json::from_str(lines[1]).unwrap();
        assert_eq!(last.step, 400);
        assert_eq!(last.round, 4);

        // The metrics subcommand over the same CSV, both formats.
        let r = run(&parse_args(&argv(&format!(
            "metrics --input {} --dt 20 --levels 3 --chunk 100",
            csv.display()
        )))
        .unwrap())
        .unwrap();
        let snap: MetricsSnapshot = serde_json::from_str(r.trim()).unwrap();
        assert!(snap.counter("gemm.calls").unwrap_or(0) >= 1);
        let r = run(&parse_args(&argv(&format!(
            "metrics --input {} --dt 20 --levels 3 --chunk 100 --format prom",
            csv.display()
        )))
        .unwrap())
        .unwrap();
        assert!(r.contains("# TYPE gemm_calls counter"), "{r}");
        assert!(r.contains("# TYPE gemm_ns histogram"), "{r}");

        let err = run(&parse_args(&argv(&format!(
            "metrics --input {} --dt 20 --format yaml",
            csv.display()
        )))
        .unwrap())
        .unwrap_err();
        assert!(err.0.contains("unknown --format"), "{err}");
    }

    #[test]
    fn stream_flag_validation() {
        let err = run(&parse_args(&argv(
            "stream --input a.csv --dt 20 --model m.json --gap-policy frob",
        ))
        .unwrap())
        .unwrap_err();
        assert!(err.0.contains("unknown --gap-policy"), "{err}");
        let err = run(&parse_args(&argv(
            "stream --input a.csv --dt 20 --model m.json --resume",
        ))
        .unwrap())
        .unwrap_err();
        assert!(err.0.contains("--resume needs --store-dir"), "{err}");
        let err = run(&parse_args(&argv("stream --input a.csv --dt 0 --model m.json")).unwrap())
            .unwrap_err();
        assert!(err.0.contains("--dt must be positive"), "{err}");
    }

    #[test]
    fn one_snapshot_csv_is_a_clean_error() {
        let csv = tmp("one_snapshot.csv");
        let one = hpc_linalg::Mat::from_fn(4, 1, |i, _| i as f64);
        write_snapshots_csv(&mut fs::File::create(&csv).unwrap(), &one, 0).unwrap();
        for (cmd, want) in [
            ("fit", "fit needs at least two snapshots, got 1"),
            ("stream", "fit needs at least two snapshots, got 1"),
        ] {
            let model = tmp(&format!("one_snapshot_{cmd}.json"));
            let line = format!(
                "{cmd} --input {} --dt 20 --model {}",
                csv.display(),
                model.display()
            );
            let err = run(&parse_args(&argv(&line)).unwrap()).unwrap_err();
            assert!(err.0.contains(want), "{cmd}: {err}");
        }
    }

    #[test]
    fn render_rejects_undersized_layout() {
        let csv = tmp("small_layout.csv");
        let model = tmp("small_layout.json");
        run(&parse_args(&argv(&format!(
            "synth --nodes 16 --steps 200 --out {}",
            csv.display()
        )))
        .unwrap())
        .unwrap();
        run(&parse_args(&argv(&format!(
            "fit --input {} --dt 20 --levels 3 --model {}",
            csv.display(),
            model.display()
        )))
        .unwrap())
        .unwrap();
        let err = run(&Command::Render {
            model,
            input: csv,
            layout: "tiny 1 1 row0-0:0-1 1 c:0 1 s:0 1 b:0 n:0".into(),
            out: tmp("never.svg"),
        })
        .unwrap_err();
        assert!(err.0.contains("layout holds 2 nodes"), "{err}");
    }

    #[test]
    fn archive_replay_roundtrip_is_bitwise_at_f64() {
        let csv = tmp("arch.csv");
        let model_path = tmp("arch.json");
        let store = tmp("arch_store");
        let out_csv = tmp("arch_replay.csv");
        let _ = fs::remove_dir_all(&store);

        run(&parse_args(&argv(&format!(
            "synth --nodes 12 --steps 400 --seed 7 --out {}",
            csv.display()
        )))
        .unwrap())
        .unwrap();
        run(&parse_args(&argv(&format!(
            "fit --input {} --dt 20 --levels 4 --model {}",
            csv.display(),
            model_path.display()
        )))
        .unwrap())
        .unwrap();

        // Archive into the store root at the lossless tier.
        let r = run(&parse_args(&argv(&format!(
            "archive --model {} --tier f64 --store-dir {}",
            model_path.display(),
            store.display()
        )))
        .unwrap())
        .unwrap();
        assert!(r.contains("tier f64"), "{r}");
        assert!(store.join("archives/arch.f64.arch").is_file(), "{r}");

        // Replay a sub-range from the store's newest archive to CSV…
        let r = run(&parse_args(&argv(&format!(
            "replay --store-dir {} --from 100 --to 300 --out {}",
            store.display(),
            out_csv.display()
        )))
        .unwrap())
        .unwrap();
        assert!(r.contains("replayed [100, 300) of 400 snapshots"), "{r}");
        assert!(r.contains("12 series × 200 snapshots"), "{r}");

        // …and it matches the in-memory reconstruction bit for bit (the CSV
        // writes shortest-roundtrip f64, so equality survives the text hop).
        let replayed = load_csv(&out_csv).unwrap();
        let model = load_model(&model_path).unwrap();
        let expect = model.reconstruct_range(100, 300);
        assert_eq!((replayed.rows(), replayed.cols()), (12, 200));
        for i in 0..expect.rows() {
            for j in 0..expect.cols() {
                assert_eq!(
                    replayed[(i, j)].to_bits(),
                    expect[(i, j)].to_bits(),
                    "replay must be bitwise at f64 (row {i}, col {j})"
                );
            }
        }

        // Flag validation is clean on both subcommands.
        let err = run(&parse_args(&argv(&format!(
            "archive --model {} --tier f16",
            model_path.display()
        )))
        .unwrap())
        .unwrap_err();
        assert!(err.0.contains("unknown --tier"), "{err}");
        let err = run(&parse_args(&argv("replay --from 0")).unwrap()).unwrap_err();
        assert!(err.0.contains("--archive FILE or --store-dir DIR"), "{err}");
    }

    #[test]
    fn serve_rejects_bad_flags() {
        let bad_dt = bind_server(&ServeOpts {
            addr: "127.0.0.1:0",
            dt: 0.0,
            levels: 4,
            threads: 1,
            gap_policy: "interpolate",
            fit_strategy: "exact",
            sketch_seed: None,
            store_dir: None,
            checkpoint_every: 1,
            keep_checkpoints: 3,
            durability: "interval",
            max_body_mb: 32,
            max_tenants: 16,
            max_inflight: 16,
        })
        .unwrap_err();
        assert!(bad_dt.0.contains("--dt"), "{bad_dt}");

        let bad_policy = bind_server(&ServeOpts {
            addr: "127.0.0.1:0",
            dt: 20.0,
            levels: 4,
            threads: 1,
            gap_policy: "yolo",
            fit_strategy: "exact",
            sketch_seed: None,
            store_dir: None,
            checkpoint_every: 1,
            keep_checkpoints: 3,
            durability: "interval",
            max_body_mb: 32,
            max_tenants: 16,
            max_inflight: 16,
        })
        .unwrap_err();
        assert!(bad_policy.0.contains("gap-policy"), "{bad_policy}");
    }

    #[test]
    fn serve_binds_answers_healthz_and_shuts_down() {
        use std::io::{Read as _, Write as _};

        let (server, restored, corrupt) = bind_server(&ServeOpts {
            addr: "127.0.0.1:0",
            dt: 20.0,
            levels: 4,
            threads: 1,
            gap_policy: "interpolate",
            fit_strategy: "exact",
            sketch_seed: None,
            store_dir: None,
            checkpoint_every: 1,
            keep_checkpoints: 3,
            durability: "interval",
            max_body_mb: 4,
            max_tenants: 16,
            max_inflight: 16,
        })
        .unwrap();
        assert_eq!((restored, corrupt), (0, 0));
        let addr = server.local_addr();
        let handle = server.handle();
        let worker = std::thread::spawn(move || server.run());

        let mut conn = std::net::TcpStream::connect(addr).unwrap();
        conn.write_all(b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n")
            .unwrap();
        let mut reply = String::new();
        conn.read_to_string(&mut reply).unwrap();
        assert!(reply.starts_with("HTTP/1.1 200"), "{reply}");
        assert!(reply.contains("\"status\":\"ok\""), "{reply}");

        handle.shutdown();
        worker.join().unwrap().unwrap();
    }
}
