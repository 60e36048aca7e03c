//! `fleet-ingest`: an open-loop schedule of scrape-cadence ingests, with
//! about one read in ten beside them, to a durable serving daemon over
//! real TCP.
//!
//! The untraced run drives `imrdmd-cli serve` in a child process (this
//! binary re-executed with `--daemon`, which calls the CLI's own entry
//! point). The traced run drives [`crate::tserver`] in process. Either
//! way the load comes from one process with at most `nproc` (capped at 2)
//! connections, one sender thread each.

use std::io::{BufRead, BufReader, Write};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use hpc_linalg::Mat;
use hpc_telemetry::{
    theta, write_snapshots_csv, ChunkStream, FaultConfig, FaultInjector, Scenario,
};
use imrdmd::wal::Durability;
use imrdmd::{FitStrategy, GapPolicy, IMrDmdConfig, MrDmdConfig, RankSelection};
use imrdmd_serve::{ManagerConfig, Shard};

use crate::client::Conn;
use crate::host::{self, Counters};
use crate::report::{Outcome, PerOp};
use crate::schedule::{self, judge, max_passing, Op, ReadKind, Slot, Timing};
use crate::stats;
use crate::trace;
use crate::tserver::TracedServer;

/// Tenants (shards).
pub const TENANTS: usize = 64;
/// Nodes per tenant; Theta logs four series per node, so 16 sensors.
const NODES: usize = 4;
/// Snapshots per scrape-cadence ingest batch.
const BATCH: usize = 4;
/// Snapshots in each tenant's cold-start batch.
const INIT: usize = 128;
/// Decomposition depth every shard fits with.
const LEVELS: usize = 4;
/// Batches between a shard's checkpoints (`--checkpoint-every`).
const CHECKPOINT_EVERY: usize = 32;
/// Sampling interval of the Theta model, seconds.
const DT: f64 = 20.0;
/// One request in this many is a read.
const READ_EVERY: usize = 10;
/// Cold starts measured per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Reference rate (requests/s) at which latency is reported. Much lower
/// rates leave the client's vCPU idle between sends, and waking it makes
/// the generator run late on a virtual machine.
const REF_RATE: f64 = 400.0;
/// Rung 0 of the rate ladder, requests/s.
const LADDER_BASE: f64 = 400.0;
/// Share of requests that are ingests.
const INGEST_SHARE: f64 = 1.0 - 1.0 / READ_EVERY as f64;
/// Measured rounds per second of `--seconds`, and the fewest per run:
/// enough short rounds that their medians withstand a slow spell of the
/// host during a few of them.
const ROUNDS_PER_SECOND: f64 = 0.5;
const MIN_ROUNDS: usize = 9;
/// Ingests per reference window: a p75 with ten samples beyond it.
const WINDOW_INGESTS: f64 = 300.0;
/// Requests per saturation chunk.
const SAT_CHUNK: f64 = 600.0;
/// Ingests per ladder step: enough for a p99 with ten samples beyond.
const STEP_INGESTS: f64 = 1200.0;
/// Shortest ladder step, seconds: long enough for a backlog to build.
const MIN_STEP_S: f64 = 1.5;
/// Ingest p99 limit a ladder step must meet, ms.
const LIMIT_MS: f64 = 25.0;
/// Generator lateness p99 beyond which a window or step is invalid, ms.
/// The client runs 0.1 to 0.6 ms late on a quiet 2-core host and 4 to 8 ms
/// late when other load shares its cores; the limit invalidates a
/// generator that stalls, and every run reports its lateness.
const LATE_LIMIT_MS: f64 = 10.0;
/// Matrix cells one ingest carries.
const CELLS_PER_INGEST: f64 = (NODES * 4 * BATCH) as f64;

/// Why the workload exists, recorded with every result.
pub const WHY: &str = "the only workload through http, manager, gate, ingest repair, engine waves, WAL and checkpoint, with reads beside writes";

/// CPU nanoseconds the load generator's threads have used: the traced
/// target shares this process with them, and its CPU time leaves theirs
/// out.
static CLIENT_CPU_NS: AtomicU64 = AtomicU64::new(0);

/// Counts the calling load-generator thread's CPU time since `since`
/// (its [`host::thread_cpu_s`] reading) as the client's.
fn count_client_cpu(since: f64) {
    let ns = (host::thread_cpu_s() - since) * 1e9;
    CLIENT_CPU_NS.fetch_add(ns.max(0.0) as u64, Ordering::Relaxed);
}

fn tenant_name(k: usize) -> String {
    format!("t{k:02}")
}

/// Load-generator connections: at most `nproc`, at most two.
fn connections() -> usize {
    host::nproc().clamp(1, 2)
}

/// The model every shard fits with: what `imrdmd-cli serve --dt 20
/// --levels 4` builds.
fn model_config() -> IMrDmdConfig {
    let mr = MrDmdConfig::builder()
        .dt(DT)
        .max_levels(LEVELS)
        .max_cycles(2)
        .rank(RankSelection::Svht)
        .n_threads(0)
        .fit_strategy(FitStrategy::Exact)
        .build()
        .expect("static model config is valid");
    IMrDmdConfig::builder()
        .mr(mr)
        .build()
        .expect("static model config is valid")
}

/// A batch and its CSV wire form.
struct Batch {
    mat: Mat,
    csv: Vec<u8>,
}

fn batch(mat: Mat, first_step: usize) -> Batch {
    let mut csv = Vec::new();
    write_snapshots_csv(&mut csv, &mat, first_step).expect("CSV into memory");
    Batch { mat, csv }
}

/// Every tenant's cold-start batch and warm batches.
struct Inputs {
    init: Vec<Batch>,
    warm: Vec<Vec<Batch>>,
}

/// Theta SC-log telemetry per tenant; warm batches carry light NaN gaps
/// (dropped samples and short NaN runs, no duplicates).
fn inputs(seed: u64, warm_batches: usize) -> Inputs {
    let total = INIT + BATCH * warm_batches;
    let mut init = Vec::with_capacity(TENANTS);
    let mut warm = Vec::with_capacity(TENANTS);
    for k in 0..TENANTS {
        let tenant_seed = seed.wrapping_mul(1_000_003).wrapping_add(k as u64);
        let sc = Scenario::sc_log(theta().scaled(NODES), total, tenant_seed);
        init.push(batch(sc.generate(0, INIT), 0));
        let faults = FaultConfig {
            seed: tenant_seed ^ 0xFA17,
            drop_prob: 0.002,
            nan_run_prob: 0.05,
            nan_run_max_len: 3,
            ..FaultConfig::none(0)
        };
        let stream =
            FaultInjector::with_start(ChunkStream::new(&sc, INIT, total, BATCH), faults, INIT);
        warm.push(
            stream
                .enumerate()
                .map(|(j, m)| batch(m, INIT + BATCH * j))
                .collect(),
        );
    }
    Inputs { init, warm }
}

/// Prefix of the daemon's answers to CPU-time probes.
const CPU_PROBE: &str = "perfbench-cpu-s ";

/// In the daemon process: answers each line on stdin with the process's
/// CPU seconds on stdout, so the benchmark reads the daemon's CPU time to
/// the nanosecond (`/proc/<pid>/stat` counts clock ticks, 10 ms).
pub fn answer_cpu_probes() {
    std::thread::spawn(|| {
        for _ in std::io::stdin().lines().map_while(Result::ok) {
            println!("{CPU_PROBE}{:?}", host::cpu_s());
        }
    });
}

/// `imrdmd-cli serve` in a child process.
struct Daemon {
    child: Child,
    addr: SocketAddr,
    drain: Option<JoinHandle<()>>,
    probe: Mutex<(ChildStdin, BufReader<ChildStdout>)>,
}

impl Daemon {
    fn spawn(store: &Path) -> std::io::Result<Daemon> {
        let mut child = Command::new(std::env::current_exe()?)
            .arg("--daemon")
            .args(["serve", "--addr", "127.0.0.1:0", "--dt", "20", "--levels"])
            .arg(LEVELS.to_string())
            .args([
                "--gap-policy",
                "interpolate",
                "--durability",
                "interval",
                "--checkpoint-every",
            ])
            .arg(CHECKPOINT_EVERY.to_string())
            .arg("--store-dir")
            .arg(store)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()?;
        let probe = Mutex::new((
            child.stdin.take().expect("stdin is piped"),
            BufReader::new(child.stdout.take().expect("stdout is piped")),
        ));
        let mut lines = BufReader::new(child.stderr.take().expect("stderr is piped")).lines();
        let addr = loop {
            match lines.next() {
                Some(Ok(l)) => {
                    if let Some(rest) = l.split("listening on http://").nth(1) {
                        let a = rest.split_whitespace().next().unwrap_or_default();
                        break a.parse::<SocketAddr>().ok();
                    }
                    eprintln!("daemon: {l}");
                }
                _ => break None,
            }
        };
        let Some(addr) = addr else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(std::io::Error::other("daemon exited before listening"));
        };
        let drain = std::thread::spawn(move || {
            for l in lines.map_while(Result::ok) {
                eprintln!("daemon: {l}");
            }
        });
        Ok(Daemon {
            child,
            addr,
            drain: Some(drain),
            probe,
        })
    }

    /// The daemon's CPU seconds so far (NaN if it does not answer).
    fn cpu_s(&self) -> f64 {
        let mut probe = self.probe.lock().unwrap_or_else(|e| e.into_inner());
        let (stdin, stdout) = &mut *probe;
        if writeln!(stdin).and_then(|()| stdin.flush()).is_err() {
            return f64::NAN;
        }
        let mut line = String::new();
        loop {
            line.clear();
            match stdout.read_line(&mut line) {
                Ok(0) | Err(_) => return f64::NAN,
                Ok(_) => {
                    if let Some(v) = line.trim_end().strip_prefix(CPU_PROBE) {
                        return v.parse().unwrap_or(f64::NAN);
                    }
                }
            }
        }
    }

    fn stop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(d) = self.drain.take() {
            let _ = d.join();
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.stop();
    }
}

/// The serving target: the real daemon, or the traced rebuild.
enum Target {
    Daemon(Daemon),
    Traced(TracedServer),
}

impl Target {
    fn start(traced: bool, store: &Path) -> std::io::Result<Target> {
        std::fs::create_dir_all(store)?;
        if traced {
            TracedServer::start(ManagerConfig {
                model: model_config(),
                policy: GapPolicy::Interpolate,
                checkpoint_dir: Some(store.join("checkpoints")),
                checkpoint_every: CHECKPOINT_EVERY,
                keep_checkpoints: 3,
                durability: Durability::Interval,
                max_tenants: 4096,
                max_inflight: 256,
            })
            .map(Target::Traced)
        } else {
            Daemon::spawn(store).map(Target::Daemon)
        }
    }

    fn addr(&self) -> SocketAddr {
        match self {
            Target::Daemon(d) => d.addr,
            Target::Traced(t) => t.addr(),
        }
    }

    fn peak_rss_mb(&self) -> f64 {
        match self {
            Target::Daemon(d) => host::peak_rss_mb(Some(d.child.id())),
            Target::Traced(_) => host::peak_rss_mb(None),
        }
    }

    /// CPU seconds the serving side has used so far: the daemon's, or
    /// (traced, in process) this process's but the load generator's.
    fn cpu_s(&self) -> f64 {
        match self {
            Target::Daemon(d) => d.cpu_s(),
            Target::Traced(_) => {
                host::cpu_s() - CLIENT_CPU_NS.load(Ordering::Relaxed) as f64 * 1e-9
            }
        }
    }

    fn stop(self) {
        match self {
            Target::Daemon(mut d) => d.stop(),
            Target::Traced(t) => t.stop(),
        }
    }
}

/// Warm batches tenant `k` absorbs during set-up. Spreading the counts
/// over one checkpoint interval staggers the tenants' checkpoints, as in
/// a fleet whose racks did not all come up in the same second; without
/// it a round-robin schedule checkpoints every tenant at once.
fn stagger(k: usize) -> usize {
    k * CHECKPOINT_EVERY / TENANTS
}

/// Starts a target, cold-starts every tenant and staggers their
/// checkpoint phases; returns it with the wall seconds that took and the
/// serving side's CPU seconds (see [`Target::cpu_s`]).
fn setup_once(traced: bool, store: &Path, inputs: &Inputs) -> std::io::Result<(Target, f64, f64)> {
    let start = Instant::now();
    let in_process = host::cpu_s() - CLIENT_CPU_NS.load(Ordering::Relaxed) as f64 * 1e-9;
    let target = Target::start(traced, store)?;
    let addr = target.addr();
    let conns = connections();
    let failed = std::thread::scope(|s| {
        let workers: Vec<_> = (0..conns)
            .map(|c| {
                s.spawn(move || -> std::io::Result<usize> {
                    let cpu = host::thread_cpu_s();
                    let mut conn = Conn::connect(addr)?;
                    let mut failed = 0;
                    for k in (c..TENANTS).step_by(conns) {
                        let path = format!("/v1/{}/ingest", tenant_name(k));
                        let warm = inputs.warm[k][..stagger(k)].iter();
                        for body in std::iter::once(&inputs.init[k]).chain(warm) {
                            let (status, _) = conn.request("POST", &path, &body.csv)?;
                            failed += usize::from(status != 200);
                        }
                    }
                    count_client_cpu(cpu);
                    Ok(failed)
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("cold-start thread panicked"))
            .sum::<std::io::Result<usize>>()
    })?;
    if failed > 0 {
        target.stop();
        return Err(std::io::Error::other(format!(
            "{failed} set-up ingests failed"
        )));
    }
    let cpu = match &target {
        Target::Daemon(_) => target.cpu_s(),
        Target::Traced(_) => target.cpu_s() - in_process,
    };
    Ok((target, start.elapsed().as_secs_f64(), cpu))
}

fn sleep_until(t: Instant) {
    let now = Instant::now();
    if t > now {
        std::thread::sleep(t - now);
    }
}

/// Sends `slots` open-loop over the persistent connections `conns`:
/// connection `c` carries the tenants `k` with `k % conns.len() == c`, so
/// each tenant's batches stay in order. Returns one timing per slot and
/// advances `cursors` past every acked batch.
fn drive(
    addr: SocketAddr,
    conns: &mut [Option<Conn>],
    slots: &[Slot],
    inputs: &Inputs,
    cursors: &[AtomicUsize],
) -> Vec<Timing> {
    let n_conns = conns.len();
    let start = Instant::now() + Duration::from_millis(5);
    let mut timings = vec![Timing::default(); slots.len()];
    std::thread::scope(|s| {
        let workers: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(c, conn)| {
                s.spawn(move || {
                    let cpu = host::thread_cpu_s();
                    let mut free = 0.0f64;
                    let mut out = Vec::new();
                    for (i, slot) in slots
                        .iter()
                        .enumerate()
                        .filter(|(_, s)| s.op.tenant() % n_conns == c)
                    {
                        let due = slot.due_ns as f64 * 1e-9;
                        sleep_until(start + Duration::from_nanos(slot.due_ns));
                        let ready = due.max(free);
                        let sent = start.elapsed().as_secs_f64();
                        let k = slot.op.tenant();
                        let cursor = &cursors[k];
                        let at = cursor.load(Ordering::Relaxed);
                        let (path, body, ingest): (String, &[u8], bool) = match slot.op {
                            Op::Ingest { .. } => (
                                format!("/v1/{}/ingest", tenant_name(k)),
                                &inputs.warm[k][at].csv,
                                true,
                            ),
                            Op::Read { kind, .. } => {
                                let steps = INIT + BATCH * at;
                                let path = match kind {
                                    ReadKind::Status => {
                                        format!("/v1/{}/status", tenant_name(k))
                                    }
                                    ReadKind::Forecast => {
                                        format!("/v1/{}/forecast?h=16", tenant_name(k))
                                    }
                                    ReadKind::Reconstruct => {
                                        format!(
                                            "/v1/{}/reconstruct?t0={}&t1={steps}",
                                            tenant_name(k),
                                            steps - 64
                                        )
                                    }
                                };
                                (path, &[][..], false)
                            }
                        };
                        let method = if ingest { "POST" } else { "GET" };
                        let status = match conn.as_mut().map(|c| c.request(method, &path, body)) {
                            Some(Ok((status, _))) => status,
                            _ => {
                                *conn = Conn::connect(addr).ok();
                                0
                            }
                        };
                        let ok = (200..300).contains(&status);
                        if ok && ingest {
                            cursor.store(at + 1, Ordering::Relaxed);
                        }
                        let done = start.elapsed().as_secs_f64();
                        free = done;
                        out.push((
                            i,
                            Timing {
                                due,
                                ready,
                                sent,
                                done,
                                ingest,
                                ok,
                            },
                        ));
                    }
                    count_client_cpu(cpu);
                    out
                })
            })
            .collect();
        for w in workers {
            for (i, t) in w.join().expect("sender thread panicked") {
                timings[i] = t;
            }
        }
    });
    timings
}

/// Compares every tenant's final `status` and full `reconstruct`, string
/// for string, with an in-process `Shard::ingest` oracle fed the acked
/// batches. Returns `(checks, mismatches)`.
fn check(addr: SocketAddr, inputs: &Inputs, cursors: &[AtomicUsize]) -> (usize, usize) {
    let conns = connections();
    let cfg = model_config();
    let bad = std::thread::scope(|s| {
        let workers: Vec<_> = (0..conns)
            .map(|c| {
                let cfg = &cfg;
                s.spawn(move || {
                    let mut conn = Conn::connect(addr).ok();
                    let mut bad = 0usize;
                    for k in (c..TENANTS).step_by(conns) {
                        let name = tenant_name(k);
                        let mut oracle = Shard::new(&name, None);
                        let n = cursors[k].load(Ordering::Relaxed);
                        let mut ok = oracle
                            .ingest(&inputs.init[k].mat, Some(0), cfg, GapPolicy::Interpolate)
                            .is_ok();
                        for (j, b) in inputs.warm[k][..n].iter().enumerate() {
                            ok &= oracle
                                .ingest(&b.mat, Some(INIT + BATCH * j), cfg, GapPolicy::Interpolate)
                                .is_ok();
                        }
                        let want_status =
                            serde_json::to_string(&oracle.status()).unwrap_or_default();
                        let want_recon = oracle
                            .with_model(|m| {
                                serde_json::to_string(&m.reconstruct()).unwrap_or_default()
                            })
                            .unwrap_or_default();
                        let mut get = |path: String| {
                            conn.as_mut()
                                .and_then(|c| c.request("GET", &path, b"").ok())
                                .filter(|(status, _)| *status == 200)
                                .map(|(_, body)| body)
                        };
                        let got_status = get(format!("/v1/{name}/status"));
                        let got_recon = get(format!("/v1/{name}/reconstruct"));
                        if !ok || got_status.as_deref() != Some(want_status.as_bytes()) {
                            eprintln!(
                                "fleet-ingest: tenant {name}: status differs from the oracle"
                            );
                            bad += 1;
                        }
                        if !ok || got_recon.as_deref() != Some(want_recon.as_bytes()) {
                            eprintln!(
                                "fleet-ingest: tenant {name}: reconstruct differs from the oracle"
                            );
                            bad += 1;
                        }
                    }
                    bad
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("check thread panicked"))
            .sum::<usize>()
    });
    (2 * TENANTS, bad)
}

fn latencies(timings: &[Timing], ingest: bool) -> Vec<f64> {
    timings
        .iter()
        .filter(|t| t.ingest == ingest)
        .map(Timing::latency_ms)
        .collect()
}

/// The highest percentile with enough samples beyond it, as `(label,
/// value)`.
fn tail(samples: &[f64]) -> (&'static str, f64) {
    for (label, q) in [("p99", 0.99), ("p90", 0.90)] {
        if let Some(v) = stats::quantile(samples, q) {
            return (label, v);
        }
    }
    ("max", samples.iter().copied().fold(0.0, f64::max))
}

/// Runs the workload.
pub fn run(work: &Path, seed: u64, seconds: f64, traced: bool) -> std::io::Result<Outcome> {
    // Every schedule is fixed by the seed: the measured rounds, and each
    // ladder rung. Inputs cover the rounds plus the longest climb.
    let rounds = ((seconds * ROUNDS_PER_SECOND).round() as usize).max(MIN_ROUNDS);
    let ref_secs = WINDOW_INGESTS / (REF_RATE * INGEST_SHARE);
    let windows: Vec<Vec<Slot>> = (0..rounds)
        .map(|r| schedule::phase(seed, 2 * r as u64, REF_RATE, ref_secs, TENANTS, READ_EVERY))
        .collect();
    // Saturation chunks: requests all due at once, so both connections
    // send back to back; the completion rate is the throughput the daemon
    // sustains.
    let chunks: Vec<Vec<Slot>> = (0..rounds)
        .map(|r| {
            schedule::phase(
                seed,
                2 * r as u64 + 1,
                1e9,
                SAT_CHUNK / 1e9,
                TENANTS,
                READ_EVERY,
            )
        })
        .collect();
    let rungs: Vec<(f64, f64, Vec<Slot>)> = (0..=schedule::COARSE[schedule::COARSE.len() - 1])
        .map(|k| {
            let rate = schedule::rung(LADDER_BASE, k);
            let secs = (STEP_INGESTS / (rate * INGEST_SHARE)).max(MIN_STEP_S);
            (
                rate,
                secs,
                schedule::phase(seed, 1000 + k as u64, rate, secs, TENANTS, READ_EVERY),
            )
        })
        .collect();
    let per_tenant = |slots: &[Slot]| {
        let mut n = vec![0usize; TENANTS];
        for s in slots {
            if let Op::Ingest { tenant } = s.op {
                n[tenant] += 1;
            }
        }
        n
    };
    let mut need: Vec<usize> = (0..TENANTS).map(stagger).collect();
    for slots in windows.iter().chain(&chunks) {
        for (k, n) in per_tenant(slots).into_iter().enumerate() {
            need[k] += n;
        }
    }
    let step_max = rungs
        .iter()
        .flat_map(|(_, _, slots)| per_tenant(slots))
        .max()
        .unwrap_or(0);
    let max_steps = schedule::COARSE.len() + 3;
    let inputs = inputs(
        seed,
        need.iter()
            .map(|n| n + max_steps * step_max)
            .max()
            .unwrap_or(0),
    );

    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut setup_cpus = Vec::with_capacity(SETUP_REPS);
    let mut target = None;
    for rep in 0..SETUP_REPS {
        let store = work.join(format!("store{rep}"));
        let (t, secs, cpu) = setup_once(traced, &store, &inputs)?;
        setups.push(secs);
        setup_cpus.push(cpu);
        if let Some(old) = target.replace(t) {
            Target::stop(old);
        }
    }
    let target = target.expect("at least one set-up");
    let addr = target.addr();
    let cursors: Vec<AtomicUsize> = (0..TENANTS).map(|k| AtomicUsize::new(stagger(k))).collect();

    trace::set_enabled(traced);
    let before = Counters::capture();
    let measured = Instant::now();
    let mut all: Vec<Timing> = Vec::new();
    let mut conns: Vec<Option<Conn>> = (0..connections())
        .map(|_| Conn::connect(addr).ok())
        .collect();
    let mut send = |slots: &[Slot]| {
        let timings = drive(addr, &mut conns, slots, &inputs, &cursors);
        all.extend_from_slice(&timings);
        timings
    };
    let verdict = |rate: f64, secs: f64, timings: &[Timing]| {
        let v = judge(timings, secs, rate, LIMIT_MS, LATE_LIMIT_MS);
        eprintln!(
            "fleet-ingest: {rate:>7.1} req/s: ingest p99 {:>8.3} ms, late p99 {:.3} ms, backlog {:?}, {}",
            v.ingest_p99_ms.unwrap_or(f64::NAN),
            v.late_p99_ms,
            v.backlog,
            if v.passes { "pass" } else { "fail" }
        );
        v
    };
    // Measured rounds: a reference window, then a saturation chunk. The
    // gated figure is the daemon's CPU time per request over the windows:
    // CPU time leaves out what the hypervisor steals from this guest,
    // which moves wall-time figures by up to 2x from one minute to the
    // next. (Under steal the chunks' CPU per request moves too, by a
    // quarter, as waves form differently; it is reported, not gated.) It is
    // not scaled by `host::HostSpeed`: the reference computation would run
    // in this process, not the daemon's, and did not track the daemon.
    // Each valid window also gives a wall-time ingest p50 and p75 (a
    // window whose generator ran late or whose backlog grew is never used)
    // and each chunk a wall-time throughput; the report carries their
    // medians, and the valid windows' latencies pool into its p90 and p99.
    let (mut ingests, mut reads, mut rates) = (Vec::new(), Vec::new(), Vec::new());
    let (mut p50s, mut p75s) = (Vec::new(), Vec::new());
    let mut verdicts = Vec::new();
    let (mut window_cpu, mut window_ops, mut window_ingests) = (0.0, 0usize, 0usize);
    let (mut chunk_cpu, mut chunk_ingests) = (0.0, 0usize);
    for (window, chunk) in windows.iter().zip(&chunks) {
        let cpu0 = target.cpu_s();
        let timings = send(window);
        let cpu1 = target.cpu_s();
        let v = verdict(REF_RATE, ref_secs, &timings);
        window_cpu += cpu1 - cpu0;
        window_ops += timings.len();
        window_ingests += timings.iter().filter(|t| t.ingest && t.ok).count();
        if !v.late && !v.grew {
            let window = latencies(&timings, true);
            p50s.push(stats::median(&window));
            p75s.extend(stats::quantile(&window, 0.75));
            ingests.extend(window);
            reads.extend(latencies(&timings, false));
        }
        verdicts.push(v);
        let cpu0 = target.cpu_s();
        let sat = send(chunk);
        chunk_cpu += target.cpu_s() - cpu0;
        chunk_ingests += sat.iter().filter(|t| t.ingest && t.ok).count();
        let span = sat.iter().map(|t| t.done).fold(0.0, f64::max)
            - sat.iter().map(|t| t.sent).fold(f64::INFINITY, f64::min);
        rates.push(sat.iter().filter(|t| t.ingest && t.ok).count() as f64 / span.max(1e-9));
    }
    let invalid_windows = verdicts.iter().filter(|v| v.late || v.grew).count();
    let rss = target.peak_rss_mb();
    let climbed = schedule::climb(|k| {
        let (rate, secs, slots) = &rungs[k];
        let timings = send(slots);
        verdict(*rate, *secs, &timings)
    });
    verdicts.extend(climbed.into_iter().map(|(_, v)| v));
    let measured_s = measured.elapsed().as_secs_f64();
    drop(conns);
    trace::set_enabled(false);
    let delta = Counters::capture().since(&before);
    let (checks, mismatches) = check(addr, &inputs, &cursors);
    target.stop();

    let lat_all: Vec<f64> = all.iter().map(Timing::lateness_ms).collect();
    let ingest_p75 = (!p75s.is_empty()).then(|| stats::median(&p75s));
    let ingest_p90 = stats::quantile(&ingests, 0.90);
    let ingest_p99 = stats::quantile(&ingests, 0.99);
    let (p50, sat_rps) = (stats::median(&p50s), stats::median(&rates));
    let (read_tail_label, read_tail) = tail(&reads);
    let best = max_passing(&verdicts);
    let max_rps = best.map_or(0.0, |v| v.achieved_ingest_rps);
    let failed_requests = all.iter().filter(|t| !t.ok).count();
    let attempted = all.len() + checks;
    let failed = failed_requests + mismatches;

    let mut out = Outcome::new(attempted, failed);
    let cpu_per_op = window_cpu * 1e3 / window_ops.max(1) as f64;
    let cells_per_cpu = window_ingests as f64 * CELLS_PER_INGEST / window_cpu.max(1e-9);
    out.metric("setup_s", stats::median(&setup_cpus), "s");
    out.metric("peak_rss_mb", rss, "MB");
    out.metric("cpu_ms_per_op", cpu_per_op, "ms");
    out.detail("ingest_cells_per_cpu_s", cells_per_cpu);

    out.detail("setup_wall_s", stats::median(&setups));
    out.detail("daemon_cpu_ms_per_request", cpu_per_op);
    out.detail(
        "saturated_cells_per_cpu_s",
        chunk_ingests as f64 * CELLS_PER_INGEST / chunk_cpu.max(1e-9),
    );
    out.detail("saturated_cells_per_s", sat_rps * CELLS_PER_INGEST);
    out.detail("ingest_p50_ms", p50);
    out.detail("ingest_p75_ms", ingest_p75.unwrap_or(f64::NAN));
    out.detail("ingest_p90_ms", ingest_p90.unwrap_or(f64::NAN));
    out.detail("ingest_p99_ms", ingest_p99.unwrap_or(f64::NAN));
    out.detail("ingest_samples", ingests.len() as f64);
    out.detail("rounds", rounds as f64);
    out.detail("invalid_windows", invalid_windows as f64);
    out.detail("read_p50_ms", stats::median(&reads));
    out.detail(&format!("read_{read_tail_label}_ms"), read_tail);
    out.detail("read_samples", reads.len() as f64);
    out.detail("max_ingest_rps", max_rps);
    out.detail("saturated_ingest_rps", sat_rps);
    out.detail("reference_rps", REF_RATE);
    out.detail("ingest_limit_ms", LIMIT_MS);
    out.detail(
        "generator_late_p99_ms",
        stats::quantile(&lat_all, 0.99).unwrap_or(f64::NAN),
    );
    out.detail("connections", connections() as f64);
    out.detail("setup_reps", SETUP_REPS as f64);
    out.ladder = verdicts;

    if traced {
        let summary = trace::finish(Some(&work.with_file_name("spans-fleet-ingest.jsonl")))?;
        let ops = all.len() as f64;
        let mut p = PerOp::new(&summary, &delta, ops, measured_s);
        p.spans(&[
            ("http.read_ms", "http.read"),
            ("http.write_ms", "http.write"),
            ("ingest.parse_ms", "ingest.parse"),
            ("ingest.encode_ms", "ingest.encode"),
            ("manager.admit_ms", "manager.admit"),
            ("manager.shard_ms", "manager.shard"),
            ("shard.lock_wait_ms", "shard.lock_wait"),
            ("read.model_ms", "read.model"),
            ("read.encode_ms", "read.encode"),
        ]);
        // Inside the program's gate the figures are its own counters: one
        // `round.ns` observation per engine wave, `round.count` per round,
        // `ingest.ns` per repair pass, and the WAL and checkpoint times
        // that finish a round. The gate's own time is what its span holds
        // beyond the wave, the WAL and the checkpoints.
        let engine_ms = delta.ms("round.ns");
        let finish_ms = delta.ms("wal.ns") + delta.ms("checkpoint.ns");
        let (waves, rounds) = (delta.count("round.ns"), delta.count("round.count"));
        let ratio = |a: f64, b: u64| if b > 0 { a / b as f64 } else { 0.0 };
        p.set("engine.run_fleet_ms", engine_ms / ops.max(1.0));
        p.set("engine.round_ms", ratio(engine_ms, rounds));
        p.set("engine.wave_rounds", ratio(rounds as f64, waves));
        p.set("shard.prepare_ms", delta.ms("ingest.ns") / ops.max(1.0));
        p.set("shard.finish_ms", finish_ms / ops.max(1.0));
        p.set(
            "gate.submit_ms",
            (summary.self_ms("gate.submit") - engine_ms - finish_ms).max(0.0) / ops.max(1.0),
        );
        out.layers = Some(p.finish(&out.metrics));
    }
    Ok(out)
}
