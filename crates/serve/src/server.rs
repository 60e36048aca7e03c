//! The daemon: accept loop, routing, and shutdown semantics.
//!
//! Thread-per-connection over `std::net::TcpListener` with keep-alive, a
//! concurrent-connection cap (excess connections are shed with 503 at the
//! accept loop), and two shutdown modes:
//!
//! * [`ServerHandle::shutdown`] — graceful: stop accepting, drain
//!   in-flight requests, write a final checkpoint for every fitted shard;
//! * [`ServerHandle::kill`] — SIGKILL-equivalent for tests: stop
//!   accepting and drop all in-memory state with **no** final checkpoint,
//!   so recovery exercises only the interval checkpoints a real crash
//!   would leave behind.
//!
//! ## Routes
//!
//! | Route | Method | Body / reply |
//! |---|---|---|
//! | `/healthz` | GET | daemon liveness + shard counts |
//! | `/metrics` | GET | Prometheus text (linalg + core + `serve.*`) |
//! | `/v1/tenants` | GET | sorted tenant ids |
//! | `/v1/{t}/ingest` | POST | CSV (`text/csv`) or JSON-lines batch → [`IngestReply`] |
//! | `/v1/{t}/health` | GET | [`imrdmd::HealthSnapshot`] |
//! | `/v1/{t}/spectrum` | GET | `Vec<SpectrumPoint>` |
//! | `/v1/{t}/forecast?h=N` | GET | forecast matrix |
//! | `/v1/{t}/reconstruct?t0=&t1=` | GET | reconstruction matrix |
//! | `/v1/{t}/archive?tier=` | GET | seekable mode archive (`application/octet-stream`) |
//! | `/v1/{t}/status` | GET | [`ShardStatus`](crate::shard::ShardStatus) |
//!
//! CSV ingest bodies are the `write_snapshots_csv` wire format: floats in
//! shortest round-trip form and NaN gaps as empty fields, so a batch
//! survives the HTTP hop bitwise and the shard's state stays bitwise-equal
//! to an in-process model fed the same matrices. JSON-lines bodies
//! (`application/x-ndjson`) carry one snapshot per line as a JSON array,
//! `null` for gaps.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use hpc_linalg::Mat;
use hpc_telemetry::read_snapshots_csv;
use imrdmd::archive::{archive_bytes, QuantTier};
use imrdmd::wal::Durability;
use imrdmd::{mode_spectrum, GapPolicy, IMrDmdConfig};
use serde::Serialize;

use crate::error::ServeError;
use crate::gate::EngineGate;
use crate::http::{read_request, HttpLimits, Request, Response};
use crate::manager::{lock_shard, ManagerConfig, ShardManager};
use crate::obs;
use crate::shard::IngestReply;

/// Everything the daemon needs to run.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Model config every shard fits with.
    pub model: IMrDmdConfig,
    /// Gap policy every shard repairs with.
    pub policy: GapPolicy,
    /// Per-shard checkpoint directory (shared, shard-namespaced files);
    /// `None` disables persistence.
    pub checkpoint_dir: Option<PathBuf>,
    /// Checkpoint every N absorbed batches per shard.
    pub checkpoint_every: usize,
    /// Keep-last-K checkpoint retention per shard (0 = unlimited).
    pub keep_checkpoints: usize,
    /// WAL fsync cadence; [`Durability::None`] disables the WAL.
    pub durability: Durability,
    /// HTTP parser caps.
    pub limits: HttpLimits,
    /// Socket read timeout (slow-loris cutoff).
    pub read_timeout: Duration,
    /// Cap on resident shards.
    pub max_tenants: usize,
    /// Cap on concurrently open connections; excess get 503.
    pub max_connections: usize,
    /// Fleet-wide in-flight ingest budget; excess get 503 + `Retry-After`.
    pub max_inflight: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            model: IMrDmdConfig::default(),
            policy: GapPolicy::Interpolate,
            checkpoint_dir: None,
            checkpoint_every: 1,
            keep_checkpoints: 3,
            durability: Durability::Interval,
            limits: HttpLimits::default(),
            read_timeout: Duration::from_secs(5),
            max_tenants: 4096,
            max_connections: 128,
            max_inflight: 256,
        }
    }
}

#[derive(Debug)]
struct ServerState {
    manager: ShardManager,
    gate: EngineGate,
    limits: HttpLimits,
    read_timeout: Duration,
    max_connections: usize,
    addr: SocketAddr,
    stop: AtomicBool,
    final_checkpoint: AtomicBool,
    open_conns: AtomicUsize,
}

/// A bound, not-yet-running daemon. [`Server::run`] blocks; grab a
/// [`Server::handle`] first to stop it from another thread.
#[derive(Debug)]
pub struct Server {
    listener: TcpListener,
    state: Arc<ServerState>,
}

/// Remote control for a running [`Server`].
#[derive(Debug, Clone)]
pub struct ServerHandle {
    state: Arc<ServerState>,
}

impl ServerHandle {
    /// The daemon's bound address (real port even when bound to `:0`).
    pub fn addr(&self) -> SocketAddr {
        self.state.addr
    }

    fn poke(&self) {
        // Wake the blocking accept() so it observes the stop flag.
        let _ = TcpStream::connect(self.state.addr);
    }

    /// Graceful shutdown: drain connections, then write a final
    /// checkpoint for every fitted shard.
    pub fn shutdown(&self) {
        self.state.final_checkpoint.store(true, Ordering::SeqCst);
        self.state.stop.store(true, Ordering::SeqCst);
        self.poke();
    }

    /// SIGKILL-equivalent stop: no drain, no final checkpoint. Recovery
    /// after this sees exactly what a crashed process would have left:
    /// the interval checkpoints.
    pub fn kill(&self) {
        self.state.final_checkpoint.store(false, Ordering::SeqCst);
        self.state.stop.store(true, Ordering::SeqCst);
        self.poke();
    }
}

impl Server {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral test port) and
    /// restores any shards checkpointed into the configured directory.
    /// Returns the server plus `(restored, corrupt)` shard counts.
    pub fn bind(addr: &str, cfg: ServeConfig) -> std::io::Result<(Server, usize, usize)> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let manager = ShardManager::new(ManagerConfig {
            model: cfg.model,
            policy: cfg.policy,
            checkpoint_dir: cfg.checkpoint_dir,
            checkpoint_every: cfg.checkpoint_every,
            keep_checkpoints: cfg.keep_checkpoints,
            durability: cfg.durability,
            max_tenants: cfg.max_tenants,
            max_inflight: cfg.max_inflight,
        });
        let (restored, corrupt) = manager.restore();
        let state = Arc::new(ServerState {
            manager,
            gate: EngineGate::new(),
            limits: cfg.limits,
            read_timeout: cfg.read_timeout,
            max_connections: cfg.max_connections.max(1),
            addr: local,
            stop: AtomicBool::new(false),
            final_checkpoint: AtomicBool::new(true),
            open_conns: AtomicUsize::new(0),
        });
        Ok((Server { listener, state }, restored, corrupt))
    }

    /// The bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.state.addr
    }

    /// A handle for stopping the daemon from another thread.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            state: self.state.clone(),
        }
    }

    /// Serves until [`ServerHandle::shutdown`] or [`ServerHandle::kill`].
    pub fn run(self) -> std::io::Result<()> {
        for conn in self.listener.incoming() {
            if self.state.stop.load(Ordering::SeqCst) {
                break;
            }
            let stream = match conn {
                Ok(s) => s,
                Err(_) => continue,
            };
            if self.state.open_conns.load(Ordering::SeqCst) >= self.state.max_connections {
                obs::CONNECTIONS_REJECTED.inc();
                let mut s = stream;
                let _ = Response::error(503, "connection limit reached")
                    .with_retry_after(Some(1))
                    .write_to(&mut s);
                continue;
            }
            self.state.open_conns.fetch_add(1, Ordering::SeqCst);
            let state = self.state.clone();
            std::thread::spawn(move || {
                handle_connection(stream, &state);
                state.open_conns.fetch_sub(1, Ordering::SeqCst);
            });
        }
        if self.state.final_checkpoint.load(Ordering::SeqCst) {
            // Drain in-flight requests (bounded) so the final checkpoints
            // see every acknowledged batch.
            let deadline = std::time::Instant::now() + Duration::from_secs(10);
            while self.state.open_conns.load(Ordering::SeqCst) > 0
                && std::time::Instant::now() < deadline
            {
                std::thread::sleep(Duration::from_millis(5));
            }
            self.state.manager.checkpoint_all();
        }
        Ok(())
    }
}

fn handle_connection(mut stream: TcpStream, state: &ServerState) {
    let _ = stream.set_read_timeout(Some(state.read_timeout));
    let _ = stream.set_nodelay(true);
    loop {
        if state.stop.load(Ordering::SeqCst) {
            break;
        }
        match read_request(&mut stream, &state.limits) {
            Ok(None) => break,
            Ok(Some(req)) => {
                let mut resp = route(state, &req);
                resp.close |= req.wants_close();
                if resp.write_to(&mut stream).is_err() || resp.close {
                    break;
                }
            }
            Err(e) => {
                obs::PROTOCOL_ERRORS.inc();
                if e.peer_reachable() {
                    let _ = Response::from_http_error(&e).write_to(&mut stream);
                }
                break;
            }
        }
    }
}

/// Serialises any reply document, degrading to 500 if encoding fails.
fn json_response<T: Serialize>(v: &T) -> Response {
    match serde_json::to_string(v) {
        Ok(body) => Response::json(200, body),
        Err(e) => Response::error(500, &format!("response encoding failed: {e}")),
    }
}

fn route(state: &ServerState, req: &Request) -> Response {
    obs::REQUESTS.inc();
    obs::BYTES_IN.add(req.body.len() as u64);
    let _span = obs::REQUEST_NS.span();
    let resp = match dispatch(state, req) {
        Ok(r) => r,
        Err(e) => Response::error(e.status(), &e.to_string()).with_retry_after(e.retry_after()),
    };
    obs::count_status(resp.status);
    resp
}

fn dispatch(state: &ServerState, req: &Request) -> Result<Response, ServeError> {
    let segs: Vec<&str> = req.path.split('/').filter(|s| !s.is_empty()).collect();
    match (req.method.as_str(), segs.as_slice()) {
        ("GET", ["healthz"]) => {
            let tenants = state.manager.tenants();
            Ok(Response::json(
                200,
                format!("{{\"status\":\"ok\",\"shards\":{}}}", tenants.len()),
            ))
        }
        ("GET", ["metrics"]) => {
            // Refresh shard gauges from a snapshot of the handles (brief map
            // read lock), then format — a slow scrape never stalls ingest.
            state.manager.refresh_gauges();
            Ok(Response::text(200, obs::fleet_snapshot().to_prometheus()))
        }
        ("GET", ["v1", "tenants"]) => Ok(json_response(&state.manager.tenants())),
        ("POST", ["v1", tenant, "ingest"]) => ingest(state, tenant, req),
        ("GET", ["v1", tenant, "health"]) => {
            let cell = state.manager.existing_shard(tenant)?;
            let health = lock_shard(&cell).health()?;
            Ok(json_response(&health))
        }
        ("GET", ["v1", tenant, "spectrum"]) => {
            let cell = state.manager.existing_shard(tenant)?;
            let shard = lock_shard(&cell);
            let spectrum = shard.with_model(|m| mode_spectrum(m.nodes()))?;
            Ok(json_response(&spectrum))
        }
        ("GET", ["v1", tenant, "forecast"]) => {
            let h = parse_query_usize(req, "h")?.unwrap_or(16);
            if h == 0 || h > 65_536 {
                return Err(ServeError::BadQuery(format!(
                    "forecast horizon h={h} out of range [1, 65536]"
                )));
            }
            let cell = state.manager.existing_shard(tenant)?;
            let forecast = lock_shard(&cell).with_model(|m| m.forecast(h))?;
            Ok(json_response(&forecast))
        }
        ("GET", ["v1", tenant, "reconstruct"]) => {
            let cell = state.manager.existing_shard(tenant)?;
            let shard = lock_shard(&cell);
            let t0 = parse_query_usize(req, "t0")?;
            let t1 = parse_query_usize(req, "t1")?;
            let recon: Result<Mat, ServeError> = shard.with_model(|m| match (t0, t1) {
                (None, None) => Ok(m.reconstruct()),
                (a, b) => {
                    let (a, b) = (a.unwrap_or(0), b.unwrap_or(m.n_steps()));
                    if a >= b || b > m.n_steps() {
                        return Err(ServeError::BadQuery(format!(
                            "reconstruct range [{a}, {b}) outside [0, {})",
                            m.n_steps()
                        )));
                    }
                    Ok(m.reconstruct_range(a, b))
                }
            })?;
            Ok(json_response(&recon?))
        }
        ("GET", ["v1", tenant, "archive"]) => {
            // A point-in-time snapshot of the shard as the seekable archive
            // wire format — the exact bytes `imrdmd-cli replay` consumes.
            let tier = match req.query_param("tier") {
                None => QuantTier::Q16,
                Some(v) => QuantTier::parse(v).ok_or_else(|| {
                    ServeError::BadQuery(format!("`tier={v}` is not f64, f32, or q16"))
                })?,
            };
            let cell = state.manager.existing_shard(tenant)?;
            let shard = lock_shard(&cell);
            let (bytes, _info) = shard.with_model(|m| archive_bytes(m, tier))?;
            Ok(Response {
                status: 200,
                content_type: "application/octet-stream",
                body: bytes,
                close: false,
                retry_after: None,
            })
        }
        ("GET", ["v1", tenant, "status"]) => {
            let cell = state.manager.existing_shard(tenant)?;
            let status = lock_shard(&cell).status();
            Ok(json_response(&status))
        }
        (_, ["healthz" | "metrics"]) | (_, ["v1", "tenants"]) => Ok(Response::error(
            405,
            &format!("method {} not allowed here", req.method),
        )),
        (
            _,
            ["v1", _, "ingest" | "health" | "spectrum" | "forecast" | "reconstruct" | "archive" | "status"],
        ) => Ok(Response::error(
            405,
            &format!("method {} not allowed here", req.method),
        )),
        _ => Ok(Response::error(404, &format!("no route for {}", req.path))),
    }
}

fn parse_query_usize(req: &Request, name: &str) -> Result<Option<usize>, ServeError> {
    match req.query_param(name) {
        None => Ok(None),
        Some(v) => v.parse::<usize>().map(Some).map_err(|_| {
            ServeError::BadQuery(format!("`{name}={v}` is not a non-negative integer"))
        }),
    }
}

fn ingest(state: &ServerState, tenant: &str, req: &Request) -> Result<Response, ServeError> {
    // Admission first: a shed request must cost nothing — no body parse,
    // no shard creation — and frees its slot the moment this frame exits.
    let _permit = state.manager.admit_ingest()?;
    let (batch, first_step) = parse_batch(req)?;
    let cell = state.manager.shard_or_create(tenant)?;
    let _span = obs::INGEST_NS.span();
    let reply: IngestReply = state.gate.submit(
        cell,
        batch,
        first_step,
        state.manager.model_config(),
        state.manager.gap_policy(),
    )?;
    Ok(json_response(&reply))
}

/// Decodes an ingest body. CSV (the default) carries a first-step header
/// that the shard validates for ordering; JSON-lines bodies are trusted
/// sequential.
fn parse_batch(req: &Request) -> Result<(Mat, Option<usize>), ServeError> {
    if req.body.is_empty() {
        return Err(ServeError::BadBody("empty body".into()));
    }
    let content_type = req.header("content-type").unwrap_or("text/csv");
    if content_type.starts_with("application/x-ndjson")
        || content_type.starts_with("application/jsonl")
    {
        parse_ndjson(&req.body).map(|m| (m, None))
    } else {
        read_snapshots_csv(&req.body[..])
            .map(|(m, first)| (m, Some(first)))
            .map_err(|e| ServeError::BadBody(e.to_string()))
    }
}

/// One snapshot per line as a JSON array of numbers, `null` for gaps.
/// Hand-rolled: the vendored serde_json deserialiser is driven through
/// typed structs elsewhere, and this grammar is three tokens.
fn parse_ndjson(body: &[u8]) -> Result<Mat, ServeError> {
    let text = std::str::from_utf8(body)
        .map_err(|_| ServeError::BadBody("body is not valid UTF-8".into()))?;
    let mut columns: Vec<Vec<f64>> = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let inner = line
            .strip_prefix('[')
            .and_then(|l| l.strip_suffix(']'))
            .ok_or_else(|| {
                ServeError::BadBody(format!("line {}: expected a JSON array", lineno + 1))
            })?;
        if inner.trim().is_empty() {
            return Err(ServeError::BadBody(format!(
                "line {}: empty snapshot",
                lineno + 1
            )));
        }
        let mut col = Vec::new();
        for tok in inner.split(',') {
            let tok = tok.trim();
            if tok.is_empty() {
                // `[1,,2]` or `[1,2,]`: skipping the hole would shift every
                // later value into the wrong sensor.
                return Err(ServeError::BadBody(format!(
                    "line {}: empty field",
                    lineno + 1
                )));
            }
            if tok == "null" {
                col.push(f64::NAN);
            } else {
                col.push(tok.parse::<f64>().map_err(|_| {
                    ServeError::BadBody(format!("line {}: `{tok}` is not a number", lineno + 1))
                })?);
            }
        }
        if let Some(first) = columns.first() {
            if col.len() != first.len() {
                return Err(ServeError::BadBody(format!(
                    "line {}: {} sensors, expected {}",
                    lineno + 1,
                    col.len(),
                    first.len()
                )));
            }
        }
        columns.push(col);
    }
    if columns.is_empty() {
        return Err(ServeError::BadBody("no snapshots in body".into()));
    }
    let (rows, cols) = (columns[0].len(), columns.len());
    Ok(Mat::from_fn(rows, cols, |i, j| columns[j][i]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ndjson_parses_columns_and_gaps() {
        let m = parse_ndjson(b"[1.0, 2.0]\n[null, 4.5]\n").unwrap();
        assert_eq!(m.shape(), (2, 2));
        assert_eq!(m[(0, 0)], 1.0);
        assert!(m[(0, 1)].is_nan());
        assert_eq!(m[(1, 1)], 4.5);
    }

    #[test]
    fn ndjson_rejects_garbage() {
        assert!(parse_ndjson(b"not json").is_err());
        assert!(parse_ndjson(b"[1.0]\n[1.0, 2.0]").is_err());
        assert!(parse_ndjson(b"[]").is_err());
        assert!(parse_ndjson(b"").is_err());
        assert!(parse_ndjson(b"[1.0, banana]").is_err());
        assert!(parse_ndjson(&[0xff, 0xfe]).is_err());
        assert!(parse_ndjson(b"[1.0,,2.0,3.0]").is_err());
        assert!(parse_ndjson(b"[1.0,2.0,3.0,]").is_err());
        assert!(parse_ndjson(b"[,1.0]").is_err());
    }
}
