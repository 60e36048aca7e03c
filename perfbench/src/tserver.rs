//! The traced serving target for `fleet-ingest --trace 1`.
//!
//! The daemon's HTTP loop and routing for the routes the workload uses,
//! rebuilt from `imrdmd-serve`'s public functions with a benchmark span
//! around each call: HTTP parse and write, admission, CSV parse, shard
//! lookup, the reads under `with_model`, and the call into the program's
//! own flat-combining `EngineGate`. Inside the gate (shard locks, repair,
//! engine waves, WAL, checkpoints) the figures come from the program's
//! counters, so a change there shows; a change to `imrdmd_serve::Server`'s
//! connection handling or routing does not. The program itself carries no
//! benchmark tracing.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use hpc_telemetry::read_snapshots_csv;
use imrdmd_serve::http::read_request;
use imrdmd_serve::{
    lock_shard, EngineGate, HttpLimits, ManagerConfig, Request, Response, ServeError, ShardManager,
};

use crate::trace::{self, span, within};

struct State {
    manager: ShardManager,
    gate: EngineGate,
    limits: HttpLimits,
    stop: AtomicBool,
    next_req: AtomicU64,
}

/// A running traced server.
pub struct TracedServer {
    addr: SocketAddr,
    state: Arc<State>,
    accept: Option<JoinHandle<Vec<JoinHandle<()>>>>,
}

impl TracedServer {
    /// Binds an ephemeral localhost port and starts serving.
    pub fn start(cfg: ManagerConfig) -> std::io::Result<TracedServer> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let state = Arc::new(State {
            manager: ShardManager::new(cfg),
            gate: EngineGate::new(),
            limits: HttpLimits::default(),
            stop: AtomicBool::new(false),
            next_req: AtomicU64::new(1),
        });
        let st = state.clone();
        let accept = std::thread::spawn(move || {
            let mut conns = Vec::new();
            for conn in listener.incoming() {
                if st.stop.load(Ordering::SeqCst) {
                    break;
                }
                if let Ok(stream) = conn {
                    let st = st.clone();
                    conns.push(std::thread::spawn(move || serve_connection(stream, &st)));
                }
            }
            conns
        });
        Ok(TracedServer {
            addr,
            state,
            accept: Some(accept),
        })
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting and joins every connection thread (clients must
    /// have closed their connections).
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.state.stop.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.addr);
        if let Some(accept) = self.accept.take() {
            for c in accept.join().expect("accept thread panicked") {
                c.join().expect("connection thread panicked");
            }
        }
    }
}

impl Drop for TracedServer {
    fn drop(&mut self) {
        if self.accept.is_some() {
            self.shutdown();
        }
    }
}

fn serve_connection(mut stream: TcpStream, st: &State) {
    let _ = stream.set_nodelay(true);
    let mut probe = [0u8; 1];
    // Idle keep-alive time is not request time: wait for the first byte
    // of the next request before opening its spans.
    while matches!(stream.peek(&mut probe), Ok(n) if n > 0) {
        if st.stop.load(Ordering::SeqCst) {
            return;
        }
        trace::set_request(st.next_req.fetch_add(1, Ordering::Relaxed));
        let _root = span(trace::ROOT);
        let req = match within("http.read", || read_request(&mut stream, &st.limits)) {
            Ok(Some(req)) => req,
            Ok(None) => return,
            Err(e) => {
                let _ = Response::from_http_error(&e).write_to(&mut stream);
                return;
            }
        };
        let resp = match dispatch(st, &req) {
            Ok(r) => r,
            Err(e) => Response::error(e.status(), &e.to_string()),
        };
        if within("http.write", || resp.write_to(&mut stream)).is_err() {
            return;
        }
    }
}

fn json<T: serde::Serialize>(name: &'static str, v: &T) -> Response {
    match within(name, || serde_json::to_string(v)) {
        Ok(body) => Response::json(200, body),
        Err(e) => Response::error(500, &format!("response encoding failed: {e}")),
    }
}

fn query(req: &Request, name: &str) -> Result<Option<usize>, ServeError> {
    req.query_param(name)
        .map(|v| {
            v.parse::<usize>()
                .map_err(|_| ServeError::BadQuery(format!("`{name}={v}` is not an integer")))
        })
        .transpose()
}

fn dispatch(st: &State, req: &Request) -> Result<Response, ServeError> {
    let segs: Vec<&str> = req.path.split('/').filter(|s| !s.is_empty()).collect();
    match (req.method.as_str(), segs.as_slice()) {
        ("GET", ["healthz"]) => Ok(Response::json(200, "{\"status\":\"ok\"}".into())),
        ("POST", ["v1", tenant, "ingest"]) => {
            let _permit = within("manager.admit", || st.manager.admit_ingest())?;
            let (batch, first) = within("ingest.parse", || read_snapshots_csv(&req.body[..]))
                .map_err(|e| ServeError::BadBody(e.to_string()))?;
            let cell = within("manager.shard", || st.manager.shard_or_create(tenant))?;
            let reply = within("gate.submit", || {
                st.gate.submit(
                    cell,
                    batch,
                    Some(first),
                    st.manager.model_config(),
                    st.manager.gap_policy(),
                )
            })?;
            Ok(json("ingest.encode", &reply))
        }
        ("GET", ["v1", tenant, kind @ ("status" | "forecast" | "reconstruct")]) => {
            let cell = within("manager.shard", || st.manager.existing_shard(tenant))?;
            let shard = within("shard.lock_wait", || lock_shard(&cell));
            match *kind {
                "status" => {
                    let status = within("read.model", || shard.status());
                    Ok(json("read.encode", &status))
                }
                "forecast" => {
                    let h = query(req, "h")?.unwrap_or(16);
                    let f = within("read.model", || shard.with_model(|m| m.forecast(h)))?;
                    Ok(json("read.encode", &f))
                }
                _ => {
                    let (t0, t1) = (query(req, "t0")?, query(req, "t1")?);
                    let m = within("read.model", || {
                        shard.with_model(|m| match (t0, t1) {
                            (Some(a), Some(b)) if a < b && b <= m.n_steps() => {
                                Ok(m.reconstruct_range(a, b))
                            }
                            (None, None) => Ok(m.reconstruct()),
                            _ => Err(ServeError::BadQuery(
                                "reconstruct range out of bounds".into(),
                            )),
                        })
                    })??;
                    Ok(json("read.encode", &m))
                }
            }
        }
        _ => Ok(Response::error(404, &format!("no route for {}", req.path))),
    }
}
