//! Protocol-robustness tests: hostile and malformed HTTP clients must get
//! typed 4xx/5xx responses — never a panic, never a wedged daemon. After
//! every abuse the daemon still answers `/healthz`.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

use imrdmd_serve::{HttpLimits, ServeConfig, Server, ServerHandle};
use mrdmd_suite::prelude::*;
use mrdmd_suite::telemetry::write_snapshots_csv;

/// A daemon with deliberately tight limits so abuse is cheap to trigger:
/// 1 KiB headers, 4 KiB bodies, 300 ms slow-loris cutoff.
fn start_tight() -> (
    SocketAddr,
    ServerHandle,
    std::thread::JoinHandle<std::io::Result<()>>,
) {
    let cfg = ServeConfig {
        limits: HttpLimits {
            max_header_bytes: 1024,
            max_body_bytes: 4096,
        },
        read_timeout: Duration::from_millis(300),
        ..ServeConfig::default()
    };
    let (server, _, _) = Server::bind("127.0.0.1:0", cfg).unwrap();
    let addr = server.local_addr();
    let handle = server.handle();
    let worker = std::thread::spawn(move || server.run());
    (addr, handle, worker)
}

/// Sends raw bytes, returns whatever the daemon answers (possibly nothing).
fn raw(addr: SocketAddr, bytes: &[u8]) -> String {
    let mut conn = TcpStream::connect(addr).unwrap();
    conn.write_all(bytes).unwrap();
    let _ = conn.shutdown(std::net::Shutdown::Write);
    conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut out = Vec::new();
    let _ = conn.read_to_end(&mut out);
    String::from_utf8_lossy(&out).into_owned()
}

fn status_of(reply: &str) -> Option<u16> {
    reply.split_whitespace().nth(1)?.parse().ok()
}

fn get(addr: SocketAddr, path: &str) -> (u16, String) {
    let reply = raw(
        addr,
        format!("GET {path} HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n").as_bytes(),
    );
    (
        status_of(&reply).unwrap_or_else(|| panic!("no status in {reply:?}")),
        reply
            .split_once("\r\n\r\n")
            .map(|(_, b)| b.to_string())
            .unwrap_or_default(),
    )
}

/// The `serve.*` metrics are process-wide, so the tests whose requests
/// reach an ingest handler run one at a time: a test counting ingest
/// observations sees only its own requests.
static INGEST_LOCK: Mutex<()> = Mutex::new(());

fn ingest_lock() -> MutexGuard<'static, ()> {
    INGEST_LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

fn post(addr: SocketAddr, tenant: &str, content_type: &str, body: &[u8]) -> u16 {
    let mut req = format!(
        "POST /v1/{tenant}/ingest HTTP/1.1\r\nHost: x\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )
    .into_bytes();
    req.extend(body);
    let reply = raw(addr, &req);
    status_of(&reply).unwrap_or_else(|| panic!("no status in {reply:?}"))
}

fn csv_body(m: &Mat, first_step: usize) -> Vec<u8> {
    let mut csv = Vec::new();
    write_snapshots_csv(&mut csv, m, first_step).unwrap();
    csv
}

fn assert_alive(addr: SocketAddr) {
    let (status, body) = get(addr, "/healthz");
    assert_eq!(status, 200, "daemon must survive the abuse: {body}");
}

#[test]
fn hostile_clients_get_typed_errors_never_panics() {
    let (addr, handle, worker) = start_tight();

    // Oversized declared body: refused with 413 before the body is read.
    let reply = raw(
        addr,
        b"POST /v1/t0/ingest HTTP/1.1\r\nHost: x\r\nContent-Length: 10000000\r\n\r\n",
    );
    assert_eq!(status_of(&reply), Some(413), "{reply:?}");
    assert_alive(addr);

    // Bad content-length: 400.
    let reply = raw(
        addr,
        b"POST /v1/t0/ingest HTTP/1.1\r\nHost: x\r\nContent-Length: banana\r\n\r\n",
    );
    assert_eq!(status_of(&reply), Some(400), "{reply:?}");
    assert_alive(addr);

    // POST without a content-length: 411.
    let reply = raw(addr, b"POST /v1/t0/ingest HTTP/1.1\r\nHost: x\r\n\r\n");
    assert_eq!(status_of(&reply), Some(411), "{reply:?}");
    assert_alive(addr);

    // Chunked transfer encoding: 501, we only speak identity.
    let reply = raw(
        addr,
        b"POST /v1/t0/ingest HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: chunked\r\n\r\n",
    );
    assert_eq!(status_of(&reply), Some(501), "{reply:?}");
    assert_alive(addr);

    // Headers exceeding the cap: 431.
    let mut huge = b"GET /healthz HTTP/1.1\r\nHost: x\r\nX-Pad: ".to_vec();
    huge.extend(vec![b'a'; 2048]);
    huge.extend(b"\r\n\r\n");
    let reply = raw(addr, &huge);
    assert_eq!(status_of(&reply), Some(431), "{reply:?}");
    assert_alive(addr);

    // Truncated request: headers cut off mid-line, peer gone. Nothing to
    // answer — the daemon just drops the connection and stays up.
    let _ = raw(addr, b"GET /healthz HTT");
    assert_alive(addr);

    // Truncated body: content-length promises more than the peer sends.
    let _ = raw(
        addr,
        b"POST /v1/t0/ingest HTTP/1.1\r\nHost: x\r\nContent-Length: 50\r\n\r\nseries,0",
    );
    assert_alive(addr);

    // Garbage request line.
    let reply = raw(addr, b"\x16\x03\x01\x02\x00 tls handshake lol\r\n\r\n");
    assert_eq!(status_of(&reply), Some(400), "{reply:?}");
    assert_alive(addr);

    handle.shutdown();
    worker.join().unwrap().unwrap();
}

#[test]
fn slow_loris_is_cut_off_with_408() {
    let (addr, handle, worker) = start_tight();

    // Drip a few header bytes, then stall past the read timeout while the
    // connection stays open — the classic slow-loris hold.
    let mut conn = TcpStream::connect(addr).unwrap();
    conn.write_all(b"GET /healthz HTTP/1.1\r\nHost: ").unwrap();
    std::thread::sleep(Duration::from_millis(600));
    conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut out = Vec::new();
    let _ = conn.read_to_end(&mut out);
    let reply = String::from_utf8_lossy(&out).into_owned();
    assert_eq!(status_of(&reply), Some(408), "{reply:?}");
    assert_alive(addr);

    handle.shutdown();
    worker.join().unwrap().unwrap();
}

#[test]
fn routing_errors_are_typed() {
    let _lock = ingest_lock();
    let (addr, handle, worker) = start_tight();

    // Unknown tenant on a read route: 404.
    let (status, body) = get(addr, "/v1/nobody/health");
    assert_eq!(status, 404, "{body}");
    assert!(body.contains("error"), "{body}");

    // Invalid tenant name (path metacharacters): 400.
    let (status, _) = get(addr, "/v1/bad!name/health");
    assert_eq!(status, 400);
    // Over-long tenant name: 400.
    let long = "t".repeat(65);
    let (status, _) = get(addr, &format!("/v1/{long}/health"));
    assert_eq!(status, 400);

    // Wrong method on a known route: 405.
    let reply = raw(
        addr,
        b"DELETE /v1/t0/ingest HTTP/1.1\r\nHost: x\r\nContent-Length: 0\r\n\r\n",
    );
    assert_eq!(status_of(&reply), Some(405), "{reply:?}");
    let reply = raw(
        addr,
        b"POST /metrics HTTP/1.1\r\nHost: x\r\nContent-Length: 0\r\n\r\n",
    );
    assert_eq!(status_of(&reply), Some(405), "{reply:?}");

    // Unknown path: 404.
    let (status, _) = get(addr, "/v2/anything");
    assert_eq!(status, 404);

    // Bad query values: 400.
    let mini = Mat::from_fn(3, 24, |i, j| (i as f64 + 1.0) * (j as f64 * 0.1).sin());
    let mut csv = Vec::new();
    write_snapshots_csv(&mut csv, &mini, 0).unwrap();
    let mut req = format!(
        "POST /v1/t0/ingest HTTP/1.1\r\nHost: x\r\nContent-Type: text/csv\r\nContent-Length: {}\r\n\r\n",
        csv.len()
    )
    .into_bytes();
    req.extend(&csv);
    let reply = raw(addr, &req);
    assert_eq!(status_of(&reply), Some(200), "{reply:?}");
    let (status, _) = get(addr, "/v1/t0/forecast?h=0");
    assert_eq!(status, 400);
    let (status, _) = get(addr, "/v1/t0/forecast?h=abc");
    assert_eq!(status, 400);
    let (status, _) = get(addr, "/v1/t0/reconstruct?t0=9999&t1=10000");
    assert_eq!(status, 400);

    // Empty and garbage ingest bodies: 400, not a poisoned shard.
    let reply = raw(
        addr,
        b"POST /v1/t0/ingest HTTP/1.1\r\nHost: x\r\nContent-Length: 9\r\n\r\nnot a csv",
    );
    assert_eq!(status_of(&reply), Some(400), "{reply:?}");
    let (status, body) = get(addr, "/v1/t0/health");
    assert_eq!(
        status, 200,
        "shard must still serve after bad bodies: {body}"
    );

    // Out-of-order batch: 409 with both clocks in the message.
    let mut req = format!(
        "POST /v1/t0/ingest HTTP/1.1\r\nHost: x\r\nContent-Type: text/csv\r\nContent-Length: {}\r\n\r\n",
        csv.len()
    )
    .into_bytes();
    req.extend(&csv);
    let reply = raw(addr, &req);
    assert_eq!(status_of(&reply), Some(409), "{reply:?}");

    assert_alive(addr);
    handle.shutdown();
    worker.join().unwrap().unwrap();
}

#[test]
fn metrics_track_protocol_abuse() {
    let (addr, handle, worker) = start_tight();

    let _ = raw(
        addr,
        b"POST /x HTTP/1.1\r\nHost: x\r\nContent-Length: nope\r\n\r\n",
    );
    let _ = get(addr, "/v1/nobody/health");

    let (status, metrics) = get(addr, "/metrics");
    assert_eq!(status, 200);
    for series in [
        "# TYPE serve_requests counter",
        "serve_protocol_errors",
        "serve_responses_4xx",
        "serve_request_ns_bucket{le=",
    ] {
        assert!(metrics.contains(series), "missing `{series}` in /metrics");
    }

    handle.shutdown();
    worker.join().unwrap().unwrap();
}

/// An empty JSON-lines field is a 400, never a hole that shifts the later
/// values into the wrong sensors; `null` stays a repairable gap.
#[test]
fn ndjson_empty_fields_are_rejected() {
    let _lock = ingest_lock();
    let (addr, handle, worker) = start_tight();
    let cold = Mat::from_fn(3, 24, |i, j| (i as f64 + 1.0) * (j as f64 * 0.1).sin());
    assert_eq!(post(addr, "nd", "text/csv", &csv_body(&cold, 0)), 200);

    for body in ["[1.0,,2.0,3.0]\n", "[1.0,2.0,3.0,]\n"] {
        let status = post(addr, "nd", "application/x-ndjson", body.as_bytes());
        assert_eq!(status, 400, "`{}` must be refused", body.trim());
    }
    let (_, status) = get(addr, "/v1/nd/status");
    assert!(
        status.contains("\"steps\":24"),
        "nothing absorbed: {status}"
    );

    let gap = post(addr, "nd", "application/x-ndjson", b"[1.0,null,3.0]\n");
    assert_eq!(gap, 200, "`null` is a gap the guard repairs");

    handle.shutdown();
    worker.join().unwrap().unwrap();
}

fn ingest_observations(addr: SocketAddr) -> u64 {
    let (status, metrics) = get(addr, "/metrics");
    assert_eq!(status, 200);
    metrics
        .lines()
        .find_map(|l| l.strip_prefix("serve_ingest_ns_count "))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or_else(|| panic!("no serve_ingest_ns_count in /metrics"))
}

/// `serve.ingest_ns` records exactly one observation per ingest request,
/// cold start and warm rounds alike.
#[test]
fn ingest_latency_is_observed_once_per_request() {
    let _lock = ingest_lock();
    let (addr, handle, worker) = start_tight();
    let data = Mat::from_fn(3, 72, |i, j| (i as f64 + 1.0) * (j as f64 * 0.1).sin());
    let before = ingest_observations(addr);
    for (k, lo) in [0usize, 24, 48].into_iter().enumerate() {
        let batch = data.cols_range(lo, lo + 24);
        assert_eq!(post(addr, "obs", "text/csv", &csv_body(&batch, lo)), 200);
        assert_eq!(ingest_observations(addr) - before, k as u64 + 1);
    }
    handle.shutdown();
    worker.join().unwrap().unwrap();
}
