//! `serve.*` metric catalogue.
//!
//! Request-level counters and latency histograms for the daemon, built on
//! the same sharded primitives as the kernel and pipeline catalogues
//! ([`hpc_linalg::obs`]). [`fleet_snapshot`] extends the process-wide
//! [`MetricsSnapshot`] (linalg + core) with these series, so one
//! `GET /metrics` scrape shows the whole stack — GEMM flops up through
//! HTTP latencies — in one Prometheus page.

use hpc_linalg::obs::{Counter, Gauge, Histogram};
use imrdmd::obs::{HistogramEntry, MetricEntry, MetricsSnapshot};

/// Requests accepted (any method, any route, before status is known).
pub static REQUESTS: Counter = Counter::new("serve.requests", "HTTP requests parsed");
/// Responses with a 2xx status.
pub static RESPONSES_2XX: Counter =
    Counter::new("serve.responses_2xx", "Responses with 2xx status");
/// Responses with a 4xx status.
pub static RESPONSES_4XX: Counter =
    Counter::new("serve.responses_4xx", "Responses with 4xx status");
/// Responses with a 5xx status.
pub static RESPONSES_5XX: Counter =
    Counter::new("serve.responses_5xx", "Responses with 5xx status");
/// Requests that failed HTTP parsing (malformed, oversized, timed out).
pub static PROTOCOL_ERRORS: Counter = Counter::new(
    "serve.protocol_errors",
    "Requests rejected by the HTTP parser",
);
/// Connections refused because the concurrent-connection cap was reached.
pub static CONNECTIONS_REJECTED: Counter = Counter::new(
    "serve.connections_rejected",
    "Connections shed at the accept loop (503)",
);
/// Ingest batches absorbed across all shards.
pub static INGEST_BATCHES: Counter =
    Counter::new("serve.ingest_batches", "Ingest batches absorbed by shards");
/// Snapshots (batch columns) absorbed across all shards.
pub static INGEST_SNAPSHOTS: Counter = Counter::new(
    "serve.ingest_snapshots",
    "Telemetry snapshots absorbed by shards",
);
/// Request bodies received, in bytes.
pub static BYTES_IN: Counter = Counter::new("serve.bytes_in", "Request body bytes received");
/// Checkpoint writes that failed (ingest still succeeds; see DESIGN.md).
pub static CHECKPOINT_FAILURES: Counter = Counter::new(
    "serve.checkpoint_failures",
    "Shard checkpoint writes that failed",
);
/// WAL frames appended on the serving path (one per acked batch).
pub static WAL_APPENDS: Counter = Counter::new(
    "serve.wal.appends",
    "WAL frames appended before ingest acks",
);
/// Bytes of WAL frames appended on the serving path.
pub static WAL_BYTES: Counter =
    Counter::new("serve.wal.bytes", "WAL bytes appended before ingest acks");
/// WAL appends that failed (the shard degraded; ingest still succeeds).
pub static WAL_APPEND_FAILURES: Counter = Counter::new(
    "serve.wal.append_failures",
    "WAL appends that failed and degraded their shard",
);
/// WAL retention passes run after checkpoint writes.
pub static WAL_TRUNCATIONS: Counter = Counter::new(
    "serve.wal.truncations",
    "WAL retention passes after checkpoint writes",
);
/// WAL frames replayed while rebuilding shards on boot.
pub static WAL_REPLAYED: Counter = Counter::new(
    "serve.wal.replayed_frames",
    "WAL frames replayed during shard recovery",
);
/// Torn WAL tails truncated while rebuilding shards on boot.
pub static WAL_TORN_TAILS: Counter = Counter::new(
    "serve.wal.torn_tails",
    "Torn WAL tails truncated during shard recovery",
);
/// Corrupt newest checkpoints skipped for an older retained one.
pub static CHECKPOINT_FALLBACKS: Counter = Counter::new(
    "serve.wal.ckpt_fallbacks",
    "Corrupt checkpoints skipped for a retained predecessor on recovery",
);
/// Ingest requests shed by the fleet admission budget (503).
pub static LOAD_SHED: Counter = Counter::new(
    "serve.load_shed",
    "Ingest requests shed by the in-flight admission budget",
);
/// Live shards (any state).
pub static SHARDS: Gauge = Gauge::new("serve.shards", "Shards currently resident");
/// Shards in the corrupt/degraded state.
pub static SHARDS_CORRUPT: Gauge = Gauge::new(
    "serve.shards_corrupt",
    "Shards refusing traffic after a corrupt restore",
);
/// Shards serving with a failed WAL (checkpoint-interval durability only).
pub static SHARDS_DEGRADED: Gauge = Gauge::new(
    "serve.shards_degraded",
    "Shards serving with durability degraded (WAL append failed)",
);
/// Ingest requests currently inside the admission budget.
pub static INGEST_INFLIGHT: Gauge = Gauge::new(
    "serve.ingest_inflight",
    "Ingest requests currently in flight",
);
/// End-to-end request latency (parse to response flushed).
pub static REQUEST_NS: Histogram = Histogram::new("serve.request_ns", "Wall time per HTTP request");
/// Ingest latency once the body is parsed and the shard resolved: shard
/// lock wait, repair, `try_partial_fit`, WAL append and checkpoint tick.
/// One observation per ingest request that reaches its shard.
pub static INGEST_NS: Histogram = Histogram::new("serve.ingest_ns", "Wall time per ingest batch");

fn entry_counter(c: &'static Counter) -> MetricEntry {
    MetricEntry {
        name: c.name().to_string(),
        kind: "counter".to_string(),
        help: c.help().to_string(),
        counter: Some(c.value()),
        gauge: None,
        histogram: None,
    }
}

fn entry_gauge(g: &'static Gauge) -> MetricEntry {
    MetricEntry {
        name: g.name().to_string(),
        kind: "gauge".to_string(),
        help: g.help().to_string(),
        counter: None,
        gauge: Some(g.value()),
        histogram: None,
    }
}

fn entry_histogram(h: &'static Histogram) -> MetricEntry {
    let s = h.snapshot();
    MetricEntry {
        name: h.name().to_string(),
        kind: "histogram".to_string(),
        help: h.help().to_string(),
        counter: None,
        gauge: None,
        histogram: Some(HistogramEntry {
            bounds_ns: s.bounds_ns.to_vec(),
            counts: s.counts,
            count: s.count,
            sum_ns: s.sum_ns,
        }),
    }
}

const COUNTERS: [&Counter; 18] = [
    &REQUESTS,
    &RESPONSES_2XX,
    &RESPONSES_4XX,
    &RESPONSES_5XX,
    &PROTOCOL_ERRORS,
    &CONNECTIONS_REJECTED,
    &INGEST_BATCHES,
    &INGEST_SNAPSHOTS,
    &BYTES_IN,
    &CHECKPOINT_FAILURES,
    &WAL_APPENDS,
    &WAL_BYTES,
    &WAL_APPEND_FAILURES,
    &WAL_TRUNCATIONS,
    &WAL_REPLAYED,
    &WAL_TORN_TAILS,
    &CHECKPOINT_FALLBACKS,
    &LOAD_SHED,
];
const GAUGES: [&Gauge; 4] = [&SHARDS, &SHARDS_CORRUPT, &SHARDS_DEGRADED, &INGEST_INFLIGHT];
const HISTOGRAMS: [&Histogram; 2] = [&REQUEST_NS, &INGEST_NS];

/// The process-wide metrics snapshot — linalg kernels, core pipeline —
/// extended with the `serve.*` catalogue. This is what `GET /metrics`
/// renders through [`MetricsSnapshot::to_prometheus`].
pub fn fleet_snapshot() -> MetricsSnapshot {
    let mut snap = MetricsSnapshot::capture();
    for c in COUNTERS {
        snap.metrics.push(entry_counter(c));
    }
    for g in GAUGES {
        snap.metrics.push(entry_gauge(g));
    }
    for h in HISTOGRAMS {
        snap.metrics.push(entry_histogram(h));
    }
    snap
}

/// Zeroes the `serve.*` catalogue (tests; the core/linalg catalogues have
/// their own `reset`).
pub fn reset() {
    for c in COUNTERS {
        c.reset();
    }
    for g in GAUGES {
        g.reset();
    }
    for h in HISTOGRAMS {
        h.reset();
    }
}

/// Classifies a response status into the right counter.
pub fn count_status(status: u16) {
    match status {
        200..=299 => RESPONSES_2XX.inc(),
        400..=499 => RESPONSES_4XX.inc(),
        _ => RESPONSES_5XX.inc(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fleet_snapshot_includes_serve_series() {
        REQUESTS.inc();
        let snap = fleet_snapshot();
        assert!(snap.counter("serve.requests").is_some_and(|v| v >= 1));
        assert!(
            snap.counter("gemm.calls").is_some(),
            "core catalogue rides along"
        );
        assert!(snap.histogram("serve.request_ns").is_some());
        let prom = snap.to_prometheus();
        assert!(prom.contains("serve_requests"));
        assert!(prom.contains("serve_request_ns_bucket"));
    }
}
