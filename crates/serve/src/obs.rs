//! `serve.*` metric table.
//!
//! Request-level counters and latency histograms for the daemon, declared
//! with the same [`hpc_linalg::metrics!`] table as the kernel and pipeline
//! metrics. [`fleet_snapshot`] captures the linalg, core and serve tables
//! together, so one `GET /metrics` scrape shows the whole stack — GEMM
//! flops up through HTTP latencies — in one Prometheus page. The shard
//! manager adds this table to [`imrdmd::obs::register`], so
//! [`imrdmd::obs::reset`] zeroes it too.

use imrdmd::obs::MetricsSnapshot;

hpc_linalg::metrics! {
    /// Requests accepted (any method, any route, before status is known).
    Counter REQUESTS = ("serve.requests", "HTTP requests parsed");
    /// Responses with a 2xx status.
    Counter RESPONSES_2XX = ("serve.responses_2xx", "Responses with 2xx status");
    /// Responses with a 4xx status.
    Counter RESPONSES_4XX = ("serve.responses_4xx", "Responses with 4xx status");
    /// Responses with a 5xx status.
    Counter RESPONSES_5XX = ("serve.responses_5xx", "Responses with 5xx status");
    /// Requests that failed HTTP parsing (malformed, oversized, timed out).
    Counter PROTOCOL_ERRORS = ("serve.protocol_errors", "Requests rejected by the HTTP parser");
    /// Connections refused because the concurrent-connection cap was reached.
    Counter CONNECTIONS_REJECTED = (
        "serve.connections_rejected",
        "Connections shed at the accept loop (503)",
    );
    /// Ingest batches absorbed across all shards.
    Counter INGEST_BATCHES = ("serve.ingest_batches", "Ingest batches absorbed by shards");
    /// Snapshots (batch columns) absorbed across all shards.
    Counter INGEST_SNAPSHOTS = ("serve.ingest_snapshots", "Telemetry snapshots absorbed by shards");
    /// Request bodies received, in bytes.
    Counter BYTES_IN = ("serve.bytes_in", "Request body bytes received");
    /// Checkpoint writes that failed (ingest still succeeds; see DESIGN.md).
    Counter CHECKPOINT_FAILURES = (
        "serve.checkpoint_failures",
        "Shard checkpoint writes that failed",
    );
    /// WAL appends that failed (the shard degraded; ingest still succeeds).
    Counter WAL_APPEND_FAILURES = (
        "serve.wal.append_failures",
        "WAL appends that failed and degraded their shard",
    );
    /// WAL retention passes run after checkpoint writes.
    Counter WAL_TRUNCATIONS = (
        "serve.wal.truncations",
        "WAL retention passes after checkpoint writes",
    );
    /// WAL frames replayed while rebuilding shards on boot.
    Counter WAL_REPLAYED = (
        "serve.wal.replayed_frames",
        "WAL frames replayed during shard recovery",
    );
    /// Torn WAL tails truncated while rebuilding shards on boot.
    Counter WAL_TORN_TAILS = (
        "serve.wal.torn_tails",
        "Torn WAL tails truncated during shard recovery",
    );
    /// Corrupt newest checkpoints skipped for an older retained one.
    Counter CHECKPOINT_FALLBACKS = (
        "serve.wal.ckpt_fallbacks",
        "Corrupt checkpoints skipped for a retained predecessor on recovery",
    );
    /// Ingest requests shed by the fleet admission budget (503).
    Counter LOAD_SHED = (
        "serve.load_shed",
        "Ingest requests shed by the in-flight admission budget",
    );
    /// Live shards (any state).
    Gauge SHARDS = ("serve.shards", "Shards currently resident");
    /// Shards in the corrupt/degraded state.
    Gauge SHARDS_CORRUPT = (
        "serve.shards_corrupt",
        "Shards refusing traffic after a corrupt restore",
    );
    /// Shards serving with a failed WAL (checkpoint-interval durability only).
    Gauge SHARDS_DEGRADED = (
        "serve.shards_degraded",
        "Shards serving with durability degraded (WAL append failed)",
    );
    /// Ingest requests currently inside the admission budget.
    Gauge INGEST_INFLIGHT = ("serve.ingest_inflight", "Ingest requests currently in flight");
    /// End-to-end request latency (parse to response flushed).
    Histogram REQUEST_NS = ("serve.request_ns", "Wall time per HTTP request");
    /// Ingest latency once the body is parsed and the shard resolved: shard
    /// lock wait, repair, `try_partial_fit`, WAL append and checkpoint tick.
    /// One observation per ingest request that reaches its shard.
    Histogram INGEST_NS = ("serve.ingest_ns", "Wall time per ingest batch");
}

/// The process-wide metrics snapshot: the linalg, core and `serve.*`
/// tables. This is what `GET /metrics` renders through
/// [`MetricsSnapshot::to_prometheus`].
pub fn fleet_snapshot() -> MetricsSnapshot {
    MetricsSnapshot::of(&[hpc_linalg::obs::METRICS, imrdmd::obs::METRICS, METRICS])
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
