//! Observability surface of the streaming decomposition.
//!
//! Builds on the substrate in [`hpc_linalg::obs`] (sharded counters, gauges,
//! nanosecond histograms, injectable clock, runtime [`Observer`] switch) and
//! adds the pipeline-level metric table — ingest repair, round timing,
//! checkpoint traffic, tree fit faults — plus the export surfaces:
//!
//! * [`MetricsSnapshot::capture`] — a serde-JSON-able snapshot of every
//!   linalg and core metric, in table then declaration order;
//! * [`MetricsSnapshot::to_prometheus`] — the Prometheus text exposition
//!   format (`name{le="…"}` bucket lines, `_sum`/`_count`, `# HELP`/`# TYPE`);
//! * [`MetricsLine`] — one JSON-line of counters/gauges emitted periodically
//!   by `imrdmd-cli stream --metrics-every N`;
//! * [`reset`] — zeroes the linalg and core tables and every table a
//!   downstream crate added with [`register`].
//!
//! Metric semantics worth knowing: `pool.*` metrics are scheduler-dependent
//! (they vary with the thread budget), so determinism comparisons across
//! thread counts must use [`MetricsSnapshot::deterministic_subset`], which
//! excludes them and all wall-time histograms. Under the fake clock with a
//! zero step ([`Observer::with_fake_clock`]) the histograms are deterministic
//! too: every duration records as 0.

pub use hpc_linalg::obs::{HistogramEntry, Metric, MetricEntry, Observer};
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;
use std::sync::{Mutex, PoisonError};

// ---------------------------------------------------------------------------
// Core metric table
// ---------------------------------------------------------------------------

hpc_linalg::metrics! {
    /// Streaming rounds absorbed (`partial_fit`/`try_partial_fit` calls).
    Counter ROUND_COUNT = ("round.count", "Streaming rounds absorbed (partial_fit calls)");
    /// Wall time per streaming round.
    Histogram ROUND_NS = ("round.ns", "Wall time per streaming round");
    /// Snapshot columns currently buffered below the minimum window.
    Gauge ROUND_PENDING = ("round.pending", "Snapshot columns buffered below the minimum window");
    /// Root-window reconstruction drift of the most recent round.
    Gauge ROUND_DRIFT = (
        "round.drift",
        "Root-window reconstruction drift of the most recent round",
    );

    /// NaN/Inf gaps seen by the ingest guard.
    Counter INGEST_GAPS = ("ingest.gaps", "Non-finite cells seen by the ingest guard");
    /// Cells the ingest guard repaired (held, interpolated or masked).
    Counter INGEST_REPAIRED_CELLS = ("ingest.repaired_cells", "Cells repaired by the ingest guard");
    /// Rows masked out of a batch by the mask-row policy.
    Counter INGEST_MASKED_ROWS = (
        "ingest.masked_rows",
        "Rows masked out of a batch by the mask-row policy",
    );
    /// Wall time per ingest repair pass.
    Histogram INGEST_NS = ("ingest.ns", "Wall time per ingest repair pass");

    /// Node fits that failed and were degraded or skipped.
    Counter FIT_FAULTS = ("fit.faults", "Node fits that failed and were degraded or skipped");
    /// Fraction of tree nodes serving live (non-degraded) modes.
    Gauge HEALTH_COVERAGE = ("health.coverage", "Fraction of tree nodes serving live modes");

    /// Checkpoints written.
    Counter CHECKPOINT_SAVES = ("checkpoint.saves", "Checkpoints written");
    /// Checkpoints restored.
    Counter CHECKPOINT_LOADS = ("checkpoint.loads", "Checkpoints restored");
    /// Bytes of checkpoint payload written or read.
    Counter CHECKPOINT_BYTES = ("checkpoint.bytes", "Bytes of checkpoint payload written or read");
    /// Wall time per checkpoint save or load.
    Histogram CHECKPOINT_NS = ("checkpoint.ns", "Wall time per checkpoint save or load");
    /// Checkpoints deleted by keep-last-K retention.
    Counter CHECKPOINT_PRUNED = (
        "checkpoint.pruned",
        "Checkpoints deleted by keep-last-K retention",
    );

    /// Write-ahead-log frames appended.
    Counter WAL_APPENDS = ("wal.appends", "Write-ahead-log frames appended");
    /// Bytes of WAL frames appended.
    Counter WAL_BYTES = ("wal.bytes", "Bytes of WAL frames appended");
    /// WAL fsync calls (durability=batch acks).
    Counter WAL_FSYNCS = ("wal.fsyncs", "WAL fsync calls (durability=batch acks)");
    /// WAL retention rewrites after checkpoints.
    Counter WAL_TRUNCATIONS = ("wal.truncations", "WAL retention rewrites after checkpoints");
    /// Torn WAL tails truncated during recovery.
    Counter WAL_TORN_TAILS = ("wal.torn_tails", "Torn WAL tails truncated during recovery");
    /// Wall time per WAL append, retention pass, or recovery scan.
    Histogram WAL_NS = ("wal.ns", "Wall time per WAL append, retention pass, or recovery scan");

    /// Mode archives written.
    Counter ARCHIVE_SAVES = ("archive.saves", "Mode archives written");
    /// Bytes of mode archives written.
    Counter ARCHIVE_BYTES = ("archive.bytes", "Bytes of mode archives written");
    /// Time ranges replayed from mode archives.
    Counter ARCHIVE_REPLAYS = ("archive.replays", "Time ranges replayed from mode archives");
    /// Node blocks streamed from archives during replay.
    Counter ARCHIVE_BLOCKS_READ = (
        "archive.blocks_read",
        "Node blocks streamed from archives during replay",
    );
    /// Wall time per archive write or range replay.
    Histogram ARCHIVE_NS = ("archive.ns", "Wall time per archive write or range replay");
}

/// Tables of downstream crates, added with [`register`].
static REGISTERED: Mutex<Vec<&'static [Metric]>> = Mutex::new(Vec::new());

/// Adds a downstream crate's `METRICS` table to the set [`reset`] zeroes.
/// Registering the same table again is a no-op.
pub fn register(table: &'static [Metric]) {
    let mut tables = REGISTERED.lock().unwrap_or_else(PoisonError::into_inner);
    if !tables.iter().any(|t| std::ptr::eq(*t, table)) {
        tables.push(table);
    }
}

/// Zeroes every registered metric in the process: the linalg and core
/// tables, then every table added with [`register`].
pub fn reset() {
    let tables = REGISTERED.lock().unwrap_or_else(PoisonError::into_inner);
    for table in [hpc_linalg::obs::METRICS, METRICS]
        .iter()
        .chain(tables.iter())
    {
        table.iter().for_each(Metric::reset);
    }
}

// ---------------------------------------------------------------------------
// Snapshot types (serde)
// ---------------------------------------------------------------------------

/// A point-in-time capture of metric tables, in table then declaration
/// order. Serializes with serde; renders to Prometheus text.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// The captured metrics.
    pub metrics: Vec<MetricEntry>,
}

impl MetricsSnapshot {
    /// Captures every metric of `tables`, in order.
    pub fn of(tables: &[&[Metric]]) -> MetricsSnapshot {
        MetricsSnapshot {
            metrics: tables
                .iter()
                .copied()
                .flatten()
                .map(Metric::entry)
                .collect(),
        }
    }

    /// Captures the current value of every linalg and core metric.
    pub fn capture() -> MetricsSnapshot {
        MetricsSnapshot::of(&[hpc_linalg::obs::METRICS, METRICS])
    }

    /// The value of a counter by dotted name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .and_then(|m| m.counter)
    }

    /// The value of a gauge by dotted name.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .and_then(|m| m.gauge)
    }

    /// The state of a histogram by dotted name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramEntry> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .and_then(|m| m.histogram.as_ref())
    }

    /// The `(name, value)` pairs of every counter and gauge that is
    /// deterministic across thread counts: excludes `pool.*` (scheduler-
    /// dependent) and all histograms (wall-time-dependent unless the fake
    /// clock is installed).
    pub fn deterministic_subset(&self) -> Vec<(String, f64)> {
        self.metrics
            .iter()
            .filter(|m| !m.name.starts_with("pool."))
            .filter_map(|m| {
                m.counter
                    .map(|c| (m.name.clone(), c as f64))
                    .or_else(|| m.gauge.map(|g| (m.name.clone(), g)))
            })
            .collect()
    }

    /// Serializes the snapshot as one line of JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).unwrap_or_else(|_| "{}".to_string())
    }

    /// Renders the snapshot in the Prometheus text exposition format.
    ///
    /// Dotted names become underscore names (`gemm.calls` → `gemm_calls`);
    /// histograms emit cumulative `_bucket{le="…"}` lines (bounds in
    /// nanoseconds) plus `_sum` and `_count`.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            let name = m.name.replace('.', "_");
            let _ = writeln!(out, "# HELP {name} {}", m.help);
            match (&m.counter, &m.gauge, &m.histogram) {
                (Some(v), _, _) => {
                    let _ = writeln!(out, "# TYPE {name} counter");
                    let _ = writeln!(out, "{name} {v}");
                }
                (_, Some(v), _) => {
                    let _ = writeln!(out, "# TYPE {name} gauge");
                    let _ = writeln!(out, "{name} {v}");
                }
                (_, _, Some(h)) => {
                    let _ = writeln!(out, "# TYPE {name} histogram");
                    let mut cum = 0u64;
                    for (bound, count) in h.bounds_ns.iter().zip(&h.counts) {
                        cum += count;
                        let _ = writeln!(out, "{name}_bucket{{le=\"{bound}\"}} {cum}");
                    }
                    let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {}", h.count);
                    let _ = writeln!(out, "{name}_sum {}", h.sum_ns);
                    let _ = writeln!(out, "{name}_count {}", h.count);
                }
                _ => {}
            }
        }
        out
    }
}

/// One periodic metrics emission of `imrdmd-cli stream --metrics-every N`:
/// the absolute stream position plus a full metrics snapshot, serialized as
/// a single JSON line.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct MetricsLine {
    /// Absolute snapshot count absorbed when the line was emitted.
    pub step: usize,
    /// Rounds absorbed when the line was emitted.
    pub round: usize,
    /// The metrics at that point.
    pub snapshot: MetricsSnapshot,
}

impl MetricsLine {
    /// Captures the current metrics at stream position `step`, round `round`.
    pub fn capture(step: usize, round: usize) -> MetricsLine {
        MetricsLine {
            step,
            round,
            snapshot: MetricsSnapshot::capture(),
        }
    }

    /// Serializes as one line of JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).unwrap_or_else(|_| "{}".to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_contains_both_catalogues_in_order() {
        let snap = MetricsSnapshot::capture();
        let names: Vec<&str> = snap.metrics.iter().map(|m| m.name.as_str()).collect();
        let gemm = names.iter().position(|n| *n == "gemm.calls");
        let round = names.iter().position(|n| *n == "round.count");
        let repaired = names.iter().position(|n| *n == "ingest.repaired_cells");
        assert!(
            gemm.is_some() && round.is_some() && repaired.is_some(),
            "{names:?}"
        );
        assert!(gemm < round, "linalg catalogue precedes the core catalogue");
    }

    #[test]
    fn deterministic_subset_excludes_pool_and_histograms() {
        let snap = MetricsSnapshot::capture();
        for (name, _) in snap.deterministic_subset() {
            assert!(!name.starts_with("pool."), "{name}");
            assert!(snap.histogram(&name).is_none(), "{name}");
        }
    }

    #[test]
    fn snapshot_roundtrips_through_json() {
        let snap = MetricsSnapshot::capture();
        let back: MetricsSnapshot = serde_json::from_str(&snap.to_json()).expect("parse");
        assert_eq!(back, snap);
    }
}
