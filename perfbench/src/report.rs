//! Result assembly: the end-to-end metrics, the per-layer catalogue, the
//! provenance record, and the one-line JSON result.

use serde::{to_content, Content, Serialize};
use serde_json::{json, Value};

use crate::host::{self, Counters};
use crate::schedule::StepVerdict;
use crate::trace::Summary;

/// Every per-layer metric a traced run prints, in order, with its unit.
/// Times are per workload operation (an HTTP request, a stream batch, a
/// range query) unless the unit says otherwise; a layer a workload never
/// enters reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("http.read_ms", "ms/op"),
    ("http.write_ms", "ms/op"),
    ("ingest.parse_ms", "ms/op"),
    ("ingest.encode_ms", "ms/op"),
    ("ingest.repaired_cells", "1/op"),
    ("shard.prepare_ms", "ms/op"),
    ("manager.admit_ms", "ms/op"),
    ("manager.shard_ms", "ms/op"),
    ("shard.lock_wait_ms", "ms/op"),
    ("gate.submit_ms", "ms/op"),
    ("engine.wave_rounds", "count"),
    ("engine.run_fleet_ms", "ms/op"),
    ("engine.round_ms", "ms"),
    ("wal.append_ms", "ms/op"),
    ("wal.bytes_per_frame", "B"),
    ("wal.fsyncs", "1/op"),
    ("checkpoint.save_ms", "ms/op"),
    ("checkpoint.bytes", "B/op"),
    ("shard.finish_ms", "ms/op"),
    ("read.model_ms", "ms/op"),
    ("read.encode_ms", "ms/op"),
    ("imrdmd.fit_ms", "ms"),
    ("imrdmd.partial_fit_ms", "ms"),
    ("svd.ms", "ms/op"),
    ("svd.calls", "1/op"),
    ("eig.ms", "ms/op"),
    ("qr.ms", "ms/op"),
    ("isvd.update_ms", "ms/op"),
    ("gemm.ms", "ms/op"),
    ("gemm.gflop_s", "GFLOP/s"),
    ("pool.tasks", "1/op"),
    ("linalg.busy_share", "share"),
    ("archive.open_ms", "ms/op"),
    ("archive.replay_ms", "ms/op"),
    ("archive.blocks_read", "1/op"),
    ("archive.seek_efficiency", "share"),
    ("archive.decode_ms", "ms/op"),
    ("mrdmd.reconstruct_ms", "ms/op"),
    ("trace.wall_ms", "ms/op"),
    ("trace.coverage", "share"),
    ("trace.unattributed_ms", "ms/op"),
    ("traced.setup_s", "s"),
    ("traced.peak_rss_mb", "MB"),
    ("traced.cpu_ms_per_op", "ms"),
];

/// The end-to-end metrics every run prints, with units. Times are CPU
/// time, which leaves out what the hypervisor steals from this guest,
/// and for in-process work scaled to the nominal host
/// ([`crate::host::HostSpeed`]); the wall-time figures and the
/// throughputs are in the report line.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("cpu_ms_per_op", "ms"),
];

/// Which layer metric should move which end-to-end metric, on which
/// workload, and where no change is predicted.
pub const PREDICTIONS: &[(&str, &str, &str)] = &[
    ("http.read_ms http.write_ms", "fleet-ingest cpu_ms_per_op; ingest p50 (report)", "archive-replay"),
    ("ingest.parse_ms shard.prepare_ms ingest.repaired_cells", "fleet-ingest cpu_ms_per_op; ingest p50 (report)", "archive-replay"),
    (
        "manager.admit_ms shard.lock_wait_ms gate.submit_ms engine.wave_rounds",
        "fleet-ingest saturated_cells_per_s, ingest p99, read p99, max_ingest_rps (report)",
        "archive-replay",
    ),
    ("engine.run_fleet_ms engine.round_ms", "fleet-ingest cpu_ms_per_op; max_ingest_rps (report)", "archive-replay"),
    ("wal.append_ms wal.bytes_per_frame wal.fsyncs", "fleet-ingest ingest p99, max_ingest_rps (report)", "archive-replay"),
    ("checkpoint.save_ms checkpoint.bytes shard.finish_ms", "fleet-ingest cpu_ms_per_op; ingest p99 (report)", "archive-replay"),
    ("read.model_ms read.encode_ms", "fleet-ingest read p50 (report)", "-"),
    ("imrdmd.fit_ms imrdmd.partial_fit_ms", "archive-replay setup_s; theta-stream (by hand) setup_s cpu_ms_per_op", "fleet-ingest"),
    (
        "svd.ms svd.calls eig.ms qr.ms isvd.update_ms gemm.ms gemm.gflop_s pool.tasks linalg.busy_share",
        "fleet-ingest cpu_ms_per_op; archive-replay setup_s; theta-stream (by hand) cpu_ms_per_op",
        "archive-replay cpu_ms_per_op",
    ),
    (
        "archive.open_ms archive.replay_ms archive.blocks_read archive.seek_efficiency archive.decode_ms",
        "archive-replay cpu_ms_per_op (short ranges)",
        "fleet-ingest",
    ),
    ("mrdmd.reconstruct_ms", "archive-replay cpu_ms_per_op; short_cells_per_cpu_s, replay_mb_s (report); slightly fleet-ingest read p50 (report)", "-"),
];

/// Builds the per-layer metrics of one traced run.
pub struct PerOp<'a> {
    summary: &'a Summary,
    ops: f64,
    values: Vec<(String, f64)>,
}

impl<'a> PerOp<'a> {
    /// Normalises by `ops` operations over `wall_s` seconds of measured
    /// time, and fills in the layers measured from the program's own
    /// counters and the trace totals.
    pub fn new(summary: &'a Summary, delta: &'a Counters, ops: f64, wall_s: f64) -> PerOp<'a> {
        let ops = ops.max(1.0);
        let mut p = PerOp {
            summary,
            ops,
            values: Vec::new(),
        };
        let per_op = |v: f64| v / ops;
        let d = delta;
        p.set(
            "ingest.repaired_cells",
            per_op(d.count("ingest.repaired_cells") as f64),
        );
        p.set("wal.append_ms", per_op(d.ms("wal.ns")));
        let frames = d.count("wal.appends");
        p.set(
            "wal.bytes_per_frame",
            if frames > 0 {
                d.count("wal.bytes") as f64 / frames as f64
            } else {
                0.0
            },
        );
        p.set("wal.fsyncs", per_op(d.count("wal.fsyncs") as f64));
        p.set("checkpoint.save_ms", per_op(d.ms("checkpoint.ns")));
        p.set(
            "checkpoint.bytes",
            per_op(d.count("checkpoint.bytes") as f64),
        );
        for (metric, hist) in [
            ("svd.ms", "svd.ns"),
            ("eig.ms", "eig.ns"),
            ("qr.ms", "qr.ns"),
            ("isvd.update_ms", "isvd.update_ns"),
            ("gemm.ms", "gemm.ns"),
        ] {
            p.set(metric, per_op(d.ms(hist)));
        }
        p.set("svd.calls", per_op(d.count("svd.calls") as f64));
        p.set("pool.tasks", per_op(d.count("pool.tasks") as f64));
        let gemm_ms = d.ms("gemm.ns");
        p.set(
            "gemm.gflop_s",
            if gemm_ms > 0.0 {
                d.count("gemm.flops") as f64 / (gemm_ms * 1e6)
            } else {
                0.0
            },
        );
        let busy_ms = d.ms("svd.ns") + d.ms("eig.ns") + d.ms("qr.ns") + d.ms("gemm.ns");
        p.set(
            "linalg.busy_share",
            busy_ms / (wall_s * 1e3 * host::nproc() as f64).max(1e-9),
        );
        p.set(
            "archive.blocks_read",
            per_op(d.count("archive.blocks_read") as f64),
        );
        p.set("trace.wall_ms", per_op(summary.wall_ms()));
        p.set("trace.coverage", summary.coverage());
        p.set("trace.unattributed_ms", per_op(summary.unattributed_ms()));
        p
    }

    /// Sets a metric (its unit comes from [`PER_LAYER`]).
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.retain(|(n, _)| n != name);
        self.values.push((name.to_string(), value));
    }

    /// Sets each `(metric, span)` to the span's self time per operation.
    pub fn spans(&mut self, pairs: &[(&str, &'static str)]) {
        for (metric, span) in pairs {
            let v = self.summary.self_ms(span) / self.ops;
            self.set(metric, v);
        }
    }

    /// Sets `metric` to the mean duration of one `span` call.
    pub fn per_call(&mut self, metric: &str, span: &'static str) {
        let l = self.summary.layer(span);
        let v = if l.calls > 0 {
            l.total_ns as f64 * 1e-6 / l.calls as f64
        } else {
            0.0
        };
        self.set(metric, v);
    }

    /// Completes the catalogue: the traced run's own end-to-end figures
    /// as `traced.*`, and 0 for every layer not entered.
    pub fn finish(mut self, e2e: &[(String, f64, String)]) -> Vec<(String, f64, String)> {
        for (name, v, _) in e2e {
            self.set(&format!("traced.{name}"), *v);
        }
        PER_LAYER
            .iter()
            .map(|(name, unit)| {
                let v = self
                    .values
                    .iter()
                    .find(|(n, _)| n == name)
                    .map_or(0.0, |(_, v)| *v);
                (name.to_string(), v, unit.to_string())
            })
            .collect()
    }
}

/// What one run produced.
pub struct Outcome {
    /// Operations and checks attempted.
    pub attempted: usize,
    /// Operations and checks that failed.
    pub failed: usize,
    /// End-to-end metrics `(name, value, unit)`.
    pub metrics: Vec<(String, f64, String)>,
    /// Workload-specific figures for the report line.
    pub details: Vec<(String, f64)>,
    /// Rate-ladder verdicts (fleet-ingest only).
    pub ladder: Vec<StepVerdict>,
    /// Per-layer metrics of a traced run.
    pub layers: Option<Vec<(String, f64, String)>>,
}

impl Outcome {
    /// An empty outcome.
    pub fn new(attempted: usize, failed: usize) -> Outcome {
        Outcome {
            attempted,
            failed,
            metrics: Vec::new(),
            details: Vec::new(),
            ladder: Vec::new(),
            layers: None,
        }
    }

    /// Records an end-to-end metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &str) {
        self.metrics.push((name.into(), value, unit.into()));
    }

    /// Records a figure for the report line.
    pub fn detail(&mut self, name: &str, value: f64) {
        self.details.push((name.into(), value));
    }

    /// True when nothing failed and every metric is a usable number.
    pub fn correct(&self) -> bool {
        self.failed == 0
            && self
                .metrics
                .iter()
                .all(|(_, v, _)| v.is_finite() && *v > 0.0)
    }
}

/// A JSON value; non-finite numbers become `null`.
fn value<T: Serialize + ?Sized>(v: &T) -> Value {
    Value(to_content(v))
}

/// A JSON object of `(key, value)` pairs, in order.
fn object<'a>(entries: impl IntoIterator<Item = (&'a str, Value)>) -> Value {
    Value(Content::Map(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v.0))
            .collect(),
    ))
}

fn metrics_json(list: &[(String, f64, String)]) -> Value {
    object(
        list.iter()
            .map(|(n, v, u)| (n.as_str(), json!({ "value": v, "unit": u }))),
    )
}

fn encode(v: &Value) -> String {
    serde_json::to_string(v).expect("a JSON tree always encodes")
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(out: &Outcome, traced: bool) -> String {
    let metrics = if traced {
        out.layers.as_deref().unwrap_or(&[])
    } else {
        &out.metrics
    };
    encode(&json!({
        "correct": out.correct(),
        "attempted": out.attempted.max(1),
        "failed": out.failed,
        "metrics": metrics_json(metrics),
    }))
}

/// The report line: provenance, the workload's reason, its named
/// figures, the ladder, and (traced) the prediction table.
pub fn report_line(
    workload: &str,
    why: &str,
    seed: u64,
    seconds: f64,
    traced: bool,
    store_fs: &str,
    out: &Outcome,
) -> String {
    let details = object(out.details.iter().map(|(n, v)| (n.as_str(), value(v))));
    let predictions: Vec<Value> = if traced {
        PREDICTIONS
            .iter()
            .map(|(l, m, u)| json!({ "layer": l, "moves": m, "unchanged_on": u }))
            .collect()
    } else {
        Vec::new()
    };
    let report = json!({
        "workload": workload,
        "why": why,
        "seed": seed,
        "seconds": seconds,
        "trace": traced,
        "git_rev": host::git_rev(),
        "host": json!({
            "nproc": host::nproc(),
            "cpu": host::cpu_model(),
            "avx2": host::avx2(),
            "store_fs": store_fs,
        }),
        "error_rate": out.failed as f64 / out.attempted.max(1) as f64,
        "details": details,
        "ladder": out.ladder,
        "predictions": predictions,
    });
    encode(&json!({ "report": report }))
}
