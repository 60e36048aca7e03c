//! Zero-dependency observability substrate: metrics + span timers.
//!
//! The kernels in this crate are the hot path of a streaming assessment
//! pipeline; knowing where a `partial_fit` round spends its time (GEMM vs.
//! QR vs. the eigensolver ladder) and how often escalation paths fire is
//! what makes the pipeline operable at scale. This module provides the
//! measurement primitives:
//!
//! * [`Counter`] — monotonic `u64` counter, sharded across cache-line-padded
//!   per-thread slots (aggregated at read time), so concurrent increments
//!   from the worker pool never contend on one cache line;
//! * [`Gauge`] — last-write-wins `f64` value;
//! * [`Histogram`] — fixed-bucket nanosecond histogram with a
//!   [`span`](Histogram::span) RAII timer;
//! * an injectable clock: monotonic in production, a fake deterministic
//!   counter in tests ([`Observer::with_fake_clock`]), so recorded outputs
//!   can be made bit-stable across runs and thread counts;
//! * a process-wide enable switch ([`Observer`]) whose disabled path is one
//!   relaxed atomic load per instrumentation site.
//!
//! Each crate declares its metrics once, with [`metrics!`](crate::metrics),
//! which emits the `static` items and the crate's [`METRICS`] table of
//! [`Metric`] handles. Snapshots ([`Metric::entry`]) and resets
//! ([`Metric::reset`]) walk those tables, so snapshot order is declaration
//! order and no series can be declared but left out.
//!
//! Nothing here ever touches numerical state: instrumentation cannot perturb
//! the bitwise determinism guarantees of the kernels at any thread count.

use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Number of counter shards; increments pick a shard by a thread-local id,
/// reads sum all shards ("aggregate per thread, merge on read").
const SHARDS: usize = 16;

/// One cache-line-padded counter slot.
#[repr(align(64))]
struct Shard(AtomicU64);

#[allow(clippy::declare_interior_mutable_const)]
const SHARD_ZERO: Shard = Shard(AtomicU64::new(0));

/// Stable small id of the calling thread, used to pick a counter shard.
fn shard_idx() -> usize {
    use std::cell::Cell;
    thread_local! {
        static IDX: Cell<usize> = const { Cell::new(usize::MAX) };
    }
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    IDX.with(|c| {
        let mut i = c.get();
        if i == usize::MAX {
            i = NEXT.fetch_add(1, Ordering::Relaxed) % SHARDS;
            c.set(i);
        }
        i
    })
}

// ---------------------------------------------------------------------------
// Enable switch + clock
// ---------------------------------------------------------------------------

static ENABLED: AtomicBool = AtomicBool::new(true);

/// Whether instrumentation is currently recording.
#[inline(always)]
fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Clock mode: 0 = monotonic (`Instant`), 1 = fake (deterministic counter).
static CLOCK_MODE: AtomicU8 = AtomicU8::new(0);
static FAKE_NOW: AtomicU64 = AtomicU64::new(0);
static FAKE_STEP: AtomicU64 = AtomicU64::new(0);
static MONO_BASE: OnceLock<Instant> = OnceLock::new();

/// Current time in nanoseconds on the active clock.
///
/// Monotonic mode reads a process-wide [`Instant`] base; fake mode returns
/// the injected counter and advances it by the configured step (use step 0
/// for values that must be identical across threads and interleavings).
fn now_ns() -> u64 {
    if CLOCK_MODE.load(Ordering::Relaxed) == 1 {
        FAKE_NOW.fetch_add(FAKE_STEP.load(Ordering::Relaxed), Ordering::Relaxed)
    } else {
        MONO_BASE.get_or_init(Instant::now).elapsed().as_nanos() as u64
    }
}

/// Handle configuring the process-wide observability state: whether metrics
/// record at all, and which clock the span timers read.
///
/// ```
/// use hpc_linalg::obs::Observer;
/// Observer::disabled().install();          // recording off: sites cost one load
/// Observer::enabled().install();           // production default
/// Observer::enabled().with_fake_clock(0, 0).install(); // deterministic tests
/// ```
#[derive(Clone, Copy, Debug)]
pub struct Observer {
    enabled: bool,
    fake_clock: Option<(u64, u64)>,
}

impl Observer {
    /// An observer that records metrics (the default state of the process).
    pub fn enabled() -> Observer {
        Observer {
            enabled: true,
            fake_clock: None,
        }
    }

    /// An observer that records nothing: every instrumentation site reduces
    /// to one relaxed atomic load, keeping the hot paths effectively free.
    pub fn disabled() -> Observer {
        Observer {
            enabled: false,
            fake_clock: None,
        }
    }

    /// Uses a deterministic fake clock instead of the monotonic production
    /// clock: it reads `start_ns`, then advances by `step_ns` per read. A
    /// step of 0 makes every recorded duration exactly 0 regardless of
    /// thread count — the mode the determinism tests run under.
    pub fn with_fake_clock(mut self, start_ns: u64, step_ns: u64) -> Observer {
        self.fake_clock = Some((start_ns, step_ns));
        self
    }

    /// Applies this configuration process-wide.
    pub fn install(self) {
        match self.fake_clock {
            Some((start, step)) => {
                FAKE_NOW.store(start, Ordering::Relaxed);
                FAKE_STEP.store(step, Ordering::Relaxed);
                CLOCK_MODE.store(1, Ordering::Relaxed);
            }
            None => CLOCK_MODE.store(0, Ordering::Relaxed),
        }
        ENABLED.store(self.enabled, Ordering::Relaxed);
    }
}

// ---------------------------------------------------------------------------
// Metric primitives
// ---------------------------------------------------------------------------

/// Monotonic counter, sharded per thread and summed at read time.
pub struct Counter {
    name: &'static str,
    help: &'static str,
    shards: [Shard; SHARDS],
}

impl Counter {
    /// A zeroed counter (use in a `static`).
    pub const fn new(name: &'static str, help: &'static str) -> Counter {
        Counter {
            name,
            help,
            shards: [SHARD_ZERO; SHARDS],
        }
    }

    /// Adds `n` if observation is enabled.
    #[inline(always)]
    pub fn add(&self, n: u64) {
        if is_enabled() {
            self.shards[shard_idx()].0.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Adds 1 if observation is enabled.
    #[inline(always)]
    pub fn inc(&self) {
        self.add(1);
    }

    /// The merged value across all shards.
    pub fn value(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.0.load(Ordering::Relaxed))
            .sum()
    }
}

/// Last-write-wins `f64` gauge.
pub struct Gauge {
    name: &'static str,
    help: &'static str,
    bits: AtomicU64,
}

impl Gauge {
    /// A gauge holding `0.0` (use in a `static`).
    pub const fn new(name: &'static str, help: &'static str) -> Gauge {
        Gauge {
            name,
            help,
            bits: AtomicU64::new(0),
        }
    }

    /// Stores `v` if observation is enabled.
    #[inline(always)]
    pub fn set(&self, v: f64) {
        if is_enabled() {
            self.bits.store(v.to_bits(), Ordering::Relaxed);
        }
    }

    /// The stored value.
    pub fn value(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// Fixed upper bucket bounds of every duration histogram, in nanoseconds
/// (roughly ×4 per step, 1 µs … 4 s); durations above the last bound land
/// in an overflow bucket.
pub const NS_BUCKET_BOUNDS: [u64; 12] = [
    1_000,
    4_000,
    16_000,
    64_000,
    250_000,
    1_000_000,
    4_000_000,
    16_000_000,
    64_000_000,
    250_000_000,
    1_000_000_000,
    4_000_000_000,
];

const N_BUCKETS: usize = NS_BUCKET_BOUNDS.len() + 1;

#[allow(clippy::declare_interior_mutable_const)]
const BUCKET_ZERO: AtomicU64 = AtomicU64::new(0);

/// Fixed-bucket nanosecond histogram with an RAII span timer.
pub struct Histogram {
    name: &'static str,
    help: &'static str,
    counts: [AtomicU64; N_BUCKETS],
    sum_ns: AtomicU64,
    count: AtomicU64,
}

impl Histogram {
    /// An empty histogram over [`NS_BUCKET_BOUNDS`] (use in a `static`).
    pub const fn new(name: &'static str, help: &'static str) -> Histogram {
        Histogram {
            name,
            help,
            counts: [BUCKET_ZERO; N_BUCKETS],
            sum_ns: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }

    /// Records one observation of `ns` nanoseconds if observation is enabled.
    #[inline]
    pub fn record(&self, ns: u64) {
        if is_enabled() {
            let idx = NS_BUCKET_BOUNDS
                .iter()
                .position(|&b| ns <= b)
                .unwrap_or(NS_BUCKET_BOUNDS.len());
            self.counts[idx].fetch_add(1, Ordering::Relaxed);
            self.sum_ns.fetch_add(ns, Ordering::Relaxed);
            self.count.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Starts a span timer that records its elapsed time into this histogram
    /// when dropped. When observation is disabled the guard is inert and the
    /// clock is never read.
    #[inline]
    #[must_use = "a span records on drop; binding it to _ discards the measurement immediately"]
    pub fn span(&'static self) -> Span {
        Span {
            hist: self,
            start: if is_enabled() { Some(now_ns()) } else { None },
        }
    }

    /// Current per-bucket counts (including the trailing overflow bucket),
    /// total observation count and nanosecond sum.
    pub fn snapshot(&self) -> HistogramEntry {
        HistogramEntry {
            bounds_ns: NS_BUCKET_BOUNDS.to_vec(),
            counts: self
                .counts
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
            count: self.count.load(Ordering::Relaxed),
            sum_ns: self.sum_ns.load(Ordering::Relaxed),
        }
    }
}

/// RAII timer returned by [`Histogram::span`]; records on drop.
pub struct Span {
    hist: &'static Histogram,
    start: Option<u64>,
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            self.hist.record(now_ns().saturating_sub(start));
        }
    }
}

// ---------------------------------------------------------------------------
// Tables and snapshot entries
// ---------------------------------------------------------------------------

/// Serializable histogram state.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct HistogramEntry {
    /// Upper bucket bounds in nanoseconds (overflow bucket implicit).
    pub bounds_ns: Vec<u64>,
    /// Per-bucket counts; one longer than `bounds_ns` (overflow last).
    pub counts: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of observed durations in nanoseconds.
    pub sum_ns: u64,
}

/// One metric in a snapshot.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct MetricEntry {
    /// Dotted metric name, e.g. `ingest.repaired_cells`.
    pub name: String,
    /// `counter`, `gauge` or `histogram`.
    pub kind: String,
    /// One-line description.
    pub help: String,
    /// Counter value (counters only).
    pub counter: Option<u64>,
    /// Gauge value (gauges only).
    pub gauge: Option<f64>,
    /// Histogram state (histograms only).
    pub histogram: Option<HistogramEntry>,
}

/// A handle on one declared metric static: the element type of every
/// crate's `METRICS` table.
#[derive(Clone, Copy)]
pub enum Metric {
    /// A monotonic counter.
    Counter(&'static Counter),
    /// A last-write-wins gauge.
    Gauge(&'static Gauge),
    /// A nanosecond histogram.
    Histogram(&'static Histogram),
}

impl Metric {
    /// The metric's name, help text and current value.
    pub fn entry(&self) -> MetricEntry {
        let (name, help, kind, counter, gauge, histogram) = match *self {
            Metric::Counter(c) => (c.name, c.help, "counter", Some(c.value()), None, None),
            Metric::Gauge(g) => (g.name, g.help, "gauge", None, Some(g.value()), None),
            Metric::Histogram(h) => (h.name, h.help, "histogram", None, None, Some(h.snapshot())),
        };
        MetricEntry {
            name: name.to_string(),
            kind: kind.to_string(),
            help: help.to_string(),
            counter,
            gauge,
            histogram,
        }
    }

    /// Zeroes the metric (tests and per-interval deltas).
    pub fn reset(&self) {
        match *self {
            Metric::Counter(c) => c
                .shards
                .iter()
                .for_each(|s| s.0.store(0, Ordering::Relaxed)),
            Metric::Gauge(g) => g.bits.store(0, Ordering::Relaxed),
            Metric::Histogram(h) => {
                h.counts.iter().for_each(|c| c.store(0, Ordering::Relaxed));
                h.sum_ns.store(0, Ordering::Relaxed);
                h.count.store(0, Ordering::Relaxed);
            }
        }
    }
}

/// Declares a crate's metrics from one list: each line becomes a documented
/// `pub static`, and the whole list becomes the crate's
/// `pub static METRICS: &[Metric]` table, in declaration order. A series
/// cannot be declared without landing in the table that snapshots and
/// resets walk.
///
/// ```
/// hpc_linalg::metrics! {
///     /// Widgets built.
///     Counter WIDGETS = ("demo.widgets", "Widgets built");
///     /// Wall time per widget.
///     Histogram WIDGET_NS = ("demo.widget_ns", "Wall time per widget");
/// }
/// WIDGETS.inc();
/// assert_eq!(METRICS.len(), 2);
/// assert_eq!(METRICS[1].entry().name, "demo.widget_ns");
/// ```
#[macro_export]
macro_rules! metrics {
    ($($(#[$attr:meta])* $kind:ident $name:ident = ($metric:literal, $help:literal $(,)?);)*) => {
        $(
            $(#[$attr])*
            pub static $name: $crate::obs::$kind = $crate::obs::$kind::new($metric, $help);
        )*
        /// Every metric this crate declares, in declaration order.
        pub static METRICS: &[$crate::obs::Metric] = &[$($crate::obs::Metric::$kind(&$name)),*];
    };
}

// ---------------------------------------------------------------------------
// The linalg metric table
// ---------------------------------------------------------------------------

metrics! {
    /// Dense f64 GEMM kernel invocations (every matmul variant routes here).
    Counter GEMM_CALLS = ("gemm.calls", "Dense f64 GEMM kernel invocations");
    /// Floating-point operations issued by GEMM (`2·m·k·n` per call).
    Counter GEMM_FLOPS = ("gemm.flops", "Floating-point operations issued by GEMM (2mkn per call)");
    /// Wall time per GEMM call.
    Histogram GEMM_NS = ("gemm.ns", "Wall time per GEMM call");

    /// Householder QR factorizations.
    Counter QR_CALLS = ("qr.calls", "Householder QR factorizations");
    /// Wall time per QR factorization.
    Histogram QR_NS = ("qr.ns", "Wall time per QR factorization");

    /// One-sided Jacobi SVD solves (all entry points).
    Counter SVD_CALLS = ("svd.calls", "One-sided Jacobi SVD solves");
    /// SVD solves that left the standard sweep budget (doubled-budget retry; a
    /// forced-nonconvergence failpoint counts once).
    Counter SVD_ESCALATIONS = (
        "svd.escalations",
        "SVD solves escalated past the standard sweep budget",
    );
    /// SVD solves whose escalation also failed (reported as typed errors).
    Counter SVD_FAILURES = ("svd.failures", "SVD solves that exhausted the escalation ladder");
    /// Wall time per SVD solve.
    Histogram SVD_NS = ("svd.ns", "Wall time per SVD solve");

    /// Complex eigendecompositions (every eig entry point routes here).
    Counter EIG_CALLS = ("eig.calls", "Complex eigendecompositions");
    /// Eig solves that left the first ladder rung (each further rung transition
    /// counts again; a forced-nonconvergence failpoint counts once).
    Counter EIG_ESCALATIONS = (
        "eig.escalations",
        "Eigensolver rung transitions past the standard budget",
    );
    /// Eig solves whose full ladder failed (reported as typed errors).
    Counter EIG_FAILURES = ("eig.failures", "Eig solves that exhausted the escalation ladder");
    /// Wall time per eigendecomposition.
    Histogram EIG_NS = ("eig.ns", "Wall time per eigendecomposition");

    /// Brand incremental-SVD updates absorbed.
    Counter ISVD_UPDATES = ("isvd.updates", "Brand incremental-SVD updates absorbed");
    /// Wall time per incremental-SVD update.
    Histogram ISVD_UPDATE_NS = ("isvd.update_ns", "Wall time per incremental-SVD update");

    /// Sketched truncated-SVD fits (the `FitStrategy::Sketched` kernel; exact
    /// fallbacks for probes as wide as the matrix do not count).
    Counter SKETCH_FITS = ("sketch.fits", "Sketched truncated-SVD fits");
    /// Gaussian range-finder probes drawn (one per sketched fit plus one per
    /// streaming-sketch cold start; basis reuse keeps this far below fits×rounds).
    Counter SKETCH_PROBES = ("sketch.probes", "Gaussian range-finder probes drawn");
    /// Streaming-sketch basis refreshes: rounds whose residual forced new
    /// directions into the reused range basis.
    Counter SKETCH_REFRESHES = (
        "sketch.refreshes",
        "Streaming-sketch basis augmentations (residual directions added)",
    );
    /// Streaming-sketch basis compressions back under the rank cap.
    Counter SKETCH_COMPRESSIONS = (
        "sketch.compressions",
        "Streaming-sketch basis compressions back under the rank cap",
    );
    /// Wall time per sketched SVD fit (probe, power iterations, projected solve).
    Histogram SKETCH_NS = ("sketch.ns", "Wall time per sketched SVD fit");

    /// Fork-join scopes opened by the worker pool.
    Counter POOL_FORKS = ("pool.forks", "Fork-join scopes opened by the worker pool");
    /// Tasks executed on borrowed pool workers (scheduler-dependent: varies with
    /// the thread budget, excluded from cross-thread determinism comparisons).
    Counter POOL_TASKS = ("pool.tasks", "Tasks executed on borrowed pool workers");
    /// Process-wide worker-thread budget currently configured.
    Gauge POOL_THREADS = ("pool.threads", "Process-wide worker-thread budget");
}

#[cfg(test)]
mod tests {
    use super::*;

    // The metric statics are process-global and shared with the rest of the
    // unit-test binary's (concurrent) kernel calls, so these tests exercise
    // local instances and the clock/enable plumbing only — serialized by a
    // mutex because the enable switch and clock mode are also process-global.
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn counter_shards_merge() {
        let _g = LOCK.lock().unwrap();
        Observer::enabled().install();
        static C: Counter = Counter::new("test.local", "local");
        let before = C.value();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..100 {
                        C.inc();
                    }
                });
            }
        });
        assert_eq!(C.value() - before, 400);
    }

    #[test]
    fn histogram_buckets_and_span() {
        let _g = LOCK.lock().unwrap();
        Observer::enabled().install();
        static H: Histogram = Histogram::new("test.hist", "local");
        H.record(500); // ≤ 1µs bucket
        H.record(2_000_000); // ≤ 4ms bucket
        H.record(u64::MAX); // overflow bucket
        let snap = H.snapshot();
        assert_eq!(snap.count, 3);
        assert_eq!(snap.counts[0], 1);
        assert_eq!(snap.counts[6], 1);
        assert_eq!(*snap.counts.last().unwrap(), 1);
    }

    #[test]
    fn fake_clock_is_deterministic() {
        let _g = LOCK.lock().unwrap();
        Observer::enabled().with_fake_clock(100, 0).install();
        assert_eq!(now_ns(), 100);
        assert_eq!(now_ns(), 100);
        Observer::enabled().with_fake_clock(0, 7).install();
        assert_eq!(now_ns(), 0);
        assert_eq!(now_ns(), 7);
        Observer::enabled().install();
        let a = now_ns();
        let b = now_ns();
        assert!(b >= a);
    }

    #[test]
    fn disabled_observer_records_nothing() {
        let _g = LOCK.lock().unwrap();
        static C: Counter = Counter::new("test.disabled", "local");
        Observer::disabled().install();
        C.inc();
        assert_eq!(C.value(), 0);
        Observer::enabled().install();
        C.inc();
        assert_eq!(C.value(), 1);
    }
}
