//! The benchmark's own tracer: spans around each call into a layer's
//! public function, recorded from the benchmark's files only.
//!
//! A span has a name, a start, an end, the span that caused it and the
//! request it belongs to. A layer's self time is its span's duration
//! minus the part its child spans cover. Each workload wraps one unit of
//! its work in a root span named [`ROOT`]; whatever of a root span no
//! named child covers is the unattributed remainder. Spans stay in memory
//! until [`finish`] and cost nothing while tracing is off.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Name of the per-operation root span.
pub const ROOT: &str = "op";

static ON: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);

struct Store {
    epoch: Instant,
    spans: Mutex<Vec<SpanRec>>,
}

fn store() -> &'static Store {
    static STORE: OnceLock<Store> = OnceLock::new();
    STORE.get_or_init(|| Store {
        epoch: Instant::now(),
        spans: Mutex::new(Vec::new()),
    })
}

/// One finished span.
#[derive(Clone, Debug)]
pub struct SpanRec {
    /// Span id (unique in the process).
    pub id: u64,
    /// Id of the enclosing span on the same thread, 0 for none.
    pub parent: u64,
    /// Request id the span belongs to, 0 for none.
    pub req: u64,
    /// Layer name.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// Duration minus the time its children cover.
    pub self_ns: u64,
}

struct Frame {
    id: u64,
    child_ns: u64,
}

thread_local! {
    static STACK: RefCell<Vec<Frame>> = const { RefCell::new(Vec::new()) };
    static REQ: RefCell<u64> = const { RefCell::new(0) };
}

/// Turns tracing on or off for the whole process.
pub fn set_enabled(on: bool) {
    store();
    ON.store(on, Ordering::SeqCst);
}

/// True while tracing.
pub fn enabled() -> bool {
    ON.load(Ordering::Relaxed)
}

/// Tags the spans this thread opens from now on with request `id`.
pub fn set_request(id: u64) {
    REQ.with(|r| *r.borrow_mut() = id);
}

/// An open span; it closes when dropped.
pub struct Span {
    open: Option<(u64, &'static str, Instant)>,
}

/// Opens span `name` as a child of this thread's innermost open span.
pub fn span(name: &'static str) -> Span {
    if !enabled() {
        return Span { open: None };
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    STACK.with(|s| s.borrow_mut().push(Frame { id, child_ns: 0 }));
    Span {
        open: Some((id, name, Instant::now())),
    }
}

/// Runs `f` inside span `name`.
pub fn within<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let _s = span(name);
    f()
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some((id, name, start)) = self.open.take() else {
            return;
        };
        let end = Instant::now();
        let dur = end.duration_since(start).as_nanos() as u64;
        let (child_ns, parent) = STACK.with(|s| {
            let mut s = s.borrow_mut();
            let frame = s.pop().map_or(0, |f| {
                debug_assert_eq!(f.id, id, "spans close in stack order");
                f.child_ns
            });
            let parent = s.last_mut().map_or(0, |p| {
                p.child_ns += dur;
                p.id
            });
            (frame, parent)
        });
        let st = store();
        let rec = SpanRec {
            id,
            parent,
            req: REQ.with(|r| *r.borrow()),
            name,
            start_ns: start.duration_since(st.epoch).as_nanos() as u64,
            end_ns: end.duration_since(st.epoch).as_nanos() as u64,
            self_ns: dur.saturating_sub(child_ns),
        };
        st.spans.lock().expect("span store poisoned").push(rec);
    }
}

/// Per-layer totals over the recorded spans.
#[derive(Clone, Copy, Debug, Default)]
pub struct Layer {
    /// Spans recorded.
    pub calls: u64,
    /// Sum of durations, nanoseconds.
    pub total_ns: u64,
    /// Sum of self times, nanoseconds.
    pub self_ns: u64,
}

/// What a traced run recorded.
#[derive(Debug, Default)]
pub struct Summary {
    /// Totals per layer name (including [`ROOT`]).
    pub layers: BTreeMap<&'static str, Layer>,
}

impl Summary {
    /// The totals of `name` (zero when never recorded).
    pub fn layer(&self, name: &str) -> Layer {
        self.layers.get(name).copied().unwrap_or_default()
    }

    /// Self time of `name` in milliseconds.
    pub fn self_ms(&self, name: &str) -> f64 {
        self.layer(name).self_ns as f64 * 1e-6
    }

    /// Wall time the root spans cover, milliseconds.
    pub fn wall_ms(&self) -> f64 {
        self.layer(ROOT).total_ns as f64 * 1e-6
    }

    /// Root time no named layer covers, milliseconds.
    pub fn unattributed_ms(&self) -> f64 {
        self.self_ms(ROOT)
    }

    /// Share of root wall time covered by named layers' self time.
    pub fn coverage(&self) -> f64 {
        let wall = self.wall_ms();
        if wall <= 0.0 {
            return 0.0;
        }
        (wall - self.unattributed_ms()) / wall
    }
}

/// Drains the recorded spans into per-layer totals, writing every span as
/// one JSON line to `out` when given.
pub fn finish(out: Option<&Path>) -> std::io::Result<Summary> {
    let spans = std::mem::take(&mut *store().spans.lock().expect("span store poisoned"));
    let mut summary = Summary::default();
    for s in &spans {
        let l = summary.layers.entry(s.name).or_default();
        l.calls += 1;
        l.total_ns += s.end_ns - s.start_ns;
        l.self_ns += s.self_ns;
    }
    if let Some(path) = out {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &spans {
            writeln!(
                w,
                "{{\"id\":{},\"parent\":{},\"req\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.req, s.name, s.start_ns, s.end_ns
            )?;
        }
        w.flush()?;
    }
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_coverage_counts_named_layers() {
        set_enabled(true);
        {
            let _root = span(ROOT);
            std::thread::sleep(std::time::Duration::from_millis(4));
            within("child", || {
                std::thread::sleep(std::time::Duration::from_millis(12))
            });
        }
        set_enabled(false);
        let _ignored = span("off");
        drop(_ignored);
        let s = finish(None).expect("in-memory finish");
        assert!(!s.layers.contains_key("off"));
        let root = s.layer(ROOT);
        let child = s.layer("child");
        assert_eq!((root.calls, child.calls), (1, 1));
        assert_eq!(child.self_ns, child.total_ns);
        assert_eq!(root.self_ns, root.total_ns - child.total_ns);
        assert!(s.coverage() > 0.5 && s.coverage() < 1.0, "{}", s.coverage());
    }
}
