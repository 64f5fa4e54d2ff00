//! In-memory spans recorded by the benchmark around each call it makes
//! into an engine layer. The traced run sums them into per-layer
//! metrics and writes them out as JSON when it ends; the timed runs
//! record nothing.

use std::fmt::Write as _;
use std::path::Path;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One timed call.
#[derive(Debug, Clone)]
pub(crate) struct Span {
    /// Span id (1-based; 0 means "no parent").
    pub(crate) id: u64,
    /// Layer call, e.g. `xmlkit.parse` or `wire.read`.
    pub(crate) name: &'static str,
    /// Nanoseconds since the tracer started.
    pub(crate) start_ns: u64,
    /// Nanoseconds since the tracer started.
    pub(crate) end_ns: u64,
    /// The enclosing span, 0 at top level.
    pub(crate) parent: u64,
    /// The statement this call served (0 when not a statement).
    pub(crate) stmt: u64,
}

/// A span recorder shared by the traced run's threads.
#[derive(Debug)]
pub(crate) struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer { epoch: Instant::now(), spans: Mutex::new(Vec::new()) }
    }
}

impl Tracer {
    /// Reserve a span id for `name` before running its body, so the
    /// body's calls can name it as their parent.
    pub(crate) fn open(&self, name: &'static str, parent: u64, stmt: u64) -> Open {
        let mut spans = self.spans();
        let id = spans.len() as u64 + 1;
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        spans.push(Span { id, name, start_ns, end_ns: start_ns, parent, stmt });
        Open { id, start: Instant::now() }
    }

    /// Close a span opened with [`Tracer::open`]; returns its duration.
    pub(crate) fn close(&self, open: Open) -> Duration {
        let elapsed = open.start.elapsed();
        let mut spans = self.spans();
        let span = &mut spans[open.id as usize - 1];
        span.end_ns = span.start_ns + elapsed.as_nanos() as u64;
        elapsed
    }

    /// Time `f` as span `name` under `parent`.
    pub(crate) fn span<T>(
        &self,
        name: &'static str,
        parent: u64,
        stmt: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let open = self.open(name, parent, stmt);
        let out = f();
        self.close(open);
        out
    }

    fn spans(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans.lock().expect("a thread panicked while recording a span")
    }

    /// Total time of all spans named `name`.
    pub(crate) fn total(&self, name: &str) -> Duration {
        let spans = self.spans();
        let ns = spans.iter().filter(|s| s.name == name).map(|s| s.end_ns - s.start_ns).sum();
        Duration::from_nanos(ns)
    }

    /// Number of spans named `name`.
    pub(crate) fn count(&self, name: &str) -> usize {
        self.spans().iter().filter(|s| s.name == name).count()
    }

    /// Write every span as a JSON array to `path`.
    pub(crate) fn write_json(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.spans();
        let mut out = String::from("[\n");
        for (i, s) in spans.iter().enumerate() {
            let sep = if i + 1 == spans.len() { "" } else { "," };
            let _ = writeln!(
                out,
                "{{\"id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"stmt\":{}}}{sep}",
                s.id, s.name, s.start_ns, s.end_ns, s.parent, s.stmt
            );
        }
        out.push_str("]\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// Run `f`, timed as span `name` when there is a tracer.
pub(crate) fn span<T>(
    tracer: Option<&Tracer>,
    name: &'static str,
    parent: u64,
    stmt: u64,
    f: impl FnOnce() -> T,
) -> T {
    match tracer {
        Some(t) => t.span(name, parent, stmt, f),
        None => f(),
    }
}

/// A span that is still running.
#[derive(Debug)]
pub(crate) struct Open {
    /// The span's id, for children to name as parent.
    pub(crate) id: u64,
    start: Instant,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_sum() {
        let t = Tracer::default();
        let outer = t.open("outer", 0, 0);
        let v = t.span("inner", outer.id, 7, || 41 + 1);
        t.span("inner", outer.id, 8, || ());
        t.close(outer);
        assert_eq!(v, 42);
        assert_eq!(t.count("inner"), 2);
        assert!(t.total("outer") >= t.total("inner"));
        let spans = t.spans.lock().unwrap();
        assert_eq!((spans[1].parent, spans[1].stmt), (1, 7));
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
    }
}
