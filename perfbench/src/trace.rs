//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code around each call
//! into a layer: name, start, end, the enclosing span and the id of the
//! operation (build, load, edit, replay) they belong to. They stay in
//! memory and are written out once, when the run ends. With tracing off
//! every call is a no-op, so the untraced end-to-end run pays nothing.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub run: u64,
}

/// Handle returned by [`Tracer::begin`]; pass it back to [`Tracer::end`].
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<usize>);

#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    next_run: u64,
    current_run: u64,
}

impl Tracer {
    pub fn new(enabled: bool, origin: Instant) -> Self {
        Tracer {
            enabled,
            origin,
            spans: Vec::new(),
            open: Vec::new(),
            next_run: 0,
            current_run: 0,
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span. A span with no open parent starts a new operation
    /// and gets a fresh run id; nested spans inherit their root's id.
    pub fn begin(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let parent = self.open.last().copied();
        if parent.is_none() {
            self.next_run += 1;
            self.current_run = self.next_run;
        }
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent,
            run: self.current_run,
        });
        let id = self.spans.len() - 1;
        self.open.push(id);
        SpanId(Some(id))
    }

    /// Closes `id` and returns its duration in nanoseconds (0 when
    /// tracing is off).
    pub fn end(&mut self, id: SpanId) -> u64 {
        let Some(id) = id.0 else { return 0 };
        let now = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = now;
        let took = now - span.start_ns;
        if let Some(pos) = self.open.iter().rposition(|&o| o == id) {
            self.open.truncate(pos);
        }
        took
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let id = self.begin(name);
        let out = f(self);
        self.end(id);
        out
    }

    /// Self time per span name: each span's duration minus the part of
    /// it its direct children cover, summed over all spans of the name.
    pub fn self_times_ns(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns.saturating_sub(s.start_ns);
            }
        }
        let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let total = s.end_ns.saturating_sub(s.start_ns);
            let entry = out.entry(s.name).or_default();
            entry.0 += total;
            entry.1 += total.saturating_sub(child_ns[i]);
        }
        out
    }

    /// The spans and the per-name self-time summary as one JSON
    /// document.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"spans\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"run\":{}}}",
                s.name, s.start_ns, s.end_ns, s.run
            );
        }
        out.push_str("],\"self_ms\":{");
        for (i, (name, (_, self_ns))) in self.self_times_ns().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{name}\":{}", *self_ns as f64 / 1e6);
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true, Instant::now());
        let root = t.begin("root");
        let child = t.begin("child");
        std::thread::sleep(std::time::Duration::from_millis(5));
        t.end(child);
        t.end(root);
        let other = t.begin("other");
        t.end(other);
        let times = t.self_times_ns();
        let (root_total, root_self) = times["root"];
        let (child_total, _) = times["child"];
        assert!(child_total >= 5_000_000);
        assert_eq!(root_self, root_total - child_total);
        assert_eq!(t.spans[0].run, t.spans[1].run);
        assert_ne!(t.spans[0].run, t.spans[2].run);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, Instant::now());
        let id = t.begin("x");
        assert_eq!(t.end(id), 0);
        assert!(t.spans.is_empty());
    }
}
