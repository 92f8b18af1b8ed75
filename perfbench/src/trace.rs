//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code around calls into the
//! simulator's public functions; nothing inside the simulator is
//! instrumented (its `obs::profile` stays disabled). A disabled recorder
//! ignores every call, so untraced runs pay one branch per span site.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One closed span: host-clock nanoseconds since the recorder started.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

/// Per-name aggregate of closed spans.
#[derive(Debug, Clone, Default)]
pub struct SpanStat {
    /// Span durations, ns, in recording order.
    pub durations_ns: Vec<u64>,
    /// Sum over spans of (duration − time covered by child spans), ns.
    pub self_ns: u64,
}

#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open span.
    pub fn enter(&mut self, name: &str) {
        if !self.enabled {
            return;
        }
        let span = Span {
            name: name.to_string(),
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
        };
        self.open.push(self.spans.len());
        self.spans.push(span);
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let id = self.open.pop().expect("exit without a matching enter");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        self.enter(name);
        let out = f();
        self.exit();
        out
    }

    /// Closes every span left open (after a caught panic).
    pub fn unwind(&mut self) {
        while !self.open.is_empty() {
            self.exit();
        }
    }

    /// Aggregates closed spans by name, with self time = duration minus
    /// the union of the direct children (children of one parent never
    /// overlap: the benchmark is single-threaded).
    pub fn stats(&self) -> BTreeMap<String, SpanStat> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<String, SpanStat> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let d = s.end_ns - s.start_ns;
            let e = out.entry(s.name.clone()).or_default();
            e.durations_ns.push(d);
            e.self_ns += d.saturating_sub(child_ns[i]);
        }
        out
    }

    /// The spans as JSON lines: `{"id","name","parent","start_ns","end_ns"}`.
    pub fn to_jsonl(&self) -> String {
        let mut s = String::new();
        for (i, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                s,
                "{{\"id\": {i}, \"name\": \"{}\", \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}}}",
                span.name, span.start_ns, span.end_ns
            );
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut r = Recorder::new(true);
        r.enter("outer");
        r.span("inner", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        r.exit();
        let stats = r.stats();
        let outer = &stats["outer"];
        let inner = &stats["inner"];
        assert_eq!(outer.self_ns + inner.durations_ns[0], outer.durations_ns[0]);
        assert_eq!(inner.self_ns, inner.durations_ns[0]);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut r = Recorder::new(false);
        r.span("x", || ());
        assert!(r.stats().is_empty());
        assert!(r.to_jsonl().is_empty());
    }
}
