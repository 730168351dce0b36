//! An in-memory span recorder for the traced run.
//!
//! Spans are recorded around the harness's own calls into each crate's
//! public functions; nothing inside the program is instrumented. Every
//! span keeps its name, parent, start, end and an event count, and is
//! only summarised after the run ends.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the recorder started.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Work done inside the span (events generated, validated, replayed).
    pub events: u64,
}

/// Per-name totals over a finished recording.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Layer {
    pub self_ms: f64,
    pub events: u64,
    pub calls: u64,
}

pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open span.
    pub fn enter(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
            events: 0,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open span.
    pub fn exit(&mut self, id: usize, events: u64) {
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans must close innermost-first");
        let end_ns = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = end_ns;
        span.events = events;
    }

    /// Runs `f` inside a span named `name`; `events` reads the work count
    /// off the result.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        f: impl FnOnce() -> T,
        events: impl FnOnce(&T) -> u64,
    ) -> T {
        let id = self.enter(name);
        let out = f();
        let n = events(&out);
        self.exit(id, n);
        out
    }

    /// Records a span that was timed elsewhere (for example from the
    /// client's side of a socket), as a child of the innermost open span.
    pub fn push(&mut self, name: &'static str, start: Instant, end: Instant, events: u64) {
        let at = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start_ns: at(start),
            end_ns: at(end),
            events,
        });
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span in nanoseconds: its duration minus the part of
/// that interval its children cover (overlapping children count once).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start_ns;
            for &(a, b) in kids.iter() {
                let a = a.max(cursor).max(s.start_ns);
                let b = b.min(s.end_ns);
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Sums self time, events and call counts per span name.
pub fn layers(spans: &[Span]) -> BTreeMap<&'static str, Layer> {
    let mut out: BTreeMap<&'static str, Layer> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(self_times_ns(spans)) {
        let l = out.entry(s.name).or_default();
        l.self_ms += self_ns as f64 / 1e6;
        l.events += s.events;
        l.calls += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            parent,
            start_ns,
            end_ns,
            events: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = vec![
            span("run", None, 0, 100),
            span("a", Some(0), 10, 30),
            span("b", Some(0), 25, 50),  // overlaps `a` by 5
            span("c", Some(2), 30, 40),  // grandchild: not subtracted from `run`
            span("d", Some(0), 90, 120), // runs past its parent's end
        ];
        assert_eq!(self_times_ns(&spans), vec![100 - 40 - 10, 20, 15, 10, 30]);
    }

    #[test]
    fn layers_sum_per_name() {
        let mut spans = vec![
            span("run", None, 0, 50),
            span("sim", Some(0), 0, 10),
            span("sim", Some(0), 20, 25),
        ];
        spans[1].events = 7;
        spans[2].events = 3;
        let l = layers(&spans);
        assert_eq!(l["sim"].calls, 2);
        assert_eq!(l["sim"].events, 10);
        assert!((l["sim"].self_ms - 15e-6).abs() < 1e-12);
        assert!((l["run"].self_ms - 35e-6).abs() < 1e-12);
    }

    #[test]
    fn recorder_nests_spans() {
        let mut rec = Recorder::new();
        let root = rec.enter("run");
        let n = rec.time("gen", || 42u64, |&n| n);
        rec.exit(root, 0);
        assert_eq!(n, 42);
        let s = rec.spans();
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[1].events, 42);
        assert!(s[0].end_ns >= s[1].end_ns);
    }
}
