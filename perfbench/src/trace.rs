//! Spans around the calls into each layer, kept in memory and written
//! out when the workload ends.
//!
//! The benchmark records spans from its own files only: a span is the
//! interval of one public call (`parser::parse`, `Machine::run_entry`,
//! one request on the wire, ...). A layer's *self time* is its span
//! minus the part its child spans cover, so a `passes.total` span with
//! one child per pass reads as the pipeline's own bookkeeping, not as
//! the sum of the passes again.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded call. Times are nanoseconds since the trace began.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Spans of one operation (a program run, a compile, a request)
    /// share this identifier.
    pub op: u64,
}

/// An in-memory span recorder. `None` spans cost nothing: every
/// recording call is a no-op on a disabled trace, which is how the
/// untraced run shares the workload code.
#[derive(Debug)]
pub struct Trace {
    t0: Instant,
    enabled: bool,
    spans: Vec<Span>,
    /// Open spans, innermost last, each with the time up to which its
    /// [`Trace::record`]ed children reach. A new span's parent is the top.
    stack: Vec<(usize, u64)>,
    op: u64,
}

impl Trace {
    pub fn new(enabled: bool) -> Self {
        Trace {
            t0: Instant::now(),
            enabled,
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Starts a new operation: spans recorded from now on carry its id.
    pub fn next_op(&mut self) {
        self.op += 1;
    }

    /// Times `f` under a span named `name`, nested in whatever span is
    /// open. Returns `f`'s result.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Trace) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: 0,
            parent: self.stack.last().map(|s| s.0),
            op: self.op,
        });
        self.stack.push((idx, start_ns));
        let out = f(self);
        self.stack.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Records a span whose duration was measured by the callee (a pass
    /// timing out of `StageTrace`) as a child of the open span. Such
    /// children are laid end to end from the parent's start, in the
    /// order recorded, which is the order they ran in.
    pub fn record(&mut self, name: &'static str, duration_ns: u64) {
        if !self.enabled {
            return;
        }
        let now = self.now_ns();
        let (parent, start_ns) = match self.stack.last_mut() {
            Some((idx, cursor)) => {
                let start = *cursor;
                *cursor += duration_ns;
                (Some(*idx), start)
            }
            None => (None, now.saturating_sub(duration_ns)),
        };
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns + duration_ns,
            parent,
            op: self.op,
        });
    }

    /// Records a span from explicit instants (the load generator's
    /// requests overlap, so they cannot use the open-span stack).
    pub fn record_at(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        op: u64,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let ns = |t: Instant| t.saturating_duration_since(self.t0).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: ns(start),
            end_ns: ns(end),
            parent,
            op,
        });
        Some(self.spans.len() - 1)
    }

    /// Writes the spans as one JSON document.
    pub fn render_json(&self, workload: &str) -> String {
        let mut out = String::with_capacity(64 + self.spans.len() * 96);
        let _ = write!(
            out,
            "{{\"workload\":\"{workload}\",\"unit\":\"ns\",\"spans\":["
        );
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n{{\"id\":{i},\"name\":\"{}\",\"start\":{},\"end\":{},\"parent\":",
                s.name, s.start_ns, s.end_ns
            );
            match s.parent {
                Some(p) => {
                    let _ = write!(out, "{p}");
                }
                None => out.push_str("null"),
            }
            let _ = write!(out, ",\"op\":{}}}", s.op);
        }
        out.push_str("\n]}\n");
        out
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (overlapping children are counted
/// once, children are clipped to the parent).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (lo, hi) = (spans[p].start_ns, spans[p].end_ns);
            let (a, b) = (s.start_ns.clamp(lo, hi), s.end_ns.clamp(lo, hi));
            if b > a {
                children[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Per-operation self time of each name: the self times of all spans of
/// one operation with one name are summed (a compile sweep has 49
/// `lang.parse` spans; the layer's cost per sweep is their sum).
pub fn self_times_per_op(spans: &[Span]) -> BTreeMap<&'static str, Vec<f64>> {
    let mut sums: BTreeMap<(&'static str, u64), f64> = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        *sums.entry((s.name, s.op)).or_default() += t as f64;
    }
    let mut by: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for ((name, _), v) in sums {
        by.entry(name).or_default().push(v);
    }
    by
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            op: 1,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            // Overlaps `a` on [30, 40): covered once, not twice.
            span("b", 30, 60, Some(0)),
            // A grandchild shortens `a`, not `root`.
            span("a.inner", 10, 20, Some(1)),
            // Clipped to the parent's interval.
            span("late", 90, 130, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![100 - 50 - 10, 20, 30, 10, 40]);
    }

    #[test]
    fn nested_spans_record_their_parent() {
        let mut t = Trace::new(true);
        t.next_op();
        t.span("outer", |t| {
            t.span("inner", |_| ());
            t.record("measured", 5);
            t.record("measured", 7);
        });
        let s = t.spans();
        assert_eq!(s.len(), 4);
        assert_eq!((s[0].name, s[0].parent), ("outer", None));
        assert_eq!((s[1].name, s[1].parent), ("inner", Some(0)));
        assert_eq!((s[2].name, s[2].parent), ("measured", Some(0)));
        // Callee-measured children sit end to end from the parent's start.
        assert_eq!(
            (s[2].start_ns, s[2].end_ns),
            (s[0].start_ns, s[0].start_ns + 5)
        );
        assert_eq!((s[3].start_ns, s[3].end_ns), (s[2].end_ns, s[2].end_ns + 7));
        assert!(s.iter().all(|s| s.op == 1 && s.end_ns >= s.start_ns));
        assert!(s[0].end_ns >= s[1].end_ns);
    }

    #[test]
    fn disabled_trace_records_nothing() {
        let mut t = Trace::new(false);
        assert_eq!(t.span("x", |_| 7), 7);
        t.record("y", 1);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn per_op_sums_spans_of_one_name() {
        let mut spans = vec![span("p", 0, 10, None), span("p", 20, 25, None)];
        spans.push(Span {
            op: 2,
            ..span("p", 30, 31, None)
        });
        assert_eq!(self_times_per_op(&spans)["p"], vec![15.0, 1.0]);
    }
}
