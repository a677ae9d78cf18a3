//! In-memory spans around the calls the harness makes into each layer.
//!
//! Spans are recorded from the benchmark's own files only; nothing inside
//! the program under test is instrumented. A span's *self time* is its
//! duration minus the part of that interval its direct children cover, so
//! self times along one op sum to the op's wall time.

use crate::json::Value;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded interval. Times are nanoseconds since the tracer started.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// The op (request) this span belongs to; spans of one op share it.
    pub op: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans in memory; `to_json` writes them out at the end.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }

    /// Starts a new op: spans opened from now on carry the next op id.
    pub fn next_op(&mut self) {
        self.op += 1;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Nanoseconds since the tracer started at `t` (0 for earlier instants).
    pub fn ns_at(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name`, child of the innermost open
    /// span. Returns `f`'s result and the span's wall time in seconds, so
    /// callers time each stage once.
    pub fn span<R>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> R) -> (R, f64) {
        let start = Instant::now();
        let id = self.spans.len();
        let start_ns = self.ns_at(start);
        self.spans.push(Span {
            name: name.to_string(),
            parent: self.stack.last().copied(),
            start_ns,
            end_ns: start_ns,
            op: self.op,
        });
        self.stack.push(id);
        let result = f(self);
        let secs = start.elapsed().as_secs_f64();
        self.spans[id].end_ns = self.now_ns();
        self.stack.pop();
        (result, secs)
    }

    /// Adds already-measured child intervals (e.g. the operator applies a
    /// timing wrapper collected) under the span `parent`.
    pub fn adopt(&mut self, parent: Option<usize>, name: &str, intervals: &[(Instant, Instant)]) {
        for &(a, b) in intervals {
            self.spans.push(Span {
                name: name.to_string(),
                parent,
                start_ns: self.ns_at(a),
                end_ns: self.ns_at(b),
                op: self.op,
            });
        }
    }

    /// Index of the innermost open span.
    pub fn current(&self) -> Option<usize> {
        self.stack.last().copied()
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The trace as a JSON document: every span plus self time by name.
    pub fn to_json(&self, workload: &str, seed: u64) -> Value {
        let spans = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                Value::obj()
                    .with("id", id)
                    .with("name", s.name.as_str())
                    .with("parent", s.parent.map_or(Value::Null, Value::from))
                    .with("start_ns", s.start_ns)
                    .with("end_ns", s.end_ns)
                    .with("op", s.op)
            })
            .collect::<Vec<_>>();
        let mut by_name = Value::obj();
        for (name, ns) in self_time_by_name(&self.spans) {
            by_name.set(&name, ns);
        }
        Value::obj()
            .with("workload", workload)
            .with("seed", seed)
            .with("span_count", self.spans.len())
            .with("self_time_ns_by_name", by_name)
            .with("spans", spans)
    }
}

/// Self time of every span: duration minus the union of its direct
/// children's intervals clipped to the span (a child is subtracted once
/// even if children overlap; grandchildren are the children's business).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let lo = s.start_ns.max(spans[p].start_ns);
            let hi = s.end_ns.min(spans[p].end_ns);
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for (lo, hi) in kids {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.duration_ns().saturating_sub(covered)
        })
        .collect()
}

/// Self time summed over spans of the same name.
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<String, u64> {
    let mut out = BTreeMap::new();
    for (s, ns) in spans.iter().zip(self_times_ns(spans)) {
        *out.entry(s.name.clone()).or_insert(0) += ns;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: name.to_string(),
            parent,
            start_ns,
            end_ns,
            op: 1,
        }
    }

    #[test]
    fn adjacent_children_are_each_subtracted_once() {
        let spans = [
            span("op", None, 0, 100),
            span("fit", Some(0), 0, 60),
            span("sweep", Some(0), 60, 90),
        ];
        assert_eq!(self_times_ns(&spans), [10, 60, 30]);
        let total: u64 = self_times_ns(&spans).iter().sum();
        assert_eq!(total, 100, "self times sum to the op's wall time");
    }

    #[test]
    fn nested_spans_subtract_only_direct_children() {
        let spans = [
            span("op", None, 0, 100),
            span("probe", Some(0), 10, 90),
            span("apply", Some(1), 20, 30),
            span("apply", Some(1), 40, 70),
        ];
        // The grandchildren shorten `probe`, not `op`.
        assert_eq!(self_times_ns(&spans), [20, 40, 10, 30]);
        let by_name = self_time_by_name(&spans);
        assert_eq!(by_name["apply"], 40);
        assert_eq!(by_name.values().sum::<u64>(), 100);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_the_covered_part_once() {
        let spans = [
            span("op", None, 100, 200),
            span("a", Some(0), 110, 150),
            span("b", Some(0), 140, 160), // overlaps `a` by 10
            span("c", Some(0), 190, 250), // hangs 50 past the parent
        ];
        // Covered: [110,160) and [190,200) = 60.
        assert_eq!(self_times_ns(&spans)[0], 40);
    }

    #[test]
    fn tracer_nests_spans_and_reports_their_wall_time() {
        let mut t = Tracer::new();
        t.next_op();
        let (inner, secs) = t.span("outer", |t| {
            let a = Instant::now();
            let b = Instant::now();
            t.adopt(t.current(), "apply", &[(a, b)]);
            t.span("inner", |_| 7).0
        });
        assert_eq!(inner, 7);
        assert!(secs >= 0.0);
        let names: Vec<&str> = t.spans().iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["outer", "apply", "inner"]);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[2].parent, Some(0));
        assert!(t.spans().iter().all(|s| s.op == 1));
        assert!(t.spans()[0].end_ns >= t.spans()[2].end_ns);
        let doc = t.to_json("w", 3);
        assert_eq!(doc.get("span_count").and_then(Value::as_f64), Some(3.0));
    }
}
