//! In-memory spans recorded around the benchmark's own calls into each
//! layer, and the self-time arithmetic over them.
//!
//! A span has a name, a start and end (ns since the tracer's epoch), the
//! span that caused it, and the id of the request it belongs to. Spans are
//! only appended while a traced run measures; they are written out once,
//! when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Index of a span in its [`Tracer`].
pub type SpanId = usize;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    pub request: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span now; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>, request: u64) -> SpanId {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request,
        });
        self.spans.len() - 1
    }

    /// Closes an open span now and returns its duration in ns.
    pub fn close(&mut self, id: SpanId) -> u64 {
        let end = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = end;
        span.duration_ns()
    }

    /// Runs `f` inside a span.
    pub fn record<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent, request);
        let out = f();
        self.close(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (µs) of every span with this name, in recording order.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e3)
            .collect()
    }

    /// Per span name: (count, total ns, self ns), sorted by name.
    pub fn summary(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let selfs = self_times(&self.spans);
        let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for (span, self_ns) in self.spans.iter().zip(selfs) {
            let e = out.entry(span.name).or_default();
            e.0 += 1;
            e.1 += span.duration_ns();
            e.2 += self_ns;
        }
        out
    }

    /// Tab-separated spans: `id name start_ns end_ns parent request`
    /// (`-` for a root), one per line after a header.
    pub fn to_tsv(&self) -> String {
        let mut out = String::from("id\tname\tstart_ns\tend_ns\tparent\trequest\n");
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{id}\t{}\t{}\t{}\t{parent}\t{}",
                s.name, s.start_ns, s.end_ns, s.request
            );
        }
        out
    }
}

/// Self time of every span: its duration minus the part of its interval
/// covered by its direct children. Children may overlap one another (two
/// calls in flight at once) and may stick out of the parent; only the
/// union of the covered part inside the parent is subtracted.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
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
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(start, end) in kids.iter() {
                let (lo, hi) = (start.max(reach), end.min(s.end_ns));
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<SpanId>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            request: 7,
        }
    }

    #[test]
    fn self_time_of_nested_children() {
        // root [0,100) ⊃ a [10,40) ⊃ b [15,25); root ⊃ c [50,60).
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 15, 25, Some(1)),
            span("c", 50, 60, Some(0)),
        ];
        // Only direct children count: b is inside a, so root loses a + c.
        assert_eq!(self_times(&spans), vec![60, 20, 10, 10]);
    }

    #[test]
    fn self_time_with_overlapping_children() {
        // Two children in flight at once: [10,50) and [30,70) cover [10,70).
        // A third [65,80) overlaps the second and extends to 80.
        let spans = vec![
            span("root", 0, 100, None),
            span("x", 10, 50, Some(0)),
            span("y", 30, 70, Some(0)),
            span("z", 65, 80, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 100 - 70);
    }

    #[test]
    fn self_time_clips_children_to_the_parent() {
        // A child reply observed after its parent closed covers only the
        // part inside the parent; a child contained in an earlier one adds
        // nothing.
        let spans = vec![
            span("root", 100, 200, None),
            span("early", 50, 120, Some(0)),
            span("late", 180, 260, Some(0)),
            span("inner", 105, 110, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 100 - 20 - 20);
        assert_eq!(self_times(&[span("leaf", 5, 9, None)]), vec![4]);
    }

    #[test]
    fn recorder_links_parents_and_summarizes() {
        let mut t = Tracer::new();
        let root = t.open("op", None, 1);
        let v = t.record("child", Some(root), 1, || 41 + 1);
        t.close(root);
        assert_eq!(v, 42);
        assert_eq!(t.spans()[1].parent, Some(root));
        let sum = t.summary();
        assert_eq!(sum["op"].0, 1);
        assert_eq!(sum["op"].1, sum["op"].2 + t.spans()[1].duration_ns());
        assert_eq!(t.to_tsv().lines().count(), 3);
        assert!(t.to_tsv().contains("\tchild\t"));
    }
}
