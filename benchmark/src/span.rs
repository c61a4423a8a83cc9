//! Spans recorded from outside the program, around calls into its layers.
//!
//! A span is `(name, start, end, parent, op)`: spans of one op share its id
//! and point at the span that caused them. They are kept in memory and
//! written out when the run ends. With the tracer off, [`Tracer::span`] is
//! the bare call, so the untraced run pays nothing for it.

use crate::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

pub type SpanId = usize;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    pub op: u64,
}

pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer whose clock starts at `t0` (threads of one run share it).
    pub fn new(on: bool, t0: Instant) -> Tracer {
        Tracer { on, t0, spans: Vec::new() }
    }

    pub fn off() -> Tracer {
        Tracer::new(false, Instant::now())
    }

    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Open a span; `None` when tracing is off.
    pub fn begin(&mut self, name: &'static str, parent: Option<SpanId>, op: u64) -> Option<SpanId> {
        if !self.on {
            return None;
        }
        let start_ns = self.now();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, op });
        Some(self.spans.len() - 1)
    }

    pub fn end(&mut self, id: Option<SpanId>) {
        if let Some(id) = id {
            self.spans[id].end_ns = self.now();
        }
    }

    /// A tracer for another thread of the same run: same switch, same clock.
    pub fn fork(&self) -> Tracer {
        Tracer::new(self.on, self.t0)
    }

    /// Record a span whose ends were timed elsewhere (another thread's
    /// `Instant`s travel over a channel; the span is written here).
    pub fn record(
        &mut self,
        name: &'static str,
        (start, end): (Instant, Instant),
        parent: Option<SpanId>,
        op: u64,
    ) -> Option<SpanId> {
        if !self.on {
            return None;
        }
        let ns = |t: Instant| t.saturating_duration_since(self.t0).as_nanos() as u64;
        self.spans.push(Span { name, start_ns: ns(start), end_ns: ns(end), parent, op });
        Some(self.spans.len() - 1)
    }

    /// Run `f` inside a span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        op: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, parent, op);
        let out = f();
        self.end(id);
        out
    }

    /// Take over another thread's spans, keeping their parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let shift = self.spans.len();
        self.spans.extend(
            other.spans.into_iter().map(|s| Span { parent: s.parent.map(|p| p + shift), ..s }),
        );
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered(lo: u64, hi: u64, mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let (mut total, mut reach) = (0, lo);
    for (s, e) in intervals {
        let (s, e) = (s.max(reach), e.min(hi));
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

/// A span's self time: its duration minus the part of its interval that its
/// child spans cover (children may overlap each other; each instant counts
/// once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, kids)| (s.end_ns - s.start_ns) - covered(s.start_ns, s.end_ns, kids))
        .collect()
}

/// Per span name: `(count, total ns, self ns)`, the time-by-layer table.
pub fn by_name(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.end_ns - s.start_ns;
        e.2 += own;
    }
    out
}

pub fn to_json(spans: &[Span]) -> Json {
    Json::Arr(
        spans
            .iter()
            .map(|s| {
                Json::obj([
                    ("name", Json::Str(s.name.to_owned())),
                    ("start_ns", Json::Num(s.start_ns as f64)),
                    ("end_ns", Json::Num(s.end_ns as f64)),
                    ("parent", s.parent.map_or(Json::Null, |p| Json::Num(p as f64))),
                    ("op", Json::Num(s.op as f64)),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<SpanId>) -> Span {
        Span { name: "s", start_ns, end_ns, parent, op: 0 }
    }

    #[test]
    fn self_time_is_span_minus_covered_child_time() {
        let spans = vec![
            span(0, 100, None),     // root
            span(10, 30, Some(0)),  // child
            span(20, 50, Some(0)),  // overlaps the first child: union is [10, 50]
            span(70, 120, Some(0)), // runs past the parent: clipped to [70, 100]
            span(25, 28, Some(2)),  // grandchild: not charged to the root
        ];
        assert_eq!(self_times(&spans), vec![100 - 40 - 30, 20, 30 - 3, 50, 3]);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::off();
        assert_eq!(t.span("x", None, 0, || 7), 7);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn absorb_keeps_parent_links() {
        let t0 = Instant::now();
        let mut a = Tracer::new(true, t0);
        a.span("a", None, 1, || ());
        let mut b = Tracer::new(true, t0);
        let root = b.begin("b", None, 2);
        b.span("b.child", root, 2, || ());
        b.end(root);
        a.absorb(b);
        assert_eq!(a.spans()[2].parent, Some(1));
        assert_eq!(by_name(a.spans())["b.child"].0, 1);
    }
}
