//! In-memory spans recorded around calls into the program's public
//! layer entry points, and the self-time accounting over them.
//!
//! A span's *self time* is its duration minus the part of its interval
//! that its direct child spans cover (overlapping children are counted
//! once) minus any `inner` time the called API itself reported for work
//! no child span saw — the stage timings `StreamClassifier`,
//! `PackWriter` and the daemon return. On a single-threaded trace the
//! self times, the reported inner times and the time no root span covers
//! add up to the traced wall time.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// One recorded span; times are offsets from the trace origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start: Duration,
    pub end: Duration,
    pub parent: Option<usize>,
    /// Which workload input the span worked on.
    pub input: usize,
    /// Work inside the span that the called API timed itself.
    pub inner: Duration,
}

/// Totals of one layer over a trace.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTotal {
    pub self_time: Duration,
    pub inner: Duration,
    pub spans: u64,
}

/// A span recorder. Spans opened while another is open become its
/// children.
pub struct Trace {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    input: usize,
}

impl Trace {
    pub fn new() -> Trace {
        Trace {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            input: 0,
        }
    }

    /// Tag the spans that follow with a workload input id.
    pub fn set_input(&mut self, input: usize) {
        self.input = input;
    }

    /// Open a span; close it with [`end`](Trace::end).
    pub fn begin(&mut self, name: &'static str) -> usize {
        let now = self.origin.elapsed();
        self.spans.push(Span {
            name,
            start: now,
            end: now,
            parent: self.open.last().copied(),
            input: self.input,
            inner: Duration::ZERO,
        });
        self.open.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    /// Close the innermost open span, which must be `id`.
    pub fn end(&mut self, id: usize) {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end = self.origin.elapsed();
    }

    /// Run `f` inside a leaf span.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }

    /// Credit `inner` time the API reported for span `id`.
    pub fn add_inner(&mut self, id: usize, inner: Duration) {
        self.spans[id].inner += inner;
    }

    /// Elapsed time since the trace started.
    pub fn elapsed(&self) -> Duration {
        self.origin.elapsed()
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-layer totals, keyed by span name.
    pub fn layer_totals(&self) -> BTreeMap<&'static str, LayerTotal> {
        let mut out: BTreeMap<&'static str, LayerTotal> = BTreeMap::new();
        for (span, (self_time, inner)) in self.spans.iter().zip(self_times(&self.spans)) {
            let total = out.entry(span.name).or_default();
            total.self_time += self_time;
            total.inner += inner;
            total.spans += 1;
        }
        out
    }

    /// Time between the origin and `wall` that no root span covers,
    /// minus `excluded` (untraced work the benchmark ran in between).
    pub fn unattributed(&self, wall: Duration, excluded: Duration) -> Duration {
        let roots: Vec<(Duration, Duration)> = self
            .spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| (s.start, s.end))
            .collect();
        wall.saturating_sub(union_len(&roots, Duration::ZERO, wall))
            .saturating_sub(excluded)
    }
}

/// Self time and credited inner time of every span: the span's duration
/// minus the union of its direct children's intervals (clipped to the
/// span) is split into API-reported inner time (capped at what is left)
/// and self time.
pub fn self_times(spans: &[Span]) -> Vec<(Duration, Duration)> {
    let mut children: Vec<Vec<(Duration, Duration)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(&children)
        .map(|(s, kids)| {
            let uncovered = (s.end - s.start).saturating_sub(union_len(kids, s.start, s.end));
            let inner = s.inner.min(uncovered);
            (uncovered - inner, inner)
        })
        .collect()
}

/// Length of the union of `intervals`, each clipped to `[lo, hi]`.
pub fn union_len(intervals: &[(Duration, Duration)], lo: Duration, hi: Duration) -> Duration {
    let mut clipped: Vec<(Duration, Duration)> = intervals
        .iter()
        .map(|&(a, b)| (a.max(lo), b.min(hi)))
        .filter(|(a, b)| a < b)
        .collect();
    clipped.sort();
    let mut total = Duration::ZERO;
    let mut current: Option<(Duration, Duration)> = None;
    for (a, b) in clipped {
        match current {
            Some((ca, cb)) if a <= cb => current = Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                current = Some((a, b));
            }
            None => current = Some((a, b)),
        }
    }
    if let Some((ca, cb)) = current {
        total += cb - ca;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start: ms(start),
            end: ms(end),
            parent,
            input: 0,
            inner: Duration::ZERO,
        }
    }

    #[test]
    fn union_merges_overlaps_and_clips() {
        let iv = [(ms(0), ms(10)), (ms(5), ms(15)), (ms(20), ms(30))];
        assert_eq!(union_len(&iv, ms(0), ms(100)), ms(25));
        assert_eq!(union_len(&iv, ms(8), ms(25)), ms(12));
        assert_eq!(union_len(&[], ms(0), ms(10)), ms(0));
        // Touching intervals merge without double counting.
        assert_eq!(
            union_len(&[(ms(0), ms(5)), (ms(5), ms(9))], ms(0), ms(9)),
            ms(9)
        );
    }

    #[test]
    fn self_time_subtracts_overlapping_children_once() {
        // Parent 0..100 with children 10..40 and 30..60 (overlap 30..40)
        // and a child running past the parent's end.
        let spans = vec![
            span("parent", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 30, 60, Some(0)),
            span("late", 90, 120, Some(0)),
        ];
        let selfs: Vec<Duration> = self_times(&spans).into_iter().map(|t| t.0).collect();
        assert_eq!(selfs, vec![ms(100 - 50 - 10), ms(30), ms(30), ms(30)]);
    }

    #[test]
    fn self_time_of_nested_spans_counts_each_level_once() {
        // root 0..100 ⊃ mid 10..90 ⊃ leaf 20..50: the leaf is subtracted
        // from mid only, mid from root only.
        let mut spans = vec![
            span("root", 0, 100, None),
            span("mid", 10, 90, Some(0)),
            span("leaf", 20, 50, Some(1)),
        ];
        spans[1].inner = ms(15);
        let times = self_times(&spans);
        assert_eq!(
            times,
            vec![(ms(20), ms(0)), (ms(80 - 30 - 15), ms(15)), (ms(30), ms(0))]
        );
        let total: Duration = times.iter().map(|(s, i)| *s + *i).sum();
        assert_eq!(total, ms(100));
        // Inner time beyond what children leave uncovered is capped.
        spans[1].inner = ms(70);
        assert_eq!(self_times(&spans)[1], (ms(0), ms(50)));
    }

    #[test]
    fn recorded_trace_adds_up_to_wall() {
        let mut trace = Trace::new();
        let outer = trace.begin("outer");
        trace.time("inner", || std::thread::sleep(ms(3)));
        trace.add_inner(outer, ms(1));
        std::thread::sleep(ms(2));
        trace.end(outer);
        std::thread::sleep(ms(2));
        trace.time("second", || std::thread::sleep(ms(1)));
        let wall = trace.elapsed();
        let totals = trace.layer_totals();
        assert_eq!(trace.spans()[1].parent, Some(outer));
        let attributed: Duration = totals.values().map(|t| t.self_time + t.inner).sum();
        assert_eq!(attributed + trace.unattributed(wall, Duration::ZERO), wall);
        assert!(trace.unattributed(wall, Duration::ZERO) >= ms(2));
    }
}
