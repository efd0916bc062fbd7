//! In-memory spans around the ladder's calls into each layer.
//!
//! A span has a name, a parent, a start, a duration and the number of
//! events it covered. A layer's self time is its span's duration minus
//! the part of that interval its child spans cover, so a container
//! span never double-counts the passes inside it.

use experiments::telemetry::Stopwatch;
use sim_core::hash::FxHashMap;

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub dur_ns: u64,
    pub events: u64,
}

/// Records nested spans against one clock.
#[derive(Debug)]
pub(crate) struct Recorder {
    clock: Stopwatch,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub(crate) fn new() -> Self {
        Recorder {
            clock: Stopwatch::start(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        (self.clock.elapsed_seconds() * 1e9) as u64
    }

    /// Runs `f` inside a span named `name` that covers `events` events;
    /// spans `f` opens become its children.
    pub(crate) fn span<R>(
        &mut self,
        name: &'static str,
        events: u64,
        f: impl FnOnce(&mut Self) -> R,
    ) -> R {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start_ns,
            dur_ns: 0,
            events,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].dur_ns = self.now_ns().saturating_sub(start_ns);
        out
    }

    pub(crate) fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of `spans[id]`: its duration minus the union of its
/// children's intervals, each clipped to the parent's.
pub(crate) fn self_ns(spans: &[Span], id: usize) -> u64 {
    let parent = &spans[id];
    let end = parent.start_ns + parent.dur_ns;
    let mut children: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == Some(id))
        .map(|s| {
            (
                s.start_ns.clamp(parent.start_ns, end),
                (s.start_ns + s.dur_ns).clamp(parent.start_ns, end),
            )
        })
        .collect();
    children.sort_unstable();
    let mut covered = 0;
    let mut reach = parent.start_ns;
    for (start, stop) in children {
        let start = start.max(reach);
        if stop > start {
            covered += stop - start;
            reach = stop;
        }
    }
    parent.dur_ns - covered
}

/// Σ self time and Σ events per span name.
pub(crate) fn totals(spans: &[Span]) -> FxHashMap<&'static str, (u64, u64)> {
    let mut out: FxHashMap<&'static str, (u64, u64)> = FxHashMap::default();
    for (id, span) in spans.iter().enumerate() {
        let entry = out.entry(span.name).or_default();
        entry.0 += self_ns(spans, id);
        entry.1 += span.events;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, dur_ns: u64) -> Span {
        Span {
            name,
            parent,
            start_ns,
            dur_ns,
            events: 10,
        }
    }

    #[test]
    fn leaf_self_time_is_its_duration() {
        let spans = [span("leaf", None, 5, 40)];
        assert_eq!(self_ns(&spans, 0), 40);
    }

    #[test]
    fn self_time_subtracts_the_part_children_cover() {
        let spans = [
            span("root", None, 0, 100),
            span("a", Some(0), 10, 20),
            span("b", Some(0), 50, 30),
            // A grandchild is covered by its own parent, not the root.
            span("c", Some(2), 55, 10),
        ];
        assert_eq!(self_ns(&spans, 0), 50);
        assert_eq!(self_ns(&spans, 2), 20);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = [
            span("root", None, 100, 100),
            span("a", Some(0), 90, 30),  // clipped to [100, 120)
            span("b", Some(0), 110, 20), // overlaps a: adds [120, 130)
            span("c", Some(0), 190, 50), // clipped to [190, 200)
        ];
        assert_eq!(self_ns(&spans, 0), 100 - 20 - 10 - 10);
    }

    #[test]
    fn totals_sum_self_time_and_events_by_name() {
        let spans = [
            span("root", None, 0, 100),
            span("pass", Some(0), 0, 30),
            span("pass", Some(0), 40, 30),
        ];
        let t = totals(&spans);
        assert_eq!(t["root"], (40, 10));
        assert_eq!(t["pass"], (60, 20));
    }

    #[test]
    fn recorder_nests_spans() {
        let mut rec = Recorder::new();
        let out = rec.span("outer", 0, |rec| rec.span("inner", 7, |_| 42));
        assert_eq!(out, 42);
        let spans = rec.spans();
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].events, 7);
        assert!(spans[0].dur_ns >= spans[1].dur_ns);
    }
}
