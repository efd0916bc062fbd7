//! Memory reference traces.
//!
//! The paper drives its simulator with SPEC95 reference streams; this
//! workspace substitutes deterministic synthetic streams built from
//! the composable generators in [`pattern`]. A trace is an iterator of
//! [`TraceEvent`]s: a memory access plus the number of non-memory
//! instructions the processor executes before it (so the timing model
//! can charge pipeline work between accesses).
//!
//! Consumers stream events straight from a generator; a consumer that
//! evaluates many policies over one trace feeds them all from the same
//! pass rather than keeping the trace resident. Nothing is recorded to
//! a file: a workload and a seed name a trace, and regenerating it is
//! the only replay. [`decomposed`] splits
//! a materialized trace into the `(set, tag)` pairs of one indexing
//! scheme, and [`arena`] keeps the (always zero) materialization
//! counters the report schemas still carry.
//!
//! # Examples
//!
//! Build a stream that sweeps a 64 KB array, and look at its first
//! access:
//!
//! ```
//! use trace_gen::pattern::SequentialSweep;
//! use trace_gen::TraceSource;
//! use sim_core::Addr;
//!
//! let mut sweep = SequentialSweep::new(Addr::new(0x10000), 64 * 1024, 8).with_work(3);
//! let first = sweep.next_event();
//! assert_eq!(first.access.addr, Addr::new(0x10000));
//! assert_eq!(first.work, 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arena;
pub mod decomposed;
mod event;
pub mod pattern;

pub use event::{AccessKind, MemoryAccess, TraceEvent};

/// An unbounded source of trace events.
///
/// All generators in [`pattern`] implement this; finite traces are
/// made with [`TraceSource::take_events`].
pub trait TraceSource {
    /// Produces the next event. Sources are infinite: this never
    /// exhausts.
    fn next_event(&mut self) -> TraceEvent;

    /// Adapts the source into an iterator of `n` events.
    fn take_events(self, n: usize) -> TakeEvents<Self>
    where
        Self: Sized,
    {
        TakeEvents {
            source: self,
            remaining: n,
        }
    }
}

/// Iterator over the first `n` events of a [`TraceSource`], created by
/// [`TraceSource::take_events`].
#[derive(Debug, Clone)]
pub struct TakeEvents<S> {
    source: S,
    remaining: usize,
}

impl<S: TraceSource> Iterator for TakeEvents<S> {
    type Item = TraceEvent;

    fn next(&mut self) -> Option<TraceEvent> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        Some(self.source.next_event())
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl<S: TraceSource> ExactSizeIterator for TakeEvents<S> {}

/// Boxed trace sources are themselves trace sources, so generators can
/// be composed heterogeneously (e.g. in [`pattern::Interleave`]).
impl TraceSource for Box<dyn TraceSource> {
    fn next_event(&mut self) -> TraceEvent {
        (**self).next_event()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::SequentialSweep;
    use sim_core::Addr;

    #[test]
    fn take_events_yields_exactly_n() {
        let sweep = SequentialSweep::new(Addr::new(0), 1024, 8);
        let events: Vec<_> = sweep.take_events(10).collect();
        assert_eq!(events.len(), 10);
    }

    #[test]
    fn take_events_reports_size_hint() {
        let sweep = SequentialSweep::new(Addr::new(0), 1024, 8);
        let it = sweep.take_events(5);
        assert_eq!(it.len(), 5);
    }

    #[test]
    fn boxed_source_still_generates() {
        let mut boxed: Box<dyn TraceSource> =
            Box::new(SequentialSweep::new(Addr::new(0x100), 512, 4));
        assert_eq!(boxed.next_event().access.addr, Addr::new(0x100));
    }
}
