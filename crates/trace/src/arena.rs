//! The counters of the `arena` object in `bench-repro/2` reports and
//! `trace-repro/1` metrics records.
//!
//! No trace is materialized for reuse: every experiment driver streams
//! its traces, so these counters always read zero. The struct stays
//! because both wire schemas still carry the object and the benchmark
//! harness under `perf/` parses and names it.

/// Trace-materialization counters, all zero in every current run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ArenaStats {
    /// Requests served by replaying an existing trace.
    pub hits: u64,
    /// Requests that materialized a new trace.
    pub misses: u64,
    /// Distinct traces resident.
    pub traces: usize,
    /// Total events resident across all traces.
    pub resident_events: u64,
}
