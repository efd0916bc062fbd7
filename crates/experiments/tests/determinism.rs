//! The repo's byte-identity guarantees, end to end:
//!
//! * **streamed vs arena** — replaying a memoized [`experiments::trace_for`]
//!   slice yields exactly the events the workload's streaming source
//!   generates;
//! * **arena memoization** — a repeated `(workload, seed, events)` key
//!   returns the *same allocation* (pointer-equal `Arc`), not a copy;
//! * **serial vs parallel** — rendered figure reports are bit-for-bit
//!   identical whether the scheduler runs inline or on worker threads;
//! * **telemetry accounting** — the per-figure `simulated_events`
//!   formulas match the live counter the drivers feed.
//!
//! Everything lives in ONE `#[test]` because the worker-thread cap
//! ([`sim_core::parallel::set_max_threads`]) is process-global state:
//! splitting these into separate tests would let the harness run them
//! concurrently and race on it.

use std::sync::Arc;

use experiments::cli::Target;
use experiments::Replay;
use trace_gen::{TraceEvent, TraceSource};

#[test]
fn repro_is_deterministic_across_schedules_and_replay() {
    const EVENTS: usize = 3_000;

    // Streamed generation and arena replay are the same event stream.
    for w in workloads::full_suite() {
        let mut src = w.source(experiments::SEED);
        let streamed: Vec<TraceEvent> = (0..EVENTS).map(|_| src.next_event()).collect();
        let arena = experiments::trace_for(&w, EVENTS);
        assert_eq!(
            streamed.as_slice(),
            &arena[..],
            "{}: arena replay must match streaming",
            w.name()
        );
    }

    // The arena memoizes: same key, same allocation.
    let suite = workloads::full_suite();
    let first = experiments::trace_for(&suite[0], EVENTS);
    let again = experiments::trace_for(&suite[0], EVENTS);
    assert!(
        Arc::ptr_eq(&first, &again),
        "repeated key must return the cached Arc, not a new copy"
    );
    let other_len = experiments::trace_for(&suite[0], EVENTS / 2);
    assert!(
        !Arc::ptr_eq(&first, &other_len),
        "a different event count is a different trace"
    );

    // Serial reference run, with the telemetry formulas cross-checked
    // against the live counter while nothing else is running.
    sim_core::parallel::set_max_threads(1);
    let before = experiments::telemetry::events_simulated();
    let fig1_serial = Target::Fig1.run(EVENTS, Replay::Arena);
    let fig1_counted = experiments::telemetry::events_simulated() - before;
    assert_eq!(
        fig1_counted,
        Target::Fig1.simulated_events(EVENTS),
        "fig1 event formula must match the live counter"
    );
    let before = experiments::telemetry::events_simulated();
    let fig3_serial = Target::Fig3.run(EVENTS, Replay::Arena);
    let fig3_counted = experiments::telemetry::events_simulated() - before;
    assert_eq!(
        fig3_counted,
        Target::Fig3.simulated_events(EVENTS),
        "fig3 event formula must match the live counter"
    );

    // Parallel runs render byte-identical reports.
    sim_core::parallel::set_max_threads(4);
    let fig1_parallel = Target::Fig1.run(EVENTS, Replay::Arena);
    let fig3_parallel = Target::Fig3.run(EVENTS, Replay::Arena);
    sim_core::parallel::set_max_threads(0);
    assert_eq!(
        fig1_serial, fig1_parallel,
        "fig1 must be bit-for-bit identical serial vs parallel"
    );
    assert_eq!(
        fig3_serial, fig3_parallel,
        "fig3 must be bit-for-bit identical serial vs parallel"
    );
}
