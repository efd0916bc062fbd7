//! The accuracy and MRC drivers read each workload's trace once, so
//! they always stream it and never materialize a trace in the
//! process-wide [`TraceArena`]. Its own test binary, so no other
//! test's arena traffic is counted.

use experiments::{ablation, fig1, fig2, mrc, Replay};
use trace_gen::arena::{ArenaStats, TraceArena};

#[test]
fn accuracy_drivers_never_touch_the_trace_arena() {
    const EVENTS: usize = 2_000;
    let _ = fig1::run(EVENTS);
    let _ = fig2::run(EVENTS);
    let _ = mrc::run(EVENTS, None);
    // The depth sweep always streams; the window and buffer sweeps
    // stream too under `Replay::Stream`.
    let _ = ablation::run(EVENTS, Replay::Stream);
    assert_eq!(
        TraceArena::global().stats(),
        ArenaStats::default(),
        "no materializations, no hits, nothing resident"
    );
}
