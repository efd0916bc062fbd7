//! The repo's byte-identity guarantees, end to end:
//!
//! * **serial vs parallel** — rendered figure reports are bit-for-bit
//!   identical whether the scheduler runs inline or on worker threads
//!   (the CPU-model drivers parallelize over workloads, the accuracy
//!   drivers over workloads too);
//! * **telemetry accounting** — every target's `simulated_events`
//!   formula matches the live counter its driver feeds.
//!
//! Everything lives in ONE `#[test]` because the worker-thread cap
//! ([`sim_core::parallel::set_max_threads`]) is process-global state:
//! splitting these into separate tests would let the harness run them
//! concurrently and race on it.

use experiments::cli::Target;

#[test]
fn repro_is_deterministic_across_schedules() {
    const EVENTS: usize = 3_000;

    // Serial reference run, with the telemetry formulas cross-checked
    // against the live counter while nothing else is running.
    sim_core::parallel::set_max_threads(1);
    let mut serial = Vec::new();
    for target in Target::ALL {
        let before = experiments::telemetry::events_simulated();
        serial.push(target.run(EVENTS));
        let counted = experiments::telemetry::events_simulated() - before;
        assert_eq!(
            counted,
            target.simulated_events(EVENTS),
            "{} event formula must match the live counter",
            target.name()
        );
    }

    // Parallel runs render byte-identical reports.
    sim_core::parallel::set_max_threads(4);
    let parallel: Vec<String> = Target::ALL.iter().map(|t| t.run(EVENTS)).collect();
    sim_core::parallel::set_max_threads(0);
    for ((target, serial), parallel) in Target::ALL.iter().zip(&serial).zip(&parallel) {
        assert_eq!(
            serial,
            parallel,
            "{} must be bit-for-bit identical serial vs parallel",
            target.name()
        );
    }
}
