//! The repo's byte-identity guarantees, end to end:
//!
//! * **serial vs parallel** — rendered figure reports are bit-for-bit
//!   identical whether the scheduler runs inline or on worker threads
//!   (the CPU-model drivers parallelize over workloads, the accuracy
//!   drivers over workloads too);
//! * **telemetry accounting** — every target's `simulated_events`
//!   formula matches the live counter its driver feeds.
//!
//! Each schedule is its own [`RunConfig`]. The telemetry counter is
//! process-wide, so the formula cross-check shares this one test with
//! nothing else in the binary.

use experiments::cli::Target;
use experiments::RunConfig;

#[test]
fn repro_is_deterministic_across_schedules() {
    const EVENTS: usize = 3_000;

    // Serial reference run, with the telemetry formulas cross-checked
    // against the live counter while nothing else is running.
    let serial_cfg = RunConfig::new(1);
    let mut serial = Vec::new();
    for target in Target::ALL {
        let before = experiments::telemetry::events_simulated();
        serial.push(target.run(&serial_cfg, EVENTS));
        let counted = experiments::telemetry::events_simulated() - before;
        assert_eq!(
            counted,
            target.simulated_events(EVENTS),
            "{} event formula must match the live counter",
            target.name()
        );
    }

    // Parallel runs render byte-identical reports.
    let parallel_cfg = RunConfig::new(4);
    let parallel: Vec<String> = Target::ALL
        .iter()
        .map(|t| t.run(&parallel_cfg, EVENTS))
        .collect();
    for ((target, serial), parallel) in Target::ALL.iter().zip(&serial).zip(&parallel) {
        assert_eq!(
            serial,
            parallel,
            "{} must be bit-for-bit identical serial vs parallel",
            target.name()
        );
    }
}
