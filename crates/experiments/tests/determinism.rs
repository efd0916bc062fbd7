//! The repo's byte-identity guarantee, end to end: rendered figure
//! reports are bit-for-bit identical whether the scheduler runs inline
//! or on worker threads (the CPU-model drivers parallelize over
//! workloads, the accuracy drivers over workloads too).
//!
//! Each schedule is its own [`RunConfig`]. The event formulas are
//! cross-checked against the spans in `trace_determinism.rs`.

use experiments::cli::Target;
use experiments::RunConfig;

#[test]
fn repro_is_deterministic_across_schedules() {
    const EVENTS: usize = 3_000;

    // Serial reference run.
    let serial_cfg = RunConfig::new(1);
    let serial: Vec<String> = Target::ALL
        .iter()
        .map(|t| t.run(&serial_cfg, EVENTS))
        .collect();

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
