//! Span-layer guarantees, end to end:
//!
//! * every figure target produces valid, verifiable `trace-repro/1`
//!   JSONL under an armed span layer;
//! * under the logical clock the rendered trace is **byte-identical**
//!   across `--threads 1` and `--threads 4` (scopes are collected per
//!   logical cell and drained in a sorted order, and the logical
//!   render zeroes every machine-dependent field);
//! * the stdout figure tables are unchanged by an armed span layer,
//!   and a disarmed layer collects nothing.
//!
//! Each run builds its own [`RunConfig`], so nothing is reset between
//! them.

use experiments::cli::Target;
use experiments::tracing::{self, TraceHeader};
use experiments::RunConfig;

fn run_all(threads: usize, events: usize) -> (Vec<String>, String) {
    let cfg = RunConfig::new(threads).with_trace(tracing::clock(true));
    let reports: Vec<String> = Target::ALL.iter().map(|t| t.run(&cfg, events)).collect();
    let records = cfg.trace().expect("a traced run").drain();
    let header = TraceHeader {
        logical: true,
        events_per_workload: events,
        targets: Target::ALL.iter().map(|t| t.name()).collect(),
    };
    (reports, tracing::render_jsonl(&records, &header, None))
}

#[test]
fn trace_output_is_deterministic_and_tables_unchanged() {
    const EVENTS: usize = 1_000;

    // Reference: tracing off, serial.
    let untraced = RunConfig::new(1);
    let plain: Vec<String> = Target::ALL
        .iter()
        .map(|t| t.run(&untraced, EVENTS))
        .collect();
    assert!(
        !sim_core::span::active() && !sim_core::probe::active(),
        "an untraced run must leave no span scope or probe sink armed"
    );
    // This is the binary's only test, so nothing else has run the
    // scheduler yet.
    assert!(
        sim_core::parallel::worker_tallies().is_empty(),
        "an untraced run must not time its workers"
    );

    // Traced serial run: same stdout tables, a verifiable trace, every
    // target contributes a figure scope with real event counts.
    let (traced_reports, trace_serial) = run_all(1, EVENTS);
    assert_eq!(
        plain, traced_reports,
        "an armed span layer must not change the rendered figure tables"
    );
    let verdict = experiments::traceview::verify(&trace_serial).expect("trace verifies");
    assert!(verdict.contains("trace OK"), "{verdict}");
    let values = experiments::jsonl::parse_lines(&trace_serial).expect("valid trace-repro/1");
    assert_eq!(values[0].str_field("schema"), Some("trace-repro/1"));
    for t in Target::ALL {
        assert!(
            values.iter().any(|v| v.str_field("scope") == Some("figure")
                && v.str_field("target") == Some(t.name())),
            "{} must contribute a figure scope",
            t.name()
        );
    }
    let totals = values.last().expect("totals footer");
    assert_eq!(totals.str_field("type"), Some("totals"));
    assert!(
        totals.u64_field("events").unwrap_or(0) > 0,
        "replay spans must attribute events"
    );
    assert!(
        !values
            .iter()
            .any(|v| v.str_field("type") == Some("metrics")),
        "logical traces must withhold the machine-dependent metrics record"
    );

    // Parallel run: byte-identical trace document.
    let (_, trace_parallel) = run_all(4, EVENTS);
    assert_eq!(
        trace_serial, trace_parallel,
        "logical-clock trace must be byte-identical at any thread count"
    );
}
