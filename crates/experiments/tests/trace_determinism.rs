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
//! One `#[test]` because both the span layer (`sim_core::span`) and
//! the worker-thread cap ([`sim_core::parallel::set_max_threads`]) are
//! process-global.

use experiments::cli::Target;
use experiments::tracing::{self, TraceHeader};

fn run_all(events: usize) -> (Vec<String>, String) {
    tracing::arm(true);
    let reports: Vec<String> = Target::ALL.iter().map(|t| t.run(events)).collect();
    let records = tracing::drain();
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
    sim_core::parallel::set_max_threads(1);
    let plain: Vec<String> = Target::ALL.iter().map(|t| t.run(EVENTS)).collect();
    assert!(
        tracing::drain().is_empty(),
        "disarmed span layer must collect nothing"
    );

    // Traced serial run: same stdout tables, a verifiable trace, every
    // target contributes a figure scope with real event counts.
    let (traced_reports, trace_serial) = run_all(EVENTS);
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
    sim_core::parallel::set_max_threads(4);
    let (_, trace_parallel) = run_all(EVENTS);
    assert_eq!(
        trace_serial, trace_parallel,
        "logical-clock trace must be byte-identical at any thread count"
    );

    // Leave the process clean for any test that runs after us.
    sim_core::parallel::set_max_threads(0);
}
