//! Probe-layer guarantees, end to end:
//!
//! * every figure target produces valid, parseable `obs-repro/1` JSONL
//!   under `--probe epoch:N`;
//! * the rendered probe document is **byte-identical** across
//!   `--threads 1` and `--threads 4` (cells fold their own events on
//!   the worker thread that runs them, and records are sorted);
//! * the stdout figure tables are unchanged by an armed probe, and a
//!   disabled probe collects nothing;
//! * raw mode streams parseable per-event records;
//! * batched replay leaves every record unchanged: a grouped
//!   fig1+fig2 run, scored through the block kernels, renders the
//!   same bytes, in epoch and raw mode, as the same cells replayed
//!   one event at a time under `probe::cell`, each with its own
//!   evaluator and oracle.
//!
//! One `#[test]` because both the probe configuration
//! ([`experiments::probe::configure`]) and the worker-thread cap
//! ([`sim_core::parallel::set_max_threads`]) are process-global.

use cache_model::CacheGeometry;
use experiments::cli::Target;
use experiments::probe::{self, ProbeMode, RunHeader};
use experiments::{fig1, fig2};
use mct::accuracy::{AccuracyEvaluator, AccuracyReport};
use mct::TagBits;
use trace_gen::decomposed::DecomposedTrace;
use trace_gen::{TraceEvent, TraceSource};

fn run_all(events: usize) -> (Vec<String>, String) {
    probe::configure(Some(ProbeMode::Epoch(500)));
    let reports: Vec<String> = Target::ALL.iter().map(|t| t.run(events)).collect();
    let records = probe::drain();
    let header = RunHeader {
        mode: ProbeMode::Epoch(500),
        events_per_workload: events,
        targets: Target::ALL.iter().map(|t| t.name()).collect(),
    };
    (reports, probe::render_jsonl(&records, &header))
}

/// One accuracy cell replayed on its own through the per-event
/// reference path: its own evaluator (and so its own oracle) fed the
/// workload's trace decomposed for its geometry, one `observe_parts`
/// call per event.
fn per_cell(
    workload: &workloads::Workload,
    geom: CacheGeometry,
    bits: TagBits,
    events: usize,
) -> AccuracyReport {
    let mut eval = AccuracyEvaluator::new(geom, bits);
    let events: Vec<TraceEvent> = workload
        .source(experiments::SEED)
        .take_events(events)
        .collect();
    let trace = DecomposedTrace::decompose(&events, geom.line_size(), geom.set_bits());
    trace.for_each(|set, tag| eval.observe_parts(set, tag));
    eval.finish()
}

/// Renders the probe records of fig1 + fig2 under `mode`, run either
/// as the drivers' batched group passes or one cell at a time, per
/// event.
fn fig1_fig2_records(mode: ProbeMode, events: usize, grouped: bool) -> String {
    probe::configure(Some(mode));
    if grouped {
        let _ = Target::Fig1.run(events);
        let _ = Target::Fig2.run(events);
    } else {
        for (name, geom) in fig1::configurations() {
            for w in workloads::full_suite() {
                probe::cell(
                    "fig1",
                    || format!("{name}/{}", w.name()),
                    || per_cell(&w, geom, TagBits::Full, events),
                );
            }
        }
        for bits in fig2::widths() {
            for w in workloads::full_suite() {
                probe::cell(
                    "fig2",
                    || format!("{bits}/{}", w.name()),
                    || per_cell(&w, fig2::geometry(), bits, events),
                );
            }
        }
    }
    let header = RunHeader {
        mode,
        events_per_workload: events,
        targets: vec![Target::Fig1.name(), Target::Fig2.name()],
    };
    probe::render_jsonl(&probe::drain(), &header)
}

#[test]
fn probe_output_is_deterministic_and_tables_unchanged() {
    const EVENTS: usize = 1_000;

    // Reference: probes disabled, serial.
    sim_core::parallel::set_max_threads(1);
    probe::configure(None);
    let plain: Vec<String> = Target::ALL.iter().map(|t| t.run(EVENTS)).collect();
    assert!(
        probe::drain().is_empty(),
        "disabled probe must collect nothing"
    );

    // Probed serial run: same stdout tables, valid JSONL, every target
    // contributes cells.
    let (probed_reports, jsonl_serial) = run_all(EVENTS);
    assert_eq!(
        plain, probed_reports,
        "an armed probe must not change the rendered figure tables"
    );
    let values = experiments::jsonl::parse_lines(&jsonl_serial).expect("valid obs-repro/1 JSONL");
    assert_eq!(values[0].str_field("schema"), Some("obs-repro/1"));
    for t in Target::ALL {
        assert!(
            values
                .iter()
                .any(|v| v.str_field("type") == Some("cell")
                    && v.str_field("target") == Some(t.name())),
            "{} must contribute at least one probe cell",
            t.name()
        );
    }
    // The folded access totals are real (the simulators actually
    // emitted through the probe layer).
    let totals = values.last().expect("totals footer");
    assert_eq!(totals.str_field("type"), Some("totals"));
    let access = totals
        .get("counters")
        .and_then(|c| c.u64_field("access"))
        .unwrap_or(0);
    assert!(access > 0, "no access events reached the probe sinks");

    // Parallel run: byte-identical probe document.
    sim_core::parallel::set_max_threads(4);
    let (_, jsonl_parallel) = run_all(EVENTS);
    assert_eq!(
        jsonl_serial, jsonl_parallel,
        "probe JSONL must be byte-identical at any thread count"
    );

    // Raw mode: per-event records parse and carry cell context.
    probe::configure(Some(ProbeMode::Raw));
    let _ = Target::Fig1.run(200);
    let records = probe::drain();
    assert!(!records.is_empty());
    let header = RunHeader {
        mode: ProbeMode::Raw,
        events_per_workload: 200,
        targets: vec![Target::Fig1.name()],
    };
    let raw = probe::render_jsonl(&records, &header);
    let values = experiments::jsonl::parse_lines(&raw).expect("valid raw JSONL");
    assert!(values
        .iter()
        .any(|v| v.str_field("type") == Some("event") && v.str_field("kind").is_some()));

    // Batching changes no record: grouped block replay renders the
    // same bytes as per-event replay of each cell, in both modes.
    sim_core::parallel::set_max_threads(1);
    for (mode, events) in [(ProbeMode::Epoch(500), EVENTS), (ProbeMode::Raw, 200)] {
        let grouped = fig1_fig2_records(mode, events, true);
        let per_cell = fig1_fig2_records(mode, events, false);
        assert!(grouped.lines().count() > 2, "{mode:?}: no records");
        assert!(
            grouped == per_cell,
            "{mode:?}: grouped block-replay records must equal per-event records byte for byte"
        );
    }

    // Leave the process clean for any test that runs after us.
    probe::configure(None);
    sim_core::parallel::set_max_threads(0);
}
