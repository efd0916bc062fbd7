//! Probe-layer guarantees, end to end:
//!
//! * every figure target produces valid, parseable `obs-repro/1` JSONL
//!   under `--probe epoch:N`;
//! * the rendered probe document is **byte-identical** across
//!   `--threads 1` and `--threads 4` (cells fold their own events on
//!   the worker thread that runs them, and records are sorted), and
//!   with or without a real-clock span trace (probe records and spans
//!   share one collector, so tracing must not move a byte);
//! * the stdout figure tables are unchanged by an armed probe, and a
//!   disabled probe collects nothing;
//! * raw mode streams parseable per-event records;
//! * batched replay leaves every record unchanged: a grouped
//!   fig1+fig2 run, scored through the block kernels, renders the
//!   same bytes, in epoch and raw mode, as the same cells replayed
//!   one event at a time under `probe::cell`, each with its own
//!   evaluator and oracle.
//!
//! Each run builds its own [`RunConfig`], so nothing is reset between
//! them.

use cache_model::CacheGeometry;
use experiments::cli::Target;
use experiments::probe::{self, ProbeMode};
use experiments::{fig1, fig2, tracing, RunConfig, RunHeader};
use mct::accuracy::{AccuracyEvaluator, AccuracyReport};
use mct::TagBits;
use trace_gen::decomposed::DecomposedTrace;
use trace_gen::{TraceEvent, TraceSource};

/// The `obs-repro/1` document for `records`, rendered into memory.
fn render(records: &[sim_core::probe::CellRecord], mode: ProbeMode, header: &RunHeader) -> String {
    let mut buf = Vec::new();
    probe::write_jsonl(records, mode, header, &mut buf).expect("Vec<u8> writes cannot fail");
    String::from_utf8(buf).expect("probe JSONL is UTF-8")
}

/// Every target's table and the probe document, probed under
/// `epoch:500` and, when `traced`, also traced on the real clock.
fn run_all(threads: usize, events: usize, traced: bool) -> (Vec<String>, String) {
    let mut cfg = RunConfig::new(threads).with_probe(ProbeMode::Epoch(500));
    if traced {
        cfg = cfg.with_trace(tracing::clock(false));
    }
    let reports: Vec<String> = Target::ALL.iter().map(|t| t.run(&cfg, events)).collect();
    let header = RunHeader {
        events_per_workload: events,
        targets: Target::ALL.iter().map(|t| t.name()).collect(),
    };
    (
        reports,
        render(&cfg.drain().cells, ProbeMode::Epoch(500), &header),
    )
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
    let cfg = RunConfig::new(1).with_probe(mode);
    if grouped {
        let _ = Target::Fig1.run(&cfg, events);
        let _ = Target::Fig2.run(&cfg, events);
    } else {
        for (name, geom) in fig1::configurations() {
            for w in workloads::full_suite() {
                probe::cell(
                    &cfg,
                    "fig1",
                    || format!("{name}/{}", w.name()),
                    || per_cell(&w, geom, TagBits::Full, events),
                );
            }
        }
        for bits in fig2::widths() {
            for w in workloads::full_suite() {
                probe::cell(
                    &cfg,
                    "fig2",
                    || format!("{bits}/{}", w.name()),
                    || per_cell(&w, fig2::geometry(), bits, events),
                );
            }
        }
    }
    let header = RunHeader {
        events_per_workload: events,
        targets: vec![Target::Fig1.name(), Target::Fig2.name()],
    };
    render(&cfg.drain().cells, mode, &header)
}

#[test]
fn probe_output_is_deterministic_and_tables_unchanged() {
    const EVENTS: usize = 1_000;

    // Reference: probes disabled, serial.
    let unprobed = RunConfig::new(1);
    let plain: Vec<String> = Target::ALL
        .iter()
        .map(|t| t.run(&unprobed, EVENTS))
        .collect();
    assert!(
        unprobed.drain().cells.is_empty(),
        "disabled probe must collect nothing"
    );

    // Probed serial run: same stdout tables, valid JSONL, every target
    // contributes cells.
    let (probed_reports, jsonl_serial) = run_all(1, EVENTS, false);
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
    let (_, jsonl_parallel) = run_all(4, EVENTS, false);
    assert_eq!(
        jsonl_serial, jsonl_parallel,
        "probe JSONL must be byte-identical at any thread count"
    );

    // Traced run: the same probe bytes.
    let (_, jsonl_traced) = run_all(4, EVENTS, true);
    assert_eq!(
        jsonl_serial, jsonl_traced,
        "probe JSONL must be byte-identical with and without a span trace"
    );

    // Raw mode: per-event records parse and carry cell context.
    let raw_cfg = RunConfig::new(4).with_probe(ProbeMode::Raw);
    let _ = Target::Fig1.run(&raw_cfg, 200);
    let records = raw_cfg.drain().cells;
    assert!(!records.is_empty());
    let header = RunHeader {
        events_per_workload: 200,
        targets: vec![Target::Fig1.name()],
    };
    let raw = render(&records, ProbeMode::Raw, &header);
    let values = experiments::jsonl::parse_lines(&raw).expect("valid raw JSONL");
    assert!(values
        .iter()
        .any(|v| v.str_field("type") == Some("event") && v.str_field("kind").is_some()));

    // Batching changes no record: grouped block replay renders the
    // same bytes as per-event replay of each cell, in both modes.
    for (mode, events) in [(ProbeMode::Epoch(500), EVENTS), (ProbeMode::Raw, 200)] {
        let grouped = fig1_fig2_records(mode, events, true);
        let per_cell = fig1_fig2_records(mode, events, false);
        assert!(grouped.lines().count() > 2, "{mode:?}: no records");
        assert!(
            grouped == per_cell,
            "{mode:?}: grouped block-replay records must equal per-event records byte for byte"
        );
    }
}
