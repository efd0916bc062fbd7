//! Golden tests pinning the machine-readable schemas the workspace
//! emits: `bench-repro/2` (from `repro --bench-json`), `obs-repro/1`
//! (from `repro --probe`), `trace-repro/1` (from `repro --trace-out`),
//! `mrc-repro/1` (from `repro --mrc`), and `lint-repro/2` (from
//! `cargo run -p simlint -- --json`).
//! Downstream tooling parses these files across PRs, so any field
//! rename, reordering, or escaping change must show up as a deliberate
//! diff here (and a schema version bump).

use experiments::probe::{write_jsonl, ProbeMode};
use experiments::telemetry::{BenchReport, FigureBench};
use experiments::tracing::{self, MetricsSnapshot};
use experiments::RunHeader;
use sim_core::parallel::WorkerTally;
use sim_core::probe::{CellRecord, EpochSnapshot, Registry};
use sim_core::span::{ScopeKind, ScopeRecord, SpanRecord};
use trace_gen::arena::ArenaStats;

#[test]
fn bench_repro_2_json_is_stable() {
    let report = BenchReport {
        threads: 2,
        events_per_workload: 1000,
        figures: vec![
            FigureBench::ok("fig1", 1.5, 72_000),
            FigureBench::ok("fig\"odd\\name", 0.0, 10),
            FigureBench::ok("fig3", 0.0, 60_000),
        ],
        total_wall_seconds: 2.0,
    };
    let arena = ArenaStats {
        hits: 7,
        misses: 3,
        traces: 3,
        resident_events: 9_000,
    };
    let expected = concat!(
        "{\n",
        "  \"schema\": \"bench-repro/2\",\n",
        "  \"threads\": 2,\n",
        "  \"events_per_workload\": 1000,\n",
        "  \"figures\": [\n",
        "    {\"name\": \"fig1\", \"wall_seconds\": 1.500000, \"events\": 72000, \"events_per_sec\": 48000.000000, \"degraded\": false, \"resumed\": false},\n",
        "    {\"name\": \"fig\\\"odd\\\\name\", \"wall_seconds\": 0.000000, \"events\": 10, \"events_per_sec\": 0.000000, \"degraded\": false, \"resumed\": false},\n",
        "    {\"name\": \"fig3\", \"wall_seconds\": 0.000000, \"events\": 60000, \"events_per_sec\": 0.000000, \"degraded\": false, \"resumed\": false}\n",
        "  ],\n",
        "  \"total\": {\"wall_seconds\": 2.000000, \"events\": 132010, \"events_per_sec\": 66005.000000},\n",
        "  \"arena\": {\"traces\": 3, \"resident_events\": 9000, \"replay_hits\": 7, \"materializations\": 3}\n",
        "}\n",
    );
    assert_eq!(report.to_json_with_arena(&arena), expected);
    // Nothing is materialized: a live report's arena object is zero.
    assert!(report.to_json().contains(
        "  \"arena\": {\"traces\": 0, \"resident_events\": 0, \"replay_hits\": 0, \"materializations\": 0}\n"
    ));
}

#[test]
fn obs_repro_1_jsonl_is_stable() {
    let mut totals = Registry::new();
    totals.bump("access", 4);
    totals.bump("access.hit", 3);
    totals.bump("classify.conflict", 2);
    totals.record("epoch.misses", 1);
    let epoch_cell = CellRecord {
        target: "fig1",
        // Exercise string escaping in the cell label.
        cell: "16KB \"DM\"/swim".to_owned(),
        epochs: vec![EpochSnapshot {
            epoch: 0,
            accesses: 4,
            hits: 3,
            conflict: 2,
            capacity: 0,
            alias: 1,
            oracle_agree: 1,
            oracle_total: 2,
            hot_sets: vec![(5, 2)],
        }],
        totals,
        hot_sets: vec![(5, 2)],
        raw: None,
    };
    let raw_cell = CellRecord {
        target: "fig2",
        cell: "1 bit/swim".to_owned(),
        epochs: Vec::new(),
        totals: Registry::new(),
        hot_sets: Vec::new(),
        raw: Some("{\"kind\":\"access\",\"hit\":true}\n".to_owned()),
    };
    let header = RunHeader {
        events_per_workload: 4,
        targets: vec!["fig1", "fig2"],
    };
    let expected = concat!(
        "{\"schema\":\"obs-repro/1\",\"mode\":\"epoch\",\"epoch_len\":4,\"events_per_workload\":4,\"targets\":[\"fig1\",\"fig2\"]}\n",
        "{\"type\":\"epoch\",\"target\":\"fig1\",\"cell\":\"16KB \\\"DM\\\"/swim\",\"epoch\":0,\"accesses\":4,\"hits\":3,\"misses\":1,\"conflict\":2,\"capacity\":0,\"alias\":1,\"oracle_agree\":1,\"oracle_total\":2,\"hot_sets\":[[5,2]]}\n",
        "{\"type\":\"cell\",\"target\":\"fig1\",\"cell\":\"16KB \\\"DM\\\"/swim\",\"epochs\":1,\"counters\":{\"access\":4,\"access.hit\":3,\"classify.conflict\":2},\"hist\":{\"epoch.misses\":{\"count\":1,\"mean\":1.000000,\"max\":1}},\"hot_sets\":[[5,2]]}\n",
        "{\"type\":\"event\",\"target\":\"fig2\",\"cell\":\"1 bit/swim\",\"kind\":\"access\",\"hit\":true}\n",
        "{\"type\":\"cell\",\"target\":\"fig2\",\"cell\":\"1 bit/swim\",\"epochs\":0,\"counters\":{},\"hist\":{},\"hot_sets\":[]}\n",
        "{\"type\":\"totals\",\"cells\":2,\"counters\":{\"access\":4,\"access.hit\":3,\"classify.conflict\":2}}\n",
    );
    let mut buf = Vec::new();
    write_jsonl(
        &[epoch_cell, raw_cell],
        ProbeMode::Epoch(4),
        &header,
        &mut buf,
    )
    .unwrap();
    let rendered = String::from_utf8(buf).unwrap();
    assert_eq!(rendered, expected);

    // The golden text must also round-trip through the workspace's own
    // JSON reader (escapes included).
    let values = experiments::jsonl::parse_lines(&rendered).expect("golden JSONL parses");
    assert_eq!(values.len(), 6);
    assert_eq!(values[1].str_field("cell"), Some("16KB \"DM\"/swim"));
}

#[test]
fn trace_repro_1_jsonl_is_stable() {
    let records = vec![
        ScopeRecord {
            kind: ScopeKind::Cell,
            // Exercise string escaping in the cell label.
            target: "fig1".to_owned(),
            label: "16KB \"DM\"/swim".to_owned(),
            worker: 2,
            spans: vec![
                SpanRecord {
                    name: "cell_run",
                    id: 1,
                    parent: 0,
                    depth: 0,
                    start_ns: 1_000,
                    dur_ns: 9_500,
                    events: 0,
                },
                SpanRecord {
                    name: "replay_block",
                    id: 2,
                    parent: 1,
                    depth: 1,
                    start_ns: 2_000,
                    dur_ns: 7_000,
                    events: 2_000,
                },
            ],
        },
        ScopeRecord {
            kind: ScopeKind::Cell,
            target: "fig3".to_owned(),
            label: "swim".to_owned(),
            worker: 1,
            spans: vec![SpanRecord {
                name: "replay_cpu",
                id: 1,
                parent: 0,
                depth: 0,
                start_ns: 500,
                dur_ns: 400,
                events: 2_000,
            }],
        },
    ];
    let header = RunHeader {
        events_per_workload: 2_000,
        targets: vec!["fig1"],
    };
    let metrics = MetricsSnapshot {
        workers: vec![
            (
                1,
                WorkerTally {
                    cells: 3,
                    chunks: 2,
                    busy_ns: 10_000,
                },
            ),
            (
                2,
                WorkerTally {
                    cells: 1,
                    chunks: 1,
                    busy_ns: 9_500,
                },
            ),
        ],
    };
    let expected = concat!(
        "{\"schema\":\"trace-repro/1\",\"logical\":false,\"events_per_workload\":2000,\"targets\":[\"fig1\"]}\n",
        "{\"type\":\"span\",\"scope\":\"cell\",\"target\":\"fig1\",\"label\":\"16KB \\\"DM\\\"/swim\",\"worker\":2,\"name\":\"cell_run\",\"id\":1,\"parent\":0,\"depth\":0,\"start_ns\":1000,\"dur_ns\":9500,\"events\":0}\n",
        "{\"type\":\"span\",\"scope\":\"cell\",\"target\":\"fig1\",\"label\":\"16KB \\\"DM\\\"/swim\",\"worker\":2,\"name\":\"replay_block\",\"id\":2,\"parent\":1,\"depth\":1,\"start_ns\":2000,\"dur_ns\":7000,\"events\":2000}\n",
        "{\"type\":\"span\",\"scope\":\"cell\",\"target\":\"fig3\",\"label\":\"swim\",\"worker\":1,\"name\":\"replay_cpu\",\"id\":1,\"parent\":0,\"depth\":0,\"start_ns\":500,\"dur_ns\":400,\"events\":2000}\n",
        "{\"type\":\"metrics\",\"workers\":[{\"worker\":1,\"cells\":3,\"chunks\":2,\"busy_ns\":10000},{\"worker\":2,\"cells\":1,\"chunks\":1,\"busy_ns\":9500}]}\n",
        "{\"type\":\"totals\",\"scopes\":2,\"spans\":3,\"events\":4000}\n",
    );
    let render = |logical: bool| {
        let mut buf = Vec::new();
        tracing::write_jsonl(&records, logical, &header, Some(&metrics), &mut buf).unwrap();
        String::from_utf8(buf).unwrap()
    };
    let rendered = render(false);
    assert_eq!(rendered, expected);

    // The golden text must round-trip through the workspace's own JSON
    // reader, and every span name must carry a registered prefix (the
    // same invariants `obs verify-trace` checks in CI).
    let values = experiments::jsonl::parse_lines(&rendered).expect("golden trace parses");
    assert_eq!(values.len(), 6);
    assert_eq!(values[0].str_field("schema"), Some("trace-repro/1"));
    assert_eq!(values[1].str_field("label"), Some("16KB \"DM\"/swim"));
    for v in &values {
        if v.str_field("type") == Some("span") {
            let name = v.str_field("name").unwrap();
            assert!(sim_core::registry::span_name_registered(name), "{name}");
        }
    }
    let verdict = experiments::traceview::verify(&rendered).expect("golden trace verifies");
    assert!(verdict.contains("trace OK"), "{verdict}");

    // The logical rendering of the same records zeroes every
    // machine-dependent field and withholds the metrics record.
    let logical = render(true);
    assert!(!logical.contains("\"type\":\"metrics\""));
    assert!(logical.contains("\"worker\":0,\"name\":\"cell_run\",\"id\":1,\"parent\":0,\"depth\":0,\"start_ns\":0,\"dur_ns\":0"));
}

#[test]
fn mrc_repro_1_jsonl_is_stable() {
    let run = experiments::mrc::MrcRun {
        sample: Some(0.25),
        events: 2000,
        curves: vec![experiments::mrc::WorkloadCurve {
            // Exercise string escaping in the workload name.
            workload: "swim \"odd\"".to_owned(),
            events: 2000,
            sampled_events: 512,
            distinct_lines: 40,
            points: vec![
                mrc::CurvePoint {
                    capacity_lines: 16,
                    miss_ratio: 0.5,
                },
                mrc::CurvePoint {
                    capacity_lines: 256,
                    miss_ratio: 0.125,
                },
            ],
        }],
        cells: vec![experiments::mrc::CapacityCell {
            config: "16KB DM".to_owned(),
            workload: "swim \"odd\"".to_owned(),
            capacity_lines: 256,
            mrc_miss_ratio: 0.125,
            mct_capacity_ratio: 0.1,
            real_miss_ratio: 0.2,
        }],
    };
    let expected = concat!(
        "{\"schema\":\"mrc-repro/1\",\"mode\":\"sampled\",\"sample_rate\":0.250000,\"events\":2000,\"workloads\":1,\"cells\":1}\n",
        "{\"type\":\"curve\",\"workload\":\"swim \\\"odd\\\"\",\"events\":2000,\"sampled_events\":512,\"distinct_lines\":40,\"points\":[[16,0.500000],[256,0.125000]]}\n",
        "{\"type\":\"cell\",\"config\":\"16KB DM\",\"workload\":\"swim \\\"odd\\\"\",\"capacity_lines\":256,\"mrc_miss_ratio\":0.125000,\"mct_capacity_ratio\":0.100000,\"real_miss_ratio\":0.200000}\n",
    );
    let rendered = run.to_jsonl();
    assert_eq!(rendered, expected);

    // The golden text must round-trip through the workspace's own JSON
    // reader (escapes included) and carry the registered schema.
    let values = experiments::jsonl::parse_lines(&rendered).expect("golden mrc JSONL parses");
    assert_eq!(values.len(), 3);
    assert_eq!(
        values[0].str_field("schema"),
        Some(sim_core::registry::SCHEMA_MRC)
    );
    assert_eq!(values[1].str_field("workload"), Some("swim \"odd\""));
    let points = values[1].get("points").and_then(|v| v.as_array()).unwrap();
    assert_eq!(points.len(), 2);
    assert_eq!(values[2].u64_field("capacity_lines"), Some(256));

    // ... and render through the `obs mrc` view without loss.
    let report = experiments::mrc::render(&rendered).expect("golden mrc renders");
    assert!(report.contains("swim \"odd\""), "{report}");
    assert!(report.contains("rate=0.25"), "{report}");
}

#[test]
fn lint_repro_2_jsonl_is_stable() {
    let report = simlint::Report {
        findings: vec![
            simlint::Finding::new(
                "wallclock",
                "crates/cpu/src/baseline.rs",
                7,
                "wall-clock access with an \"odd\\quote\"".to_owned(),
            ),
            simlint::Finding::new(
                "transitive-panic",
                "crates/cache/src/cache.rs",
                9,
                "panicking call (expect) reachable from hot entry point `access_block`".to_owned(),
            )
            .with_path(vec![
                "access_block (crates/cache/src/cache.rs:3)".to_owned(),
                "victim (crates/cache/src/cache.rs:8)".to_owned(),
            ]),
        ],
        waived: 1,
        files_scanned: 101,
    };
    let expected = concat!(
        "{\"schema\":\"lint-repro/2\",\"rules\":[\"bench-prefix\",\"default-hasher\",\"global-state\",\"hot-path-alloc\",\"probe-guard\",\"registry-drift\",\"span-name\",\"transitive-panic\",\"unseeded-rng\",\"waiver\",\"wallclock\"],\"files_scanned\":101}\n",
        "{\"type\":\"finding\",\"rule\":\"wallclock\",\"file\":\"crates/cpu/src/baseline.rs\",\"line\":7,\"message\":\"wall-clock access with an \\\"odd\\\\quote\\\"\",\"path\":[]}\n",
        "{\"type\":\"finding\",\"rule\":\"transitive-panic\",\"file\":\"crates/cache/src/cache.rs\",\"line\":9,\"message\":\"panicking call (expect) reachable from hot entry point `access_block`\",\"path\":[\"access_block (crates/cache/src/cache.rs:3)\",\"victim (crates/cache/src/cache.rs:8)\"]}\n",
        "{\"type\":\"summary\",\"findings\":2,\"waived\":1,\"files_scanned\":101}\n",
    );
    let rendered = report.render_json();
    assert_eq!(rendered, expected);
    assert!(rendered.starts_with(&format!("{{\"schema\":\"{}\"", simlint::SCHEMA)));
    assert_eq!(simlint::SCHEMA, sim_core::registry::SCHEMA_LINT);

    // The lint JSONL must round-trip through the same reader the other
    // two schemas use, so CI tooling needs exactly one parser.
    let values = experiments::jsonl::parse_lines(&rendered).expect("lint JSONL parses");
    assert_eq!(values.len(), 4);
    assert_eq!(values[0].str_field("schema"), Some("lint-repro/2"));
    let rules = values[0].get("rules").and_then(|v| v.as_array()).unwrap();
    assert_eq!(rules.len(), simlint::rules::RULE_NAMES.len());
    assert_eq!(values[1].str_field("rule"), Some("wallclock"));
    assert_eq!(values[1].u64_field("line"), Some(7));
    assert_eq!(
        values[1].str_field("message"),
        Some("wall-clock access with an \"odd\\quote\"")
    );
    let path = values[2].get("path").and_then(|v| v.as_array()).unwrap();
    assert_eq!(path.len(), 2, "call-path evidence survives the round trip");
    assert_eq!(values[3].u64_field("findings"), Some(2));
    assert_eq!(values[3].u64_field("waived"), Some(1));
    assert_eq!(values[3].u64_field("files_scanned"), Some(101));
}
