//! Fig 1 and Fig 2 share one accuracy pass per workload
//! (`experiments::cli::run`). Sharing must be invisible in what each
//! figure reports:
//!
//! * a figure's rendered table and its `--probe epoch:500` records are
//!   byte-identical whether it runs alone or with the other figure, in
//!   either request order, at 1 and 4 threads;
//! * the shared pass still counts every cell's events, the full-tag
//!   cell both figures score included: the trace attributes exactly
//!   the bench file's `total.events`, the trace verifies, and it holds
//!   one `replay_stream` span per workload, not one per figure and
//!   workload.

use std::collections::BTreeMap;
use std::process::Command;

use experiments::cli::{self, Target};
use experiments::probe::{self, ProbeMode};
use experiments::{jsonl, RunConfig, RunHeader};

const EVENTS: usize = 20_000;
const EPOCH: ProbeMode = ProbeMode::Epoch(500);

/// Each requested figure's rendered table and the `obs-repro/1`
/// document of its own probe records, from one probed run.
fn run(threads: usize, targets: &[Target]) -> Vec<(Target, String, String)> {
    let cfg = RunConfig::new(threads).with_probe(EPOCH);
    let rendered = cli::run(&cfg, targets, EVENTS);
    assert_eq!(rendered.len(), targets.len());
    let records = cfg.drain().cells;
    targets
        .iter()
        .zip(rendered)
        .map(|(&target, (table, bench))| {
            assert_eq!(bench.name, target.name(), "request order");
            let own: Vec<_> = records
                .iter()
                .filter(|r| r.target == target.name())
                .cloned()
                .collect();
            assert!(!own.is_empty(), "{} wrote no probe records", target.name());
            let header = RunHeader {
                events_per_workload: EVENTS,
                targets: vec![target.name()],
            };
            let mut doc = Vec::new();
            probe::write_jsonl(&own, EPOCH, &header, &mut doc).expect("Vec<u8> writes cannot fail");
            (
                target,
                table,
                String::from_utf8(doc).expect("probe JSONL is UTF-8"),
            )
        })
        .collect()
}

#[test]
fn a_figure_does_not_depend_on_which_targets_share_its_pass() {
    let requests: [&[Target]; 4] = [
        &[Target::Fig1],
        &[Target::Fig2],
        &[Target::Fig1, Target::Fig2],
        &[Target::Fig2, Target::Fig1],
    ];
    let mut first: BTreeMap<&'static str, (String, String)> = BTreeMap::new();
    for threads in [1, 4] {
        for targets in requests {
            for (target, table, doc) in run(threads, targets) {
                let seen = first
                    .entry(target.name())
                    .or_insert_with(|| (table.clone(), doc.clone()));
                let run = format!("{} of {targets:?} at {threads} threads", target.name());
                assert!(seen.0 == table, "{run}: the table moved");
                assert!(seen.1 == doc, "{run}: the probe records moved");
            }
        }
    }
    assert_eq!(first.len(), 2);
}

#[test]
fn the_shared_pass_counts_every_cell_and_streams_each_workload_once() {
    let dir = std::path::PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("shared_pass_events");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let (bench, trace) = (dir.join("bench.json"), dir.join("trace.jsonl"));
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["--threads", "1", "--events", "2000", "--bench-json"])
        .arg(&bench)
        .arg("--trace-out")
        .arg(&trace)
        .args(["--trace-logical-clock", "fig1", "fig2"])
        .output()
        .expect("spawn repro");
    assert!(
        out.status.success(),
        "repro failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    let doc = jsonl::parse(&std::fs::read_to_string(&bench).expect("bench JSON written"))
        .expect("bench JSON parses");
    let bench_events = doc
        .get("total")
        .and_then(|t| t.u64_field("events"))
        .expect("total.events");
    assert_eq!(
        bench_events,
        Target::Fig1.simulated_events(2000) + Target::Fig2.simulated_events(2000)
    );
    let figures = doc
        .get("figures")
        .and_then(jsonl::Value::as_array)
        .expect("figures array");
    let walls: Vec<f64> = figures
        .iter()
        .filter_map(|f| f.get("wall_seconds").and_then(jsonl::Value::as_f64))
        .collect();
    assert_eq!(walls.len(), 2);
    assert_eq!(walls[0], walls[1], "both figures report the shared pass");

    let text = std::fs::read_to_string(&trace).expect("trace written");
    let lines = jsonl::parse_lines(&text).expect("trace parses");
    let traced_events = lines
        .last()
        .filter(|v| v.str_field("type") == Some("totals"))
        .and_then(|v| v.u64_field("events"))
        .expect("trace totals.events");
    assert_eq!(
        traced_events, bench_events,
        "the trace must attribute every event the bench file counts"
    );
    let passes = lines
        .iter()
        .filter(|v| v.str_field("type") == Some("span"))
        .filter(|v| v.str_field("name") == Some("replay_stream"))
        .count();
    assert_eq!(passes, workloads::full_suite().len());

    let verify = Command::new(env!("CARGO_BIN_EXE_obs"))
        .arg("verify-trace")
        .arg(&trace)
        .output()
        .expect("spawn obs");
    assert!(
        verify.status.success(),
        "obs verify-trace failed: {}{}",
        String::from_utf8_lossy(&verify.stdout),
        String::from_utf8_lossy(&verify.stderr)
    );
    let _ = std::fs::remove_dir_all(&dir);
}
