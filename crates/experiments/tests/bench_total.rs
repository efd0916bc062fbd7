//! The `bench-repro/2` total against the real `repro` binary: with
//! `--mrc`, the MRC family's events are counted in `total.events`, so
//! its wall time must be inside `total.wall_seconds` too — otherwise
//! the total events/s is overstated. The same run's span trace must
//! attribute exactly `total.events`: the trace and the bench file
//! count one set of events.

use std::process::Command;

use experiments::jsonl;

#[test]
fn total_wall_time_covers_the_mrc_family() {
    let dir = std::env::temp_dir().join("repro_bench_total");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let bench = dir.join("bench.json");
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["--threads", "1", "--events", "2000", "--mrc"])
        .args(["fig1", "sec56"])
        .arg("--bench-json")
        .arg(&bench)
        .arg("--mrc-out")
        .arg(dir.join("mrc.jsonl"))
        .arg("--trace-out")
        .arg(dir.join("trace.jsonl"))
        .arg("--trace-logical-clock")
        .output()
        .expect("spawn repro");
    assert!(
        out.status.success(),
        "repro failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    let text = std::fs::read_to_string(&bench).expect("bench JSON written");
    let doc = jsonl::parse(&text).expect("bench JSON parses");
    let figures = doc
        .get("figures")
        .and_then(jsonl::Value::as_array)
        .expect("figures array");
    let wall_of = |name: &str| {
        figures
            .iter()
            .find(|f| f.str_field("name") == Some(name))
            .and_then(|f| f.get("wall_seconds"))
            .and_then(jsonl::Value::as_f64)
            .unwrap_or_else(|| panic!("{name} figure with wall_seconds"))
    };
    let total = doc
        .get("total")
        .and_then(|t| t.get("wall_seconds"))
        .and_then(jsonl::Value::as_f64)
        .expect("total.wall_seconds");
    let mrc = wall_of("mrc");
    let fig1 = wall_of("fig1");
    assert!(
        total >= mrc,
        "total.wall_seconds {total} must cover the mrc figure's {mrc}"
    );
    // The targets and the MRC family run one after the other (the
    // slack absorbs the JSON's microsecond rounding).
    assert!(
        total + 2e-6 >= fig1 + mrc,
        "total.wall_seconds {total} must cover fig1 {fig1} + mrc {mrc}"
    );

    let bench_events = doc
        .get("total")
        .and_then(|t| t.u64_field("events"))
        .expect("total.events");
    let trace = std::fs::read_to_string(dir.join("trace.jsonl")).expect("trace written");
    let lines = jsonl::parse_lines(&trace).expect("trace parses");
    let traced_events = lines
        .last()
        .filter(|v| v.str_field("type") == Some("totals"))
        .and_then(|v| v.u64_field("events"))
        .expect("trace totals.events");
    assert_eq!(
        traced_events, bench_events,
        "the trace must attribute every event the bench file counts"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
