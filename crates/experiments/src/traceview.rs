//! Analytics over `trace-repro/1` documents: the `obs timeline`,
//! `obs flame`, and `obs phases` subcommands, the `obs diff` bench
//! comparator, and the `obs verify-trace` CI check.
//!
//! Everything here is a pure function from document text to report
//! text, so each view is golden-testable against a committed fixture
//! trace (`tests/obs_trace_golden.rs`).

use std::collections::BTreeMap;

use crate::jsonl::{self, Value};

/// One `{"type":"span"}` line of a `trace-repro/1` document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRow {
    /// Scope kind wire name (`sweep`/`figure`/`cell`).
    pub scope: String,
    /// Owning target.
    pub target: String,
    /// Scope label.
    pub label: String,
    /// Scheduler worker lane.
    pub worker: u32,
    /// Registered span name.
    pub name: String,
    /// 1-based id within the scope.
    pub id: u32,
    /// Parent span id (0 = scope root).
    pub parent: u32,
    /// Nesting depth.
    pub depth: u32,
    /// Start, span-clock nanoseconds.
    pub start_ns: u64,
    /// Duration, nanoseconds.
    pub dur_ns: u64,
    /// Events attributed to the span.
    pub events: u64,
}

/// A parsed `trace-repro/1` document.
#[derive(Debug, Clone)]
pub struct TraceDoc {
    /// Whether the producing run used the logical (zero) clock.
    pub logical: bool,
    /// Every span line, in document (drain) order.
    pub spans: Vec<SpanRow>,
}

const SCOPE_KINDS: [&str; 3] = ["sweep", "figure", "cell"];

fn u32_field(v: &Value, key: &str) -> Result<u32, String> {
    v.u64_field(key)
        .and_then(|n| u32::try_from(n).ok())
        .ok_or_else(|| format!("span record missing/invalid {key:?}"))
}

/// Parses a `trace-repro/1` document, tolerating (and skipping) the
/// metrics and totals records.
///
/// # Errors
///
/// An empty document, a wrong schema header, or a malformed span line
/// is an error — traces are machine-written, so damage means the run
/// itself went wrong.
pub fn parse(text: &str) -> Result<TraceDoc, String> {
    let values = jsonl::parse_lines(text)?;
    let header = values.first().ok_or("empty trace file")?;
    match header.str_field("schema") {
        Some(s) if s == sim_core::registry::SCHEMA_TRACE => {}
        Some(other) => return Err(format!("unsupported trace schema {other:?}")),
        None => {
            return Err(format!(
                "first line is not a {} header",
                sim_core::registry::SCHEMA_TRACE
            ))
        }
    }
    let logical = matches!(header.get("logical"), Some(Value::Bool(true)));
    let mut spans = Vec::new();
    for v in &values[1..] {
        match v.str_field("type") {
            Some("span") => {
                let scope = v
                    .str_field("scope")
                    .ok_or("span record missing \"scope\"")?
                    .to_owned();
                spans.push(SpanRow {
                    scope,
                    target: v.str_field("target").unwrap_or_default().to_owned(),
                    label: v.str_field("label").unwrap_or_default().to_owned(),
                    worker: u32_field(v, "worker")?,
                    name: v
                        .str_field("name")
                        .ok_or("span record missing \"name\"")?
                        .to_owned(),
                    id: u32_field(v, "id")?,
                    parent: u32_field(v, "parent")?,
                    depth: u32_field(v, "depth")?,
                    start_ns: v.u64_field("start_ns").unwrap_or(0),
                    dur_ns: v.u64_field("dur_ns").unwrap_or(0),
                    events: v.u64_field("events").unwrap_or(0),
                });
            }
            Some("metrics" | "totals") => {}
            other => return Err(format!("unrecognized trace record type {other:?}")),
        }
    }
    Ok(TraceDoc { logical, spans })
}

/// Strict validation for CI: every line must round-trip the JSONL
/// reader, the header must carry the pinned schema, every span name
/// must carry a registered component prefix, every scope kind must be
/// known, no scope key `(scope, target, label, root name)` may repeat
/// (a repeat means a retried attempt leaked its scopes), and the
/// totals footer must match the counted spans.
///
/// # Errors
///
/// The first violated property, as a message naming it.
pub fn verify(text: &str) -> Result<String, String> {
    let doc = parse(text)?;
    let mut scopes = 0u64;
    let mut keys = std::collections::BTreeSet::new();
    for row in &doc.spans {
        if !sim_core::span::name_registered(&row.name) {
            return Err(format!(
                "span name {:?} lacks a registered prefix (expected one of {:?})",
                row.name,
                sim_core::span::NAME_PREFIXES
            ));
        }
        if !SCOPE_KINDS.contains(&row.scope.as_str()) {
            return Err(format!("unknown scope kind {:?}", row.scope));
        }
        if row.parent == 0 {
            scopes += 1;
            if !keys.insert((&row.scope, &row.target, &row.label, &row.name)) {
                return Err(format!(
                    "scope key ({}, {}, {:?}, {}) repeats",
                    row.scope, row.target, row.label, row.name
                ));
            }
        }
    }
    let values = jsonl::parse_lines(text)?;
    if let Some(totals) = values
        .iter()
        .find(|v| v.str_field("type") == Some("totals"))
    {
        let counted = doc.spans.len() as u64;
        if totals.u64_field("spans") != Some(counted) {
            return Err(format!(
                "totals footer claims {:?} spans but the document carries {counted}",
                totals.u64_field("spans")
            ));
        }
    } else {
        return Err("missing totals footer".to_owned());
    }
    Ok(format!(
        "trace OK: {scopes} scopes, {} spans, all names registered\n",
        doc.spans.len()
    ))
}

fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

fn fmt_rate(rate: f64) -> String {
    if rate >= 1e9 {
        format!("{:.2}G", rate / 1e9)
    } else if rate >= 1e6 {
        format!("{:.1}M", rate / 1e6)
    } else if rate >= 1e3 {
        format!("{:.0}k", rate / 1e3)
    } else {
        format!("{rate:.0}")
    }
}

fn merge_intervals(mut iv: Vec<(u64, u64)>) -> Vec<(u64, u64)> {
    iv.sort_unstable();
    let mut out: Vec<(u64, u64)> = Vec::new();
    for (s, e) in iv {
        if let Some(last) = out.last_mut() {
            if s <= last.1 {
                last.1 = last.1.max(e);
                continue;
            }
        }
        out.push((s, e));
    }
    out
}

const LANE_WIDTH: u64 = 60;

/// Renders per-worker span lanes with utilization percentages: one
/// ASCII lane per worker, `#` where the worker had at least one open
/// scope, over the window spanned by the whole trace.
///
/// # Errors
///
/// Propagates [`parse`] failures.
pub fn timeline(text: &str) -> Result<String, String> {
    let doc = parse(text)?;
    let roots: Vec<&SpanRow> = doc.spans.iter().filter(|s| s.parent == 0).collect();
    if roots.is_empty() {
        return Err("trace has no scopes to lay out".to_owned());
    }
    let start = roots.iter().map(|s| s.start_ns).min().unwrap_or(0);
    let end = roots
        .iter()
        .map(|s| s.start_ns + s.dur_ns)
        .max()
        .unwrap_or(0);
    let window = end.saturating_sub(start);
    let mut out = String::new();
    if window == 0 {
        out.push_str(if doc.logical {
            "timeline: logical clock (durations zeroed); lanes unavailable\n"
        } else {
            "timeline: zero-length window; lanes unavailable\n"
        });
        let workers: std::collections::BTreeSet<u32> = roots.iter().map(|s| s.worker).collect();
        out.push_str(&format!(
            "{} scopes across {} worker(s)\n",
            roots.len(),
            workers.len()
        ));
        return Ok(out);
    }
    let mut lanes: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    let mut counts: BTreeMap<u32, usize> = BTreeMap::new();
    for s in &roots {
        lanes
            .entry(s.worker)
            .or_default()
            .push((s.start_ns, s.start_ns + s.dur_ns));
        *counts.entry(s.worker).or_default() += 1;
    }
    out.push_str(&format!(
        "timeline: {} worker lane(s), window {}\n",
        lanes.len(),
        fmt_ns(window)
    ));
    for (worker, iv) in &lanes {
        let merged = merge_intervals(iv.clone());
        let busy: u64 = merged.iter().map(|(s, e)| e - s).sum();
        let mut lane = String::with_capacity(LANE_WIDTH as usize);
        for col in 0..LANE_WIDTH {
            let c0 = start + col * window / LANE_WIDTH;
            let c1 = start + (col + 1) * window / LANE_WIDTH;
            let hit = merged.iter().any(|&(s, e)| s < c1.max(c0 + 1) && e > c0);
            lane.push(if hit { '#' } else { '.' });
        }
        out.push_str(&format!(
            "worker {worker:>3} |{lane}| busy {:>9} ({:5.1}%)  scopes {}\n",
            fmt_ns(busy),
            busy as f64 / window as f64 * 100.0,
            counts.get(worker).copied().unwrap_or(0),
        ));
    }
    Ok(out)
}

/// Renders folded stacks (`target;label;span;chain value_ns`), one
/// line per distinct stack, aggregated and sorted — the input format
/// of `flamegraph.pl` and speedscope. Values are *self* nanoseconds
/// (a span's duration minus its children's).
///
/// # Errors
///
/// Propagates [`parse`] failures.
pub fn flame(text: &str) -> Result<String, String> {
    let doc = parse(text)?;
    let mut folded: BTreeMap<String, u64> = BTreeMap::new();
    let mut scope_rows: Vec<&SpanRow> = Vec::new();
    fn flush(rows: &[&SpanRow], folded: &mut BTreeMap<String, u64>) {
        // rows is one scope's spans; ids are 1-based into this slice.
        for row in rows {
            let child_ns: u64 = rows
                .iter()
                .filter(|r| r.parent == row.id)
                .map(|r| r.dur_ns)
                .sum();
            let self_ns = row.dur_ns.saturating_sub(child_ns);
            // Walk parents up to the root to build the frame path.
            let mut names = vec![row.name.as_str()];
            let mut at = row.parent;
            while at != 0 {
                let Some(parent) = rows.iter().find(|r| r.id == at) else {
                    break;
                };
                names.push(parent.name.as_str());
                at = parent.parent;
            }
            names.reverse();
            let mut stack = row.target.clone();
            if !row.label.is_empty() {
                stack.push(';');
                stack.push_str(&row.label);
            }
            for n in names {
                stack.push(';');
                stack.push_str(n);
            }
            *folded.entry(stack).or_default() += self_ns;
        }
    }
    for row in &doc.spans {
        if row.parent == 0 && !scope_rows.is_empty() {
            flush(&scope_rows, &mut folded);
            scope_rows.clear();
        }
        scope_rows.push(row);
    }
    if !scope_rows.is_empty() {
        flush(&scope_rows, &mut folded);
    }
    let mut out = String::new();
    for (stack, ns) in folded {
        out.push_str(&format!("{stack} {ns}\n"));
    }
    Ok(out)
}

/// Renders the per-phase aggregate table: call count, total and self
/// time, attributed events, and events/s per registered span name,
/// sorted by total time (then name).
///
/// # Errors
///
/// Propagates [`parse`] failures.
pub fn phases(text: &str) -> Result<String, String> {
    let doc = parse(text)?;
    #[derive(Default)]
    struct Agg {
        calls: u64,
        total_ns: u64,
        self_ns: u64,
        events: u64,
    }
    let mut by_name: BTreeMap<&str, Agg> = BTreeMap::new();
    // Self time needs each span's children; group rows per scope (a
    // new scope starts at each parent==0 row, in document order).
    let mut scope_start = 0usize;
    for i in 0..=doc.spans.len() {
        let scope_done = i == doc.spans.len() || (doc.spans[i].parent == 0 && i > scope_start);
        if !scope_done {
            continue;
        }
        let rows = &doc.spans[scope_start..i];
        for row in rows {
            let child_ns: u64 = rows
                .iter()
                .filter(|r| r.parent == row.id)
                .map(|r| r.dur_ns)
                .sum();
            let agg = by_name.entry(row.name.as_str()).or_default();
            agg.calls += 1;
            agg.total_ns += row.dur_ns;
            agg.self_ns += row.dur_ns.saturating_sub(child_ns);
            agg.events += row.events;
        }
        scope_start = i;
    }
    let mut rows: Vec<(&str, Agg)> = by_name.into_iter().collect();
    rows.sort_by(|a, b| b.1.total_ns.cmp(&a.1.total_ns).then(a.0.cmp(b.0)));
    let mut out = String::new();
    out.push_str(&format!(
        "{:<20} {:>8} {:>10} {:>10} {:>12} {:>10}\n",
        "phase", "calls", "total", "self", "events", "events/s"
    ));
    for (name, agg) in rows {
        let rate = if agg.total_ns > 0 {
            fmt_rate(agg.events as f64 / (agg.total_ns as f64 / 1e9))
        } else {
            "n/a".to_owned()
        };
        out.push_str(&format!(
            "{name:<20} {:>8} {:>10} {:>10} {:>12} {rate:>10}\n",
            agg.calls,
            fmt_ns(agg.total_ns),
            fmt_ns(agg.self_ns),
            agg.events,
        ));
    }
    Ok(out)
}

fn bench_figures(doc: &Value) -> Result<Vec<(String, f64)>, String> {
    let figures = doc
        .get("figures")
        .and_then(Value::as_array)
        .ok_or("bench file has no \"figures\" array")?;
    let mut out = Vec::new();
    for f in figures {
        let name = f
            .str_field("name")
            .ok_or("figure entry missing \"name\"")?
            .to_owned();
        let rate = f
            .get("events_per_sec")
            .and_then(Value::as_f64)
            .ok_or("figure entry missing \"events_per_sec\"")?;
        out.push((name, rate));
    }
    Ok(out)
}

fn bench_total(doc: &Value) -> Option<f64> {
    doc.get("total")?.get("events_per_sec")?.as_f64()
}

/// A bench comparison: the rendered per-figure table plus the total
/// events/s delta the CI regression gate (`obs diff --fail-above`)
/// judges.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffReport {
    /// The per-figure delta table [`diff`] renders.
    pub table: String,
    /// Total events/s change in percent (`new / old - 1`, × 100), or
    /// `None` when either report lacks a positive total. Per-figure
    /// rows stay informational — single figures are too noisy on
    /// shared CI boxes to gate on; the whole-sweep total is stable.
    pub total_delta_pct: Option<f64>,
}

/// Renders the per-figure events/s delta table between two
/// `bench-repro/2` documents (`obs diff OLD.json NEW.json`) — the
/// tested replacement for the CI bench step's sed/awk pipeline.
///
/// # Errors
///
/// Either document failing to parse as a bench report.
pub fn diff(old_text: &str, new_text: &str) -> Result<String, String> {
    diff_report(old_text, new_text).map(|report| report.table)
}

/// [`diff`] plus the machine-readable total delta (see
/// [`DiffReport`]).
///
/// # Errors
///
/// Either document failing to parse as a bench report.
pub fn diff_report(old_text: &str, new_text: &str) -> Result<DiffReport, String> {
    let old = jsonl::parse(old_text).map_err(|e| format!("old bench file: {e}"))?;
    let new = jsonl::parse(new_text).map_err(|e| format!("new bench file: {e}"))?;
    for (doc, which) in [(&old, "old"), (&new, "new")] {
        match doc.str_field("schema") {
            Some(s) if s.starts_with("bench-repro/") => {}
            other => return Err(format!("{which} bench file has schema {other:?}")),
        }
    }
    let old_figs: BTreeMap<String, f64> = bench_figures(&old)?.into_iter().collect();
    let mut out = String::new();
    let mut row = |name: &str, old_rate: Option<f64>, new_rate: f64| match old_rate {
        Some(o) if o > 0.0 => {
            out.push_str(&format!(
                "{name:<10} old {o:>12.0} ev/s  new {new_rate:>12.0} ev/s  delta {:>+7.1}%\n",
                (new_rate / o - 1.0) * 100.0
            ));
        }
        _ => {
            out.push_str(&format!(
                "{name:<10} old {:>12} ev/s  new {new_rate:>12.0} ev/s  delta {:>8}\n",
                "-", "n/a"
            ));
        }
    };
    for (name, new_rate) in bench_figures(&new)? {
        row(&name, old_figs.get(&name).copied(), new_rate);
    }
    let mut total_delta_pct = None;
    if let Some(new_total) = bench_total(&new) {
        let old_total = bench_total(&old);
        row("total", old_total, new_total);
        total_delta_pct = old_total
            .filter(|&o| o > 0.0)
            .map(|o| (new_total / o - 1.0) * 100.0);
    }
    Ok(DiffReport {
        table: out,
        total_delta_pct,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace() -> String {
        concat!(
            "{\"schema\":\"trace-repro/1\",\"logical\":false,\"events_per_workload\":2000,\"targets\":[\"fig1\"]}\n",
            "{\"type\":\"span\",\"scope\":\"cell\",\"target\":\"fig1\",\"label\":\"a\",\"worker\":1,\"name\":\"cell_run\",\"id\":1,\"parent\":0,\"depth\":0,\"start_ns\":0,\"dur_ns\":1000,\"events\":0}\n",
            "{\"type\":\"span\",\"scope\":\"cell\",\"target\":\"fig1\",\"label\":\"a\",\"worker\":1,\"name\":\"replay_block\",\"id\":2,\"parent\":1,\"depth\":1,\"start_ns\":100,\"dur_ns\":600,\"events\":2000}\n",
            "{\"type\":\"span\",\"scope\":\"cell\",\"target\":\"fig1\",\"label\":\"b\",\"worker\":2,\"name\":\"cell_run\",\"id\":1,\"parent\":0,\"depth\":0,\"start_ns\":500,\"dur_ns\":1500,\"events\":0}\n",
            "{\"type\":\"totals\",\"scopes\":2,\"spans\":3,\"events\":2000}\n",
        )
        .to_owned()
    }

    #[test]
    fn parse_and_verify_accept_a_valid_trace() {
        let doc = parse(&sample_trace()).expect("parses");
        assert_eq!(doc.spans.len(), 3);
        let report = verify(&sample_trace()).expect("verifies");
        assert!(report.contains("2 scopes"));
        assert!(report.contains("3 spans"));
    }

    #[test]
    fn verify_rejects_unregistered_names_and_bad_totals() {
        let bad_name = sample_trace().replace("replay_block", "mystery_phase");
        assert!(verify(&bad_name).unwrap_err().contains("mystery_phase"));
        let bad_totals = sample_trace().replace("\"spans\":3", "\"spans\":7");
        assert!(verify(&bad_totals).unwrap_err().contains("totals"));
        assert!(verify("").unwrap_err().contains("empty"));
        // A second scope with cell `a`'s key: a retried attempt leaked.
        let repeated = sample_trace().replace("\"label\":\"b\"", "\"label\":\"a\"");
        assert!(verify(&repeated).unwrap_err().contains("repeats"));
    }

    #[test]
    fn timeline_lays_out_lanes() {
        let report = timeline(&sample_trace()).expect("timeline");
        assert!(report.contains("2 worker lane(s)"));
        assert!(report.contains("worker   1 |"));
        assert!(report.contains("worker   2 |"));
        assert!(report.contains('%'));
    }

    #[test]
    fn flame_emits_self_time_folded_stacks() {
        let report = flame(&sample_trace()).expect("flame");
        // cell_run self = 1000 - 600 child.
        assert!(report.contains("fig1;a;cell_run 400\n"), "{report}");
        assert!(report.contains("fig1;a;cell_run;replay_block 600\n"));
        assert!(report.contains("fig1;b;cell_run 1500\n"));
    }

    #[test]
    fn phases_aggregates_per_name() {
        let report = phases(&sample_trace()).expect("phases");
        let cell_line = report
            .lines()
            .find(|l| l.starts_with("cell_run"))
            .expect("cell_run row");
        assert!(cell_line.contains('2'), "two calls: {cell_line}");
        assert!(report.lines().next().unwrap_or("").contains("events/s"));
    }

    #[test]
    fn diff_compares_bench_files() {
        let old = "{\"schema\": \"bench-repro/2\", \"figures\": [{\"name\": \"fig1\", \"events_per_sec\": 100.0}], \"total\": {\"events_per_sec\": 100.0}}";
        let new = "{\"schema\": \"bench-repro/2\", \"figures\": [{\"name\": \"fig1\", \"events_per_sec\": 110.0}, {\"name\": \"fig9\", \"events_per_sec\": 50.0}], \"total\": {\"events_per_sec\": 160.0}}";
        let report = diff(old, new).expect("diff");
        assert!(report.contains("fig1"), "{report}");
        assert!(report.contains("+10.0%"), "{report}");
        assert!(report
            .lines()
            .any(|l| l.starts_with("fig9") && l.contains("n/a")));
        assert!(report.contains("total"));
        assert!(diff("not json", new).is_err());
    }
}
