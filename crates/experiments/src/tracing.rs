//! Harness-side glue for the span layer: arming, draining, and
//! rendering `sim_core::span` scopes as `trace-repro/1` JSONL or
//! Chrome `trace_event` JSON.
//!
//! The span layer itself is clock-agnostic (the simlint `wallclock`
//! rule keeps `Instant` out of sim-core); this module injects either
//! the real nanosecond clock from [`crate::telemetry::trace_clock_ns`]
//! or a constant-zero *logical* clock (`repro --trace-logical-clock`).
//! Under the logical clock — with workers zeroed and the
//! machine-dependent metrics record withheld — the rendered stream is
//! byte-identical at any `--threads`, which is what the determinism
//! test pins.
//!
//! ## `trace-repro/1`
//!
//! One JSON object per line (golden-pinned in `tests/golden_schemas.rs`):
//!
//! * a header: `{"schema":"trace-repro/1","logical":…,
//!   "events_per_workload":…,"targets":[…]}`;
//! * one `{"type":"span",…}` line per recorded span, grouped by scope
//!   in the drain order (scope kind, target, label);
//! * an optional `{"type":"metrics",…}` record (real-clock runs only):
//!   the `arena` counters (always zero: nothing is materialized), pool
//!   alloc/reuse/recycle counts, per-worker scheduler tallies, fault
//!   injection/exhaustion and degraded-cell counts;
//! * a `{"type":"totals",…}` footer.

use std::collections::BTreeSet;
use std::fmt::Write as _;

use sim_core::parallel::WorkerTally;
use sim_core::span::{ScopeRecord, SpanRecord};

use crate::telemetry::{json_string, trace_clock_ns};

/// Output format for `repro --trace-out`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceFormat {
    /// `trace-repro/1` JSONL (the default).
    Jsonl,
    /// Chrome `trace_event` JSON, loadable in `chrome://tracing` and
    /// Perfetto.
    Chrome,
}

impl TraceFormat {
    /// Parses a `--trace-format` argument.
    ///
    /// # Errors
    ///
    /// Returns a usage message for anything but `jsonl` / `chrome`.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "jsonl" => Ok(TraceFormat::Jsonl),
            "chrome" => Ok(TraceFormat::Chrome),
            other => Err(format!(
                "unknown trace format {other:?}; expected jsonl or chrome"
            )),
        }
    }
}

/// Run-level fields of the `trace-repro/1` header line.
#[derive(Debug, Clone)]
pub struct TraceHeader {
    /// Whether the run used the logical (constant-zero) clock.
    pub logical: bool,
    /// `--events` per workload.
    pub events_per_workload: usize,
    /// The requested targets, in request order.
    pub targets: Vec<&'static str>,
}

/// The constant-zero clock behind `--trace-logical-clock`: span
/// structure and ordering survive, durations collapse to zero, and
/// the stream becomes thread-count invariant byte for byte.
fn logical_clock() -> u64 {
    0
}

/// Arms the span layer for a traced run: installs the real or logical
/// clock and restarts the scheduler's per-worker tallies so lanes
/// start at worker 1.
pub fn arm(logical: bool) {
    sim_core::parallel::reset_worker_tallies();
    if logical {
        sim_core::span::arm(logical_clock);
    } else {
        sim_core::span::arm(trace_clock_ns);
    }
}

/// Disarms the span layer and returns every flushed scope in the
/// deterministic drain order.
#[must_use]
pub fn drain() -> Vec<ScopeRecord> {
    sim_core::span::disarm()
}

/// A point-in-time capture of the runtime-metrics registry: every
/// counter the subsystems expose, gathered once at the end of a
/// traced run.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// Kernel array-pool traffic.
    pub pool: cache_model::pool::PoolStats,
    /// Per-worker scheduler tallies, sorted by worker id.
    pub workers: Vec<(u32, WorkerTally)>,
    /// Faults injected (each one burned a retry).
    pub fault_injected: u64,
    /// Faults that exhausted a retry budget.
    pub fault_exhausted: u64,
    /// Cells the sweep gave up on.
    pub degraded: u64,
}

impl MetricsSnapshot {
    /// Captures the live process-wide counters. `degraded` comes from
    /// the sweep's own accounting (the fault layer does not know
    /// which exhaustions the scheduler absorbed).
    #[must_use]
    pub fn capture(degraded: u64) -> Self {
        let fault = sim_core::fault::stats();
        MetricsSnapshot {
            pool: cache_model::pool::stats(),
            workers: sim_core::parallel::worker_tallies(),
            fault_injected: fault.injected,
            fault_exhausted: fault.exhausted,
            degraded,
        }
    }
}

fn span_line(scope: &ScopeRecord, span: &SpanRecord, logical: bool) -> String {
    let (worker, start_ns, dur_ns) = if logical {
        (0, 0, 0)
    } else {
        (scope.worker, span.start_ns, span.dur_ns)
    };
    let mut line = String::with_capacity(160);
    let _ = write!(
        line,
        "{{\"type\":\"span\",\"scope\":{scope_kind},\"target\":{target},\"label\":{label},",
        scope_kind = json_string(scope.kind.wire_name()),
        target = json_string(&scope.target),
        label = json_string(&scope.label),
    );
    let _ = write!(
        line,
        "\"worker\":{worker},\"name\":{name},\"id\":{id},\"parent\":{parent},\"depth\":{depth},\"start_ns\":{start_ns},\"dur_ns\":{dur_ns},\"events\":{events}}}",
        name = json_string(span.name),
        id = span.id,
        parent = span.parent,
        depth = span.depth,
        events = span.events,
    );
    line
}

fn metrics_line(m: &MetricsSnapshot) -> String {
    let mut line = String::with_capacity(256);
    line.push_str(
        "{\"type\":\"metrics\",\"arena\":{\"hits\":0,\"misses\":0,\"traces\":0,\"resident_events\":0},",
    );
    let _ = write!(
        line,
        "\"pool\":{{\"allocs\":{},\"reuses\":{},\"recycles\":{}}},",
        m.pool.allocs, m.pool.reuses, m.pool.recycles,
    );
    line.push_str("\"workers\":[");
    for (i, (worker, t)) in m.workers.iter().enumerate() {
        let comma = if i + 1 < m.workers.len() { "," } else { "" };
        let _ = write!(
            line,
            "{{\"worker\":{worker},\"cells\":{},\"chunks\":{},\"busy_ns\":{}}}{comma}",
            t.cells, t.chunks, t.busy_ns,
        );
    }
    let _ = write!(
        line,
        "],\"fault\":{{\"injected\":{},\"exhausted\":{},\"degraded\":{}}}}}",
        m.fault_injected, m.fault_exhausted, m.degraded,
    );
    line
}

/// Renders drained scopes as the `trace-repro/1` JSONL document.
/// Under a logical header the nondeterministic fields (worker,
/// `start_ns`, `dur_ns`) are zeroed and `metrics` is withheld, so the
/// whole document is byte-identical at any thread count.
#[must_use]
pub fn render_jsonl(
    records: &[ScopeRecord],
    header: &TraceHeader,
    metrics: Option<&MetricsSnapshot>,
) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"schema\":\"{}\",\"logical\":{},\"events_per_workload\":{},\"targets\":[",
        sim_core::registry::SCHEMA_TRACE,
        header.logical,
        header.events_per_workload,
    );
    for (i, t) in header.targets.iter().enumerate() {
        let comma = if i + 1 < header.targets.len() {
            ","
        } else {
            ""
        };
        let _ = write!(out, "{}{comma}", json_string(t));
    }
    out.push_str("]}\n");
    let mut spans = 0u64;
    let mut events = 0u64;
    for scope in records {
        for span in &scope.spans {
            out.push_str(&span_line(scope, span, header.logical));
            out.push('\n');
            spans += 1;
            events += span.events;
        }
    }
    if !header.logical {
        if let Some(m) = metrics {
            out.push_str(&metrics_line(m));
            out.push('\n');
        }
    }
    let _ = writeln!(
        out,
        "{{\"type\":\"totals\",\"scopes\":{},\"spans\":{spans},\"events\":{events}}}",
        records.len(),
    );
    out
}

/// Renders drained scopes as Chrome `trace_event` JSON: one complete
/// (`"ph":"X"`) event per span on the owning worker's lane, with
/// thread-name metadata so `chrome://tracing`/Perfetto label the
/// lanes. Timestamps are microseconds (the span clock's nanoseconds
/// ÷ 1000).
#[must_use]
pub fn render_chrome(records: &[ScopeRecord], header: &TraceHeader) -> String {
    let logical = header.logical;
    let mut out = String::from("[\n");
    let workers: BTreeSet<u32> = records
        .iter()
        .map(|r| if logical { 0 } else { r.worker })
        .collect();
    let mut first = true;
    for w in workers {
        push_event(&mut out, &mut first, &format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{w},\"args\":{{\"name\":{}}}}}",
            json_string(&format!("worker {w}")),
        ));
    }
    for scope in records {
        let tid = if logical { 0 } else { scope.worker };
        for span in &scope.spans {
            let (ts, dur) = if logical {
                (0, 0)
            } else {
                (span.start_ns, span.dur_ns)
            };
            push_event(&mut out, &mut first, &format!(
                "{{\"name\":{name},\"cat\":{cat},\"ph\":\"X\",\"ts\":{ts_us}.{ts_frac:03},\"dur\":{dur_us}.{dur_frac:03},\"pid\":1,\"tid\":{tid},\"args\":{{\"target\":{target},\"label\":{label},\"events\":{events}}}}}",
                name = json_string(span.name),
                cat = json_string(scope.kind.wire_name()),
                ts_us = ts / 1000,
                ts_frac = ts % 1000,
                dur_us = dur / 1000,
                dur_frac = dur % 1000,
                target = json_string(&scope.target),
                label = json_string(&scope.label),
                events = span.events,
            ));
        }
    }
    out.push_str("\n]\n");
    out
}

fn push_event(out: &mut String, first: &mut bool, event: &str) {
    if !*first {
        out.push_str(",\n");
    }
    *first = false;
    out.push_str(event);
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::span::ScopeKind;

    fn sample_records() -> Vec<ScopeRecord> {
        vec![
            ScopeRecord {
                kind: ScopeKind::Cell,
                target: "fig1".to_owned(),
                label: "16KB DM/gcc".to_owned(),
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
                label: "gcc".to_owned(),
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
        ]
    }

    fn header(logical: bool) -> TraceHeader {
        TraceHeader {
            logical,
            events_per_workload: 2_000,
            targets: vec!["fig1"],
        }
    }

    #[test]
    fn jsonl_round_trips_and_totals_add_up() {
        let metrics = MetricsSnapshot {
            workers: vec![(
                1,
                WorkerTally {
                    cells: 3,
                    chunks: 2,
                    busy_ns: 10_000,
                },
            )],
            ..MetricsSnapshot::default()
        };
        let doc = render_jsonl(&sample_records(), &header(false), Some(&metrics));
        let values = crate::jsonl::parse_lines(&doc).expect("valid JSONL");
        assert_eq!(values[0].str_field("schema"), Some("trace-repro/1"));
        let spans: Vec<_> = values
            .iter()
            .filter(|v| v.str_field("type") == Some("span"))
            .collect();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].str_field("name"), Some("cell_run"));
        assert_eq!(spans[0].u64_field("worker"), Some(2));
        assert!(values
            .iter()
            .any(|v| v.str_field("type") == Some("metrics")));
        let totals = values.last().expect("totals footer");
        assert_eq!(totals.str_field("type"), Some("totals"));
        assert_eq!(totals.u64_field("spans"), Some(3));
        assert_eq!(totals.u64_field("events"), Some(4_000));
    }

    #[test]
    fn logical_mode_zeroes_time_and_withholds_metrics() {
        let metrics = MetricsSnapshot::default();
        let doc = render_jsonl(&sample_records(), &header(true), Some(&metrics));
        let values = crate::jsonl::parse_lines(&doc).expect("valid JSONL");
        assert!(!values
            .iter()
            .any(|v| v.str_field("type") == Some("metrics")));
        for v in values
            .iter()
            .filter(|v| v.str_field("type") == Some("span"))
        {
            assert_eq!(v.u64_field("worker"), Some(0));
            assert_eq!(v.u64_field("start_ns"), Some(0));
            assert_eq!(v.u64_field("dur_ns"), Some(0));
        }
    }

    #[test]
    fn chrome_document_is_balanced_and_typed() {
        let doc = render_chrome(&sample_records(), &header(false));
        assert!(doc.starts_with("[\n"));
        assert!(doc.ends_with("\n]\n"));
        assert_eq!(doc.matches('{').count(), doc.matches('}').count());
        assert_eq!(doc.matches("\"ph\":\"X\"").count(), 3);
        assert!(doc.contains("\"ts\":1.000"));
        assert!(doc.contains("\"dur\":9.500"));
        assert!(doc.contains("\"thread_name\""));
    }

    #[test]
    fn format_parses() {
        assert_eq!(TraceFormat::parse("jsonl"), Ok(TraceFormat::Jsonl));
        assert_eq!(TraceFormat::parse("chrome"), Ok(TraceFormat::Chrome));
        assert!(TraceFormat::parse("svg").is_err());
    }
}
