//! Harness-side glue for the span layer: picking the trace clock and
//! streaming `sim_core::span` scopes as `trace-repro/1` JSONL or
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
//!   "events_per_workload":…,"targets":[…]}`, the run fields written
//!   by the same [`RunHeader`] as the `obs-repro/1` header;
//! * one `{"type":"span",…}` line per recorded span, grouped by scope
//!   in the drain order (scope kind, target, label);
//! * an optional `{"type":"metrics",…}` record (real-clock runs only):
//!   the per-worker scheduler tallies;
//! * a `{"type":"totals",…}` footer.

use std::collections::BTreeSet;
use std::io::{self, Write};

use sim_core::parallel::WorkerTally;
use sim_core::span::{Clock, ScopeRecord, SpanRecord};

use crate::telemetry::{json_string, trace_clock_ns};
use crate::RunHeader;

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

/// The clock a traced run's spans read: the real nanosecond clock, or
/// the constant-zero logical one behind `--trace-logical-clock`, under
/// which span structure and ordering survive, durations collapse to
/// zero, and the stream becomes thread-count invariant byte for byte.
#[must_use]
pub fn clock(logical: bool) -> Clock {
    if logical {
        || 0
    } else {
        trace_clock_ns
    }
}

/// A point-in-time capture of the runtime-metrics registry: every
/// counter the subsystems expose, gathered once at the end of a
/// traced run.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// Per-worker scheduler tallies, sorted by worker id.
    pub workers: Vec<(u32, WorkerTally)>,
}

impl MetricsSnapshot {
    /// Captures the live scheduler tallies.
    #[must_use]
    pub fn capture() -> Self {
        MetricsSnapshot {
            workers: sim_core::parallel::worker_tallies(),
        }
    }
}

fn write_span(
    out: &mut dyn Write,
    scope: &ScopeRecord,
    span: &SpanRecord,
    logical: bool,
) -> io::Result<()> {
    let (worker, start_ns, dur_ns) = if logical {
        (0, 0, 0)
    } else {
        (scope.worker, span.start_ns, span.dur_ns)
    };
    writeln!(
        out,
        "{{\"type\":\"span\",\"scope\":{scope_kind},\"target\":{target},\"label\":{label},\
         \"worker\":{worker},\"name\":{name},\"id\":{id},\"parent\":{parent},\"depth\":{depth},\
         \"start_ns\":{start_ns},\"dur_ns\":{dur_ns},\"events\":{events}}}",
        scope_kind = json_string(scope.kind.wire_name()),
        target = json_string(&scope.target),
        label = json_string(&scope.label),
        name = json_string(span.name),
        id = span.id,
        parent = span.parent,
        depth = span.depth,
        events = span.events,
    )
}

fn write_metrics(out: &mut dyn Write, m: &MetricsSnapshot) -> io::Result<()> {
    write!(out, "{{\"type\":\"metrics\",\"workers\":[")?;
    for (i, (worker, t)) in m.workers.iter().enumerate() {
        let comma = if i + 1 < m.workers.len() { "," } else { "" };
        write!(
            out,
            "{{\"worker\":{worker},\"cells\":{},\"chunks\":{},\"busy_ns\":{}}}{comma}",
            t.cells, t.chunks, t.busy_ns,
        )?;
    }
    writeln!(out, "]}}")
}

/// Streams drained scopes to `out` as the `trace-repro/1` JSONL
/// document. Under the `logical` clock the nondeterministic fields
/// (worker, `start_ns`, `dur_ns`) are zeroed and `metrics` is
/// withheld, so the whole document is byte-identical at any thread
/// count.
///
/// # Errors
///
/// Returns the first error `out` reports.
pub fn write_jsonl(
    records: &[ScopeRecord],
    logical: bool,
    header: &RunHeader,
    metrics: Option<&MetricsSnapshot>,
    out: &mut dyn Write,
) -> io::Result<()> {
    let fields = format!("\"logical\":{logical}");
    header.write_line(out, sim_core::registry::SCHEMA_TRACE, &fields)?;
    let mut spans = 0u64;
    let mut events = 0u64;
    for scope in records {
        for span in &scope.spans {
            write_span(out, scope, span, logical)?;
            spans += 1;
            events += span.events;
        }
    }
    if let Some(m) = metrics.filter(|_| !logical) {
        write_metrics(out, m)?;
    }
    writeln!(
        out,
        "{{\"type\":\"totals\",\"scopes\":{},\"spans\":{spans},\"events\":{events}}}",
        records.len(),
    )
}

/// Streams drained scopes to `out` as Chrome `trace_event` JSON: one
/// complete (`"ph":"X"`) event per span on the owning worker's lane,
/// with thread-name metadata so `chrome://tracing`/Perfetto label the
/// lanes. Timestamps are microseconds (the span clock's nanoseconds
/// ÷ 1000); the `logical` clock zeroes them and the lanes.
///
/// # Errors
///
/// Returns the first error `out` reports.
pub fn write_chrome(records: &[ScopeRecord], logical: bool, out: &mut dyn Write) -> io::Result<()> {
    let lane = |r: &ScopeRecord| if logical { 0 } else { r.worker };
    let workers: BTreeSet<u32> = records.iter().map(lane).collect();
    out.write_all(b"[\n")?;
    let mut sep = "";
    for w in workers {
        write!(
            out,
            "{sep}{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{w},\"args\":{{\"name\":{}}}}}",
            json_string(&format!("worker {w}")),
        )?;
        sep = ",\n";
    }
    for scope in records {
        for span in &scope.spans {
            let (ts, dur) = if logical {
                (0, 0)
            } else {
                (span.start_ns, span.dur_ns)
            };
            write!(
                out,
                "{sep}{{\"name\":{name},\"cat\":{cat},\"ph\":\"X\",\"ts\":{ts_us}.{ts_frac:03},\"dur\":{dur_us}.{dur_frac:03},\"pid\":1,\"tid\":{tid},\"args\":{{\"target\":{target},\"label\":{label},\"events\":{events}}}}}",
                name = json_string(span.name),
                cat = json_string(scope.kind.wire_name()),
                ts_us = ts / 1000,
                ts_frac = ts % 1000,
                dur_us = dur / 1000,
                dur_frac = dur % 1000,
                tid = lane(scope),
                target = json_string(&scope.target),
                label = json_string(&scope.label),
                events = span.events,
            )?;
            sep = ",\n";
        }
    }
    out.write_all(b"\n]\n")
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

    fn render(logical: bool, metrics: Option<&MetricsSnapshot>) -> String {
        let header = RunHeader {
            events_per_workload: 2_000,
            targets: vec!["fig1"],
        };
        let mut buf = Vec::new();
        write_jsonl(&sample_records(), logical, &header, metrics, &mut buf)
            .expect("Vec<u8> writes cannot fail");
        String::from_utf8(buf).expect("trace JSONL is UTF-8")
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
        };
        let doc = render(false, Some(&metrics));
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
        let doc = render(true, Some(&metrics));
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
        let mut buf = Vec::new();
        write_chrome(&sample_records(), false, &mut buf).expect("Vec<u8> writes cannot fail");
        let doc = String::from_utf8(buf).expect("Chrome JSON is UTF-8");
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
