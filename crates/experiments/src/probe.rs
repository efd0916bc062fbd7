//! Harness-side probe orchestration: per-cell sink installation,
//! record collection, and the `obs-repro/1` JSONL serialization.
//!
//! [`sim_core::probe`] provides the event stream and the sinks; this
//! module decides *when* to install them. The run's
//! [`RunConfig::probe`] mode says what to collect, every figure driver
//! wraps each experiment cell in [`cell`] (or, when one replay
//! advances several cells, in [`group`]), and each folded record is
//! attached to the group's `cell_run` span scope, so it commits to the
//! run's trace when that scope closes cleanly. After the run the
//! harness takes the records with [`RunConfig::drain`] and streams
//! them to disk with [`write_jsonl`].
//!
//! Records are sorted by `(target, cell)` before serialization, and
//! each cell's events are folded entirely on the worker thread that
//! ran the cell (sinks are thread-local), so the JSONL output is
//! byte-identical at any `--threads` setting.

use std::cell::RefCell;
use std::io::{self, Write};
use std::rc::Rc;

use sim_core::probe::{CellProbe, CellRecord, EpochSink, JsonlSink, Registry};

use crate::telemetry::{json_f64, json_string};
use crate::{RunConfig, RunHeader};

/// What the installed probe collects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbeMode {
    /// Fold events into fixed-length epochs (`--probe epoch:N`).
    Epoch(u64),
    /// Stream every raw event (`--probe raw`). Large: intended for
    /// small `--events` runs.
    Raw,
}

impl ProbeMode {
    /// The schema's `mode` field value.
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            ProbeMode::Epoch(_) => "epoch",
            ProbeMode::Raw => "raw",
        }
    }
}

/// Runs one experiment cell under the run's probe (if any) and inside
/// a `cell_run` span scope (if tracing or probing): the one-member
/// case of [`group`].
///
/// `label` is only invoked when probing or tracing, so drivers pay no
/// string formatting on plain runs. The cell body `f` runs with a
/// thread-local sink installed; its folded record commits with the
/// cell's span scope.
pub fn cell<R>(
    cfg: &RunConfig,
    target: &'static str,
    label: impl Fn() -> String,
    f: impl FnOnce() -> R,
) -> R {
    group(
        cfg,
        target,
        &label,
        1,
        |_| vec![(target, label())],
        |g| g.member(0, f),
    )
}

/// Runs a group cell: one body that advances `members` members
/// together (group replay), inside one `cell_run` span scope of
/// `target` labelled `label`. Member `i` stands for every
/// `(target, label)` experiment cell in `cells(i)`: usually one, and
/// more when several cells are one simulation, as fig1's 16 KB DM
/// cell and fig2's full-tag cell are.
///
/// Each member keeps its own probe record: the body installs member
/// `i`'s sink around the work that belongs to that member with
/// [`GroupProbe::member`]. A member's sink therefore sees exactly the
/// events a standalone [`cell`] running that member alone would see,
/// in the same order, and its record is written once under each cell
/// it stands for, with the same bytes. Cells are only listed when
/// probing.
pub fn group<R>(
    cfg: &RunConfig,
    target: &str,
    label: impl Fn() -> String,
    members: usize,
    cells: impl Fn(usize) -> Vec<(&'static str, String)>,
    f: impl FnOnce(&GroupProbe) -> R,
) -> R {
    sim_core::span::scope(
        cfg.trace(),
        sim_core::span::ScopeKind::Cell,
        "cell_run",
        target,
        &label,
        || {
            let probes = GroupProbe::armed(cfg.probe(), members);
            let out = f(&probes);
            probes.flush(&cells);
            out
        },
    )
}

/// One member's probe sink inside a [`group`].
#[derive(Debug)]
enum MemberSink {
    Epoch(Rc<RefCell<EpochSink>>),
    Raw(Rc<RefCell<JsonlSink<Vec<u8>>>>),
}

/// The per-member probe sinks of one [`group`] cell; empty when no
/// probe mode is configured.
#[derive(Debug)]
pub struct GroupProbe {
    sinks: Vec<MemberSink>,
}

impl GroupProbe {
    /// One fresh sink per member under `mode`, or none when probing
    /// is off.
    fn armed(mode: Option<ProbeMode>, members: usize) -> Self {
        let sinks = match mode {
            Some(ProbeMode::Epoch(len)) => (0..members)
                .map(|_| MemberSink::Epoch(Rc::new(RefCell::new(EpochSink::new(len)))))
                .collect(),
            Some(ProbeMode::Raw) => (0..members)
                .map(|_| MemberSink::Raw(Rc::new(RefCell::new(JsonlSink::new(Vec::new())))))
                .collect(),
            None => Vec::new(),
        };
        GroupProbe { sinks }
    }

    /// Runs `f` with member `i`'s sink installed on this thread, or
    /// plainly when probing is off.
    pub fn member<R>(&self, i: usize, f: impl FnOnce() -> R) -> R {
        match self.sinks.get(i) {
            Some(MemberSink::Epoch(sink)) => sim_core::probe::with_sink(sink.clone(), f),
            Some(MemberSink::Raw(sink)) => sim_core::probe::with_sink(sink.clone(), f),
            None => f(),
        }
    }

    /// Folds every member's sink into its record and attaches the
    /// record to the group's span scope once per cell the member
    /// stands for.
    fn flush(self, cells: &dyn Fn(usize) -> Vec<(&'static str, String)>) {
        for (i, sink) in self.sinks.into_iter().enumerate() {
            let unwrap = "member sink still installed";
            let (probe, raw) = match sink {
                MemberSink::Epoch(sink) => (
                    Rc::try_unwrap(sink).expect(unwrap).into_inner().finish(),
                    None,
                ),
                MemberSink::Raw(sink) => {
                    let sink = Rc::try_unwrap(sink).expect(unwrap).into_inner();
                    let (buf, _written) = sink.finish().expect("Vec<u8> writes cannot fail");
                    let raw = String::from_utf8(buf).expect("probe JSONL is ASCII");
                    (CellProbe::default(), Some(raw))
                }
            };
            let _flush = sim_core::span::enter("probe_flush");
            let mut cells = cells(i).into_iter();
            let Some((target, cell)) = cells.next() else {
                continue;
            };
            let record = CellRecord {
                target,
                cell,
                epochs: probe.epochs,
                totals: probe.totals,
                hot_sets: probe.hot_sets,
                raw,
            };
            for (target, cell) in cells {
                sim_core::span::attach(CellRecord {
                    target,
                    cell,
                    ..record.clone()
                });
            }
            sim_core::span::attach(record);
        }
    }
}

fn write_counters(out: &mut dyn Write, reg: &Registry) -> io::Result<()> {
    out.write_all(b"{")?;
    for (i, (name, v)) in reg.counters().enumerate() {
        if i > 0 {
            out.write_all(b",")?;
        }
        write!(out, "{}:{v}", json_string(name))?;
    }
    out.write_all(b"}")
}

fn write_hist(out: &mut dyn Write, reg: &Registry) -> io::Result<()> {
    out.write_all(b"{")?;
    for (i, (name, h)) in reg.histograms().enumerate() {
        if i > 0 {
            out.write_all(b",")?;
        }
        write!(
            out,
            "{}:{{\"count\":{},\"mean\":{},\"max\":{}}}",
            json_string(name),
            h.count(),
            json_f64(h.mean()),
            h.max(),
        )?;
    }
    out.write_all(b"}")
}

fn write_hot_sets(out: &mut dyn Write, hot: &[(u32, u64)]) -> io::Result<()> {
    out.write_all(b"[")?;
    for (i, (set, count)) in hot.iter().enumerate() {
        if i > 0 {
            out.write_all(b",")?;
        }
        write!(out, "[{set},{count}]")?;
    }
    out.write_all(b"]")
}

/// Streams collected records, probed under `mode`, to `out` as an
/// `obs-repro/1` JSONL document.
///
/// Line order: one header, then per record (already sorted by
/// [`RunConfig::drain`]) its epoch lines (epoch mode) or event lines
/// (raw mode) followed by its cell summary line, then one totals
/// footer. See EXPERIMENTS.md §"Observability" for field semantics.
///
/// # Errors
///
/// Returns the first error `out` reports.
pub fn write_jsonl(
    records: &[CellRecord],
    mode: ProbeMode,
    header: &RunHeader,
    out: &mut dyn Write,
) -> io::Result<()> {
    let fields = match mode {
        ProbeMode::Epoch(len) => format!("\"mode\":\"{}\",\"epoch_len\":{len}", mode.name()),
        ProbeMode::Raw => format!("\"mode\":\"{}\"", mode.name()),
    };
    header.write_line(out, sim_core::registry::SCHEMA_OBS, &fields)?;

    let mut grand = Registry::new();
    for rec in records {
        let target = json_string(rec.target);
        let cell = json_string(&rec.cell);
        if let Some(raw) = &rec.raw {
            for line in raw.lines() {
                let fields = line
                    .strip_prefix('{')
                    .and_then(|l| l.strip_suffix('}'))
                    .unwrap_or(line);
                writeln!(
                    out,
                    "{{\"type\":\"event\",\"target\":{target},\"cell\":{cell},{fields}}}"
                )?;
            }
        }
        for e in &rec.epochs {
            write!(
                out,
                "{{\"type\":\"epoch\",\"target\":{target},\"cell\":{cell},\
                 \"epoch\":{},\"accesses\":{},\"hits\":{},\"misses\":{},\
                 \"conflict\":{},\"capacity\":{},\"alias\":{},\
                 \"oracle_agree\":{},\"oracle_total\":{},\"hot_sets\":",
                e.epoch,
                e.accesses,
                e.hits,
                e.misses(),
                e.conflict,
                e.capacity,
                e.alias,
                e.oracle_agree,
                e.oracle_total,
            )?;
            write_hot_sets(out, &e.hot_sets)?;
            out.write_all(b"}\n")?;
        }
        grand.merge(&rec.totals);
        write!(
            out,
            "{{\"type\":\"cell\",\"target\":{target},\"cell\":{cell},\
             \"epochs\":{},\"counters\":",
            rec.epochs.len(),
        )?;
        write_counters(out, &rec.totals)?;
        out.write_all(b",\"hist\":")?;
        write_hist(out, &rec.totals)?;
        out.write_all(b",\"hot_sets\":")?;
        write_hot_sets(out, &rec.hot_sets)?;
        out.write_all(b"}\n")?;
    }
    write!(
        out,
        "{{\"type\":\"totals\",\"cells\":{},\"counters\":",
        records.len()
    )?;
    write_counters(out, &grand)?;
    out.write_all(b"}\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::probe::{emit, ProbeEvent};

    fn render(records: &[CellRecord], mode: ProbeMode, header: &RunHeader) -> String {
        let mut buf = Vec::new();
        write_jsonl(records, mode, header, &mut buf).expect("Vec<u8> writes cannot fail");
        String::from_utf8(buf).expect("probe JSONL is UTF-8")
    }

    #[test]
    fn cell_records_round_trip() {
        let cfg = RunConfig::new(1).with_probe(ProbeMode::Epoch(2));
        let out = cell(
            &cfg,
            "t1",
            || "b/cell".to_owned(),
            || {
                for hit in [true, false, true] {
                    emit(ProbeEvent::Access { hit });
                }
                42
            },
        );
        assert_eq!(out, 42);
        cell(
            &cfg,
            "t1",
            || "a/cell".to_owned(),
            || {
                emit(ProbeEvent::Access { hit: false });
            },
        );
        let records = cfg.drain().cells;
        assert_eq!(records.len(), 2);
        // Sorted by (target, cell), not insertion order.
        assert_eq!(records[0].cell, "a/cell");
        assert_eq!(records[1].cell, "b/cell");
        assert_eq!(records[1].epochs.len(), 2);
        assert_eq!(records[1].totals.counter("access.hit"), 2);

        let jsonl = render(
            &records,
            ProbeMode::Epoch(2),
            &RunHeader {
                events_per_workload: 3,
                targets: vec!["t1"],
            },
        );
        let values = crate::jsonl::parse_lines(&jsonl).expect("valid JSONL");
        assert_eq!(values[0].str_field("schema"), Some("obs-repro/1"));
        assert_eq!(values[0].u64_field("epoch_len"), Some(2));
        let types: Vec<_> = values
            .iter()
            .map(|v| v.str_field("type").unwrap_or("header"))
            .collect();
        assert_eq!(
            types,
            ["header", "epoch", "cell", "epoch", "epoch", "cell", "totals"]
        );
        let totals = values.last().unwrap();
        assert_eq!(totals.u64_field("cells"), Some(2));
        assert_eq!(totals.get("counters").unwrap().u64_field("access"), Some(4));
    }

    #[test]
    fn raw_mode_streams_prefixed_events() {
        let cfg = RunConfig::new(1).with_probe(ProbeMode::Raw);
        cell(
            &cfg,
            "t2",
            || "only".to_owned(),
            || {
                emit(ProbeEvent::Access { hit: true });
            },
        );
        let records = cfg.drain().cells;
        let jsonl = render(
            &records,
            ProbeMode::Raw,
            &RunHeader {
                events_per_workload: 1,
                targets: vec!["t2"],
            },
        );
        let values = crate::jsonl::parse_lines(&jsonl).expect("valid raw JSONL");
        assert!(!jsonl.contains("epoch_len"));
        let ev = &values[1];
        assert_eq!(ev.str_field("type"), Some("event"));
        assert_eq!(ev.str_field("kind"), Some("access"));
        assert_eq!(ev.str_field("cell"), Some("only"));
    }

    #[test]
    fn unprobed_cells_are_pass_throughs_with_lazy_labels() {
        let cfg = RunConfig::new(1);
        let out = cell(&cfg, "t3", || unreachable!("label must be lazy"), || 7);
        assert_eq!(out, 7);
        assert!(cfg.drain().cells.is_empty());
    }
}
