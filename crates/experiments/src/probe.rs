//! Harness-side probe orchestration: per-cell sink installation,
//! record collection, and the `obs-repro/1` JSONL serialization.
//!
//! [`sim_core::probe`] provides the event stream and the sinks; this
//! module decides *when* to install them. The `repro` harness calls
//! [`configure`] once from its CLI flags, every figure driver wraps
//! each experiment cell in [`cell`] (or, when one replay advances
//! several cells, in [`group`]), and after the run the harness
//! [`drain`]s the folded records and writes them with
//! [`render_jsonl`].
//!
//! Records are sorted by `(target, cell)` before serialization, and
//! each cell's events are folded entirely on the worker thread that
//! ran the cell (sinks are thread-local), so the JSONL output is
//! byte-identical at any `--threads` setting.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

use sim_core::probe::{CellProbe, EpochSink, EpochSnapshot, JsonlSink, Registry};

use crate::telemetry::{json_f64, json_string};

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

/// One experiment cell's folded probe output.
#[derive(Debug, Clone)]
pub struct CellRecord {
    /// The figure target the cell belongs to (`fig1`, …).
    pub target: &'static str,
    /// Unique cell label within the target (e.g. `dm16/swim`).
    pub cell: String,
    /// Epoch-folded data (empty in raw mode).
    pub epochs: Vec<EpochSnapshot>,
    /// Whole-cell counters and histograms (empty in raw mode).
    pub totals: Registry,
    /// Whole-cell hottest sets by conflict count.
    pub hot_sets: Vec<(u32, u64)>,
    /// Raw event JSONL (one `{"kind":…}` object per line; `None` in
    /// epoch mode).
    pub raw: Option<String>,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static CONFIG: Mutex<Option<ProbeMode>> = Mutex::new(None);
static RECORDS: Mutex<Vec<CellRecord>> = Mutex::new(Vec::new());

/// Installs (or clears, with `None`) the process-wide probe mode and
/// discards any records from a previous run.
pub fn configure(mode: Option<ProbeMode>) {
    *CONFIG.lock().expect("probe config poisoned") = mode;
    RECORDS.lock().expect("probe records poisoned").clear();
    ENABLED.store(mode.is_some(), Ordering::Release);
}

/// Whether [`configure`] armed a probe mode.
#[must_use]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Acquire)
}

/// Runs one experiment cell under the configured probe (if any) and
/// inside a `cell_run` span scope (if tracing is armed): the
/// one-member case of [`group`].
///
/// `label` is only invoked when probing or tracing is armed, so
/// drivers pay no string formatting on plain runs. The cell body `f`
/// runs with a thread-local sink installed; its folded record is
/// appended to the global collection for [`drain`].
pub fn cell<R>(target: &'static str, label: impl Fn() -> String, f: impl FnOnce() -> R) -> R {
    group(target, &label, 1, |_| label(), |probes| probes.member(0, f))
}

/// Runs a group cell: one body that advances `members` experiment
/// cells together (group replay), inside one `cell_run` span scope
/// labelled `label`.
///
/// Each member keeps its own probe record, labelled
/// `member_label(i)`: the body installs member `i`'s sink around the
/// work that belongs to that member with [`GroupProbe::member`]. A
/// member's sink therefore sees exactly the events a standalone
/// [`cell`] running that member alone would see, in the same order,
/// and every record keeps its label and bytes. Labels are only
/// invoked when probing or tracing is armed.
pub fn group<R>(
    target: &'static str,
    label: impl Fn() -> String,
    members: usize,
    member_label: impl Fn(usize) -> String,
    f: impl FnOnce(&GroupProbe) -> R,
) -> R {
    sim_core::span::scope(
        sim_core::span::ScopeKind::Cell,
        "cell_run",
        target,
        &label,
        || {
            let probes = GroupProbe::armed(members);
            let out = f(&probes);
            probes.flush(target, &member_label);
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
#[derive(Debug, Default)]
pub struct GroupProbe {
    sinks: Vec<MemberSink>,
}

impl GroupProbe {
    /// One fresh sink per member under the configured probe mode, or
    /// none when probing is off.
    fn armed(members: usize) -> Self {
        if !enabled() {
            return GroupProbe::default();
        }
        let sinks = match *CONFIG.lock().expect("probe config poisoned") {
            Some(ProbeMode::Epoch(len)) => (0..members)
                .map(|_| MemberSink::Epoch(Rc::new(RefCell::new(EpochSink::new(len)))))
                .collect(),
            Some(ProbeMode::Raw) => (0..members)
                .map(|_| MemberSink::Raw(Rc::new(RefCell::new(JsonlSink::new(Vec::new())))))
                .collect(),
            // configure(None) raced us; run unprobed.
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

    /// Folds every member's sink into its record and appends the
    /// records to the global collection for [`drain`].
    fn flush(self, target: &'static str, member_label: &dyn Fn(usize) -> String) {
        let mut records = Vec::with_capacity(self.sinks.len());
        for (i, sink) in self.sinks.into_iter().enumerate() {
            let mut record = CellRecord {
                target,
                cell: member_label(i),
                epochs: Vec::new(),
                totals: Registry::new(),
                hot_sets: Vec::new(),
                raw: None,
            };
            match sink {
                MemberSink::Epoch(sink) => {
                    let CellProbe {
                        epochs,
                        totals,
                        hot_sets,
                    } = Rc::try_unwrap(sink)
                        .expect("member sink still installed")
                        .into_inner()
                        .finish();
                    record.epochs = epochs;
                    record.totals = totals;
                    record.hot_sets = hot_sets;
                }
                MemberSink::Raw(sink) => {
                    let (buf, _written) = Rc::try_unwrap(sink)
                        .expect("member sink still installed")
                        .into_inner()
                        .finish()
                        .expect("Vec<u8> writes cannot fail");
                    record.raw = Some(String::from_utf8(buf).expect("probe JSONL is ASCII"));
                }
            }
            // Injection site: flushing a folded record is where a real
            // sink would hit I/O. Transient faults retry inside the gate;
            // a persistent fault unwinds before any of the group's
            // records is stored, so the scheduler's retry of the whole
            // group stores each record exactly once.
            let _flush = sim_core::span::enter("probe_flush");
            if let Err(fault) = sim_core::fault::gate(sim_core::fault::FaultSite::ProbeFlush) {
                std::panic::panic_any(fault);
            }
            records.push(record);
        }
        RECORDS
            .lock()
            .expect("probe records poisoned")
            .extend(records);
    }
}

/// Takes all collected records, sorted by `(target, cell)` — the
/// deterministic serialization order.
#[must_use]
pub fn drain() -> Vec<CellRecord> {
    let mut records: Vec<CellRecord> =
        std::mem::take(&mut *RECORDS.lock().expect("probe records poisoned"));
    records.sort_by(|a, b| a.target.cmp(b.target).then_with(|| a.cell.cmp(&b.cell)));
    records
}

/// The run-level fields of the `obs-repro/1` header line.
#[derive(Debug, Clone)]
pub struct RunHeader {
    /// The probe mode the run used.
    pub mode: ProbeMode,
    /// `--events` per workload.
    pub events_per_workload: usize,
    /// Figure targets that ran, in run order.
    pub targets: Vec<&'static str>,
}

fn counters_json(reg: &Registry) -> String {
    let mut out = String::from("{");
    for (i, (name, v)) in reg.counters().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{}:{v}", json_string(name));
    }
    out.push('}');
    out
}

fn hist_json(reg: &Registry) -> String {
    let mut out = String::from("{");
    for (i, (name, h)) in reg.histograms().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{}:{{\"count\":{},\"mean\":{},\"max\":{}}}",
            json_string(name),
            h.count(),
            json_f64(h.mean()),
            h.max(),
        );
    }
    out.push('}');
    out
}

fn hot_sets_json(hot: &[(u32, u64)]) -> String {
    let mut out = String::from("[");
    for (i, (set, count)) in hot.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "[{set},{count}]");
    }
    out.push(']');
    out
}

/// Serializes drained records as an `obs-repro/1` JSONL document.
///
/// Line order: one header, then per record (already sorted by the
/// caller via [`drain`]) its epoch lines (epoch mode) or event lines
/// (raw mode) followed by its cell summary line, then one totals
/// footer. See EXPERIMENTS.md §"Observability" for field semantics.
#[must_use]
pub fn render_jsonl(records: &[CellRecord], header: &RunHeader) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"schema\":\"{}\",\"mode\":\"",
        sim_core::registry::SCHEMA_OBS
    );
    out.push_str(header.mode.name());
    out.push('"');
    if let ProbeMode::Epoch(len) = header.mode {
        let _ = write!(out, ",\"epoch_len\":{len}");
    }
    let _ = write!(
        out,
        ",\"events_per_workload\":{},\"targets\":[",
        header.events_per_workload
    );
    for (i, t) in header.targets.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&json_string(t));
    }
    out.push_str("]}\n");

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
                let _ = writeln!(
                    out,
                    "{{\"type\":\"event\",\"target\":{target},\"cell\":{cell},{fields}}}"
                );
            }
        }
        for e in &rec.epochs {
            let _ = writeln!(
                out,
                "{{\"type\":\"epoch\",\"target\":{target},\"cell\":{cell},\
                 \"epoch\":{},\"accesses\":{},\"hits\":{},\"misses\":{},\
                 \"conflict\":{},\"capacity\":{},\"alias\":{},\
                 \"oracle_agree\":{},\"oracle_total\":{},\"hot_sets\":{}}}",
                e.epoch,
                e.accesses,
                e.hits,
                e.misses(),
                e.conflict,
                e.capacity,
                e.alias,
                e.oracle_agree,
                e.oracle_total,
                hot_sets_json(&e.hot_sets),
            );
        }
        grand.merge(&rec.totals);
        let _ = writeln!(
            out,
            "{{\"type\":\"cell\",\"target\":{target},\"cell\":{cell},\
             \"epochs\":{},\"counters\":{},\"hist\":{},\"hot_sets\":{}}}",
            rec.epochs.len(),
            counters_json(&rec.totals),
            hist_json(&rec.totals),
            hot_sets_json(&rec.hot_sets),
        );
    }
    let _ = writeln!(
        out,
        "{{\"type\":\"totals\",\"cells\":{},\"counters\":{}}}",
        records.len(),
        counters_json(&grand),
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::probe::{emit, ProbeEvent};

    // The probe configuration is process-global, so everything that
    // configures it lives in this one test (Rust runs tests in the
    // same process, possibly concurrently).
    #[test]
    fn configure_cell_drain_round_trip() {
        configure(Some(ProbeMode::Epoch(2)));
        assert!(enabled());
        let out = cell(
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
            "t1",
            || "a/cell".to_owned(),
            || {
                emit(ProbeEvent::Access { hit: false });
            },
        );
        let records = drain();
        assert_eq!(records.len(), 2);
        // Sorted by (target, cell), not insertion order.
        assert_eq!(records[0].cell, "a/cell");
        assert_eq!(records[1].cell, "b/cell");
        assert_eq!(records[1].epochs.len(), 2);
        assert_eq!(records[1].totals.counter("access.hit"), 2);

        let jsonl = render_jsonl(
            &records,
            &RunHeader {
                mode: ProbeMode::Epoch(2),
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

        // Raw mode streams prefixed events.
        configure(Some(ProbeMode::Raw));
        cell(
            "t2",
            || "only".to_owned(),
            || {
                emit(ProbeEvent::Access { hit: true });
            },
        );
        let records = drain();
        let jsonl = render_jsonl(
            &records,
            &RunHeader {
                mode: ProbeMode::Raw,
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

        // Disabled again: cell() is a pass-through and label is lazy.
        configure(None);
        assert!(!enabled());
        let out = cell("t3", || unreachable!("label must be lazy"), || 7);
        assert_eq!(out, 7);
        assert!(drain().is_empty());
    }
}
