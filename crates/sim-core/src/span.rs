//! Hierarchical self-profiling spans, and the run's one observation
//! collector.
//!
//! The probe layer ([`crate::probe`]) answers *what happened*
//! (counters, histograms, hot sets); spans answer *where the time
//! went*. Both land in one [`Trace`]. Instrumented code opens a
//! [`SpanGuard`] with [`enter`] around a named phase (`replay_cpu`,
//! `replay_block`, `probe_flush`, …) and the guard records
//! start/duration when it drops; a probed cell [`attach`]es its folded
//! [`CellRecord`] to the scope that ran it. Spans nest: each span
//! carries the id of the enclosing open span, so a scope's buffer
//! reconstructs the phase tree exactly.
//!
//! Three properties shape the design:
//!
//! * **Disarmed cost is one thread-local load.** [`enter`] and
//!   [`add_events`] check [`active`] — whether a scope is open on this
//!   thread, a bit in the armed bitset the probe layer shares — and
//!   return immediately when none is; the recording path is `#[cold]`
//!   and out of line. The `substrate/span_disarmed` vs `span_null`
//!   bench pair holds this, mirroring the probe benches.
//! * **No wallclock reads in this crate.** A run's [`Trace`] carries a
//!   nanosecond clock (`fn() -> u64`); the harness injects one backed
//!   by `experiments::telemetry` (the workspace's single sanctioned
//!   wallclock site), or a constant-zero logical clock for
//!   determinism tests and for runs that only probe.
//! * **Structure and ordering are thread-count invariant.** Spans and
//!   probe records are buffered per *logical scope* (sweep / figure /
//!   cell), not per OS thread: [`scope`] installs a fresh thread-local
//!   buffer, saving and restoring the enclosing one, and flushes a
//!   [`ScopeRecord`] and the scope's attached cell records into the
//!   run's [`Trace`] when the scope closes cleanly. [`Trace::drain`]
//!   sorts scopes by `(kind, target, label, root name)` and cell
//!   records by `(target, cell)`, so the same work produces the same
//!   sequences at any `--threads`. Only start/duration (and the worker
//!   id) vary between runs; a zero clock makes whole streams
//!   byte-identical.
//!
//! A scope that unwinds (a panicking cell) discards its partial
//! buffer, attached records included. Nothing retries a panicked
//! cell: the panic fails the run.

use std::cell::{Cell, RefCell};
use std::sync::{Mutex, PoisonError};

use crate::probe::{armed, CellRecord, Installed, ARMED_SPAN};

/// A nanosecond clock carried by a [`Trace`]. The span layer never
/// reads wallclock itself (the simlint `wallclock` rule confines
/// `Instant` to `experiments::telemetry`).
pub type Clock = fn() -> u64;

thread_local! {
    static COLLECTOR: RefCell<Option<Collector>> = const { RefCell::new(None) };
    static WORKER: Cell<u32> = const { Cell::new(0) };
}

/// Where a run's observations go: the clock its spans read, and every
/// scope and probe record committed so far.
#[derive(Debug)]
pub struct Trace {
    clock: Clock,
    records: Mutex<Records>,
}

/// Everything a [`Trace`] collected.
#[derive(Debug, Default)]
pub struct Records {
    /// Closed span scopes.
    pub scopes: Vec<ScopeRecord>,
    /// Probe records, each committed with the scope it was attached to.
    pub cells: Vec<CellRecord>,
}

impl Trace {
    /// An empty trace whose spans read `clock`.
    #[must_use]
    pub fn new(clock: Clock) -> Self {
        Trace {
            clock,
            records: Mutex::default(),
        }
    }

    /// Takes everything collected: scopes sorted by `(kind, target,
    /// label, root span name)` and cell records by `(target, cell)`,
    /// so both sequences are identical at any thread count.
    #[must_use]
    pub fn drain(&self) -> Records {
        let mut records = std::mem::take(&mut *self.lock());
        records.scopes.sort_by(|a, b| {
            let ka = (a.kind, &a.target, &a.label, root_name(a));
            let kb = (b.kind, &b.target, &b.label, root_name(b));
            ka.cmp(&kb)
        });
        records
            .cells
            .sort_by(|a, b| (a.target, &a.cell).cmp(&(b.target, &b.cell)));
        records
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Records> {
        self.records.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Which level of the sweep hierarchy a scope belongs to. The
/// ordering is the drain ordering: sweep first, then figures, then
/// cells.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ScopeKind {
    /// The whole `repro` invocation.
    Sweep,
    /// One figure/table driver.
    Figure,
    /// One (configuration × workload) cell, or one group pass that
    /// advances several.
    Cell,
}

impl ScopeKind {
    /// The lowercase wire name used in `trace-repro/1` records.
    #[must_use]
    pub fn wire_name(self) -> &'static str {
        match self {
            ScopeKind::Sweep => "sweep",
            ScopeKind::Figure => "figure",
            ScopeKind::Cell => "cell",
        }
    }
}

/// One recorded span: a named phase with its position in the scope's
/// phase tree. Ids are assigned in `enter` order starting at 1;
/// `parent == 0` marks the scope's root span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// The registered static name (e.g. `"replay_block"`).
    pub name: &'static str,
    /// 1-based pre-order id within the owning scope.
    pub id: u32,
    /// Id of the enclosing open span, or 0 for the scope root.
    pub parent: u32,
    /// Nesting depth (root = 0).
    pub depth: u32,
    /// Clock reading at `enter`.
    pub start_ns: u64,
    /// Clock delta between `enter` and guard drop (saturating).
    pub dur_ns: u64,
    /// Simulated events attributed to this span via [`add_events`].
    pub events: u64,
}

/// One flushed scope: the spans a logical unit of work recorded,
/// regardless of which OS thread ran it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScopeRecord {
    /// Hierarchy level.
    pub kind: ScopeKind,
    /// The owning target (figure name).
    pub target: String,
    /// Scope label (cell label, workload name, …); empty when the kind
    /// needs none.
    pub label: String,
    /// Scheduler worker id that closed the scope (0 = the calling
    /// thread). Nondeterministic across runs; zeroed in logical mode.
    pub worker: u32,
    /// The recorded spans, in `enter` order. `spans[0]` is the scope
    /// root.
    pub spans: Vec<SpanRecord>,
}

struct Collector {
    kind: ScopeKind,
    target: String,
    label: String,
    clock: Clock,
    spans: Vec<SpanRecord>,
    stack: Vec<u32>,
    cells: Vec<CellRecord>,
}

impl Collector {
    fn open(&mut self, name: &'static str) {
        let id = u32::try_from(self.spans.len())
            .unwrap_or(u32::MAX)
            .saturating_add(1);
        let parent = self.stack.last().copied().unwrap_or(0);
        let depth = u32::try_from(self.stack.len()).unwrap_or(u32::MAX);
        self.spans.push(SpanRecord {
            name,
            id,
            parent,
            depth,
            start_ns: (self.clock)(),
            dur_ns: 0,
            events: 0,
        });
        self.stack.push(id);
    }

    fn close(&mut self) {
        if let Some(id) = self.stack.pop() {
            let now = (self.clock)();
            if let Some(span) = self.spans.get_mut(id as usize - 1) {
                span.dur_ns = now.saturating_sub(span.start_ns);
            }
        }
    }

    fn close_all(&mut self) {
        while !self.stack.is_empty() {
            self.close();
        }
    }
}

/// Returns whether a span scope is open on this thread. This is the
/// only cost instrumented code pays outside a traced scope: one
/// thread-local load.
#[inline]
#[must_use]
pub fn active() -> bool {
    armed(ARMED_SPAN)
}

fn root_name(rec: &ScopeRecord) -> &'static str {
    rec.spans.first().map_or("", |s| s.name)
}

/// Tags the current OS thread with a scheduler worker id (0 = the
/// calling/main thread; [`crate::parallel`] numbers spawned workers
/// from 1). Scopes closed on this thread carry the id.
pub fn set_worker(id: u32) {
    WORKER.with(|w| w.set(id));
}

/// The scheduler worker id of the current thread (see
/// [`set_worker`]).
#[must_use]
pub fn worker() -> u32 {
    WORKER.with(Cell::get)
}

/// The clock of the scope open on this thread, or `None` outside any
/// traced scope. The scheduler reads it once per call and times its
/// workers with it, so untraced runs never pay a clock read.
#[must_use]
pub fn clock() -> Option<Clock> {
    COLLECTOR.with(|c| c.borrow().as_ref().map(|col| col.clock))
}

/// Open-span handle returned by [`enter`]; the span's duration is
/// taken when it drops.
#[must_use = "a span records its duration when the guard drops"]
#[derive(Debug)]
pub struct SpanGuard {
    armed: bool,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        COLLECTOR.with(|c| {
            if let Some(col) = c.borrow_mut().as_mut() {
                col.close();
            }
        });
    }
}

/// Opens a span named `name` inside the current scope. When the
/// thread has no scope open this is one thread-local load plus an
/// inert guard. `name` must be a static string
/// literal with a registered prefix (see
/// [`crate::registry::SPAN_NAME_PREFIXES`]; the simlint `span-name`
/// rule checks call sites).
#[inline]
pub fn enter(name: &'static str) -> SpanGuard {
    if !active() {
        return SpanGuard { armed: false };
    }
    enter_slow(name)
}

#[cold]
fn enter_slow(name: &'static str) -> SpanGuard {
    COLLECTOR.with(|c| match c.borrow_mut().as_mut() {
        Some(col) => {
            col.open(name);
            SpanGuard { armed: true }
        }
        None => SpanGuard { armed: false },
    })
}

/// Attributes `n` simulated events to the innermost open span (no-op
/// outside a scope).
#[inline]
pub fn add_events(n: u64) {
    if !active() {
        return;
    }
    add_events_slow(n);
}

#[cold]
fn add_events_slow(n: u64) {
    COLLECTOR.with(|c| {
        if let Some(col) = c.borrow_mut().as_mut() {
            if let Some(&id) = col.stack.last() {
                if let Some(span) = col.spans.get_mut(id as usize - 1) {
                    span.events += n;
                }
            }
        }
    });
}

/// Attaches `record` to the scope open on this thread: it reaches the
/// run's [`Trace`] when that scope closes cleanly, and is discarded
/// with the scope if it unwinds.
///
/// # Panics
///
/// Panics when no scope is open: a probed run always opens its cell
/// scopes (on the zero clock when it is not traced).
pub fn attach(record: CellRecord) {
    COLLECTOR.with(|c| {
        c.borrow_mut()
            .as_mut()
            .expect("a probe record is attached inside a span scope")
            .cells
            .push(record);
    });
}

/// Runs `f` inside a fresh span scope rooted at a span named `name`,
/// recording into `trace`; without a trace this is just `f()`.
///
/// The enclosing scope (if any) is saved and restored, so nested
/// scopes partition spans instead of interleaving them — a cell
/// running inline at `--threads 1` buffers exactly what it would
/// buffer on a worker thread, which is what makes span structure
/// thread-count invariant. `label` is only evaluated when tracing. If
/// `f` unwinds, the partial scope is discarded.
pub fn scope<R>(
    trace: Option<&Trace>,
    kind: ScopeKind,
    name: &'static str,
    target: &str,
    label: impl FnOnce() -> String,
    f: impl FnOnce() -> R,
) -> R {
    match trace {
        None => f(),
        Some(trace) => scope_slow(trace, kind, name, target.to_owned(), label(), f),
    }
}

#[cold]
fn scope_slow<R>(
    trace: &Trace,
    kind: ScopeKind,
    name: &'static str,
    target: String,
    label: String,
    f: impl FnOnce() -> R,
) -> R {
    let mut collector = Collector {
        kind,
        target,
        label,
        clock: trace.clock,
        spans: Vec::new(),
        stack: Vec::new(),
        cells: Vec::new(),
    };
    collector.open(name);
    let mut installed = Installed::new(&COLLECTOR, ARMED_SPAN, collector);
    let out = f();
    if let Some(mut col) = installed.restore() {
        col.close_all();
        let mut records = trace.lock();
        records.scopes.push(ScopeRecord {
            kind: col.kind,
            target: col.target,
            label: col.label,
            worker: worker(),
            spans: col.spans,
        });
        records.cells.append(&mut col.cells);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fake_clock() -> u64 {
        // Deterministic strictly-increasing fake time; good enough to
        // see nonzero durations without touching wallclock.
        use std::sync::atomic::{AtomicU64, Ordering};
        static TICKS: AtomicU64 = AtomicU64::new(0);
        TICKS.fetch_add(10, Ordering::Relaxed)
    }

    fn zero_clock() -> u64 {
        0
    }

    fn record(target: &'static str, cell: &str) -> CellRecord {
        CellRecord {
            target,
            cell: cell.to_owned(),
            epochs: Vec::new(),
            totals: crate::probe::Registry::new(),
            hot_sets: Vec::new(),
            raw: None,
        }
    }

    #[test]
    fn untraced_spans_are_inert() {
        assert!(!active());
        assert!(clock().is_none());
        {
            let _g = enter("sweep_noop");
            add_events(5);
        }
        let out = scope(
            None,
            ScopeKind::Cell,
            "cell_run",
            "fig1",
            || unreachable!(),
            || {
                assert!(!active(), "an untraced scope arms nothing");
                7
            },
        );
        assert_eq!(out, 7);
    }

    #[test]
    fn scopes_nest_spans_tree_up_and_events_attach() {
        let trace = Trace::new(fake_clock);
        let out = scope(
            Some(&trace),
            ScopeKind::Cell,
            "cell_run",
            "fig1",
            || "16KB/demo".to_owned(),
            || {
                assert!(active());
                assert!(clock().is_some());
                {
                    let _g = enter("replay_block");
                    add_events(100);
                    let _inner = enter("probe_flush");
                    attach(record("fig1", "b"));
                }
                // A nested scope must not inherit or pollute ours.
                scope(
                    Some(&trace),
                    ScopeKind::Cell,
                    "cell_run",
                    "fig2",
                    || "inner".to_owned(),
                    || {
                        let _g = enter("replay_cpu");
                        attach(record("fig1", "a"));
                    },
                );
                // The scope is armed on this thread only.
                std::thread::scope(|s| {
                    s.spawn(|| assert!(!active(), "a scope armed another thread"));
                });
                42
            },
        );
        assert_eq!(out, 42);
        assert!(!active(), "closing the outer scope disarms the thread");
        let Records {
            scopes: records,
            cells,
        } = trace.drain();
        assert_eq!(records.len(), 2);
        // Cell records commit with their scopes, sorted by (target,
        // cell).
        assert_eq!(
            cells.iter().map(|c| c.cell.as_str()).collect::<Vec<_>>(),
            ["a", "b"]
        );
        // Drain order: by target within a kind.
        assert_eq!(records[0].kind, ScopeKind::Cell);
        assert_eq!(records[0].target, "fig1");
        assert_eq!(records[0].label, "16KB/demo");
        let spans = &records[0].spans;
        assert_eq!(
            spans.iter().map(|s| s.name).collect::<Vec<_>>(),
            ["cell_run", "replay_block", "probe_flush"]
        );
        assert_eq!(spans[0].parent, 0);
        assert_eq!(spans[1].parent, spans[0].id);
        assert_eq!(spans[2].parent, spans[1].id);
        assert_eq!(spans[2].depth, 2);
        assert_eq!(spans[1].events, 100);
        assert!(spans.iter().all(|s| s.dur_ns > 0));
        assert_eq!(records[1].target, "fig2");
        assert_eq!(
            records[1].spans.iter().map(|s| s.name).collect::<Vec<_>>(),
            ["cell_run", "replay_cpu"]
        );
        let again = trace.drain();
        assert!(
            again.scopes.is_empty() && again.cells.is_empty(),
            "drain takes everything"
        );
    }

    #[test]
    fn unwound_scopes_leave_no_records() {
        let trace = Trace::new(zero_clock);
        // A panicking scope discards its partial buffer.
        let _ = std::panic::catch_unwind(|| {
            scope(
                Some(&trace),
                ScopeKind::Cell,
                "cell_run",
                "fig1",
                String::new,
                || {
                    let _g = enter("replay_block");
                    attach(record("fig1", "lost"));
                    panic!("injected");
                },
            )
        });
        assert!(!active(), "an unwound scope disarms the thread");
        let Records { scopes, cells } = trace.drain();
        assert!(scopes.is_empty(), "the unwound scope left no scope");
        assert!(cells.is_empty(), "the unwound scope left no record");
    }

    #[test]
    fn workers() {
        set_worker(3);
        assert_eq!(worker(), 3);
        set_worker(0);
    }
}
