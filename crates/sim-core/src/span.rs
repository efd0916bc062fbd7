//! Hierarchical self-profiling spans, sibling to [`crate::probe`].
//!
//! The probe layer answers *what happened* (counters, histograms, hot
//! sets); this layer answers *where the time went*. Instrumented code
//! opens a [`SpanGuard`] with [`enter`] around a named phase
//! (`replay_cpu`, `replay_block`, `probe_flush`, …) and the
//! guard records start/duration when it drops. Spans nest: each span
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
//!   determinism tests.
//! * **Structure and ordering are thread-count invariant.** Spans are
//!   buffered per *logical scope* (sweep / figure / cell),
//!   not per OS thread: [`scope`] installs a fresh thread-local
//!   buffer, saving and restoring the enclosing one, and flushes a
//!   [`ScopeRecord`] into the run's [`Trace`] when the scope closes
//!   cleanly. [`Trace::drain`] sorts the records by `(kind, target,
//!   label, root name)`, so the same work produces the same record
//!   sequence at any `--threads`. Only start/duration (and the worker
//!   id) vary between runs; a zero clock makes whole streams
//!   byte-identical.
//!
//! A scope that unwinds (a fault-injected or real panic) discards its
//! partial buffer. A scheduler item may close several scopes before a
//! later one unwinds it, so a harness that retries items gives each
//! item attempt a [`Trace::child`] that it [`Trace::absorb`]s only once
//! the attempt returns. Retried items — a figure, or a group of cells
//! inside one — therefore contribute exactly one set of scopes (the
//! attempt that completed) and degraded ones none.

use std::cell::{Cell, RefCell};
use std::sync::{Mutex, PoisonError};

use crate::probe::{armed, set_armed, ARMED_SPAN};

/// A nanosecond clock carried by a [`Trace`]. The span layer never
/// reads wallclock itself (the simlint `wallclock` rule confines
/// `Instant` to `experiments::telemetry`).
pub type Clock = fn() -> u64;

/// Registered span-name prefixes, one per instrumented component.
/// Every name passed to [`enter`] or [`scope`] must start with one of
/// these (the simlint `span-name` rule enforces it at call sites).
/// The definition lives in the canonical contract registry
/// ([`crate::registry::SPAN_NAME_PREFIXES`]); this is the same list.
pub use crate::registry::SPAN_NAME_PREFIXES as NAME_PREFIXES;

/// Returns whether `name` starts with a registered component prefix
/// (see [`NAME_PREFIXES`]).
#[must_use]
pub fn name_registered(name: &str) -> bool {
    crate::registry::span_name_registered(name)
}

thread_local! {
    static COLLECTOR: RefCell<Option<Collector>> = const { RefCell::new(None) };
    static WORKER: Cell<u32> = const { Cell::new(0) };
}

/// Where a traced run's scopes go: the clock its spans read and every
/// scope closed so far.
#[derive(Debug)]
pub struct Trace {
    clock: Clock,
    scopes: Mutex<Vec<ScopeRecord>>,
}

impl Trace {
    /// An empty trace whose spans read `clock`.
    #[must_use]
    pub fn new(clock: Clock) -> Self {
        Trace {
            clock,
            scopes: Mutex::new(Vec::new()),
        }
    }

    /// An empty trace on the same clock, for one attempt at a unit of
    /// work that may be retried: its scopes reach this trace only
    /// through [`Trace::absorb`].
    #[must_use]
    pub fn child(&self) -> Self {
        Trace::new(self.clock)
    }

    /// Appends every scope `child` collected.
    pub fn absorb(&self, child: Trace) {
        let scopes = child
            .scopes
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner);
        self.lock().extend(scopes);
    }

    /// Takes every collected scope, sorted by `(kind, target, label,
    /// root span name)` so the sequence is identical at any thread
    /// count.
    #[must_use]
    pub fn drain(&self) -> Vec<ScopeRecord> {
        let mut records = std::mem::take(&mut *self.lock());
        records.sort_by(|a, b| {
            let ka = (a.kind, &a.target, &a.label, root_name(a));
            let kb = (b.kind, &b.target, &b.label, root_name(b));
            ka.cmp(&kb)
        });
        records
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<ScopeRecord>> {
        self.scopes.lock().unwrap_or_else(PoisonError::into_inner)
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
/// literal with a registered prefix (see [`NAME_PREFIXES`]; the
/// simlint `span-name` rule checks call sites).
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

/// Reinstalls the enclosing scope's collector when a scope closes,
/// also on unwind (which drops the closing scope's partial buffer).
struct Restore(Option<Option<Collector>>);

impl Restore {
    /// Puts the enclosing collector back (once) and returns the
    /// closing scope's own.
    fn restore(&mut self) -> Option<Collector> {
        let prev = self.0.take()?;
        set_armed(ARMED_SPAN, prev.is_some());
        COLLECTOR.with(|c| std::mem::replace(&mut *c.borrow_mut(), prev))
    }
}

impl Drop for Restore {
    fn drop(&mut self) {
        self.restore();
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
    };
    collector.open(name);
    let prev = COLLECTOR.with(|c| c.borrow_mut().replace(collector));
    set_armed(ARMED_SPAN, true);
    let mut restore = Restore(Some(prev));
    let out = f();
    if let Some(mut col) = restore.restore() {
        col.close_all();
        trace.lock().push(ScopeRecord {
            kind: col.kind,
            target: col.target,
            label: col.label,
            worker: worker(),
            spans: col.spans,
        });
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
                }
                // A nested scope must not inherit or pollute ours.
                scope(
                    Some(&trace),
                    ScopeKind::Cell,
                    "cell_run",
                    "fig2",
                    || "inner".to_owned(),
                    || {
                        let _g = enter("fault_backoff");
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
        let records = trace.drain();
        assert_eq!(records.len(), 2);
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
            ["cell_run", "fault_backoff"]
        );
        assert!(trace.drain().is_empty(), "drain takes every scope");
    }

    #[test]
    fn unwound_scopes_and_attempts_leave_no_records() {
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
                    panic!("injected");
                },
            )
        });
        assert!(!active(), "an unwound scope disarms the thread");
        // A failed attempt's completed scopes stay in its child trace;
        // only the attempt that returns is absorbed.
        let failed = trace.child();
        scope(
            Some(&failed),
            ScopeKind::Cell,
            "cell_run",
            "fig2",
            String::new,
            || (),
        );
        drop(failed);
        let attempt = trace.child();
        scope(
            Some(&attempt),
            ScopeKind::Cell,
            "cell_run",
            "fig2",
            String::new,
            || (),
        );
        trace.absorb(attempt);
        let records = trace.drain();
        assert_eq!(
            records.len(),
            1,
            "only the absorbed attempt's scope remains"
        );
        assert_eq!(records[0].target, "fig2");
    }

    #[test]
    fn workers_and_names() {
        set_worker(3);
        assert_eq!(worker(), 3);
        set_worker(0);

        // Name registry. The replay pipeline's span names are pinned
        // here so a prefix change cannot silently unregister them:
        // `replay_block` (block replay), `replay_stream` (an accuracy
        // group pass), `replay_cpu` (a CPU-model group pass) and
        // `replay_mrc` (the stack-distance pass).
        assert!(name_registered("replay_block"));
        assert!(name_registered("replay_cpu"));
        assert!(name_registered("replay_stream"));
        assert!(name_registered("replay_mrc"));
        assert!(!name_registered("my_phase"));
    }
}
