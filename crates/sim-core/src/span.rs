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
//! * **Disarmed cost is one relaxed atomic load.** [`enter`] and
//!   [`add_events`] check [`active`] and return immediately when the
//!   layer is off; the recording path is `#[cold]` and out of line.
//!   The `substrate/span_disarmed` vs `span_null` bench pair holds
//!   this, mirroring the probe benches.
//! * **No wallclock reads in this crate.** The layer takes a
//!   nanosecond clock (`fn() -> u64`) at [`arm`] time; the harness
//!   injects one backed by `experiments::telemetry` (the workspace's
//!   single sanctioned wallclock site), or a constant-zero logical
//!   clock for determinism tests.
//! * **Structure and ordering are thread-count invariant.** Spans are
//!   buffered per *logical scope* (sweep / figure / cell),
//!   not per OS thread: [`scope`] installs a fresh thread-local
//!   buffer, saving and restoring the enclosing one, and flushes a
//!   [`ScopeRecord`] to a global store when the scope closes cleanly.
//!   [`disarm`] drains the store sorted by `(kind, target, label,
//!   root name)`, so the same work produces the same record sequence
//!   at any `--threads`. Only start/duration (and the worker id) vary
//!   between runs; a zero clock makes whole streams byte-identical.
//!
//! A scope that unwinds (a fault-injected or real panic) discards its
//! partial buffer: retried cells therefore contribute exactly one
//! scope — the attempt that completed — and degraded cells none.

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Mutex, PoisonError};

/// A nanosecond clock injected at [`arm`] time. The span layer never
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

const OFF: u8 = 0;
const COLLECT: u8 = 1;
const DISCARD: u8 = 2;

static ARMED: AtomicU8 = AtomicU8::new(OFF);
static CLOCK: Mutex<Option<Clock>> = Mutex::new(None);
static STORE: Mutex<Vec<ScopeRecord>> = Mutex::new(Vec::new());

thread_local! {
    static COLLECTOR: RefCell<Option<Collector>> = const { RefCell::new(None) };
    static WORKER: Cell<u32> = const { Cell::new(0) };
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

fn zero_clock() -> u64 {
    0
}

fn current_clock() -> Clock {
    CLOCK
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .unwrap_or(zero_clock)
}

/// Returns whether the span layer is armed. This is the only cost
/// instrumented code pays when tracing is off: one relaxed atomic
/// load.
#[inline]
#[must_use]
pub fn active() -> bool {
    ARMED.load(Ordering::Relaxed) != OFF
}

/// Arms the layer: spans record through `clock` and scopes flush to
/// the global store until [`disarm`]. Clears any records left from a
/// previous arming.
pub fn arm(clock: Clock) {
    *CLOCK.lock().unwrap_or_else(PoisonError::into_inner) = Some(clock);
    STORE.lock().unwrap_or_else(PoisonError::into_inner).clear();
    ARMED.store(COLLECT, Ordering::Relaxed);
}

/// Arms the layer in discard mode: the full recording path runs but
/// closed scopes are dropped instead of stored. This is the
/// `span_null` bench configuration — it prices dispatch + record cost
/// without accumulating memory.
pub fn arm_discard(clock: Clock) {
    *CLOCK.lock().unwrap_or_else(PoisonError::into_inner) = Some(clock);
    STORE.lock().unwrap_or_else(PoisonError::into_inner).clear();
    ARMED.store(DISCARD, Ordering::Relaxed);
}

/// Disarms the layer and drains every flushed scope, sorted by
/// `(kind, target, label, root span name)` so the sequence is
/// identical at any thread count.
pub fn disarm() -> Vec<ScopeRecord> {
    ARMED.store(OFF, Ordering::Relaxed);
    let mut records = std::mem::take(&mut *STORE.lock().unwrap_or_else(PoisonError::into_inner));
    records.sort_by(|a, b| {
        let ka = (a.kind, &a.target, &a.label, root_name(a));
        let kb = (b.kind, &b.target, &b.label, root_name(b));
        ka.cmp(&kb)
    });
    records
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

/// Reads the armed clock, or `None` when tracing is off. The
/// scheduler uses this for busy-time tallies so it never pays a clock
/// read in untraced runs.
#[must_use]
pub fn clock_now() -> Option<u64> {
    if !active() {
        return None;
    }
    Some(current_clock()())
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

/// Opens a span named `name` inside the current scope. When the layer
/// is disarmed — or the thread has no scope installed — this is a
/// relaxed load plus an inert guard. `name` must be a static string
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
/// when disarmed or outside a scope).
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

/// Runs `f` inside a fresh span scope rooted at a span named `name`.
///
/// The enclosing scope (if any) is saved and restored, so nested
/// scopes partition spans instead of interleaving them — a cell
/// running inline at `--threads 1` buffers exactly what it would
/// buffer on a worker thread, which is what makes span structure
/// thread-count invariant. `label` is only evaluated when the layer
/// is armed. If `f` unwinds, the partial scope is discarded.
pub fn scope<R>(
    kind: ScopeKind,
    name: &'static str,
    target: &str,
    label: impl FnOnce() -> String,
    f: impl FnOnce() -> R,
) -> R {
    if !active() {
        return f();
    }
    scope_slow(kind, name, target.to_owned(), label(), f)
}

#[cold]
fn scope_slow<R>(
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
        clock: current_clock(),
        spans: Vec::new(),
        stack: Vec::new(),
    };
    collector.open(name);
    let prev = COLLECTOR.with(|c| c.borrow_mut().replace(collector));

    struct Guard {
        prev: Option<Collector>,
    }
    impl Drop for Guard {
        fn drop(&mut self) {
            let finished = COLLECTOR.with(|c| c.borrow_mut().take());
            COLLECTOR.with(|c| *c.borrow_mut() = self.prev.take());
            if std::thread::panicking() {
                return; // discard the partial scope; a retry re-records it
            }
            let Some(mut col) = finished else { return };
            col.close_all();
            if ARMED.load(Ordering::Relaxed) != COLLECT {
                return;
            }
            let record = ScopeRecord {
                kind: col.kind,
                target: std::mem::take(&mut col.target),
                label: std::mem::take(&mut col.label),
                worker: worker(),
                spans: std::mem::take(&mut col.spans),
            };
            STORE
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .push(record);
        }
    }

    let _guard = Guard { prev };
    f()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fake_clock() -> u64 {
        // Deterministic strictly-increasing fake time; good enough to
        // see nonzero durations without touching wallclock.
        use std::sync::atomic::AtomicU64;
        static TICKS: AtomicU64 = AtomicU64::new(0);
        TICKS.fetch_add(10, Ordering::Relaxed)
    }

    // One #[test] because the armed state, clock, and store are
    // process-global and tests in one binary run concurrently.
    #[test]
    fn span_layer_end_to_end() {
        // Disarmed: everything is inert.
        assert!(!active());
        {
            let _g = hold_disarmed();
            add_events(5);
        }
        assert!(disarm().is_empty());

        // Armed: scopes nest, spans tree up, events attach.
        arm(fake_clock);
        assert!(active());
        let out = scope(
            ScopeKind::Cell,
            "cell_run",
            "fig1",
            || "16KB/demo".to_owned(),
            || {
                {
                    let _g = enter("replay_block");
                    add_events(100);
                    let _inner = enter("probe_flush");
                }
                // A nested scope must not inherit or pollute ours.
                scope(
                    ScopeKind::Cell,
                    "cell_run",
                    "fig2",
                    || "inner".to_owned(),
                    || {
                        let _g = enter("fault_backoff");
                    },
                );
                42
            },
        );
        assert_eq!(out, 42);
        let records = disarm();
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

        // Spans outside any scope are dropped, not misfiled.
        arm(fake_clock);
        {
            let _g = enter("replay_stream");
            add_events(1);
        }
        assert!(disarm().is_empty());

        // A panicking scope discards its partial buffer.
        arm(fake_clock);
        let _ = std::panic::catch_unwind(|| {
            scope(ScopeKind::Cell, "cell_run", "fig1", String::new, || {
                let _g = enter("replay_block");
                panic!("injected");
            })
        });
        scope(ScopeKind::Cell, "cell_run", "fig2", String::new, || ());
        let records = disarm();
        assert_eq!(records.len(), 1, "panicked scope must be discarded");
        assert_eq!(records[0].target, "fig2");

        // Discard mode records nothing but still runs the full path.
        arm_discard(zero_clock);
        scope(ScopeKind::Cell, "cell_run", "fig1", String::new, || {
            let _g = enter("replay_block");
        });
        assert!(disarm().is_empty());

        // Worker tagging.
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

    fn hold_disarmed() -> SpanGuard {
        enter("sweep_noop")
    }
}
