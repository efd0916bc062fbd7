//! Zero-overhead-when-disabled observability probes.
//!
//! Simulator hot paths (cache fills, MCT classifications, assist-buffer
//! filter decisions) call [`emit`] with a [`ProbeEvent`]. When no sink
//! is installed on the calling thread the call is one thread-local
//! byte load and a branch — cheap enough to leave compiled into
//! release binaries (the `substrate/probe_null` bench guards this).
//! When a [`Sink`] is installed on the current thread via
//! [`with_sink`], events flow into it synchronously.
//!
//! Sinks are **thread-local** by design, and so is the armed state:
//! one per-thread bitset, shared with [`crate::span`], records whether
//! this thread holds a sink (and whether it holds an open span scope),
//! and only the installing thread sets its bits. [`active`] therefore
//! means "armed on this thread"; a sink on one thread never sends
//! another thread down a probed path. The [`crate::parallel`]
//! scheduler runs each experiment cell entirely on one worker thread,
//! so a per-cell sink observes exactly that cell's events regardless of
//! how many cells run concurrently. This is what makes probe output
//! byte-identical across `--threads 1` and `--threads N` — each cell
//! folds its own events, and the harness sorts the folded records
//! before serializing. The harness labels each cell's output as a
//! [`CellRecord`] and attaches it to the cell's span scope
//! ([`crate::span::attach`]): probe records and spans share one
//! collector, [`crate::span::Trace`].
//!
//! Three sinks are provided:
//!
//! * [`NullSink`] — discards everything (measures dispatch overhead);
//! * [`EpochSink`] — folds events into fixed-interval
//!   [`EpochSnapshot`]s plus a whole-run [`Registry`] of named
//!   counters and histograms;
//! * [`JsonlSink`] — streams one compact JSON object per event.
//!
//! # Examples
//!
//! ```
//! use sim_core::probe::{self, EpochSink, ProbeEvent};
//! use std::cell::RefCell;
//! use std::rc::Rc;
//!
//! let sink = Rc::new(RefCell::new(EpochSink::new(2)));
//! probe::with_sink(sink.clone(), || {
//!     for hit in [true, false, true, true] {
//!         probe::emit(ProbeEvent::Access { hit });
//!     }
//! });
//! let cell = Rc::try_unwrap(sink).unwrap().into_inner().finish();
//! assert_eq!(cell.epochs.len(), 2);
//! assert_eq!(cell.totals.counter("access"), 4);
//! assert_eq!(cell.totals.counter("access.hit"), 3);
//! ```

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::io::Write;
use std::rc::Rc;
use std::thread::LocalKey;

use crate::hash::FxHashMap;
use crate::registry;
use crate::stats::Histogram;

/// How an MCT lookup resolved, at full detail.
///
/// The classifier itself only distinguishes conflict (tag match) from
/// capacity (no match); the probe layer splits the no-match side into
/// [`Empty`](MctLookup::Empty) vs [`Stale`](MctLookup::Stale) and the
/// match side into [`Match`](MctLookup::Match) vs
/// [`Alias`](MctLookup::Alias) — a *partial-tag false positive*, where
/// the saved low bits match but the full tag does not (§4.2's
/// accuracy-vs-bits trade-off made visible).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MctLookup {
    /// The entry was never written (cold set).
    Empty,
    /// The full tag of the last-evicted line matched.
    Match,
    /// The masked tag matched but the full tag did not: a partial-tag
    /// false positive counted as a conflict by the classifier.
    Alias,
    /// A valid entry whose tag did not match.
    Stale,
}

impl MctLookup {
    /// Stable lower-case name used as a counter suffix and in JSONL.
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            MctLookup::Empty => "empty",
            MctLookup::Match => "match",
            MctLookup::Alias => "alias",
            MctLookup::Stale => "stale",
        }
    }
}

/// Which MCT-guided filter made a decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FilterUnit {
    /// Victim cache: suppress the swap of a buffer hit back into L1.
    VictimSwap,
    /// Victim cache: suppress placing an evicted line in the buffer.
    VictimFill,
    /// Next-line prefetcher: suppress issuing the prefetch.
    Prefetch,
    /// Cache exclusion: redirect a miss into the bypass buffer.
    Exclude,
    /// Pseudo-associative cache: conflict-bit replacement protection
    /// (exactly one candidate held its bit, so the other was evicted).
    PseudoProtect,
    /// Adaptive miss buffer: victim-partition placement decision.
    AmbVictim,
    /// Adaptive miss buffer: prefetch-issue decision.
    AmbPrefetch,
    /// Adaptive miss buffer: exclusion decision.
    AmbExclude,
}

impl FilterUnit {
    /// Stable name used as a counter infix and in JSONL.
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            FilterUnit::VictimSwap => "victim_swap",
            FilterUnit::VictimFill => "victim_fill",
            FilterUnit::Prefetch => "prefetch",
            FilterUnit::Exclude => "exclude",
            FilterUnit::PseudoProtect => "pseudo_protect",
            FilterUnit::AmbVictim => "amb_victim",
            FilterUnit::AmbPrefetch => "amb_prefetch",
            FilterUnit::AmbExclude => "amb_exclude",
        }
    }
}

/// The role a line holds inside the adaptive miss buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AmbRole {
    /// Inserted as a victim-cache line.
    Victim,
    /// Inserted by the prefetcher.
    Prefetch,
    /// Inserted as an excluded (bypassed) line.
    Exclusion,
}

impl AmbRole {
    /// Stable name used as a counter suffix and in JSONL.
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            AmbRole::Victim => "victim",
            AmbRole::Prefetch => "prefetch",
            AmbRole::Exclusion => "exclusion",
        }
    }
}

/// One observable event on a simulator hot path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbeEvent {
    /// A memory-system access completed (hit or miss), at the level
    /// the experiment measures (L1 + assist buffer).
    Access {
        /// Whether the access hit (in L1 or the assist buffer).
        hit: bool,
    },
    /// The miss classifier produced a verdict for a missing line.
    Classify {
        /// The cache set of the miss.
        set: u32,
        /// `true` = conflict, `false` = capacity.
        conflict: bool,
        /// Full lookup detail (empty / match / alias / stale).
        lookup: MctLookup,
    },
    /// A line was installed in a probed cache set.
    SetFill {
        /// The set filled.
        set: u32,
    },
    /// A resident line was displaced from a probed cache set.
    SetEvict {
        /// The set evicted from.
        set: u32,
    },
    /// A line's conflict bit entered (`set_bit`) or left (`!set_bit`)
    /// a cache set.
    ConflictBit {
        /// The cache set involved.
        set: u32,
        /// `true` when a conflict-marked line was installed, `false`
        /// when one was displaced.
        set_bit: bool,
    },
    /// An MCT-guided filter made a go/no-go decision.
    Filter {
        /// Which filter decided.
        unit: FilterUnit,
        /// Whether the filter fired (took its non-default action).
        fired: bool,
    },
    /// A line was installed in (or re-assigned within) the adaptive
    /// miss buffer under a partition role.
    AmbPartition {
        /// The role the line now holds.
        role: AmbRole,
    },
    /// The 3C oracle classified the same miss as the MCT, for accuracy
    /// tracking.
    Oracle {
        /// The oracle's verdict (`true` = conflict).
        oracle_conflict: bool,
        /// Whether the MCT agreed with the oracle.
        agree: bool,
    },
}

/// A consumer of probe events, installed per thread via [`with_sink`].
///
/// Implementations must not call [`emit`] re-entrantly.
pub trait Sink {
    /// Consumes one event.
    fn event(&mut self, ev: &ProbeEvent);
}

/// A sink that discards every event — exists to measure the cost of
/// armed dispatch (see `substrate/probe_null`).
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl Sink for NullSink {
    fn event(&mut self, _ev: &ProbeEvent) {}
}

/// Named monotonic counters plus log₂ histograms, keyed by static
/// strings and iterated in name order: the whole-run totals of a cell
/// and the merge target for a run's grand totals. Hot-path folds do
/// not go through it; an [`EpochSink`] counts into a fixed table and
/// builds its registry once, in [`EpochSink::finish`].
#[derive(Debug, Default, Clone)]
pub struct Registry {
    counters: BTreeMap<&'static str, u64>,
    histograms: BTreeMap<&'static str, Histogram>,
}

impl Registry {
    /// Creates an empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `n` to the named counter.
    pub fn bump(&mut self, name: &'static str, n: u64) {
        *self.counters.entry(name).or_insert(0) += n;
    }

    /// Records one sample in the named histogram.
    pub fn record(&mut self, name: &'static str, value: u64) {
        self.histograms.entry(name).or_default().record(value);
    }

    /// The named counter's value (0 when never bumped).
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Counters in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.counters.iter().map(|(&k, &v)| (k, v))
    }

    /// Histograms in name order.
    pub fn histograms(&self) -> impl Iterator<Item = (&'static str, &Histogram)> + '_ {
        self.histograms.iter().map(|(&k, v)| (k, v))
    }

    /// Merges another registry's counters and histograms into this
    /// one.
    pub fn merge(&mut self, other: &Registry) {
        for (name, v) in other.counters() {
            self.bump(name, v);
        }
        for (name, h) in other.histograms() {
            self.histograms.entry(name).or_default().merge(h);
        }
    }
}

/// Per-epoch fold of the event stream: the time-sliced view of a run.
///
/// An epoch closes every `epoch_len` [`ProbeEvent::Access`] events;
/// counts of other event kinds land in the epoch of the access stream
/// position they occurred at.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct EpochSnapshot {
    /// Zero-based epoch index.
    pub epoch: u64,
    /// Accesses in this epoch (== epoch length except a trailing
    /// partial epoch).
    pub accesses: u64,
    /// Hits among those accesses.
    pub hits: u64,
    /// Conflict classifications.
    pub conflict: u64,
    /// Capacity classifications.
    pub capacity: u64,
    /// Partial-tag false positives among the conflicts.
    pub alias: u64,
    /// Oracle comparisons where the MCT agreed.
    pub oracle_agree: u64,
    /// Oracle comparisons total.
    pub oracle_total: u64,
    /// Top-K sets by conflict classifications this epoch, as
    /// `(set, count)` sorted by descending count then ascending set.
    pub hot_sets: Vec<(u32, u64)>,
}

impl EpochSnapshot {
    /// Misses in this epoch.
    #[must_use]
    pub const fn misses(&self) -> u64 {
        self.accesses - self.hits
    }
}

/// Everything an [`EpochSink`] folded out of one cell's event stream.
#[derive(Debug, Clone, Default)]
pub struct CellProbe {
    /// The closed epochs, in order (a trailing partial epoch is
    /// included when it saw at least one access).
    pub epochs: Vec<EpochSnapshot>,
    /// Whole-run named counters and histograms.
    pub totals: Registry,
    /// Top sets by whole-run conflict classifications, sorted by
    /// descending count then ascending set.
    pub hot_sets: Vec<(u32, u64)>,
}

/// One experiment cell's probe output, labelled. A cell attaches it to
/// the span scope that ran it ([`crate::span::attach`]), so it commits
/// with that scope.
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

/// How many hot sets an [`EpochSink`] keeps per epoch and per cell.
pub const HOT_SETS_TOP_K: usize = 4;

/// Folds the event stream into [`EpochSnapshot`]s plus a whole-run
/// [`Registry`] — the `--probe epoch:N` sink.
///
/// Counters are bumped in a fixed table indexed by
/// [`registry::PROBE_COUNTERS`] id; the [`Registry`] is built once, in
/// [`EpochSink::finish`].
#[derive(Debug)]
pub struct EpochSink {
    epoch_len: u64,
    cur: EpochSnapshot,
    cur_sets: FxHashMap<u32, u64>,
    epochs: Vec<EpochSnapshot>,
    all_sets: FxHashMap<u32, u64>,
    counts: [u64; registry::PROBE_COUNTERS.len()],
    epoch_misses: Histogram,
}

// Counter ids, resolved against the registry's name table at compile
// time: a misspelt name fails the build.
const ACCESS: usize = registry::probe_counter("access");
const ACCESS_HIT: usize = registry::probe_counter("access.hit");
const CLASSIFY_CONFLICT: usize = registry::probe_counter("classify.conflict");
const CLASSIFY_CAPACITY: usize = registry::probe_counter("classify.capacity");
const SET_FILL: usize = registry::probe_counter("set.fill");
const SET_EVICT: usize = registry::probe_counter("set.evict");
const CBIT_SET: usize = registry::probe_counter("cbit.set");
const CBIT_CLEAR: usize = registry::probe_counter("cbit.clear");
const ORACLE_TOTAL: usize = registry::probe_counter("oracle.total");
const ORACLE_CONFLICT: usize = registry::probe_counter("oracle.conflict");
const ORACLE_AGREE: usize = registry::probe_counter("oracle.agree");
/// By [`MctLookup`] discriminant.
const MCT: [usize; 4] = [
    registry::probe_counter("mct.empty"),
    registry::probe_counter("mct.match"),
    registry::probe_counter("mct.alias"),
    registry::probe_counter("mct.stale"),
];
/// By [`AmbRole`] discriminant.
const AMB: [usize; 3] = [
    registry::probe_counter("amb.victim"),
    registry::probe_counter("amb.prefetch"),
    registry::probe_counter("amb.exclusion"),
];
/// By [`FilterUnit`] discriminant, then `[pass, fired]`.
const FILTER: [[usize; 2]; 8] = [
    [
        registry::probe_counter("filter.victim_swap.pass"),
        registry::probe_counter("filter.victim_swap.fired"),
    ],
    [
        registry::probe_counter("filter.victim_fill.pass"),
        registry::probe_counter("filter.victim_fill.fired"),
    ],
    [
        registry::probe_counter("filter.prefetch.pass"),
        registry::probe_counter("filter.prefetch.fired"),
    ],
    [
        registry::probe_counter("filter.exclude.pass"),
        registry::probe_counter("filter.exclude.fired"),
    ],
    [
        registry::probe_counter("filter.pseudo_protect.pass"),
        registry::probe_counter("filter.pseudo_protect.fired"),
    ],
    [
        registry::probe_counter("filter.amb_victim.pass"),
        registry::probe_counter("filter.amb_victim.fired"),
    ],
    [
        registry::probe_counter("filter.amb_prefetch.pass"),
        registry::probe_counter("filter.amb_prefetch.fired"),
    ],
    [
        registry::probe_counter("filter.amb_exclude.pass"),
        registry::probe_counter("filter.amb_exclude.fired"),
    ],
];

impl EpochSink {
    /// Creates a sink that closes an epoch every `epoch_len` accesses.
    ///
    /// # Panics
    ///
    /// Panics if `epoch_len` is zero.
    #[must_use]
    pub fn new(epoch_len: u64) -> Self {
        assert!(epoch_len > 0, "epoch length must be positive");
        EpochSink {
            epoch_len,
            cur: EpochSnapshot::default(),
            cur_sets: FxHashMap::default(),
            epochs: Vec::new(),
            all_sets: FxHashMap::default(),
            counts: [0; registry::PROBE_COUNTERS.len()],
            epoch_misses: Histogram::new(),
        }
    }

    fn close_epoch(&mut self) {
        let mut snap = std::mem::take(&mut self.cur);
        snap.hot_sets = top_k(&self.cur_sets, HOT_SETS_TOP_K);
        self.cur_sets.clear();
        self.cur.epoch = snap.epoch + 1;
        self.epoch_misses.record(snap.misses());
        self.epochs.push(snap);
    }

    /// Closes the trailing partial epoch and returns the folded cell
    /// record.
    #[must_use]
    pub fn finish(mut self) -> CellProbe {
        if self.cur.accesses > 0 {
            self.close_epoch();
        }
        let hot_sets = top_k(&self.all_sets, HOT_SETS_TOP_K);
        // Only bumped counters and recorded histograms get a key, so
        // the registry serializes exactly as a per-event fold into it
        // would.
        let mut totals = Registry::new();
        for (&name, &n) in registry::PROBE_COUNTERS.iter().zip(&self.counts) {
            if n > 0 {
                totals.counters.insert(name, n);
            }
        }
        if self.epoch_misses.count() > 0 {
            totals.histograms.insert("epoch.misses", self.epoch_misses);
        }
        for count in self.all_sets.values() {
            totals.record("set.conflicts", *count);
        }
        CellProbe {
            epochs: self.epochs,
            totals,
            hot_sets,
        }
    }
}

/// The top `k` `(set, count)` pairs by descending count, ties broken
/// by ascending set — a deterministic order regardless of map
/// iteration. The result never holds more than `k` slots, so stored
/// epochs do not keep their whole set list.
fn top_k(sets: &FxHashMap<u32, u64>, k: usize) -> Vec<(u32, u64)> {
    let mut top: Vec<(u32, u64)> = Vec::with_capacity(k.min(sets.len()));
    let before = |a: &(u32, u64), b: &(u32, u64)| b.1.cmp(&a.1).then(a.0.cmp(&b.0)).is_lt();
    for (&set, &count) in sets {
        let pair = (set, count);
        if top.len() == k {
            match top.last() {
                Some(last) if before(&pair, last) => {
                    top.pop();
                }
                _ => continue,
            }
        }
        let at = top.partition_point(|p| before(p, &pair));
        top.insert(at, pair);
    }
    top
}

impl Sink for EpochSink {
    fn event(&mut self, ev: &ProbeEvent) {
        match *ev {
            ProbeEvent::Access { hit } => {
                self.cur.accesses += 1;
                self.counts[ACCESS] += 1;
                if hit {
                    self.cur.hits += 1;
                    self.counts[ACCESS_HIT] += 1;
                }
                if self.cur.accesses == self.epoch_len {
                    self.close_epoch();
                }
            }
            ProbeEvent::Classify {
                set,
                conflict,
                lookup,
            } => {
                if conflict {
                    self.cur.conflict += 1;
                    self.counts[CLASSIFY_CONFLICT] += 1;
                    *self.cur_sets.entry(set).or_insert(0) += 1;
                    *self.all_sets.entry(set).or_insert(0) += 1;
                } else {
                    self.cur.capacity += 1;
                    self.counts[CLASSIFY_CAPACITY] += 1;
                }
                if lookup == MctLookup::Alias {
                    self.cur.alias += 1;
                }
                self.counts[MCT[lookup as usize]] += 1;
            }
            ProbeEvent::SetFill { .. } => self.counts[SET_FILL] += 1,
            ProbeEvent::SetEvict { .. } => self.counts[SET_EVICT] += 1,
            ProbeEvent::ConflictBit { set_bit, .. } => {
                self.counts[if set_bit { CBIT_SET } else { CBIT_CLEAR }] += 1;
            }
            ProbeEvent::Filter { unit, fired } => {
                self.counts[FILTER[unit as usize][usize::from(fired)]] += 1;
            }
            ProbeEvent::AmbPartition { role } => self.counts[AMB[role as usize]] += 1,
            ProbeEvent::Oracle {
                oracle_conflict,
                agree,
            } => {
                self.cur.oracle_total += 1;
                self.counts[ORACLE_TOTAL] += 1;
                if oracle_conflict {
                    self.counts[ORACLE_CONFLICT] += 1;
                }
                if agree {
                    self.cur.oracle_agree += 1;
                    self.counts[ORACLE_AGREE] += 1;
                }
            }
        }
    }
}

/// Renders an event as the comma-separated *inner* fields of a JSON
/// object (no braces), so callers can prepend context fields like the
/// target and cell name.
#[must_use]
pub fn event_json_fields(ev: &ProbeEvent) -> String {
    match *ev {
        ProbeEvent::Access { hit } => format!("\"kind\":\"access\",\"hit\":{hit}"),
        ProbeEvent::Classify {
            set,
            conflict,
            lookup,
        } => format!(
            "\"kind\":\"classify\",\"set\":{set},\"conflict\":{conflict},\"lookup\":\"{}\"",
            lookup.name()
        ),
        ProbeEvent::SetFill { set } => format!("\"kind\":\"set_fill\",\"set\":{set}"),
        ProbeEvent::SetEvict { set } => format!("\"kind\":\"set_evict\",\"set\":{set}"),
        ProbeEvent::ConflictBit { set, set_bit } => {
            format!("\"kind\":\"conflict_bit\",\"set\":{set},\"set_bit\":{set_bit}")
        }
        ProbeEvent::Filter { unit, fired } => format!(
            "\"kind\":\"filter\",\"unit\":\"{}\",\"fired\":{fired}",
            unit.name()
        ),
        ProbeEvent::AmbPartition { role } => {
            format!("\"kind\":\"amb_partition\",\"role\":\"{}\"", role.name())
        }
        ProbeEvent::Oracle {
            oracle_conflict,
            agree,
        } => format!("\"kind\":\"oracle\",\"oracle_conflict\":{oracle_conflict},\"agree\":{agree}"),
    }
}

/// Streams one compact JSON object per event to a writer — the
/// `--probe raw` sink.
///
/// Write errors are sticky: the first failure stops further writes,
/// every event arriving after it is *counted* as dropped, and
/// [`JsonlSink::finish`] reports both numbers — nothing is swallowed
/// silently.
#[derive(Debug)]
pub struct JsonlSink<W: Write> {
    out: W,
    written: u64,
    dropped: u64,
    failed: bool,
}

impl<W: Write> JsonlSink<W> {
    /// Creates a sink writing to `out`.
    pub fn new(out: W) -> Self {
        JsonlSink {
            out,
            written: 0,
            dropped: 0,
            failed: false,
        }
    }

    /// Events the sink discarded after its first write failure (zero
    /// on a healthy sink).
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Consumes the sink, returning the writer and the number of
    /// events written, or an error if any write failed.
    ///
    /// # Errors
    ///
    /// Returns an I/O error if any event failed to serialize; the
    /// message carries the written/dropped counts so a partial file is
    /// diagnosable.
    pub fn finish(self) -> std::io::Result<(W, u64)> {
        if self.failed {
            return Err(std::io::Error::other(format!(
                "probe event write failed ({} events written, {} dropped after the failure)",
                self.written, self.dropped
            )));
        }
        Ok((self.out, self.written))
    }
}

impl<W: Write> Sink for JsonlSink<W> {
    fn event(&mut self, ev: &ProbeEvent) {
        if self.failed {
            self.dropped += 1;
            return;
        }
        if writeln!(self.out, "{{{}}}", event_json_fields(ev)).is_err() {
            self.failed = true;
            self.dropped += 1;
        } else {
            self.written += 1;
        }
    }
}

/// The probe layer's bit in the armed bitset: a sink is installed.
pub(crate) const ARMED_PROBE: u8 = 1;
/// The span layer's bit in the armed bitset: a scope is open (see
/// [`crate::span`]).
pub(crate) const ARMED_SPAN: u8 = 2;

thread_local! {
    /// This thread's armed bitset. A `const` cell with no destructor,
    /// so reading it is one thread-local load.
    static ARMED: Cell<u8> = const { Cell::new(0) };
    static SINK: RefCell<Option<Rc<RefCell<dyn Sink>>>> = const { RefCell::new(None) };
}

/// Whether `bit` is set in this thread's armed bitset.
#[inline]
pub(crate) fn armed(bit: u8) -> bool {
    ARMED.with(|a| a.get() & bit != 0)
}

/// Sets or clears `bit` in this thread's armed bitset.
pub(crate) fn set_armed(bit: u8, on: bool) {
    ARMED.with(|a| a.set(if on { a.get() | bit } else { a.get() & !bit }));
}

/// Whether a sink is installed on the calling thread.
///
/// Instrumentation sites use this to skip *constructing* expensive
/// events (e.g. a second MCT lookup for alias detail); [`emit`]
/// re-checks internally so calling it directly is always correct.
#[inline]
#[must_use]
pub fn active() -> bool {
    armed(ARMED_PROBE)
}

/// Emits an event to the current thread's sink, if one is installed.
#[inline]
pub fn emit(ev: ProbeEvent) {
    if !active() {
        return;
    }
    emit_slow(&ev);
}

#[cold]
fn emit_slow(ev: &ProbeEvent) {
    let sink = SINK.with(|s| s.borrow().clone());
    if let Some(sink) = sink {
        sink.borrow_mut().event(ev);
    }
}

/// Installs `sink` on the current thread for the duration of `f`,
/// restoring any previously installed sink afterwards (also on
/// unwind). Only this thread is armed. The caller keeps its own `Rc`
/// handle to read the sink back out.
pub fn with_sink<R>(sink: Rc<RefCell<dyn Sink>>, f: impl FnOnce() -> R) -> R {
    let _installed = Installed::new(&SINK, ARMED_PROBE, sink);
    f()
}

/// A value installed in a thread-local slot with its armed bit set.
/// Dropping it, also on unwind, puts the slot's previous value back
/// and re-arms the bit by whether that value exists. [`with_sink`] and
/// [`crate::span::scope`] share it.
pub(crate) struct Installed<T: 'static> {
    slot: &'static LocalKey<RefCell<Option<T>>>,
    bit: u8,
    prev: Option<Option<T>>,
}

impl<T: 'static> Installed<T> {
    /// Installs `value` in `slot` and sets `bit`.
    pub(crate) fn new(slot: &'static LocalKey<RefCell<Option<T>>>, bit: u8, value: T) -> Self {
        let prev = slot.with(|s| s.borrow_mut().replace(value));
        set_armed(bit, true);
        Installed {
            slot,
            bit,
            prev: Some(prev),
        }
    }

    /// Puts the previous value back (once) and returns the installed
    /// one.
    pub(crate) fn restore(&mut self) -> Option<T> {
        let prev = self.prev.take()?;
        set_armed(self.bit, prev.is_some());
        self.slot
            .with(|s| std::mem::replace(&mut *s.borrow_mut(), prev))
    }
}

impl<T: 'static> Drop for Installed<T> {
    fn drop(&mut self) {
        self.restore();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scoped<R>(sink: Rc<RefCell<EpochSink>>, f: impl FnOnce() -> R) -> CellProbe {
        with_sink(sink.clone(), f);
        Rc::try_unwrap(sink)
            .expect("sink uninstalled after scope")
            .into_inner()
            .finish()
    }

    #[test]
    fn disarmed_emit_is_silent() {
        assert!(!active());
        emit(ProbeEvent::Access { hit: true });
        assert!(!active());
    }

    #[test]
    fn epochs_close_on_access_boundaries() {
        let sink = Rc::new(RefCell::new(EpochSink::new(3)));
        let cell = scoped(sink, || {
            for i in 0..7 {
                emit(ProbeEvent::Access { hit: i % 2 == 0 });
            }
        });
        assert_eq!(cell.epochs.len(), 3, "two full epochs + one partial");
        assert_eq!(cell.epochs[0].accesses, 3);
        assert_eq!(cell.epochs[2].accesses, 1);
        assert_eq!(cell.totals.counter("access"), 7);
        assert_eq!(cell.totals.counter("access.hit"), 4);
    }

    #[test]
    fn classify_events_fold_into_epoch_and_hot_sets() {
        let sink = Rc::new(RefCell::new(EpochSink::new(10)));
        let cell = scoped(sink, || {
            emit(ProbeEvent::Access { hit: false });
            for _ in 0..3 {
                emit(ProbeEvent::Classify {
                    set: 5,
                    conflict: true,
                    lookup: MctLookup::Match,
                });
            }
            emit(ProbeEvent::Classify {
                set: 9,
                conflict: true,
                lookup: MctLookup::Alias,
            });
            emit(ProbeEvent::Classify {
                set: 2,
                conflict: false,
                lookup: MctLookup::Stale,
            });
        });
        let e = &cell.epochs[0];
        assert_eq!((e.conflict, e.capacity, e.alias), (4, 1, 1));
        assert_eq!(e.hot_sets, vec![(5, 3), (9, 1)]);
        assert_eq!(cell.hot_sets, vec![(5, 3), (9, 1)]);
        assert_eq!(cell.totals.counter("mct.match"), 3);
        assert_eq!(cell.totals.counter("mct.alias"), 1);
        assert_eq!(cell.totals.counter("mct.stale"), 1);
    }

    #[test]
    fn sinks_are_thread_local() {
        let sink = Rc::new(RefCell::new(EpochSink::new(4)));
        let cell = scoped(sink, || {
            emit(ProbeEvent::Access { hit: true });
            std::thread::scope(|scope| {
                scope.spawn(|| {
                    // The outer thread's sink arms only the outer
                    // thread: this one takes the disarmed path, and its
                    // event must not leak into the outer sink.
                    assert!(!active(), "a sink armed another thread");
                    emit(ProbeEvent::Access { hit: false });
                });
            });
        });
        assert_eq!(cell.totals.counter("access"), 1);
    }

    #[test]
    fn nested_scopes_restore_the_outer_sink() {
        let outer = Rc::new(RefCell::new(EpochSink::new(4)));
        let cell = scoped(outer, || {
            emit(ProbeEvent::Access { hit: true });
            let inner = Rc::new(RefCell::new(EpochSink::new(4)));
            with_sink(inner.clone(), || {
                emit(ProbeEvent::Access { hit: false });
            });
            let inner = Rc::try_unwrap(inner).unwrap().into_inner().finish();
            assert_eq!(inner.totals.counter("access"), 1);
            emit(ProbeEvent::Access { hit: true });
        });
        assert_eq!(cell.totals.counter("access"), 2);
        assert_eq!(cell.totals.counter("access.hit"), 2);
    }

    #[test]
    fn jsonl_sink_streams_one_object_per_line() {
        let sink = Rc::new(RefCell::new(JsonlSink::new(Vec::<u8>::new())));
        with_sink(sink.clone(), || {
            emit(ProbeEvent::Access { hit: true });
            emit(ProbeEvent::Filter {
                unit: FilterUnit::Prefetch,
                fired: false,
            });
        });
        let (buf, n) = Rc::try_unwrap(sink).unwrap().into_inner().finish().unwrap();
        assert_eq!(n, 2);
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(
            text,
            "{\"kind\":\"access\",\"hit\":true}\n\
             {\"kind\":\"filter\",\"unit\":\"prefetch\",\"fired\":false}\n"
        );
    }

    #[test]
    fn jsonl_sink_reports_failed_writes_and_dropped_events() {
        /// Accepts `limit` bytes, then fails every write.
        #[derive(Debug)]
        struct Choked {
            limit: usize,
            taken: usize,
        }
        impl std::io::Write for Choked {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                if self.taken + buf.len() > self.limit {
                    return Err(std::io::Error::other("disk full"));
                }
                self.taken += buf.len();
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }

        let mut sink = JsonlSink::new(Choked {
            limit: 40,
            taken: 0,
        });
        sink.event(&ProbeEvent::Access { hit: true }); // fits
        for _ in 0..3 {
            sink.event(&ProbeEvent::Access { hit: false }); // choked
        }
        assert_eq!(sink.dropped(), 3);
        let err = sink.finish().expect_err("failed sink must not finish Ok");
        let msg = err.to_string();
        assert!(msg.contains("1 events written"), "got: {msg}");
        assert!(msg.contains("3 dropped"), "got: {msg}");
    }

    #[test]
    fn registry_merge_adds_counters_and_histograms() {
        let mut a = Registry::new();
        a.bump("x", 2);
        a.record("h", 8);
        let mut b = Registry::new();
        b.bump("x", 3);
        b.bump("y", 1);
        b.record("h", 16);
        a.merge(&b);
        assert_eq!(a.counter("x"), 5);
        assert_eq!(a.counter("y"), 1);
        let h = a.histograms().next().unwrap().1;
        assert_eq!(h.count(), 2);
    }

    #[test]
    fn oracle_events_track_agreement() {
        let sink = Rc::new(RefCell::new(EpochSink::new(8)));
        let cell = scoped(sink, || {
            emit(ProbeEvent::Access { hit: false });
            emit(ProbeEvent::Oracle {
                oracle_conflict: true,
                agree: true,
            });
            emit(ProbeEvent::Oracle {
                oracle_conflict: false,
                agree: false,
            });
        });
        let e = &cell.epochs[0];
        assert_eq!((e.oracle_agree, e.oracle_total), (1, 2));
        assert_eq!(cell.totals.counter("oracle.conflict"), 1);
    }
}
