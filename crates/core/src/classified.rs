//! A set-associative cache with an attached Miss Classification Table
//! and per-line conflict bits.

use cache_model::{BlockSink, CacheGeometry, CacheStats, SetAssocCache};
use sim_core::probe;
use sim_core::LineAddr;

use crate::{ConflictFilter, EvictionClassifier, MissClass, MissClassificationTable, TagBits};

/// The classification of one event in a block replay
/// ([`ClassifyingCache::access_parts_block`]).
///
/// The compressed form of [`AccessOutcome`] the block path scatters
/// into a plain outcome array: bulk consumers need only the
/// hit/conflict/capacity split, not the per-miss eviction detail.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BlockClass {
    /// The line was resident.
    #[default]
    Hit,
    /// The miss was classified as a conflict miss.
    Conflict,
    /// The miss was classified as a capacity (or compulsory) miss.
    Capacity,
}

/// The block sink that runs the MCT protocol per event: classify
/// **before** the fill, carry the conflict bit as line metadata,
/// record the eviction. It emits the same probe events as
/// [`ClassifyingCache::access_parts`], in the same order, and hands
/// each finished event's class to `done`.
struct MctSink<'a, T, F> {
    table: &'a mut T,
    conflict_misses: &'a mut u64,
    capacity_misses: &'a mut u64,
    /// The class of the miss whose fill is in flight.
    class: BlockClass,
    done: F,
}

impl<T: EvictionClassifier, F: FnMut(usize, BlockClass)> BlockSink<bool> for MctSink<'_, T, F> {
    #[inline]
    fn hit(&mut self, index: usize, _conflict_bit: &mut bool) {
        probe::emit(probe::ProbeEvent::Access { hit: true });
        (self.done)(index, BlockClass::Hit);
    }

    #[inline]
    fn miss(&mut self, _index: usize, set: usize, tag: u64) -> bool {
        probe::emit(probe::ProbeEvent::Access { hit: false });
        let class = self.table.classify(set, tag);
        match class {
            MissClass::Conflict => *self.conflict_misses += 1,
            MissClass::Capacity => *self.capacity_misses += 1,
        }
        self.class = if class.is_conflict() {
            probe::emit(probe::ProbeEvent::ConflictBit {
                set: set as u32,
                set_bit: true,
            });
            BlockClass::Conflict
        } else {
            BlockClass::Capacity
        };
        class.is_conflict()
    }

    #[inline]
    fn filled(&mut self, index: usize, set: usize, evicted: Option<(u64, bool)>) {
        if let Some((evicted_tag, conflict_bit)) = evicted {
            if conflict_bit {
                probe::emit(probe::ProbeEvent::ConflictBit {
                    set: set as u32,
                    set_bit: false,
                });
            }
            self.table.record_eviction(set, evicted_tag);
        }
        (self.done)(index, self.class);
    }
}

/// The line displaced by a fill, together with its conflict bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvictedLine {
    /// Address of the displaced line.
    pub line: LineAddr,
    /// Whether the displaced line originally entered the cache on a
    /// conflict miss (the paper's per-line *conflict bit*).
    pub conflict_bit: bool,
}

/// Everything known about one classified miss.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MissDetail {
    /// The MCT's classification of the incoming miss.
    pub class: MissClass,
    /// The displaced line, if the fill evicted one.
    pub evicted: Option<EvictedLine>,
}

impl MissDetail {
    /// Evaluates one of the paper's eviction-time filters for this
    /// miss. With no eviction, the evicted conflict bit reads as
    /// `false`.
    #[must_use]
    pub fn filter_fires(&self, filter: ConflictFilter) -> bool {
        filter.fires(
            self.class.is_conflict(),
            self.evicted.is_some_and(|e| e.conflict_bit),
        )
    }
}

/// The outcome of one access to a [`ClassifyingCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessOutcome {
    /// The line was resident; its current conflict bit is reported.
    Hit {
        /// The resident line's conflict bit.
        conflict_bit: bool,
    },
    /// The line missed and was filled; the classification and any
    /// eviction are reported.
    Miss(MissDetail),
}

impl AccessOutcome {
    /// `true` on a hit.
    #[must_use]
    pub const fn is_hit(&self) -> bool {
        matches!(self, AccessOutcome::Hit { .. })
    }

    /// The miss detail, if this was a miss.
    #[must_use]
    pub const fn miss(&self) -> Option<&MissDetail> {
        match self {
            AccessOutcome::Hit { .. } => None,
            AccessOutcome::Miss(d) => Some(d),
        }
    }
}

/// A cache whose every miss is classified by an MCT, and whose lines
/// carry conflict bits (paper §3).
///
/// [`ClassifyingCache::access`] drives the full protocol: probe,
/// classify **before** updating, fill with the conflict bit, record
/// the eviction. Architectures that need to make placement decisions
/// between those steps (cache exclusion decides whether to fill at
/// all) use the lower-level [`classify_miss`](Self::classify_miss) /
/// [`fill`](Self::fill) / [`note_bypass`](Self::note_bypass) methods.
///
/// # Examples
///
/// ```
/// use cache_model::CacheGeometry;
/// use mct::{ClassifyingCache, MissClass, TagBits};
/// use sim_core::LineAddr;
///
/// let geom = CacheGeometry::new(256, 1, 64)?; // 4 sets, direct-mapped
/// let mut c = ClassifyingCache::new(geom, TagBits::Full);
/// c.access(LineAddr::new(1));     // compulsory
/// c.access(LineAddr::new(5));     // evicts line 1 (same set)
/// let outcome = c.access(LineAddr::new(1));
/// assert_eq!(outcome.miss().unwrap().class, MissClass::Conflict);
/// # Ok::<(), cache_model::ConfigError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ClassifyingCache<T = MissClassificationTable> {
    cache: SetAssocCache<bool>,
    table: T,
    conflict_misses: u64,
    capacity_misses: u64,
}

impl ClassifyingCache {
    /// Creates an empty classifying cache with the paper's one-entry
    /// MCT.
    #[must_use]
    pub fn new(geom: CacheGeometry, tag_bits: TagBits) -> Self {
        let table = MissClassificationTable::new(geom.num_sets(), tag_bits);
        Self::with_classifier(geom, table)
    }
}

impl<T: EvictionClassifier> ClassifyingCache<T> {
    /// Creates a classifying cache around any eviction classifier
    /// (e.g. a [`ShadowDirectory`](crate::ShadowDirectory) with depth
    /// greater than one).
    #[must_use]
    pub fn with_classifier(geom: CacheGeometry, table: T) -> Self {
        let mut cache = SetAssocCache::new(geom);
        // The classifying cache is always the unit an experiment
        // measures, so it reports per-set fill/evict probe events.
        cache.enable_set_probes();
        ClassifyingCache {
            cache,
            table,
            conflict_misses: 0,
            capacity_misses: 0,
        }
    }

    /// The cache geometry.
    #[must_use]
    pub fn geometry(&self) -> &CacheGeometry {
        self.cache.geometry()
    }

    /// Hit/miss statistics of the underlying cache.
    #[must_use]
    pub fn stats(&self) -> &CacheStats {
        self.cache.stats()
    }

    /// Counts of misses classified (conflict, capacity) by
    /// [`Self::access`].
    #[must_use]
    pub const fn class_counts(&self) -> (u64, u64) {
        (self.conflict_misses, self.capacity_misses)
    }

    /// Read access to the attached classifier.
    #[must_use]
    pub fn table(&self) -> &T {
        &self.table
    }

    /// One full access: probe, and on a miss classify + fill + record
    /// the eviction.
    pub fn access(&mut self, line: LineAddr) -> AccessOutcome {
        let geom = *self.cache.geometry();
        self.access_parts(geom.set_index(line), geom.tag(line))
    }

    /// [`Self::access`] with the line already split into set index and
    /// tag — the decomposed-replay fast path. Equivalent to
    /// `access(geometry.line_from_parts(tag, set))`, without
    /// re-deriving the parts.
    pub fn access_parts(&mut self, set: usize, tag: u64) -> AccessOutcome {
        if let Some(bit) = self.cache.probe_at(set, tag) {
            let conflict_bit = *bit;
            probe::emit(probe::ProbeEvent::Access { hit: true });
            return AccessOutcome::Hit { conflict_bit };
        }
        probe::emit(probe::ProbeEvent::Access { hit: false });
        let class = self.table.classify(set, tag);
        match class {
            MissClass::Conflict => self.conflict_misses += 1,
            MissClass::Capacity => self.capacity_misses += 1,
        }
        let evicted = self.fill_parts(set, tag, class.is_conflict());
        AccessOutcome::Miss(MissDetail { class, evicted })
    }

    /// Replays a block of decomposed accesses, scattering each
    /// event's classification into `out`.
    ///
    /// Equivalent to calling [`Self::access_parts`] per event and
    /// recording `Hit`/`Conflict`/`Capacity`, but the underlying
    /// kernel folds adjacent same-set events into runs
    /// ([`SetAssocCache::access_block_with`]). The MCT protocol is
    /// unchanged: each miss is classified against pre-fill state and
    /// each eviction is recorded, in trace order.
    ///
    /// An armed probe sink takes the same kernel: the sink and the
    /// kernel emit each event's `Access`, `Classify`, `ConflictBit`,
    /// `SetFill` and `SetEvict` in per-event order, so the stream is
    /// byte-identical to unbatched replay.
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length or a set index is out of
    /// range for the geometry.
    pub fn access_parts_block(&mut self, sets: &[u32], tags: &[u64], out: &mut [BlockClass]) {
        // `move` captures the slice itself, not a reference to it,
        // saving an indirection per event in the kernel loop.
        self.access_parts_block_with(sets, tags, move |i, class| out[i] = class);
    }

    /// [`Self::access_parts_block`] with a callback in place of the
    /// outcome array: `done(i, class)` runs once per event, in trace
    /// order, after event `i` is complete (a miss's fill and eviction
    /// recorded, its probe events emitted).
    pub(crate) fn access_parts_block_with(
        &mut self,
        sets: &[u32],
        tags: &[u64],
        done: impl FnMut(usize, BlockClass),
    ) {
        let mut sink = MctSink {
            table: &mut self.table,
            conflict_misses: &mut self.conflict_misses,
            capacity_misses: &mut self.capacity_misses,
            class: BlockClass::Hit,
            done,
        };
        self.cache.access_block_with(sets, tags, &mut sink);
    }

    /// Classifies a miss on `line` without changing any state.
    ///
    /// Valid only when the line is *not* resident (the MCT is read on
    /// misses); resident lines were classified when they were filled.
    #[must_use]
    pub fn classify_miss(&self, line: LineAddr) -> MissClass {
        let geom = self.cache.geometry();
        self.table.classify(geom.set_index(line), geom.tag(line))
    }

    /// Probes without filling: updates recency and hit/miss counters,
    /// returning the conflict bit on a hit.
    pub fn probe(&mut self, line: LineAddr) -> Option<bool> {
        self.cache.probe(line).map(|b| *b)
    }

    /// Whether the line is resident (no side effects).
    #[must_use]
    pub fn contains(&self, line: LineAddr) -> bool {
        self.cache.contains(line)
    }

    /// The resident line's conflict bit, if resident (no side
    /// effects).
    #[must_use]
    pub fn conflict_bit(&self, line: LineAddr) -> Option<bool> {
        self.cache.peek(line).copied()
    }

    /// Fills `line` with the given conflict bit; any displaced line is
    /// recorded in the MCT and returned.
    pub fn fill(&mut self, line: LineAddr, conflict_bit: bool) -> Option<EvictedLine> {
        let geom = *self.cache.geometry();
        self.fill_parts(geom.set_index(line), geom.tag(line), conflict_bit)
    }

    /// [`Self::fill`] with the line already split into set index and
    /// tag. The displaced line (always from the same set) is recorded
    /// in the MCT and returned.
    pub fn fill_parts(&mut self, set: usize, tag: u64, conflict_bit: bool) -> Option<EvictedLine> {
        debug_assert!(
            self.cache.peek_at(set, tag).is_none(),
            "double fill of set {set} tag {tag:#x}"
        );
        if conflict_bit && probe::active() {
            probe::emit(probe::ProbeEvent::ConflictBit {
                set: set as u32,
                set_bit: true,
            });
        }
        let evicted = self.cache.fill_at(set, tag, conflict_bit);
        evicted.map(|ev| {
            let evicted_tag = self.cache.geometry().tag(ev.line);
            if ev.meta && probe::active() {
                probe::emit(probe::ProbeEvent::ConflictBit {
                    set: set as u32,
                    set_bit: false,
                });
            }
            self.table.record_eviction(set, evicted_tag);
            EvictedLine {
                line: ev.line,
                conflict_bit: ev.meta,
            }
        })
    }

    /// Removes a line (for victim-cache swaps), returning its conflict
    /// bit. Does **not** touch the MCT: whether a swap counts as an
    /// eviction is an architecture policy, expressed via
    /// [`Self::record_eviction_of`].
    pub fn invalidate(&mut self, line: LineAddr) -> Option<bool> {
        self.cache.invalidate(line)
    }

    /// Manually records `line` as the most recent eviction of its set.
    pub fn record_eviction_of(&mut self, line: LineAddr) {
        let geom = self.cache.geometry();
        let set = geom.set_index(line);
        let tag = geom.tag(line);
        self.table.record_eviction(set, tag);
    }

    /// The paper's bypass fix-up (§5.3): when a miss is excluded into
    /// a bypass buffer instead of the cache, install its tag in the
    /// MCT entry of the set it *would* have occupied, so a later miss
    /// on it can still be classified as a conflict.
    pub fn note_bypass(&mut self, line: LineAddr) {
        self.record_eviction_of(line);
    }

    /// The line a fill of `line` would displace right now, if any.
    #[must_use]
    pub fn eviction_candidate(&self, line: LineAddr) -> Option<LineAddr> {
        self.cache.eviction_candidate(line)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dm4() -> ClassifyingCache {
        // 4 sets, direct-mapped, 64-byte lines.
        ClassifyingCache::new(CacheGeometry::new(256, 1, 64).unwrap(), TagBits::Full)
    }

    fn line(n: u64) -> LineAddr {
        LineAddr::new(n)
    }

    #[test]
    fn compulsory_miss_is_capacity_class() {
        let mut c = dm4();
        let out = c.access(line(0));
        assert_eq!(out.miss().unwrap().class, MissClass::Capacity);
        assert_eq!(c.class_counts(), (0, 1));
    }

    #[test]
    fn classic_conflict_scenario() {
        let mut c = dm4();
        c.access(line(1)); // A
        c.access(line(5)); // B evicts A, MCT remembers A
        let out = c.access(line(1)); // A again: conflict
        let detail = out.miss().unwrap();
        assert_eq!(detail.class, MissClass::Conflict);
        // The fill evicted B, whose conflict bit was clear (B came in
        // on a capacity miss).
        let ev = detail.evicted.unwrap();
        assert_eq!(ev.line, line(5));
        assert!(!ev.conflict_bit);
    }

    #[test]
    fn conflict_bit_travels_with_line() {
        let mut c = dm4();
        c.access(line(1));
        c.access(line(5));
        c.access(line(1)); // conflict: line 1 resident with bit set
        assert_eq!(c.conflict_bit(line(1)), Some(true));
        // Evicting line 1 now exposes its conflict bit.
        let out = c.access(line(9));
        let ev = out.miss().unwrap().evicted.unwrap();
        assert_eq!(ev.line, line(1));
        assert!(ev.conflict_bit);
    }

    #[test]
    fn hit_reports_conflict_bit() {
        let mut c = dm4();
        c.access(line(1));
        c.access(line(5));
        c.access(line(1));
        match c.access(line(1)) {
            AccessOutcome::Hit { conflict_bit } => assert!(conflict_bit),
            other => panic!("expected hit, got {other:?}"),
        }
    }

    #[test]
    fn classification_happens_before_mct_update() {
        let mut c = dm4();
        c.access(line(1)); // A
                           // B evicts A; if the MCT were updated before classifying, B
                           // itself could never be classified against A's tag.
        let out = c.access(line(5));
        assert_eq!(out.miss().unwrap().class, MissClass::Capacity);
        // And a miss on B after C evicts it must be a conflict.
        c.access(line(9)); // C evicts B
        let out = c.access(line(5));
        assert_eq!(out.miss().unwrap().class, MissClass::Conflict);
    }

    #[test]
    fn note_bypass_enables_later_conflict_classification() {
        let mut c = dm4();
        // Line 1 is excluded to a bypass buffer: never filled, but its
        // tag is installed in the MCT.
        assert_eq!(c.classify_miss(line(1)), MissClass::Capacity);
        c.note_bypass(line(1));
        assert_eq!(c.classify_miss(line(1)), MissClass::Conflict);
    }

    #[test]
    fn filter_evaluation_on_miss_detail() {
        let detail = MissDetail {
            class: MissClass::Conflict,
            evicted: Some(EvictedLine {
                line: line(0),
                conflict_bit: false,
            }),
        };
        assert!(detail.filter_fires(ConflictFilter::OutConflict));
        assert!(detail.filter_fires(ConflictFilter::OrConflict));
        assert!(!detail.filter_fires(ConflictFilter::InConflict));
        assert!(!detail.filter_fires(ConflictFilter::AndConflict));
    }

    #[test]
    fn filter_with_no_eviction_reads_bit_as_false() {
        let detail = MissDetail {
            class: MissClass::Capacity,
            evicted: None,
        };
        for f in ConflictFilter::ALL {
            assert!(!detail.filter_fires(f), "{f}");
        }
    }

    #[test]
    fn invalidate_does_not_touch_mct() {
        let mut c = dm4();
        c.access(line(1));
        c.invalidate(line(1));
        // No eviction was recorded, so a miss on line 1 is capacity.
        assert_eq!(c.classify_miss(line(1)), MissClass::Capacity);
    }

    #[test]
    fn two_way_cache_classifies_with_dm_mct() {
        // 2-way, 2 sets: MCT still one entry per set.
        let geom = CacheGeometry::new(256, 2, 64).unwrap();
        let mut c = ClassifyingCache::new(geom, TagBits::Full);
        assert_eq!(c.table().num_sets(), 2);
        c.access(line(0));
        c.access(line(2)); // same set, second way
        c.access(line(4)); // evicts line 0 (LRU)
        let out = c.access(line(0));
        assert_eq!(out.miss().unwrap().class, MissClass::Conflict);
    }
}
