//! Scoring the MCT against the classic three-C oracle
//! (paper Figures 1 and 2).
//!
//! For every miss of the real (set-associative) cache, the oracle says
//! whether it was a conflict miss in the classic sense (a
//! fully-associative LRU cache of equal capacity would have hit) or a
//! non-conflict miss (capacity/compulsory). The MCT's on-the-fly label
//! is compared against that ground truth:
//!
//! * **conflict accuracy** — fraction of oracle-conflict misses the
//!   MCT also labels conflict;
//! * **capacity accuracy** — fraction of oracle-non-conflict misses
//!   the MCT labels capacity.
//!
//! Scoring has one path. A [`CacheKernel`] replays a block of
//! references through the real cache once and records its misses in a
//! [`MissBlock`]. An [`AccuracyScorer`] then walks only those misses: it classifies each
//! one with its own MCT before the fill, records the eviction, and
//! scores it against the oracle's verdict, which the caller supplies.
//! The MCT is read only on a miss and written only on an eviction
//! (§3), so it never changes which lines the cache holds: every scorer
//! on one geometry can read one kernel, and every scorer of one
//! capacity one verdict array (group replay). [`AccuracyEvaluator`] is
//! the standalone form: one kernel, one scorer and its own oracle.
//!
//! # Examples
//!
//! ```
//! use cache_model::CacheGeometry;
//! use mct::accuracy::AccuracyEvaluator;
//! use mct::TagBits;
//! use sim_core::LineAddr;
//!
//! let geom = CacheGeometry::new(1024, 1, 64)?; // 16 sets DM
//! let mut eval = AccuracyEvaluator::new(geom, TagBits::Full);
//! // Two lines fighting over one set: classic conflict behaviour.
//! for _ in 0..100 {
//!     eval.observe(LineAddr::new(0));
//!     eval.observe(LineAddr::new(16));
//! }
//! let report = eval.finish();
//! assert!(report.conflict.value() > 0.9);
//! # Ok::<(), cache_model::ConfigError>(())
//! ```

use cache_model::oracle::FullyAssocLru;
use cache_model::{BlockSink, CacheGeometry, SetAssocCache};
use sim_core::probe;
use sim_core::stats::Ratio;
use sim_core::LineAddr;

use crate::{EvictionClassifier, MissClassificationTable, TagBits};

/// Accuracy of the MCT over one reference stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AccuracyReport {
    /// Oracle-conflict misses the MCT labelled conflict.
    pub conflict: Ratio,
    /// Oracle-non-conflict (capacity + compulsory) misses the MCT
    /// labelled capacity.
    pub capacity: Ratio,
    /// Total references observed.
    pub accesses: u64,
    /// Total real-cache misses observed.
    pub misses: u64,
}

impl AccuracyReport {
    /// Fraction of all misses classified in agreement with the oracle.
    #[must_use]
    pub fn overall(&self) -> f64 {
        let agree = self.conflict.numerator() + self.capacity.numerator();
        let total = self.conflict.denominator() + self.capacity.denominator();
        if total == 0 {
            0.0
        } else {
            agree as f64 / total as f64
        }
    }

    /// Merges another report's tallies into this one (suite
    /// averaging).
    pub fn merge(&mut self, other: &AccuracyReport) {
        self.conflict.merge(other.conflict);
        self.capacity.merge(other.capacity);
        self.accesses += other.accesses;
        self.misses += other.misses;
    }

    /// Real-cache misses the MCT labelled capacity. The MCT labels
    /// every miss conflict or capacity, so these are the
    /// oracle-non-conflict agreements plus the oracle-conflict
    /// disagreements.
    #[must_use]
    pub fn mct_capacity(&self) -> u64 {
        self.capacity.numerator() + (self.conflict.denominator() - self.conflict.numerator())
    }

    /// Tallies one real-cache miss and returns whether the MCT agreed
    /// with the oracle.
    fn score_miss(&mut self, oracle_conflict: bool, mct_conflict: bool) -> bool {
        self.misses += 1;
        // The MCT labels every miss conflict or capacity, so it agrees
        // exactly when both sides call the miss a conflict or neither
        // does.
        let agree = oracle_conflict == mct_conflict;
        if oracle_conflict {
            self.conflict.record(agree);
        } else {
            self.capacity.record(agree);
        }
        agree
    }
}

/// One miss of a [`MissBlock`].
#[derive(Debug, Clone, Copy)]
struct KernelMiss {
    /// The miss's position in its block.
    index: u32,
    set: u32,
    /// The way slot the fill wrote, `set * associativity + way`.
    slot: u32,
    tag: u64,
    /// The tag of the line the fill displaced, if any.
    evicted: Option<u64>,
}

/// The misses of one block that a [`CacheKernel`] replayed, in trace
/// order: what every [`AccuracyScorer`] of the kernel's geometry reads.
/// The buffer is reused from block to block.
#[derive(Debug, Clone, Default)]
pub struct MissBlock {
    misses: Vec<KernelMiss>,
    /// The block's length, hits included.
    events: usize,
}

impl MissBlock {
    /// An empty buffer with room for `block` misses, so blocks of up
    /// to that length never grow it.
    #[must_use]
    pub fn with_block(block: usize) -> Self {
        MissBlock {
            misses: Vec::with_capacity(block),
            events: 0,
        }
    }
}

/// The block sink that records a [`CacheKernel`]'s misses.
struct MissSink<'a> {
    misses: &'a mut Vec<KernelMiss>,
    assoc: usize,
    /// The tag of the miss whose fill is in flight.
    tag: u64,
}

impl BlockSink<()> for MissSink<'_> {
    #[inline]
    fn hit(&mut self, _index: usize, _meta: &mut ()) {}

    #[inline]
    fn miss(&mut self, _index: usize, _set: usize, tag: u64) {
        self.tag = tag;
    }

    #[inline]
    fn filled(&mut self, index: usize, set: usize, way: usize, evicted: Option<(u64, ())>) {
        self.misses.push(KernelMiss {
            index: index as u32,
            set: set as u32,
            slot: (set * self.assoc + way) as u32,
            tag: self.tag,
            evicted: evicted.map(|(tag, ())| tag),
        });
    }
}

/// The real cache of an accuracy cell: an LRU cache that replays each
/// block once into a [`MissBlock`], for any number of
/// [`AccuracyScorer`]s of its geometry to read.
///
/// It carries no MCT and emits no probe events; each scorer emits its
/// own cell's events as it walks the misses.
#[derive(Debug, Clone)]
pub struct CacheKernel {
    cache: SetAssocCache<()>,
}

impl CacheKernel {
    /// Creates an empty kernel.
    #[must_use]
    pub fn new(geom: CacheGeometry) -> Self {
        CacheKernel {
            cache: SetAssocCache::new(geom),
        }
    }

    /// The cache geometry.
    #[must_use]
    pub fn geometry(&self) -> &CacheGeometry {
        self.cache.geometry()
    }

    /// Replays a block of decomposed references (parallel arrays in
    /// trace order) and records its misses in `out`, replacing what
    /// `out` held.
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length or a set index is out of
    /// range for the geometry.
    pub fn access_block(&mut self, sets: &[u32], tags: &[u64], out: &mut MissBlock) {
        out.misses.clear();
        out.events = sets.len();
        let mut sink = MissSink {
            misses: &mut out.misses,
            assoc: self.cache.geometry().associativity() as usize,
            tag: 0,
        };
        self.cache.access_block_with(sets, tags, &mut sink);
    }
}

/// One accuracy cell's MCT state, scored against the misses a
/// [`CacheKernel`] of its geometry recorded and oracle verdicts that
/// the caller supplies. It holds no cache and no oracle of its own.
///
/// A verdict is `true` when a fully-associative LRU cache of the real
/// cache's capacity would have hit, as
/// [`FullyAssocLru::observe_conflict`] reports it. Group replay
/// computes one verdict array per capacity and one kernel per geometry
/// and scores every cell against them.
#[derive(Debug, Clone)]
pub struct AccuracyScorer<T = MissClassificationTable> {
    table: T,
    /// The per-line conflict bit (paper §3), per way slot of the
    /// kernel's cache: set when the line entered on a conflict miss.
    conflict_bits: Box<[bool]>,
    report: AccuracyReport,
}

impl<T: EvictionClassifier> AccuracyScorer<T> {
    /// Creates a scorer for a cell of geometry `geom` around any
    /// eviction classifier (the shadow-directory depth ablation uses
    /// this).
    #[must_use]
    pub fn with_classifier(geom: CacheGeometry, table: T) -> Self {
        AccuracyScorer {
            table,
            conflict_bits: vec![false; geom.num_lines()].into_boxed_slice(),
            report: AccuracyReport::default(),
        }
    }

    /// Scores a block that a kernel of this scorer's geometry replayed
    /// into `block` against its oracle verdicts (one per event of the
    /// block). Hits count as accesses only; each miss runs the MCT
    /// protocol in trace order: classify **before** the fill, record
    /// the eviction, score.
    ///
    /// The armed state is read once per block. When a probe sink is
    /// armed the walk emits the events this cell's own classifying
    /// cache would emit, in per-event order: an `Access` per hit
    /// between misses, then per miss `Access`, `Classify`,
    /// `ConflictBit`, `SetFill`, `SetEvict`, the conflict bit's clear,
    /// and `Oracle`.
    ///
    /// # Panics
    ///
    /// Panics if `oracle_conflict` is shorter than the block or the
    /// kernel's geometry has more lines than this scorer's.
    pub fn score_block(&mut self, block: &MissBlock, oracle_conflict: &[bool]) {
        let armed = probe::active();
        self.report.accesses += block.events as u64;
        let mut next = 0;
        for miss in &block.misses {
            let index = miss.index as usize;
            let set = miss.set as usize;
            if armed {
                emit_hits(index - next);
                probe::emit(probe::ProbeEvent::Access { hit: false });
            }
            let conflict = self.table.classify(set, miss.tag).is_conflict();
            if armed {
                if conflict {
                    probe::emit(probe::ProbeEvent::ConflictBit {
                        set: miss.set,
                        set_bit: true,
                    });
                }
                probe::emit(probe::ProbeEvent::SetFill { set: miss.set });
            }
            let slot = miss.slot as usize;
            if let Some(evicted_tag) = miss.evicted {
                if armed {
                    probe::emit(probe::ProbeEvent::SetEvict { set: miss.set });
                    if self.conflict_bits[slot] {
                        probe::emit(probe::ProbeEvent::ConflictBit {
                            set: miss.set,
                            set_bit: false,
                        });
                    }
                }
                self.table.record_eviction(set, evicted_tag);
            }
            self.conflict_bits[slot] = conflict;
            let oracle_conflict = oracle_conflict[index];
            let agree = self.report.score_miss(oracle_conflict, conflict);
            if armed {
                probe::emit(probe::ProbeEvent::Oracle {
                    oracle_conflict,
                    agree,
                });
            }
            next = index + 1;
        }
        if armed {
            emit_hits(block.events - next);
        }
    }

    /// Returns the accumulated report.
    #[must_use]
    pub fn finish(self) -> AccuracyReport {
        self.report
    }

    /// The report so far, without consuming the scorer.
    #[must_use]
    pub fn report(&self) -> &AccuracyReport {
        &self.report
    }
}

/// Emits `count` hit `Access` events (armed walks only).
fn emit_hits(count: usize) {
    for _ in 0..count {
        probe::emit(probe::ProbeEvent::Access { hit: true });
    }
}

/// An [`AccuracyScorer`] with its own [`CacheKernel`] and its own
/// oracle: a [`FullyAssocLru`] shadow of the cache's line capacity,
/// fed the same reference stream.
#[derive(Debug, Clone)]
pub struct AccuracyEvaluator<T = MissClassificationTable> {
    kernel: CacheKernel,
    /// Scratch: the current block's misses, reused across blocks.
    misses: MissBlock,
    scorer: AccuracyScorer<T>,
    shadow: FullyAssocLru,
    /// Scratch: the current block's oracle verdicts, reused across
    /// blocks.
    verdicts: Vec<bool>,
}

impl AccuracyEvaluator {
    /// Creates an evaluator for the given cache shape and MCT tag
    /// width. The oracle's shadow cache gets the same line capacity.
    #[must_use]
    pub fn new(geom: CacheGeometry, tag_bits: TagBits) -> Self {
        Self::with_classifier(
            geom,
            MissClassificationTable::new(geom.num_sets(), tag_bits),
        )
    }
}

impl<T: EvictionClassifier> AccuracyEvaluator<T> {
    /// Creates an evaluator around any eviction classifier (the
    /// shadow-directory depth ablation uses this).
    #[must_use]
    pub fn with_classifier(geom: CacheGeometry, table: T) -> Self {
        AccuracyEvaluator {
            kernel: CacheKernel::new(geom),
            misses: MissBlock::default(),
            scorer: AccuracyScorer::with_classifier(geom, table),
            shadow: FullyAssocLru::new(geom.num_lines()),
            verdicts: Vec::new(),
        }
    }

    /// Observes one reference (the oracle must see hits too).
    pub fn observe(&mut self, line: LineAddr) {
        let geom = *self.kernel.geometry();
        self.observe_parts(geom.set_index(line), geom.tag(line));
    }

    /// [`Self::observe`] with the line already split into set index
    /// and tag (decomposed replay): a one-event
    /// [`Self::observe_block`].
    pub fn observe_parts(&mut self, set: usize, tag: u64) {
        let line = self.kernel.geometry().line_from_parts(tag, set);
        let verdict = self.shadow.observe_conflict(line);
        self.kernel
            .access_block(&[set as u32], &[tag], &mut self.misses);
        self.scorer.score_block(&self.misses, &[verdict]);
    }

    /// Observes a block of decomposed references
    /// ([`Self::observe_parts`] in bulk — the block replay path).
    ///
    /// The oracle is *globally* order-sensitive (its shadow
    /// fully-associative cache sees every reference), so it runs first,
    /// sequentially in trace order, into a scratch verdict array. The
    /// oracle sees each whole line, reconstructed with
    /// `line_from_parts`. Then the kernel replays the block and the
    /// scorer walks its misses ([`AccuracyScorer::score_block`]).
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length or a set index is out of
    /// range for the geometry.
    pub fn observe_block(&mut self, sets: &[u32], tags: &[u64]) {
        let geom = *self.kernel.geometry();
        let shadow = &mut self.shadow;
        self.verdicts.clear();
        self.verdicts.extend(
            sets.iter().zip(tags).map(|(&set, &tag)| {
                shadow.observe_conflict(geom.line_from_parts(tag, set as usize))
            }),
        );
        self.kernel.access_block(sets, tags, &mut self.misses);
        self.scorer.score_block(&self.misses, &self.verdicts);
    }

    /// Returns the accumulated report.
    #[must_use]
    pub fn finish(self) -> AccuracyReport {
        self.scorer.finish()
    }

    /// The report so far, without consuming the evaluator.
    #[must_use]
    pub fn report(&self) -> &AccuracyReport {
        self.scorer.report()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(n: u64) -> LineAddr {
        LineAddr::new(n)
    }

    fn dm(sets: u64) -> CacheGeometry {
        CacheGeometry::new(sets * 64, 1, 64).unwrap()
    }

    #[test]
    fn pure_conflict_stream_scores_high_conflict_accuracy() {
        // 16-set DM cache; lines 0 and 16 collide but the total
        // working set (2 lines) is far below capacity (16 lines):
        // every non-compulsory miss is an oracle conflict miss.
        let mut eval = AccuracyEvaluator::new(dm(16), TagBits::Full);
        for _ in 0..1000 {
            eval.observe(line(0));
            eval.observe(line(16));
        }
        let r = eval.finish();
        assert!(r.conflict.denominator() > 1500);
        assert!(
            r.conflict.value() > 0.99,
            "conflict accuracy {}",
            r.conflict.value()
        );
    }

    #[test]
    fn pure_capacity_stream_scores_high_capacity_accuracy() {
        // Cyclic sweep over 64 lines through a 16-line cache: every
        // miss (after warmup) is a capacity miss for both models.
        let mut eval = AccuracyEvaluator::new(dm(16), TagBits::Full);
        for _ in 0..50 {
            for n in 0..64 {
                eval.observe(line(n));
            }
        }
        let r = eval.finish();
        assert!(r.capacity.denominator() > 1000);
        assert!(
            r.capacity.value() > 0.95,
            "capacity accuracy {}",
            r.capacity.value()
        );
        // No oracle conflict misses should exist at all in a pure
        // cyclic sweep of a direct-mapped cache (FA LRU misses too).
        assert!(r.conflict.denominator() < r.misses / 10);
    }

    #[test]
    fn hits_do_not_enter_the_report() {
        let mut eval = AccuracyEvaluator::new(dm(4), TagBits::Full);
        eval.observe(line(0));
        for _ in 0..99 {
            eval.observe(line(0));
        }
        let r = eval.finish();
        assert_eq!(r.accesses, 100);
        assert_eq!(r.misses, 1);
        assert_eq!(r.conflict.denominator() + r.capacity.denominator(), 1);
    }

    #[test]
    fn scorers_sharing_one_kernel_and_shadow_match_standalone_evaluators() {
        // Three tag widths on one geometry walk one kernel's misses and
        // score against one shadow's verdicts, block by block; each
        // must equal its own evaluator.
        let geom = dm(16);
        let mut rng = sim_core::rng::SplitMix64::new(3);
        let lines: Vec<LineAddr> = (0..5_000).map(|_| line(rng.next_below(48))).collect();
        let sets: Vec<u32> = lines.iter().map(|&l| geom.set_index(l) as u32).collect();
        let tags: Vec<u64> = lines.iter().map(|&l| geom.tag(l)).collect();
        let mut shadow = FullyAssocLru::new(geom.num_lines());
        let verdicts: Vec<bool> = lines.iter().map(|&l| shadow.observe_conflict(l)).collect();
        let widths = [TagBits::Low(1), TagBits::Low(3), TagBits::Full];
        let mut scorers: Vec<AccuracyScorer> = widths
            .iter()
            .map(|&bits| {
                let table = MissClassificationTable::new(geom.num_sets(), bits);
                AccuracyScorer::with_classifier(geom, table)
            })
            .collect();
        let mut kernel = CacheKernel::new(geom);
        let mut misses = MissBlock::with_block(700);
        for ((s, t), v) in sets
            .chunks(700)
            .zip(tags.chunks(700))
            .zip(verdicts.chunks(700))
        {
            kernel.access_block(s, t, &mut misses);
            for scorer in &mut scorers {
                scorer.score_block(&misses, v);
            }
        }
        for (bits, scorer) in widths.into_iter().zip(scorers) {
            let mut eval = AccuracyEvaluator::new(geom, bits);
            for &line in &lines {
                eval.observe(line);
            }
            assert_eq!(scorer.finish(), eval.finish(), "{bits}");
        }
    }

    #[test]
    fn mct_capacity_counts_every_capacity_label() {
        let r = AccuracyReport {
            // 7 of 10 oracle conflicts labelled conflict: 3 labelled
            // capacity; 4 of 5 non-conflicts labelled capacity.
            conflict: Ratio::from_counts(7, 10),
            capacity: Ratio::from_counts(4, 5),
            accesses: 40,
            misses: 15,
        };
        assert_eq!(r.mct_capacity(), 7);
    }

    #[test]
    fn overall_combines_both_classes() {
        let r = AccuracyReport {
            conflict: Ratio::from_counts(8, 10),
            capacity: Ratio::from_counts(9, 10),
            ..AccuracyReport::default()
        };
        assert!((r.overall() - 0.85).abs() < 1e-12);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = AccuracyReport {
            conflict: Ratio::from_counts(1, 2),
            capacity: Ratio::from_counts(3, 4),
            accesses: 10,
            misses: 6,
        };
        let b = a;
        a.merge(&b);
        assert_eq!(a.conflict.denominator(), 4);
        assert_eq!(a.capacity.denominator(), 8);
        assert_eq!(a.accesses, 20);
        assert_eq!(a.misses, 12);
    }
}
