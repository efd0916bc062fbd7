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
//! Scoring has one path, [`AccuracyScorer`], which takes the oracle's
//! verdicts as an argument. Cells that share a capacity can therefore
//! share one oracle (group replay). [`AccuracyEvaluator`] is the
//! standalone form: one scorer with its own oracle.
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
use cache_model::CacheGeometry;
use sim_core::probe;
use sim_core::stats::Ratio;
use sim_core::LineAddr;

use crate::{BlockClass, ClassifyingCache, EvictionClassifier, MissClassificationTable, TagBits};

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

    /// Tallies one real-cache miss and emits its `Oracle` probe event.
    fn score_miss(&mut self, oracle_conflict: bool, mct_conflict: bool) {
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
        probe::emit(probe::ProbeEvent::Oracle {
            oracle_conflict,
            agree,
        });
    }
}

/// Scores a [`ClassifyingCache`] against oracle verdicts that the
/// caller supplies. It holds no oracle of its own.
///
/// A verdict is `true` when a fully-associative LRU cache of the real
/// cache's capacity would have hit, as
/// [`FullyAssocLru::observe_conflict`] reports it. Group replay
/// computes one verdict array per capacity and scores every cell of
/// that capacity against it.
#[derive(Debug, Clone)]
pub struct AccuracyScorer<T = MissClassificationTable> {
    cache: ClassifyingCache<T>,
    report: AccuracyReport,
}

impl<T: EvictionClassifier> AccuracyScorer<T> {
    /// Creates a scorer around any eviction classifier (the
    /// shadow-directory depth ablation uses this).
    #[must_use]
    pub fn with_classifier(geom: CacheGeometry, table: T) -> Self {
        AccuracyScorer {
            cache: ClassifyingCache::with_classifier(geom, table),
            report: AccuracyReport::default(),
        }
    }

    /// Scores one decomposed reference, given the oracle's verdict for
    /// it. Hits count as accesses only.
    pub fn score_parts(&mut self, set: usize, tag: u64, oracle_conflict: bool) {
        self.report.accesses += 1;
        let outcome = self.cache.access_parts(set, tag);
        let Some(miss) = outcome.miss() else { return };
        self.report
            .score_miss(oracle_conflict, miss.class.is_conflict());
    }

    /// Scores a block of decomposed references against their oracle
    /// verdicts: [`Self::score_parts`] in bulk, the block replay path.
    /// The three slices are parallel arrays in trace order.
    ///
    /// The MCT cache replays the block through the block kernel
    /// ([`ClassifyingCache::access_parts_block`]), which hands each
    /// finished miss back in trace order to be scored against its
    /// verdict. This reproduces the per-event report exactly. An armed
    /// probe sink takes the same kernel: each miss's `Oracle` event
    /// follows its `ConflictBit` clear, as in per-event scoring.
    ///
    /// # Panics
    ///
    /// Panics if `sets` and `tags` differ in length, `oracle_conflict`
    /// is shorter, or a set index is out of range for the geometry.
    pub fn score_block(&mut self, sets: &[u32], tags: &[u64], oracle_conflict: &[bool]) {
        self.report.accesses += sets.len() as u64;
        self.cache.access_parts_block_with(sets, tags, |i, class| {
            if class != BlockClass::Hit {
                let mct_conflict = class == BlockClass::Conflict;
                self.report.score_miss(oracle_conflict[i], mct_conflict);
            }
        });
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

    /// The underlying classifying cache (for hit-rate inspection).
    #[must_use]
    pub fn cache(&self) -> &ClassifyingCache<T> {
        &self.cache
    }
}

/// An [`AccuracyScorer`] with its own oracle: a [`FullyAssocLru`]
/// shadow of the cache's line capacity, fed the same reference stream.
#[derive(Debug, Clone)]
pub struct AccuracyEvaluator<T = MissClassificationTable> {
    scorer: AccuracyScorer<T>,
    shadow: FullyAssocLru,
    /// Scratch for [`Self::observe_block`]: per-event oracle verdicts,
    /// reused across blocks.
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
            scorer: AccuracyScorer::with_classifier(geom, table),
            shadow: FullyAssocLru::new(geom.num_lines()),
            verdicts: Vec::new(),
        }
    }

    /// Observes one reference (the oracle must see hits too).
    pub fn observe(&mut self, line: LineAddr) {
        let geom = *self.scorer.cache.geometry();
        self.observe_parts(geom.set_index(line), geom.tag(line));
    }

    /// [`Self::observe`] with the line already split into set index
    /// and tag (decomposed replay). The oracle still sees the whole
    /// line, reconstructed with `line_from_parts` — identical to the
    /// address the parts came from.
    pub fn observe_parts(&mut self, set: usize, tag: u64) {
        let line = self.scorer.cache.geometry().line_from_parts(tag, set);
        let verdict = self.shadow.observe_conflict(line);
        self.scorer.score_parts(set, tag, verdict);
    }

    /// Observes a block of decomposed references
    /// ([`Self::observe_parts`] in bulk — the block replay path).
    ///
    /// The oracle is *globally* order-sensitive (its shadow
    /// fully-associative cache sees every reference), so it runs first,
    /// sequentially in trace order, into a scratch verdict array; the
    /// scorer then replays the block against it
    /// ([`AccuracyScorer::score_block`]).
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length or a set index is out of
    /// range for the geometry.
    pub fn observe_block(&mut self, sets: &[u32], tags: &[u64]) {
        let geom = *self.scorer.cache.geometry();
        let shadow = &mut self.shadow;
        self.verdicts.clear();
        self.verdicts.extend(
            sets.iter().zip(tags).map(|(&set, &tag)| {
                shadow.observe_conflict(geom.line_from_parts(tag, set as usize))
            }),
        );
        self.scorer.score_block(sets, tags, &self.verdicts);
    }

    /// Observes a whole stream.
    pub fn observe_all<I>(&mut self, lines: I)
    where
        I: IntoIterator<Item = LineAddr>,
    {
        for line in lines {
            self.observe(line);
        }
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

    /// The underlying classifying cache (for hit-rate inspection).
    #[must_use]
    pub fn cache(&self) -> &ClassifyingCache<T> {
        self.scorer.cache()
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
    fn scorers_sharing_one_shadow_match_standalone_evaluators() {
        // Two tag widths on one geometry score against one shadow's
        // verdicts, block by block; each must equal its own evaluator.
        let geom = dm(16);
        let mut rng = sim_core::rng::SplitMix64::new(3);
        let lines: Vec<LineAddr> = (0..5_000).map(|_| line(rng.next_below(48))).collect();
        let sets: Vec<u32> = lines.iter().map(|&l| geom.set_index(l) as u32).collect();
        let tags: Vec<u64> = lines.iter().map(|&l| geom.tag(l)).collect();
        let mut shadow = FullyAssocLru::new(geom.num_lines());
        let verdicts: Vec<bool> = lines.iter().map(|&l| shadow.observe_conflict(l)).collect();
        for bits in [TagBits::Low(1), TagBits::Full] {
            let table = MissClassificationTable::new(geom.num_sets(), bits);
            let mut scorer = AccuracyScorer::with_classifier(geom, table);
            for ((s, t), v) in sets
                .chunks(700)
                .zip(tags.chunks(700))
                .zip(verdicts.chunks(700))
            {
                scorer.score_block(s, t, v);
            }
            let mut eval = AccuracyEvaluator::new(geom, bits);
            eval.observe_all(lines.iter().copied());
            assert_eq!(scorer.finish(), eval.finish(), "{bits}");
        }
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
