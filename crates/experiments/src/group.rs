//! Group replay: one pass over a workload's trace scores every
//! accuracy cell that shares it.
//!
//! Figures 1 and 2, the shadow-depth ablation and the MRC cross-check
//! all score many MCT configurations on the same workload, and many of
//! them share work. Fig 2's eleven tag widths share one 16 KB
//! direct-mapped geometry; Fig 1's four configurations share two
//! capacities. An [`AccuracyGroup`] holds one workload's cells as
//! *members*. Per block of line addresses it
//!
//! 1. computes the oracle's conflict verdicts once per distinct line
//!    capacity;
//! 2. splits the block into `(set, tag)` pairs once per distinct
//!    indexing scheme;
//! 3. scores every member against its shared pairs and verdicts
//!    ([`AccuracyScorer::score_block`]).
//!
//! A verdict says whether a fully-associative LRU cache of the
//! capacity would hit the reference. It comes from one of two places,
//! fixed when the group is built:
//!
//! * **A shadow** ([`AccuracyGroup::new`], fed by
//!   [`AccuracyGroup::observe_block`]): one [`FullyAssocLru`] per
//!   capacity. Each costs one shadow update per reference: one hash
//!   probe on a shadow hit, an insert and (once the shadow is full) a
//!   remove on a miss, plus O(1) list relinking. That is 7–9 ns/event
//!   at 1024 and 256 lines on a 2-core x86-64 host
//!   (`substrate/pipeline/oracle_conflict`), so Fig 1 pays it twice
//!   per reference and Fig 2's eleven tag widths once.
//! * **Stack distances** ([`AccuracyGroup::from_distances`], fed by
//!   [`AccuracyGroup::observe_distances`]): the exact MRC pass already
//!   knows each reference's LRU stack distance, and by Mattson's
//!   inclusion property the shadow hits exactly when that distance is
//!   below the capacity. The group builds no shadow and pays one
//!   comparison per reference and capacity.
//!
//! Members hold no oracle, so a group of eleven costs one oracle pass,
//! not eleven. This is the single-pass idea behind miss-ratio-curve
//! construction: one reference stream answers many cache questions.
//! Each member's report equals a standalone
//! [`mct::accuracy::AccuracyEvaluator`] fed the same stream
//! (differential-tested in `tests/stream_equivalence.rs`), and the two
//! verdict sources give identical reports (tested below).

use cache_model::oracle::FullyAssocLru;
use cache_model::CacheGeometry;
use mct::accuracy::{AccuracyReport, AccuracyScorer};
use mct::EvictionClassifier;
use sim_core::LineAddr;

use crate::probe::GroupProbe;

/// One distinct indexing scheme and its per-block `(set, tag)`
/// scratch.
#[derive(Debug)]
struct Shape {
    set_bits: u32,
    sets: Vec<u32>,
    tags: Vec<u64>,
}

/// One distinct line capacity and its per-block verdicts.
#[derive(Debug)]
struct Verdicts {
    capacity: usize,
    conflict: Vec<bool>,
}

/// One member cell: its scorer and the shared state it reads.
#[derive(Debug)]
struct Member<T> {
    scorer: AccuracyScorer<T>,
    shape: usize,
    verdicts: usize,
}

/// The accuracy cells of one workload, advanced together by one
/// replay (see the module docs).
#[derive(Debug)]
pub(crate) struct AccuracyGroup<T> {
    line_size: u64,
    shapes: Vec<Shape>,
    verdicts: Vec<Verdicts>,
    /// The oracle's shadow of each entry of `verdicts`, in the same
    /// order; empty when the verdicts come from stack distances.
    shadows: Vec<FullyAssocLru>,
    members: Vec<Member<T>>,
}

impl<T: EvictionClassifier> AccuracyGroup<T> {
    /// Builds a group from `(geometry, classifier)` members, sharing
    /// one shape per distinct set-index width and one shadow oracle per
    /// distinct line capacity. Member order is report order. Feed it
    /// with [`AccuracyGroup::observe_block`].
    ///
    /// # Panics
    ///
    /// Panics if `members` is empty or the geometries disagree on line
    /// size (one replay feeds one line-address stream).
    #[must_use]
    pub(crate) fn new(members: Vec<(CacheGeometry, T)>) -> Self {
        Self::build(members, true)
    }

    /// As [`AccuracyGroup::new`], but with no shadows: the verdicts
    /// come from exact stack distances, fed with
    /// [`AccuracyGroup::observe_distances`].
    #[must_use]
    pub(crate) fn from_distances(members: Vec<(CacheGeometry, T)>) -> Self {
        Self::build(members, false)
    }

    fn build(members: Vec<(CacheGeometry, T)>, shadows: bool) -> Self {
        let line_size = members
            .first()
            .map(|(geom, _)| geom.line_size())
            .expect("a group needs at least one member");
        let mut group = AccuracyGroup {
            line_size,
            shapes: Vec::new(),
            verdicts: Vec::new(),
            shadows: Vec::new(),
            members: Vec::with_capacity(members.len()),
        };
        for (geom, table) in members {
            assert_eq!(
                geom.line_size(),
                line_size,
                "group members must share a line size"
            );
            let set_bits = geom.set_bits();
            let shape = match group.shapes.iter().position(|s| s.set_bits == set_bits) {
                Some(i) => i,
                None => {
                    group.shapes.push(Shape {
                        set_bits,
                        sets: Vec::new(),
                        tags: Vec::new(),
                    });
                    group.shapes.len() - 1
                }
            };
            let capacity = geom.num_lines();
            let verdicts = match group.verdicts.iter().position(|v| v.capacity == capacity) {
                Some(i) => i,
                None => {
                    group.verdicts.push(Verdicts {
                        capacity,
                        conflict: Vec::new(),
                    });
                    if shadows {
                        group.shadows.push(FullyAssocLru::new(capacity));
                    }
                    group.verdicts.len() - 1
                }
            };
            group.members.push(Member {
                scorer: AccuracyScorer::with_classifier(geom, table),
                shape,
                verdicts,
            });
        }
        group
    }

    /// The line size every member shares: the replay feeds line
    /// addresses at this granularity.
    #[must_use]
    pub(crate) fn line_size(&self) -> u64 {
        self.line_size
    }

    /// Advances every member by one block of line addresses, in trace
    /// order: verdicts once per capacity from its shadow, then
    /// [`AccuracyGroup::score`]. A group built
    /// [`AccuracyGroup::from_distances`] has no shadow to ask and must
    /// be fed [`AccuracyGroup::observe_distances`] instead.
    pub(crate) fn observe_block(&mut self, lines: &[u64], probes: &GroupProbe) {
        for (v, lru) in self.verdicts.iter_mut().zip(&mut self.shadows) {
            v.conflict.clear();
            v.conflict.extend(
                lines
                    .iter()
                    .map(|&line| lru.observe_conflict(LineAddr::new(line))),
            );
        }
        self.score(lines, probes);
    }

    /// Advances every member by one block of line addresses whose
    /// exact LRU stack distances are `distances` (as
    /// [`mrc::StackDistanceEngine::record_line`] returns them, cold
    /// accesses [`mrc::COLD`]): a reference is a conflict at a capacity
    /// exactly when its distance is below it. Then
    /// [`AccuracyGroup::score`].
    pub(crate) fn observe_distances(
        &mut self,
        lines: &[u64],
        distances: &[u64],
        probes: &GroupProbe,
    ) {
        debug_assert_eq!(lines.len(), distances.len());
        for v in &mut self.verdicts {
            let capacity = v.capacity as u64;
            v.conflict.clear();
            v.conflict
                .extend(distances.iter().map(|&distance| distance < capacity));
        }
        self.score(lines, probes);
    }

    /// The one split-and-score loop: decomposition once per shape,
    /// then each member's scoring against this block's verdicts with
    /// its probe sink (if any) installed through `probes`.
    fn score(&mut self, lines: &[u64], probes: &GroupProbe) {
        for shape in &mut self.shapes {
            let set_bits = shape.set_bits;
            let mask = (1u64 << set_bits) - 1;
            shape.sets.clear();
            shape.tags.clear();
            shape
                .sets
                .extend(lines.iter().map(|&line| (line & mask) as u32));
            shape
                .tags
                .extend(lines.iter().map(|&line| line >> set_bits));
        }
        for (i, m) in self.members.iter_mut().enumerate() {
            let shape = &self.shapes[m.shape];
            let verdicts = &self.verdicts[m.verdicts].conflict;
            probes.member(i, || {
                m.scorer.score_block(&shape.sets, &shape.tags, verdicts);
            });
        }
    }

    /// The members' reports, in member order.
    #[must_use]
    pub(crate) fn finish(self) -> Vec<AccuracyReport> {
        self.members
            .into_iter()
            .map(|m| m.scorer.finish())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RunConfig;

    /// Engine-fed verdicts give the same full reports as shadow-fed
    /// ones, the conflict/capacity split included, for fig1's members
    /// over the MRC suite. The printed MRC cells add that split back
    /// together, so only a full-report comparison catches a wrong
    /// verdict. The two groups take blocks of different sizes, so each
    /// side crosses block seams the other does not have.
    #[test]
    fn distance_fed_reports_equal_shadow_fed_reports() {
        let configs = crate::fig1::configurations();
        let line_size = configs[0].1.line_size();
        let events = 2 * crate::DEFAULT_REPLAY_BLOCK + 517;
        for w in crate::mrc::workload_suite() {
            let mut lines = Vec::with_capacity(events);
            crate::stream_blocks(&w, events, line_size, |block| {
                lines.extend_from_slice(block)
            });
            let (shadowed, fed) = crate::probe::group(
                &RunConfig::default(),
                "test",
                || w.name().to_owned(),
                configs.len(),
                |i| i.to_string(),
                |probes| {
                    let mut shadowed = AccuracyGroup::new(crate::fig1::members(&configs));
                    for block in lines.chunks(crate::DEFAULT_REPLAY_BLOCK) {
                        shadowed.observe_block(block, probes);
                    }
                    let mut engine = mrc::StackDistanceEngine::new();
                    let mut fed = AccuracyGroup::from_distances(crate::fig1::members(&configs));
                    for block in lines.chunks(700) {
                        let distances: Vec<u64> =
                            block.iter().map(|&line| engine.record_line(line)).collect();
                        fed.observe_distances(block, &distances, probes);
                    }
                    (shadowed.finish(), fed.finish())
                },
            );
            assert_eq!(fed, shadowed, "{}", w.name());
            assert!(
                fed.iter().all(|r| r.accesses == events as u64),
                "{}",
                w.name()
            );
        }
    }
}
