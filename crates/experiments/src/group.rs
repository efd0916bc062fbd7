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
//!    capacity, with a [`FullyAssocLru`] shadow;
//! 2. splits the block into `(set, tag)` pairs once per distinct
//!    indexing scheme;
//! 3. scores every member against its shared pairs and verdicts
//!    ([`AccuracyScorer::score_block`]).
//!
//! Members hold no oracle, so a group of eleven costs one oracle pass,
//! not eleven. This is the single-pass idea behind miss-ratio-curve
//! construction: one reference stream answers many cache questions.
//! Each member's report equals a standalone
//! [`mct::accuracy::AccuracyEvaluator`] fed the same stream
//! (differential-tested in `tests/stream_equivalence.rs`).

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

/// One distinct line capacity: the oracle's shadow and its per-block
/// verdicts.
#[derive(Debug)]
struct Verdicts {
    capacity: usize,
    lru: FullyAssocLru,
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
    members: Vec<Member<T>>,
}

impl<T: EvictionClassifier> AccuracyGroup<T> {
    /// Builds a group from `(geometry, classifier)` members, sharing
    /// one shape per distinct set-index width and one oracle per
    /// distinct line capacity. Member order is report order.
    ///
    /// # Panics
    ///
    /// Panics if `members` is empty or the geometries disagree on line
    /// size (one replay feeds one line-address stream).
    #[must_use]
    pub(crate) fn new(members: Vec<(CacheGeometry, T)>) -> Self {
        let line_size = members
            .first()
            .map(|(geom, _)| geom.line_size())
            .expect("a group needs at least one member");
        let mut group = AccuracyGroup {
            line_size,
            shapes: Vec::new(),
            verdicts: Vec::new(),
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
                        lru: FullyAssocLru::new(capacity),
                        conflict: Vec::new(),
                    });
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
    /// order: verdicts once per capacity, decomposition once per
    /// shape, then each member's scoring with its probe sink (if any)
    /// installed through `probes`.
    pub(crate) fn observe_block(&mut self, lines: &[u64], probes: &GroupProbe) {
        for v in &mut self.verdicts {
            let lru = &mut v.lru;
            v.conflict.clear();
            v.conflict.extend(
                lines
                    .iter()
                    .map(|&line| lru.observe_conflict(LineAddr::new(line))),
            );
        }
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
