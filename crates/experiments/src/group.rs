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
//! 3. replays the block through one [`CacheKernel`] per distinct
//!    geometry, which records the block's misses in a [`MissBlock`]
//!    the group owns and reuses;
//! 4. after each kernel, walks the classifier of each member of its
//!    geometry over those misses only, scoring them against the
//!    member's capacity's verdicts ([`AccuracyScorer::score_block`]).
//!
//! Members share the cache because the MCT never changes which lines
//! it holds: the table is read only on a miss and written only on an
//! eviction (paper §3). So two members of one geometry run the same
//! cache and differ only at its misses. A member keeps its classifier,
//! its per-way conflict bits and its report, and pays per miss, not
//! per reference. Fig 2's eleven widths run one cache, not eleven.
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
//! This is the single-pass idea behind miss-ratio-curve construction:
//! one traversal answers every configuration that can read it. Each
//! member's report, and under an armed probe each member's event
//! stream, equals a standalone [`mct::accuracy::AccuracyEvaluator`]
//! fed the same stream (differential-tested below and in
//! `tests/stream_equivalence.rs` and `tests/probe_determinism.rs`),
//! and the two verdict sources give identical reports (tested below).

use cache_model::oracle::FullyAssocLru;
use cache_model::CacheGeometry;
use mct::accuracy::{AccuracyReport, AccuracyScorer, CacheKernel, MissBlock};
use mct::EvictionClassifier;
use sim_core::LineAddr;

use crate::probe::GroupProbe;
use crate::DEFAULT_REPLAY_BLOCK;

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

/// One distinct geometry: its cache kernel and the shape it reads.
#[derive(Debug)]
struct Kernel {
    kernel: CacheKernel,
    shape: usize,
}

/// One member cell: its scorer and the shared state it reads.
#[derive(Debug)]
struct Member<T> {
    scorer: AccuracyScorer<T>,
    kernel: usize,
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
    kernels: Vec<Kernel>,
    /// The misses of the kernel being scored: one buffer, reused by
    /// every kernel and block.
    misses: MissBlock,
    members: Vec<Member<T>>,
}

/// The index of the first entry of `items` that `matches`, pushing
/// `make()` first if none does.
fn find_or_push<E>(
    items: &mut Vec<E>,
    matches: impl Fn(&E) -> bool,
    make: impl FnOnce() -> E,
) -> usize {
    match items.iter().position(matches) {
        Some(i) => i,
        None => {
            items.push(make());
            items.len() - 1
        }
    }
}

impl<T: EvictionClassifier> AccuracyGroup<T> {
    /// Builds a group from `(geometry, classifier)` members, sharing
    /// one shape per distinct set-index width, one cache kernel per
    /// distinct geometry and one shadow oracle per distinct line
    /// capacity. Member order is report order. Feed it with
    /// [`AccuracyGroup::observe_block`].
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
            kernels: Vec::new(),
            misses: MissBlock::with_block(DEFAULT_REPLAY_BLOCK),
            members: Vec::with_capacity(members.len()),
        };
        for (geom, table) in members {
            assert_eq!(
                geom.line_size(),
                line_size,
                "group members must share a line size"
            );
            let set_bits = geom.set_bits();
            let shape = find_or_push(
                &mut group.shapes,
                |s| s.set_bits == set_bits,
                || Shape {
                    set_bits,
                    sets: Vec::with_capacity(DEFAULT_REPLAY_BLOCK),
                    tags: Vec::with_capacity(DEFAULT_REPLAY_BLOCK),
                },
            );
            let kernel = find_or_push(
                &mut group.kernels,
                |k| *k.kernel.geometry() == geom,
                || Kernel {
                    kernel: CacheKernel::new(geom),
                    shape,
                },
            );
            let capacity = geom.num_lines();
            let known = group.verdicts.len();
            let verdicts = find_or_push(
                &mut group.verdicts,
                |v| v.capacity == capacity,
                || Verdicts {
                    capacity,
                    conflict: Vec::with_capacity(DEFAULT_REPLAY_BLOCK),
                },
            );
            if shadows && verdicts == known {
                group.shadows.push(FullyAssocLru::new(capacity));
            }
            group.members.push(Member {
                scorer: AccuracyScorer::with_classifier(geom, table),
                kernel,
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

    /// The one split-replay-and-score loop: decomposition once per
    /// shape, then per kernel the cache's replay of the block and each
    /// of its members' walks over the misses against this block's
    /// verdicts, with the member's probe sink (if any) installed
    /// through `probes`. The kernels run outside every member's sink
    /// and emit nothing; each member emits its own cell's events, so
    /// the order members are walked in moves no byte.
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
        for (k, kernel) in self.kernels.iter_mut().enumerate() {
            let shape = &self.shapes[kernel.shape];
            kernel
                .kernel
                .access_block(&shape.sets, &shape.tags, &mut self.misses);
            let misses = &self.misses;
            for (i, m) in self.members.iter_mut().enumerate() {
                if m.kernel == k {
                    let verdicts = &self.verdicts[m.verdicts].conflict;
                    probes.member(i, || m.scorer.score_block(misses, verdicts));
                }
            }
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
    use crate::probe::ProbeMode;
    use crate::RunConfig;
    use mct::accuracy::AccuracyEvaluator;
    use mct::{MissClass, MissClassificationTable, ShadowDirectory, TagBits};
    use proptest::prelude::*;

    /// An MCT or a deeper shadow directory, so one group can mix both.
    #[derive(Debug, Clone)]
    enum Classifier {
        Mct(MissClassificationTable),
        Shadow(ShadowDirectory),
    }

    impl EvictionClassifier for Classifier {
        fn classify(&self, set: usize, tag: u64) -> MissClass {
            match self {
                Classifier::Mct(t) => t.classify(set, tag),
                Classifier::Shadow(t) => t.classify(set, tag),
            }
        }

        fn record_eviction(&mut self, set: usize, tag: u64) {
            match self {
                Classifier::Mct(t) => t.record_eviction(set, tag),
                Classifier::Shadow(t) => t.record_eviction(set, tag),
            }
        }
    }

    /// The geometries members draw from, so kernels repeat: DM and
    /// 2-way at two sizes, a 2 KB 2-way cache that shares the 1 KB DM
    /// cache's 16 sets (one `(set, tag)` split, two kernels), and a
    /// 64 KB 2-way cache of 512 sets, where the test's 400-line
    /// universe puts at most one line in each set, so it never evicts.
    fn geometry(draw: usize) -> CacheGeometry {
        let (kb, ways) = [(1, 1), (1, 2), (2, 2), (4, 1), (4, 2), (64, 2)][draw % 6];
        CacheGeometry::new(kb * 1024, ways, 64).expect("power-of-two geometry")
    }

    /// Three MCT tag widths and shadow directories of depth 1 to 3.
    fn classifier(geom: &CacheGeometry, draw: usize) -> Classifier {
        let sets = geom.num_sets();
        match draw % 6 {
            0 => Classifier::Mct(MissClassificationTable::new(sets, TagBits::Low(1))),
            1 => Classifier::Mct(MissClassificationTable::new(sets, TagBits::Low(4))),
            2 => Classifier::Mct(MissClassificationTable::new(sets, TagBits::Full)),
            depth => Classifier::Shadow(ShadowDirectory::new(sets, TagBits::Full, depth - 2)),
        }
    }

    /// Each member's report and `--probe raw` bytes, in member order.
    fn raw_records(cfg: &RunConfig) -> Vec<String> {
        cfg.drain()
            .cells
            .into_iter()
            .map(|r| r.raw.expect("raw mode keeps the event lines"))
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        /// A group with shared kernels reports, and under a raw probe
        /// emits, exactly what one standalone evaluator per member
        /// does, for member lists whose geometries repeat, mixed
        /// classifiers, and blocks that cross every seam (longer than
        /// [`DEFAULT_REPLAY_BLOCK`] included).
        #[test]
        fn shared_kernels_match_one_evaluator_per_member(
            draws in prop::collection::vec((0usize..6, 0usize..6), 1..9),
            lines in prop::collection::vec(0u64..400, 1..2_500),
            blocks in prop::collection::vec(1usize..1_500, 1..6),
        ) {
            let members: Vec<(CacheGeometry, Classifier)> = draws
                .iter()
                .map(|&(g, c)| {
                    let geom = geometry(g);
                    (geom, classifier(&geom, c))
                })
                .collect();
            let label = |i: usize| format!("{i:02}");

            let grouped_cfg = RunConfig::new(1).with_probe(ProbeMode::Raw);
            let grouped = crate::probe::group(
                &grouped_cfg,
                "test",
                || "stream".to_owned(),
                members.len(),
                label,
                |probes| {
                    let mut group = AccuracyGroup::new(members.clone());
                    let mut rest = &lines[..];
                    for &len in blocks.iter().cycle() {
                        if rest.is_empty() {
                            break;
                        }
                        let (block, tail) = rest.split_at(len.min(rest.len()));
                        group.observe_block(block, probes);
                        rest = tail;
                    }
                    group.finish()
                },
            );

            let alone_cfg = RunConfig::new(1).with_probe(ProbeMode::Raw);
            let alone: Vec<AccuracyReport> = members
                .into_iter()
                .enumerate()
                .map(|(i, (geom, table))| {
                    crate::probe::cell(&alone_cfg, "test", || label(i), || {
                        let mut eval = AccuracyEvaluator::with_classifier(geom, table);
                        for &line in &lines {
                            eval.observe(LineAddr::new(line));
                        }
                        eval.finish()
                    })
                })
                .collect();

            prop_assert_eq!(&grouped, &alone);
            prop_assert!(grouped.iter().all(|r| r.accesses == lines.len() as u64));
            prop_assert_eq!(raw_records(&grouped_cfg), raw_records(&alone_cfg));
        }
    }

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
