//! Group replay: one pass over a workload's trace scores every
//! accuracy cell that shares it.
//!
//! Figures 1 and 2, the shadow-depth ablation and the MRC cross-check
//! all score many MCT configurations on the same workload, and many of
//! them share work. Fig 2's eleven tag widths share one 16 KB
//! direct-mapped geometry; Fig 1's four configurations share two
//! capacities. When both figures run, they share one pass
//! ([`crate::accuracy_pass`]), and Fig 1's 16 KB DM cell is Fig 2's
//! full-tag cell. An [`AccuracyGroup`] holds one workload's cells as
//! *members*. A group built [`AccuracyGroup::keyed`] makes cells with
//! equal keys (geometry and tag width) one member. That member runs
//! once, reports once per cell it stands for, and under a probe writes
//! its record once per cell ([`probe::group`]). Per block of line
//! addresses it
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
//!   per reference, Fig 2's eleven tag widths once, and the two
//!   figures together twice.
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
//! fed the same stream (differential-tested below, repeated cells
//! included, and in `tests/stream_equivalence.rs` and
//! `tests/probe_determinism.rs`), and the two verdict sources give
//! identical reports (tested below). A figure's table and probe
//! records do not depend on which figures share its pass
//! (`tests/shared_pass.rs`).

use cache_model::oracle::FullyAssocLru;
use cache_model::CacheGeometry;
use mct::accuracy::{AccuracyReport, AccuracyScorer, CacheKernel, MissBlock};
use mct::EvictionClassifier;
use sim_core::LineAddr;

use crate::probe::{self, GroupProbe};
use crate::{RunConfig, DEFAULT_REPLAY_BLOCK};

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

/// One member: its scorer, the shared state it reads, and the
/// positions in the group's input list of the cells it stands for
/// (more than one when cells repeat).
#[derive(Debug)]
struct Member<T> {
    scorer: AccuracyScorer<T>,
    kernel: usize,
    verdicts: usize,
    cells: Vec<usize>,
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
    /// How many cells the group was built from.
    cells: usize,
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
    /// Builds a group from `(geometry, classifier)` cells, sharing one
    /// shape per distinct set-index width, one cache kernel per
    /// distinct geometry and one shadow oracle per distinct line
    /// capacity. Cell order is report order. Feed it with
    /// [`AccuracyGroup::observe_block`].
    ///
    /// # Panics
    ///
    /// Panics if `cells` is empty or the geometries disagree on line
    /// size (one replay feeds one line-address stream).
    #[must_use]
    pub(crate) fn new(cells: Vec<(CacheGeometry, T)>) -> Self {
        Self::build(cells, |_| None, true)
    }

    /// As [`AccuracyGroup::new`], but a cell whose key equals an
    /// earlier cell's (for an MCT, its geometry and tag width) is that
    /// cell: both are one member, which runs once and reports for
    /// each. `keys` has one key per cell.
    #[must_use]
    pub(crate) fn keyed<K: PartialEq>(cells: Vec<(CacheGeometry, T)>, keys: &[K]) -> Self {
        assert_eq!(cells.len(), keys.len(), "one key per cell");
        let repeats = |i: usize| keys[..i].iter().position(|k| *k == keys[i]);
        Self::build(cells, repeats, true)
    }

    /// As [`AccuracyGroup::new`], but with no shadows: the verdicts
    /// come from exact stack distances, fed with
    /// [`AccuracyGroup::observe_distances`].
    #[must_use]
    pub(crate) fn from_distances(cells: Vec<(CacheGeometry, T)>) -> Self {
        Self::build(cells, |_| None, false)
    }

    /// The group of `cells`, where `repeats(i)` is the earlier cell
    /// that cell `i` repeats, if any.
    fn build(
        cells: Vec<(CacheGeometry, T)>,
        repeats: impl Fn(usize) -> Option<usize>,
        shadows: bool,
    ) -> Self {
        let line_size = cells
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
            members: Vec::with_capacity(cells.len()),
            cells: cells.len(),
        };
        for (i, (geom, table)) in cells.into_iter().enumerate() {
            assert_eq!(
                geom.line_size(),
                line_size,
                "group members must share a line size"
            );
            if let Some(first) = repeats(i) {
                let member = group
                    .members
                    .iter_mut()
                    .find(|m| m.cells[0] == first)
                    .expect("a repeated cell's first occurrence is a member");
                member.cells.push(i);
                continue;
            }
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
                cells: vec![i],
            });
        }
        group
    }

    /// Runs `feed` on this group as one [`probe::group`] cell of
    /// `target` labelled `label`, in which the cell at input position
    /// `i` is named `name(i)` (its record's target and label), and
    /// returns the cells' reports in input order. A member that
    /// stands for several cells writes its record under each.
    pub(crate) fn run(
        mut self,
        cfg: &RunConfig,
        target: &str,
        label: impl Fn() -> String,
        name: impl Fn(usize) -> (&'static str, String),
        feed: impl FnOnce(&mut Self, &GroupProbe),
    ) -> Vec<AccuracyReport> {
        let cells: Vec<Vec<usize>> = self.members.iter().map(|m| m.cells.clone()).collect();
        probe::group(
            cfg,
            target,
            label,
            cells.len(),
            |m| cells[m].iter().map(|&i| name(i)).collect(),
            |probes| {
                feed(&mut self, probes);
                self.finish()
            },
        )
    }

    /// How many cells the group was built from, repeated ones
    /// included.
    #[must_use]
    pub(crate) fn cells(&self) -> usize {
        self.cells
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

    /// The cells' reports, in the order the group was built from.
    #[must_use]
    pub(crate) fn finish(self) -> Vec<AccuracyReport> {
        let mut reports = vec![AccuracyReport::default(); self.cells];
        for member in self.members {
            let report = member.scorer.finish();
            for i in member.cells {
                reports[i] = report;
            }
        }
        reports
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

    /// Each record's label and `--probe raw` bytes, in label order.
    fn raw_records(cfg: &RunConfig) -> Vec<(String, String)> {
        cfg.drain()
            .cells
            .into_iter()
            .map(|r| (r.cell, r.raw.expect("raw mode keeps the event lines")))
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        /// A group with shared kernels reports, and under a raw probe
        /// emits, exactly what one standalone evaluator per member
        /// does, for member lists whose geometries repeat, mixed
        /// classifiers, whole cells repeated (each copy a member of
        /// its own on the standalone side, one shared member in the
        /// group), and blocks that cross every seam (longer than
        /// [`DEFAULT_REPLAY_BLOCK`] included).
        #[test]
        fn shared_kernels_match_one_evaluator_per_member(
            draws in prop::collection::vec((0usize..6, 0usize..6), 1..9),
            repeats in prop::collection::vec(0usize..64, 0..4),
            lines in prop::collection::vec(0u64..400, 1..2_500),
            blocks in prop::collection::vec(1usize..1_500, 1..6),
        ) {
            let mut draws = draws;
            for &pick in &repeats {
                draws.push(draws[pick % draws.len()]);
            }
            let members: Vec<(CacheGeometry, Classifier)> = draws
                .iter()
                .map(|&(g, c)| {
                    let geom = geometry(g);
                    (geom, classifier(&geom, c))
                })
                .collect();
            let label = |i: usize| format!("{i:02}");

            let grouped_cfg = RunConfig::new(1).with_probe(ProbeMode::Raw);
            let grouped = AccuracyGroup::keyed(members.clone(), &draws).run(
                &grouped_cfg,
                "test",
                || "stream".to_owned(),
                |i| ("test", label(i)),
                |group, probes| {
                    let mut rest = &lines[..];
                    for &len in blocks.iter().cycle() {
                        if rest.is_empty() {
                            break;
                        }
                        let (block, tail) = rest.split_at(len.min(rest.len()));
                        group.observe_block(block, probes);
                        rest = tail;
                    }
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

    /// Repeated cells share one member, kernel and oracle: the group
    /// runs fig1's four configurations plus fig2's eleven widths as
    /// fourteen members, because fig1's 16 KB DM cell and fig2's
    /// full-tag cell are one cell.
    #[test]
    fn repeated_cells_share_one_member() {
        let mut keys: Vec<(CacheGeometry, TagBits)> = crate::fig1::configurations()
            .into_iter()
            .map(|(_, geom)| (geom, TagBits::Full))
            .collect();
        let geom = crate::fig2::geometry();
        keys.extend(crate::fig2::widths().into_iter().map(|bits| (geom, bits)));
        let cells = keys
            .iter()
            .map(|&(geom, bits)| (geom, MissClassificationTable::new(geom.num_sets(), bits)))
            .collect();
        let group = AccuracyGroup::keyed(cells, &keys);
        assert_eq!(group.cells, 15);
        assert_eq!(group.members.len(), 14);
        assert_eq!(group.members[0].cells, [0, 14]);
        assert_eq!(
            (group.kernels.len(), group.shapes.len(), group.shadows.len()),
            (4, 4, 2)
        );
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
                |i| vec![("test", i.to_string())],
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
