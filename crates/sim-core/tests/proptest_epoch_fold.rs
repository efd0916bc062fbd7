//! The table-based [`EpochSink`] against a string-keyed reference
//! fold, written here: the per-event `Registry::bump` fold the sink
//! used before it counted into a fixed table. On random streams of all
//! eight event kinds, at epoch lengths from 1 to 64, both must produce
//! the same epochs, counters, histograms and hot sets, and no stored
//! hot-set list may hold more than [`HOT_SETS_TOP_K`] slots.

use proptest::prelude::*;
use sim_core::hash::FxHashMap;
use sim_core::probe::{
    AmbRole, CellProbe, EpochSink, EpochSnapshot, FilterUnit, MctLookup, ProbeEvent, Registry,
    Sink, HOT_SETS_TOP_K,
};

/// The reference fold: every event bumps named counters in a
/// [`Registry`] directly.
struct ReferenceFold {
    epoch_len: u64,
    cur: EpochSnapshot,
    cur_sets: FxHashMap<u32, u64>,
    epochs: Vec<EpochSnapshot>,
    all_sets: FxHashMap<u32, u64>,
    totals: Registry,
}

/// Sort every pair, then cut to `k`.
fn reference_top_k(sets: &FxHashMap<u32, u64>, k: usize) -> Vec<(u32, u64)> {
    let mut v: Vec<(u32, u64)> = sets.iter().map(|(&s, &c)| (s, c)).collect();
    v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    v.truncate(k);
    v
}

impl ReferenceFold {
    fn new(epoch_len: u64) -> Self {
        ReferenceFold {
            epoch_len,
            cur: EpochSnapshot::default(),
            cur_sets: FxHashMap::default(),
            epochs: Vec::new(),
            all_sets: FxHashMap::default(),
            totals: Registry::new(),
        }
    }

    fn close_epoch(&mut self) {
        let mut snap = std::mem::take(&mut self.cur);
        snap.hot_sets = reference_top_k(&self.cur_sets, HOT_SETS_TOP_K);
        self.cur_sets.clear();
        self.cur.epoch = snap.epoch + 1;
        self.totals.record("epoch.misses", snap.misses());
        self.epochs.push(snap);
    }

    fn finish(mut self) -> CellProbe {
        if self.cur.accesses > 0 {
            self.close_epoch();
        }
        let hot_sets = reference_top_k(&self.all_sets, HOT_SETS_TOP_K);
        for count in self.all_sets.values() {
            self.totals.record("set.conflicts", *count);
        }
        CellProbe {
            epochs: self.epochs,
            totals: self.totals,
            hot_sets,
        }
    }

    fn event(&mut self, ev: &ProbeEvent) {
        match *ev {
            ProbeEvent::Access { hit } => {
                self.cur.accesses += 1;
                self.totals.bump("access", 1);
                if hit {
                    self.cur.hits += 1;
                    self.totals.bump("access.hit", 1);
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
                    self.totals.bump("classify.conflict", 1);
                    *self.cur_sets.entry(set).or_insert(0) += 1;
                    *self.all_sets.entry(set).or_insert(0) += 1;
                } else {
                    self.cur.capacity += 1;
                    self.totals.bump("classify.capacity", 1);
                }
                match lookup {
                    MctLookup::Empty => self.totals.bump("mct.empty", 1),
                    MctLookup::Match => self.totals.bump("mct.match", 1),
                    MctLookup::Alias => {
                        self.cur.alias += 1;
                        self.totals.bump("mct.alias", 1);
                    }
                    MctLookup::Stale => self.totals.bump("mct.stale", 1),
                }
            }
            ProbeEvent::SetFill { .. } => self.totals.bump("set.fill", 1),
            ProbeEvent::SetEvict { .. } => self.totals.bump("set.evict", 1),
            ProbeEvent::ConflictBit { set_bit, .. } => {
                if set_bit {
                    self.totals.bump("cbit.set", 1);
                } else {
                    self.totals.bump("cbit.clear", 1);
                }
            }
            ProbeEvent::Filter { unit, fired } => {
                let name = match (unit, fired) {
                    (FilterUnit::VictimSwap, true) => "filter.victim_swap.fired",
                    (FilterUnit::VictimSwap, false) => "filter.victim_swap.pass",
                    (FilterUnit::VictimFill, true) => "filter.victim_fill.fired",
                    (FilterUnit::VictimFill, false) => "filter.victim_fill.pass",
                    (FilterUnit::Prefetch, true) => "filter.prefetch.fired",
                    (FilterUnit::Prefetch, false) => "filter.prefetch.pass",
                    (FilterUnit::Exclude, true) => "filter.exclude.fired",
                    (FilterUnit::Exclude, false) => "filter.exclude.pass",
                    (FilterUnit::PseudoProtect, true) => "filter.pseudo_protect.fired",
                    (FilterUnit::PseudoProtect, false) => "filter.pseudo_protect.pass",
                    (FilterUnit::AmbVictim, true) => "filter.amb_victim.fired",
                    (FilterUnit::AmbVictim, false) => "filter.amb_victim.pass",
                    (FilterUnit::AmbPrefetch, true) => "filter.amb_prefetch.fired",
                    (FilterUnit::AmbPrefetch, false) => "filter.amb_prefetch.pass",
                    (FilterUnit::AmbExclude, true) => "filter.amb_exclude.fired",
                    (FilterUnit::AmbExclude, false) => "filter.amb_exclude.pass",
                };
                self.totals.bump(name, 1);
            }
            ProbeEvent::AmbPartition { role } => {
                let name = match role {
                    AmbRole::Victim => "amb.victim",
                    AmbRole::Prefetch => "amb.prefetch",
                    AmbRole::Exclusion => "amb.exclusion",
                };
                self.totals.bump(name, 1);
            }
            ProbeEvent::Oracle {
                oracle_conflict,
                agree,
            } => {
                self.cur.oracle_total += 1;
                self.totals.bump("oracle.total", 1);
                if oracle_conflict {
                    self.totals.bump("oracle.conflict", 1);
                }
                if agree {
                    self.cur.oracle_agree += 1;
                    self.totals.bump("oracle.agree", 1);
                }
            }
        }
    }
}

const LOOKUPS: [MctLookup; 4] = [
    MctLookup::Empty,
    MctLookup::Match,
    MctLookup::Alias,
    MctLookup::Stale,
];
const UNITS: [FilterUnit; 8] = [
    FilterUnit::VictimSwap,
    FilterUnit::VictimFill,
    FilterUnit::Prefetch,
    FilterUnit::Exclude,
    FilterUnit::PseudoProtect,
    FilterUnit::AmbVictim,
    FilterUnit::AmbPrefetch,
    FilterUnit::AmbExclude,
];
const ROLES: [AmbRole; 3] = [AmbRole::Victim, AmbRole::Prefetch, AmbRole::Exclusion];

/// One event of the kind `kind % 10` selects; `set` names a cache set
/// and `bits` picks the flags and variant. Accesses take three of the
/// ten kinds, so epochs close inside most streams.
fn decode(kind: u8, set: u32, bits: u32) -> ProbeEvent {
    let flag = |i: u32| bits >> i & 1 == 1;
    match kind % 10 {
        0..=2 => ProbeEvent::Access { hit: flag(0) },
        3 => ProbeEvent::Classify {
            set,
            conflict: flag(0),
            lookup: LOOKUPS[(bits >> 1) as usize % LOOKUPS.len()],
        },
        4 => ProbeEvent::SetFill { set },
        5 => ProbeEvent::SetEvict { set },
        6 => ProbeEvent::ConflictBit {
            set,
            set_bit: flag(0),
        },
        7 => ProbeEvent::Filter {
            unit: UNITS[(bits >> 1) as usize % UNITS.len()],
            fired: flag(0),
        },
        8 => ProbeEvent::AmbPartition {
            role: ROLES[bits as usize % ROLES.len()],
        },
        _ => ProbeEvent::Oracle {
            oracle_conflict: flag(0),
            agree: flag(1),
        },
    }
}

fn assert_same(table: &CellProbe, reference: &CellProbe) {
    assert_eq!(table.epochs, reference.epochs);
    assert_eq!(
        table.totals.counters().collect::<Vec<_>>(),
        reference.totals.counters().collect::<Vec<_>>()
    );
    assert_eq!(
        table.totals.histograms().collect::<Vec<_>>(),
        reference.totals.histograms().collect::<Vec<_>>()
    );
    assert_eq!(table.hot_sets, reference.hot_sets);
    assert!(table.hot_sets.capacity() <= HOT_SETS_TOP_K);
    for e in &table.epochs {
        assert!(
            e.hot_sets.capacity() <= HOT_SETS_TOP_K,
            "epoch {} keeps {} hot-set slots",
            e.epoch,
            e.hot_sets.capacity()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn table_fold_matches_string_keyed_reference(
        epoch_len in 1u64..65,
        sets in 1u32..24,
        raws in prop::collection::vec((0u8..10, 0u32..u32::MAX, 0u32..64), 0..1500),
    ) {
        let mut sink = EpochSink::new(epoch_len);
        let mut reference = ReferenceFold::new(epoch_len);
        for &(kind, raw_set, bits) in &raws {
            // A small set universe makes ties and more than
            // `HOT_SETS_TOP_K` conflicting sets per epoch common.
            let ev = decode(kind, raw_set % sets, bits);
            sink.event(&ev);
            reference.event(&ev);
        }
        assert_same(&sink.finish(), &reference.finish());
    }
}

#[test]
fn every_event_variant_is_folded() {
    let mut events = vec![ProbeEvent::Access { hit: true }];
    for lookup in LOOKUPS {
        for conflict in [false, true] {
            events.push(ProbeEvent::Classify {
                set: 3,
                conflict,
                lookup,
            });
        }
    }
    events.push(ProbeEvent::SetFill { set: 1 });
    events.push(ProbeEvent::SetEvict { set: 1 });
    for set_bit in [false, true] {
        events.push(ProbeEvent::ConflictBit { set: 2, set_bit });
    }
    for unit in UNITS {
        for fired in [false, true] {
            events.push(ProbeEvent::Filter { unit, fired });
        }
    }
    for role in ROLES {
        events.push(ProbeEvent::AmbPartition { role });
    }
    for (oracle_conflict, agree) in [(false, false), (true, true)] {
        events.push(ProbeEvent::Oracle {
            oracle_conflict,
            agree,
        });
    }
    let mut sink = EpochSink::new(1);
    let mut reference = ReferenceFold::new(1);
    for ev in &events {
        sink.event(ev);
        reference.event(ev);
    }
    let (table, reference) = (sink.finish(), reference.finish());
    assert_same(&table, &reference);
    // Every registered counter was bumped at least once.
    assert_eq!(
        table.totals.counters().count(),
        sim_core::registry::PROBE_COUNTERS.len()
    );
}
