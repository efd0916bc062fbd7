//! The engine's configuration: each study's policies, and the per-miss
//! rules a policy sets.
//!
//! [`AssistConfig::new`] is the one place a policy becomes rules. Every
//! family starts from the same base — nothing buffered, the AMB's
//! out-conflict rule for victim-line hits, promotions holding a read
//! and a write port — and changes only what its study names, so two
//! families that share a technique share its rules field for field.

use mct::{ConflictFilter, MissClass};
use sim_core::probe::FilterUnit;

/// Which of the paper's Figure 3 bars to model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VictimPolicy {
    /// A traditional victim cache: always fill, always swap.
    Traditional,
    /// No swap on a victim hit that classifies as a conflict miss.
    FilterSwaps,
    /// No buffer fill when the evicted line left on a capacity miss.
    FilterFills,
    /// Both filters combined (the paper's best policy).
    FilterBoth,
}

impl VictimPolicy {
    /// All four policies in the paper's figure order.
    pub const ALL: [VictimPolicy; 4] = [
        VictimPolicy::Traditional,
        VictimPolicy::FilterSwaps,
        VictimPolicy::FilterFills,
        VictimPolicy::FilterBoth,
    ];
}

impl std::fmt::Display for VictimPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VictimPolicy::Traditional => f.write_str("V cache"),
            VictimPolicy::FilterSwaps => f.write_str("filter swaps"),
            VictimPolicy::FilterFills => f.write_str("filter fills"),
            VictimPolicy::FilterBoth => f.write_str("filter both"),
        }
    }
}

/// The Figure 5 exclusion policies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExclusionPolicy {
    /// Johnson & Hwu's memory access table (the baseline the paper
    /// beats).
    Mat,
    /// Exclude misses the MCT classifies as conflict misses.
    Conflict,
    /// Exclude misses from regions with a history of conflict misses.
    ConflictHistory,
    /// Exclude misses the MCT classifies as capacity misses (the
    /// paper's winner).
    Capacity,
    /// Exclude misses from regions with a history of capacity misses.
    CapacityHistory,
}

impl ExclusionPolicy {
    /// The five policies in the paper's figure order.
    pub const ALL: [ExclusionPolicy; 5] = [
        ExclusionPolicy::Mat,
        ExclusionPolicy::Conflict,
        ExclusionPolicy::ConflictHistory,
        ExclusionPolicy::Capacity,
        ExclusionPolicy::CapacityHistory,
    ];
}

impl std::fmt::Display for ExclusionPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExclusionPolicy::Mat => f.write_str("MAT"),
            ExclusionPolicy::Conflict => f.write_str("conflict"),
            ExclusionPolicy::ConflictHistory => f.write_str("conflict history"),
            ExclusionPolicy::Capacity => f.write_str("capacity"),
            ExclusionPolicy::CapacityHistory => f.write_str("capacity history"),
        }
    }
}

/// The Figure 6 policy combinations of the Adaptive Miss Buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AmbPolicy {
    /// Victim caching only (best single-policy variant: no swap on
    /// conflict hits, fill on conflict evictions only).
    Vict,
    /// Next-line prefetching only (best variant: capacity misses
    /// only).
    Pref,
    /// Cache exclusion only (best variant: exclude capacity misses).
    Excl,
    /// Victim-cache conflict misses, prefetch capacity misses — the
    /// paper's best combination at 8 entries.
    VictPref,
    /// Prefetch and exclude capacity misses.
    PrefExcl,
    /// Victim-cache conflict misses, exclude capacity misses.
    VictExcl,
    /// Everything: victim conflicts, prefetch + exclude capacity —
    /// the policy that wins with a 16-entry buffer.
    VicPreExc,
}

impl AmbPolicy {
    /// All policies in the paper's figure order.
    pub const ALL: [AmbPolicy; 7] = [
        AmbPolicy::Vict,
        AmbPolicy::Pref,
        AmbPolicy::Excl,
        AmbPolicy::VictPref,
        AmbPolicy::PrefExcl,
        AmbPolicy::VictExcl,
        AmbPolicy::VicPreExc,
    ];
}

/// The paper's names are the variant names.
impl std::fmt::Display for AmbPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Debug::fmt(self, f)
    }
}

/// One of the paper's four assist studies, with its policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AssistPolicy {
    /// A victim cache (§5.1, Figure 3).
    Victim(VictimPolicy),
    /// A next-line prefetcher that skips the prefetch when the filter
    /// fires, or an unfiltered one (§5.2, Figure 4).
    NextLine(Option<ConflictFilter>),
    /// A cache-exclusion bypass buffer (§5.3, Figure 5).
    Exclusion(ExclusionPolicy),
    /// The Adaptive Miss Buffer (§5.5, Figures 6 and 7).
    Amb(AmbPolicy),
}

impl AssistPolicy {
    /// The paper's buffer entries: 16 for the bypass buffer (the MAT
    /// "was originally studied with a much larger buffer, and we found
    /// it to do poorly with an 8-entry buffer"), 8 for the others.
    #[must_use]
    pub const fn default_entries(self) -> usize {
        match self {
            AssistPolicy::Exclusion(_) => 16,
            _ => 8,
        }
    }
}

impl From<VictimPolicy> for AssistPolicy {
    fn from(policy: VictimPolicy) -> Self {
        AssistPolicy::Victim(policy)
    }
}

impl From<ExclusionPolicy> for AssistPolicy {
    fn from(policy: ExclusionPolicy) -> Self {
        AssistPolicy::Exclusion(policy)
    }
}

impl From<AmbPolicy> for AssistPolicy {
    fn from(policy: AmbPolicy) -> Self {
        AssistPolicy::Amb(policy)
    }
}

/// What a buffer hit does with the line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Hit {
    /// The line stays in the buffer (a prefetched line becomes an
    /// exclusion line, §5.5).
    Stay,
    /// The line stays when the filter fires on the miss and the line's
    /// conflict bit, and is promoted otherwise.
    StayIf(ConflictFilter),
    /// The line moves into the L1.
    Promote,
}

/// The buffer ports a promotion into the L1 reserves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PromotePort {
    /// One read port for a line (the next-line prefetcher).
    LineRead,
    /// A read and a write port, as a swap with the L1 takes. The AMB
    /// reserves this for a promoted prefetch too, whose write port
    /// nothing uses: a known defect, kept because fixing it moves
    /// Figure 6 (EXPERIMENTS.md, "One assist-buffer engine").
    Swap,
}

/// Whether a line the L1 evicts enters the buffer as a victim.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Fill {
    Never,
    Always,
    /// When the filter fires on the miss and the evicted line's bit.
    If(ConflictFilter),
}

impl Fill {
    pub(crate) const fn keeps(self, class: MissClass, evicted_bit: bool) -> bool {
        match self {
            Fill::Never => false,
            Fill::Always => true,
            Fill::If(filter) => filter.fires(class.is_conflict(), evicted_bit),
        }
    }
}

/// Whether a demand miss prefetches the next line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Prefetch {
    Never,
    Always,
    /// Unless the filter fires on the miss and the evicted line's bit.
    Unless(ConflictFilter),
}

/// Whether a demand miss bypasses the L1 into the buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Exclude {
    Never,
    /// Misses of this class.
    Class(MissClass),
    /// Misses from 1 KB regions whose 2-bit history leans to this
    /// class.
    History(MissClass),
    /// Misses from regions colder than the victim's, by Johnson &
    /// Hwu's memory access table (updated on every access).
    Mat,
}

/// The probe units a family reports its decisions under, and whether
/// it reports buffer roles (`AmbPartition`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct Probes {
    pub(crate) swap: Option<FilterUnit>,
    pub(crate) fill: Option<FilterUnit>,
    /// `prefetch` reports a suppressed prefetch, `amb_prefetch` an
    /// issued one.
    pub(crate) prefetch: Option<FilterUnit>,
    pub(crate) exclude: Option<FilterUnit>,
    pub(crate) partitions: bool,
}

/// Configuration of an [`AssistSystem`](crate::AssistSystem): a policy
/// and a buffer size, and the rules the policy sets, read per miss.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AssistConfig {
    pub(crate) policy: AssistPolicy,
    pub(crate) entries: usize,
    /// Classify a miss before probing the buffer. The bypass buffer
    /// probes first, so its buffer hits are never classified.
    pub(crate) classify_first: bool,
    pub(crate) victim_hit: Hit,
    pub(crate) prefetch_hit: Hit,
    pub(crate) promote_port: PromotePort,
    /// A promotion swaps: the L1 line it displaces always enters the
    /// buffer. Otherwise that line enters only when `fill` keeps it.
    pub(crate) swap_returns_displaced: bool,
    pub(crate) fill: Fill,
    pub(crate) prefetch: Prefetch,
    pub(crate) exclude: Exclude,
    pub(crate) probes: Probes,
}

impl AssistConfig {
    /// `policy` with the paper's buffer size.
    #[must_use]
    pub fn new(policy: impl Into<AssistPolicy>) -> Self {
        let policy = policy.into();
        let mut cfg = AssistConfig {
            policy,
            entries: policy.default_entries(),
            classify_first: true,
            victim_hit: Hit::StayIf(ConflictFilter::OutConflict),
            prefetch_hit: Hit::Promote,
            promote_port: PromotePort::Swap,
            swap_returns_displaced: false,
            fill: Fill::Never,
            prefetch: Prefetch::Never,
            exclude: Exclude::Never,
            probes: Probes::default(),
        };
        match policy {
            AssistPolicy::Victim(p) => {
                use VictimPolicy::*;
                // Both filters use the or-conflict criterion, the
                // paper's most liberal identification of conflicts.
                let or = ConflictFilter::OrConflict;
                cfg.swap_returns_displaced = true;
                if matches!(p, FilterSwaps | FilterBoth) {
                    cfg.victim_hit = Hit::StayIf(or);
                    cfg.probes.swap = Some(FilterUnit::VictimSwap);
                } else {
                    cfg.victim_hit = Hit::Promote;
                }
                if matches!(p, FilterFills | FilterBoth) {
                    cfg.fill = Fill::If(or);
                    cfg.probes.fill = Some(FilterUnit::VictimFill);
                } else {
                    cfg.fill = Fill::Always;
                }
            }
            AssistPolicy::NextLine(filter) => {
                cfg.promote_port = PromotePort::LineRead;
                cfg.prefetch = filter.map_or(Prefetch::Always, Prefetch::Unless);
                cfg.probes.prefetch = filter.map(|_| FilterUnit::Prefetch);
            }
            AssistPolicy::Exclusion(p) => {
                cfg.classify_first = false;
                cfg.exclude = match p {
                    ExclusionPolicy::Mat => Exclude::Mat,
                    ExclusionPolicy::Conflict => Exclude::Class(MissClass::Conflict),
                    ExclusionPolicy::Capacity => Exclude::Class(MissClass::Capacity),
                    ExclusionPolicy::ConflictHistory => Exclude::History(MissClass::Conflict),
                    ExclusionPolicy::CapacityHistory => Exclude::History(MissClass::Capacity),
                };
                cfg.probes.exclude = Some(FilterUnit::Exclude);
            }
            AssistPolicy::Amb(p) => {
                use AmbPolicy::*;
                // Every AMB decision uses the out-conflict filter: the
                // incoming miss's class.
                let out = ConflictFilter::OutConflict;
                cfg.probes.partitions = true;
                if matches!(p, Vict | VictPref | VictExcl | VicPreExc) {
                    cfg.fill = Fill::If(out);
                    cfg.probes.fill = Some(FilterUnit::AmbVictim);
                }
                if matches!(p, Pref | VictPref | PrefExcl | VicPreExc) {
                    cfg.prefetch = Prefetch::Unless(out);
                    cfg.probes.prefetch = Some(FilterUnit::AmbPrefetch);
                }
                if matches!(p, Excl | PrefExcl | VictExcl | VicPreExc) {
                    cfg.exclude = Exclude::Class(MissClass::Capacity);
                    cfg.probes.exclude = Some(FilterUnit::AmbExclude);
                }
            }
        }
        if cfg.exclude != Exclude::Never {
            cfg.prefetch_hit = Hit::Stay;
        }
        cfg
    }

    /// The conventional next-line prefetcher (no filtering).
    #[must_use]
    pub fn unfiltered() -> Self {
        Self::new(AssistPolicy::NextLine(None))
    }

    /// A next-line prefetcher that skips the prefetch when `filter`
    /// fires.
    #[must_use]
    pub fn filtered(filter: ConflictFilter) -> Self {
        Self::new(AssistPolicy::NextLine(Some(filter)))
    }

    /// The same configuration with an `entries`-line buffer.
    #[must_use]
    pub const fn with_entries(self, entries: usize) -> Self {
        AssistConfig { entries, ..self }
    }
}
