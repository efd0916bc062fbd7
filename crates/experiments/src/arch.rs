//! The architecture spec: one [`Arch`] value names a CPU-model memory
//! system — the assist family with its MCT policy, the buffer size and
//! the L1↔L2 bus — and [`Arch::build`] constructs it.
//!
//! `sim --arch` parses a spec, and every cell of fig3–fig6, §5.4 and
//! the window and buffer sweeps is one, so a cell's probe label names
//! a spec that `sim` reruns. A spec is spelled
//! `<family>[,entries=N][,bus=slow]`, e.g. `victim:both`,
//! `amb:vicpreexc,entries=16`, `prefetch:in,bus=slow`. Options at
//! their default are left out of the [`Display`](fmt::Display) form,
//! so every value has one canonical string; [`Arch::all`] lists every
//! family at its defaults. Every cache is the paper's 16 KB L1 with
//! 64-byte lines, direct-mapped except `two-way`.
//!
//! ```
//! use experiments::arch::Arch;
//!
//! let arch: Arch = "amb:vicpreexc,entries=8".parse().unwrap();
//! assert_eq!(arch.to_string(), "amb:vicpreexc");
//! assert!("baseline,entries=4".parse::<Arch>().is_err());
//! ```

use std::fmt;
use std::str::FromStr;

use assist_buffer::AssistPolicy::{Amb, Exclusion, NextLine, Victim};
use assist_buffer::{
    AmbPolicy, AssistConfig, AssistPolicy, AssistSystem, ExclusionPolicy, VictimPolicy,
};
use cache_model::{CacheGeometry, L2MemoryConfig};
use conflict_remap::{CountPolicy, RemapSystem};
use cpu_model::{
    BaselineSystem, CpuConfig, CpuReport, CpuRun, MemResponse, MemTimings, MemorySystem, OooModel,
    Plumbing,
};
use mct::ConflictFilter;
use prefetcher::{RptConfig, RptSystem};
use pseudo_assoc::{PseudoAssocSystem, PseudoConfig, PseudoPolicy};
use sim_core::Cycle;
use trace_gen::{MemoryAccess, TraceEvent};

/// A cache-assist family with its policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// The direct-mapped L1 alone.
    Baseline,
    /// A 2-way L1 of the same size (§5.4's "true 2-way").
    TwoWay,
    /// The assist engine as a victim cache (Figure 3), next-line
    /// prefetcher (Figure 4), bypass buffer (Figure 5) or Adaptive
    /// Miss Buffer (Figures 6 and 7).
    Assist(AssistPolicy),
    /// A PC-indexed stride prefetcher, with or without MCT
    /// conflict-noise filtering.
    Rpt {
        /// Whether conflict misses skip the table update.
        filtered: bool,
    },
    /// A pseudo-associative L1 (§5.4).
    Pseudo(PseudoPolicy),
    /// OS page remapping driven by a miss lookaside buffer.
    Remap(CountPolicy),
}

/// Every family with its spelling, in `--list-archs` order.
#[rustfmt::skip]
const FAMILIES: [(&str, Family); 29] = [
    ("baseline", Family::Baseline),
    ("two-way", Family::TwoWay),
    ("victim:traditional", Family::Assist(Victim(VictimPolicy::Traditional))),
    ("victim:swaps", Family::Assist(Victim(VictimPolicy::FilterSwaps))),
    ("victim:fills", Family::Assist(Victim(VictimPolicy::FilterFills))),
    ("victim:both", Family::Assist(Victim(VictimPolicy::FilterBoth))),
    ("prefetch:none", Family::Assist(NextLine(None))),
    ("prefetch:in", Family::Assist(NextLine(Some(ConflictFilter::InConflict)))),
    ("prefetch:out", Family::Assist(NextLine(Some(ConflictFilter::OutConflict)))),
    ("prefetch:and", Family::Assist(NextLine(Some(ConflictFilter::AndConflict)))),
    ("prefetch:or", Family::Assist(NextLine(Some(ConflictFilter::OrConflict)))),
    ("rpt", Family::Rpt { filtered: false }),
    ("rpt:filtered", Family::Rpt { filtered: true }),
    ("exclusion:mat", Family::Assist(Exclusion(ExclusionPolicy::Mat))),
    ("exclusion:conflict", Family::Assist(Exclusion(ExclusionPolicy::Conflict))),
    ("exclusion:conflict-history", Family::Assist(Exclusion(ExclusionPolicy::ConflictHistory))),
    ("exclusion:capacity", Family::Assist(Exclusion(ExclusionPolicy::Capacity))),
    ("exclusion:capacity-history", Family::Assist(Exclusion(ExclusionPolicy::CapacityHistory))),
    ("pseudo:lru", Family::Pseudo(PseudoPolicy::Lru)),
    ("pseudo:mct", Family::Pseudo(PseudoPolicy::ConflictBit)),
    ("remap:all", Family::Remap(CountPolicy::AllMisses)),
    ("remap:conflict", Family::Remap(CountPolicy::ConflictOnly)),
    ("amb:vict", Family::Assist(Amb(AmbPolicy::Vict))),
    ("amb:pref", Family::Assist(Amb(AmbPolicy::Pref))),
    ("amb:excl", Family::Assist(Amb(AmbPolicy::Excl))),
    ("amb:victpref", Family::Assist(Amb(AmbPolicy::VictPref))),
    ("amb:prefexcl", Family::Assist(Amb(AmbPolicy::PrefExcl))),
    ("amb:victexcl", Family::Assist(Amb(AmbPolicy::VictExcl))),
    ("amb:vicpreexc", Family::Assist(Amb(AmbPolicy::VicPreExc))),
];

/// The most buffer entries a spec may ask for: 4× the 256 lines of
/// the 16 KB L1, far above the sweeps' 32. A larger count is a usage
/// error, not an allocation that aborts the run.
const MAX_ENTRIES: usize = 1024;

impl Family {
    /// The paper's buffer entries for this family, or `None` if it has
    /// no buffer to size.
    const fn default_entries(self) -> Option<usize> {
        match self {
            Family::Assist(policy) => Some(policy.default_entries()),
            Family::Rpt { .. } => Some(RptConfig::default_config().buffer_entries),
            Family::Baseline | Family::TwoWay | Family::Pseudo(_) | Family::Remap(_) => None,
        }
    }
}

/// One point of the §5 design space: a family, its buffer size and
/// the bus. See the [module docs](self) for the spelling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arch {
    family: Family,
    /// Buffer entries; `Some` exactly for the buffered families.
    entries: Option<usize>,
    /// The slower L1↔L2 bus of the prefetch study (Figure 4).
    slow_bus: bool,
}

impl Arch {
    /// The direct-mapped baseline on the fast bus.
    pub const BASELINE: Arch = Arch::new(Family::Baseline);

    /// `family` with the paper's buffer size, on the fast bus.
    #[must_use]
    pub const fn new(family: Family) -> Arch {
        Arch {
            family,
            entries: family.default_entries(),
            slow_bus: false,
        }
    }

    /// Every family at its defaults, in `--list-archs` order.
    pub fn all() -> impl Iterator<Item = Arch> {
        FAMILIES.iter().map(|&(_, family)| Arch::new(family))
    }

    /// The same architecture with an `entries`-entry buffer.
    ///
    /// # Errors
    ///
    /// If `entries` is zero or above 1024, or the family has no
    /// buffer.
    pub fn with_entries(self, entries: usize) -> Result<Arch, String> {
        if self.entries.is_none() {
            return Err(format!("{} has no buffer to size", self.family_name()));
        }
        if entries == 0 {
            return Err("a buffer needs at least one entry".to_owned());
        }
        if entries > MAX_ENTRIES {
            return Err(format!(
                "a buffer holds at most {MAX_ENTRIES} entries, got {entries}"
            ));
        }
        Ok(Arch {
            entries: Some(entries),
            ..self
        })
    }

    /// The same architecture on the slow L1↔L2 bus.
    #[must_use]
    pub const fn on_slow_bus(self) -> Arch {
        Arch {
            slow_bus: true,
            ..self
        }
    }

    fn family_name(self) -> &'static str {
        FAMILIES
            .iter()
            .find(|&&(_, family)| family == self.family)
            .map_or("?", |&(name, _)| name)
    }

    /// A fresh memory system of this architecture.
    #[must_use]
    pub fn build(self) -> System {
        let geometry = |assoc| CacheGeometry::new(16 * 1024, assoc, 64).expect("paper geometry");
        let l2 = if self.slow_bus {
            L2MemoryConfig::paper_slow_bus()
        } else {
            L2MemoryConfig::paper_default()
        };
        let plumbing = Plumbing::new(MemTimings::paper_default(), l2.expect("paper config"));
        let l1 = geometry(1);
        let entries = self.entries.unwrap_or_default();
        match self.family {
            Family::Baseline => System::Baseline(BaselineSystem::new(l1, plumbing)),
            Family::TwoWay => System::Baseline(BaselineSystem::new(geometry(2), plumbing)),
            Family::Assist(policy) => {
                let cfg = AssistConfig::new(policy).with_entries(entries);
                System::Assist(AssistSystem::new(cfg, l1, plumbing))
            }
            Family::Rpt { filtered } => {
                let mut cfg = RptConfig::default_config();
                cfg.filter_conflict_noise = filtered;
                cfg.buffer_entries = entries;
                System::Rpt(RptSystem::new(cfg, l1, plumbing))
            }
            Family::Pseudo(policy) => {
                let cfg = PseudoConfig::new(policy);
                System::Pseudo(PseudoAssocSystem::new(cfg, l1, plumbing))
            }
            Family::Remap(policy) => System::Remap(RemapSystem::new(policy, l1, plumbing)),
        }
    }

    /// Runs `trace` on a core with parameters `cpu` over a fresh
    /// [`build`](Self::build), a [`STREAM_CHUNK`](crate::STREAM_CHUNK)
    /// at a time as [`replay_cpu`](crate::replay_cpu) feeds a figure
    /// cell, and returns the core's report and the system with its
    /// counters.
    pub fn run(
        self,
        cpu: CpuConfig,
        trace: impl IntoIterator<Item = TraceEvent>,
    ) -> (CpuReport, System) {
        let mut system = self.build();
        let mut run = OooModel::new(cpu).start();
        crate::for_each_chunk(trace, |chunk| system.feed(&mut run, chunk));
        (run.finish(), system)
    }
}

impl fmt::Display for Arch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.family_name())?;
        if self.entries != self.family.default_entries() {
            write!(f, ",entries={}", self.entries.unwrap_or_default())?;
        }
        if self.slow_bus {
            f.write_str(",bus=slow")?;
        }
        Ok(())
    }
}

impl FromStr for Arch {
    type Err = String;

    /// Parses `<family>[,entries=N][,bus=slow]`; the error names
    /// the spec.
    fn from_str(spec: &str) -> Result<Arch, String> {
        let err = |why: String| format!("architecture `{spec}`: {why}");
        let mut parts = spec.split(',');
        let name = parts.next().unwrap_or_default();
        let mut arch = FAMILIES
            .iter()
            .find(|&&(n, _)| n == name)
            .map(|&(_, family)| Arch::new(family))
            .ok_or_else(|| err(format!("unknown family `{name}` (try --list-archs)")))?;
        for option in parts {
            arch = match option.split_once('=') {
                Some(("entries", n)) => {
                    let n = n
                        .parse()
                        .map_err(|_| err(format!("entries needs a number, got `{n}`")))?;
                    arch.with_entries(n).map_err(err)?
                }
                Some(("bus", "slow")) => arch.on_slow_bus(),
                _ => {
                    return Err(err(format!(
                        "unknown option `{option}` (options: entries=N, bus=slow)"
                    )))
                }
            };
        }
        Ok(arch)
    }
}

/// A built memory system: one variant per concrete system, so a group
/// pass dispatches once per cell per chunk ([`System::feed`]) and the
/// core loop stays monomorphic per system.
#[derive(Debug)]
pub enum System {
    /// `baseline` and `two-way`.
    Baseline(BaselineSystem),
    /// `victim:*`, `prefetch:*`, `exclusion:*` and `amb:*`.
    Assist(AssistSystem),
    /// `rpt` and `rpt:filtered`.
    Rpt(RptSystem),
    /// `pseudo:*`.
    Pseudo(PseudoAssocSystem),
    /// `remap:*`.
    Remap(RemapSystem),
}

/// Evaluates `$body` with `$s` bound to the concrete system inside
/// `$system`.
macro_rules! each_system {
    ($system:expr, $s:ident => $body:expr) => {
        match $system {
            System::Baseline($s) => $body,
            System::Assist($s) => $body,
            System::Rpt($s) => $body,
            System::Pseudo($s) => $body,
            System::Remap($s) => $body,
        }
    };
}

impl System {
    /// Feeds `events` to `run` over this system: one `match` per call,
    /// then the core loop compiled for the concrete system.
    pub fn feed(&mut self, run: &mut CpuRun, events: &[TraceEvent]) {
        each_system!(self, s => run.feed(s, events.iter().copied()));
    }
}

/// Per-access dispatch, for callers that drive a system one access at
/// a time; group passes use [`System::feed`].
impl MemorySystem for System {
    // Inline, so only the callers that use it compile it: a second
    // call site of each system's `access` in this crate stops the
    // compiler inlining `access` into that system's core loop.
    #[inline]
    fn access(&mut self, access: MemoryAccess, now: Cycle) -> MemResponse {
        each_system!(self, s => s.access(access, now))
    }

    fn label(&self) -> String {
        each_system!(self, s => s.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn options_parse_in_any_order_and_defaults_drop_out() {
        let arch: Arch = "amb:vicpreexc,bus=slow,entries=16".parse().unwrap();
        assert_eq!(arch.to_string(), "amb:vicpreexc,entries=16,bus=slow");
        let canonical: Arch = "exclusion:mat,entries=16".parse().unwrap();
        assert_eq!(canonical.to_string(), "exclusion:mat");
        assert_eq!(
            "rpt,entries=4".parse::<Arch>().unwrap().to_string(),
            "rpt,entries=4"
        );
        assert_eq!(
            "two-way,bus=slow".parse::<Arch>().unwrap(),
            Arch::new(Family::TwoWay).on_slow_bus()
        );
    }

    #[test]
    fn out_of_range_entries_are_parse_errors_naming_the_spec() {
        for (spec, why) in [
            ("victim:both,entries=0", "at least one entry"),
            ("victim:both,entries=1025", "at most 1024 entries"),
            ("amb:vicpreexc,entries=4294967296", "at most 1024 entries"),
            (
                "victim:both,entries=18446744073709551615",
                "at most 1024 entries",
            ),
        ] {
            let err = spec.parse::<Arch>().unwrap_err();
            assert!(err.contains(spec), "{err}");
            assert!(err.contains(why), "{err}");
        }
        let largest: Arch = "victim:both,entries=1024".parse().unwrap();
        assert_eq!(largest.to_string(), "victim:both,entries=1024");
    }

    #[test]
    fn unbuffered_families_reject_entries() {
        for spec in [
            "baseline,entries=4",
            "two-way,entries=8",
            "pseudo:mct,entries=2",
        ] {
            let err = spec.parse::<Arch>().unwrap_err();
            assert!(err.contains("no buffer"), "{spec}: {err}");
        }
    }

    #[test]
    fn malformed_specs_are_errors() {
        for spec in [
            "",
            "victim",
            "victim:both,",
            "victim:both,entries=",
            "victim:both,entries=-1",
            "victim:both,bus=medium",
            "victim:both,bus=fast",
            "victim:both,window=8",
            "Victim:Both",
        ] {
            assert!(spec.parse::<Arch>().is_err(), "`{spec}` parsed");
        }
    }

    #[test]
    fn build_honours_entries_and_bus() {
        let amb = Arch::new(Family::Assist(Amb(AmbPolicy::Vict)));
        let label = amb.with_entries(3).unwrap().build().label();
        assert_eq!(label, "AMB Vict (3 entries)");
        let gcc = workloads::by_name("gcc").unwrap();
        let cycles = |spec: &str| {
            let arch: Arch = spec.parse().unwrap();
            let (report, _) = arch.run(CpuConfig::paper_default(), crate::trace(&gcc, 5_000));
            report.cycles
        };
        assert!(cycles("prefetch:in,bus=slow") > cycles("prefetch:in"));
    }
}
