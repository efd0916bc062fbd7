//! SPEC95-analog synthetic workloads.
//!
//! The paper measures SPEC95 with reference inputs (300 M instructions
//! after a 1 B-instruction warmup). Those traces are not available, so
//! this crate provides deterministic synthetic stand-ins, one per
//! benchmark, each built from the access-pattern primitives in
//! [`trace_gen::pattern`] and shaped to reproduce the *property the
//! paper depends on*: the benchmark's rough miss rate and its mix of
//! conflict vs. capacity misses on the paper's 16 KB direct-mapped L1.
//!
//! What each analog captures is documented on [`Workload`] values and
//! summarized in DESIGN.md. None of them claims instruction-level
//! fidelity to the original program — they are reference generators,
//! the role SPEC95 plays in the paper's methodology.
//!
//! # Examples
//!
//! ```
//! use workloads::{suite, Workload};
//! use trace_gen::TraceSource;
//!
//! let tomcatv = suite().into_iter().find(|w| w.name() == "tomcatv").unwrap();
//! let mut src = tomcatv.source(42);
//! let event = src.next_event();       // deterministic for a seed
//! assert_eq!(event.access.addr, tomcatv.source(42).next_event().access.addr);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod recipes;

use core::fmt;

use trace_gen::TraceSource;

/// Whether the analog models a floating-point or integer benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Category {
    /// SPEC95fp analog (regular, numeric, memory-intensive).
    Fp,
    /// SPEC95int analog (irregular, pointer- and branch-heavy).
    Int,
}

impl fmt::Display for Category {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Category::Fp => f.write_str("fp"),
            Category::Int => f.write_str("int"),
        }
    }
}

/// One SPEC95-analog workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Workload {
    name: &'static str,
    description: &'static str,
    category: Category,
    kind: recipes::Kind,
}

impl Workload {
    pub(crate) const fn new(
        name: &'static str,
        description: &'static str,
        category: Category,
        kind: recipes::Kind,
    ) -> Self {
        Workload {
            name,
            description,
            category,
            kind,
        }
    }

    /// The benchmark name this analog stands in for.
    #[must_use]
    pub const fn name(&self) -> &'static str {
        self.name
    }

    /// What the analog models and why.
    #[must_use]
    pub const fn description(&self) -> &'static str {
        self.description
    }

    /// FP or INT.
    #[must_use]
    pub const fn category(&self) -> Category {
        self.category
    }

    /// Builds the workload's reference generator. The same `seed`
    /// always yields the same stream; the workload's identity is mixed
    /// into the seed so different workloads never share a stream.
    #[must_use]
    pub fn source(&self, seed: u64) -> Box<dyn TraceSource> {
        recipes::build(self.kind, seed)
    }
}

impl fmt::Display for Workload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({})", self.name, self.category)
    }
}

/// The full analog suite, including the "uninteresting" benchmarks the
/// paper drops after the accuracy study (e.g. near-perfect-hit-rate
/// codes). Use for Figures 1–2.
#[must_use]
pub fn full_suite() -> Vec<Workload> {
    recipes::full_suite()
}

/// The subset with "an interesting mix of conflict and capacity
/// behavior" the paper carries into §5. Use for Figures 3–7.
#[must_use]
pub fn suite() -> Vec<Workload> {
    recipes::suite()
}

/// The kernel-taxonomy patterns from ROADMAP item 5 (`uniform`,
/// `working_set_128`, `working_set_512`): the line-address shapes the
/// substrate benches sweep, promoted to workloads so figure drivers
/// and smoke tests can exercise the taxonomy end-to-end. Kept out of
/// [`full_suite`] so the paper figures stay SPEC95-analog-only.
#[must_use]
pub fn taxonomy_suite() -> Vec<Workload> {
    recipes::taxonomy_suite()
}

/// Looks a workload up by name in the full suite or the taxonomy
/// suite.
#[must_use]
pub fn by_name(name: &str) -> Option<Workload> {
    full_suite()
        .into_iter()
        .chain(taxonomy_suite())
        .find(|w| w.name() == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_is_subset_of_full_suite() {
        let full: Vec<_> = full_suite().iter().map(|w| w.name()).collect();
        for w in suite() {
            assert!(
                full.contains(&w.name()),
                "{} missing from full suite",
                w.name()
            );
        }
        assert!(
            suite().len() >= 8,
            "need a real suite, got {}",
            suite().len()
        );
        assert!(full_suite().len() > suite().len());
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<_> = full_suite().iter().map(|w| w.name()).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before);
    }

    #[test]
    fn by_name_finds_and_misses() {
        assert!(by_name("tomcatv").is_some());
        assert!(by_name("no-such-benchmark").is_none());
    }

    #[test]
    fn taxonomy_suite_is_disjoint_and_deterministic() {
        let names: Vec<_> = taxonomy_suite().iter().map(|w| w.name()).collect();
        assert_eq!(names, ["uniform", "working_set_128", "working_set_512"]);
        let full: Vec<_> = full_suite().iter().map(|w| w.name()).collect();
        for name in &names {
            assert!(!full.contains(name), "{name} leaked into the full suite");
        }
        assert!(by_name("working_set_512").is_some());
        for w in taxonomy_suite() {
            let stream = |mut s: Box<dyn TraceSource>| -> Vec<_> {
                (0..200).map(|_| s.next_event().access.addr).collect()
            };
            assert_eq!(
                stream(w.source(7)),
                stream(w.source(7)),
                "{} not deterministic",
                w.name()
            );
        }
    }

    #[test]
    fn sources_are_deterministic_per_seed() {
        for w in full_suite() {
            let a: Vec<_> = (0..200)
                .map({
                    let mut s = w.source(7);
                    move |_| s.next_event()
                })
                .collect();
            let b: Vec<_> = (0..200)
                .map({
                    let mut s = w.source(7);
                    move |_| s.next_event()
                })
                .collect();
            assert_eq!(a, b, "{} not deterministic", w.name());
        }
    }

    #[test]
    fn different_seeds_differ_for_randomized_workloads() {
        let w = by_name("gcc").unwrap();
        let a: Vec<_> = (0..500)
            .map({
                let mut s = w.source(1);
                move |_| s.next_event().access.addr
            })
            .collect();
        let b: Vec<_> = (0..500)
            .map({
                let mut s = w.source(2);
                move |_| s.next_event().access.addr
            })
            .collect();
        assert_ne!(a, b);
    }

    #[test]
    fn display_mentions_category() {
        let w = by_name("tomcatv").unwrap();
        assert_eq!(w.to_string(), "tomcatv (fp)");
    }
}
