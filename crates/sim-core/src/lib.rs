//! Foundational types shared by every crate in the conflict-miss
//! reproduction workspace.
//!
//! This crate deliberately has no dependencies, so that the simulation
//! substrate is fully deterministic and self-contained:
//!
//! * [`Addr`] / [`LineAddr`] — byte and cache-line addresses;
//! * [`Cycle`] — simulated time;
//! * [`rng`] — a small, seedable, version-stable PRNG
//!   ([`rng::SplitMix64`]);
//! * [`hash`] — the fast unkeyed [`hash::FxHasher`] for
//!   simulator-internal maps ([`hash::FxHashMap`],
//!   [`hash::FxHashSet`]);
//! * [`parallel`] — the order-preserving fork/join scheduler every
//!   experiment fans independent cells out with (a panicking cell
//!   fails the call with its own message);
//! * [`probe`] — zero-overhead-when-disabled observability probes
//!   (event sinks, per-epoch folds, named counter registry);
//! * [`registry`] — the canonical contract registry (schema
//!   identifiers, span-name prefixes, bench-group prefixes, hot entry
//!   points) that runtime checks and `simlint` both consume;
//! * [`span`] — hierarchical self-profiling spans (per-phase timing
//!   with the same zero-overhead-when-disarmed discipline);
//! * [`stats`] — counters, ratios and accumulators used to report
//!   hit rates and speedups.
//!
//! # Examples
//!
//! ```
//! use sim_core::{Addr, LineAddr};
//!
//! let a = Addr::new(0x1_2345);
//! let line = a.line(64);
//! assert_eq!(line, LineAddr::new(0x1_2345 >> 6));
//! assert_eq!(line.base_addr(64), Addr::new(0x1_2340));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod addr;
mod cycle;
pub mod hash;
pub mod parallel;
pub mod probe;
pub mod registry;
pub mod rng;
pub mod span;
pub mod stats;

pub use addr::{Addr, LineAddr};
pub use cycle::Cycle;

/// Returns `log2(n)` for a power of two, or `None` otherwise.
///
/// Cache geometry code uses this to validate sizes and to split
/// addresses into offset/index/tag fields.
///
/// # Examples
///
/// ```
/// assert_eq!(sim_core::log2_exact(64), Some(6));
/// assert_eq!(sim_core::log2_exact(48), None);
/// assert_eq!(sim_core::log2_exact(0), None);
/// ```
#[must_use]
pub fn log2_exact(n: u64) -> Option<u32> {
    if n.is_power_of_two() {
        Some(n.trailing_zeros())
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log2_exact_powers() {
        for shift in 0..63 {
            assert_eq!(log2_exact(1 << shift), Some(shift));
        }
    }

    #[test]
    fn log2_exact_non_powers() {
        for n in [0u64, 3, 5, 6, 7, 9, 100, 1000, u64::MAX] {
            assert_eq!(log2_exact(n), None, "n = {n}");
        }
    }
}
