//! The **Adaptive Miss Buffer** (paper §5.5).
//!
//! The paper's payoff: with the MCT identifying each miss's type on
//! the fly, one small buffer can apply *the most appropriate
//! optimization to each miss individually* —
//!
//! * **conflict misses** → victim-cache the displaced line (and serve
//!   victim hits without swapping);
//! * **capacity misses** → prefetch the next line, and/or exclude the
//!   missing line into the buffer instead of polluting the cache.
//!
//! All policies share a single fully-associative buffer (8 entries by
//! default, 16 in the larger configuration) whose entries are tagged
//! with the *role* they entered under; roles can transition (a
//! prefetched line hit under an exclusion policy becomes an exclusion
//! line). Multi-policy decisions use the *out-conflict* filter, per
//! the paper.
//!
//! The AMB is the assist engine ([`assist_buffer::AssistSystem`])
//! with every role switched on that its policy names; the victim
//! cache, the next-line prefetcher and the bypass buffer are the same
//! engine with one role each. This crate names it.
//!
//! The headline result this crate reproduces: the combined `VictPref`
//! policy more than doubles the gain of any single policy with the
//! same 8-entry buffer, and the do-everything `VicPreExc` becomes
//! attractive at 16 entries (Figure 6); the gain comes from covering
//! both miss classes at once (Figure 7).
//!
//! # Examples
//!
//! ```
//! use amb::{AmbConfig, AmbPolicy, AmbSystem};
//! use cpu_model::{CpuConfig, OooModel};
//! use trace_gen::pattern::SetConflict;
//! use trace_gen::TraceSource;
//! use sim_core::Addr;
//!
//! let trace: Vec<_> = SetConflict::new(Addr::new(0), 2, 16 * 1024, 1)
//!     .take_events(2_000)
//!     .collect();
//! let mut sys = AmbSystem::paper_default(AmbConfig::new(AmbPolicy::VictPref))?;
//! OooModel::new(CpuConfig::paper_default()).run(&mut sys, trace);
//! assert!(sys.stats().victim_hit_rate() > 0.4);
//! # Ok::<(), cache_model::ConfigError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use assist_buffer::{AmbPolicy, AssistConfig as AmbConfig, AssistSystem as AmbSystem};
