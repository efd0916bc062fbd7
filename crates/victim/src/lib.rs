//! A victim cache with miss-classification filtering (paper §5.1).
//!
//! The victim buffer (Jouppi) holds lines recently evicted from the
//! L1; it is probed after an L1 miss and can return data with one
//! extra cycle of latency. The paper adds two MCT-based policy knobs:
//!
//! * **filter swaps** — on a victim-buffer hit classified as a
//!   conflict miss, serve the data from the buffer *without* swapping
//!   the line back into the cache, eliminating the ping-pong of
//!   contended lines between the cache and the buffer;
//! * **filter fills** — when the L1 evicts a line on a capacity miss,
//!   bypass the buffer entirely (don't fill), keeping buffer entries
//!   for lines with conflict evidence.
//!
//! Both filters use the *or-conflict* criterion (the paper's most
//! liberal identification of conflict misses).
//!
//! The victim cache is one configuration of the assist engine
//! ([`assist_buffer::AssistSystem`]): victim lines carry the conflict
//! bit they left the L1 with, and a hit that does not stay swaps with
//! the L1. This crate names it.
//!
//! # Examples
//!
//! ```
//! use victim_cache::{VictimConfig, VictimPolicy, VictimSystem};
//! use cpu_model::{CpuConfig, OooModel};
//! use trace_gen::pattern::SetConflict;
//! use trace_gen::TraceSource;
//! use sim_core::Addr;
//!
//! // Two lines ping-ponging in one set: the victim cache's best case.
//! let trace: Vec<_> = SetConflict::new(Addr::new(0), 2, 16 * 1024, 1)
//!     .take_events(2_000)
//!     .collect();
//! let mut sys = VictimSystem::paper_default(VictimConfig::new(VictimPolicy::FilterBoth))?;
//! let cpu = OooModel::new(CpuConfig::paper_default());
//! cpu.run(&mut sys, trace);
//! assert!(sys.stats().total_hit_rate() > 0.9);
//! # Ok::<(), cache_model::ConfigError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use assist_buffer::{AssistConfig as VictimConfig, AssistSystem as VictimSystem, VictimPolicy};
