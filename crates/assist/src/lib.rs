//! The cache-assist buffer shared by every architecture in the paper,
//! and the one engine that runs it as each of them.
//!
//! Paper §4: "We will model a variety of flavors of a cache assist
//! buffer, which will serve at different times as a victim buffer,
//! prefetch buffer, cache bypass buffer, or the adaptive miss buffer.
//! In each case the structure is very similar. In most cases it will
//! have eight fully-associative entries and have two read and two
//! write ports. It can produce a word to the CPU in one cycle. A full
//! cache line read or write requires a port for two cycles. A line
//! swap with the data cache requires two ports for two cycles."
//!
//! [`AssistBuffer`] is the storage (fully-associative, LRU, generic
//! per-entry metadata); [`BufferPorts`] is the timing model.
//! [`AssistSystem`] is the memory system: a classifying L1 and one
//! buffer whose entries carry the role they entered under (victim,
//! prefetch, exclusion). An [`AssistConfig`] built from an
//! [`AssistPolicy`] sets its per-miss rules, so the victim cache
//! (§5.1), the next-line prefetcher (§5.2), the bypass buffer (§5.3)
//! and the Adaptive Miss Buffer (§5.5) are four configurations of one
//! code path. The `victim-cache`, `prefetcher`, `exclusion` and `amb`
//! crates name them.
//!
//! # Examples
//!
//! ```
//! use assist_buffer::AssistBuffer;
//! use sim_core::LineAddr;
//!
//! let mut buf: AssistBuffer<&str> = AssistBuffer::new(2);
//! buf.insert(LineAddr::new(1), "victim");
//! buf.insert(LineAddr::new(2), "prefetch");
//! let evicted = buf.insert(LineAddr::new(3), "bypass").unwrap();
//! assert_eq!(evicted, (LineAddr::new(1), "victim")); // LRU out
//! ```
//!
//! The Adaptive Miss Buffer's combined policy on a ping-ponging pair:
//!
//! ```
//! use assist_buffer::{AmbPolicy, AssistConfig, AssistSystem};
//! use cpu_model::{CpuConfig, OooModel};
//! use trace_gen::pattern::SetConflict;
//! use trace_gen::TraceSource;
//! use sim_core::Addr;
//!
//! let trace: Vec<_> = SetConflict::new(Addr::new(0), 2, 16 * 1024, 1)
//!     .take_events(2_000)
//!     .collect();
//! let mut sys = AssistSystem::paper_default(AssistConfig::new(AmbPolicy::VictPref))?;
//! OooModel::new(CpuConfig::paper_default()).run(&mut sys, trace);
//! assert!(sys.stats().victim_hit_rate() > 0.4);
//! # Ok::<(), cache_model::ConfigError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod buffer;
mod config;
mod engine;
mod mat;
mod ports;

pub use buffer::AssistBuffer;
pub use config::{AmbPolicy, AssistConfig, AssistPolicy, ExclusionPolicy, VictimPolicy};
pub use engine::{AssistStats, AssistSystem};
pub use mat::MemoryAccessTable;
pub use ports::BufferPorts;
