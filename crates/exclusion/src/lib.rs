//! Cache exclusion with miss-classification filtering (paper §5.3).
//!
//! Not every line deserves a cache slot: streaming data with a short
//! burst of use evicts lines with long-term value. *Cache exclusion*
//! redirects such lines into a small bypass buffer instead of the
//! cache. The paper compares:
//!
//! * the **MAT** (Johnson & Hwu): a 1 K-entry table of per-region
//!   access-frequency counters, read and updated on *every* access —
//!   exclude a miss whose region is colder than the victim's;
//! * four **MCT-based** filters that are consulted only on misses:
//!   exclude *capacity* misses (the paper's winner), exclude
//!   *conflict* misses, and region-history variants of both.
//!
//! Excluding capacity misses wins because streaming data is exactly
//! what the MCT labels capacity, while lines with conflict evidence
//! have proven their worth in the set.
//!
//! The bypass buffer is one configuration of the assist engine
//! ([`assist_buffer::AssistSystem`]): excluded lines stay in the
//! buffer until bumped, and the buffer is probed before a miss is
//! classified. This crate names it.
//!
//! # Examples
//!
//! ```
//! use exclusion::{ExclusionConfig, ExclusionPolicy, ExclusionSystem};
//! use cpu_model::{CpuConfig, OooModel};
//! use trace_gen::pattern::SequentialSweep;
//! use trace_gen::TraceSource;
//! use sim_core::Addr;
//!
//! // A pure stream: every miss is capacity, all excluded.
//! let trace: Vec<_> = SequentialSweep::new(Addr::new(0), 1 << 20, 8)
//!     .take_events(4_000)
//!     .collect();
//! let mut sys = ExclusionSystem::paper_default(ExclusionConfig::new(ExclusionPolicy::Capacity))?;
//! OooModel::new(CpuConfig::paper_default()).run(&mut sys, trace);
//! assert!(sys.stats().excluded > 400);
//! # Ok::<(), cache_model::ConfigError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use assist_buffer::{
    AssistConfig as ExclusionConfig, AssistSystem as ExclusionSystem, ExclusionPolicy,
    MemoryAccessTable,
};
