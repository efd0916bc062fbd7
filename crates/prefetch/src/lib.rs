//! Hardware prefetching with miss-classification filtering
//! (paper §5.2).
//!
//! The paper's observation: a next-line prefetcher has high coverage
//! on "messy" codes but wastes many prefetches, and conflict misses
//! are poor prefetch candidates — the next line of a conflict miss is
//! rarely the next thing needed. Filtering prefetches by the MCT's
//! classification (don't prefetch on conflict misses) raises prefetch
//! accuracy substantially at little cost in coverage.
//!
//! Two prefetchers are provided:
//!
//! * [`NextLineSystem`] — the paper's subject: prefetch line+1 on a
//!   miss, optionally filtered by any [`mct::ConflictFilter`]. It is
//!   one configuration of the assist engine
//!   ([`assist_buffer::AssistSystem`]): prefetched lines wait in the
//!   buffer and move into the L1 on their first hit;
//! * [`RptSystem`] — a Chen & Baer reference prediction table (stride)
//!   prefetcher, the "more sophisticated" comparison point the paper
//!   mentions; it must be read and updated on *every* access, which is
//!   exactly the hardware cost the MCT-filtered next-line scheme
//!   avoids.
//!
//! # Examples
//!
//! ```
//! use prefetcher::{NextLineSystem, PrefetchConfig};
//! use cpu_model::{CpuConfig, OooModel};
//! use trace_gen::pattern::SequentialSweep;
//! use trace_gen::TraceSource;
//! use sim_core::Addr;
//!
//! // Streaming: next-line prefetching's best case.
//! let trace: Vec<_> = SequentialSweep::new(Addr::new(0), 1 << 20, 64)
//!     .take_events(4_000)
//!     .collect();
//! let mut sys = NextLineSystem::paper_default(PrefetchConfig::unfiltered())?;
//! OooModel::new(CpuConfig::paper_default()).run(&mut sys, trace);
//! assert!(sys.stats().coverage() > 0.8);
//! # Ok::<(), cache_model::ConfigError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod rpt;

pub use assist_buffer::{AssistConfig as PrefetchConfig, AssistSystem as NextLineSystem};
pub use rpt::{RptConfig, RptSystem};
