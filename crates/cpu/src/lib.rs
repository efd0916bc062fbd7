//! A trace-driven out-of-order processor timing model.
//!
//! The paper evaluates its cache architectures on SMTSIM, an
//! emulation-driven out-of-order Alpha simulator (7-stage pipeline,
//! 8-wide fetch/issue, two 32-entry instruction queues, four
//! load/store units, non-blocking caches with 16 outstanding misses).
//! This crate substitutes a trace-driven timing model that captures
//! what drives the paper's *relative* results: memory-latency overlap
//! bounded by the instruction window and MSHRs, load/store-unit
//! and cache-bank contention, and the instruction-throughput cost of
//! pipeline work between accesses.
//!
//! The three pieces:
//!
//! * [`MemorySystem`] — the interface every cache-assist architecture
//!   implements (victim cache, prefetcher, exclusion, AMB, …);
//! * [`OooModel`] — the processor: runs a trace against any
//!   `MemorySystem` and reports cycles/IPC, in one call or as a
//!   [`CpuRun`] fed chunk by chunk;
//! * [`Plumbing`] / [`BaselineSystem`] — the shared L1 miss path
//!   (banked ports, MSHR file, L2 + memory) and the no-assist
//!   baseline built from it.
//!
//! # Examples
//!
//! ```
//! use cpu_model::{BaselineSystem, CpuConfig, MemTimings, OooModel};
//! use trace_gen::pattern::SequentialSweep;
//! use trace_gen::TraceSource;
//! use sim_core::Addr;
//!
//! let mut mem = BaselineSystem::paper_default()?;
//! let cpu = OooModel::new(CpuConfig::paper_default());
//! let trace = SequentialSweep::new(Addr::new(0), 256 * 1024, 8).take_events(10_000);
//! let report = cpu.run(&mut mem, trace);
//! assert!(report.ipc() > 0.1 && report.ipc() < 8.0);
//! # Ok::<(), cache_model::ConfigError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod baseline;
mod model;
mod plumbing;
mod smt;
mod system;

pub use baseline::BaselineSystem;
pub use model::{CpuConfig, CpuReport, CpuRun, OooModel};
pub use plumbing::{MemTimings, Plumbing};
pub use smt::{SmtModel, SmtReport};
pub use system::{MemResponse, MemorySystem};
