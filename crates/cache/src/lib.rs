//! The cache substrate for the conflict-miss reproduction.
//!
//! The paper evaluates the Miss Classification Table on a simulated
//! three-level memory system: a 16 KB direct-mapped, 8-way banked L1
//! data cache, a 1 MB 2-way L2 (20 cycles), and main memory
//! (100 cycles), with 64-byte lines and up to 16 misses in flight.
//! This crate provides all of those pieces as reusable components:
//!
//! * [`CacheGeometry`] — size / associativity / line-size math;
//! * [`SetAssocCache`] — an LRU set-associative cache with per-line
//!   metadata (used for the paper's *conflict bit*);
//! * [`oracle::ThreeCClassifier`] — the classic compulsory / capacity /
//!   conflict classification (Hill), used as ground truth;
//! * [`MshrFile`] — non-blocking-miss bookkeeping;
//! * [`BankedPorts`] — bank/port contention;
//! * [`L2Memory`] — the shared L2 + main-memory timing backend.
//!
//! # Examples
//!
//! ```
//! use cache_model::{CacheGeometry, SetAssocCache};
//! use sim_core::Addr;
//!
//! let geom = CacheGeometry::new(16 * 1024, 1, 64)?; // 16 KB direct-mapped
//! let mut cache: SetAssocCache<()> = SetAssocCache::new(geom);
//! let line = Addr::new(0x4000).line(64);
//! assert!(cache.probe(line).is_none());      // cold miss
//! cache.fill(line, ());
//! assert!(cache.probe(line).is_some());      // now a hit
//! # Ok::<(), cache_model::ConfigError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bank;
mod cache;
mod geometry;
mod hierarchy;
mod mshr;
pub mod oracle;
mod stats;

pub use bank::BankedPorts;
pub use cache::{BlockOutcome, BlockSink, Eviction, Replacement, SetAssocCache};
pub use geometry::{CacheGeometry, ConfigError};
pub use hierarchy::{FetchResult, L2Memory, L2MemoryConfig};
pub use mshr::{MshrFile, MshrOutcome};
pub use stats::CacheStats;
