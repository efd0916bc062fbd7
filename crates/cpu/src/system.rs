//! The interface between the processor model and a memory system.

use sim_core::Cycle;
use trace_gen::MemoryAccess;

/// The memory system's answer to one access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemResponse {
    /// When the data is available to dependent instructions (loads) or
    /// the access has retired from the memory system's perspective
    /// (stores). Never earlier than the request time.
    pub ready: Cycle,
}

impl MemResponse {
    /// Creates a response ready at the given cycle.
    #[must_use]
    pub const fn at(ready: Cycle) -> Self {
        MemResponse { ready }
    }
}

/// A complete L1-and-below memory system as seen by the processor.
///
/// Every cache-assist architecture in this workspace (baseline, victim
/// cache, prefetcher, exclusion, pseudo-associative cache, adaptive
/// miss buffer) implements this trait, so the experiment harness can
/// swap architectures under one [`OooModel`](crate::OooModel).
///
/// Implementations are expected to be called with non-decreasing `now`
/// values within one run, and to model their own internal contention
/// (banks, buffer ports, MSHRs, buses).
pub trait MemorySystem {
    /// Services one access issued at `now`, returning when it
    /// completes.
    fn access(&mut self, access: MemoryAccess, now: Cycle) -> MemResponse;

    /// A short human-readable label for reports.
    fn label(&self) -> String {
        "memory".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::Addr;

    /// A fixed-latency memory for testing the trait plumbing.
    struct Fixed(u64);

    impl MemorySystem for Fixed {
        fn access(&mut self, _access: MemoryAccess, now: Cycle) -> MemResponse {
            MemResponse::at(now + self.0)
        }
    }

    #[test]
    fn trait_objects_and_references_work() {
        let mut fixed = Fixed(3);
        let access = MemoryAccess::load(Addr::new(0), Addr::new(0));
        let by_ref: &mut dyn MemorySystem = &mut fixed;
        assert_eq!(by_ref.access(access, Cycle::new(10)).ready, Cycle::new(13));
        assert_eq!(by_ref.label(), "memory");
    }
}
