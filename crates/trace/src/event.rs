//! Trace event types.

use core::fmt;

use sim_core::Addr;

/// Whether a memory access reads or writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// A load (the processor waits for the data).
    Load,
    /// A store (retired through a write buffer; does not block).
    Store,
}

impl fmt::Display for AccessKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AccessKind::Load => f.write_str("load"),
            AccessKind::Store => f.write_str("store"),
        }
    }
}

/// One memory reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MemoryAccess {
    /// The byte address referenced.
    pub addr: Addr,
    /// Load or store.
    pub kind: AccessKind,
    /// The program counter of the referencing instruction. Synthetic
    /// workloads assign stable per-pattern PCs so PC-indexed
    /// structures behave sensibly.
    pub pc: Addr,
}

impl MemoryAccess {
    /// Convenience constructor for a load.
    #[must_use]
    pub const fn load(addr: Addr, pc: Addr) -> Self {
        MemoryAccess {
            addr,
            kind: AccessKind::Load,
            pc,
        }
    }

    /// Convenience constructor for a store.
    #[must_use]
    pub const fn store(addr: Addr, pc: Addr) -> Self {
        MemoryAccess {
            addr,
            kind: AccessKind::Store,
            pc,
        }
    }
}

/// One trace event: a memory access plus the number of non-memory
/// instructions dispatched before it.
///
/// `work` lets the timing model interleave computation with memory
/// traffic — a pointer-chasing workload with `work = 2` is far more
/// latency-bound than a dense numeric loop with `work = 6`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceEvent {
    /// The memory access.
    pub access: MemoryAccess,
    /// Non-memory instructions preceding the access.
    pub work: u32,
}

impl TraceEvent {
    /// Creates an event.
    #[must_use]
    pub const fn new(access: MemoryAccess, work: u32) -> Self {
        TraceEvent { access, work }
    }

    /// Total instructions this event represents (the access itself
    /// plus preceding work).
    #[must_use]
    pub const fn instructions(&self) -> u64 {
        self.work as u64 + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_set_kind() {
        let pc = Addr::new(0x400000);
        assert_eq!(MemoryAccess::load(Addr::new(8), pc).kind, AccessKind::Load);
        assert_eq!(
            MemoryAccess::store(Addr::new(8), pc).kind,
            AccessKind::Store
        );
    }

    #[test]
    fn instructions_counts_access_itself() {
        let e = TraceEvent::new(MemoryAccess::load(Addr::new(0), Addr::new(0)), 5);
        assert_eq!(e.instructions(), 6);
    }

    #[test]
    fn kind_display() {
        assert_eq!(AccessKind::Load.to_string(), "load");
        assert_eq!(AccessKind::Store.to_string(), "store");
    }
}
