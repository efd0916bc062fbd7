//! A Chen & Baer reference prediction table (RPT): the stride
//! prefetcher's source.
//!
//! The comparison point the paper mentions in §5.2: per-instruction
//! stride prediction with the classic four-state entry automaton
//! (initial → transient → steady; no-pred on breakdown). Unlike the
//! next-line scheme, the RPT must be read and updated on **every**
//! memory access — the hardware cost the MCT-based filter avoids.

use sim_core::Addr;
use trace_gen::MemoryAccess;

/// RPT entry states (Chen & Baer).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Initial,
    Transient,
    Steady,
    NoPred,
}

#[derive(Debug, Clone, Copy)]
struct RptEntry {
    tag: u64,
    last_addr: u64,
    stride: i64,
    state: State,
}

/// Entries in the (direct-mapped, PC-indexed) prediction table.
const TABLE_ENTRIES: usize = 512;

/// The prediction table.
#[derive(Debug)]
pub(crate) struct StrideTable {
    entries: Vec<Option<RptEntry>>,
}

impl StrideTable {
    pub(crate) fn new() -> Self {
        StrideTable {
            entries: vec![None; TABLE_ENTRIES],
        }
    }

    /// Updates the table for one access and returns a predicted next
    /// address if the entry is confident.
    pub(crate) fn update(&mut self, access: MemoryAccess) -> Option<Addr> {
        let idx = (access.pc.raw() >> 2) as usize % TABLE_ENTRIES;
        let tag = access.pc.raw();
        let addr = access.addr.raw();
        let entry = &mut self.entries[idx];
        match entry {
            Some(e) if e.tag == tag => {
                let observed = addr as i64 - e.last_addr as i64;
                let correct = observed == e.stride;
                e.state = match (e.state, correct) {
                    (State::Initial, true) => State::Steady,
                    (State::Initial, false) => State::Transient,
                    (State::Transient, true) => State::Steady,
                    (State::Transient, false) => State::NoPred,
                    (State::Steady, true) => State::Steady,
                    (State::Steady, false) => State::Initial,
                    (State::NoPred, true) => State::Transient,
                    (State::NoPred, false) => State::NoPred,
                };
                if !correct && e.state != State::Steady {
                    e.stride = observed;
                }
                e.last_addr = addr;
                if e.state == State::Steady && e.stride != 0 {
                    return Some(Addr::new((addr as i64 + e.stride) as u64));
                }
                None
            }
            _ => {
                *entry = Some(RptEntry {
                    tag,
                    last_addr: addr,
                    stride: 0,
                    state: State::Initial,
                });
                None
            }
        }
    }
}
