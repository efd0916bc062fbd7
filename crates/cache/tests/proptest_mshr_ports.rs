//! Property tests for the MSHR file and port arbiters.

use cache_model::{BankedPorts, MshrFile};
use proptest::prelude::*;
use sim_core::{Cycle, LineAddr};

/// The MSHR file in its plainest form: every call first scans the
/// entries and releases the completed ones.
struct RefMshrs {
    capacity: usize,
    entries: Vec<(LineAddr, Cycle)>,
}

impl RefMshrs {
    fn retire(&mut self, now: Cycle) {
        self.entries.retain(|&(_, ready)| ready > now);
    }

    fn lookup(&mut self, line: LineAddr, now: Cycle) -> Option<Cycle> {
        self.retire(now);
        self.entries.iter().find(|e| e.0 == line).map(|e| e.1)
    }

    fn has_free(&mut self, now: Cycle) -> bool {
        self.retire(now);
        self.entries.len() < self.capacity
    }

    fn insert(&mut self, line: LineAddr, ready: Cycle) {
        assert!(self.entries.len() < self.capacity);
        self.entries.push((line, ready));
    }

    fn earliest_ready(&self) -> Option<Cycle> {
        self.entries.iter().map(|e| e.1).min()
    }

    fn outstanding(&mut self, now: Cycle) -> usize {
        self.retire(now);
        self.entries.len()
    }
}

proptest! {
    /// Port grants never precede the request and each resource is
    /// never double-booked: at most `resources` grants can coexist in
    /// any busy window.
    #[test]
    fn ports_never_overcommit(
        requests in prop::collection::vec(0u64..20, 1..200)
    ) {
        let mut ports = BankedPorts::new(3);
        let mut now = Cycle::ZERO;
        let mut grants = Vec::new();
        for advance in requests {
            now += advance;
            let grant = ports.acquire_any(now, 2);
            prop_assert!(grant >= now);
            grants.push(grant.raw());
        }
        grants.sort_unstable();
        for w in grants.windows(4) {
            prop_assert!(
                w[3] >= w[0] + 2,
                "4 grants within one 2-cycle occupancy: {w:?}"
            );
        }
    }

    /// The file's early-out release (it scans only once its earliest
    /// fill has completed) answers exactly as a file that scans on
    /// every call, over any interleaving of lookups, allocation
    /// checks, allocations and observations, with time moving either
    /// way (a stalled demand miss probes ahead of the next access's
    /// time). An allocation takes `Plumbing`'s lookup / has_free /
    /// insert sequence: the file never holds more entries than its
    /// capacity, and a lookup that coalesces returns the ready cycle of
    /// the line's first allocation.
    #[test]
    fn mshr_early_out_matches_a_file_that_always_retires(
        capacity in 1usize..6,
        ops in prop::collection::vec((0u8..5, 0u64..12, 0u64..40, 1u64..200), 1..300)
    ) {
        let mut mshrs = MshrFile::new(capacity);
        let mut reference = RefMshrs { capacity, entries: Vec::new() };
        // Ready cycle of each line's in-flight allocation.
        let mut allocated = std::collections::HashMap::new();
        let mut now = 100u64;
        for (op, line, step, latency) in ops {
            // Mostly forward, sometimes back.
            now = if step < 30 { now + step } else { now.saturating_sub(step) };
            let (t, line) = (Cycle::new(now), LineAddr::new(line));
            match op {
                0 => prop_assert_eq!(mshrs.lookup(line, t), reference.lookup(line, t)),
                1 => prop_assert_eq!(mshrs.has_free(t), reference.has_free(t)),
                2 => {
                    let inflight = mshrs.lookup(line, t);
                    prop_assert_eq!(inflight, reference.lookup(line, t));
                    if let Some(ready) = inflight {
                        prop_assert_eq!(Some(&ready), allocated.get(&line));
                    } else if mshrs.has_free(t) {
                        prop_assert!(reference.has_free(t));
                        mshrs.insert(line, t + latency);
                        reference.insert(line, t + latency);
                        allocated.insert(line, t + latency);
                    } else {
                        prop_assert!(!reference.has_free(t));
                    }
                    prop_assert!(mshrs.outstanding(t) <= capacity);
                }
                3 => prop_assert_eq!(mshrs.earliest_ready(), reference.earliest_ready()),
                _ => prop_assert_eq!(mshrs.outstanding(t), reference.outstanding(t)),
            }
            prop_assert_eq!(mshrs.earliest_ready(), reference.earliest_ready());
        }
    }
}
