//! Bank and port contention.
//!
//! The paper's L1 data cache is multi-ported via 8-way banking, and
//! the core has four load/store units. [`BankedPorts`] models such a
//! pool as a set of resources that each become free at some cycle: a
//! request either targets the bank its line maps to or takes whichever
//! resource frees first. The cache-assist buffers' read/write ports,
//! whose line swaps hold two ports at once, are modeled separately
//! inside the assist engine (`assist_buffer`).

use sim_core::{Cycle, LineAddr};

/// A set of independently scheduled resources (cache banks, load/store
/// units, a bus): each request reserves one resource for a span of
/// cycles and is granted at the earliest time the target resource is
/// free.
///
/// # Examples
///
/// ```
/// use cache_model::BankedPorts;
/// use sim_core::{Cycle, LineAddr};
///
/// // A pool of 2 ports, each request taking whichever frees first.
/// let mut ports = BankedPorts::new(2);
/// let now = Cycle::ZERO;
/// assert_eq!(ports.acquire_any(now, 2), now);       // port 0 busy till 2
/// assert_eq!(ports.acquire_any(now, 2), now);       // port 1 busy till 2
/// assert_eq!(ports.acquire_any(now, 2), Cycle::new(2)); // must wait
/// ```
#[derive(Debug, Clone)]
pub struct BankedPorts {
    free_at: Vec<Cycle>,
}

impl BankedPorts {
    /// Creates `count` resources, all free at cycle zero.
    ///
    /// # Panics
    ///
    /// Panics if `count` is zero.
    #[must_use]
    pub fn new(count: usize) -> Self {
        assert!(count > 0, "need at least one bank/port");
        BankedPorts {
            free_at: vec![Cycle::ZERO; count],
        }
    }

    /// Number of resources.
    #[must_use]
    pub fn count(&self) -> usize {
        self.free_at.len()
    }

    /// Reserves the bank a line maps to (line-addressed banking) for
    /// `busy` cycles starting no earlier than `now`; returns the grant
    /// time.
    ///
    /// The bank is the line's low bits, selected with a mask, so the
    /// resource count must be a power of two (checked in debug builds;
    /// `cpu_model::Plumbing::new` rejects other L1 bank counts).
    #[inline]
    pub fn acquire_for_line(&mut self, line: LineAddr, now: Cycle, busy: u64) -> Cycle {
        debug_assert!(
            self.free_at.len().is_power_of_two(),
            "line-addressed banking needs a power-of-two bank count"
        );
        let bank = (line.raw() & (self.free_at.len() as u64 - 1)) as usize;
        self.acquire_index(bank, now, busy)
    }

    /// Reserves whichever resource frees first (port pools) for `busy`
    /// cycles starting no earlier than `now`; returns the grant time.
    /// Ties go to the lowest index.
    #[inline]
    pub fn acquire_any(&mut self, now: Cycle, busy: u64) -> Cycle {
        let mut idx = 0;
        for i in 1..self.free_at.len() {
            if self.free_at[i] < self.free_at[idx] {
                idx = i;
            }
        }
        self.acquire_index(idx, now, busy)
    }

    #[inline]
    fn acquire_index(&mut self, idx: usize, now: Cycle, busy: u64) -> Cycle {
        let grant = self.free_at[idx].max(now);
        self.free_at[idx] = grant + busy;
        grant
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn different_banks_no_contention() {
        let mut b = BankedPorts::new(8);
        let now = Cycle::ZERO;
        // Lines 0..8 hash to distinct banks.
        for n in 0..8 {
            assert_eq!(b.acquire_for_line(LineAddr::new(n), now, 1), now);
        }
    }

    #[test]
    fn same_bank_serializes() {
        let mut b = BankedPorts::new(8);
        let now = Cycle::ZERO;
        let l = LineAddr::new(3);
        assert_eq!(b.acquire_for_line(l, now, 1), Cycle::new(0));
        assert_eq!(b.acquire_for_line(l, now, 1), Cycle::new(1));
        // Line 11 maps to the same bank (11 % 8 == 3).
        assert_eq!(b.acquire_for_line(LineAddr::new(11), now, 1), Cycle::new(2));
    }

    #[test]
    fn grant_never_before_now() {
        let mut p = BankedPorts::new(1);
        assert_eq!(p.acquire_any(Cycle::new(100), 1), Cycle::new(100));
    }
}
