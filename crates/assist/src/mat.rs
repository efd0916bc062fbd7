//! Johnson & Hwu's memory access table (MAT).

use sim_core::Addr;

/// Per-region access-frequency counters, the exclusion baseline.
///
/// Memory is divided into 1 KB regions; a direct-mapped, tag-matched
/// table of saturating counters records how often each region is
/// touched. On a miss, the incoming line's region count is compared
/// with the victim's: a colder region must not displace a hotter one.
///
/// The cost the paper holds against this scheme: the table is read,
/// incremented and written on **every** access (×4 for a 4-wide
/// load/store pipeline), where the MCT is touched only on misses.
///
/// # Examples
///
/// ```
/// use assist_buffer::MemoryAccessTable;
/// use sim_core::Addr;
///
/// let mut mat = MemoryAccessTable::new(1024, 1024);
/// for _ in 0..10 { mat.touch(Addr::new(0)); }       // hot region 0
/// mat.touch(Addr::new(5 * 1024));                   // cold region 5
/// assert!(mat.should_exclude(Addr::new(5 * 1024), Addr::new(8)));
/// assert!(!mat.should_exclude(Addr::new(8), Addr::new(5 * 1024)));
/// ```
#[derive(Debug, Clone)]
pub struct MemoryAccessTable {
    entries: Vec<MatEntry>,
    region_bytes: u64,
}

#[derive(Debug, Clone, Copy, Default)]
struct MatEntry {
    region: u64,
    count: u32,
    valid: bool,
}

const COUNT_MAX: u32 = 255;

impl MemoryAccessTable {
    /// Creates a table of `entries` counters over `region_bytes`
    /// regions (the paper simulates 1 K entries over 1 KB regions).
    ///
    /// # Panics
    ///
    /// Panics if `entries` is zero or `region_bytes` is not a power of
    /// two.
    #[must_use]
    pub fn new(entries: usize, region_bytes: u64) -> Self {
        assert!(entries > 0, "MAT needs entries");
        assert!(
            region_bytes.is_power_of_two(),
            "region size must be a power of two"
        );
        MemoryAccessTable {
            entries: vec![MatEntry::default(); entries],
            region_bytes,
        }
    }

    fn region(&self, addr: Addr) -> u64 {
        addr.raw() / self.region_bytes
    }

    fn index(&self, region: u64) -> usize {
        (region % self.entries.len() as u64) as usize
    }

    /// Records one access (called on **every** reference).
    pub fn touch(&mut self, addr: Addr) {
        let region = self.region(addr);
        let idx = self.index(region);
        let e = &mut self.entries[idx];
        if e.valid && e.region == region {
            e.count = (e.count + 1).min(COUNT_MAX);
        } else {
            // A colliding region displaces the entry and starts cold.
            *e = MatEntry {
                region,
                count: 1,
                valid: true,
            };
        }
    }

    /// The current count for an address's region (0 if untracked).
    #[must_use]
    pub fn count(&self, addr: Addr) -> u32 {
        let region = self.region(addr);
        let e = &self.entries[self.index(region)];
        if e.valid && e.region == region {
            e.count
        } else {
            0
        }
    }

    /// Johnson & Hwu's exclusion rule: a miss on `incoming` must not
    /// displace `victim` when the incoming region is strictly colder.
    #[must_use]
    pub fn should_exclude(&self, incoming: Addr, victim: Addr) -> bool {
        self.count(incoming) < self.count(victim)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_saturate() {
        let mut mat = MemoryAccessTable::new(16, 1024);
        for _ in 0..1000 {
            mat.touch(Addr::new(0));
        }
        assert_eq!(mat.count(Addr::new(0)), COUNT_MAX);
    }

    #[test]
    fn same_region_shares_counter() {
        let mut mat = MemoryAccessTable::new(16, 1024);
        mat.touch(Addr::new(0));
        mat.touch(Addr::new(1023));
        assert_eq!(mat.count(Addr::new(512)), 2);
        // Next region over is independent.
        assert_eq!(mat.count(Addr::new(1024)), 0);
    }

    #[test]
    fn colliding_region_resets_entry() {
        let mut mat = MemoryAccessTable::new(16, 1024);
        for _ in 0..5 {
            mat.touch(Addr::new(0)); // region 0 -> entry 0
        }
        mat.touch(Addr::new(16 * 1024)); // region 16 -> entry 0 too
        assert_eq!(mat.count(Addr::new(16 * 1024)), 1);
        assert_eq!(mat.count(Addr::new(0)), 0); // displaced
    }

    #[test]
    fn equal_counts_do_not_exclude() {
        let mat = MemoryAccessTable::new(16, 1024);
        // Both untracked: 0 vs 0.
        assert!(!mat.should_exclude(Addr::new(0), Addr::new(4096)));
    }
}
