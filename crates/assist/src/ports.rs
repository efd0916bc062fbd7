//! The assist buffer's port timing model.

use sim_core::Cycle;

/// Two read and two write ports, per the paper's buffer description.
///
/// * a word to the CPU takes one read port for one cycle;
/// * a full line read or write takes one port for two cycles;
/// * a swap with the data cache takes one read **and** one write port
///   for two cycles each, starting together.
#[derive(Debug, Clone)]
pub(crate) struct BufferPorts {
    read_free: [Cycle; 2],
    write_free: [Cycle; 2],
}

const WORD_CYCLES: u64 = 1;
const LINE_CYCLES: u64 = 2;

impl BufferPorts {
    /// Creates the 2R/2W port set, all free.
    pub(crate) fn new() -> Self {
        BufferPorts {
            read_free: [Cycle::ZERO; 2],
            write_free: [Cycle::ZERO; 2],
        }
    }

    /// Delivers a word to the CPU: one read port, one cycle. Returns
    /// the grant time.
    pub(crate) fn word_read(&mut self, now: Cycle) -> Cycle {
        Self::acquire_one(&mut self.read_free, now, WORD_CYCLES)
    }

    /// Reads a full line out of the buffer (promotion into the
    /// cache): one read port, two cycles.
    pub(crate) fn line_read(&mut self, now: Cycle) -> Cycle {
        Self::acquire_one(&mut self.read_free, now, LINE_CYCLES)
    }

    /// Writes a full line into the buffer (victim fill, prefetch
    /// arrival, bypass): one write port, two cycles.
    pub(crate) fn line_write(&mut self, now: Cycle) -> Cycle {
        Self::acquire_one(&mut self.write_free, now, LINE_CYCLES)
    }

    /// Swaps a line with the data cache: one read and one write port,
    /// both for two cycles, starting together. Returns the common
    /// grant time.
    pub(crate) fn swap(&mut self, now: Cycle) -> Cycle {
        let r = Self::earliest(&self.read_free);
        let w = Self::earliest(&self.write_free);
        let grant = self.read_free[r].max(self.write_free[w]).max(now);
        self.read_free[r] = grant + LINE_CYCLES;
        self.write_free[w] = grant + LINE_CYCLES;
        grant
    }

    fn acquire_one(ports: &mut [Cycle; 2], now: Cycle, busy: u64) -> Cycle {
        let idx = Self::earliest(ports);
        let grant = ports[idx].max(now);
        ports[idx] = grant + busy;
        grant
    }

    fn earliest(ports: &[Cycle; 2]) -> usize {
        if ports[0] <= ports[1] {
            0
        } else {
            1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_swaps_take_every_read_port() {
        let mut ports = BufferPorts::new();
        let g1 = ports.swap(Cycle::ZERO); // read0+write0 busy to cycle 2
        let g2 = ports.swap(Cycle::ZERO); // read1+write1 busy to cycle 2
        let g3 = ports.word_read(Cycle::ZERO); // all read ports busy
        assert_eq!((g1, g2, g3), (Cycle::ZERO, Cycle::ZERO, Cycle::new(2)));
    }

    #[test]
    fn two_word_reads_per_cycle() {
        let mut p = BufferPorts::new();
        assert_eq!(p.word_read(Cycle::ZERO), Cycle::ZERO);
        assert_eq!(p.word_read(Cycle::ZERO), Cycle::ZERO);
        assert_eq!(p.word_read(Cycle::ZERO), Cycle::new(1));
    }

    #[test]
    fn line_ops_occupy_two_cycles() {
        let mut p = BufferPorts::new();
        assert_eq!(p.line_write(Cycle::ZERO), Cycle::ZERO);
        assert_eq!(p.line_write(Cycle::ZERO), Cycle::ZERO);
        assert_eq!(p.line_write(Cycle::ZERO), Cycle::new(2));
    }

    #[test]
    fn reads_and_writes_are_independent_pools() {
        let mut p = BufferPorts::new();
        p.line_read(Cycle::ZERO);
        p.line_read(Cycle::ZERO);
        // Read ports exhausted, write ports still free.
        assert_eq!(p.line_write(Cycle::ZERO), Cycle::ZERO);
        assert_eq!(p.word_read(Cycle::ZERO), Cycle::new(2));
    }

    #[test]
    fn swap_waits_for_both_pools() {
        let mut p = BufferPorts::new();
        p.line_read(Cycle::ZERO); // read0 busy to 2
        p.line_read(Cycle::ZERO); // read1 busy to 2
                                  // Swap needs a read port: granted at 2 even though writes are
                                  // free.
        assert_eq!(p.swap(Cycle::ZERO), Cycle::new(2));
    }

    #[test]
    fn grant_respects_now() {
        let mut p = BufferPorts::new();
        assert_eq!(p.swap(Cycle::new(50)), Cycle::new(50));
        // The other read port is untouched: it is granted at 49 and
        // stays busy to 51...
        assert_eq!(p.line_read(Cycle::new(49)), Cycle::new(49));
        // ...so the next read waits for it, not for the swap's 52.
        assert_eq!(p.line_read(Cycle::ZERO), Cycle::new(51));
    }
}
