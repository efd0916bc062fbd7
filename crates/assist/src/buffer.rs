//! Fully-associative LRU buffer storage.

use sim_core::LineAddr;

/// Probe/fill statistics for an assist buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BufferStats {
    /// Probes that found the line.
    pub hits: u64,
    /// Probes that did not.
    pub misses: u64,
    /// Lines inserted.
    pub fills: u64,
    /// Lines displaced by fills.
    pub evictions: u64,
}

impl BufferStats {
    /// Hit fraction of all probes, or 0.0 before any probe.
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A small fully-associative buffer with LRU replacement and per-entry
/// metadata `M` (the entry's role, arrival time, use bit, …).
///
/// The entry order doubles as the recency list: index 0 is LRU, the
/// back is MRU. At the paper's sizes (8–16 entries) linear search is
/// exactly what the hardware's parallel tag match costs — nothing
/// cleverer is warranted.
#[derive(Debug, Clone)]
pub struct AssistBuffer<M> {
    capacity: usize,
    entries: Vec<(LineAddr, M)>,
    stats: BufferStats,
}

impl<M> AssistBuffer<M> {
    /// Creates an empty buffer holding up to `capacity` lines.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "buffer needs at least one entry");
        AssistBuffer {
            capacity,
            entries: Vec::with_capacity(capacity),
            stats: BufferStats::default(),
        }
    }

    /// The buffer's capacity in lines.
    #[must_use]
    pub const fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of resident lines.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when no lines are resident.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Probe/fill statistics.
    #[must_use]
    pub fn stats(&self) -> &BufferStats {
        &self.stats
    }

    /// Looks up a line, refreshing its recency and recording hit/miss.
    /// Returns the entry's metadata mutably on a hit.
    pub fn probe(&mut self, line: LineAddr) -> Option<&mut M> {
        match self.entries.iter().position(|(l, _)| *l == line) {
            Some(pos) => {
                self.stats.hits += 1;
                let entry = self.entries.remove(pos);
                self.entries.push(entry);
                Some(&mut self.entries.last_mut().expect("just pushed").1)
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Looks up and **removes** a line (victim-cache swap / prefetch
    /// promotion), recording hit/miss.
    pub fn probe_remove(&mut self, line: LineAddr) -> Option<M> {
        match self.entries.iter().position(|(l, _)| *l == line) {
            Some(pos) => {
                self.stats.hits += 1;
                Some(self.entries.remove(pos).1)
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Looks up without touching recency or statistics.
    #[must_use]
    pub fn peek(&self, line: LineAddr) -> Option<&M> {
        self.entries
            .iter()
            .find(|(l, _)| *l == line)
            .map(|(_, m)| m)
    }

    /// `true` if the line is resident (no side effects).
    #[must_use]
    pub fn contains(&self, line: LineAddr) -> bool {
        self.peek(line).is_some()
    }

    /// Inserts a line as MRU, displacing the LRU entry if full.
    /// Inserting a resident line replaces its metadata and refreshes
    /// it (no eviction). Returns the displaced entry.
    pub fn insert(&mut self, line: LineAddr, meta: M) -> Option<(LineAddr, M)> {
        self.stats.fills += 1;
        if let Some(pos) = self.entries.iter().position(|(l, _)| *l == line) {
            self.entries.remove(pos);
            self.entries.push((line, meta));
            return None;
        }
        let evicted = if self.entries.len() == self.capacity {
            self.stats.evictions += 1;
            Some(self.entries.remove(0))
        } else {
            None
        };
        self.entries.push((line, meta));
        evicted
    }

    /// Removes a line without counting a probe, returning its
    /// metadata.
    pub fn remove(&mut self, line: LineAddr) -> Option<M> {
        let pos = self.entries.iter().position(|(l, _)| *l == line)?;
        Some(self.entries.remove(pos).1)
    }

    /// Iterates entries from LRU to MRU.
    pub fn iter(&self) -> impl Iterator<Item = (LineAddr, &M)> + '_ {
        self.entries.iter().map(|(l, m)| (*l, m))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(n: u64) -> LineAddr {
        LineAddr::new(n)
    }

    #[test]
    fn probe_hit_refreshes_recency() {
        let mut b = AssistBuffer::new(2);
        b.insert(line(1), ());
        b.insert(line(2), ());
        b.probe(line(1)); // 2 is now LRU
        let ev = b.insert(line(3), ()).unwrap();
        assert_eq!(ev.0, line(2));
    }

    #[test]
    fn peek_does_not_refresh() {
        let mut b = AssistBuffer::new(2);
        b.insert(line(1), ());
        b.insert(line(2), ());
        let _ = b.peek(line(1));
        let ev = b.insert(line(3), ()).unwrap();
        assert_eq!(ev.0, line(1));
    }

    #[test]
    fn probe_remove_consumes() {
        let mut b = AssistBuffer::new(4);
        b.insert(line(7), 42);
        assert_eq!(b.probe_remove(line(7)), Some(42));
        assert!(!b.contains(line(7)));
        assert_eq!(b.probe_remove(line(7)), None);
        assert_eq!(b.stats().hits, 1);
        assert_eq!(b.stats().misses, 1);
    }

    #[test]
    fn reinsert_updates_in_place() {
        let mut b = AssistBuffer::new(2);
        b.insert(line(1), "a");
        b.insert(line(2), "b");
        assert!(b.insert(line(1), "a2").is_none()); // no eviction
        assert_eq!(b.len(), 2);
        assert_eq!(b.peek(line(1)), Some(&"a2"));
        // And line 1 is now MRU.
        let ev = b.insert(line(3), "c").unwrap();
        assert_eq!(ev.0, line(2));
    }

    #[test]
    fn capacity_is_respected() {
        let mut b = AssistBuffer::new(8);
        for n in 0..100 {
            b.insert(line(n), n);
        }
        assert_eq!(b.len(), 8);
        assert_eq!(b.stats().evictions, 92);
        // The survivors are the 8 most recent.
        for n in 92..100 {
            assert!(b.contains(line(n)));
        }
    }

    #[test]
    fn iter_goes_lru_to_mru() {
        let mut b = AssistBuffer::new(3);
        for n in [5, 6, 7] {
            b.insert(line(n), ());
        }
        b.probe(line(5));
        let order: Vec<u64> = b.iter().map(|(l, _)| l.raw()).collect();
        assert_eq!(order, vec![6, 7, 5]);
    }

    #[test]
    fn hit_rate_reflects_probes() {
        let mut b = AssistBuffer::new(2);
        b.insert(line(1), ());
        b.probe(line(1));
        b.probe(line(9));
        assert!((b.stats().hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least one entry")]
    fn zero_capacity_rejected() {
        let _: AssistBuffer<()> = AssistBuffer::new(0);
    }
}
