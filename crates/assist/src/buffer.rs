//! Fully-associative LRU buffer storage.

use sim_core::LineAddr;

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
        }
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

    /// Looks up a line, refreshing its recency. Returns the entry's
    /// metadata mutably on a hit.
    pub fn probe(&mut self, line: LineAddr) -> Option<&mut M> {
        let pos = self.entries.iter().position(|(l, _)| *l == line)?;
        let entry = self.entries.remove(pos);
        self.entries.push(entry);
        Some(&mut self.entries.last_mut().expect("just pushed").1)
    }

    /// Looks up and **removes** a line (victim-cache swap / prefetch
    /// promotion). The search starts at the MRU end, where a line that
    /// was just probed sits.
    pub fn probe_remove(&mut self, line: LineAddr) -> Option<M> {
        let pos = self.entries.iter().rposition(|(l, _)| *l == line)?;
        Some(self.entries.remove(pos).1)
    }

    /// Looks up without touching recency.
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
        if let Some(pos) = self.entries.iter().position(|(l, _)| *l == line) {
            self.entries.remove(pos);
            self.entries.push((line, meta));
            return None;
        }
        let evicted = if self.entries.len() == self.capacity {
            Some(self.entries.remove(0))
        } else {
            None
        };
        self.entries.push((line, meta));
        evicted
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
    fn full_buffer_displaces_its_lru_entry() {
        let mut buf: AssistBuffer<&str> = AssistBuffer::new(2);
        buf.insert(line(1), "victim");
        buf.insert(line(2), "prefetch");
        let evicted = buf.insert(line(3), "bypass").unwrap();
        assert_eq!(evicted, (line(1), "victim")); // LRU out
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
        let evictions = (0..100).filter(|&n| b.insert(line(n), n).is_some()).count();
        assert_eq!(b.len(), 8);
        assert_eq!(evictions, 92);
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
    #[should_panic(expected = "at least one entry")]
    fn zero_capacity_rejected() {
        let _: AssistBuffer<()> = AssistBuffer::new(0);
    }
}
