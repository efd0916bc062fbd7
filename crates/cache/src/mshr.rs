//! Miss Status Holding Registers: non-blocking-miss bookkeeping.
//!
//! The paper's caches are non-blocking with up to 16 misses in flight;
//! when the limit is exceeded further misses stall the pipeline, and
//! prefetches are simply discarded. [`MshrFile`] implements exactly
//! that contract.

use sim_core::{Cycle, LineAddr};

#[derive(Debug, Clone, Copy)]
struct MshrEntry {
    line: LineAddr,
    ready: Cycle,
}

/// A file of Miss Status Holding Registers.
///
/// Entries are retired lazily: every call first releases entries whose
/// fill has completed by `now`. The file tracks its earliest fill time,
/// so that release returns at once while nothing has completed.
///
/// # Examples
///
/// ```
/// use cache_model::MshrFile;
/// use sim_core::{Cycle, LineAddr};
///
/// let mut mshrs = MshrFile::new(2);
/// let now = Cycle::ZERO;
/// mshrs.insert(LineAddr::new(1), now + 20);
/// mshrs.insert(LineAddr::new(2), now + 30);
/// // A second miss on line 1 coalesces with the first.
/// assert_eq!(mshrs.lookup(LineAddr::new(1), now), Some(now + 20));
/// // A third distinct miss finds the file full...
/// assert!(!mshrs.has_free(now));
/// // ...but by cycle 20 the first entry has retired.
/// assert!(mshrs.has_free(Cycle::new(20)));
/// ```
#[derive(Debug, Clone)]
pub struct MshrFile {
    capacity: usize,
    entries: Vec<MshrEntry>,
    /// The earliest `ready` among `entries`, or [`NEVER`] when empty.
    min_ready: Cycle,
}

/// `min_ready` of an empty file: no `now` retires anything.
const NEVER: Cycle = Cycle::new(u64::MAX);

impl MshrFile {
    /// Creates a file with room for `capacity` outstanding misses.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "MSHR file needs at least one entry");
        MshrFile {
            capacity,
            entries: Vec::with_capacity(capacity),
            min_ready: NEVER,
        }
    }

    /// Checks whether a miss on `line` is already in flight at `now`
    /// (coalescing), returning its completion time if so.
    #[inline]
    pub fn lookup(&mut self, line: LineAddr, now: Cycle) -> Option<Cycle> {
        self.retire(now);
        self.entries
            .iter()
            .find(|e| e.line == line)
            .map(|e| e.ready)
    }

    /// `true` if a new entry could be allocated at `now`.
    #[inline]
    pub fn has_free(&mut self, now: Cycle) -> bool {
        self.retire(now);
        self.entries.len() < self.capacity
    }

    /// Allocates an entry unconditionally.
    ///
    /// Callers must have checked [`Self::has_free`]; this is the
    /// second half of a check-fetch-insert sequence where the fill
    /// latency is only known after querying the next level.
    ///
    /// # Panics
    ///
    /// Panics if the file is full.
    #[inline]
    pub fn insert(&mut self, line: LineAddr, ready: Cycle) {
        assert!(
            self.entries.len() < self.capacity,
            "MSHR insert into full file"
        );
        self.entries.push(MshrEntry { line, ready });
        self.min_ready = self.min_ready.min(ready);
    }

    /// Releases every entry whose fill has completed by `now`.
    #[inline]
    pub fn retire(&mut self, now: Cycle) {
        if now >= self.min_ready {
            self.release_completed(now);
        }
    }

    fn release_completed(&mut self, now: Cycle) {
        self.entries.retain(|e| e.ready > now);
        self.min_ready = self.entries.iter().map(|e| e.ready).min().unwrap_or(NEVER);
    }

    /// Number of outstanding misses (after retiring completed ones).
    #[must_use]
    #[inline]
    pub fn outstanding(&mut self, now: Cycle) -> usize {
        self.retire(now);
        self.entries.len()
    }

    /// The earliest completion time among outstanding misses, or
    /// `None` when the file is empty.
    #[must_use]
    #[inline]
    pub fn earliest_ready(&self) -> Option<Cycle> {
        (!self.entries.is_empty()).then_some(self.min_ready)
    }

    /// The file's capacity.
    #[must_use]
    pub const fn capacity(&self) -> usize {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(n: u64) -> LineAddr {
        LineAddr::new(n)
    }

    #[test]
    fn coalesces_same_line() {
        let mut m = MshrFile::new(4);
        let now = Cycle::ZERO;
        assert_eq!(m.lookup(line(7), now), None);
        m.insert(line(7), now + 100);
        assert_eq!(m.lookup(line(7), now + 5), Some(Cycle::new(100)));
        assert_eq!(m.outstanding(now + 5), 1);
    }

    #[test]
    fn full_file_reports_earliest_ready() {
        let mut m = MshrFile::new(2);
        let now = Cycle::ZERO;
        m.insert(line(1), now + 50);
        m.insert(line(2), now + 20);
        assert!(!m.has_free(now));
        assert_eq!(m.earliest_ready(), Some(Cycle::new(20)));
    }

    #[test]
    fn retirement_frees_entries() {
        let mut m = MshrFile::new(1);
        m.insert(line(1), Cycle::new(10));
        assert_eq!(m.outstanding(Cycle::new(9)), 1);
        assert_eq!(m.outstanding(Cycle::new(10)), 0);
        assert!(m.has_free(Cycle::new(10)));
        assert_eq!(m.earliest_ready(), None);
    }

    #[test]
    fn paper_limit_of_sixteen() {
        let mut m = MshrFile::new(16);
        let now = Cycle::ZERO;
        for n in 0..16 {
            assert!(m.has_free(now));
            m.insert(line(n), now + 100);
        }
        assert!(!m.has_free(now));
    }

    #[test]
    #[should_panic(expected = "insert into full file")]
    fn insert_into_full_file_panics() {
        let mut m = MshrFile::new(1);
        m.insert(line(1), Cycle::new(10));
        m.insert(line(2), Cycle::new(10));
    }

    #[test]
    #[should_panic(expected = "at least one entry")]
    fn zero_capacity_rejected() {
        let _ = MshrFile::new(0);
    }
}
