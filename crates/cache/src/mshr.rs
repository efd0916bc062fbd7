//! Miss Status Holding Registers: non-blocking-miss bookkeeping.
//!
//! The paper's caches are non-blocking with up to 16 misses in flight;
//! when the limit is exceeded further misses stall the pipeline, and
//! prefetches are simply discarded. [`MshrFile`] implements exactly
//! that contract.

use sim_core::{Cycle, LineAddr};

/// What happened when a miss asked for an MSHR.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MshrOutcome {
    /// A new entry was allocated; the line will be ready at the
    /// carried cycle.
    Allocated(Cycle),
    /// An entry for the same line was already in flight; the request
    /// coalesces and completes when that entry does.
    Coalesced(Cycle),
    /// The file is full. Demand misses must stall until
    /// [`MshrFile::earliest_ready`]; prefetches are dropped.
    Full {
        /// When the oldest outstanding miss completes (the earliest
        /// time an entry frees up).
        retry_at: Cycle,
    },
}

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
/// use cache_model::{MshrFile, MshrOutcome};
/// use sim_core::{Cycle, LineAddr};
///
/// let mut mshrs = MshrFile::new(2);
/// let now = Cycle::ZERO;
/// mshrs.request(LineAddr::new(1), now, now + 20);
/// mshrs.request(LineAddr::new(2), now, now + 30);
/// // Third distinct miss finds the file full.
/// assert!(matches!(
///     mshrs.request(LineAddr::new(3), now, now + 20),
///     MshrOutcome::Full { .. }
/// ));
/// // But by cycle 21 the first entry has retired.
/// assert!(matches!(
///     mshrs.request(LineAddr::new(3), Cycle::new(21), Cycle::new(41)),
///     MshrOutcome::Allocated(_)
/// ));
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

    /// Requests an MSHR for a miss on `line` at time `now` whose fill
    /// would complete at `ready`.
    #[inline]
    pub fn request(&mut self, line: LineAddr, now: Cycle, ready: Cycle) -> MshrOutcome {
        self.retire(now);
        if let Some(e) = self.entries.iter().find(|e| e.line == line) {
            return MshrOutcome::Coalesced(e.ready);
        }
        if self.entries.len() < self.capacity {
            self.push(line, ready);
            return MshrOutcome::Allocated(ready);
        }
        MshrOutcome::Full {
            retry_at: self.earliest_ready_inner(),
        }
    }

    /// Checks whether a miss on `line` is already in flight at `now`
    /// (coalescing), returning its completion time if so.
    ///
    /// Unlike [`Self::request`], this never allocates.
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
        self.push(line, ready);
    }

    #[inline]
    fn push(&mut self, line: LineAddr, ready: Cycle) {
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

    fn earliest_ready_inner(&self) -> Cycle {
        self.earliest_ready()
            .expect("Full outcome implies nonempty file")
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
        assert_eq!(
            m.request(line(7), now, now + 100),
            MshrOutcome::Allocated(Cycle::new(100))
        );
        assert_eq!(
            m.request(line(7), now + 5, now + 105),
            MshrOutcome::Coalesced(Cycle::new(100))
        );
        assert_eq!(m.outstanding(now + 5), 1);
    }

    #[test]
    fn full_reports_earliest_retry() {
        let mut m = MshrFile::new(2);
        let now = Cycle::ZERO;
        m.request(line(1), now, now + 50);
        m.request(line(2), now, now + 20);
        match m.request(line(3), now, now + 20) {
            MshrOutcome::Full { retry_at } => assert_eq!(retry_at, Cycle::new(20)),
            other => panic!("expected Full, got {other:?}"),
        }
    }

    #[test]
    fn retirement_frees_entries() {
        let mut m = MshrFile::new(1);
        m.request(line(1), Cycle::ZERO, Cycle::new(10));
        assert_eq!(m.outstanding(Cycle::new(9)), 1);
        assert_eq!(m.outstanding(Cycle::new(10)), 0);
        assert!(matches!(
            m.request(line(2), Cycle::new(10), Cycle::new(30)),
            MshrOutcome::Allocated(_)
        ));
    }

    #[test]
    fn paper_limit_of_sixteen() {
        let mut m = MshrFile::new(16);
        let now = Cycle::ZERO;
        for n in 0..16 {
            assert!(matches!(
                m.request(line(n), now, now + 100),
                MshrOutcome::Allocated(_)
            ));
        }
        assert!(matches!(
            m.request(line(99), now, now + 100),
            MshrOutcome::Full { .. }
        ));
    }

    #[test]
    #[should_panic(expected = "at least one entry")]
    fn zero_capacity_rejected() {
        let _ = MshrFile::new(0);
    }
}
