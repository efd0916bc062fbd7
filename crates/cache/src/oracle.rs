//! The classic three-C miss classification (Hill), used as ground
//! truth when evaluating the Miss Classification Table.
//!
//! A miss in a set-associative cache is:
//!
//! * **compulsory** if the line has never been referenced before;
//! * **capacity** if a fully-associative LRU cache of the same total
//!   capacity would also have missed;
//! * **conflict** otherwise (the fully-associative cache would have
//!   hit — the miss exists only because of restricted placement).
//!
//! The paper groups compulsory with capacity ("non-conflict") when
//! scoring the MCT; [`OracleClass::is_conflict`] captures that split.

use sim_core::hash::{FxHashMap, FxHashSet};
use sim_core::LineAddr;

/// The classic classification of one cache miss.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OracleClass {
    /// First-ever reference to the line.
    Compulsory,
    /// The fully-associative cache of equal capacity also missed.
    Capacity,
    /// Only the restricted placement caused the miss.
    Conflict,
}

impl OracleClass {
    /// `true` for conflict misses; compulsory and capacity misses are
    /// grouped as "non-conflict", matching the paper's convention.
    #[must_use]
    pub const fn is_conflict(self) -> bool {
        matches!(self, OracleClass::Conflict)
    }
}

/// The three-C oracle's shadow: a fully-associative LRU cache over
/// line addresses, kept as an exact recency list.
///
/// Lines live in `capacity_lines` slots threaded into a doubly linked
/// list, most recent at the head; a map sends each resident line to
/// its slot. A hit is one map probe and an O(1) move to the front (a
/// repeat of the head line needs no probe at all). A miss is one map
/// insert, plus, once every slot is taken, one map remove: the tail
/// slot (the LRU line) is reused for the new line.
///
/// On its own it answers the only question accuracy scoring asks —
/// would a miss here be a conflict miss? — through
/// [`Self::observe_conflict`]. A shadow hit implies the line was
/// referenced before, so it needs no compulsory set; that is what
/// [`ThreeCClassifier`] adds for callers that want the three-way
/// split.
///
/// # Examples
///
/// ```
/// use cache_model::oracle::FullyAssocLru;
/// use sim_core::LineAddr;
///
/// let mut shadow = FullyAssocLru::new(2);
/// assert!(!shadow.observe_conflict(LineAddr::new(1)));
/// assert!(!shadow.observe_conflict(LineAddr::new(2)));
/// assert!(shadow.observe_conflict(LineAddr::new(1)));
/// ```
#[derive(Debug, Clone)]
pub struct FullyAssocLru {
    capacity_lines: usize,
    /// resident line -> its slot.
    slots: FxHashMap<LineAddr, u32>,
    /// slot -> the line it holds.
    lines: Vec<LineAddr>,
    /// slot -> the next more recent slot, or [`NIL`].
    prev: Vec<u32>,
    /// slot -> the next less recent slot, or [`NIL`].
    next: Vec<u32>,
    /// Most recently used slot, or [`NIL`] while empty.
    head: u32,
    /// Least recently used slot, or [`NIL`] while empty.
    tail: u32,
}

/// The end-of-list index in [`FullyAssocLru`]'s links.
const NIL: u32 = u32::MAX;

impl FullyAssocLru {
    /// Creates an empty shadow holding `capacity_lines` lines (the
    /// real cache's total line count).
    ///
    /// # Panics
    ///
    /// Panics if `capacity_lines` is zero or does not fit a `u32`
    /// slot index.
    #[must_use]
    pub fn new(capacity_lines: usize) -> Self {
        assert!(capacity_lines > 0, "oracle cache needs capacity");
        assert!(
            capacity_lines < NIL as usize,
            "oracle capacity must fit a u32 slot index"
        );
        FullyAssocLru {
            capacity_lines,
            slots: FxHashMap::with_capacity_and_hasher(capacity_lines, Default::default()),
            lines: Vec::with_capacity(capacity_lines),
            prev: Vec::with_capacity(capacity_lines),
            next: Vec::with_capacity(capacity_lines),
            head: NIL,
            tail: NIL,
        }
    }

    /// References `line` and returns whether a real-cache miss on it
    /// here would be a conflict miss: `true` exactly when the shadow
    /// hits, i.e. when [`ThreeCClassifier::observe`] would return
    /// [`OracleClass::Conflict`].
    ///
    /// Call this for every reference, hits in the real cache included.
    pub fn observe_conflict(&mut self, line: LineAddr) -> bool {
        // A repeat of the previous reference's line (common under
        // spatial locality) is the head: a hit with no hash probe.
        if self.lines.get(self.head as usize) == Some(&line) {
            return true;
        }
        if let Some(&slot) = self.slots.get(&line) {
            self.unlink(slot);
            self.push_front(slot);
            return true;
        }
        let slot = if self.lines.len() < self.capacity_lines {
            // `new` bounds the capacity below `NIL`, so this fits.
            let slot = self.lines.len() as u32;
            self.lines.push(line);
            self.prev.push(NIL);
            self.next.push(NIL);
            slot
        } else {
            let slot = self.tail;
            self.slots.remove(&self.lines[slot as usize]);
            self.unlink(slot);
            self.lines[slot as usize] = line;
            slot
        };
        self.slots.insert(line, slot);
        self.push_front(slot);
        false
    }

    /// Detaches `slot` from the recency list.
    fn unlink(&mut self, slot: u32) {
        let (prev, next) = (self.prev[slot as usize], self.next[slot as usize]);
        if prev == NIL {
            self.head = next;
        } else {
            self.next[prev as usize] = next;
        }
        if next == NIL {
            self.tail = prev;
        } else {
            self.prev[next as usize] = prev;
        }
    }

    /// Makes the detached `slot` the most recently used.
    fn push_front(&mut self, slot: u32) {
        self.prev[slot as usize] = NIL;
        self.next[slot as usize] = self.head;
        if self.head == NIL {
            self.tail = slot;
        } else {
            self.prev[self.head as usize] = slot;
        }
        self.head = slot;
    }

    fn len(&self) -> usize {
        self.slots.len()
    }
}

/// Ground-truth miss classifier: runs a fully-associative LRU shadow
/// cache ([`FullyAssocLru`]) and a compulsory set next to the real
/// cache.
///
/// Feed it **every** reference the real cache sees, in order, and ask
/// it to classify the ones that missed. (It must also observe the
/// hits — the shadow LRU state depends on them.) Each reference costs
/// one insert into the compulsory set on top of the shadow's O(1)
/// update; the set grows with the distinct lines ever referenced, so
/// callers that only need the conflict verdict use the shadow alone.
///
/// # Examples
///
/// ```
/// use cache_model::oracle::{OracleClass, ThreeCClassifier};
/// use sim_core::LineAddr;
///
/// // Shadow model with room for 2 lines.
/// let mut oracle = ThreeCClassifier::new(2);
/// assert_eq!(oracle.observe(LineAddr::new(1)), OracleClass::Compulsory);
/// assert_eq!(oracle.observe(LineAddr::new(2)), OracleClass::Compulsory);
/// // Line 1 is still in a 2-line FA cache: if the real cache missed
/// // here, it was a conflict miss.
/// assert_eq!(oracle.observe(LineAddr::new(1)), OracleClass::Conflict);
/// ```
#[derive(Debug, Clone)]
pub struct ThreeCClassifier {
    shadow: FullyAssocLru,
    seen: FxHashSet<LineAddr>,
}

impl ThreeCClassifier {
    /// Creates a classifier whose shadow cache holds `capacity_lines`
    /// lines (the real cache's total line count).
    ///
    /// # Panics
    ///
    /// Panics if `capacity_lines` is zero.
    #[must_use]
    pub fn new(capacity_lines: usize) -> Self {
        ThreeCClassifier {
            shadow: FullyAssocLru::new(capacity_lines),
            seen: FxHashSet::default(),
        }
    }

    /// Observes one reference and returns how a miss at this point
    /// *would* classify.
    ///
    /// Call this for every reference; ignore the return value for
    /// references that hit in the real cache.
    pub fn observe(&mut self, line: LineAddr) -> OracleClass {
        let first_touch = self.seen.insert(line);
        if self.shadow.observe_conflict(line) {
            OracleClass::Conflict
        } else if first_touch {
            OracleClass::Compulsory
        } else {
            OracleClass::Capacity
        }
    }

    /// Number of lines currently resident in the shadow cache.
    #[must_use]
    pub fn shadow_len(&self) -> usize {
        self.shadow.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(n: u64) -> LineAddr {
        LineAddr::new(n)
    }

    #[test]
    fn first_touch_is_compulsory() {
        let mut o = ThreeCClassifier::new(4);
        for n in 0..10 {
            assert_eq!(o.observe(line(n)), OracleClass::Compulsory);
        }
    }

    #[test]
    fn rereference_within_capacity_is_conflict() {
        let mut o = ThreeCClassifier::new(4);
        o.observe(line(0));
        o.observe(line(1));
        // Both fit in a 4-line FA cache, so a real-cache miss on
        // line 0 now can only come from placement conflicts.
        assert_eq!(o.observe(line(0)), OracleClass::Conflict);
    }

    #[test]
    fn rereference_beyond_capacity_is_capacity() {
        let mut o = ThreeCClassifier::new(2);
        o.observe(line(0));
        o.observe(line(1));
        o.observe(line(2)); // evicts 0 from the shadow
        assert_eq!(o.observe(line(0)), OracleClass::Capacity);
    }

    #[test]
    fn shadow_is_lru_not_fifo() {
        let mut o = ThreeCClassifier::new(2);
        o.observe(line(0));
        o.observe(line(1));
        o.observe(line(0)); // refresh 0; LRU is now 1
        o.observe(line(2)); // evicts 1, not 0
        assert_eq!(o.observe(line(0)), OracleClass::Conflict);
        assert_eq!(o.observe(line(1)), OracleClass::Capacity);
    }

    #[test]
    fn shadow_never_exceeds_capacity() {
        let mut o = ThreeCClassifier::new(8);
        let mut rng = sim_core::rng::SplitMix64::new(1);
        for _ in 0..10_000 {
            o.observe(line(rng.next_below(64)));
            assert!(o.shadow_len() <= 8);
        }
    }

    #[test]
    fn shadow_state_stays_within_capacity() {
        let mut o = ThreeCClassifier::new(2);
        let mut rng = sim_core::rng::SplitMix64::new(2);
        // Hit-heavy, then miss-heavy: neither may grow the slots or
        // the map past the capacity.
        for i in 0..100_000u64 {
            let n = if i < 50_000 {
                i % 2
            } else {
                rng.next_below(64)
            };
            o.observe(line(n));
            let shadow = &o.shadow;
            assert!(shadow.slots.len() <= 2 && shadow.lines.len() <= 2);
            assert_eq!(shadow.prev.len(), shadow.lines.len());
            assert_eq!(shadow.next.len(), shadow.lines.len());
        }
        // The recency list threads every slot once, head to tail,
        // with the map and the slots agreeing.
        let shadow = &o.shadow;
        let mut walked = Vec::new();
        let mut slot = shadow.head;
        while slot != NIL {
            walked.push(slot);
            slot = shadow.next[slot as usize];
        }
        assert_eq!(walked.len(), shadow.lines.len());
        assert_eq!(walked.last().copied(), Some(shadow.tail));
        for &s in &walked {
            assert_eq!(shadow.slots[&shadow.lines[s as usize]], s);
        }
    }

    #[test]
    fn is_conflict_groups_paper_style() {
        assert!(!OracleClass::Compulsory.is_conflict());
        assert!(!OracleClass::Capacity.is_conflict());
        assert!(OracleClass::Conflict.is_conflict());
    }
}
