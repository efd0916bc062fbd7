//! The Miss Classification Table proper.

use core::fmt;

use sim_core::probe;

use crate::MissClass;

/// How many bits of the evicted line's tag the MCT stores per entry.
///
/// Figure 2 of the paper sweeps this parameter: with fewer bits, more
/// misses alias to the stored tag and the classification errs toward
/// conflict; with 8–12 bits it is nearly as accurate as the full tag.
///
/// # Examples
///
/// ```
/// use mct::TagBits;
///
/// assert_eq!(TagBits::Full.mask(), u64::MAX);
/// assert_eq!(TagBits::Low(8).mask(), 0xff);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TagBits {
    /// Store the complete tag (exact matching).
    Full,
    /// Store only the low *n* bits of the tag, `1 ..= 63`.
    Low(u32),
}

impl TagBits {
    /// The mask applied to tags before storing/comparing.
    ///
    /// # Panics
    ///
    /// Panics if a `Low` width is 0 or ≥ 64 (use `Full` for a complete
    /// tag).
    #[must_use]
    pub fn mask(self) -> u64 {
        match self {
            TagBits::Full => u64::MAX,
            TagBits::Low(n) => {
                assert!(
                    (1..64).contains(&n),
                    "partial tag width must be 1..=63, got {n}"
                );
                (1u64 << n) - 1
            }
        }
    }
}

impl fmt::Display for TagBits {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TagBits::Full => f.write_str("full tag"),
            TagBits::Low(n) => write!(f, "{n}-bit tag"),
        }
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct MctEntry {
    tag: u64,
    /// The untruncated evicted tag, kept only so the probe layer can
    /// distinguish a genuine conflict match from a partial-tag alias.
    /// Classification never reads this — hardware would not store it.
    full_tag: u64,
    valid: bool,
}

/// The Miss Classification Table: one entry per cache set, holding the
/// (possibly truncated) tag of the set's most recently evicted line.
///
/// The table is direct-mapped by set index regardless of the cache's
/// associativity, is read only on cache misses, and is updated only on
/// evictions — it never sits on the cache's critical path.
///
/// The intended protocol for each miss to set *s* with tag *t*:
///
/// 1. [`classify`](Self::classify)`(s, t)` — compare against the
///    stored evicted tag **before** any update;
/// 2. when the miss's fill displaces a line with tag *v*, call
///    [`record_eviction`](Self::record_eviction)`(s, v)`.
///
/// [`ClassifyingCache`](crate::ClassifyingCache) drives this protocol
/// automatically; the raw table is exposed for architectures with
/// custom indexing, such as the pseudo-associative cache.
///
/// # Examples
///
/// ```
/// use mct::{MissClass, MissClassificationTable, TagBits};
///
/// let mut table = MissClassificationTable::new(256, TagBits::Low(8));
/// // Line B (tag 7) evicts line A (tag 3) from set 5.
/// table.record_eviction(5, 3);
/// // Next miss to set 5 is A again: conflict.
/// assert_eq!(table.classify(5, 3), MissClass::Conflict);
/// // A miss with an unrelated tag: capacity.
/// assert_eq!(table.classify(5, 9), MissClass::Capacity);
/// ```
#[derive(Debug, Clone)]
pub struct MissClassificationTable {
    entries: Vec<MctEntry>,
    mask: u64,
    tag_bits: TagBits,
}

impl MissClassificationTable {
    /// Creates a table with `num_sets` entries storing `tag_bits` of
    /// each evicted tag.
    ///
    /// # Panics
    ///
    /// Panics if `num_sets` is zero or `tag_bits` is an invalid width.
    #[must_use]
    pub fn new(num_sets: usize, tag_bits: TagBits) -> Self {
        assert!(num_sets > 0, "MCT needs at least one set");
        MissClassificationTable {
            entries: vec![MctEntry::default(); num_sets],
            mask: tag_bits.mask(),
            tag_bits,
        }
    }

    /// Number of entries (= cache sets).
    #[must_use]
    pub fn num_sets(&self) -> usize {
        self.entries.len()
    }

    /// The configured tag width.
    #[must_use]
    pub const fn tag_bits(&self) -> TagBits {
        self.tag_bits
    }

    /// Classifies a miss to `set` with tag `tag`.
    ///
    /// Must be called **before** [`Self::record_eviction`] for the
    /// same miss: the comparison is against the *previously* evicted
    /// line.
    ///
    /// # Panics
    ///
    /// Panics if `set` is out of range.
    #[must_use]
    pub fn classify(&self, set: usize, tag: u64) -> MissClass {
        let e = &self.entries[set];
        let matched = e.valid && e.tag == (tag & self.mask);
        if probe::active() {
            let lookup = if !e.valid {
                probe::MctLookup::Empty
            } else if !matched {
                probe::MctLookup::Stale
            } else if e.full_tag == tag {
                probe::MctLookup::Match
            } else {
                probe::MctLookup::Alias
            };
            probe::emit(probe::ProbeEvent::Classify {
                set: set as u32,
                conflict: matched,
                lookup,
            });
        }
        if matched {
            MissClass::Conflict
        } else {
            MissClass::Capacity
        }
    }

    /// Records that a line with tag `tag` was evicted from `set`,
    /// replacing the previously remembered tag.
    ///
    /// # Panics
    ///
    /// Panics if `set` is out of range.
    pub fn record_eviction(&mut self, set: usize, tag: u64) {
        self.entries[set] = MctEntry {
            tag: tag & self.mask,
            full_tag: tag,
            valid: true,
        };
    }

    /// Clears one entry (used by tests and by architectures that
    /// consume a classification, e.g. to avoid double-counting).
    ///
    /// # Panics
    ///
    /// Panics if `set` is out of range.
    pub fn clear_entry(&mut self, set: usize) {
        self.entries[set] = MctEntry::default();
    }

    /// Storage cost of the table in bits: entries × (tag bits + valid
    /// bit), using `full_tag_bits` for [`TagBits::Full`].
    ///
    /// Matches the paper's sizing argument (10 bits per entry on a
    /// 64 KB direct-mapped cache ⇒ 1.25 KB of storage).
    #[must_use]
    pub fn storage_bits(&self, full_tag_bits: u32) -> u64 {
        let width = match self.tag_bits {
            TagBits::Full => full_tag_bits,
            TagBits::Low(n) => n.min(full_tag_bits),
        };
        self.entries.len() as u64 * (u64::from(width) + 1)
    }
}

impl crate::EvictionClassifier for MissClassificationTable {
    fn classify(&self, set: usize, tag: u64) -> MissClass {
        MissClassificationTable::classify(self, set, tag)
    }

    fn record_eviction(&mut self, set: usize, tag: u64) {
        MissClassificationTable::record_eviction(self, set, tag);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_table_classifies_capacity() {
        let t = MissClassificationTable::new(16, TagBits::Full);
        for set in 0..16 {
            assert_eq!(t.classify(set, 0), MissClass::Capacity);
        }
    }

    #[test]
    fn paper_scenario_b_evicts_a_then_a_misses() {
        let mut t = MissClassificationTable::new(4, TagBits::Full);
        // B's fill evicts A (tag 0xA) from set 2.
        t.record_eviction(2, 0xA);
        assert_eq!(t.classify(2, 0xA), MissClass::Conflict);
        // Same tag, different set: not a conflict.
        assert_eq!(t.classify(1, 0xA), MissClass::Capacity);
    }

    #[test]
    fn only_most_recent_eviction_is_remembered() {
        let mut t = MissClassificationTable::new(4, TagBits::Full);
        t.record_eviction(0, 1);
        t.record_eviction(0, 2);
        assert_eq!(t.classify(0, 1), MissClass::Capacity);
        assert_eq!(t.classify(0, 2), MissClass::Conflict);
    }

    #[test]
    fn partial_tags_alias() {
        let mut t = MissClassificationTable::new(4, TagBits::Low(4));
        t.record_eviction(0, 0x5);
        // 0x15 and 0x5 share their low 4 bits: false conflict hit.
        assert_eq!(t.classify(0, 0x15), MissClass::Conflict);
        // Differ in the low bits: capacity.
        assert_eq!(t.classify(0, 0x6), MissClass::Capacity);
    }

    #[test]
    fn single_bit_tag_is_legal_and_coarse() {
        let mut t = MissClassificationTable::new(4, TagBits::Low(1));
        t.record_eviction(0, 0b10); // low bit 0
        assert_eq!(t.classify(0, 0b100), MissClass::Conflict); // low bit 0 aliases
        assert_eq!(t.classify(0, 0b1), MissClass::Capacity);
    }

    #[test]
    fn clear_entry_forgets() {
        let mut t = MissClassificationTable::new(4, TagBits::Full);
        t.record_eviction(3, 9);
        t.clear_entry(3);
        assert_eq!(t.classify(3, 9), MissClass::Capacity);
    }

    #[test]
    fn storage_matches_paper_sizing() {
        // 64 KB DM cache, 64-byte lines => 1024 sets; 10-bit entries
        // => 1024 * (10 + 1) bits ≈ 1.4 KB with valid bits; the paper
        // quotes 1.25 KB for the 10 tag bits alone.
        let t = MissClassificationTable::new(1024, TagBits::Low(10));
        let bits = t.storage_bits(18);
        assert_eq!(bits, 1024 * 11);
        let tag_only_kb: f64 = (1024.0 * 10.0) / 8.0 / 1024.0;
        assert!((tag_only_kb - 1.25).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "partial tag width")]
    fn zero_width_rejected() {
        let _ = MissClassificationTable::new(4, TagBits::Low(0));
    }

    #[test]
    #[should_panic]
    fn out_of_range_set_panics() {
        let t = MissClassificationTable::new(4, TagBits::Full);
        let _ = t.classify(4, 0);
    }
}
