//! Miss classes and the paper's four eviction-time filters.

use core::fmt;

/// The MCT's two-way classification of a cache miss.
///
/// The paper groups compulsory misses with capacity misses, so every
/// miss is exactly one of these.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MissClass {
    /// The missing line's tag matched the most recently evicted tag of
    /// its set: a slightly more associative cache would have hit.
    Conflict,
    /// Everything else (including compulsory misses).
    Capacity,
}

impl MissClass {
    /// `true` for [`MissClass::Conflict`].
    #[must_use]
    pub const fn is_conflict(self) -> bool {
        matches!(self, MissClass::Conflict)
    }
}

impl fmt::Display for MissClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MissClass::Conflict => f.write_str("conflict"),
            MissClass::Capacity => f.write_str("capacity"),
        }
    }
}

/// The four filters the paper defines over an eviction event
/// (paper §3).
///
/// On a miss, two facts are available: whether the **evicted** line
/// originally entered the cache on a conflict miss (its *conflict
/// bit*), and whether the **incoming** miss was just classified as a
/// conflict miss. The filters combine them:
///
/// | filter | fires when |
/// |--------|------------|
/// | `InConflict`  | evicted line's conflict bit is set |
/// | `OutConflict` | the incoming miss is a conflict miss |
/// | `AndConflict` | both |
/// | `OrConflict`  | either |
///
/// `OutConflict` is the paper's usual default because it does not need
/// the per-line conflict bits; `OrConflict` is the most liberal
/// identification of conflict misses, `AndConflict` the most
/// conservative.
///
/// # Examples
///
/// ```
/// use mct::ConflictFilter;
///
/// // An eviction where the incoming miss was a conflict miss but the
/// // evicted line had entered on a capacity miss:
/// let (incoming_conflict, evicted_bit) = (true, false);
/// assert!(!ConflictFilter::InConflict.fires(incoming_conflict, evicted_bit));
/// assert!(ConflictFilter::OutConflict.fires(incoming_conflict, evicted_bit));
/// assert!(!ConflictFilter::AndConflict.fires(incoming_conflict, evicted_bit));
/// assert!(ConflictFilter::OrConflict.fires(incoming_conflict, evicted_bit));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ConflictFilter {
    /// The evicted line originally came in as a conflict miss.
    InConflict,
    /// The evicted line is being forced out by a conflict miss.
    OutConflict,
    /// Both the incoming and evicted lines were conflict misses.
    AndConflict,
    /// Either the incoming or evicted line was a conflict miss.
    OrConflict,
}

impl ConflictFilter {
    /// All four filters, in the order the paper's figures present them.
    pub const ALL: [ConflictFilter; 4] = [
        ConflictFilter::InConflict,
        ConflictFilter::OutConflict,
        ConflictFilter::AndConflict,
        ConflictFilter::OrConflict,
    ];

    /// Evaluates the filter for one eviction event.
    ///
    /// `incoming_conflict` — the incoming miss was classified
    /// conflict; `evicted_conflict_bit` — the displaced line's
    /// conflict bit.
    #[must_use]
    pub const fn fires(self, incoming_conflict: bool, evicted_conflict_bit: bool) -> bool {
        match self {
            ConflictFilter::InConflict => evicted_conflict_bit,
            ConflictFilter::OutConflict => incoming_conflict,
            ConflictFilter::AndConflict => incoming_conflict && evicted_conflict_bit,
            ConflictFilter::OrConflict => incoming_conflict || evicted_conflict_bit,
        }
    }

    /// Whether evaluating this filter requires the per-line conflict
    /// bits (everything except `OutConflict` does).
    #[must_use]
    pub const fn needs_conflict_bits(self) -> bool {
        !matches!(self, ConflictFilter::OutConflict)
    }
}

impl fmt::Display for ConflictFilter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConflictFilter::InConflict => f.write_str("in-conflict"),
            ConflictFilter::OutConflict => f.write_str("out-conflict"),
            ConflictFilter::AndConflict => f.write_str("and-conflict"),
            ConflictFilter::OrConflict => f.write_str("or-conflict"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn truth_table() {
        use ConflictFilter::*;
        // (incoming, evicted_bit) -> (in, out, and, or)
        let cases = [
            ((false, false), (false, false, false, false)),
            ((false, true), (true, false, false, true)),
            ((true, false), (false, true, false, true)),
            ((true, true), (true, true, true, true)),
        ];
        for ((inc, ev), (i, o, a, r)) in cases {
            assert_eq!(InConflict.fires(inc, ev), i, "in {inc} {ev}");
            assert_eq!(OutConflict.fires(inc, ev), o, "out {inc} {ev}");
            assert_eq!(AndConflict.fires(inc, ev), a, "and {inc} {ev}");
            assert_eq!(OrConflict.fires(inc, ev), r, "or {inc} {ev}");
        }
    }

    #[test]
    fn or_is_most_liberal_and_is_most_conservative() {
        use ConflictFilter::*;
        for inc in [false, true] {
            for ev in [false, true] {
                if AndConflict.fires(inc, ev) {
                    assert!(InConflict.fires(inc, ev));
                    assert!(OutConflict.fires(inc, ev));
                }
                if InConflict.fires(inc, ev) || OutConflict.fires(inc, ev) {
                    assert!(OrConflict.fires(inc, ev));
                }
            }
        }
    }

    #[test]
    fn only_out_conflict_avoids_conflict_bits() {
        for f in ConflictFilter::ALL {
            assert_eq!(f.needs_conflict_bits(), f != ConflictFilter::OutConflict);
        }
    }

    #[test]
    fn display_names() {
        assert_eq!(ConflictFilter::OrConflict.to_string(), "or-conflict");
        assert_eq!(MissClass::Conflict.to_string(), "conflict");
        assert_eq!(MissClass::Capacity.to_string(), "capacity");
    }
}
