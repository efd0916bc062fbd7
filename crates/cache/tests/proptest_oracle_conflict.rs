//! The three-C oracle against an independent reference: a naive
//! move-to-front list LRU, written here. [`FullyAssocLru::observe_conflict`]
//! must equal the reference's hit verdict, and
//! [`ThreeCClassifier::observe`] must equal the reference's three-way
//! class (first touch → compulsory, hit → conflict, else capacity),
//! event for event, on random streams at every capacity from one line
//! to 1024.

use cache_model::oracle::{FullyAssocLru, OracleClass, ThreeCClassifier};
use proptest::prelude::*;
use sim_core::LineAddr;

/// Fully-associative LRU as a recency-ordered list, most recent first:
/// O(capacity) per reference, obviously right.
struct MoveToFrontLru {
    capacity: usize,
    lines: Vec<u64>,
}

impl MoveToFrontLru {
    /// References `line`; returns whether it was resident.
    fn access(&mut self, line: u64) -> bool {
        let hit = match self.lines.iter().position(|&l| l == line) {
            Some(i) => {
                self.lines.remove(i);
                true
            }
            None => {
                if self.lines.len() == self.capacity {
                    self.lines.pop();
                }
                false
            }
        };
        self.lines.insert(0, line);
        hit
    }
}

proptest! {
    #[test]
    fn oracle_matches_move_to_front_reference(
        capacity in 1usize..1025,
        universe in 1u64..4096,
        raws in prop::collection::vec(0u64..u64::MAX, 1..3000),
    ) {
        let mut shadow = FullyAssocLru::new(capacity);
        let mut oracle = ThreeCClassifier::new(capacity);
        let mut reference = MoveToFrontLru { capacity, lines: Vec::new() };
        let mut seen = std::collections::HashSet::new();
        for (i, raw) in raws.iter().enumerate() {
            // Folding into a small universe makes re-references, and
            // so both conflict and capacity verdicts, common.
            let n = raw % universe;
            let line = LineAddr::new(n);
            let first_touch = seen.insert(n);
            let hit = reference.access(n);
            let class = if hit {
                OracleClass::Conflict
            } else if first_touch {
                OracleClass::Compulsory
            } else {
                OracleClass::Capacity
            };
            prop_assert_eq!(
                shadow.observe_conflict(line), hit,
                "shadow, event {} (line {}) at capacity {}", i, line, capacity
            );
            prop_assert_eq!(
                oracle.observe(line), class,
                "classifier, event {} (line {}) at capacity {}", i, line, capacity
            );
        }
    }
}
