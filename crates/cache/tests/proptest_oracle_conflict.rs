//! The shadow's conflict-only verdict is the three-C oracle's conflict
//! class: [`FullyAssocLru::observe_conflict`] must equal
//! `ThreeCClassifier::observe(..).is_conflict()` event for event, on
//! random streams at every capacity from one line to 1024.

use cache_model::oracle::{FullyAssocLru, ThreeCClassifier};
use proptest::prelude::*;
use sim_core::LineAddr;

proptest! {
    #[test]
    fn conflict_verdict_matches_three_way_classification(
        capacity in 1usize..1025,
        universe in 1u64..4096,
        raws in prop::collection::vec(0u64..u64::MAX, 1..3000),
    ) {
        let mut shadow = FullyAssocLru::new(capacity);
        let mut oracle = ThreeCClassifier::new(capacity);
        for (i, raw) in raws.iter().enumerate() {
            // Folding into a small universe makes re-references, and
            // so both conflict and capacity verdicts, common.
            let line = LineAddr::new(raw % universe);
            prop_assert_eq!(
                shadow.observe_conflict(line),
                oracle.observe(line).is_conflict(),
                "event {} (line {}) at capacity {}", i, line, capacity
            );
        }
    }
}
