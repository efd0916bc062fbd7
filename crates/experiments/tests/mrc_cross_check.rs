//! Cross-ground-truth check: the MRC engine and the three-C shadow
//! oracle implement the *same* mathematical object — a
//! fully-associative LRU cache of the geometry's line capacity — via
//! unrelated code (an order-statistic tree over stack distances vs. a
//! linked recency list). On the Figure 1 smoke sweep their
//! capacity-miss counts must therefore agree **exactly**: an access
//! misses the oracle's shadow cache (Compulsory or Capacity class)
//! iff its LRU stack distance is at least the capacity (or the line
//! is cold). Any disagreement cell is printed with both counts.

use cache_model::oracle::{OracleClass, ThreeCClassifier};
use mrc::StackDistanceEngine;

/// Small smoke-sweep event count: 4 configurations × the full
/// workload suite stays a sub-second test at opt-level 1.
const EVENTS: usize = 4_000;

/// Streams a workload's first `EVENTS` line addresses (64 B lines,
/// the paper's line size) at the experiments seed.
fn lines_of(workload: &workloads::Workload) -> Vec<u64> {
    let mut source = workload.source(experiments::SEED);
    (0..EVENTS)
        .map(|_| source.next_event().access.addr.line(64).raw())
        .collect()
}

#[test]
fn mrc_capacity_estimate_matches_three_c_oracle_exactly() {
    let mut disagreements: Vec<String> = Vec::new();
    for (config, geom) in experiments::fig1::configurations() {
        let capacity = geom.num_lines();
        for workload in experiments::mrc::workload_suite() {
            let lines = lines_of(&workload);

            let mut oracle = ThreeCClassifier::new(capacity);
            let mut oracle_fa_misses = 0u64;
            for &line in &lines {
                match oracle.observe(sim_core::LineAddr::new(line)) {
                    OracleClass::Compulsory | OracleClass::Capacity => oracle_fa_misses += 1,
                    OracleClass::Conflict => {}
                }
            }

            let mut engine = StackDistanceEngine::new();
            for &line in &lines {
                engine.record_line(line);
            }
            let mrc_fa_misses = engine.histogram().tail(capacity as u64);

            if mrc_fa_misses != oracle_fa_misses {
                disagreements.push(format!(
                    "{config}/{}: oracle {} vs mrc {} FA misses at {capacity} lines",
                    workload.name(),
                    oracle_fa_misses,
                    mrc_fa_misses,
                ));
            }
        }
    }
    assert!(
        disagreements.is_empty(),
        "MRC and three-C oracle disagree on {} cell(s):\n{}",
        disagreements.len(),
        disagreements.join("\n")
    );
}

#[test]
fn mrc_driver_cells_carry_the_oracle_ratio() {
    // The driver's cross-check cells compute `mrc_miss_ratio` through
    // the line-address block-replay path; recomputing the oracle ratio
    // from a raw stream must give the identical f64 (same integer
    // counts, same division).
    let run = experiments::mrc::run(EVENTS, None);
    let mut disagreements: Vec<String> = Vec::new();
    for cell in &run.cells {
        let workload = workloads::by_name(&cell.workload).expect("cell workload exists");
        let mut oracle = ThreeCClassifier::new(cell.capacity_lines as usize);
        let mut fa_misses = 0u64;
        for line in lines_of(&workload) {
            if !matches!(
                oracle.observe(sim_core::LineAddr::new(line)),
                OracleClass::Conflict
            ) {
                fa_misses += 1;
            }
        }
        let oracle_ratio = fa_misses as f64 / EVENTS as f64;
        if cell.mrc_miss_ratio != oracle_ratio {
            disagreements.push(format!(
                "{}/{}: driver {} vs oracle {oracle_ratio}",
                cell.config, cell.workload, cell.mrc_miss_ratio,
            ));
        }
    }
    assert!(
        disagreements.is_empty(),
        "driver MRC ratio deviates from the oracle on {} cell(s):\n{}",
        disagreements.len(),
        disagreements.join("\n")
    );
}
