//! §5.4: the pseudo-associative cache with conflict-bit replacement.
//!
//! Paper reference points: the modified policy improved the average
//! miss rate from 10.22% to 9.83% and performance by 1.5% on average,
//! running only 0.9% slower than a true 2-way cache (with tomcatv,
//! turb3d and wave5 beating the 2-way cache).

use cpu_model::BaselineSystem;
use pseudo_assoc::{PseudoAssocSystem, PseudoConfig, PseudoPolicy};
use sim_core::stats::GeoMean;
use workloads::suite;

use crate::table::{pct, speedup};
use crate::{CpuCell, RunConfig, Table};

/// Per-benchmark numbers for the §5.4 comparison.
#[derive(Debug, Clone)]
pub struct BenchRow {
    /// Benchmark name.
    pub name: String,
    /// Direct-mapped baseline miss rate.
    pub dm_miss: f64,
    /// Base pseudo-associative miss rate.
    pub base_miss: f64,
    /// Conflict-bit pseudo-associative miss rate.
    pub modified_miss: f64,
    /// True 2-way miss rate.
    pub two_way_miss: f64,
    /// Modified-over-base speedup.
    pub speedup_mod_over_base: f64,
    /// Modified-over-2-way speedup (< 1 means slower than 2-way).
    pub speedup_mod_over_two_way: f64,
}

/// The §5.4 reproduction.
#[derive(Debug, Clone)]
pub struct Sec54 {
    /// One row per benchmark.
    pub rows: Vec<BenchRow>,
    /// Average miss rates (base pseudo, modified pseudo, 2-way).
    pub avg_miss: (f64, f64, f64),
    /// Geometric-mean speedups (modified/base, modified/2-way).
    pub mean_speedups: (f64, f64),
    /// Events per workload.
    pub events: usize,
}

/// Trace events this section simulates: four runs (DM, base pseudo,
/// modified pseudo, true 2-way) per workload.
#[must_use]
pub fn simulated_events(events: usize) -> u64 {
    (4 * suite().len() * events) as u64
}

/// The probe label of each cell of a workload's pass, in cell order.
const CELLS: [&str; 4] = ["dm", "pseudo-lru", "pseudo-cbit", "two-way"];

/// Runs the §5.4 experiment: one pass per workload feeds the
/// direct-mapped baseline, both pseudo-associative policies and the
/// true 2-way cache.
#[must_use]
pub fn run(cfg: &RunConfig, events: usize) -> Sec54 {
    let benchmarks = suite();
    let mut base_sum = 0.0;
    let mut mod_sum = 0.0;
    let mut two_sum = 0.0;
    let mut mean_base = GeoMean::default();
    let mut mean_two = GeoMean::default();

    let rows: Vec<BenchRow> = cfg.par_map(benchmarks, |w| {
        let mut dm = BaselineSystem::paper_default().expect("paper config");
        let mut base = PseudoAssocSystem::paper_default(PseudoConfig::new(PseudoPolicy::Lru))
            .expect("paper config");
        let mut modified =
            PseudoAssocSystem::paper_default(PseudoConfig::new(PseudoPolicy::ConflictBit))
                .expect("paper config");
        let mut two_way = BaselineSystem::paper_two_way().expect("paper config");
        let cells = vec![
            CpuCell::paper(&mut dm),
            CpuCell::paper(&mut base),
            CpuCell::paper(&mut modified),
            CpuCell::paper(&mut two_way),
        ];
        let reports = crate::replay_cpu(
            cfg,
            "sec54",
            || w.name().to_owned(),
            crate::trace(&w, events),
            cells,
            |i| format!("{}/{}", CELLS[i], w.name()),
        );
        let (base_report, mod_report, two_report) = (reports[1], reports[2], reports[3]);

        BenchRow {
            name: w.name().to_owned(),
            dm_miss: dm.l1_stats().miss_rate(),
            base_miss: base.stats().miss_rate(),
            modified_miss: modified.stats().miss_rate(),
            two_way_miss: two_way.l1_stats().miss_rate(),
            speedup_mod_over_base: mod_report.speedup_over(&base_report),
            speedup_mod_over_two_way: mod_report.speedup_over(&two_report),
        }
    });
    for row in &rows {
        base_sum += row.base_miss;
        mod_sum += row.modified_miss;
        two_sum += row.two_way_miss;
        mean_base.push(row.speedup_mod_over_base);
        mean_two.push(row.speedup_mod_over_two_way);
    }

    let n = rows.len() as f64;
    Sec54 {
        rows,
        avg_miss: (base_sum / n, mod_sum / n, two_sum / n),
        mean_speedups: (mean_base.mean(), mean_two.mean()),
        events,
    }
}

impl std::fmt::Display for Sec54 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "Section 5.4: pseudo-associative cache with conflict-bit replacement ({} events/workload)\n",
            self.events
        )?;
        let mut table = Table::new(vec![
            "benchmark".into(),
            "DM miss%".into(),
            "pseudo miss%".into(),
            "MCT-pseudo miss%".into(),
            "2-way miss%".into(),
            "spd vs pseudo".into(),
            "spd vs 2-way".into(),
        ]);
        for r in &self.rows {
            table.row(vec![
                r.name.clone(),
                pct(r.dm_miss),
                pct(r.base_miss),
                pct(r.modified_miss),
                pct(r.two_way_miss),
                speedup(r.speedup_mod_over_base),
                speedup(r.speedup_mod_over_two_way),
            ]);
        }
        table.row(vec![
            "AVERAGE".into(),
            "-".into(),
            pct(self.avg_miss.0),
            pct(self.avg_miss.1),
            pct(self.avg_miss.2),
            speedup(self.mean_speedups.0),
            speedup(self.mean_speedups.1),
        ]);
        write!(f, "{table}")?;
        writeln!(
            f,
            "\npaper: avg miss 10.22% -> 9.83%; +1.5% speedup; within 0.9% of true 2-way"
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn modified_not_worse_than_base_on_average() {
        let r = run(&RunConfig::default(), 4_000);
        let (base, modified, _two) = r.avg_miss;
        assert!(
            modified <= base + 0.002,
            "modified {modified} vs base {base}"
        );
        assert!(r.mean_speedups.0 > 0.98);
        assert!(r.to_string().contains("AVERAGE"));
    }
}
