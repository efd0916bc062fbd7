//! Figure 1: the accuracy of miss classification across four cache
//! configurations (16 KB DM, 16 KB 2-way, 64 KB DM, 64 KB 2-way).
//!
//! Paper reference points: 88% of conflict and 86% of capacity misses
//! correctly identified on the 16 KB DM cache; 91%/92% on the 64 KB DM
//! cache.

use cache_model::CacheGeometry;
use mct::accuracy::AccuracyReport;
use mct::{MissClassificationTable, TagBits};
use workloads::full_suite;

use crate::table::pct_ratio;
use crate::{RunConfig, Table};

/// One cache configuration's results.
#[derive(Debug, Clone)]
pub struct ConfigResult {
    /// Human-readable configuration name.
    pub name: String,
    /// Per-benchmark accuracy reports.
    pub benchmarks: Vec<(String, AccuracyReport)>,
    /// Suite-wide (miss-weighted) accuracy.
    pub average: AccuracyReport,
}

/// The full Figure 1 reproduction.
#[derive(Debug, Clone)]
pub struct Fig1 {
    /// The four configurations, in the paper's order.
    pub configs: Vec<ConfigResult>,
    /// Events simulated per workload.
    pub events: usize,
}

/// The paper's four cache configurations.
#[must_use]
pub fn configurations() -> Vec<(String, CacheGeometry)> {
    [(16u64, 1u32), (16, 2), (64, 1), (64, 2)]
        .into_iter()
        .map(|(kb, ways)| {
            let geom = CacheGeometry::new(kb * 1024, ways, 64).expect("paper geometry is valid");
            (
                format!(
                    "{kb}KB {}",
                    if ways == 1 {
                        "DM".into()
                    } else {
                        format!("{ways}-way")
                    }
                ),
                geom,
            )
        })
        .collect()
}

/// Trace events this figure simulates: one pass per (configuration,
/// workload) cell.
#[must_use]
pub fn simulated_events(events: usize) -> u64 {
    (configurations().len() * full_suite().len() * events) as u64
}

/// The full-tag MCT cell of every configuration, as
/// [`crate::replay_group`] members.
pub(crate) fn members(
    configs: &[(String, CacheGeometry)],
) -> Vec<(CacheGeometry, MissClassificationTable)> {
    configs
        .iter()
        .map(|&(_, geom)| {
            (
                geom,
                MissClassificationTable::new(geom.num_sets(), TagBits::Full),
            )
        })
        .collect()
}

/// Runs the Figure 1 experiment with `events` references per
/// workload: one group replay per workload scores all four
/// configurations (the one-figure case of
/// [`crate::accuracy_figures`]).
#[must_use]
pub fn run(cfg: &RunConfig, events: usize) -> Fig1 {
    let (fig, _) = crate::accuracy_figures(cfg, events, true, false);
    fig.expect("fig1 was asked for")
}

impl Fig1 {
    /// The figure from its cells' reports: per workload of the full
    /// suite, one report per configuration of [`configurations`].
    pub(crate) fn from_reports(per_workload: &[Vec<AccuracyReport>], events: usize) -> Fig1 {
        let configs = configurations()
            .into_iter()
            .enumerate()
            .map(|(i, (name, _))| {
                let benchmarks: Vec<(String, AccuracyReport)> = full_suite()
                    .iter()
                    .zip(per_workload)
                    .map(|(w, reports)| (w.name().to_owned(), reports[i]))
                    .collect();
                let mut average = AccuracyReport::default();
                for (_, report) in &benchmarks {
                    average.merge(report);
                }
                ConfigResult {
                    name,
                    benchmarks,
                    average,
                }
            })
            .collect();
        Fig1 { configs, events }
    }
}

impl std::fmt::Display for Fig1 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "Figure 1: miss classification accuracy ({} events/workload)\n",
            self.events
        )?;
        let mut header = vec!["benchmark".to_owned()];
        for c in &self.configs {
            header.push(format!("{} conf%", c.name));
            header.push(format!("{} cap%", c.name));
        }
        let mut table = Table::new(header);
        let names: Vec<&String> = self.configs[0].benchmarks.iter().map(|(n, _)| n).collect();
        for (i, name) in names.iter().enumerate() {
            let mut row = vec![(*name).clone()];
            for c in &self.configs {
                let r = &c.benchmarks[i].1;
                row.push(pct_ratio(r.conflict));
                row.push(pct_ratio(r.capacity));
            }
            table.row(row);
        }
        let mut avg = vec!["AVERAGE".to_owned()];
        for c in &self.configs {
            avg.push(pct_ratio(c.average.conflict));
            avg.push(pct_ratio(c.average.capacity));
        }
        table.row(avg);
        write!(f, "{table}")?;
        writeln!(
            f,
            "\npaper: 16KB DM 88/86, 64KB DM 91/92 (conflict%/capacity%)"
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn four_paper_configurations() {
        let configs = configurations();
        assert_eq!(configs.len(), 4);
        assert_eq!(configs[0].0, "16KB DM");
        assert_eq!(configs[1].0, "16KB 2-way");
        assert_eq!(configs[3].1.associativity(), 2);
    }

    #[test]
    fn small_run_has_sane_shape() {
        let fig = run(&RunConfig::default(), 3_000);
        assert_eq!(fig.configs.len(), 4);
        for c in &fig.configs {
            assert_eq!(c.benchmarks.len(), workloads::full_suite().len());
            assert!(c.average.misses > 0);
        }
        let display = fig.to_string();
        assert!(display.contains("AVERAGE"));
        assert!(display.contains("tomcatv"));
    }
}
