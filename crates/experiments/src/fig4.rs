//! Figure 4: next-line prefetch strategies — a conventional prefetcher
//! against the four conflict filters, on the slow-bus system.
//!
//! Paper reference points: filtered prefetching raises prefetch
//! accuracy by ~25% by eliminating low-probability prefetches, with
//! little coverage loss; speedups are small ("the performance
//! advantage is not significant").

use mct::ConflictFilter;
use prefetcher::PrefetchStats;
use sim_core::stats::GeoMean;
use workloads::suite;

use crate::arch::{Arch, Family, System};
use crate::table::{pct, speedup};
use crate::{RunConfig, Table};

/// Results for one prefetch strategy.
#[derive(Debug, Clone)]
pub struct StrategyResult {
    /// `None` = conventional (unfiltered) next-line prefetching.
    pub filter: Option<ConflictFilter>,
    /// Suite-aggregated effectiveness counters.
    pub stats: PrefetchStats,
    /// Geometric-mean speedup over no prefetching (slow bus).
    pub mean_speedup: f64,
}

/// The Figure 4 reproduction.
#[derive(Debug, Clone)]
pub struct Fig4 {
    /// The five strategies in the paper's bar order.
    pub strategies: Vec<StrategyResult>,
    /// Events per workload.
    pub events: usize,
}

/// The five Figure 4 strategies: unfiltered, then each filter.
#[must_use]
pub fn strategies() -> Vec<Option<ConflictFilter>> {
    [None]
        .into_iter()
        .chain(ConflictFilter::ALL.map(Some))
        .collect()
}

/// The figure's cells, all on the slow bus: the no-prefetch baseline,
/// then one next-line prefetcher per strategy.
#[must_use]
pub fn cells() -> Vec<Arch> {
    let prefetchers = strategies()
        .into_iter()
        .map(|filter| Arch::new(Family::Prefetch(filter)));
    [Arch::BASELINE]
        .into_iter()
        .chain(prefetchers)
        .map(Arch::on_slow_bus)
        .collect()
}

/// Trace events this figure simulates: every cell, per workload.
#[must_use]
pub fn simulated_events(events: usize) -> u64 {
    (cells().len() * suite().len() * events) as u64
}

/// Runs the Figure 4 experiment: one pass per workload feeds every
/// cell.
#[must_use]
pub fn run(cfg: &RunConfig, events: usize) -> Fig4 {
    let passes = crate::policy_passes(cfg, "fig4", events, &cells(), |system| match system {
        System::Prefetch(s) => *s.stats(),
        _ => unreachable!("fig4's policy cells are next-line prefetchers"),
    });
    let strategies = strategies()
        .into_iter()
        .enumerate()
        .map(|(k, filter)| {
            let mut agg = PrefetchStats::default();
            let mut mean = GeoMean::default();
            for pass in &passes {
                let (report, s) = &pass.policies[k];
                mean.push(report.speedup_over(&pass.base));
                agg.accesses += s.accesses;
                agg.d_hits += s.d_hits;
                agg.buffer_hits += s.buffer_hits;
                agg.demand_misses += s.demand_misses;
                agg.issued += s.issued;
                agg.wasted += s.wasted;
                agg.discarded += s.discarded;
                agg.filtered += s.filtered;
            }
            StrategyResult {
                filter,
                stats: agg,
                mean_speedup: mean.mean(),
            }
        })
        .collect();

    Fig4 { strategies, events }
}

impl std::fmt::Display for Fig4 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "Figure 4: next-line prefetch strategies, slow L1-L2 bus ({} events/workload)\n",
            self.events
        )?;
        let mut table = Table::new(vec![
            "strategy".into(),
            "accuracy%".into(),
            "coverage%".into(),
            "issued".into(),
            "filtered".into(),
            "speedup".into(),
        ]);
        for s in &self.strategies {
            let name = match s.filter {
                None => "next-line".to_owned(),
                Some(filt) => format!("ignore {filt}"),
            };
            table.row(vec![
                name,
                pct(s.stats.accuracy()),
                pct(s.stats.coverage()),
                s.stats.issued.to_string(),
                s.stats.filtered.to_string(),
                speedup(s.mean_speedup),
            ]);
        }
        write!(f, "{table}")?;
        writeln!(
            f,
            "\npaper: filters raise accuracy ~25% with little coverage loss; speedups small"
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn filters_reduce_issue_traffic() {
        let fig = run(&RunConfig::default(), 4_000);
        assert_eq!(fig.strategies.len(), 5);
        let unfiltered = &fig.strategies[0];
        let or_filter = &fig.strategies[4];
        assert!(or_filter.stats.issued < unfiltered.stats.issued);
        assert!(or_filter.stats.filtered > 0);
        // The or-conflict filter is the most discriminating.
        for s in &fig.strategies[1..4] {
            assert!(or_filter.stats.issued <= s.stats.issued);
        }
        let display = fig.to_string();
        assert!(display.contains("ignore or-conflict"));
    }
}
