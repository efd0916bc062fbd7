//! Figure 4: next-line prefetch strategies — a conventional prefetcher
//! against the four conflict filters, on the slow-bus system.
//!
//! Paper reference points: filtered prefetching raises prefetch
//! accuracy by ~25% by eliminating low-probability prefetches, with
//! little coverage loss; speedups are small ("the performance
//! advantage is not significant").

use cache_model::{CacheGeometry, L2MemoryConfig};
use cpu_model::Plumbing;
use mct::ConflictFilter;
use prefetcher::{NextLineSystem, PrefetchConfig, PrefetchStats};
use sim_core::stats::GeoMean;
use workloads::suite;

use crate::table::{pct, speedup};
use crate::Table;

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

/// The five Figure 4 strategies.
#[must_use]
pub fn strategies() -> Vec<Option<ConflictFilter>> {
    vec![
        None,
        Some(ConflictFilter::InConflict),
        Some(ConflictFilter::OutConflict),
        Some(ConflictFilter::AndConflict),
        Some(ConflictFilter::OrConflict),
    ]
}

/// Trace events this figure simulates: the no-prefetch baseline plus
/// one run per strategy, per workload.
#[must_use]
pub fn simulated_events(events: usize) -> u64 {
    ((1 + strategies().len()) * suite().len() * events) as u64
}

/// Runs the Figure 4 experiment: one pass per workload feeds the
/// slow-bus no-prefetch baseline and every strategy.
#[must_use]
pub fn run(events: usize) -> Fig4 {
    let passes = crate::policy_passes(
        "fig4",
        events,
        || {
            let plumbing = Plumbing::new(
                cpu_model::MemTimings::paper_default(),
                L2MemoryConfig::paper_slow_bus().expect("paper config"),
            );
            cpu_model::BaselineSystem::new(
                CacheGeometry::new(16 * 1024, 1, 64).expect("paper geometry"),
                plumbing,
            )
        },
        || {
            strategies()
                .into_iter()
                .map(|filter| {
                    let (name, cfg) = match filter {
                        None => ("next-line".to_owned(), PrefetchConfig::unfiltered()),
                        Some(f) => (format!("ignore {f}"), PrefetchConfig::filtered(f)),
                    };
                    let sys = NextLineSystem::paper_slow_bus(cfg).expect("paper config");
                    (name, sys)
                })
                .collect()
        },
        |sys| *sys.stats(),
    );
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
        let fig = run(4_000);
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
