//! Figure 3 and Table 1: victim-cache policies under conflict
//! classification.
//!
//! Paper reference points: the combined filter policy gains ~3% over a
//! traditional victim cache; filtering fills cuts fills from 6.6% to
//! 2.6% of accesses; filtering swaps cuts swaps from 1.7% to 0.1%
//! while shifting hits from the cache to the buffer.

use assist_buffer::{AssistStats, VictimPolicy};
use sim_core::stats::GeoMean;
use workloads::suite;

use crate::arch::{Arch, Family, System};
use crate::table::{pct, speedup};
use crate::{RunConfig, Table};

/// Results for one victim policy.
#[derive(Debug, Clone)]
pub struct PolicyResult {
    /// The policy.
    pub policy: VictimPolicy,
    /// Per-benchmark speedups over the no-victim-cache baseline.
    pub speedups: Vec<(String, f64)>,
    /// Geometric-mean speedup.
    pub mean_speedup: f64,
    /// Suite-aggregated Table 1 counters.
    pub stats: AssistStats,
}

/// The Figure 3 + Table 1 reproduction.
#[derive(Debug, Clone)]
pub struct Fig3 {
    /// Baseline (no victim cache) hit rate, suite-aggregated.
    pub baseline_hit_rate: f64,
    /// One result per policy, in the paper's bar order.
    pub policies: Vec<PolicyResult>,
    /// Events per workload.
    pub events: usize,
}

/// The figure's cells: the no-victim baseline, then one victim cache
/// per policy in the paper's bar order.
#[must_use]
pub fn cells() -> Vec<Arch> {
    let victims = VictimPolicy::ALL.map(|policy| Arch::new(Family::Assist(policy.into())));
    [Arch::BASELINE].into_iter().chain(victims).collect()
}

/// Trace events this figure simulates: every cell, per workload.
#[must_use]
pub fn simulated_events(events: usize) -> u64 {
    (cells().len() * suite().len() * events) as u64
}

/// Runs the Figure 3 / Table 1 experiment: one pass per workload
/// feeds every cell.
#[must_use]
pub fn run(cfg: &RunConfig, events: usize) -> Fig3 {
    let passes = crate::policy_passes(cfg, "fig3", events, &cells(), |system| match system {
        System::Assist(s) => *s.stats(),
        _ => unreachable!("fig3's policy cells are victim caches"),
    });
    let policies = VictimPolicy::ALL
        .iter()
        .enumerate()
        .map(|(k, &policy)| {
            let mut speedups = Vec::new();
            let mut mean = GeoMean::default();
            let mut agg = AssistStats::default();
            for (w, pass) in suite().iter().zip(&passes) {
                let (report, st) = &pass.policies[k];
                let s = report.speedup_over(&pass.base);
                mean.push(s);
                speedups.push((w.name().to_owned(), s));
                agg += *st;
            }
            PolicyResult {
                policy,
                speedups,
                mean_speedup: mean.mean(),
                stats: agg,
            }
        })
        .collect();

    Fig3 {
        baseline_hit_rate: crate::mean_base_hit_rate(&passes),
        policies,
        events,
    }
}

impl std::fmt::Display for Fig3 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "Figure 3: victim cache policies, speedup over no victim cache ({} events/workload)\n",
            self.events
        )?;
        let mut fig = Table::new(vec![
            "benchmark".into(),
            "V cache".into(),
            "filter swaps".into(),
            "filter fills".into(),
            "filter both".into(),
        ]);
        let names: Vec<&String> = self.policies[0].speedups.iter().map(|(n, _)| n).collect();
        for (i, name) in names.iter().enumerate() {
            fig.row(vec![
                (*name).clone(),
                speedup(self.policies[0].speedups[i].1),
                speedup(self.policies[1].speedups[i].1),
                speedup(self.policies[2].speedups[i].1),
                speedup(self.policies[3].speedups[i].1),
            ]);
        }
        fig.row(vec![
            "GEOMEAN".into(),
            speedup(self.policies[0].mean_speedup),
            speedup(self.policies[1].mean_speedup),
            speedup(self.policies[2].mean_speedup),
            speedup(self.policies[3].mean_speedup),
        ]);
        write!(f, "{fig}")?;

        writeln!(
            f,
            "\nTable 1: hit rates and swap/fill traffic (% of accesses)\n"
        )?;
        let mut tab = Table::new(vec![
            "policy".into(),
            "D$ HR".into(),
            "V$ HR".into(),
            "total".into(),
            "swaps".into(),
            "fills".into(),
        ]);
        tab.row(vec![
            "no V cache".into(),
            pct(self.baseline_hit_rate),
            "0".into(),
            pct(self.baseline_hit_rate),
            "0".into(),
            "0".into(),
        ]);
        for p in &self.policies {
            tab.row(vec![
                p.policy.to_string(),
                pct(p.stats.d_hit_rate()),
                pct(p.stats.victim_hit_rate()),
                pct(p.stats.total_hit_rate()),
                pct(p.stats.swap_rate()),
                pct(p.stats.fill_rate()),
            ]);
        }
        write!(f, "{tab}")?;
        writeln!(
            f,
            "\npaper Table 1: V cache 88.2/6.4/94.7/1.7/6.6; filter both 80.8/13.6/94.4/0.1/2.6"
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_on_small_run() {
        let fig = run(&RunConfig::default(), 4_000);
        assert_eq!(fig.policies.len(), 4);
        let trad = &fig.policies[0];
        let both = &fig.policies[3];
        // Filtering must cut swaps and fills.
        assert!(both.stats.swap_rate() <= trad.stats.swap_rate());
        assert!(both.stats.fill_rate() <= trad.stats.fill_rate());
        let display = fig.to_string();
        assert!(display.contains("GEOMEAN"));
        assert!(display.contains("no V cache"));
    }
}
