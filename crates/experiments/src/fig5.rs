//! Figure 5: cache-exclusion policies — no buffer, the MAT, and the
//! four MCT-based filters.
//!
//! Paper reference point: simply excluding capacity misses provides
//! the best performance, beating both the MAT and the more complex
//! MCT variants, with a higher overall hit rate.

use exclusion::{ExclusionPolicy, ExclusionStats};
use sim_core::stats::GeoMean;
use workloads::suite;

use crate::arch::{Arch, Family, System};
use crate::table::{pct, speedup};
use crate::{RunConfig, Table};

/// Results for one exclusion policy.
#[derive(Debug, Clone)]
pub struct PolicyResult {
    /// The policy.
    pub policy: ExclusionPolicy,
    /// Suite-aggregated counters.
    pub stats: ExclusionStats,
    /// Geometric-mean speedup over the no-buffer baseline.
    pub mean_speedup: f64,
}

/// The Figure 5 reproduction.
#[derive(Debug, Clone)]
pub struct Fig5 {
    /// Suite-average baseline (no buffer) hit rate.
    pub baseline_hit_rate: f64,
    /// One result per policy, in the paper's bar order.
    pub policies: Vec<PolicyResult>,
    /// Events per workload.
    pub events: usize,
}

/// The figure's cells: the no-buffer baseline, then one bypass buffer
/// per exclusion policy in the paper's bar order.
#[must_use]
pub fn cells() -> Vec<Arch> {
    let buffers = ExclusionPolicy::ALL.map(|policy| Arch::new(Family::Exclusion(policy)));
    [Arch::BASELINE].into_iter().chain(buffers).collect()
}

/// Trace events this figure simulates: every cell, per workload.
#[must_use]
pub fn simulated_events(events: usize) -> u64 {
    (cells().len() * suite().len() * events) as u64
}

/// Runs the Figure 5 experiment: one pass per workload feeds every
/// cell.
#[must_use]
pub fn run(cfg: &RunConfig, events: usize) -> Fig5 {
    let passes = crate::policy_passes(cfg, "fig5", events, &cells(), |system| match system {
        System::Exclusion(s) => *s.stats(),
        _ => unreachable!("fig5's policy cells are exclusion buffers"),
    });
    let policies = ExclusionPolicy::ALL
        .iter()
        .enumerate()
        .map(|(k, &policy)| {
            let mut agg = ExclusionStats::default();
            let mut mean = GeoMean::default();
            for pass in &passes {
                let (report, s) = &pass.policies[k];
                mean.push(report.speedup_over(&pass.base));
                agg.accesses += s.accesses;
                agg.d_hits += s.d_hits;
                agg.buffer_hits += s.buffer_hits;
                agg.demand_misses += s.demand_misses;
                agg.excluded += s.excluded;
            }
            PolicyResult {
                policy,
                stats: agg,
                mean_speedup: mean.mean(),
            }
        })
        .collect();

    Fig5 {
        baseline_hit_rate: crate::mean_base_hit_rate(&passes),
        policies,
        events,
    }
}

impl std::fmt::Display for Fig5 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "Figure 5: cache-exclusion policies ({} events/workload)\n",
            self.events
        )?;
        let mut table = Table::new(vec![
            "policy".into(),
            "D$ HR%".into(),
            "buffer HR%".into(),
            "total HR%".into(),
            "excluded".into(),
            "speedup".into(),
        ]);
        table.row(vec![
            "no buffer".into(),
            pct(self.baseline_hit_rate),
            "0".into(),
            pct(self.baseline_hit_rate),
            "0".into(),
            "1.000".into(),
        ]);
        for p in &self.policies {
            table.row(vec![
                p.policy.to_string(),
                pct(p.stats.d_hit_rate()),
                pct(p.stats.buffer_hit_rate()),
                pct(p.stats.total_hit_rate()),
                p.stats.excluded.to_string(),
                speedup(p.mean_speedup),
            ]);
        }
        write!(f, "{table}")?;
        writeln!(
            f,
            "\npaper: the capacity filter beats the MAT and the other variants"
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_is_competitive_on_small_run() {
        let fig = run(&RunConfig::default(), 4_000);
        assert_eq!(fig.policies.len(), 5);
        let capacity = fig
            .policies
            .iter()
            .find(|p| p.policy == ExclusionPolicy::Capacity)
            .expect("capacity policy present");
        let mat = fig
            .policies
            .iter()
            .find(|p| p.policy == ExclusionPolicy::Mat)
            .expect("MAT present");
        // The paper's qualitative claim on the suite: capacity ≥ MAT.
        assert!(
            capacity.stats.total_hit_rate() >= mat.stats.total_hit_rate() - 0.02,
            "capacity {} vs MAT {}",
            capacity.stats.total_hit_rate(),
            mat.stats.total_hit_rate()
        );
        assert!(fig.to_string().contains("no buffer"));
    }
}
