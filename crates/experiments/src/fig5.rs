//! Figure 5: cache-exclusion policies — no buffer, the MAT, and the
//! four MCT-based filters.
//!
//! Paper reference point: simply excluding capacity misses provides
//! the best performance, beating both the MAT and the more complex
//! MCT variants, with a higher overall hit rate.

use cpu_model::{BaselineSystem, CpuReport};
use exclusion::{ExclusionConfig, ExclusionPolicy, ExclusionStats, ExclusionSystem};
use sim_core::stats::GeoMean;
use workloads::suite;

use crate::table::{pct, speedup};
use crate::{drive, Replay, Table};

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

/// Trace events this figure simulates: the no-buffer baseline plus
/// one run per exclusion policy, per workload.
#[must_use]
pub fn simulated_events(events: usize) -> u64 {
    ((1 + ExclusionPolicy::ALL.len()) * suite().len() * events) as u64
}

/// Runs the Figure 5 experiment, reading traces in `replay` mode.
#[must_use]
pub fn run(events: usize, replay: Replay) -> Fig5 {
    let benchmarks = suite();
    let baseline_cells: Vec<(CpuReport, f64)> = crate::par_map(benchmarks.clone(), |w| {
        crate::probe::cell(
            "fig5",
            || format!("baseline/{}", w.name()),
            || {
                let mut sys = BaselineSystem::paper_default().expect("paper config");
                let report = drive(&mut sys, &w, events, replay);
                (report, sys.l1_stats().hit_rate())
            },
        )
    });
    let mut baselines: Vec<CpuReport> = Vec::new();
    let mut base_hr = 0.0;
    for (report, hr) in baseline_cells {
        baselines.push(report);
        base_hr += hr;
    }
    let baseline_hit_rate = base_hr / benchmarks.len() as f64;

    let policies = crate::par_map(ExclusionPolicy::ALL.to_vec(), |policy| {
        let mut agg = ExclusionStats::default();
        let mut mean = GeoMean::default();
        for (w, base) in benchmarks.iter().zip(&baselines) {
            let (report, s) = crate::probe::cell(
                "fig5",
                || format!("{policy}/{}", w.name()),
                || {
                    let mut sys = ExclusionSystem::paper_default(ExclusionConfig::new(policy))
                        .expect("paper config");
                    let report = drive(&mut sys, w, events, replay);
                    (report, *sys.stats())
                },
            );
            mean.push(report.speedup_over(base));
            let s = &s;
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
    });

    Fig5 {
        baseline_hit_rate,
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
        let fig = run(4_000, Replay::Arena);
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
