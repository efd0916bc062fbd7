//! Figure 3 and Table 1: victim-cache policies under conflict
//! classification.
//!
//! Paper reference points: the combined filter policy gains ~3% over a
//! traditional victim cache; filtering fills cuts fills from 6.6% to
//! 2.6% of accesses; filtering swaps cuts swaps from 1.7% to 0.1%
//! while shifting hits from the cache to the buffer.

use cpu_model::{BaselineSystem, CpuReport};
use sim_core::stats::GeoMean;
use victim_cache::{VictimConfig, VictimPolicy, VictimStats, VictimSystem};
use workloads::{suite, Workload};

use crate::table::{pct, speedup};
use crate::{drive, Replay, Table};

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
    pub stats: VictimStats,
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

/// Trace events this figure simulates: the no-victim baseline plus
/// one run per victim policy, per workload.
#[must_use]
pub fn simulated_events(events: usize) -> u64 {
    ((1 + VictimPolicy::ALL.len()) * suite().len() * events) as u64
}

fn run_baseline(w: &Workload, events: usize, replay: Replay) -> (CpuReport, f64) {
    let mut sys = BaselineSystem::paper_default().expect("paper config");
    let report = drive(&mut sys, w, events, replay);
    (report, sys.l1_stats().hit_rate())
}

/// Runs the Figure 3 / Table 1 experiment, reading traces in `replay`
/// mode.
#[must_use]
pub fn run(events: usize, replay: Replay) -> Fig3 {
    let benchmarks = suite();
    let baselines: Vec<(CpuReport, f64)> = crate::par_map(benchmarks.clone(), |w| {
        crate::probe::cell(
            "fig3",
            || format!("baseline/{}", w.name()),
            || run_baseline(&w, events, replay),
        )
    });
    let mut base_hits = 0.0;
    for (_, hr) in &baselines {
        base_hits += hr;
    }
    let baseline_hit_rate = base_hits / baselines.len() as f64;

    let policies = crate::par_map(VictimPolicy::ALL.to_vec(), |policy| {
        let mut speedups = Vec::new();
        let mut mean = GeoMean::default();
        let mut agg = VictimStats::default();
        for (w, (base_report, _)) in benchmarks.iter().zip(&baselines) {
            let (report, st) = crate::probe::cell(
                "fig3",
                || format!("{policy}/{}", w.name()),
                || {
                    let mut sys = VictimSystem::paper_default(VictimConfig::new(policy))
                        .expect("paper config");
                    let report = drive(&mut sys, w, events, replay);
                    (report, *sys.stats())
                },
            );
            let s = report.speedup_over(base_report);
            mean.push(s);
            speedups.push((w.name().to_owned(), s));
            let st = &st;
            agg.accesses += st.accesses;
            agg.d_hits += st.d_hits;
            agg.v_hits += st.v_hits;
            agg.swaps += st.swaps;
            agg.fills += st.fills;
        }
        PolicyResult {
            policy,
            speedups,
            mean_speedup: mean.mean(),
            stats: agg,
        }
    });

    Fig3 {
        baseline_hit_rate,
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
                pct(p.stats.v_hit_rate()),
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
        let fig = run(4_000, Replay::Arena);
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
