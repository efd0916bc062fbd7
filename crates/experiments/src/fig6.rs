//! Figures 6 and 7: the Adaptive Miss Buffer policy combinations.
//!
//! Paper reference points: VictPref is the best 8-entry combination,
//! more than doubling the gain of any single policy; with 16 entries
//! the do-everything VicPreExc becomes more attractive; the hit-rate
//! components (Figure 7) show each miss class covered by its own
//! optimization, with a ~1.4× average miss-rate improvement over the
//! best single policy.

use amb::{AmbConfig, AmbPolicy, AmbStats, AmbSystem};
use cpu_model::{BaselineSystem, CpuReport};
use sim_core::stats::GeoMean;
use workloads::suite;

use crate::table::{pct, speedup};
use crate::{drive, Replay, Table};

/// Results for one AMB policy at one buffer size.
#[derive(Debug, Clone)]
pub struct PolicyResult {
    /// The policy combination.
    pub policy: AmbPolicy,
    /// Buffer entries.
    pub entries: usize,
    /// Geometric-mean speedup over the no-buffer baseline.
    pub mean_speedup: f64,
    /// Suite-aggregated Figure 7 components.
    pub stats: AmbStats,
}

/// The Figures 6 + 7 reproduction.
#[derive(Debug, Clone)]
pub struct Fig6 {
    /// All policies at 8 entries, then all at 16, in the paper's
    /// order.
    pub results: Vec<PolicyResult>,
    /// Suite-average baseline hit rate / miss rate context.
    pub baseline_hit_rate: f64,
    /// Events per workload.
    pub events: usize,
}

/// Trace events this figure simulates: the no-buffer baseline plus
/// one run per (policy, buffer-size) cell, per workload.
#[must_use]
pub fn simulated_events(events: usize) -> u64 {
    ((1 + 2 * AmbPolicy::ALL.len()) * suite().len() * events) as u64
}

/// Runs the Figures 6 + 7 experiment, reading traces in `replay`
/// mode.
#[must_use]
pub fn run(events: usize, replay: Replay) -> Fig6 {
    let benchmarks = suite();
    let baseline_cells: Vec<(CpuReport, f64)> = crate::par_map(benchmarks.clone(), |w| {
        crate::probe::cell(
            "fig6",
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

    let mut cells = Vec::new();
    for entries in [8usize, 16] {
        for policy in AmbPolicy::ALL {
            cells.push((entries, policy));
        }
    }
    let results = crate::par_map(cells, |(entries, policy)| {
        let cfg = if entries == 8 {
            AmbConfig::new(policy)
        } else {
            AmbConfig::large(policy)
        };
        let mut mean = GeoMean::default();
        let mut agg = AmbStats::default();
        for (w, base) in benchmarks.iter().zip(&baselines) {
            let (report, s) = crate::probe::cell(
                "fig6",
                || format!("{policy}-{entries}/{}", w.name()),
                || {
                    let mut sys = AmbSystem::paper_default(cfg).expect("paper config");
                    let report = drive(&mut sys, w, events, replay);
                    (report, *sys.stats())
                },
            );
            mean.push(report.speedup_over(base));
            let s = &s;
            agg.accesses += s.accesses;
            agg.d_hits += s.d_hits;
            agg.victim_hits += s.victim_hits;
            agg.prefetch_hits += s.prefetch_hits;
            agg.exclusion_hits += s.exclusion_hits;
            agg.demand_misses += s.demand_misses;
            agg.prefetches_issued += s.prefetches_issued;
            agg.prefetches_discarded += s.prefetches_discarded;
        }
        PolicyResult {
            policy,
            entries,
            mean_speedup: mean.mean(),
            stats: agg,
        }
    });

    Fig6 {
        results,
        baseline_hit_rate,
        events,
    }
}

impl Fig6 {
    /// The result for a policy at a buffer size, if present.
    #[must_use]
    pub fn result(&self, policy: AmbPolicy, entries: usize) -> Option<&PolicyResult> {
        self.results
            .iter()
            .find(|r| r.policy == policy && r.entries == entries)
    }
}

impl std::fmt::Display for Fig6 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "Figure 6: adaptive miss buffer, speedup over no buffer ({} events/workload)\n",
            self.events
        )?;
        let mut fig6 = Table::new(vec![
            "policy".into(),
            "8 entries".into(),
            "16 entries".into(),
        ]);
        for policy in AmbPolicy::ALL {
            let s8 = self
                .result(policy, 8)
                .map_or("-".into(), |r| speedup(r.mean_speedup));
            let s16 = self
                .result(policy, 16)
                .map_or("-".into(), |r| speedup(r.mean_speedup));
            fig6.row(vec![policy.to_string(), s8, s16]);
        }
        write!(f, "{fig6}")?;

        writeln!(
            f,
            "\nFigure 7: hit-rate components, 8-entry buffer (% of accesses; baseline D$ {}%)\n",
            pct(self.baseline_hit_rate)
        )?;
        let mut fig7 = Table::new(vec![
            "policy".into(),
            "D$".into(),
            "victim".into(),
            "prefetch".into(),
            "exclusion".into(),
            "total".into(),
        ]);
        for policy in AmbPolicy::ALL {
            if let Some(r) = self.result(policy, 8) {
                fig7.row(vec![
                    policy.to_string(),
                    pct(r.stats.d_hit_rate()),
                    pct(r.stats.victim_hit_rate()),
                    pct(r.stats.prefetch_hit_rate()),
                    pct(r.stats.exclusion_hit_rate()),
                    pct(r.stats.total_hit_rate()),
                ]);
            }
        }
        write!(f, "{fig7}")?;
        writeln!(
            f,
            "\npaper: VictPref best at 8 entries (2x any single policy); VicPreExc gains at 16"
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn combination_beats_singles_on_small_run() {
        let fig = run(6_000, Replay::Arena);
        let victpref = fig.result(AmbPolicy::VictPref, 8).unwrap().mean_speedup;
        let vict = fig.result(AmbPolicy::Vict, 8).unwrap().mean_speedup;
        let pref = fig.result(AmbPolicy::Pref, 8).unwrap().mean_speedup;
        let excl = fig.result(AmbPolicy::Excl, 8).unwrap().mean_speedup;
        let best_single = vict.max(pref).max(excl);
        assert!(
            victpref >= best_single - 0.01,
            "VictPref {victpref:.3} vs best single {best_single:.3}"
        );
        assert!(fig.to_string().contains("VicPreExc"));
    }
}
