//! Ablations for the design choices DESIGN.md calls out, beyond the
//! paper's own figures:
//!
//! * **shadow-directory depth** — the paper's unevaluated "multiple
//!   evicted tags per set" option (§3): how much conflict-accuracy do
//!   deeper directories buy, per cache configuration?
//! * **CPU window** — the instruction-window choice (32) that sets the
//!   baseline's latency-hiding ability and hence every speedup in
//!   Figures 3–6;
//! * **buffer size** — the AMB's entry count around the paper's 8/16
//!   points.

use amb::AmbPolicy;
use cpu_model::{CpuConfig, CpuReport};
use mct::accuracy::AccuracyReport;
use mct::{ShadowDirectory, TagBits};
use sim_core::stats::GeoMean;
use workloads::{full_suite, suite};

use crate::arch::{Arch, Family};
use crate::table::{pct, speedup};
use crate::{fig1, RunConfig, Table};

/// Accuracy per (configuration, depth).
#[derive(Debug, Clone)]
pub struct DepthPoint {
    /// Cache configuration name.
    pub config: String,
    /// Shadow-directory depth (1 = the paper's MCT).
    pub depth: usize,
    /// Suite-wide accuracy.
    pub report: AccuracyReport,
}

/// Speedup per CPU window size.
#[derive(Debug, Clone)]
pub struct WindowPoint {
    /// Instruction-window size.
    pub window: u64,
    /// Suite-average baseline IPC.
    pub baseline_ipc: f64,
    /// Geomean VictPref speedup over the baseline at this window.
    pub victpref_speedup: f64,
}

/// Speedup per AMB buffer size.
#[derive(Debug, Clone)]
pub struct BufferPoint {
    /// Buffer entries.
    pub entries: usize,
    /// Geomean VicPreExc speedup over the no-buffer baseline.
    pub speedup: f64,
}

/// The three ablations.
#[derive(Debug, Clone)]
pub struct Ablation {
    /// Shadow-directory depth sweep.
    pub depths: Vec<DepthPoint>,
    /// CPU window sweep.
    pub windows: Vec<WindowPoint>,
    /// Buffer-size sweep.
    pub buffers: Vec<BufferPoint>,
    /// Events per workload.
    pub events: usize,
}

/// The swept shadow-directory depths.
pub const DEPTHS: [usize; 4] = [1, 2, 4, 8];
/// The swept CPU windows.
pub const WINDOWS: [u64; 5] = [8, 16, 32, 64, 128];
/// The swept buffer sizes.
pub const BUFFERS: [usize; 5] = [2, 4, 8, 16, 32];

/// The depth sweep: one group replay per workload scores every
/// (configuration, depth) cell.
fn depth_sweep(cfg: &RunConfig, events: usize) -> Vec<DepthPoint> {
    let mut cells = Vec::new();
    for (name, geom) in fig1::configurations() {
        for depth in DEPTHS {
            cells.push((name.clone(), geom, depth));
        }
    }
    let per_workload: Vec<Vec<AccuracyReport>> = cfg.par_map(full_suite(), |w| {
        let members = cells
            .iter()
            .map(|&(_, geom, depth)| {
                (
                    geom,
                    ShadowDirectory::new(geom.num_sets(), TagBits::Full, depth),
                )
            })
            .collect();
        crate::replay_group(cfg, "ablation", &w, events, members, |i| {
            let (config, _, depth) = &cells[i];
            format!("depth/{config}-d{depth}/{}", w.name())
        })
    });
    cells
        .into_iter()
        .enumerate()
        .map(|(i, (config, _, depth))| {
            let mut report = AccuracyReport::default();
            for reports in &per_workload {
                report.merge(&reports[i]);
            }
            DepthPoint {
                config,
                depth,
                report,
            }
        })
        .collect()
}

/// The window sweep's cells: a baseline and a VictPref AMB on a core
/// with each window of [`WINDOWS`].
#[must_use]
pub fn window_cells() -> Vec<(CpuConfig, Arch)> {
    let victpref = Arch::new(Family::Amb(AmbPolicy::VictPref));
    WINDOWS
        .iter()
        .flat_map(|&window| {
            let cpu = CpuConfig {
                window,
                ..CpuConfig::paper_default()
            };
            [(cpu, Arch::BASELINE), (cpu, victpref)]
        })
        .collect()
}

/// One pass per workload feeds every cell of the CPU sweep `sweep`,
/// each labelled `<sweep>/<cell>/<workload>` with `cell` naming the
/// cell. Returns each workload's reports in cell order.
fn cpu_sweep(
    cfg: &RunConfig,
    events: usize,
    sweep: &str,
    cells: &[(CpuConfig, Arch)],
    cell: impl Fn(&(CpuConfig, Arch)) -> String + Sync,
) -> Vec<Vec<CpuReport>> {
    cfg.par_map(suite(), |w| {
        let label = |i: usize| format!("{sweep}/{}/{}", cell(&cells[i]), w.name());
        let trace = crate::trace(&w, events);
        let group = || format!("{sweep}/{}", w.name());
        let runs = crate::replay_cpu(cfg, "ablation", group, trace, cells, label);
        runs.into_iter().map(|(report, _)| report).collect()
    })
}

/// The window sweep: every window cell, labelled
/// `window/w<W>/<spec>/<workload>`.
fn window_sweep(cfg: &RunConfig, events: usize) -> Vec<WindowPoint> {
    let runs = cpu_sweep(cfg, events, "window", &window_cells(), |(cpu, arch)| {
        format!("w{}/{arch}", cpu.window)
    });
    WINDOWS
        .iter()
        .enumerate()
        .map(|(k, &window)| {
            let mut ipc_sum = 0.0;
            let mut mean = GeoMean::default();
            for reports in &runs {
                let (base, victpref) = (reports[2 * k], reports[2 * k + 1]);
                ipc_sum += base.ipc();
                mean.push(victpref.speedup_over(&base));
            }
            WindowPoint {
                window,
                baseline_ipc: ipc_sum / runs.len() as f64,
                victpref_speedup: mean.mean(),
            }
        })
        .collect()
}

/// The buffer sweep's cells: the no-buffer baseline, then a VicPreExc
/// AMB at each size of [`BUFFERS`], on the paper's core.
#[must_use]
pub fn buffer_cells() -> Vec<(CpuConfig, Arch)> {
    let amb = Arch::new(Family::Amb(AmbPolicy::VicPreExc));
    let sized = BUFFERS.map(|entries| amb.with_entries(entries).expect("an AMB has a buffer"));
    let cpu = CpuConfig::paper_default();
    [Arch::BASELINE]
        .into_iter()
        .chain(sized)
        .map(|arch| (cpu, arch))
        .collect()
}

/// The buffer sweep: every buffer cell, labelled
/// `buffer/<spec>/<workload>`.
fn buffer_sweep(cfg: &RunConfig, events: usize) -> Vec<BufferPoint> {
    let runs = cpu_sweep(cfg, events, "buffer", &buffer_cells(), |(_, arch)| {
        arch.to_string()
    });
    BUFFERS
        .iter()
        .enumerate()
        .map(|(k, &entries)| {
            let mut mean = GeoMean::default();
            for reports in &runs {
                mean.push(reports[k + 1].speedup_over(&reports[0]));
            }
            BufferPoint {
                entries,
                speedup: mean.mean(),
            }
        })
        .collect()
}

/// Trace events the three ablations simulate: the depth sweep (one
/// pass per configuration × depth × workload), and every window and
/// buffer cell per workload.
#[must_use]
pub fn simulated_events(events: usize) -> u64 {
    let depth = fig1::configurations().len() * DEPTHS.len() * full_suite().len();
    let cpu = (window_cells().len() + buffer_cells().len()) * suite().len();
    ((depth + cpu) * events) as u64
}

/// Runs all three ablations.
#[must_use]
pub fn run(cfg: &RunConfig, events: usize) -> Ablation {
    Ablation {
        depths: depth_sweep(cfg, events),
        windows: window_sweep(cfg, events),
        buffers: buffer_sweep(cfg, events),
        events,
    }
}

impl std::fmt::Display for Ablation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "Ablation A: shadow-directory depth (multiple evicted tags per set, paper §3) ({} events/workload)\n",
            self.events
        )?;
        let mut t = Table::new(vec![
            "config".into(),
            "depth".into(),
            "conflict acc%".into(),
            "capacity acc%".into(),
        ]);
        for p in &self.depths {
            t.row(vec![
                p.config.clone(),
                p.depth.to_string(),
                pct(p.report.conflict.value()),
                pct(p.report.capacity.value()),
            ]);
        }
        write!(f, "{t}")?;

        writeln!(
            f,
            "\nAblation B: CPU instruction window (DESIGN.md choice: 32)\n"
        )?;
        let mut t = Table::new(vec![
            "window".into(),
            "baseline IPC".into(),
            "VictPref speedup".into(),
        ]);
        for p in &self.windows {
            t.row(vec![
                p.window.to_string(),
                format!("{:.3}", p.baseline_ipc),
                speedup(p.victpref_speedup),
            ]);
        }
        write!(f, "{t}")?;

        writeln!(f, "\nAblation C: AMB buffer size (VicPreExc)\n")?;
        let mut t = Table::new(vec!["entries".into(), "speedup".into()]);
        for p in &self.buffers {
            t.row(vec![p.entries.to_string(), speedup(p.speedup)]);
        }
        write!(f, "{t}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deeper_directories_only_help_conflict_accuracy() {
        let points = depth_sweep(&RunConfig::default(), 4_000);
        // Within each configuration, conflict accuracy is
        // non-decreasing in depth (a superset of tags can only match
        // more).
        for config in points
            .iter()
            .map(|p| p.config.clone())
            .collect::<std::collections::BTreeSet<_>>()
        {
            let series: Vec<&DepthPoint> = points.iter().filter(|p| p.config == config).collect();
            for pair in series.windows(2) {
                assert!(
                    pair[1].report.conflict.value() >= pair[0].report.conflict.value() - 0.01,
                    "{config}: depth {} -> {} dropped conflict accuracy",
                    pair[0].depth,
                    pair[1].depth
                );
            }
        }
    }

    #[test]
    fn smaller_windows_hide_less_latency() {
        let points = window_sweep(&RunConfig::default(), 5_000);
        let first = points.first().unwrap();
        let last = points.last().unwrap();
        assert!(
            last.baseline_ipc > first.baseline_ipc,
            "IPC must grow with window"
        );
    }

    #[test]
    fn display_renders() {
        let a = run(&RunConfig::default(), 2_000);
        let s = a.to_string();
        assert!(s.contains("Ablation A"));
        assert!(s.contains("Ablation C"));
    }
}
