//! Every CPU-model figure cell is an [`Arch`] that `sim` reruns.
//!
//! * **Round trip.** Every `sim --list-archs` spec and every cell of
//!   fig3–fig6, §5.4 and the window and buffer sweeps prints as a spec
//!   that parses back to the same value.
//! * **Labels.** Every probe label those drivers write is
//!   `[window/w<W>/ | buffer/]<spec>/<workload>` with a canonical spec.
//! * **Differential.** For one cell per figure, the suite speedup
//!   computed from `sim` runs of the cell's spec and of its baseline's
//!   spec equals the figure's own number, bit for bit.

use std::process::Command;

use experiments::arch::Arch;
use experiments::cli::Target;
use experiments::probe::ProbeMode;
use experiments::{ablation, fig3, fig4, fig5, fig6, sec54, RunConfig};
use sim_core::stats::GeoMean;

const EVENTS: usize = 2_000;

/// Every figure cell, with the window its core runs at.
fn figure_cells() -> Vec<(Arch, u64)> {
    let paper = cpu_model::CpuConfig::paper_default().window;
    let mut cells: Vec<(Arch, u64)> = [
        fig3::cells(),
        fig4::cells(),
        fig5::cells(),
        fig6::cells(),
        sec54::cells(),
    ]
    .concat()
    .into_iter()
    .map(|arch| (arch, paper))
    .collect();
    let sweeps = [ablation::window_cells(), ablation::buffer_cells()].concat();
    cells.extend(sweeps.into_iter().map(|(cpu, arch)| (arch, cpu.window)));
    cells
}

#[test]
fn every_listed_and_figure_spec_round_trips() {
    let listed = Arch::all().map(|arch| (arch, 0));
    for (arch, _) in listed.chain(figure_cells()) {
        let spec = arch.to_string();
        assert_eq!(spec.parse::<Arch>(), Ok(arch), "`{spec}`");
    }
}

#[test]
fn fig4_cells_run_on_the_slow_bus() {
    let specs: Vec<String> = fig4::cells().iter().map(Arch::to_string).collect();
    assert_eq!(
        specs,
        [
            "baseline,bus=slow",
            "prefetch:none,bus=slow",
            "prefetch:in,bus=slow",
            "prefetch:out,bus=slow",
            "prefetch:and,bus=slow",
            "prefetch:or,bus=slow",
        ]
    );
}

#[test]
fn every_cpu_cell_label_names_a_canonical_spec() {
    let cfg = RunConfig::new(1).with_probe(ProbeMode::Epoch(500));
    let targets = [
        Target::Fig3,
        Target::Fig4,
        Target::Fig5,
        Target::Sec54,
        Target::Fig6,
        Target::Ablation,
    ];
    for target in targets {
        let _ = target.run(&cfg, 500);
    }
    let mut labels = 0;
    for record in cfg.drain().cells {
        let label = &record.cell;
        let (cell, workload) = label.rsplit_once('/').expect("<cell>/<workload>");
        assert!(workloads::by_name(workload).is_some(), "{label}");
        let spec = if record.target != "ablation" {
            cell
        } else if let Some(rest) = cell.strip_prefix("window/w") {
            let (window, spec) = rest.split_once('/').expect("window/w<W>/<spec>");
            assert!(window.parse::<u64>().is_ok(), "{label}");
            spec
        } else if let Some(spec) = cell.strip_prefix("buffer/") {
            spec
        } else {
            assert!(cell.starts_with("depth/"), "{label}");
            continue;
        };
        let arch: Arch = spec.parse().unwrap_or_else(|e| panic!("{label}: {e}"));
        assert_eq!(arch.to_string(), spec, "{label}: spec not canonical");
        labels += 1;
    }
    assert_eq!(labels, figure_cells().len() * workloads::suite().len());
}

/// `sim`'s cycle count for `spec` on `workload` at [`EVENTS`].
fn sim_cycles(spec: &str, workload: &str, window: Option<u64>) -> u64 {
    let mut sim = Command::new(env!("CARGO_BIN_EXE_sim"));
    sim.args(["--arch", spec, "--workload", workload]);
    sim.args(["--events", &EVENTS.to_string()]);
    if let Some(window) = window {
        sim.args(["--window", &window.to_string()]);
    }
    let out = sim.output().expect("sim runs");
    assert!(
        out.status.success(),
        "sim --arch {spec}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8");
    stdout
        .lines()
        .find_map(|line| line.strip_prefix("cycles       : "))
        .and_then(|cycles| cycles.parse().ok())
        .unwrap_or_else(|| panic!("no cycle count in:\n{stdout}"))
}

/// The suite-geomean speedup of `spec` over `base`, from `sim` runs.
fn sim_speedup(spec: &str, base: &str, window: Option<u64>) -> f64 {
    let mut mean = GeoMean::default();
    for w in workloads::suite() {
        let cycles = sim_cycles(spec, w.name(), window);
        mean.push(sim_cycles(base, w.name(), window) as f64 / cycles as f64);
    }
    mean.mean()
}

fn cfg() -> RunConfig {
    RunConfig::new(1)
}

#[test]
fn fig3_cell_matches_sim() {
    let fig = fig3::run(&cfg(), EVENTS);
    assert_eq!(fig3::cells()[4].to_string(), "victim:both");
    assert_eq!(
        sim_speedup("victim:both", "baseline", None),
        fig.policies[3].mean_speedup
    );
}

#[test]
fn fig4_cell_matches_sim() {
    let fig = fig4::run(&cfg(), EVENTS);
    assert_eq!(
        sim_speedup("prefetch:in,bus=slow", "baseline,bus=slow", None),
        fig.strategies[1].mean_speedup
    );
}

#[test]
fn fig5_cell_matches_sim() {
    let fig = fig5::run(&cfg(), EVENTS);
    assert_eq!(fig5::cells()[4].to_string(), "exclusion:capacity");
    assert_eq!(
        sim_speedup("exclusion:capacity", "baseline", None),
        fig.policies[3].mean_speedup
    );
}

#[test]
fn fig6_cell_matches_sim() {
    let fig = fig6::run(&cfg(), EVENTS);
    let result = fig
        .result(amb::AmbPolicy::VicPreExc, 16)
        .expect("VicPreExc-16");
    assert_eq!(
        sim_speedup("amb:vicpreexc,entries=16", "baseline", None),
        result.mean_speedup
    );
}

#[test]
fn sec54_cell_matches_sim() {
    let sec = sec54::run(&cfg(), EVENTS);
    assert_eq!(
        sim_speedup("pseudo:mct", "pseudo:lru", None),
        sec.mean_speedups.0
    );
}

#[test]
fn window_and_buffer_sweep_cells_match_sim() {
    let ablation = ablation::run(&cfg(), EVENTS);
    let w8 = &ablation.windows[0];
    assert_eq!(w8.window, 8);
    assert_eq!(
        sim_speedup("amb:victpref", "baseline", Some(8)),
        w8.victpref_speedup
    );
    let e2 = &ablation.buffers[0];
    assert_eq!(e2.entries, 2);
    assert_eq!(
        sim_speedup("amb:vicpreexc,entries=2", "baseline", None),
        e2.speedup
    );
}
