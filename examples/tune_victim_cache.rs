//! Tune a victim cache with miss-classification filters on a chosen
//! workload — a one-workload slice of Figure 3 / Table 1, plus a
//! buffer-size sweep the paper doesn't show.
//!
//! Run with: `cargo run --release --example tune_victim_cache -- turb3d`

use conflict_miss_repro::cache_model::CacheGeometry;
use conflict_miss_repro::cpu_model::{BaselineSystem, CpuConfig, OooModel, Plumbing};
use conflict_miss_repro::victim_cache::{VictimConfig, VictimPolicy, VictimSystem};
use conflict_miss_repro::workloads;

const EVENTS: usize = 300_000;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let name = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "turb3d".to_owned());
    let Some(workload) = workloads::by_name(&name) else {
        eprintln!("unknown workload '{name}'");
        std::process::exit(1);
    };
    let cpu = OooModel::new(CpuConfig::paper_default());
    let trace = || {
        let mut src = workload.source(1);
        std::iter::from_fn(move || Some(src.next_event())).take(EVENTS)
    };

    let mut baseline = BaselineSystem::paper_default()?;
    let base = cpu.run(&mut baseline, trace());
    println!("workload {name}: baseline IPC {:.3}\n", base.ipc());

    println!(
        "{:<14} {:>8} {:>7} {:>7} {:>7} {:>7} {:>7}",
        "policy", "speedup", "D$ HR%", "V$ HR%", "total%", "swap%", "fill%"
    );
    for policy in VictimPolicy::ALL {
        let mut sys = VictimSystem::paper_default(VictimConfig::new(policy))?;
        let report = cpu.run(&mut sys, trace());
        let s = sys.stats();
        println!(
            "{:<14} {:>8.3} {:>7.1} {:>7.1} {:>7.1} {:>7.2} {:>7.2}",
            policy.to_string(),
            report.speedup_over(&base),
            100.0 * s.d_hit_rate(),
            100.0 * s.victim_hit_rate(),
            100.0 * s.total_hit_rate(),
            100.0 * s.swap_rate(),
            100.0 * s.fill_rate(),
        );
    }

    // Extension: how big does the buffer need to be? (The paper fixes
    // 8 entries; the filters matter more when it is small.)
    println!("\nbuffer-size sweep (filter both):");
    println!("{:<8} {:>8} {:>8}", "entries", "speedup", "total%");
    for entries in [2usize, 4, 8, 16, 32] {
        let cfg = VictimConfig::new(VictimPolicy::FilterBoth).with_entries(entries);
        let mut sys = VictimSystem::new(
            cfg,
            CacheGeometry::new(16 * 1024, 1, 64)?,
            Plumbing::paper_default()?,
        );
        let report = cpu.run(&mut sys, trace());
        println!(
            "{:<8} {:>8.3} {:>8.1}",
            entries,
            report.speedup_over(&base),
            100.0 * sys.stats().total_hit_rate()
        );
    }
    Ok(())
}
