//! The reproduction harness: regenerates every table and figure of
//! the paper's evaluation.
//!
//! ```text
//! repro [--events N] [--threads N] [--bench-json PATH] [--stream]
//!       [--probe epoch:N|raw] [--probe-out PATH]
//!       [--trace-out PATH [--trace-format jsonl|chrome] [--trace-logical-clock]]
//!       [--fault SEED:RATE [--fault-persistent]]
//!       [--checkpoint PATH [--resume] [--crash-after N]] [TARGET ...]
//! ```
//!
//! Independent figures run concurrently through the same deterministic
//! scheduler the figures use internally, so the rendered tables are
//! byte-identical at any thread count: each target's report is
//! buffered and printed in request order once all targets finish.
//! Throughput telemetry goes to stderr (and, with `--bench-json`, to a
//! machine-readable `BENCH_repro.json`) — never to stdout.
//!
//! Robustness (see EXPERIMENTS.md §"Robustness"): a failing cell is
//! retried under `sim_core::fault`'s deterministic backoff and, if it
//! keeps failing, recorded as *degraded* (placeholder on stdout,
//! `"degraded": true` in the bench JSON, exit code 1) instead of
//! aborting the sweep. `--checkpoint` persists each completed cell as
//! `fault-repro/1` JSONL and `--resume` reprints those cells without
//! re-running them, so a killed sweep continues where it died.
//! `--fault SEED:RATE` injects seeded faults for chaos testing;
//! `--crash-after N` simulates the kill.

use std::env;
use std::io::{self, Write};
use std::path::Path;
use std::process::ExitCode;

use experiments::checkpoint::{self, CellEntry, CellStatus, CheckpointWriter};
use experiments::cli::{self, Target};
use experiments::ioutil;
use experiments::telemetry::{BenchReport, FigureBench, Stopwatch};
use experiments::tracing::{self, MetricsSnapshot, TraceFormat};
use experiments::{RunConfig, RunHeader};

/// Exit code of a `--crash-after` simulated kill (distinct from the
/// degraded-run failure exit).
const CRASH_EXIT: i32 = 3;

fn usage() -> ExitCode {
    eprintln!(
        "usage: repro [--events N] [--threads N] [--bench-json PATH] \
         [--stream] [--probe epoch:N|raw] [--probe-out PATH] \
         [--trace-out PATH] [--trace-format jsonl|chrome] [--trace-logical-clock] \
         [--fault SEED:RATE] [--fault-persistent] \
         [--checkpoint PATH] [--resume] [--crash-after N] \
         [--mrc] [--mrc-sample R] [--mrc-out PATH] \
         [fig1|fig2|fig3|tab1|fig4|fig5|sec54|sec56|fig6|fig7|ablation|all]\n\
         \n\
         --events N       trace events per workload (default {})\n\
         --threads N      worker-thread cap (1 = fully serial; default: all cores)\n\
         --bench-json P   write machine-readable throughput telemetry to P\n\
         --stream         accepted and ignored: every driver streams its traces\n\
         --probe MODE     collect per-cell probe data: epoch:N (fold into\n\
         \u{20}                epochs of N accesses) or raw (every event; small runs)\n\
         --probe-out P    probe JSONL path (default OBS_repro.jsonl); inspect\n\
         \u{20}                with `obs summarize P`\n\
         --trace-out P    write a span trace of the sweep to P; inspect with\n\
         \u{20}                `obs timeline|flame|phases P`\n\
         --trace-format F trace output format: jsonl (trace-repro/1, default)\n\
         \u{20}                or chrome (chrome://tracing / Perfetto JSON)\n\
         --trace-logical-clock  zero durations so the trace is byte-identical\n\
         \u{20}                at any --threads (determinism tests)\n\
         --fault S:R      inject seeded faults: seed S, rate R in [0,1]\n\
         --fault-persistent  injected faults defeat every retry (degrades cells)\n\
         --mrc            run the miss-ratio-curve family (alone, or after the\n\
         \u{20}                listed targets): per-workload LRU stack-distance\n\
         \u{20}                curves plus the MCT capacity cross-check\n\
         --mrc-sample R   SHARDS spatial sampling at rate R in (0,1] instead of\n\
         \u{20}                the exact engine (O(sampled lines) memory)\n\
         --mrc-out P      mrc-repro/1 JSONL path (default MRC_repro.jsonl);\n\
         \u{20}                inspect with `obs mrc P`\n\
         --checkpoint P   persist completed cells to P as fault-repro/1 JSONL\n\
         --resume         skip cells already completed in the checkpoint\n\
         --crash-after N  exit({CRASH_EXIT}) after N cells are checkpointed (chaos tests)\n\
         \n\
         fig1   MCT classification accuracy (4 cache configs)\n\
         fig2   accuracy vs saved tag bits\n\
         fig3   victim-cache policies (includes Table 1)\n\
         tab1   alias for fig3\n\
         fig4   next-line prefetch filters (slow bus)\n\
         fig5   cache-exclusion policies\n\
         sec54  pseudo-associative cache comparison\n\
         sec56  co-scheduling on a shared cache (SMT)\n\
         fig6   adaptive miss buffer (includes Figure 7)\n\
         fig7   alias for fig6\n\
         ablation  shadow-directory depth / CPU window / buffer size sweeps\n\
         all    everything (default)",
        experiments::DEFAULT_EVENTS,
    );
    ExitCode::FAILURE
}

/// Writes `path` with `render` under the run's I/O retry budget (see
/// `ioutil::write_with_retry`); a failure is reported on stderr.
fn write_file(
    cfg: &RunConfig,
    path: &Path,
    render: impl FnMut(&mut dyn Write) -> io::Result<()>,
) -> bool {
    let written = ioutil::write_with_retry(cfg.fault(), path, render);
    if let Err(err) = &written {
        eprintln!("repro: cannot write {}: {err}", path.display());
    }
    written.is_ok()
}

fn main() -> ExitCode {
    let opts = match cli::parse_args(env::args().skip(1)) {
        Ok(opts) => opts,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("repro: {msg}\n");
            }
            return usage();
        }
    };
    let cfg = opts.run_config();
    if opts.trace_out.is_some() {
        // The trace's lanes start at worker 1.
        sim_core::parallel::reset_worker_tallies();
    }
    if let Some(plan) = cfg.fault().plan() {
        sim_core::fault::silence_injected_panics();
        eprintln!(
            "[fault] plan installed: seed {}, rate {}{}",
            plan.seed,
            plan.rate,
            if plan.persist { ", persistent" } else { "" },
        );
    }

    let events = opts.events;
    let target_names: Vec<&'static str> = opts.targets.iter().map(|t| t.name()).collect();

    // Checkpoint bookkeeping: cells completed by a previous run are
    // reprinted from the checkpoint instead of re-running.
    let mut resumed: Vec<CellEntry> = Vec::new();
    if opts.resume {
        if let Some(path) = &opts.checkpoint {
            let loaded = checkpoint::load(path, events);
            for warning in &loaded.warnings {
                eprintln!("[ckpt] {warning}");
            }
            resumed = loaded
                .cells
                .into_iter()
                .filter(|c| c.status == CellStatus::Ok && target_names.contains(&c.target.as_str()))
                .collect();
            if !resumed.is_empty() {
                eprintln!(
                    "[ckpt] resuming: {} of {} cell(s) restored from {}",
                    resumed.len(),
                    target_names.len(),
                    path.display(),
                );
            }
        }
    }
    let writer = match &opts.checkpoint {
        Some(path) => {
            match CheckpointWriter::with_preserved(path, events, &target_names, &resumed) {
                Ok(w) => Some(w),
                Err(err) => {
                    eprintln!("repro: cannot open checkpoint {}: {err}", path.display());
                    return ExitCode::FAILURE;
                }
            }
        }
        None => None,
    };
    let is_resumed = |target: Target| resumed.iter().any(|c| c.target == target.name());
    let pending: Vec<Target> = opts
        .targets
        .iter()
        .copied()
        .filter(|t| !is_resumed(*t))
        .collect();

    // Figure-level parallelism: independent targets overlap on the
    // same scheduler the per-figure cell loops use. Reports are
    // buffered (order-preserving) and printed afterwards, so stdout is
    // byte-identical to a serial run. try_par_map isolates cell
    // panics: a target that exhausts its retry budget comes back as a
    // failure and degrades instead of aborting the others.
    //
    // The checkpoint is best-effort: losing a line costs a re-run on
    // resume, never the current sweep.
    let record = |entry: CellEntry| -> Option<u64> {
        let recorded = writer.as_ref()?.record(cfg.fault(), &entry);
        recorded
            .map_err(|err| eprintln!("[ckpt] cannot record {}: {err}", entry.target))
            .ok()
    };
    let total_start = Stopwatch::start();
    let outcomes = sim_core::span::scope(
        cfg.trace(),
        sim_core::span::ScopeKind::Sweep,
        "sweep_repro",
        "repro",
        String::new,
        || {
            cfg.try_par_map(pending.clone(), |run, target: Target| {
                let start = Stopwatch::start();
                let rendered = target.run(run, events);
                let bench = FigureBench::ok(
                    target.name(),
                    start.elapsed_seconds(),
                    target.simulated_events(events),
                );
                let count = record(CellEntry {
                    target: target.name().to_owned(),
                    status: CellStatus::Ok,
                    events: bench.events,
                    rendered: rendered.clone(),
                    message: None,
                });
                if let Some(count) = count.filter(|&c| opts.crash_after.is_some_and(|n| c >= n)) {
                    eprintln!("[ckpt] --crash-after {count}: simulating a kill");
                    std::process::exit(CRASH_EXIT);
                }
                (rendered, bench)
            })
        },
    );

    // Merge fresh, resumed, and degraded cells back into request
    // order.
    let mut fresh = outcomes.into_iter();
    let mut figures: Vec<FigureBench> = Vec::with_capacity(opts.targets.len());
    let mut rendered_all: Vec<String> = Vec::with_capacity(opts.targets.len());
    let mut failures: Vec<String> = Vec::new();
    for target in &opts.targets {
        if let Some(cell) = resumed.iter().find(|c| c.target == target.name()) {
            rendered_all.push(cell.rendered.clone());
            figures.push(FigureBench {
                resumed: true,
                ..FigureBench::ok(target.name(), 0.0, cell.events)
            });
            continue;
        }
        match fresh.next().expect("one outcome per pending target") {
            Ok((rendered, bench)) => {
                rendered_all.push(rendered);
                figures.push(bench);
            }
            Err(failure) => {
                let placeholder = format!("{}: degraded ({})", target.name(), failure.message);
                record(CellEntry {
                    target: target.name().to_owned(),
                    status: CellStatus::Degraded,
                    events: 0,
                    rendered: placeholder.clone(),
                    message: Some(failure.message.clone()),
                });
                rendered_all.push(placeholder);
                figures.push(FigureBench {
                    degraded: true,
                    ..FigureBench::ok(target.name(), 0.0, 0)
                });
                failures.push(format!(
                    "{} degraded after {} attempt(s): {}",
                    target.name(),
                    failure.attempts,
                    failure.message,
                ));
            }
        }
    }

    // The MRC family rides along after the targets: it streams its
    // traces like the accuracy figures but is not a checkpointable
    // Target, so it runs once the sweep proper has settled.
    let mut mrc_run = None;
    if opts.mrc {
        let start = Stopwatch::start();
        let run = sim_core::span::scope(
            cfg.trace(),
            sim_core::span::ScopeKind::Figure,
            "fig_mrc",
            "mrc",
            String::new,
            || experiments::mrc::run(&cfg, events, opts.mrc_sample),
        );
        rendered_all.push(run.to_string());
        figures.push(FigureBench::ok(
            "mrc",
            start.elapsed_seconds(),
            experiments::mrc::simulated_events(events),
        ));
        mrc_run = Some(run);
    }
    // Taken after the MRC family, whose events `figures` counts too.
    let total_wall_seconds = total_start.elapsed_seconds();

    for rendered in &rendered_all {
        println!("{rendered}\n");
    }

    // Record the worker count the run actually used: with no --threads
    // flag the run resolves to the machine's core count, and the bench
    // JSON must say so rather than a placeholder 0.
    let report = BenchReport {
        threads: cfg.threads(),
        events_per_workload: events,
        figures,
        total_wall_seconds,
    };
    for figure in &report.figures {
        eprintln!("{}", figure.summary_line());
    }
    eprintln!(
        "[bench] total    {:>8.2}s  {:.1}M events/s  ({} events, {} worker threads)",
        report.total_wall_seconds,
        report.total_events_per_sec() / 1e6,
        report.total_events(),
        cfg.threads(),
    );

    if let Some(path) = &opts.bench_json {
        if !write_file(&cfg, path, |out| out.write_all(report.to_json().as_bytes())) {
            return ExitCode::FAILURE;
        }
        eprintln!("[bench] wrote {}", path.display());
    }

    if let (Some(run), Some(path)) = (&mrc_run, &opts.mrc_out) {
        if !write_file(&cfg, path, |out| out.write_all(run.to_jsonl().as_bytes())) {
            return ExitCode::FAILURE;
        }
        eprintln!(
            "[mrc] wrote {} ({} engine, {} curves, {} cross-check cells)",
            path.display(),
            run.mode(),
            run.curves.len(),
            run.cells.len(),
        );
    }

    // Only committed attempts reach the collector: a retried figure or
    // cell contributes its final attempt's scopes and probe records, a
    // degraded one none.
    let records = cfg.drain();
    let header = RunHeader {
        events_per_workload: events,
        targets: target_names,
    };
    if let (Some(mode), Some(path)) = (opts.probe, &opts.probe_out) {
        if !write_file(&cfg, path, |out| {
            experiments::probe::write_jsonl(&records.cells, mode, &header, out)
        }) {
            return ExitCode::FAILURE;
        }
        eprintln!(
            "[probe] wrote {} ({} cells, mode {})",
            path.display(),
            records.cells.len(),
            mode.name()
        );
    }

    if let Some(path) = &opts.trace_out {
        let (scopes, logical) = (&records.scopes, opts.trace_logical_clock);
        let metrics = MetricsSnapshot::capture(cfg.fault(), failures.len() as u64);
        if !write_file(&cfg, path, |out| match opts.trace_format {
            TraceFormat::Jsonl => {
                tracing::write_jsonl(scopes, logical, &header, Some(&metrics), out)
            }
            TraceFormat::Chrome => tracing::write_chrome(scopes, logical, out),
        }) {
            return ExitCode::FAILURE;
        }
        let spans: usize = scopes.iter().map(|r| r.spans.len()).sum();
        eprintln!(
            "[trace] wrote {} ({} scopes, {spans} spans, format {})",
            path.display(),
            scopes.len(),
            match opts.trace_format {
                TraceFormat::Jsonl => "jsonl",
                TraceFormat::Chrome => "chrome",
            },
        );
    }

    if cfg.fault().plan().is_some() {
        let stats = cfg.fault().stats();
        eprintln!(
            "[fault] injected {} fault(s), {} operation(s) exhausted retries, {} cell(s) degraded",
            stats.injected,
            stats.exhausted,
            failures.len(),
        );
    }
    if !failures.is_empty() {
        for failure in &failures {
            eprintln!("repro: {failure}");
        }
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
