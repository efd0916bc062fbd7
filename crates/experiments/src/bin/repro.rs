//! The reproduction harness: regenerates every table and figure of
//! the paper's evaluation.
//!
//! ```text
//! repro [--events N] [--threads N] [--bench-json PATH] [--stream]
//!       [--probe epoch:N|raw] [--probe-out PATH]
//!       [--trace-out PATH [--trace-format jsonl|chrome] [--trace-logical-clock]]
//!       [--mrc [--mrc-sample R] [--mrc-out PATH]] [TARGET ...]
//! ```
//!
//! Independent figures run concurrently through the same deterministic
//! scheduler the figures use internally, so the rendered tables are
//! byte-identical at any thread count: each target's report is
//! buffered and printed in request order once all targets finish.
//! Throughput telemetry goes to stderr (and, with `--bench-json`, to a
//! machine-readable `BENCH_repro.json`) — never to stdout.
//!
//! Failure handling (see EXPERIMENTS.md §"Failure handling"): a cell
//! that panics fails the run with its own message and a nonzero exit;
//! a whole run at paper scale takes seconds, so a rerun is the
//! recovery. Output files are written with a few bounded retries
//! (`experiments::ioutil`).

use std::env;
use std::io::{self, Write};
use std::path::Path;
use std::process::ExitCode;

use experiments::cli::{self, Target};
use experiments::ioutil;
use experiments::telemetry::{BenchReport, FigureBench, Stopwatch};
use experiments::tracing::{self, MetricsSnapshot, TraceFormat};
use experiments::RunHeader;

fn usage() -> ExitCode {
    eprintln!(
        "usage: repro [--events N] [--threads N] [--bench-json PATH] \
         [--stream] [--probe epoch:N|raw] [--probe-out PATH] \
         [--trace-out PATH] [--trace-format jsonl|chrome] [--trace-logical-clock] \
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
         --mrc            run the miss-ratio-curve family (alone, or after the\n\
         \u{20}                listed targets): per-workload LRU stack-distance\n\
         \u{20}                curves plus the MCT capacity cross-check\n\
         --mrc-sample R   SHARDS spatial sampling at rate R in (0,1] instead of\n\
         \u{20}                the exact engine (O(sampled lines) memory)\n\
         --mrc-out P      mrc-repro/1 JSONL path (default MRC_repro.jsonl);\n\
         \u{20}                inspect with `obs mrc P`\n\
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

/// Writes `path` with `render`, retrying transient I/O errors (see
/// `ioutil::write_with_retry`); a failure is reported on stderr.
fn write_file(path: &Path, render: impl FnMut(&mut dyn Write) -> io::Result<()>) -> bool {
    let written = ioutil::write_with_retry(path, render);
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

    let events = opts.events;

    // Figure-level parallelism: independent targets overlap on the
    // same scheduler the per-figure cell loops use. Reports are
    // buffered (order-preserving) and printed afterwards, so stdout is
    // byte-identical to a serial run.
    let total_start = Stopwatch::start();
    let outcomes = sim_core::span::scope(
        cfg.trace(),
        sim_core::span::ScopeKind::Sweep,
        "sweep_repro",
        "repro",
        String::new,
        || {
            cfg.par_map(opts.targets.clone(), |target: Target| {
                let start = Stopwatch::start();
                let rendered = target.run(&cfg, events);
                let bench = FigureBench::ok(
                    target.name(),
                    start.elapsed_seconds(),
                    target.simulated_events(events),
                );
                (rendered, bench)
            })
        },
    );
    let (mut rendered_all, mut figures): (Vec<String>, Vec<FigureBench>) =
        outcomes.into_iter().unzip();

    // The MRC family rides along after the targets: it streams its
    // traces like the accuracy figures but is not a Target, so it runs
    // once the sweep proper has settled.
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
        if !write_file(path, |out| out.write_all(report.to_json().as_bytes())) {
            return ExitCode::FAILURE;
        }
        eprintln!("[bench] wrote {}", path.display());
    }

    if let (Some(run), Some(path)) = (&mrc_run, &opts.mrc_out) {
        if !write_file(path, |out| out.write_all(run.to_jsonl().as_bytes())) {
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

    let records = cfg.drain();
    let header = RunHeader {
        events_per_workload: events,
        targets: opts.targets.iter().map(|t| t.name()).collect(),
    };
    if let (Some(mode), Some(path)) = (opts.probe, &opts.probe_out) {
        if !write_file(path, |out| {
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
        let metrics = MetricsSnapshot::capture();
        if !write_file(path, |out| match opts.trace_format {
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

    ExitCode::SUCCESS
}
