//! `perf`: the end-to-end benchmark of `repro`'s unobserved path, plus
//! a traced per-layer ladder.
//!
//! Each timed run is a fresh `repro --threads 1` child with no tracing;
//! `perf` measures its wall clock and peak RSS from outside and checks
//! its outputs against golden digests. The traced part makes one
//! untimed `--threads 2` run per workload (its outputs must match the
//! same digests) and then runs the layer ladder. See README.md.

mod catalog;
mod child;
mod ladder;
mod span;
mod stats;

use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use experiments::telemetry::Stopwatch;

use crate::catalog::{BenchWorkload, MetricDef};
use crate::stats::Summary;

const USAGE: &str = "\
usage: perf [--seed S] [--reps N] [--seconds T] [--trace 0|1] [--workload NAME]...

  --seed S         seed of the input traces perf generates itself (default 1)
  --reps N         timed repro runs and set-up passes per workload (default 5)
  --seconds T      instead of --reps: five set-up passes, then timed runs
                   while one more still fits in about T seconds
  --trace 0|1      0: end-to-end metrics only; 1: per-layer metrics only
                   (default: both)
  --workload NAME  accuracy, accuracy_stream, timing, observed or mrc
                   (repeatable; default: all)";

/// Timed runs (and set-up passes) per workload without `--seconds`;
/// set-up passes per workload with it.
const DEFAULT_REPS: usize = 5;

/// Worker threads of the untimed run that checks thread-count
/// invariance.
const INVARIANCE_THREADS: usize = 2;

const MIB: f64 = 1024.0 * 1024.0;

#[derive(Debug)]
struct Options {
    seed: u64,
    reps: usize,
    seconds: Option<f64>,
    trace: Option<bool>,
    workloads: Vec<&'static BenchWorkload>,
}

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Options, String> {
    let mut opts = Options {
        seed: 1,
        reps: DEFAULT_REPS,
        seconds: None,
        trace: None,
        workloads: Vec::new(),
    };
    let mut args = args.into_iter();
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--seed" => {
                let v = value()?;
                opts.seed = v
                    .parse()
                    .map_err(|_| format!("--seed: `{v}` is not a u64"))?;
            }
            "--reps" => {
                let v = value()?;
                opts.reps = v
                    .parse()
                    .ok()
                    .filter(|&n| n > 0)
                    .ok_or(format!("--reps: `{v}` is not a positive integer"))?;
            }
            "--seconds" => {
                let v = value()?;
                let secs = v
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or(format!("--seconds: `{v}` is not a positive number"))?;
                opts.seconds = Some(secs);
            }
            "--trace" => {
                opts.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace: `{v}` is not 0 or 1")),
                });
            }
            "--workload" => {
                let v = value()?;
                let w = catalog::workload(&v).ok_or(format!("--workload: unknown `{v}`"))?;
                if !opts.workloads.iter().any(|seen| seen.name == w.name) {
                    opts.workloads.push(w);
                }
            }
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    if opts.workloads.is_empty() {
        opts.workloads = catalog::WORKLOADS.iter().collect();
    }
    Ok(opts)
}

/// The `repro` executable next to this one.
fn locate_repro() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate perf itself: {e}"))?;
    let repro = exe.with_file_name(format!("repro{}", std::env::consts::EXE_SUFFIX));
    if repro.is_file() {
        Ok(repro)
    } else {
        Err(format!(
            "no repro next to {exe}. Build it into the same target directory, from the \
             repository root:\n  CARGO_TARGET_DIR={dir} cargo build --release -p experiments \
             --bin repro\nor run `bash perf/run.sh`, which builds both.",
            exe = exe.display(),
            dir = exe
                .parent()
                .and_then(Path::parent)
                .map_or_else(|| "<target dir>".into(), |d| d.display().to_string()),
        ))
    }
}

/// Everything one invocation measured, in print order.
#[derive(Debug, Default)]
struct Report {
    attempted: u64,
    failed: u64,
    /// (reported name, definition, summary)
    metrics: Vec<(String, &'static MetricDef, Summary)>,
}

impl Report {
    /// Records catalog metric `name`; `workload` qualifies the reported
    /// name when one invocation reports several workloads.
    fn push(&mut self, workload: Option<&str>, name: &str, samples: &[f64]) {
        let def = catalog::metric(name).expect("perf reports only catalog metrics");
        let reported = match workload {
            Some(w) => format!("{w}.{name}"),
            None => name.to_owned(),
        };
        self.metrics.push((reported, def, Summary::of(samples)));
    }

    /// Runs one child, counting it, and logs the outcome to stderr.
    fn attempt(
        &mut self,
        repro: &Path,
        runs_dir: &Path,
        w: &BenchWorkload,
        threads: usize,
    ) -> Option<child::Rep> {
        self.attempted += 1;
        match child::run(repro, runs_dir, w, threads) {
            Ok(rep) => {
                eprintln!(
                    "perf: {} --threads {threads}: {:.2} s, {:.2}M events/s, {:.1} MiB",
                    w.name,
                    rep.wall_s,
                    rep.events as f64 / rep.wall_s / 1e6,
                    rep.peak_rss_mib,
                );
                Some(rep)
            }
            Err(reason) => {
                self.failed += 1;
                eprintln!("perf: {} --threads {threads} failed: {reason}", w.name);
                None
            }
        }
    }

    /// Prints one line per metric, then the failure count, then the
    /// whole report as one JSON line.
    fn print(&self) {
        for (name, def, s) in &self.metrics {
            let bound = def
                .bound
                .map_or(String::new(), |b| format!(", bound {:.0}%", b * 100.0));
            println!(
                "{name:<46} {:>16.4} [{:.4}, {:.4}] n={} {} ({} is better{bound})",
                s.median,
                s.q1,
                s.q3,
                s.n,
                def.unit,
                def.better.as_str(),
            );
        }
        println!(
            "{:<46} {:>16.4} ({} of {} runs failed)",
            "fail_ratio",
            self.failed as f64 / self.attempted.max(1) as f64,
            self.failed,
            self.attempted
        );
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, def, s)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    json_number(s.median),
                    def.unit
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted > 0 && self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
    }
}

/// `v` with all its digits; JSON has no spelling for NaN or infinity.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

/// In-process time to generate `w`'s input traces, as an arena run
/// materializes them before its cells replay.
fn setup_seconds(w: &BenchWorkload, seed: u64) -> f64 {
    let clock = Stopwatch::start();
    for (workload, trace_seed) in w.inputs.traces(seed) {
        black_box(ladder::generate(workload, trace_seed, w.events));
    }
    clock.elapsed_seconds()
}

/// The untraced part: set-up passes, then timed `--threads 1` runs.
fn end_to_end(
    opts: &Options,
    repro: &Path,
    runs_dir: &Path,
    w: &BenchWorkload,
    prefix: Option<&str>,
    report: &mut Report,
) {
    let clock = Stopwatch::start();
    let setup_reps = if opts.seconds.is_some() {
        DEFAULT_REPS
    } else {
        opts.reps
    };
    let setup: Vec<f64> = (0..setup_reps)
        .map(|_| setup_seconds(w, opts.seed))
        .collect();
    let mut rates = Vec::new();
    let mut rss = Vec::new();
    let mut runs = 0;
    loop {
        let run_clock = Stopwatch::start();
        if let Some(rep) = report.attempt(repro, runs_dir, w, 1) {
            rates.push(rep.events as f64 / rep.wall_s);
            rss.push(rep.peak_rss_mib);
        }
        runs += 1;
        // With a time budget, start another run only if one more of
        // the same length still fits.
        let another = match opts.seconds {
            Some(budget) => clock.elapsed_seconds() + run_clock.elapsed_seconds() <= budget,
            None => runs < opts.reps,
        };
        if !another {
            break;
        }
    }
    report.push(prefix, "events_per_s", &rates);
    report.push(prefix, "peak_rss_mib", &rss);
    report.push(prefix, "setup_s", &setup);
}

/// The per-layer numbers a traced `repro` run reports; zero when it
/// failed.
fn child_layer_metrics(rep: Option<&child::Rep>) -> [(&'static str, f64); 3] {
    let (probe_out, arena) = rep.map_or((0, Default::default()), |r| (r.probe_out_bytes, r.arena));
    let replays = arena.replay_hits + arena.materializations;
    let reuse = if replays == 0 {
        0.0
    } else {
        arena.replay_hits as f64 / replays as f64
    };
    [
        ("probe.out_mib", probe_out as f64 / MIB),
        ("arena.resident_events", arena.resident_events as f64),
        ("arena.reuse_ratio", reuse),
    ]
}

fn main() -> ExitCode {
    let opts = match parse_args(std::env::args().skip(1)) {
        Ok(opts) => opts,
        Err(msg) => {
            eprintln!("perf: {msg}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let repro = match locate_repro() {
        Ok(path) => path,
        Err(msg) => {
            eprintln!("perf: {msg}");
            return ExitCode::from(2);
        }
    };
    let runs_dir = repro.with_file_name("perf-runs");
    let mut report = Report::default();
    for w in &opts.workloads {
        let prefix = (opts.workloads.len() > 1).then_some(w.name);
        if opts.trace != Some(true) {
            end_to_end(&opts, &repro, &runs_dir, w, prefix, &mut report);
        }
        if opts.trace != Some(false) {
            // Untimed, at a second thread count: its outputs must match
            // the same digests as the serial runs.
            let rep = report.attempt(&repro, &runs_dir, w, INVARIANCE_THREADS);
            for (name, value) in child_layer_metrics(rep.as_ref()) {
                report.push(prefix, name, &[value]);
            }
        }
    }
    if opts.trace != Some(false) {
        for (name, value) in ladder::run(opts.seed, ladder::Scale::of_workloads()) {
            report.push(None, name, &[value]);
        }
    }
    // Each run removed its own directory; this removes the then-empty
    // root.
    let _ = std::fs::remove_dir(&runs_dir);
    report.print();
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Options, String> {
        parse_args(args.iter().map(|s| (*s).to_owned()))
    }

    #[test]
    fn defaults_cover_every_workload() {
        let opts = parse(&[]).unwrap();
        assert_eq!(
            (opts.seed, opts.reps, opts.seconds, opts.trace),
            (1, 5, None, None)
        );
        assert_eq!(opts.workloads.len(), catalog::WORKLOADS.len());
    }

    #[test]
    fn seconds_mode_arguments_parse() {
        let opts = parse(&[
            "--workload",
            "mrc",
            "--seed",
            "9",
            "--seconds",
            "20",
            "--trace",
            "0",
        ])
        .unwrap();
        assert_eq!(opts.seed, 9);
        assert_eq!(opts.seconds, Some(20.0));
        assert_eq!(opts.trace, Some(false));
        let names: Vec<&str> = opts.workloads.iter().map(|w| w.name).collect();
        assert_eq!(names, ["mrc"]);
    }

    #[test]
    fn ladder_and_child_emit_exactly_the_per_layer_catalog() {
        let emitted: Vec<&str> = catalog::ladder_metrics()
            .iter()
            .map(|m| m.name)
            .chain(child_layer_metrics(None).iter().map(|(name, _)| *name))
            .collect();
        let catalog: Vec<&str> = catalog::PER_LAYER.iter().map(|m| m.name).collect();
        assert_eq!(emitted, catalog);
    }

    #[test]
    fn bad_arguments_are_rejected() {
        for bad in [
            &["--reps", "0"][..],
            &["--seconds", "-1"],
            &["--trace", "2"],
            &["--workload", "nope"],
            &["--seed"],
            &["--frobnicate"],
        ] {
            assert!(parse(bad).is_err(), "{bad:?}");
        }
    }
}
