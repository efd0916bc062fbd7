//! Argument parsing and the figure-target registry for the `repro`
//! harness.
//!
//! Lives in the library (rather than the binary) so the parser and the
//! per-figure event accounting are unit-testable and reusable by other
//! harnesses (benches, future services).

use std::path::PathBuf;

use crate::probe::ProbeMode;
use crate::tracing::TraceFormat;
use crate::RunConfig;

/// One runnable repro target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Target {
    /// Figure 1: MCT classification accuracy.
    Fig1,
    /// Figure 2: accuracy vs saved tag bits.
    Fig2,
    /// Figure 3 + Table 1: victim-cache policies.
    Fig3,
    /// Figure 4: next-line prefetch filters.
    Fig4,
    /// Figure 5: cache-exclusion policies.
    Fig5,
    /// §5.4: pseudo-associative cache.
    Sec54,
    /// §5.6: co-scheduling on a shared cache.
    Sec56,
    /// Figures 6 + 7: adaptive miss buffer.
    Fig6,
    /// Extension ablations: shadow depth, CPU window, buffer size.
    Ablation,
}

impl Target {
    /// All targets, in the paper's order — what `all` expands to.
    pub const ALL: [Target; 9] = [
        Target::Fig1,
        Target::Fig2,
        Target::Fig3,
        Target::Fig4,
        Target::Fig5,
        Target::Sec54,
        Target::Sec56,
        Target::Fig6,
        Target::Ablation,
    ];

    /// Canonical name (as printed in telemetry and `BENCH_repro.json`).
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            Target::Fig1 => "fig1",
            Target::Fig2 => "fig2",
            Target::Fig3 => "fig3",
            Target::Fig4 => "fig4",
            Target::Fig5 => "fig5",
            Target::Sec54 => "sec54",
            Target::Sec56 => "sec56",
            Target::Fig6 => "fig6",
            Target::Ablation => "ablation",
        }
    }

    /// Parses a target name, accepting the paper's aliases (`tab1` is
    /// part of the Figure 3 driver, `fig7` of the Figure 6 driver).
    #[must_use]
    pub fn parse(name: &str) -> Option<Target> {
        Some(match name {
            "fig1" => Target::Fig1,
            "fig2" => Target::Fig2,
            "fig3" | "tab1" => Target::Fig3,
            "fig4" => Target::Fig4,
            "fig5" => Target::Fig5,
            "sec54" => Target::Sec54,
            "sec56" => Target::Sec56,
            "fig6" | "fig7" => Target::Fig6,
            "ablation" => Target::Ablation,
            _ => return None,
        })
    }

    /// Runs the driver and renders its report exactly as `repro`
    /// prints it (one trailing newline added by the caller). Each arm
    /// opens a figure-level trace scope so span traces group a
    /// driver's cells under one `fig_*` root.
    #[must_use]
    pub fn run(self, cfg: &RunConfig, events: usize) -> String {
        use sim_core::span::{self, ScopeKind::Figure};
        let trace = cfg.trace();
        match self {
            Target::Fig1 => span::scope(trace, Figure, "fig_fig1", "fig1", String::new, || {
                crate::fig1::run(cfg, events).to_string()
            }),
            Target::Fig2 => span::scope(trace, Figure, "fig_fig2", "fig2", String::new, || {
                crate::fig2::run(cfg, events).to_string()
            }),
            Target::Fig3 => span::scope(trace, Figure, "fig_fig3", "fig3", String::new, || {
                crate::fig3::run(cfg, events).to_string()
            }),
            Target::Fig4 => span::scope(trace, Figure, "fig_fig4", "fig4", String::new, || {
                crate::fig4::run(cfg, events).to_string()
            }),
            Target::Fig5 => span::scope(trace, Figure, "fig_fig5", "fig5", String::new, || {
                crate::fig5::run(cfg, events).to_string()
            }),
            Target::Sec54 => span::scope(trace, Figure, "fig_sec54", "sec54", String::new, || {
                crate::sec54::run(cfg, events).to_string()
            }),
            Target::Sec56 => span::scope(trace, Figure, "fig_sec56", "sec56", String::new, || {
                crate::sec56::run(cfg, events).to_string()
            }),
            Target::Fig6 => span::scope(trace, Figure, "fig_fig6", "fig6", String::new, || {
                crate::fig6::run(cfg, events).to_string()
            }),
            Target::Ablation => span::scope(
                trace,
                Figure,
                "fig_ablation",
                "ablation",
                String::new,
                || crate::ablation::run(cfg, events).to_string(),
            ),
        }
    }

    /// Trace events the driver feeds its simulators for a given
    /// `--events` setting (cells × events). The formulas live next to
    /// each driver and are cross-checked against the events the
    /// driver's spans attribute by `tests/trace_determinism.rs`.
    #[must_use]
    pub fn simulated_events(self, events: usize) -> u64 {
        match self {
            Target::Fig1 => crate::fig1::simulated_events(events),
            Target::Fig2 => crate::fig2::simulated_events(events),
            Target::Fig3 => crate::fig3::simulated_events(events),
            Target::Fig4 => crate::fig4::simulated_events(events),
            Target::Fig5 => crate::fig5::simulated_events(events),
            Target::Sec54 => crate::sec54::simulated_events(events),
            Target::Sec56 => crate::sec56::simulated_events(events),
            Target::Fig6 => crate::fig6::simulated_events(events),
            Target::Ablation => crate::ablation::simulated_events(events),
        }
    }
}

/// Parsed `repro` invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct Options {
    /// Events per workload (strictly positive).
    pub events: usize,
    /// Worker-thread cap (`None` = all cores).
    pub threads: Option<usize>,
    /// Where to write the machine-readable bench report, if anywhere.
    pub bench_json: Option<PathBuf>,
    /// Probe mode (`--probe epoch:N` / `--probe raw`), if any.
    pub probe: Option<ProbeMode>,
    /// Where the probe JSONL goes (defaults to `OBS_repro.jsonl` when
    /// `--probe` is given).
    pub probe_out: Option<PathBuf>,
    /// Where the span trace goes (`--trace-out PATH`), if anywhere.
    pub trace_out: Option<PathBuf>,
    /// Trace output format (`--trace-format jsonl|chrome`).
    pub trace_format: TraceFormat,
    /// `--trace-logical-clock`: record spans with a constant-zero
    /// clock so the trace is byte-identical at any thread count.
    pub trace_logical_clock: bool,
    /// `--mrc`: run the miss-ratio-curve family after the targets.
    pub mrc: bool,
    /// `--mrc-sample R`: SHARDS sampling rate in `(0, 1]` (`None` =
    /// exact engine).
    pub mrc_sample: Option<f64>,
    /// Where the `mrc-repro/1` JSONL goes (defaults to
    /// `MRC_repro.jsonl` when `--mrc` is given).
    pub mrc_out: Option<PathBuf>,
    /// Targets to run, in request order, each once.
    pub targets: Vec<Target>,
}

impl Options {
    /// The run value these options describe, built once per
    /// invocation: `--threads` (or every available core), the probe
    /// mode, and a trace on the real or logical clock when
    /// `--trace-out` is given.
    #[must_use]
    pub fn run_config(&self) -> RunConfig {
        let mut cfg = self.threads.map_or_else(RunConfig::default, RunConfig::new);
        if let Some(mode) = self.probe {
            cfg = cfg.with_probe(mode);
        }
        if self.trace_out.is_some() {
            cfg = cfg.with_trace(crate::tracing::clock(self.trace_logical_clock));
        }
        cfg
    }
}

/// Parses `repro` arguments (without the program name).
///
/// Rejects non-positive or malformed `--events` explicitly — `--events
/// 0` used to slip through and silently run every experiment over
/// empty traces.
///
/// `--stream` is accepted and has no effect: every driver streams its
/// traces. Benchmark invocations still pass it.
///
/// A target named twice (`fig1 fig1`, `all fig1`, or an alias such as
/// `fig3 tab1`) runs once, at its first position.
pub fn parse_args<I>(args: I) -> Result<Options, String>
where
    I: IntoIterator<Item = String>,
{
    let mut events = crate::DEFAULT_EVENTS;
    let mut threads = None;
    let mut bench_json = None;
    let mut probe = None;
    let mut probe_out: Option<PathBuf> = None;
    let mut trace_out: Option<PathBuf> = None;
    let mut trace_format: Option<TraceFormat> = None;
    let mut trace_logical_clock = false;
    let mut mrc = false;
    let mut mrc_sample: Option<f64> = None;
    let mut mrc_out: Option<PathBuf> = None;
    let mut targets = Vec::new();
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--events" => {
                let value = args.next().ok_or("--events needs a value")?;
                let n: usize = value
                    .parse()
                    .map_err(|_| format!("--events needs a positive integer, got `{value}`"))?;
                if n == 0 {
                    return Err(
                        "--events 0 would run every experiment over an empty trace; \
                         pass a positive event count"
                            .to_owned(),
                    );
                }
                events = n;
            }
            "--threads" => {
                let value = args.next().ok_or("--threads needs a value")?;
                let n: usize = value
                    .parse()
                    .map_err(|_| format!("--threads needs a positive integer, got `{value}`"))?;
                if n == 0 {
                    return Err("--threads must be at least 1 (1 = serial)".to_owned());
                }
                threads = Some(n);
            }
            "--bench-json" => {
                let value = args.next().ok_or("--bench-json needs a path")?;
                bench_json = Some(PathBuf::from(value));
            }
            "--probe" => {
                let value = args.next().ok_or("--probe needs `epoch:N` or `raw`")?;
                probe = Some(parse_probe_mode(&value)?);
            }
            "--probe-out" => {
                let value = args.next().ok_or("--probe-out needs a path")?;
                probe_out = Some(PathBuf::from(value));
            }
            "--trace-out" => {
                let value = args.next().ok_or("--trace-out needs a path")?;
                trace_out = Some(PathBuf::from(value));
            }
            "--trace-format" => {
                let value = args
                    .next()
                    .ok_or("--trace-format needs `jsonl` or `chrome`")?;
                trace_format = Some(TraceFormat::parse(&value)?);
            }
            "--trace-logical-clock" => trace_logical_clock = true,
            // Accepted for compatibility and ignored: every driver
            // streams its traces.
            "--stream" => {}
            "--mrc" => mrc = true,
            "--mrc-sample" => {
                let value = args.next().ok_or("--mrc-sample needs a rate in (0, 1]")?;
                let rate: f64 = value
                    .parse()
                    .map_err(|_| format!("--mrc-sample needs a number in (0, 1], got `{value}`"))?;
                if !rate.is_finite() || rate <= 0.0 || rate > 1.0 {
                    return Err(format!("--mrc-sample must be within (0, 1], got `{value}`"));
                }
                mrc_sample = Some(rate);
            }
            "--mrc-out" => {
                let value = args.next().ok_or("--mrc-out needs a path")?;
                mrc_out = Some(PathBuf::from(value));
            }
            "--help" | "-h" => return Err(String::new()),
            "all" => targets.extend(Target::ALL),
            other if other.starts_with('-') => {
                return Err(format!("unknown flag: {other}"));
            }
            other => {
                let target =
                    Target::parse(other).ok_or_else(|| format!("unknown target: {other}"))?;
                targets.push(target);
            }
        }
    }
    // A bare `repro --mrc` runs only the MRC family; mixing it with
    // explicit targets (or `all`) appends it after them.
    if targets.is_empty() && !mrc {
        targets.extend(Target::ALL);
    }
    let mut unique = Vec::with_capacity(targets.len());
    for target in targets {
        if !unique.contains(&target) {
            unique.push(target);
        }
    }
    if !mrc {
        if mrc_sample.is_some() {
            return Err("--mrc-sample without --mrc; add `--mrc`".into());
        }
        if mrc_out.is_some() {
            return Err("--mrc-out without --mrc; add `--mrc`".into());
        }
    }
    if mrc && mrc_out.is_none() {
        mrc_out = Some(PathBuf::from("MRC_repro.jsonl"));
    }
    if probe_out.is_some() && probe.is_none() {
        return Err("--probe-out without --probe; add `--probe epoch:N` or `--probe raw`".into());
    }
    if probe.is_some() && probe_out.is_none() {
        probe_out = Some(PathBuf::from("OBS_repro.jsonl"));
    }
    if trace_out.is_none() {
        if trace_format.is_some() {
            return Err("--trace-format without --trace-out; add `--trace-out PATH`".into());
        }
        if trace_logical_clock {
            return Err("--trace-logical-clock without --trace-out; add `--trace-out PATH`".into());
        }
    }
    Ok(Options {
        events,
        threads,
        bench_json,
        probe,
        probe_out,
        trace_out,
        trace_format: trace_format.unwrap_or(TraceFormat::Jsonl),
        trace_logical_clock,
        mrc,
        mrc_sample,
        mrc_out,
        targets: unique,
    })
}

/// Parses a `--probe` value: `epoch:N` (N accesses per epoch) or
/// `raw`.
fn parse_probe_mode(value: &str) -> Result<ProbeMode, String> {
    if value == "raw" {
        return Ok(ProbeMode::Raw);
    }
    if let Some(n) = value.strip_prefix("epoch:") {
        let len: u64 = n
            .parse()
            .map_err(|_| format!("--probe epoch:N needs a positive integer, got `{n}`"))?;
        if len == 0 {
            return Err(
                "--probe epoch:0 would never close an epoch; pass a positive length".into(),
            );
        }
        return Ok(ProbeMode::Epoch(len));
    }
    Err(format!(
        "unknown probe mode `{value}` (expected `epoch:N` or `raw`)"
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Options, String> {
        parse_args(args.iter().map(|s| (*s).to_owned()))
    }

    #[test]
    fn defaults_to_all_targets() {
        let opts = parse(&[]).unwrap();
        assert_eq!(opts.events, crate::DEFAULT_EVENTS);
        assert_eq!(opts.targets, Target::ALL.to_vec());
        assert_eq!(opts.threads, None);
        assert_eq!(opts.bench_json, None);
        assert_eq!(opts.probe, None);
        assert_eq!(opts.probe_out, None);
        // `all` plus a target it already holds runs each target once.
        assert_eq!(
            parse(&["all", "fig1"]).unwrap().targets,
            Target::ALL.to_vec()
        );
    }

    #[test]
    fn accepts_stream_flag_as_a_no_op() {
        assert_eq!(
            parse(&["--stream", "fig1"]).unwrap(),
            parse(&["fig1"]).unwrap()
        );
    }

    #[test]
    fn rejects_zero_events() {
        let err = parse(&["--events", "0"]).unwrap_err();
        assert!(err.contains("empty trace"), "got: {err}");
    }

    #[test]
    fn rejects_malformed_events() {
        assert!(parse(&["--events", "many"]).is_err());
        assert!(parse(&["--events", "-5"]).is_err());
        assert!(parse(&["--events"]).is_err());
    }

    #[test]
    fn rejects_zero_threads_and_unknown_flags() {
        assert!(parse(&["--threads", "0"]).is_err());
        assert!(parse(&["--frobnicate"]).is_err());
        assert!(parse(&["fig9"]).is_err());
        for flag in [
            "--fault",
            "--fault-persistent",
            "--checkpoint",
            "--resume",
            "--crash-after",
        ] {
            let err = parse(&[flag, "1"]).unwrap_err();
            assert!(err.contains("unknown flag"), "{flag}: {err}");
        }
    }

    #[test]
    fn parses_full_invocation() {
        let opts = parse(&[
            "--events",
            "5000",
            "--threads",
            "3",
            "--bench-json",
            "out/BENCH_repro.json",
            "fig3",
            "fig7",
        ])
        .unwrap();
        assert_eq!(opts.events, 5000);
        assert_eq!(opts.threads, Some(3));
        assert_eq!(
            opts.bench_json.as_deref(),
            Some(std::path::Path::new("out/BENCH_repro.json"))
        );
        assert_eq!(opts.targets, vec![Target::Fig3, Target::Fig6]);
    }

    #[test]
    fn parses_probe_flags() {
        let opts = parse(&["--probe", "epoch:500", "fig1"]).unwrap();
        assert_eq!(opts.probe, Some(ProbeMode::Epoch(500)));
        // --probe-out defaults when --probe is given.
        assert_eq!(
            opts.probe_out.as_deref(),
            Some(std::path::Path::new("OBS_repro.jsonl"))
        );

        let opts = parse(&["--probe", "raw", "--probe-out", "out.jsonl"]).unwrap();
        assert_eq!(opts.probe, Some(ProbeMode::Raw));
        assert_eq!(
            opts.probe_out.as_deref(),
            Some(std::path::Path::new("out.jsonl"))
        );
    }

    #[test]
    fn rejects_bad_probe_flags() {
        assert!(parse(&["--probe", "epoch:0"]).is_err());
        assert!(parse(&["--probe", "epoch:many"]).is_err());
        assert!(parse(&["--probe", "sometimes"]).is_err());
        assert!(parse(&["--probe"]).is_err());
        let err = parse(&["--probe-out", "x.jsonl"]).unwrap_err();
        assert!(err.contains("--probe-out without --probe"), "{err}");
    }

    #[test]
    fn parses_trace_flags() {
        let opts = parse(&["--trace-out", "TRACE.jsonl", "fig1"]).unwrap();
        assert_eq!(
            opts.trace_out.as_deref(),
            Some(std::path::Path::new("TRACE.jsonl"))
        );
        assert_eq!(opts.trace_format, TraceFormat::Jsonl);
        assert!(!opts.trace_logical_clock);

        let opts = parse(&[
            "--trace-out",
            "t.json",
            "--trace-format",
            "chrome",
            "--trace-logical-clock",
        ])
        .unwrap();
        assert_eq!(opts.trace_format, TraceFormat::Chrome);
        assert!(opts.trace_logical_clock);

        // Defaults stay off.
        let opts = parse(&["fig1"]).unwrap();
        assert_eq!(opts.trace_out, None);
        assert_eq!(opts.trace_format, TraceFormat::Jsonl);
        assert!(!opts.trace_logical_clock);
    }

    #[test]
    fn rejects_bad_trace_flags() {
        assert!(parse(&["--trace-out"]).is_err());
        assert!(parse(&["--trace-out", "t.jsonl", "--trace-format", "xml"]).is_err());
        let err = parse(&["--trace-format", "jsonl"]).unwrap_err();
        assert!(err.contains("without --trace-out"), "{err}");
        let err = parse(&["--trace-logical-clock"]).unwrap_err();
        assert!(err.contains("without --trace-out"), "{err}");
    }

    #[test]
    fn parses_mrc_flags() {
        // Bare --mrc runs only the MRC family, with a default output
        // path and the exact engine.
        let opts = parse(&["--mrc"]).unwrap();
        assert!(opts.mrc);
        assert_eq!(opts.mrc_sample, None);
        assert_eq!(
            opts.mrc_out.as_deref(),
            Some(std::path::Path::new("MRC_repro.jsonl"))
        );
        assert!(opts.targets.is_empty());

        // Mixed with targets it rides along after them.
        let opts = parse(&["--mrc", "--mrc-sample", "0.01", "fig1"]).unwrap();
        assert_eq!(opts.targets, vec![Target::Fig1]);
        assert_eq!(opts.mrc_sample, Some(0.01));

        let opts = parse(&["--mrc", "--mrc-out", "out/curves.jsonl"]).unwrap();
        assert_eq!(
            opts.mrc_out.as_deref(),
            Some(std::path::Path::new("out/curves.jsonl"))
        );

        // Rate 1 is the exact engine spelled as a sample rate.
        assert_eq!(
            parse(&["--mrc", "--mrc-sample", "1.0"]).unwrap().mrc_sample,
            Some(1.0)
        );

        // Defaults stay off (and targets default to ALL).
        let opts = parse(&["fig1"]).unwrap();
        assert!(!opts.mrc);
        assert_eq!(opts.mrc_sample, None);
        assert_eq!(opts.mrc_out, None);
    }

    #[test]
    fn rejects_bad_mrc_flags() {
        assert!(parse(&["--mrc", "--mrc-sample", "0"]).is_err());
        assert!(parse(&["--mrc", "--mrc-sample", "-0.5"]).is_err());
        assert!(parse(&["--mrc", "--mrc-sample", "1.5"]).is_err());
        assert!(parse(&["--mrc", "--mrc-sample", "NaN"]).is_err());
        assert!(parse(&["--mrc", "--mrc-sample", "lots"]).is_err());
        assert!(parse(&["--mrc", "--mrc-sample"]).is_err());
        let err = parse(&["--mrc-sample", "0.1"]).unwrap_err();
        assert!(err.contains("without --mrc"), "{err}");
        let err = parse(&["--mrc-out", "m.jsonl"]).unwrap_err();
        assert!(err.contains("without --mrc"), "{err}");
    }

    #[test]
    fn aliases_resolve() {
        assert_eq!(Target::parse("tab1"), Some(Target::Fig3));
        assert_eq!(Target::parse("fig7"), Some(Target::Fig6));
        // A target and its alias name one target, which runs once.
        assert_eq!(parse(&["fig3", "tab1"]).unwrap().targets, [Target::Fig3]);
        for t in Target::ALL {
            assert_eq!(
                Target::parse(t.name()),
                Some(t),
                "{} must round-trip",
                t.name()
            );
        }
    }

    #[test]
    fn event_formulas_scale_linearly() {
        for t in Target::ALL {
            let one = t.simulated_events(1_000);
            let two = t.simulated_events(2_000);
            assert_eq!(two, one * 2, "{}", t.name());
            assert!(one > 0, "{}", t.name());
        }
    }
}
