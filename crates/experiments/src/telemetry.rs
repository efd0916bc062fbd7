//! Throughput telemetry for the repro pipeline.
//!
//! Every figure driver is timed by the `repro` harness; this module
//! holds the workspace's one wall clock ([`Stopwatch`] and the span
//! clock [`trace_clock_ns`]), the per-figure [`FigureBench`] records,
//! and the [`BenchReport`] written as `BENCH_repro.json` by `repro
//! --bench-json` so successive PRs can track the pipeline's
//! events/sec trajectory. A figure's event count is its
//! [`crate::cli::Target::simulated_events`] formula; the drivers
//! attribute the same events to their spans
//! (`sim_core::span::add_events`).
//!
//! Timing never touches experiment *output*: tables go to stdout and
//! stay byte-identical run to run; telemetry goes to stderr and the
//! JSON file. The JSON is hand-rolled (the workspace builds offline,
//! with no serde_json) against the stable schema documented in
//! EXPERIMENTS.md §"Runtime & throughput".

use std::fmt::Write as _;

use trace_gen::arena::ArenaStats;

/// A monotonic wall-clock stopwatch for harness timing.
///
/// This module is the one place the workspace reads the host clock
/// (`simlint`'s `wallclock` rule enforces it): simulation logic keeps
/// its own time in `sim_core::cycle`, and anything wall-clock-derived
/// flows only into stderr telemetry and the bench JSON — never into
/// experiment output.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch(std::time::Instant);

impl Stopwatch {
    /// Starts timing now.
    #[must_use]
    pub fn start() -> Self {
        Stopwatch(std::time::Instant::now())
    }

    /// Seconds elapsed since [`Stopwatch::start`], clamped at zero.
    ///
    /// `Instant` promises monotonicity, but several platforms have
    /// shipped clocks that run backwards across cores or suspends;
    /// `Instant::elapsed` panics (or, historically, underflowed) on
    /// such a read. A stopwatch that only feeds telemetry must never
    /// take a sweep down with it, so a non-monotonic read reports
    /// `0.0` instead.
    #[must_use]
    pub fn elapsed_seconds(&self) -> f64 {
        std::time::Instant::now()
            .checked_duration_since(self.0)
            .unwrap_or_default()
            .as_secs_f64()
    }
}

/// The nanosecond clock a real-clock run's spans record through (its
/// `sim_core::span::Trace`): monotonic nanoseconds since the first
/// read, clamped at zero like [`Stopwatch::elapsed_seconds`]. Keeping
/// the `Instant` reads here preserves the `wallclock` lint's
/// invariant that this module is the workspace's only clock site.
#[must_use]
pub fn trace_clock_ns() -> u64 {
    use std::sync::OnceLock;
    static EPOCH: OnceLock<std::time::Instant> = OnceLock::new();
    let epoch = *EPOCH.get_or_init(std::time::Instant::now);
    u64::try_from(
        std::time::Instant::now()
            .checked_duration_since(epoch)
            .unwrap_or_default()
            .as_nanos(),
    )
    .unwrap_or(u64::MAX)
}

/// One figure driver's measured run.
#[derive(Debug, Clone)]
pub struct FigureBench {
    /// Target name (`fig1`, …, `ablation`).
    pub name: &'static str,
    /// Wall time of the driver's pass, seconds. Figures that share
    /// one pass (fig1 and fig2, run together) each report that whole
    /// pass, as figures that run concurrently each report their
    /// overlapping spans: the per-figure times can then add up to more
    /// than the run's total.
    pub wall_seconds: f64,
    /// Trace events the driver simulated (cells × events/workload).
    pub events: u64,
}

impl FigureBench {
    /// One driver's measurement.
    #[must_use]
    pub fn ok(name: &'static str, wall_seconds: f64, events: u64) -> Self {
        FigureBench {
            name,
            wall_seconds,
            events,
        }
    }

    /// Simulated events per wall second.
    #[must_use]
    pub fn events_per_sec(&self) -> f64 {
        if self.wall_seconds > 0.0 {
            self.events as f64 / self.wall_seconds
        } else {
            0.0
        }
    }

    /// The stderr progress line the harness prints.
    #[must_use]
    pub fn summary_line(&self) -> String {
        format!(
            "[bench] {:<8} {:>8.2}s  {:>8} events/s  ({} events)",
            self.name,
            self.wall_seconds,
            si_rate(self.events_per_sec()),
            self.events
        )
    }
}

/// The full machine-readable run record.
#[derive(Debug, Clone)]
pub struct BenchReport {
    /// Worker threads the run resolved to (an explicit `--threads`
    /// cap, or the machine's core count when unconstrained). Always
    /// the count actually used, never a placeholder.
    pub threads: usize,
    /// `--events` per workload.
    pub events_per_workload: usize,
    /// Per-figure measurements, in run order.
    pub figures: Vec<FigureBench>,
    /// Wall time of the whole harness run, seconds (includes overlap
    /// between figures, so it can be less than the sum of the
    /// per-figure times when figures run concurrently).
    pub total_wall_seconds: f64,
}

impl BenchReport {
    /// Total events across all figures.
    #[must_use]
    pub fn total_events(&self) -> u64 {
        self.figures.iter().map(|f| f.events).sum()
    }

    /// Aggregate events per wall second.
    #[must_use]
    pub fn total_events_per_sec(&self) -> f64 {
        if self.total_wall_seconds > 0.0 {
            self.total_events() as f64 / self.total_wall_seconds
        } else {
            0.0
        }
    }

    /// Renders the report as the `BENCH_repro.json` document.
    ///
    /// Schema (`bench-repro/2`): see EXPERIMENTS.md §"Runtime &
    /// throughput" for field semantics. Version 2 added the per-figure
    /// `degraded` / `resumed` fields; they always read `false`, and the
    /// next schema version drops them. Nothing is materialized, so the
    /// `arena` object reads zero.
    #[must_use]
    pub fn to_json(&self) -> String {
        self.to_json_with_arena(&ArenaStats::default())
    }

    /// [`Self::to_json`] with explicit `arena` counters, which the
    /// benchmark harness's parser tests feed.
    #[must_use]
    pub fn to_json_with_arena(&self, arena: &ArenaStats) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(
            out,
            "  \"schema\": \"{}\",",
            sim_core::registry::SCHEMA_BENCH
        );
        let _ = writeln!(out, "  \"threads\": {},", self.threads);
        let _ = writeln!(
            out,
            "  \"events_per_workload\": {},",
            self.events_per_workload
        );
        out.push_str("  \"figures\": [\n");
        for (i, f) in self.figures.iter().enumerate() {
            let comma = if i + 1 < self.figures.len() { "," } else { "" };
            let _ = writeln!(
                out,
                "    {{\"name\": {}, \"wall_seconds\": {}, \"events\": {}, \"events_per_sec\": {}, \"degraded\": false, \"resumed\": false}}{comma}",
                json_string(f.name),
                json_f64(f.wall_seconds),
                f.events,
                json_f64(f.events_per_sec()),
            );
        }
        out.push_str("  ],\n");
        let _ = writeln!(
            out,
            "  \"total\": {{\"wall_seconds\": {}, \"events\": {}, \"events_per_sec\": {}}},",
            json_f64(self.total_wall_seconds),
            self.total_events(),
            json_f64(self.total_events_per_sec()),
        );
        let _ = writeln!(
            out,
            "  \"arena\": {{\"traces\": {}, \"resident_events\": {}, \"replay_hits\": {}, \"materializations\": {}}}",
            arena.traces, arena.resident_events, arena.hits, arena.misses,
        );
        out.push_str("}\n");
        out
    }
}

/// Formats a rate as a short SI string (`28.1M`, `950k`).
fn si_rate(rate: f64) -> String {
    if rate >= 1e9 {
        format!("{:.2}G", rate / 1e9)
    } else if rate >= 1e6 {
        format!("{:.1}M", rate / 1e6)
    } else if rate >= 1e3 {
        format!("{:.0}k", rate / 1e3)
    } else {
        format!("{rate:.0}")
    }
}

/// A finite f64 as a JSON number (6 significant decimals).
pub(crate) fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.6}")
    } else {
        "0".to_owned()
    }
}

/// A JSON string literal with the mandatory escapes.
pub(crate) fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates_and_lines_render() {
        let f = FigureBench::ok("fig1", 2.0, 50_000_000);
        assert!((f.events_per_sec() - 25_000_000.0).abs() < 1e-6);
        assert!(f.summary_line().contains("fig1"));
        assert!(f.summary_line().contains("25.0M"));
        let zero = FigureBench::ok("z", 0.0, 5);
        assert_eq!(zero.events_per_sec(), 0.0);
    }

    #[test]
    fn json_is_well_formed_and_balanced() {
        let report = BenchReport {
            threads: 4,
            events_per_workload: 1000,
            figures: vec![
                FigureBench::ok("fig1", 1.5, 72_000),
                FigureBench::ok("fig3", 0.5, 60_000),
            ],
            total_wall_seconds: 2.0,
        };
        let json = report.to_json();
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "balanced braces:\n{json}"
        );
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert!(json.contains("\"schema\": \"bench-repro/2\""));
        assert!(json.contains("\"degraded\": false"));
        assert!(json.contains("\"resumed\": false"));
        assert!(json.contains("\"events\": 132000"));
        assert!(json.contains("\"threads\": 4"));
        // No trailing commas before closers.
        assert!(!json.contains(",\n  ]") && !json.contains(",\n}"));
    }

    #[test]
    fn stopwatch_clamps_non_monotonic_reads_to_zero() {
        // A stopwatch "started" in the future models a clock that
        // stepped backwards between start() and elapsed_seconds().
        let future = Stopwatch(std::time::Instant::now() + std::time::Duration::from_secs(3600));
        assert_eq!(future.elapsed_seconds(), 0.0);
        // And a normal stopwatch still measures forward time.
        let now = Stopwatch::start();
        assert!(now.elapsed_seconds() >= 0.0);
    }

    #[test]
    fn trace_clock_is_monotonic_from_zero() {
        let a = trace_clock_ns();
        let b = trace_clock_ns();
        assert!(b >= a);
    }

    #[test]
    fn json_string_escapes() {
        assert_eq!(json_string("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(json_string("x\ny"), "\"x\\u000ay\"");
    }
}
