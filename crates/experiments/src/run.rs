//! The run value: every setting one reproduction run threads through
//! its drivers, plus the one collector its span scopes and probe
//! records go to, and the header both of its JSONL documents open
//! with.
//!
//! [`crate::cli::Options::run_config`] builds one [`RunConfig`] per
//! `repro` invocation, and every driver, group pass and scheduler call
//! takes it by reference. Nothing here is process-wide: two runs in
//! one process (two tests, say) each see only their own threads,
//! probe mode and trace, and collect only their own records.
//!
//! The collector is a [`sim_core::span::Trace`]: a probe record is
//! attached to the `cell_run` scope that produced it and commits when
//! that scope closes, as the scope's spans do. A probed run that is
//! not traced collects on the zero clock and discards its spans.
//! [`RunConfig::par_map`] runs each item once, straight into this
//! collector; a panicking item fails the run.

use std::io::{self, Write};

use sim_core::span::{Clock, Records, Trace};

use crate::probe::ProbeMode;
use crate::telemetry::json_string;

/// One run's settings and collector, built with [`RunConfig::new`]
/// and the `with_*` builders.
#[derive(Debug)]
pub struct RunConfig {
    threads: usize,
    probe: Option<ProbeMode>,
    trace: Option<Trace>,
}

impl Default for RunConfig {
    /// All available cores, nothing probed or traced.
    fn default() -> Self {
        RunConfig::new(std::thread::available_parallelism().map_or(4, std::num::NonZeroUsize::get))
    }
}

impl RunConfig {
    /// A plain run on `threads` workers (at least 1).
    #[must_use]
    pub fn new(threads: usize) -> Self {
        RunConfig {
            threads: threads.max(1),
            probe: None,
            trace: None,
        }
    }

    /// Probes every cell under `mode`. An untraced run gets a trace on
    /// the zero clock to collect the records in.
    #[must_use]
    pub fn with_probe(mut self, mode: ProbeMode) -> Self {
        self.probe = Some(mode);
        self.trace
            .get_or_insert_with(|| Trace::new(crate::tracing::clock(true)));
        self
    }

    /// Traces the run, its spans reading `clock`.
    #[must_use]
    pub fn with_trace(mut self, clock: Clock) -> Self {
        self.trace = Some(Trace::new(clock));
        self
    }

    /// Worker threads every scheduler call may use (1 = the serial
    /// reference order).
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// What each cell's probe sink collects, when probing.
    #[must_use]
    pub fn probe(&self) -> Option<ProbeMode> {
        self.probe
    }

    /// Where span scopes and probe records go, when tracing or
    /// probing.
    #[must_use]
    pub fn trace(&self) -> Option<&Trace> {
        self.trace.as_ref()
    }

    /// Maps `f` over `items` on this run's threads (see
    /// [`sim_core::parallel::par_map`]). `f` uses the run it captures.
    ///
    /// # Panics
    ///
    /// Resumes the first panic an item raised.
    pub fn par_map<T, R, F>(&self, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(T) -> R + Sync,
    {
        sim_core::parallel::par_map(self.threads, items, f)
    }

    /// Takes every committed scope and probe record, in their
    /// deterministic order (see [`Trace::drain`]); empty when the run
    /// neither traces nor probes.
    #[must_use]
    pub fn drain(&self) -> Records {
        self.trace.as_ref().map(Trace::drain).unwrap_or_default()
    }
}

/// The run-level fields both of a run's JSONL documents
/// (`obs-repro/1` and `trace-repro/1`) carry on their first line.
#[derive(Debug, Clone)]
pub struct RunHeader {
    /// `--events` per workload.
    pub events_per_workload: usize,
    /// The requested targets, in request order.
    pub targets: Vec<&'static str>,
}

impl RunHeader {
    /// Writes a document's first line: its `schema`, the document's
    /// own `fields` (comma-separated `"key":value` pairs), then the
    /// run fields.
    ///
    /// # Errors
    ///
    /// Returns the first error `out` reports.
    pub fn write_line(&self, out: &mut dyn Write, schema: &str, fields: &str) -> io::Result<()> {
        write!(
            out,
            "{{\"schema\":\"{schema}\",{fields},\"events_per_workload\":{},\"targets\":[",
            self.events_per_workload
        )?;
        for (i, t) in self.targets.iter().enumerate() {
            if i > 0 {
                out.write_all(b",")?;
            }
            out.write_all(json_string(t).as_bytes())?;
        }
        out.write_all(b"]}\n")
    }
}
