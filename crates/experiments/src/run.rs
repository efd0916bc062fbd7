//! The run value: every setting one reproduction run threads through
//! its drivers, plus the one collector its span scopes and probe
//! records go to, and the header both of its JSONL documents open
//! with.
//!
//! [`crate::cli::Options::run_config`] builds one [`RunConfig`] per
//! `repro` invocation, and every driver, group pass and scheduler call
//! takes it by reference. Nothing here is process-wide: two runs in
//! one process (two tests, say) each see only their own threads,
//! probe mode, trace and fault plan, and collect only their own
//! records.
//!
//! The collector is a [`sim_core::span::Trace`]: a probe record is
//! attached to the `cell_run` scope that produced it and commits when
//! that scope closes, as the scope's spans do. A probed run that is
//! not traced collects on the zero clock and discards its spans.
//!
//! The scheduler retries whole items — a figure in the sweep, a cell
//! or a group of cells inside a figure — so [`RunConfig::par_map`]
//! and [`RunConfig::try_par_map`] run each item attempt on its own
//! `RunConfig`: the same settings and fault counters, but a child
//! trace that is absorbed into the caller's only when the attempt
//! returns. An attempt that unwinds drops its records with it, so a
//! retried item contributes exactly its successful attempt's records
//! and a degraded one none.

use std::io::{self, Write};
use std::sync::Arc;

use sim_core::fault::{FaultPlan, FaultState};
use sim_core::parallel::CellFailure;
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
    /// Shared by every attempt of the run.
    fault: Arc<FaultState>,
}

impl Default for RunConfig {
    /// All available cores, nothing probed, traced or faulted.
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
            fault: Arc::default(),
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

    /// Injects faults under `plan`, with fresh counters.
    #[must_use]
    pub fn with_fault(mut self, plan: FaultPlan) -> Self {
        self.fault = Arc::new(FaultState::new(Some(plan)));
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

    /// The fault plan and its arrival counters.
    #[must_use]
    pub fn fault(&self) -> &FaultState {
        &self.fault
    }

    /// Maps `f` over `items` on this run's threads and fault plan (see
    /// [`sim_core::parallel::par_map`]), each item attempt on its own
    /// child trace.
    ///
    /// # Panics
    ///
    /// Panics if any item fails past its retry budget.
    pub fn par_map<T, R, F>(&self, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send + Clone,
        R: Send,
        F: Fn(&RunConfig, T) -> R + Sync,
    {
        sim_core::parallel::par_map(self.threads, &self.fault, items, |item| {
            self.attempt(&f, item)
        })
    }

    /// The recovering form of [`RunConfig::par_map`] (see
    /// [`sim_core::parallel::try_par_map`]): an item that fails past
    /// its retry budget comes back as its [`CellFailure`] and
    /// contributes no records.
    pub fn try_par_map<T, R, F>(&self, items: Vec<T>, f: F) -> Vec<Result<R, CellFailure>>
    where
        T: Send + Clone,
        R: Send,
        F: Fn(&RunConfig, T) -> R + Sync,
    {
        sim_core::parallel::try_par_map(self.threads, &self.fault, items, |item| {
            self.attempt(&f, item)
        })
    }

    /// Runs one attempt at `item` on the same settings and fault
    /// counters but a child trace, and absorbs that trace into this
    /// run's only when `f` returns. An attempt that unwinds drops its
    /// records with it.
    fn attempt<T, R>(&self, f: &impl Fn(&RunConfig, T) -> R, item: T) -> R {
        let attempt = RunConfig {
            threads: self.threads,
            probe: self.probe,
            trace: self.trace.as_ref().map(Trace::child),
            fault: Arc::clone(&self.fault),
        };
        let out = f(&attempt, item);
        if let (Some(trace), Some(child)) = (&self.trace, attempt.trace) {
            trace.absorb(child);
        }
        out
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
