//! The run value: every setting one reproduction run threads through
//! its drivers, plus the collector its probe records and span scopes
//! go to.
//!
//! [`crate::cli::Options::run_config`] builds one [`RunConfig`] per
//! `repro` invocation, and every driver, group pass and scheduler call
//! takes it by reference. Nothing here is process-wide: two runs in
//! one process (two tests, say) each see only their own threads,
//! probe mode, trace and fault plan, and collect only their own
//! records.
//!
//! The scheduler retries whole items — a figure in the sweep, a cell
//! or a group of cells inside a figure — so [`RunConfig::par_map`]
//! and [`RunConfig::try_par_map`] run each item attempt on its own
//! `RunConfig`: the same settings and fault counters, but a fresh
//! collector that is merged into the caller's only when the attempt
//! returns. An attempt that unwinds drops its records with it, so a
//! retried item contributes exactly its successful attempt's records
//! and a degraded one none.

use std::sync::{Arc, Mutex, PoisonError};

use sim_core::fault::{FaultPlan, FaultState};
use sim_core::parallel::CellFailure;
use sim_core::span::{Clock, Trace};

use crate::probe::{CellRecord, ProbeMode};

/// One run's settings and record collector, built with
/// [`RunConfig::new`] and the `with_*` builders.
#[derive(Debug)]
pub struct RunConfig {
    threads: usize,
    probe: Option<ProbeMode>,
    trace: Option<Trace>,
    /// Shared by every attempt of the run.
    fault: Arc<FaultState>,
    /// Probe records of finished cells.
    cells: Mutex<Vec<CellRecord>>,
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
            cells: Mutex::default(),
        }
    }

    /// Probes every cell under `mode`.
    #[must_use]
    pub fn with_probe(mut self, mode: ProbeMode) -> Self {
        self.probe = Some(mode);
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

    /// Where span scopes go, when tracing.
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
    /// collector.
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
    /// counters but an empty collector, and merges that collector
    /// into this run's only when `f` returns. An attempt that unwinds
    /// drops its records with it.
    fn attempt<T, R>(&self, f: &impl Fn(&RunConfig, T) -> R, item: T) -> R {
        let attempt = RunConfig {
            threads: self.threads,
            probe: self.probe,
            trace: self.trace.as_ref().map(Trace::child),
            fault: Arc::clone(&self.fault),
            cells: Mutex::default(),
        };
        let out = f(&attempt, item);
        self.lock_cells().append(&mut attempt.lock_cells());
        if let (Some(trace), Some(child)) = (&self.trace, attempt.trace) {
            trace.absorb(child);
        }
        out
    }

    /// Takes every committed probe record, sorted by `(target, cell)`
    /// — the deterministic serialization order.
    #[must_use]
    pub fn take_cells(&self) -> Vec<CellRecord> {
        let mut records = std::mem::take(&mut *self.lock_cells());
        records.sort_by(|a, b| a.target.cmp(b.target).then_with(|| a.cell.cmp(&b.cell)));
        records
    }

    pub(crate) fn lock_cells(&self) -> std::sync::MutexGuard<'_, Vec<CellRecord>> {
        self.cells.lock().unwrap_or_else(PoisonError::into_inner)
    }
}
