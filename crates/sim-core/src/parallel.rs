//! Deterministic fork/join parallelism for independent simulation
//! cells.
//!
//! Every experiment in this workspace iterates *independent* work
//! items — (workload, policy) cells, tag-width sweep points, whole
//! figures — where each item owns its simulator state and RNG, so
//! fanning items across cores cannot change any result. [`par_map`]
//! is the one scheduler for all of them: an **atomic-index chunked
//! scheduler** on scoped threads. A shared atomic counter hands out
//! chunks of consecutive item indices; workers claim a chunk with one
//! `fetch_add`, process it, and come back for more. Compared with a
//! `Mutex<Vec>` work queue this removes the contended lock from the
//! steady state (one atomic RMW per *chunk*, not one lock round-trip
//! per *item*) while still load-balancing uneven items.
//!
//! Results are returned **in input order** regardless of which thread
//! computed what, so callers observe exactly the serial semantics —
//! the basis for the repo's byte-identical serial-vs-parallel
//! guarantee.
//!
//! # Panic isolation and retry
//!
//! A panicking cell no longer wedges or kills the sweep. Each item
//! runs under [`std::panic::catch_unwind`]; a panic burns one
//! *attempt* and — when the run's [`FaultState`] carries a plan — the
//! item is retried (with the plan's deterministic backoff) up to the
//! plan's budget. Items that exhaust the budget come back as
//! [`CellFailure`]s from [`try_par_map`], with every *other* item's
//! result intact and computed exactly once. The infallible [`par_map`]
//! keeps its historical contract: any failed cell panics on the
//! caller's thread with the cell's own message. Without a fault plan
//! the budget is one attempt, so a real panic on a plain run still
//! fails fast.
//!
//! Retry sits *around* the cell closure, so a retried cell re-runs
//! from scratch — correct here because cells are pure functions of
//! their item (the same property that makes parallelism safe), and
//! injected worker faults fire *before* the closure so transient
//! chaos never double-runs a cell body. A caller whose items also
//! record side output (probe records, span scopes) must keep each
//! attempt's output apart and keep only a returning attempt's;
//! `experiments::RunConfig::par_map` does this.
//!
//! Every call names its worker count and its run's fault state; there
//! is no process-wide setting. A count of 1 runs inline on the
//! caller's thread with no spawns at all.
//!
//! # Examples
//!
//! ```
//! use sim_core::fault::FaultState;
//! use sim_core::parallel::par_map;
//!
//! let squares = par_map(4, &FaultState::default(), vec![1u64, 2, 3, 4], |x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16]);
//! ```

use std::any::Any;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

use crate::fault::{self, FaultState};
use crate::span;

/// One cell that kept failing until its retry budget ran out.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellFailure {
    /// The item's input-order index.
    pub index: usize,
    /// Attempts made (0 means the worker thread itself died and the
    /// cell never got to run).
    pub attempts: u32,
    /// Whether any failed attempt was an *injected* fault (as opposed
    /// to a real panic in the cell body).
    pub injected: bool,
    /// The final attempt's panic message.
    pub message: String,
}

impl fmt::Display for CellFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cell {} failed after {} attempt(s): {}",
            self.index, self.attempts, self.message
        )
    }
}

impl std::error::Error for CellFailure {}

/// Per-worker scheduler tallies, accumulated across [`par_map`] calls
/// made inside a traced scope (untraced runs pay nothing). Worker
/// 0 is the calling thread (the serial/inline path); spawned workers
/// are numbered from 1 in spawn order.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerTally {
    /// Cells this worker completed.
    pub cells: u64,
    /// Chunks claimed from the shared counter — each claim after a
    /// worker's first is work stolen from the static split.
    pub chunks: u64,
    /// Nanoseconds spent inside cell bodies, on the trace clock.
    pub busy_ns: u64,
}

/// Monotonic worker numbering across every spawn since the last
/// [`reset_worker_tallies`], so concurrent/nested `par_map` calls
/// never share a lane id.
static NEXT_WORKER: AtomicU32 = AtomicU32::new(0);
static TALLIES: Mutex<BTreeMap<u32, WorkerTally>> = Mutex::new(BTreeMap::new());

/// Clears the per-worker tallies and restarts worker numbering. The
/// harness calls this at the start of a traced run so its trace's
/// lanes start at worker 1.
pub fn reset_worker_tallies() {
    NEXT_WORKER.store(0, Ordering::Relaxed);
    TALLIES
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .clear();
}

/// Snapshot of the per-worker tallies, sorted by worker id.
#[must_use]
pub fn worker_tallies() -> Vec<(u32, WorkerTally)> {
    TALLIES
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .iter()
        .map(|(&w, &t)| (w, t))
        .collect()
}

fn record_tally(worker: u32, cells: u64, chunks: u64, busy_ns: u64) {
    let mut map = TALLIES.lock().unwrap_or_else(PoisonError::into_inner);
    let t = map.entry(worker).or_default();
    t.cells += cells;
    t.chunks += chunks;
    t.busy_ns += busy_ns;
}

fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(fp) = payload.downcast_ref::<fault::FaultPanic>() {
        fp.to_string()
    } else if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "worker panicked with a non-string payload".to_owned()
    }
}

/// Runs one cell through the retry loop: catch a panic, back off,
/// re-run, and give up with a [`CellFailure`] once the fault plan's
/// budget (or the single fail-fast attempt, without a plan) is spent.
/// Injected worker faults trip *before* `f`.
fn run_item<T, R, F>(index: usize, item: &T, faults: &FaultState, f: &F) -> Result<R, CellFailure>
where
    T: Clone,
    F: Fn(T) -> R,
{
    let budget = faults.retry_attempts();
    let mut pin = None;
    let mut injected = false;
    let mut attempt = 0u32;
    loop {
        attempt += 1;
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            faults.worker_trip(&mut pin, attempt);
            f(item.clone())
        }));
        match outcome {
            Ok(r) => return Ok(r),
            Err(payload) => {
                injected |= payload.is::<fault::FaultPanic>();
                if attempt >= budget {
                    return Err(CellFailure {
                        index,
                        attempts: attempt,
                        injected,
                        message: panic_message(payload.as_ref()),
                    });
                }
                faults.backoff(attempt);
            }
        }
    }
}

/// Maps `f` over `items` on up to `threads` scoped worker threads,
/// preserving input order; `threads <= 1` runs serially on the calling
/// thread (no spawns), which is the reference order every parallel run
/// must reproduce bit-for-bit. Cells retry under `faults`' plan.
///
/// # Panics
///
/// Panics if any cell fails past its retry budget (see
/// [`try_par_map`] for the recovering variant).
pub fn par_map<T, R, F>(threads: usize, faults: &FaultState, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send + Clone,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    try_par_map(threads, faults, items, f)
        .into_iter()
        .map(|cell| match cell {
            Ok(r) => r,
            Err(failure) => panic!("{failure}"),
        })
        .collect()
}

/// The recovering scheduler: maps `f` over `items` in input order on
/// up to `threads` workers, isolating panics per cell and retrying
/// under `faults`' plan budget. Every element of the returned `Vec` is
/// either the cell's result or the [`CellFailure`] describing why it
/// was given up — a poisoned cell never wedges the run, and the
/// surviving cells each execute (successfully) exactly once.
pub fn try_par_map<T, R, F>(
    threads: usize,
    faults: &FaultState,
    items: Vec<T>,
    f: F,
) -> Vec<Result<R, CellFailure>>
where
    T: Send + Clone,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    // Worker busy time is taken on the caller's trace clock, so only
    // calls made inside a traced scope read a clock.
    let clock = span::clock();
    let now = move || clock.map(|c| c());
    let n = items.len();
    if n <= 1 || threads <= 1 {
        let start = now();
        let out: Vec<Result<R, CellFailure>> = items
            .iter()
            .enumerate()
            .map(|(idx, item)| run_item(idx, item, faults, &f))
            .collect();
        if let Some(start) = start {
            let busy = now().unwrap_or(start).saturating_sub(start);
            record_tally(span::worker(), n as u64, 1, busy);
        }
        return out;
    }
    let threads = threads.min(n);

    // Chunks of consecutive indices, sized so each worker sees several
    // chunks (load balancing) without making the atomic counter hot.
    let chunk = (n / (threads * 4)).max(1);
    let mut remaining: Vec<(usize, T)> = items.into_iter().enumerate().collect();
    let mut chunks: Vec<Mutex<Vec<(usize, T)>>> = Vec::with_capacity(n.div_ceil(chunk));
    while !remaining.is_empty() {
        let rest = remaining.split_off(chunk.min(remaining.len()));
        chunks.push(Mutex::new(remaining));
        remaining = rest;
    }
    let next_chunk = AtomicUsize::new(0);

    let f = &f;
    let chunks = &chunks;
    let next_chunk = &next_chunk;
    let mut slots: Vec<Option<Result<R, CellFailure>>> = (0..n).map(|_| None).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(move || {
                    let worker = NEXT_WORKER.fetch_add(1, Ordering::Relaxed) + 1;
                    span::set_worker(worker);
                    let mut out = Vec::new();
                    let mut tally = WorkerTally::default();
                    loop {
                        let c = next_chunk.fetch_add(1, Ordering::Relaxed);
                        let Some(chunk) = chunks.get(c) else { break };
                        tally.chunks += 1;
                        // Uncontended by construction: each chunk index
                        // is claimed by exactly one worker.
                        let work = std::mem::take(&mut *chunk.lock().expect("chunk lock"));
                        for (idx, item) in work {
                            let start = now();
                            out.push((idx, run_item(idx, &item, faults, f)));
                            tally.cells += 1;
                            if let Some(start) = start {
                                tally.busy_ns += now().unwrap_or(start).saturating_sub(start);
                            }
                        }
                    }
                    if clock.is_some() {
                        record_tally(worker, tally.cells, tally.chunks, tally.busy_ns);
                    }
                    out
                })
            })
            .collect();
        for h in handles {
            // A worker can only die to a panic that escaped the
            // per-cell catch_unwind (e.g. abort-adjacent foreign
            // panics). Losing one worker must not wedge the others'
            // results: its unfinished cells surface below as failures.
            if let Ok(pairs) = h.join() {
                for (idx, r) in pairs {
                    slots[idx] = Some(r);
                }
            }
        }
    });
    slots
        .into_iter()
        .enumerate()
        .map(|(index, slot)| {
            slot.unwrap_or_else(|| {
                Err(CellFailure {
                    index,
                    attempts: 0,
                    injected: false,
                    message: "worker thread died before running this cell".to_owned(),
                })
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn calm() -> FaultState {
        FaultState::default()
    }

    #[test]
    fn preserves_order_and_matches_serial() {
        let items: Vec<u64> = (0..1000).collect();
        let serial: Vec<u64> = items.iter().map(|x| x * 3 + 1).collect();
        for threads in [1, 2, 3, 8, 64] {
            let par = par_map(threads, &calm(), items.clone(), |x| x * 3 + 1);
            assert_eq!(par, serial, "threads = {threads}");
        }
    }

    #[test]
    fn handles_empty_and_singleton() {
        let empty: Vec<u32> = Vec::new();
        assert!(par_map(4, &calm(), empty, |x| x).is_empty());
        assert_eq!(par_map(4, &calm(), vec![7], |x| x + 1), vec![8]);
    }

    #[test]
    fn more_threads_than_items() {
        let out = par_map(32, &calm(), vec![1, 2, 3], |x| x * x);
        assert_eq!(out, vec![1, 4, 9]);
    }

    #[test]
    fn uneven_work_still_ordered() {
        // Items with wildly different costs exercise chunk stealing.
        let out = par_map(4, &calm(), (0u64..97).collect(), |x| {
            let mut acc = x;
            for _ in 0..(x % 13) * 1000 {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
            }
            (x, acc)
        });
        for (i, (x, _)) in out.iter().enumerate() {
            assert_eq!(*x, i as u64);
        }
    }

    #[test]
    fn try_variant_isolates_a_real_panic() {
        // No fault plan → one attempt, fail fast, but the other cells
        // must still complete and stay ordered. (Fault-plan scenarios
        // live in tests/panic_recovery.)
        for threads in [1, 4] {
            let out = try_par_map(threads, &calm(), (0u32..8).collect(), |x| {
                assert!(x != 5, "boom at five");
                x * 10
            });
            for (i, cell) in out.iter().enumerate() {
                if i == 5 {
                    let failure = cell.as_ref().expect_err("cell 5 must fail");
                    assert_eq!(failure.index, 5);
                    assert_eq!(failure.attempts, 1);
                    assert!(!failure.injected);
                    assert!(failure.message.contains("boom at five"));
                } else {
                    assert_eq!(cell.as_ref().copied(), Ok(i as u32 * 10));
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "boom at three")]
    fn infallible_variant_still_panics_on_failure() {
        let _ = par_map(2, &calm(), (0u32..6).collect(), |x| {
            assert!(x != 3, "boom at three");
            x
        });
    }
}
