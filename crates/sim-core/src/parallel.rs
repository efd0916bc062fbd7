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
//! Each item runs exactly once. A panicking item fails the whole
//! call: the serial path unwinds straight through, and the parallel
//! path joins every worker and resumes the first panic on the
//! caller's thread, so the run fails with the cell's own message.
//!
//! Every call names its worker count; there is no process-wide
//! setting. A count of 1 runs inline on the caller's thread with no
//! spawns at all.
//!
//! # Examples
//!
//! ```
//! use sim_core::parallel::par_map;
//!
//! let squares = par_map(4, vec![1u64, 2, 3, 4], |x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16]);
//! ```

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

use crate::span;

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

/// Maps `f` over `items` on up to `threads` scoped worker threads,
/// preserving input order; `threads <= 1` runs serially on the calling
/// thread (no spawns), which is the reference order every parallel run
/// must reproduce bit-for-bit.
///
/// # Panics
///
/// Resumes the first panic an item raised, once every worker has
/// finished.
pub fn par_map<T, R, F>(threads: usize, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
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
        let out: Vec<R> = items.into_iter().map(&f).collect();
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
    let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
    let mut panic = None;
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
                            out.push((idx, f(item)));
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
            match h.join() {
                Ok(pairs) => {
                    for (idx, r) in pairs {
                        slots[idx] = Some(r);
                    }
                }
                Err(payload) => {
                    panic.get_or_insert(payload);
                }
            }
        }
    });
    if let Some(payload) = panic {
        std::panic::resume_unwind(payload);
    }
    slots
        .into_iter()
        .map(|slot| slot.expect("every item ran on a worker that returned"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

    #[test]
    fn preserves_order_and_matches_serial() {
        let items: Vec<u64> = (0..1000).collect();
        let serial: Vec<u64> = items.iter().map(|x| x * 3 + 1).collect();
        for threads in [1, 2, 3, 8, 64] {
            let par = par_map(threads, items.clone(), |x| x * 3 + 1);
            assert_eq!(par, serial, "threads = {threads}");
        }
    }

    #[test]
    fn handles_empty_and_singleton() {
        let empty: Vec<u32> = Vec::new();
        assert!(par_map(4, empty, |x| x).is_empty());
        assert_eq!(par_map(4, vec![7], |x| x + 1), vec![8]);
    }

    #[test]
    fn more_threads_than_items() {
        let out = par_map(32, vec![1, 2, 3], |x| x * x);
        assert_eq!(out, vec![1, 4, 9]);
    }

    #[test]
    fn uneven_work_still_ordered() {
        // Items with wildly different costs exercise chunk stealing.
        let out = par_map(4, (0u64..97).collect(), |x| {
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
    #[should_panic(expected = "boom at three")]
    fn infallible_variant_still_panics_on_failure() {
        for threads in [1, 4] {
            let runs = AtomicUsize::new(0);
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                par_map(threads, (0u32..6).collect(), |x| {
                    if x == 3 {
                        runs.fetch_add(1, Ordering::Relaxed);
                    }
                    assert!(x != 3, "boom at three");
                    x
                })
            }));
            assert_eq!(
                runs.load(Ordering::Relaxed),
                1,
                "threads = {threads}: the panicking item ran exactly once"
            );
            let payload = outcome.expect_err("a panicking item fails the call");
            if threads == 4 {
                resume_unwind(payload);
            }
            let message = payload
                .downcast_ref::<&str>()
                .copied()
                .or_else(|| payload.downcast_ref::<String>().map(String::as_str));
            assert_eq!(message, Some("boom at three"));
        }
    }
}
