//! Scheduler panic-recovery scenarios: a worker panic mid-sweep must
//! never wedge the run, double-run a surviving cell, or go
//! unreported.
//!
//! Each scenario owns its [`FaultState`], so the tests run
//! concurrently without sharing a plan.

use std::sync::atomic::{AtomicU32, Ordering};

use sim_core::fault::{self, FaultPlan, FaultSite, FaultState, RetryPolicy, MAX_RECOVERABLE_BURST};
use sim_core::parallel::{par_map, try_par_map};

/// Zero-sleep retries keep the chaos scenarios fast; the backoff
/// *schedule* itself is pinned by unit tests on `backoff_delay`.
fn fast_retry() -> RetryPolicy {
    RetryPolicy {
        max_attempts: 5,
        base_delay_micros: 0,
        max_delay_micros: 0,
    }
}

/// A fresh fault state for `plan`, with injected panics silenced.
fn faults(plan: FaultPlan) -> FaultState {
    fault::silence_injected_panics();
    FaultState::new(Some(plan))
}

#[test]
fn transient_worker_faults_recover_with_each_cell_run_exactly_once() {
    let plan = FaultPlan::new(41, 1.0)
        .with_sites(&[FaultSite::WorkerBody])
        .with_retry(fast_retry());
    for threads in [1, 4] {
        let faults = faults(plan);
        let n = 32usize;
        let runs: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
        let runs_ref = &runs;
        let out = try_par_map(threads, &faults, (0..n).collect(), |i| {
            runs_ref[i].fetch_add(1, Ordering::Relaxed);
            i * 10
        });
        assert_eq!(out.len(), n);
        for (i, cell) in out.iter().enumerate() {
            assert_eq!(
                cell.as_ref().copied(),
                Ok(i * 10),
                "threads={threads}: every fault at rate 1.0 must still recover"
            );
            assert_eq!(
                runs_ref[i].load(Ordering::Relaxed),
                1,
                "threads={threads} cell {i}: injected trips fire before the body, \
                 so a recovered cell's body runs exactly once"
            );
        }
        let stats = faults.stats();
        assert!(stats.injected > 0, "rate 1.0 must inject");
        assert_eq!(stats.exhausted, 0, "transient bursts never exhaust");
    }
}

#[test]
fn persistent_worker_faults_degrade_only_their_own_cells() {
    let plan = FaultPlan::new(7, 0.5)
        .persistent()
        .with_sites(&[FaultSite::WorkerBody])
        .with_retry(fast_retry());
    let faults = faults(plan);
    let n = 48usize;
    let runs: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
    let runs_ref = &runs;
    let out = try_par_map(4, &faults, (0..n).collect(), |i| {
        runs_ref[i].fetch_add(1, Ordering::Relaxed);
        i
    });
    let mut failed = 0usize;
    for (i, cell) in out.iter().enumerate() {
        match cell {
            Ok(v) => {
                assert_eq!(*v, i, "results stay in input order");
                assert_eq!(
                    runs_ref[i].load(Ordering::Relaxed),
                    1,
                    "cell {i}: surviving cells run exactly once, no double-count"
                );
            }
            Err(failure) => {
                failed += 1;
                assert_eq!(failure.index, i);
                assert!(failure.injected, "only injected faults are active");
                assert_eq!(
                    failure.attempts,
                    fast_retry().max_attempts,
                    "a persistent fault must burn the whole retry budget"
                );
                assert_eq!(
                    runs_ref[i].load(Ordering::Relaxed),
                    0,
                    "cell {i}: the trip fires before the body every attempt"
                );
                assert!(failure.message.contains("injected worker fault"));
            }
        }
    }
    // Rate 0.5 over 48 cells: both populations must exist, or the
    // scenario isn't exercising anything.
    assert!(failed > 0, "some cells must degrade at rate 0.5");
    assert!(failed < n, "some cells must survive at rate 0.5");
    assert_eq!(faults.stats().exhausted as usize, failed);
}

#[test]
fn real_panic_mid_sweep_is_retried_reported_and_isolated() {
    // A real (non-injected) deterministic panic under an installed
    // transient plan: the scheduler retries it through the budget,
    // reports it as a non-injected failure, and completes every other
    // cell exactly once.
    let plan = FaultPlan::new(3, 0.0).with_retry(fast_retry());
    let faults = faults(plan);
    let n = 16usize;
    let poisoned = 11usize;
    let runs: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
    let runs_ref = &runs;
    let out = try_par_map(4, &faults, (0..n).collect(), |i| {
        runs_ref[i].fetch_add(1, Ordering::Relaxed);
        assert!(i != poisoned, "poisoned cell");
        i
    });
    for (i, cell) in out.iter().enumerate() {
        if i == poisoned {
            let failure = cell.as_ref().expect_err("poisoned cell must fail");
            assert!(!failure.injected);
            assert_eq!(failure.attempts, fast_retry().max_attempts);
            assert!(failure.message.contains("poisoned cell"));
            assert_eq!(
                runs_ref[i].load(Ordering::Relaxed),
                fast_retry().max_attempts,
                "a real panic burns one body run per attempt"
            );
        } else {
            assert_eq!(cell.as_ref().copied(), Ok(i));
            assert_eq!(runs_ref[i].load(Ordering::Relaxed), 1);
        }
    }
}

#[test]
fn infallible_par_map_panics_with_the_cell_message_under_a_plan() {
    let plan = FaultPlan::new(5, 1.0)
        .persistent()
        .with_sites(&[FaultSite::WorkerBody])
        .with_retry(fast_retry());
    let faults = faults(plan);
    let result = std::panic::catch_unwind(|| par_map(2, &faults, vec![1u32, 2, 3], |x| x));
    let payload = result.expect_err("persistent faults must surface");
    let message = payload
        .downcast_ref::<String>()
        .expect("par_map panics with a formatted message");
    assert!(message.contains("injected worker fault"), "got: {message}");
}

#[test]
fn burst_cap_stays_below_every_legal_budget() {
    // The recoverability-by-construction invariant the chaos
    // differential suite leans on: a transient burst can never reach
    // the default retry budget.
    assert!(MAX_RECOVERABLE_BURST < RetryPolicy::default().max_attempts);
    assert!(MAX_RECOVERABLE_BURST < fast_retry().max_attempts);
}
