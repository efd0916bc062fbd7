//! Chaos differential property: under any *recoverable* fault plan —
//! transient bursts at any site subset, any seed, any rate — the repro
//! pipeline's rendered tables and probe JSONL are **byte-identical**
//! to the fault-free run, at every thread count. Determinism must
//! survive injection, retry, and backoff, not just the happy path.
//!
//! Recoverability is by construction, not by luck:
//! `MAX_RECOVERABLE_BURST < max_attempts`, so a non-persistent plan
//! can never exhaust a retry budget (pinned in
//! `sim_core/tests/panic_recovery.rs`), and worker trips fire *before*
//! the cell body, so a retried cell's side effects happen exactly
//! once.
//!
//! Everything lives in ONE proptest (the only test in this binary)
//! because the fault plan, the probe sink and the worker-thread cap
//! are process-global state.

use experiments::cli::Target;
use experiments::probe::{render_jsonl, ProbeMode, RunHeader};
use proptest::prelude::*;
use sim_core::fault::{self, FaultPlan, FaultSite, RetryPolicy};

const EVENTS: usize = 800;
const EPOCH: u64 = 400;
const TARGETS: [Target; 2] = [Target::Fig1, Target::Fig3];

/// Runs the figure suite the way `repro` does — probe configured,
/// targets through the recovering scheduler — and returns
/// `(rendered tables, obs JSONL)`. Every fig3 group pass arrives at
/// the `CpuGroup` site.
fn run_suite(threads: usize) -> (String, String) {
    sim_core::parallel::set_max_threads(threads);
    experiments::probe::configure(Some(ProbeMode::Epoch(EPOCH)));

    let outcomes = experiments::try_par_map(TARGETS.to_vec(), |target| target.run(EVENTS));
    let rendered: Vec<String> = outcomes
        .into_iter()
        .map(|cell| cell.expect("a recoverable plan must never degrade a cell"))
        .collect();

    let records = experiments::probe::drain();
    let header = RunHeader {
        mode: ProbeMode::Epoch(EPOCH),
        events_per_workload: EVENTS,
        targets: TARGETS.iter().map(|t| t.name()).collect(),
    };
    let obs = render_jsonl(&records, &header);
    experiments::probe::configure(None);
    (rendered.join("\n"), obs)
}

/// Builds the site subset a drawn bitmask selects (always non-empty:
/// masks are drawn from `1..16`).
fn sites_from_mask(mask: u8) -> Vec<FaultSite> {
    FaultSite::ALL
        .into_iter()
        .filter(|site| mask & site.bit() != 0)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]
    #[test]
    fn recoverable_fault_plans_leave_every_byte_unchanged(
        seed in 0u64..1_000_000,
        rate_pct in 5u32..101,
        mask in 1u8..16,
    ) {
        fault::clear();
        fault::silence_injected_panics();

        // Fault-free reference, which must itself be thread-invariant
        // (the pre-existing determinism guarantee this suite extends).
        let baseline = run_suite(1);
        prop_assert_eq!(
            &run_suite(4), &baseline,
            "fault-free runs must already be thread-invariant"
        );

        let sites = sites_from_mask(mask);
        let plan = FaultPlan::new(seed, f64::from(rate_pct) / 100.0)
            .with_sites(&sites)
            // Zero-sleep retries: the backoff *schedule* is pinned by
            // sim_core's unit tests; here only determinism is on trial.
            .with_retry(RetryPolicy {
                max_attempts: 5,
                base_delay_micros: 0,
                max_delay_micros: 0,
            });

        for threads in [1usize, 4] {
            fault::install(plan);
            let chaotic = run_suite(threads);
            let stats = fault::stats();
            fault::clear();
            prop_assert!(
                chaotic.0 == baseline.0,
                "rendered tables diverged under plan seed={} rate={}% sites={:?} threads={} \
                 ({} faults injected)",
                seed, rate_pct, sites, threads, stats.injected
            );
            prop_assert!(
                chaotic.1 == baseline.1,
                "probe JSONL diverged under plan seed={} rate={}% sites={:?} threads={} \
                 ({} faults injected)",
                seed, rate_pct, sites, threads, stats.injected
            );
            prop_assert_eq!(
                stats.exhausted, 0,
                "transient bursts must never exhaust a retry budget"
            );
            // Rate >= 5% over hundreds of arrivals: a plan that never
            // fires would make this whole property vacuous.
            prop_assert!(
                stats.injected > 0,
                "plan seed={} rate={}% sites={:?} never injected — vacuous case",
                seed, rate_pct, sites
            );
        }
        sim_core::parallel::set_max_threads(0);
    }
}
