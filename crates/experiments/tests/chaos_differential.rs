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
//! A persistent plan can recover too: a cell whose gate exhausts its
//! budget unwinds its scheduler item, which the figure's scheduler
//! retries; an item that keeps failing unwinds the figure, which the
//! sweep retries whole. Either retried unit must then contribute
//! exactly its successful attempt's records — no repeated trace
//! scope, no stale probe record.
//!
//! Each run owns its [`RunConfig`] (threads, probe, trace, fault plan
//! and collector), so these tests share no process-wide state.

use std::sync::atomic::{AtomicUsize, Ordering};

use experiments::cli::Target;
use experiments::probe::{write_jsonl, ProbeMode};
use experiments::{tracing, RunConfig, RunHeader};
use proptest::prelude::*;
use sim_core::fault::{self, FaultPlan, FaultSite, FaultStats, RetryPolicy};

const EVENTS: usize = 800;
const EPOCH: u64 = 400;
const TARGETS: [Target; 2] = [Target::Fig1, Target::Fig3];

/// Zero-sleep retries: the backoff *schedule* is pinned by sim_core's
/// unit tests; here only determinism is on trial.
const FAST: RetryPolicy = RetryPolicy {
    max_attempts: 5,
    base_delay_micros: 0,
    max_delay_micros: 0,
};

/// One suite run, the way `repro` runs it: targets through the
/// recovering scheduler, probe and logical-clock trace armed.
struct Suite {
    /// Each target's rendered table, or `None` for a degraded one.
    rendered: Vec<Option<String>>,
    /// The `obs-repro/1` document.
    obs: String,
    /// The `trace-repro/1` document.
    trace: String,
    /// Figure bodies started (a retried figure starts more than once).
    starts: usize,
    /// The plan's counters.
    stats: FaultStats,
}

/// Runs the figure suite on `threads` workers under `plan`. Every fig3
/// group pass arrives at the `CpuGroup` site.
fn run_suite(threads: usize, plan: Option<FaultPlan>) -> Suite {
    run_targets(&TARGETS, threads, plan)
}

/// Runs `targets` through the sweep's recovering scheduler on
/// `threads` workers under `plan`.
fn run_targets(targets: &[Target], threads: usize, plan: Option<FaultPlan>) -> Suite {
    let mut cfg = RunConfig::new(threads)
        .with_probe(ProbeMode::Epoch(EPOCH))
        .with_trace(tracing::clock(true));
    if let Some(plan) = plan {
        cfg = cfg.with_fault(plan);
    }
    let starts = AtomicUsize::new(0);
    let rendered = cfg
        .try_par_map(targets.to_vec(), |run, target: Target| {
            starts.fetch_add(1, Ordering::Relaxed);
            target.run(run, EVENTS)
        })
        .into_iter()
        .map(Result::ok)
        .collect();
    let header = RunHeader {
        events_per_workload: EVENTS,
        targets: targets.iter().map(|t| t.name()).collect(),
    };
    let records = cfg.drain();
    let (mut obs, mut trace) = (Vec::new(), Vec::new());
    write_jsonl(&records.cells, ProbeMode::Epoch(EPOCH), &header, &mut obs)
        .expect("Vec<u8> writes cannot fail");
    tracing::write_jsonl(&records.scopes, true, &header, None, &mut trace)
        .expect("Vec<u8> writes cannot fail");
    let obs = String::from_utf8(obs).expect("probe JSONL is UTF-8");
    let trace = String::from_utf8(trace).expect("trace JSONL is UTF-8");
    Suite {
        rendered,
        obs,
        trace,
        starts: starts.into_inner(),
        stats: cfg.fault().stats(),
    }
}

/// The rendered tables joined, panicking on a degraded target.
fn tables(suite: &Suite) -> String {
    suite
        .rendered
        .iter()
        .map(|r| {
            r.clone()
                .expect("a recoverable plan must never degrade a cell")
        })
        .collect::<Vec<_>>()
        .join("\n")
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
        fault::silence_injected_panics();

        // Fault-free reference, which must itself be thread-invariant
        // (the pre-existing determinism guarantee this suite extends).
        let clean = run_suite(1, None);
        let baseline = (tables(&clean), clean.obs);
        let parallel = run_suite(4, None);
        prop_assert_eq!(
            &(tables(&parallel), parallel.obs), &baseline,
            "fault-free runs must already be thread-invariant"
        );

        let sites = sites_from_mask(mask);
        let plan = FaultPlan::new(seed, f64::from(rate_pct) / 100.0)
            .with_sites(&sites)
            .with_retry(FAST);

        for threads in [1usize, 4] {
            let chaotic = run_suite(threads, Some(plan));
            let stats = chaotic.stats;
            prop_assert!(
                tables(&chaotic) == baseline.0,
                "rendered tables diverged under plan seed={} rate={}% sites={:?} threads={} \
                 ({} faults injected)",
                seed, rate_pct, sites, threads, stats.injected
            );
            prop_assert!(
                chaotic.obs == baseline.1,
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
    }
}

/// Every `(scope, target, label, root name)` key of a `trace-repro/1`
/// document that occurs more than once.
fn repeated_scope_keys(trace: &str) -> Vec<String> {
    let mut counts = std::collections::BTreeMap::new();
    for v in experiments::jsonl::parse_lines(trace).expect("valid trace-repro/1") {
        if v.str_field("type") == Some("span") && v.u64_field("parent") == Some(0) {
            let key = ["scope", "target", "label", "name"].map(|f| v.str_field(f).unwrap_or(""));
            *counts.entry(key.join("|")).or_insert(0u32) += 1;
        }
    }
    counts
        .into_iter()
        .filter(|&(_, n)| n > 1)
        .map(|(k, _)| k)
        .collect()
}

/// Searches seeds for a persistent 5 % plan over `sites` under which
/// every one of `targets` renders at one thread and `recovered` holds,
/// then demands that run equal the fault-free one: every trace scope
/// key once, the same tables, the same probe JSONL.
fn assert_recovery_commits_one_attempt(
    targets: &[Target],
    sites: &[FaultSite],
    recovered: impl Fn(&Suite) -> bool,
) {
    fault::silence_injected_panics();
    let clean = run_targets(targets, 1, None);
    assert!(repeated_scope_keys(&clean.trace).is_empty());

    let plan = |seed| {
        FaultPlan::new(seed, 0.05)
            .with_sites(sites)
            .persistent()
            .with_retry(FAST)
    };
    let (seed, run) = (0..200u64)
        .map(|seed| (seed, run_targets(targets, 1, Some(plan(seed)))))
        .find(|(_, run)| run.rendered.iter().all(Option::is_some) && recovered(run))
        .expect("some seed recovers by retrying");

    assert_eq!(
        repeated_scope_keys(&run.trace),
        Vec::<String>::new(),
        "seed {seed}: a retried unit must contribute one attempt's scopes"
    );
    assert_eq!(tables(&run), tables(&clean), "seed {seed}: stdout tables");
    assert!(
        run.obs == clean.obs,
        "seed {seed}: probe JSONL must equal the fault-free run's"
    );
}

#[test]
fn a_persistent_plan_that_recovers_by_retrying_commits_one_attempt() {
    // A figure retry: one of a figure's cells exhausts its budget, the
    // figure unwinds and the sweep retries it, so more figure bodies
    // start than there are targets.
    assert_recovery_commits_one_attempt(&TARGETS, &FaultSite::ALL, |run| {
        run.starts > TARGETS.len()
    });
    // An item retry inside a figure: a sec56 scheduler item runs
    // several cells in turn, and a gate that fails after the first of
    // them unwinds the item, which the figure's scheduler retries
    // while the figure itself runs once.
    assert_recovery_commits_one_attempt(
        &[Target::Sec56],
        &[FaultSite::CpuGroup, FaultSite::ProbeFlush],
        |run| run.starts == 1 && run.stats.exhausted > 0,
    );
}
