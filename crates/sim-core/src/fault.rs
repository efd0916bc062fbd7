//! Seeded, deterministic fault injection and the retry/backoff
//! machinery that recovers from it.
//!
//! Long `repro` sweeps die from transient trouble — an I/O hiccup
//! while a JSONL file flushes, an allocation-pressure panic in one
//! worker — and without recovery a single incident throws away every
//! completed cell. This module makes that failure mode *testable*: a
//! [`FaultPlan`] names injection **sites** (the places the workspace
//! has retry machinery) and fires at reproducible points, so the chaos
//! suite can assert that recovery is transparent (output byte-identical
//! to a fault-free run) rather than hoping.
//!
//! # Sites
//!
//! | site | where it fires | recovery |
//! |------|----------------|----------|
//! | [`FaultSite::CpuGroup`]         | start of each CPU-model group pass | [`FaultState::gate`] retry in `experiments::replay_cpu` |
//! | [`FaultSite::ProbeFlush`]       | per-cell probe record flush | [`FaultState::gate`] retry in `experiments::probe::group` |
//! | [`FaultSite::JsonlWrite`]       | bench/probe/checkpoint file writes | [`FaultState::gate`] + I/O retry in `experiments::ioutil` |
//! | [`FaultSite::WorkerBody`]       | scheduler worker, before each cell | panic-isolation + re-run in [`crate::parallel`] |
//!
//! # Determinism and recoverability
//!
//! Every fault decision is a pure function of `(plan seed, site,
//! arrival index)` — no wall clock, no ambient entropy. A **transient**
//! plan draws a bounded *burst length* per faulted operation (at most
//! [`MAX_RECOVERABLE_BURST`] consecutive failures, strictly below the
//! retry budget), so recovery is guaranteed by construction: the chaos
//! differential test can inject at any rate and still demand
//! byte-identical output. A **persistent** plan ([`FaultPlan::persistent`])
//! makes a faulted operation fail on every retry — the way to exercise
//! retry exhaustion, degraded cells, and checkpoint-resume of failures.
//!
//! Backoff is deterministic too: the delay for attempt `k` is
//! `base << (k - 1)` microseconds, capped (see [`backoff_delay`]).
//! Delays affect wall time only, never output.
//!
//! A plan takes effect through a [`FaultState`]: the plan plus its
//! arrival and injection counters, owned by one run and passed to
//! every site that gates on it. There is no process-wide plan, so two
//! runs in one process never see each other's faults.
//!
//! # Examples
//!
//! ```
//! use sim_core::fault::{FaultPlan, FaultSite, FaultState};
//!
//! let faults = FaultState::new(Some(FaultPlan::new(7, 1.0))); // every arrival faults
//! let retries = faults.gate(FaultSite::JsonlWrite).expect("transient faults recover");
//! assert!(retries >= 1);
//! let calm = FaultState::default(); // no plan, no faults
//! assert_eq!(calm.gate(FaultSite::JsonlWrite), Ok(0));
//! ```

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Once;
use std::time::Duration;

use crate::rng::SplitMix64;

/// One named place the workspace can inject (and recover from) a
/// fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSite {
    /// The start of a CPU-model group pass, before any cell runs.
    CpuGroup,
    /// Flushing one experiment cell's folded probe record.
    ProbeFlush,
    /// Writing a JSONL/JSON artifact (bench report, probe output,
    /// checkpoint lines).
    JsonlWrite,
    /// The parallel scheduler's worker body, immediately before a cell
    /// runs (fires as a panic; the scheduler isolates and retries it).
    WorkerBody,
}

impl FaultSite {
    /// Every site, in stable order.
    pub const ALL: [FaultSite; 4] = [
        FaultSite::CpuGroup,
        FaultSite::ProbeFlush,
        FaultSite::JsonlWrite,
        FaultSite::WorkerBody,
    ];

    /// Stable name (used in diagnostics).
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            FaultSite::CpuGroup => "cpu-group",
            FaultSite::ProbeFlush => "probe-flush",
            FaultSite::JsonlWrite => "jsonl-write",
            FaultSite::WorkerBody => "worker",
        }
    }

    const fn index(self) -> usize {
        match self {
            FaultSite::CpuGroup => 0,
            FaultSite::ProbeFlush => 1,
            FaultSite::JsonlWrite => 2,
            FaultSite::WorkerBody => 3,
        }
    }

    /// This site's bit in a [`FaultPlan`] site mask (bit `i` for the
    /// `i`-th entry of [`FaultSite::ALL`]) — lets chaos harnesses draw
    /// random site subsets from a bitmask.
    #[must_use]
    pub const fn bit(self) -> u8 {
        1 << self.index()
    }
}

/// The longest failure burst a *transient* fault produces. Strictly
/// below every legal retry budget, so transient plans are recoverable
/// by construction.
pub const MAX_RECOVERABLE_BURST: u32 = 3;

/// Bounded-retry parameters shared by every recovery site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Attempts before an operation is given up (≥ 2 so at least one
    /// retry happens; must exceed [`MAX_RECOVERABLE_BURST`]).
    pub max_attempts: u32,
    /// Backoff before retry 1, microseconds.
    pub base_delay_micros: u64,
    /// Backoff ceiling, microseconds.
    pub max_delay_micros: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 5,
            base_delay_micros: 50,
            max_delay_micros: 2_000,
        }
    }
}

/// The deterministic backoff before retry `attempt` (1-based):
/// `base << (attempt - 1)`, capped at the policy ceiling. Pure, so
/// tests can assert the schedule without sleeping.
#[must_use]
pub fn backoff_delay(policy: &RetryPolicy, attempt: u32) -> Duration {
    let shift = attempt.saturating_sub(1).min(20);
    let micros = policy
        .base_delay_micros
        .checked_shl(shift)
        .unwrap_or(u64::MAX)
        .min(policy.max_delay_micros);
    Duration::from_micros(micros)
}

/// A seeded description of which arrivals at which sites fault.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Seed of the decision stream.
    pub seed: u64,
    /// Probability an arrival starts a fault burst, in `[0, 1]`.
    pub rate: f64,
    /// `false`: bursts are bounded (recoverable). `true`: a faulted
    /// operation fails on every retry (exhausts the budget).
    pub persist: bool,
    /// Retry/backoff parameters recovery sites use while this plan is
    /// installed.
    pub retry: RetryPolicy,
    sites: u8,
}

impl FaultPlan {
    /// A transient plan covering every site.
    #[must_use]
    pub fn new(seed: u64, rate: f64) -> Self {
        FaultPlan {
            seed,
            rate: rate.clamp(0.0, 1.0),
            persist: false,
            retry: RetryPolicy::default(),
            sites: FaultSite::ALL.iter().fold(0, |m, s| m | s.bit()),
        }
    }

    /// Restricts the plan to the given sites.
    #[must_use]
    pub fn with_sites(mut self, sites: &[FaultSite]) -> Self {
        self.sites = sites.iter().fold(0, |m, s| m | s.bit());
        self
    }

    /// Makes every injected fault permanent: retries keep failing until
    /// the budget is exhausted and the operation degrades.
    #[must_use]
    pub fn persistent(mut self) -> Self {
        self.persist = true;
        self
    }

    /// Replaces the retry policy.
    #[must_use]
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Whether the plan injects at `site`.
    #[must_use]
    pub fn covers(&self, site: FaultSite) -> bool {
        self.sites & site.bit() != 0
    }

    /// The burst length for arrival `arrival` at `site`: `0` (no
    /// fault), `1..=MAX_RECOVERABLE_BURST` consecutive failures
    /// (transient), or `u32::MAX` (persistent plan). Pure — the same
    /// `(seed, site, arrival)` always decides the same way.
    #[must_use]
    pub fn burst(&self, site: FaultSite, arrival: u64) -> u32 {
        if self.rate <= 0.0 || !self.covers(site) {
            return 0;
        }
        let mix = self
            .seed
            .wrapping_add((site.index() as u64 + 1).wrapping_mul(0xd6e8_feb8_6659_fd93))
            .wrapping_add(arrival.wrapping_mul(0x2545_f491_4f6c_dd1d));
        let mut rng = SplitMix64::new(mix);
        if rng.next_f64() >= self.rate {
            return 0;
        }
        if self.persist {
            return u32::MAX;
        }
        1 + (rng.next_u64() % u64::from(MAX_RECOVERABLE_BURST)) as u32
    }
}

/// The error a recovery site reports when its retry budget is
/// exhausted (only persistent plans — or real, non-injected failures —
/// get here).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultError {
    /// The site that kept failing.
    pub site: FaultSite,
    /// Attempts made before giving up.
    pub attempts: u32,
}

impl fmt::Display for FaultError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "injected {} fault persisted through {} attempts",
            self.site.name(),
            self.attempts
        )
    }
}

impl std::error::Error for FaultError {}

/// The panic payload of an injected worker-body fault, recognized by
/// the scheduler's panic isolation (and silenced by
/// [`silence_injected_panics`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPanic {
    /// The site that fired (always [`FaultSite::WorkerBody`] today).
    pub site: FaultSite,
    /// The attempt (1-based) the fault interrupted.
    pub attempt: u32,
}

impl fmt::Display for FaultPanic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "injected {} fault (attempt {})",
            self.site.name(),
            self.attempt
        )
    }
}

/// Counters describing what a run's plan has done so far.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultStats {
    /// Individual fault firings (each failed attempt counts).
    pub injected: u64,
    /// Operations whose retry budget was exhausted.
    pub exhausted: u64,
}

/// One run's fault plan (if any) plus its live counters. Every
/// injection site of the run gates through the same state, so arrival
/// indices — and with them every fault decision — are counted per run.
/// The default state has no plan: every gate passes untouched.
#[derive(Debug, Default)]
pub struct FaultState {
    plan: Option<FaultPlan>,
    arrivals: [AtomicU64; FaultSite::ALL.len()],
    injected: AtomicU64,
    exhausted: AtomicU64,
}

impl FaultState {
    /// Fresh counters for `plan` (`None` = no faults).
    #[must_use]
    pub fn new(plan: Option<FaultPlan>) -> Self {
        FaultState {
            plan,
            ..FaultState::default()
        }
    }

    /// The plan this state injects, if any.
    #[must_use]
    pub fn plan(&self) -> Option<&FaultPlan> {
        self.plan.as_ref()
    }

    fn next_arrival(&self, site: FaultSite) -> u64 {
        self.arrivals[site.index()].fetch_add(1, Ordering::Relaxed)
    }

    /// The plan's counters so far (zeroes without a plan).
    #[must_use]
    pub fn stats(&self) -> FaultStats {
        FaultStats {
            injected: self.injected.load(Ordering::Relaxed),
            exhausted: self.exhausted.load(Ordering::Relaxed),
        }
    }

    /// The retry budget recovery loops should use: the plan's, or `1`
    /// (no retries) without a plan — a real panic on a plain run fails
    /// fast.
    #[must_use]
    pub fn retry_attempts(&self) -> u32 {
        self.plan.map_or(1, |p| p.retry.max_attempts.max(2))
    }

    /// The I/O retry budget: the plan's, or the default policy's
    /// without one (real transient I/O errors deserve retries even
    /// without chaos testing).
    #[must_use]
    pub fn io_retry_attempts(&self) -> u32 {
        self.plan.map_or_else(
            || RetryPolicy::default().max_attempts,
            |p| p.retry.max_attempts.max(2),
        )
    }

    /// Sleeps the deterministic backoff before retry `attempt`
    /// (1-based), under the plan's policy (or the default).
    pub fn backoff(&self, attempt: u32) {
        let policy = self.plan.map_or_else(RetryPolicy::default, |p| p.retry);
        let delay = backoff_delay(&policy, attempt);
        if !delay.is_zero() {
            let _span = crate::span::enter("fault_backoff");
            std::thread::sleep(delay);
        }
    }

    /// Passes through a recoverable injection site: draws one
    /// arrival, retries (with backoff) through the fault burst the
    /// plan assigns it, and returns how many retries that took. `Ok(0)`
    /// is the common case — no plan, uncovered site, or no fault at
    /// this arrival.
    ///
    /// # Errors
    ///
    /// [`FaultError`] when the burst outlasts the retry budget
    /// (persistent plans only; transient bursts are capped below every
    /// legal budget).
    pub fn gate(&self, site: FaultSite) -> Result<u32, FaultError> {
        let Some(plan) = self.plan.filter(|p| p.covers(site)) else {
            return Ok(0);
        };
        let burst = plan.burst(site, self.next_arrival(site));
        let budget = plan.retry.max_attempts.max(2);
        let mut attempt = 0u32;
        while attempt < burst {
            attempt += 1;
            self.injected.fetch_add(1, Ordering::Relaxed);
            if attempt >= budget {
                self.exhausted.fetch_add(1, Ordering::Relaxed);
                return Err(FaultError {
                    site,
                    attempts: attempt,
                });
            }
            let _span = crate::span::enter("fault_backoff");
            std::thread::sleep(backoff_delay(&plan.retry, attempt));
        }
        Ok(attempt)
    }

    /// The scheduler's worker-body trip: panics with a [`FaultPanic`]
    /// payload when the plan faults this cell's `attempt` (1-based).
    /// `pin` holds the cell's arrival index across retries so one cell
    /// draws one burst; pass the same `&mut None`-initialized slot on
    /// every attempt.
    ///
    /// # Panics
    ///
    /// Panics (by design) with [`FaultPanic`] when the fault fires;
    /// the scheduler's per-cell `catch_unwind` isolates it.
    pub fn worker_trip(&self, pin: &mut Option<u64>, attempt: u32) {
        let Some(plan) = self.plan.filter(|p| p.covers(FaultSite::WorkerBody)) else {
            return;
        };
        let arrival = *pin.get_or_insert_with(|| self.next_arrival(FaultSite::WorkerBody));
        if attempt <= plan.burst(FaultSite::WorkerBody, arrival) {
            self.injected.fetch_add(1, Ordering::Relaxed);
            if attempt >= plan.retry.max_attempts.max(2) {
                self.exhausted.fetch_add(1, Ordering::Relaxed);
            }
            std::panic::panic_any(FaultPanic {
                site: FaultSite::WorkerBody,
                attempt,
            });
        }
    }
}

/// Installs a panic hook that suppresses the default "thread panicked"
/// report for *injected* panics ([`FaultPanic`] / [`FaultError`]
/// payloads) while delegating everything else to the previous hook.
/// Chaos runs inject thousands of recoverable panics; without this the
/// stderr noise buries real diagnostics. Idempotent.
pub fn silence_injected_panics() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let payload = info.payload();
            if payload.is::<FaultPanic>() || payload.is::<FaultError>() {
                return;
            }
            prev(info);
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn burst_is_deterministic_and_bounded() {
        let plan = FaultPlan::new(42, 0.5);
        for site in FaultSite::ALL {
            for arrival in 0..2_000 {
                let a = plan.burst(site, arrival);
                let b = plan.burst(site, arrival);
                assert_eq!(a, b, "same (seed, site, arrival) must decide the same");
                assert!(a <= MAX_RECOVERABLE_BURST, "transient bursts are bounded");
            }
        }
    }

    #[test]
    fn burst_rate_extremes() {
        let never = FaultPlan::new(1, 0.0);
        let always = FaultPlan::new(1, 1.0);
        for arrival in 0..200 {
            assert_eq!(never.burst(FaultSite::JsonlWrite, arrival), 0);
            assert!(always.burst(FaultSite::JsonlWrite, arrival) >= 1);
        }
    }

    #[test]
    fn persistent_bursts_are_unbounded() {
        let plan = FaultPlan::new(3, 1.0).persistent();
        assert_eq!(plan.burst(FaultSite::ProbeFlush, 0), u32::MAX);
    }

    #[test]
    fn site_filter_covers_only_its_sites() {
        let plan = FaultPlan::new(9, 1.0).with_sites(&[FaultSite::WorkerBody]);
        assert!(plan.covers(FaultSite::WorkerBody));
        assert!(!plan.covers(FaultSite::JsonlWrite));
        assert_eq!(plan.burst(FaultSite::JsonlWrite, 0), 0);
    }

    #[test]
    fn backoff_schedule_doubles_and_caps() {
        let policy = RetryPolicy {
            max_attempts: 8,
            base_delay_micros: 100,
            max_delay_micros: 500,
        };
        assert_eq!(backoff_delay(&policy, 1), Duration::from_micros(100));
        assert_eq!(backoff_delay(&policy, 2), Duration::from_micros(200));
        assert_eq!(backoff_delay(&policy, 3), Duration::from_micros(400));
        assert_eq!(backoff_delay(&policy, 4), Duration::from_micros(500));
        assert_eq!(backoff_delay(&policy, 40), Duration::from_micros(500));
    }

    #[test]
    fn gate_without_plan_is_free() {
        let faults = FaultState::default();
        assert!(faults.plan().is_none());
        assert_eq!(faults.gate(FaultSite::CpuGroup), Ok(0));
        assert_eq!(faults.stats(), FaultStats::default());
        assert_eq!(faults.retry_attempts(), 1);
    }

    #[test]
    fn transient_gate_always_recovers() {
        let fast = RetryPolicy {
            max_attempts: 5,
            base_delay_micros: 0,
            max_delay_micros: 0,
        };
        let faults = FaultState::new(Some(FaultPlan::new(11, 1.0).with_retry(fast)));
        for _ in 0..200 {
            let retries = faults
                .gate(FaultSite::JsonlWrite)
                .expect("transient faults recover");
            assert!((1..=MAX_RECOVERABLE_BURST).contains(&retries));
        }
        let s = faults.stats();
        assert!(s.injected >= 200);
        assert_eq!(s.exhausted, 0);
    }

    #[test]
    fn persistent_gate_exhausts_the_budget() {
        let fast = RetryPolicy {
            max_attempts: 4,
            base_delay_micros: 0,
            max_delay_micros: 0,
        };
        let faults = FaultState::new(Some(FaultPlan::new(11, 1.0).persistent().with_retry(fast)));
        let err = faults
            .gate(FaultSite::ProbeFlush)
            .expect_err("persistent faults exhaust");
        assert_eq!(err.site, FaultSite::ProbeFlush);
        assert_eq!(err.attempts, 4);
        assert_eq!(faults.stats().exhausted, 1);
    }

    #[test]
    fn worker_trip_panics_through_its_burst_then_clears() {
        let fast = RetryPolicy {
            max_attempts: 5,
            base_delay_micros: 0,
            max_delay_micros: 0,
        };
        let faults = FaultState::new(Some(FaultPlan::new(2, 1.0).with_retry(fast)));
        let mut pin = None;
        let mut attempt = 0;
        loop {
            attempt += 1;
            let trip = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                faults.worker_trip(&mut pin, attempt);
            }));
            match trip {
                Ok(()) => break,
                Err(payload) => {
                    let fp = payload.downcast::<FaultPanic>().expect("injected payload");
                    assert_eq!(fp.site, FaultSite::WorkerBody);
                    assert_eq!(fp.attempt, attempt);
                }
            }
            assert!(
                attempt <= MAX_RECOVERABLE_BURST,
                "burst must clear in budget"
            );
        }
        assert!(attempt >= 2, "rate 1.0 must have injected at least once");
    }
}
