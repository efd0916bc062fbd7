//! The canonical contract registry: one authoritative home for every
//! cross-crate string contract the workspace's tools agree on.
//!
//! Three families of contracts used to be duplicated across crates —
//! machine-readable schema identifiers (`bench-repro/2`, …) spelled
//! inline at every emit and parse site, span-name prefixes defined in
//! [`crate::span`] *and* privately mirrored inside `simlint`, and
//! criterion bench-group prefixes living only inside `simlint`. Drift
//! between the copies was caught (at best) by golden tests after the
//! fact. This module is the single definition; everything else —
//! `span.rs`'s runtime check, the `experiments` writers and readers,
//! and all of `simlint`'s registry-aware rules (`span-name`,
//! `bench-prefix`, `registry-drift`) — consumes it. The probe counter
//! names of `obs-repro/1` ([`PROBE_COUNTERS`]) live here for the same
//! reason.
//!
//! The module is data plus tiny total predicates: no I/O, no
//! allocation, no dependencies, so `simlint` can link it while staying
//! buildable before anything else in the offline CI container.

/// Schema identifier of the bench report (`repro --bench-json`).
pub const SCHEMA_BENCH: &str = "bench-repro/2";

/// Schema identifier of the probe JSONL stream (`repro --probe`).
pub const SCHEMA_OBS: &str = "obs-repro/1";

/// Schema identifier of the span trace JSONL (`repro --trace-out`).
pub const SCHEMA_TRACE: &str = "trace-repro/1";

/// Schema identifier of the lint JSONL (`simlint --json`).
pub const SCHEMA_LINT: &str = "lint-repro/2";

/// Schema identifier of the miss-ratio-curve JSONL (`repro --mrc`).
pub const SCHEMA_MRC: &str = "mrc-repro/1";

/// Every current schema identifier, sorted by family name.
pub const SCHEMAS: [&str; 5] = [
    SCHEMA_BENCH,
    SCHEMA_LINT,
    SCHEMA_MRC,
    SCHEMA_OBS,
    SCHEMA_TRACE,
];

/// The canonical identifier for a schema family (`"bench"`, `"obs"`,
/// `"trace"`, `"lint"`, `"mrc"`), or `None` for an unknown
/// family.
///
/// A schema string is spelled `<family>-repro/<version>`; the family
/// resolves which current identifier a given spelling must match.
#[must_use]
pub fn canonical_schema(family: &str) -> Option<&'static str> {
    match family {
        "bench" => Some(SCHEMA_BENCH),
        "obs" => Some(SCHEMA_OBS),
        "trace" => Some(SCHEMA_TRACE),
        "lint" => Some(SCHEMA_LINT),
        "mrc" => Some(SCHEMA_MRC),
        _ => None,
    }
}

/// Registered span-name prefixes, one per instrumented component.
/// Every name passed to [`crate::span::enter`] or
/// [`crate::span::scope`] must start with one of these; the simlint
/// `span-name` rule enforces it at call sites and
/// `obs verify-trace` re-checks emitted streams.
pub const SPAN_NAME_PREFIXES: [&str; 6] =
    ["cell_", "fig_", "probe_", "replay_", "sched_", "sweep_"];

/// Whether `name` carries a registered span-name prefix (see
/// [`SPAN_NAME_PREFIXES`]).
#[must_use]
pub fn span_name_registered(name: &str) -> bool {
    SPAN_NAME_PREFIXES.iter().any(|p| name.starts_with(p))
}

/// Layer prefixes a criterion benchmark group name may carry, from
/// ROADMAP item 5: the prefix names the layer a group exercises, so
/// bench reports and CI deltas stay navigable as groups accumulate.
/// The simlint `bench-prefix` rule enforces this at
/// `benchmark_group(..)` call sites.
pub const BENCH_GROUP_PREFIXES: [&str; 6] = [
    "kernel_",
    "trace_",
    "probe_",
    "sched_",
    "figure_",
    "substrate/",
];

/// Whether `name` carries a registered bench-group layer prefix (see
/// [`BENCH_GROUP_PREFIXES`]).
#[must_use]
pub fn bench_group_registered(name: &str) -> bool {
    BENCH_GROUP_PREFIXES.iter().any(|p| name.starts_with(p))
}

/// The registered hot entry points: the function names through which
/// every simulated event flows during replay. A panic or heap
/// allocation in code *reachable* from any of these aborts or stalls
/// a multi-hour sweep, so simlint's graph rules (`transitive-panic`,
/// `hot-path-alloc`) walk the workspace call graph starting here.
///
/// Registration is by function name, not path: the kernel's batched
/// and per-event forms all funnel through these, and a
/// new crate that defines a function with one of these names opts
/// straight into the hot-path contract.
pub const HOT_ENTRY_POINTS: [&str; 10] = [
    "access_block",
    "access_block_with",
    "access_parts",
    "access_parts_block",
    "fill_at",
    "fill_parts",
    "observe_block",
    "observe_parts",
    "peek_at",
    "probe_at",
];

/// Whether `name` is a registered hot entry point (see
/// [`HOT_ENTRY_POINTS`]).
#[must_use]
pub fn hot_entry_point(name: &str) -> bool {
    HOT_ENTRY_POINTS.contains(&name)
}

/// The counter names an [`crate::probe::EpochSink`] folds into a
/// cell's `counters` object (`obs-repro/1`), sorted byte-wise. A
/// counter's id is its index here: the sink bumps a fixed table by id,
/// and the serialized keys keep this order.
pub const PROBE_COUNTERS: [&str; 34] = [
    "access",
    "access.hit",
    "amb.exclusion",
    "amb.prefetch",
    "amb.victim",
    "cbit.clear",
    "cbit.set",
    "classify.capacity",
    "classify.conflict",
    "filter.amb_exclude.fired",
    "filter.amb_exclude.pass",
    "filter.amb_prefetch.fired",
    "filter.amb_prefetch.pass",
    "filter.amb_victim.fired",
    "filter.amb_victim.pass",
    "filter.exclude.fired",
    "filter.exclude.pass",
    "filter.prefetch.fired",
    "filter.prefetch.pass",
    "filter.pseudo_protect.fired",
    "filter.pseudo_protect.pass",
    "filter.victim_fill.fired",
    "filter.victim_fill.pass",
    "filter.victim_swap.fired",
    "filter.victim_swap.pass",
    "mct.alias",
    "mct.empty",
    "mct.match",
    "mct.stale",
    "oracle.agree",
    "oracle.conflict",
    "oracle.total",
    "set.evict",
    "set.fill",
];

/// The id (index in [`PROBE_COUNTERS`]) of the counter `name`.
///
/// # Panics
///
/// Panics if `name` is not registered; in a `const` item that is a
/// compile error, which is how the probe sink spells its ids.
#[must_use]
pub const fn probe_counter(name: &str) -> usize {
    let mut i = 0;
    while i < PROBE_COUNTERS.len() {
        if const_str_eq(PROBE_COUNTERS[i], name) {
            return i;
        }
        i += 1;
    }
    panic!("unregistered probe counter");
}

const fn const_str_eq(a: &str, b: &str) -> bool {
    let (a, b) = (a.as_bytes(), b.as_bytes());
    if a.len() != b.len() {
        return false;
    }
    let mut i = 0;
    while i < a.len() {
        if a[i] != b[i] {
            return false;
        }
        i += 1;
    }
    true
}

/// Name suffixes marking a *cold escape*: a function spelled
/// `..._slow` or `..._cold` is the guarded slow path of a
/// zero-overhead-when-disabled facility (`probe::emit` →
/// `emit_slow`), entered only behind an armed check. The hot-path
/// graph rules stop traversal at these functions — the armed-check
/// discipline (enforced separately by `probe-guard`) is what keeps
/// them off the replay fast path, so their allocations are by design.
pub const COLD_FN_SUFFIXES: [&str; 2] = ["_cold", "_slow"];

/// Whether `name` is a registered cold escape (see
/// [`COLD_FN_SUFFIXES`]).
#[must_use]
pub fn cold_fn(name: &str) -> bool {
    COLD_FN_SUFFIXES.iter().any(|s| name.ends_with(s))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schemas_are_family_slash_version_shaped() {
        for schema in SCHEMAS {
            let (family, version) = schema.split_once("-repro/").expect("shape");
            assert!(!family.is_empty() && family.chars().all(|c| c.is_ascii_lowercase()));
            assert!(!version.is_empty() && version.chars().all(|c| c.is_ascii_digit()));
            assert_eq!(canonical_schema(family), Some(schema));
        }
        assert_eq!(canonical_schema("amb"), None);
    }

    #[test]
    fn prefix_predicates() {
        // The replay pipeline's span names are pinned here so a prefix
        // change cannot silently unregister them: `replay_block` (block
        // replay), `replay_stream` (an accuracy group pass),
        // `replay_cpu` (a CPU-model group pass) and `replay_mrc` (an
        // MRC pass: the stack-distance engine and its cross-check).
        for name in ["replay_block", "replay_cpu", "replay_stream", "replay_mrc"] {
            assert!(span_name_registered(name), "{name}");
        }
        assert!(!span_name_registered("mystery_phase"));
        assert!(bench_group_registered("substrate/cache_kernel"));
        assert!(bench_group_registered("figure_drivers"));
        assert!(!bench_group_registered("misc"));
    }

    #[test]
    fn entry_points_cover_the_kernel_and_mct_forms() {
        for name in ["access_block", "observe_block", "fill_at"] {
            assert!(hot_entry_point(name));
        }
        assert!(!hot_entry_point("render_table"));
        assert!(cold_fn("emit_slow"));
        assert!(cold_fn("refill_cold"));
        assert!(!cold_fn("emit"));
        // Sorted, so diagnostics listing them read deterministically.
        let mut sorted = HOT_ENTRY_POINTS;
        sorted.sort_unstable();
        assert_eq!(sorted, HOT_ENTRY_POINTS);
    }

    #[test]
    fn probe_counters_are_sorted_and_unique_with_ids_as_indices() {
        // Strictly sorted: the serialized `counters` object keeps this
        // order, which is the order a name-keyed map iterates.
        assert!(PROBE_COUNTERS.windows(2).all(|w| w[0] < w[1]));
        for (i, name) in PROBE_COUNTERS.iter().enumerate() {
            assert_eq!(probe_counter(name), i);
        }
    }
}
