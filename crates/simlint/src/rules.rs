//! The rule catalog: per-file scans plus workspace graph rules.
//!
//! Per-file rules see a [`FileCtx`]: the scrubbed code lines of one
//! file (see [`crate::lexer`]), a per-line test-region mask, and the
//! file's workspace-relative path. They match token spellings with
//! identifier boundaries — deliberately shallower than a type-checked
//! analysis, which keeps the pass dependency-free and fast, at the
//! cost of being a *convention* checker: the conventions are chosen so
//! the textual form and the semantic property coincide in this
//! workspace.
//!
//! Graph rules ([`check_graph`]) additionally see the workspace
//! symbol table and approximate call graph from [`crate::items`]:
//! `transitive-panic` and `hot-path-alloc` flag panic/allocation
//! tokens in any function *reachable* from the registered hot entry
//! points ([`sim_core::registry::HOT_ENTRY_POINTS`]), attaching the
//! offending call chain as evidence. The registries themselves —
//! span-name prefixes, bench-group prefixes, schema identifiers —
//! come from [`sim_core::registry`], the single canonical definition
//! shared with the runtime checks; `registry-drift` closes the loop
//! by flagging any schema literal that disagrees with it.

use crate::items::Workspace;
use crate::Finding;

/// One file as the rules see it.
#[derive(Debug)]
pub struct FileCtx<'a> {
    /// Workspace-relative path with `/` separators.
    pub path: &'a str,
    /// Scrubbed code lines (no comment or literal text).
    pub lines: &'a [String],
    /// `mask[i]` is true when line `i + 1` is test-only code
    /// (`#[cfg(test)]` / `#[test]` items, or a test/bench/example
    /// file).
    pub test_mask: &'a [bool],
    /// Every string literal's text with the 1-based line it starts on
    /// (see [`crate::lexer::Scrubbed::strings`]), for rules that
    /// inspect literal contents.
    pub strings: &'a [(usize, String)],
}

impl FileCtx<'_> {
    fn is_test_line(&self, idx: usize) -> bool {
        self.test_mask.get(idx).copied().unwrap_or(false)
    }
}

/// Every rule name, in the order diagnostics list them.
pub const RULE_NAMES: [&str; 11] = [
    "bench-prefix",
    "default-hasher",
    "global-state",
    "hot-path-alloc",
    "probe-guard",
    "registry-drift",
    "span-name",
    "transitive-panic",
    "unseeded-rng",
    "waiver",
    "wallclock",
];

/// Whether `name` is a known rule (waivers may only name these).
#[must_use]
pub fn is_rule(name: &str) -> bool {
    RULE_NAMES.contains(&name)
}

/// Runs every per-file rule over one file, in deterministic order.
/// The graph rules run separately over the whole workspace (see
/// [`check_graph`]).
#[must_use]
pub fn check_file(ctx: &FileCtx<'_>) -> Vec<Finding> {
    let mut findings = Vec::new();
    default_hasher(ctx, &mut findings);
    wallclock(ctx, &mut findings);
    probe_guard(ctx, &mut findings);
    unseeded_rng(ctx, &mut findings);
    bench_prefix(ctx, &mut findings);
    span_name(ctx, &mut findings);
    registry_drift(ctx, &mut findings);
    global_state(ctx, &mut findings);
    findings.sort_by(|a, b| a.line.cmp(&b.line).then(a.rule.cmp(b.rule)));
    findings
}

/// Finds `word` as a whole identifier in `line` (not as a fragment of
/// a longer identifier like `FxHashMap` or `emit_slow`).
fn has_ident(line: &str, word: &str) -> bool {
    find_ident(line, word).is_some()
}

/// Byte offset of `word` as a whole identifier in `line`, if present.
fn find_ident(line: &str, word: &str) -> Option<usize> {
    let bytes = line.as_bytes();
    let mut from = 0;
    while let Some(pos) = line[from..].find(word).map(|p| p + from) {
        let before_ok = pos == 0 || !is_ident_byte(bytes[pos - 1]);
        let end = pos + word.len();
        let after_ok = end >= bytes.len() || !is_ident_byte(bytes[end]);
        if before_ok && after_ok {
            return Some(pos);
        }
        from = pos + 1;
    }
    None
}

pub(crate) fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// `default-hasher`: no `std` `HashMap`/`HashSet` with the default
/// SipHash hasher outside test code. Every crate here either feeds
/// figure/JSON output or sits on a hot path; both want
/// `sim_core::hash::FxHashMap` (speed, cross-run identity) or
/// `BTreeMap` (ordered iteration).
fn default_hasher(ctx: &FileCtx<'_>, findings: &mut Vec<Finding>) {
    for (i, line) in ctx.lines.iter().enumerate() {
        if ctx.is_test_line(i) {
            continue;
        }
        // A line that names the replacement hasher is the definition
        // site or an explicit-hasher construction, not a violation.
        if line.contains("BuildHasherDefault") || line.contains("with_hasher") {
            continue;
        }
        for word in ["HashMap", "HashSet"] {
            if has_ident(line, word) {
                findings.push(Finding::new(
                    "default-hasher",
                    ctx.path,
                    i + 1,
                    format!(
                        "std {word} with the default SipHash hasher; use \
                         sim_core::hash::Fx{word} or an ordered BTree container"
                    ),
                ));
            }
        }
    }
}

/// Files where wall-clock access is sanctioned: the telemetry module
/// (the one place the harness times itself) and benchmark code.
fn wallclock_allowed(path: &str) -> bool {
    path == "crates/experiments/src/telemetry.rs"
        || path.starts_with("crates/bench/")
        || path.contains("/benches/")
}

/// `wallclock`: no `Instant` / `SystemTime` outside
/// `experiments::telemetry` and bench code. Simulation logic that
/// reads the host clock produces run-dependent output; simulated time
/// is `sim_core::cycle`, and harness timing goes through
/// `experiments::telemetry::Stopwatch`.
fn wallclock(ctx: &FileCtx<'_>, findings: &mut Vec<Finding>) {
    if wallclock_allowed(ctx.path) {
        return;
    }
    for (i, line) in ctx.lines.iter().enumerate() {
        if ctx.is_test_line(i) {
            continue;
        }
        for word in ["Instant", "SystemTime", "UNIX_EPOCH"] {
            if has_ident(line, word) {
                findings.push(Finding::new(
                    "wallclock",
                    ctx.path,
                    i + 1,
                    format!(
                        "wall-clock access ({word}) outside experiments::telemetry \
                         and bench code; simulated time is sim_core::cycle, harness \
                         timing goes through telemetry::Stopwatch"
                    ),
                ));
            }
        }
    }
}

/// Panic-family tokens: any of these in a hot-reachable function
/// aborts a multi-hour sweep.
const PANIC_TOKENS: [&str; 6] = [
    ".unwrap()",
    ".expect(",
    "panic!",
    "unreachable!",
    "todo!",
    "unimplemented!",
];

/// Heap-allocation tokens: any of these in a hot-reachable function
/// stalls the replay loop on the allocator. Scratch memory belongs in
/// `cache_model::pool`, which is the one exempt module.
const ALLOC_TOKENS: [&str; 6] = [
    "Vec::new",
    "Box::new",
    "with_capacity",
    "to_vec",
    "vec!",
    "format!",
];

/// The one module allowed to allocate on behalf of the hot path: the
/// recycling buffer pool amortizes its allocations across replays by
/// design.
const ALLOC_EXEMPT_FILE: &str = "crates/cache/src/pool.rs";

/// Whether `line` contains `token`, with boundary rules per token
/// shape: plain identifiers match whole-ident, `!`-suffixed macros and
/// `::`-qualified constructors check the identifier edge they expose.
fn has_token(line: &str, token: &str) -> bool {
    if let Some(macro_name) = token.strip_suffix('!') {
        return find_ident(line, macro_name)
            .is_some_and(|pos| line.as_bytes().get(pos + macro_name.len()) == Some(&b'!'));
    }
    if let Some((_, name)) = token.split_once("::") {
        let bytes = line.as_bytes();
        let mut from = 0;
        while let Some(pos) = line[from..].find(token).map(|p| p + from) {
            let before_ok = pos == 0 || !is_ident_byte(bytes[pos - 1]);
            let end = pos + token.len();
            let after_ok = end >= bytes.len() || !is_ident_byte(bytes[end]);
            if before_ok && after_ok {
                return true;
            }
            from = pos + name.len().max(1);
        }
        return false;
    }
    if token.starts_with('.') {
        return line.contains(token);
    }
    has_ident(line, token)
}

/// The display spelling of a token in a diagnostic message.
fn token_label(token: &str) -> &str {
    token.trim_end_matches('(').trim_start_matches('.')
}

/// Runs the workspace graph rules: `transitive-panic` and
/// `hot-path-alloc`. `files[i]` must be the [`FileCtx`] of
/// `ws.files[i]` (same order the files were added).
///
/// Both rules BFS the approximate call graph from every definition
/// whose name is a registered hot entry point
/// ([`sim_core::registry::HOT_ENTRY_POINTS`]), never entering a
/// registered cold escape ([`sim_core::registry::COLD_FN_SUFFIXES`] —
/// guarded slow paths), then scan the body lines of each reached
/// function for the offending tokens. Every finding carries the
/// shortest call chain from the nearest entry point as its `path`
/// evidence.
#[must_use]
pub fn check_graph(ws: &Workspace, files: &[FileCtx<'_>]) -> Vec<Finding> {
    let adj = ws.call_graph();
    let parent = ws.reach(
        &adj,
        |f| sim_core::registry::hot_entry_point(&f.name),
        |f| sim_core::registry::cold_fn(&f.name),
    );
    let mut findings = Vec::new();
    for (idx, f) in ws.fns.iter().enumerate() {
        if parent[idx].is_none() {
            continue;
        }
        let Some(ctx) = files.get(f.file) else {
            continue;
        };
        let chain = ws.chain(&parent, idx);
        let root = chain
            .first()
            .and_then(|e| e.split(" (").next())
            .unwrap_or(&f.name)
            .to_owned();
        let exempt_alloc = ctx.path == ALLOC_EXEMPT_FILE;
        for li in f.body.0 - 1..f.body.1.min(ctx.lines.len()) {
            if ctx.is_test_line(li) {
                continue;
            }
            let line = &ctx.lines[li];
            for token in PANIC_TOKENS {
                if has_token(line, token) {
                    findings.push(
                        Finding::new(
                            "transitive-panic",
                            ctx.path,
                            li + 1,
                            format!(
                                "panicking call ({}) reachable from hot entry point \
                                 `{root}`; restructure to a total operation or waive \
                                 with a justification",
                                token_label(token),
                            ),
                        )
                        .with_path(chain.clone()),
                    );
                }
            }
            if exempt_alloc {
                continue;
            }
            for token in ALLOC_TOKENS {
                if has_token(line, token) {
                    findings.push(
                        Finding::new(
                            "hot-path-alloc",
                            ctx.path,
                            li + 1,
                            format!(
                                "heap allocation ({}) reachable from hot entry point \
                                 `{root}`; route scratch buffers through \
                                 cache_model::pool or hoist the allocation off the \
                                 replay path",
                                token_label(token),
                            ),
                        )
                        .with_path(chain.clone()),
                    );
                }
            }
        }
    }
    findings
}

/// `registry-drift`: every string literal spelling a machine-readable
/// schema identifier (`<family>-repro/<version>`) must match the
/// canonical identifier in [`sim_core::registry`]. A stale version
/// after a schema bump, or a new family never registered, both
/// surface here instead of in a downstream golden test. Test code is
/// exempt — deliberately wrong schemas are how parsers get negative
/// coverage.
fn registry_drift(ctx: &FileCtx<'_>, findings: &mut Vec<Finding>) {
    for (line, text) in ctx.strings {
        if ctx.is_test_line(line.saturating_sub(1)) {
            continue;
        }
        let bytes = text.as_bytes();
        let mut from = 0;
        while let Some(pos) = text[from..].find("-repro/").map(|p| p + from) {
            from = pos + "-repro/".len();
            // The family: the lowercase run immediately before the
            // marker, at an identifier boundary.
            let mut start = pos;
            while start > 0 && bytes[start - 1].is_ascii_lowercase() {
                start -= 1;
            }
            if start == pos || (start > 0 && is_ident_byte(bytes[start - 1])) {
                continue;
            }
            // The version: the digit run after the slash. A bare
            // `family-repro/` (a prefix check) has no version and
            // makes no canonicality claim.
            let vend = text[from..]
                .find(|c: char| !c.is_ascii_digit())
                .map_or(text.len(), |p| p + from);
            if vend == from {
                continue;
            }
            let family = &text[start..pos];
            let spelled = &text[start..vend];
            match sim_core::registry::canonical_schema(family) {
                Some(canon) if spelled == canon => {}
                Some(canon) => findings.push(Finding::new(
                    "registry-drift",
                    ctx.path,
                    *line,
                    format!(
                        "schema literal \"{spelled}\" is stale; the canonical \
                         {family} schema is \"{canon}\" (sim_core::registry)"
                    ),
                )),
                None => findings.push(Finding::new(
                    "registry-drift",
                    ctx.path,
                    *line,
                    format!(
                        "schema literal \"{spelled}\" names an unregistered family \
                         `{family}`; add it to sim_core::registry"
                    ),
                )),
            }
        }
    }
}

/// `probe-guard`: a `probe::emit` call either passes an inline
/// `ProbeEvent` literal (construction is trivially cheap; `emit`'s own
/// relaxed-load armed check suffices) or sits behind an explicit
/// `probe::active()` guard so no event-building work runs disarmed.
fn probe_guard(ctx: &FileCtx<'_>, findings: &mut Vec<Finding>) {
    // The probe module itself defines `emit` and its internals.
    if ctx.path == "crates/sim-core/src/probe.rs" {
        return;
    }
    for (i, line) in ctx.lines.iter().enumerate() {
        let Some(pos) = find_ident(line, "emit") else {
            continue;
        };
        let after = line[pos + 4..].trim_start();
        if !after.starts_with('(') {
            continue; // `emit` in a path or definition, not a call
        }
        let arg = after[1..].trim_start();
        // An argument that begins on the next line is handled by
        // peeking one line down.
        let arg = if arg.is_empty() {
            ctx.lines.get(i + 1).map(|l| l.trim_start()).unwrap_or("")
        } else {
            arg
        };
        let literal = arg.starts_with("probe::ProbeEvent::") || arg.starts_with("ProbeEvent::");
        let guarded = ctx.lines[i.saturating_sub(6)..=i]
            .iter()
            .any(|l| l.contains("probe::active()") || has_ident(l, "active"));
        if !literal && !guarded {
            findings.push(Finding::new(
                "probe-guard",
                ctx.path,
                i + 1,
                "probe emit with a precomputed event and no probe::active() guard \
                 in sight; pass an inline ProbeEvent literal or guard the \
                 event-building work"
                    .to_owned(),
            ));
        }
    }
}

/// `unseeded-rng`: no ambient-entropy randomness anywhere (tests
/// included) — every random stream flows from seeded `sim_core` RNGs
/// so runs replay bit-identically.
fn unseeded_rng(ctx: &FileCtx<'_>, findings: &mut Vec<Finding>) {
    const TOKENS: [&str; 4] = ["thread_rng", "from_entropy", "OsRng", "random"];
    for (i, line) in ctx.lines.iter().enumerate() {
        for word in TOKENS {
            if !has_ident(line, word) {
                continue;
            }
            // `random` alone is too common a word; only the `rand`
            // crate's free function is the hazard.
            if word == "random" && !line.contains("rand::random") {
                continue;
            }
            findings.push(Finding::new(
                "unseeded-rng",
                ctx.path,
                i + 1,
                format!(
                    "ambient-entropy randomness ({word}); all randomness must flow \
                     from seeded sim_core RNGs (e.g. rng::SplitMix64)"
                ),
            ));
        }
    }
}

/// `bench-prefix`: every criterion `benchmark_group` in bench code is
/// named by a string literal carrying a layer prefix registered in
/// [`sim_core::registry::BENCH_GROUP_PREFIXES`] (ROADMAP item 5: the
/// prefix names the layer a group exercises, so bench reports and CI
/// deltas stay navigable as groups accumulate). Bench files are
/// whole-file test context, so this rule deliberately reads every
/// line instead of consulting the test mask.
fn bench_prefix(ctx: &FileCtx<'_>, findings: &mut Vec<Finding>) {
    if !ctx.path.contains("/benches/") {
        return;
    }
    for (i, line) in ctx.lines.iter().enumerate() {
        if !has_ident(line, "benchmark_group") {
            continue;
        }
        // The group name is the first string literal starting on the
        // call line, or the next when the argument wraps.
        let name = ctx
            .strings
            .iter()
            .find(|(l, _)| *l == i + 1 || *l == i + 2)
            .map(|(_, s)| s.as_str());
        let registered = name.is_some_and(sim_core::registry::bench_group_registered);
        if registered {
            continue;
        }
        let message = match name {
            Some(n) => format!(
                "criterion group name \"{n}\" lacks a registered layer prefix \
                 (kernel_/trace_/probe_/sched_/figure_/substrate/)"
            ),
            None => "criterion group name is not a string literal on the call line; \
                     name groups with a literal carrying a registered layer prefix \
                     (kernel_/trace_/probe_/sched_/figure_/substrate/)"
                .to_owned(),
        };
        findings.push(Finding::new("bench-prefix", ctx.path, i + 1, message));
    }
}

/// `span-name`: every `span::enter(` / `span::scope(` call site names
/// its span with a static string literal carrying a component prefix
/// registered in [`sim_core::registry::SPAN_NAME_PREFIXES`] — the
/// exact list `sim_core::span::name_registered` enforces at runtime —
/// because dynamic names would defeat the `obs phases` aggregation
/// and the trace-verification CI step. The name is the first string
/// literal on the call line or within the next three lines (rustfmt
/// wraps the argument list of long `scope` calls, whose name is the
/// third argument, after the trace and the scope kind).
fn span_name(ctx: &FileCtx<'_>, findings: &mut Vec<Finding>) {
    // The span module itself defines `enter` and `scope`.
    if ctx.path == "crates/sim-core/src/span.rs" {
        return;
    }
    for (i, line) in ctx.lines.iter().enumerate() {
        if !line.contains("span::enter(") && !line.contains("span::scope(") {
            continue;
        }
        let name = ctx
            .strings
            .iter()
            .find(|(l, _)| (i + 1..=i + 4).contains(l))
            .map(|(_, s)| s.as_str());
        let registered = name.is_some_and(sim_core::registry::span_name_registered);
        if registered {
            continue;
        }
        let message = match name {
            Some(n) => format!(
                "span name \"{n}\" lacks a registered component prefix \
                 (cell_/fault_/fig_/probe_/replay_/sched_/sweep_)"
            ),
            None => "span name is not a string literal at the call site; name spans \
                     with a static literal carrying a registered component prefix \
                     (cell_/fault_/fig_/probe_/replay_/sched_/sweep_)"
                .to_owned(),
        };
        findings.push(Finding::new("span-name", ctx.path, i + 1, message));
    }
}

/// The process-wide statics `global-state` allows: pure counters and
/// caches that no run reads as configuration, keyed by file and name.
const GLOBAL_STATE_ALLOWED: [(&str, &str); 5] = [
    ("crates/experiments/src/telemetry.rs", "EVENTS_SIMULATED"),
    ("crates/experiments/src/telemetry.rs", "EPOCH"),
    ("crates/sim-core/src/parallel.rs", "NEXT_WORKER"),
    ("crates/sim-core/src/parallel.rs", "TALLIES"),
    ("crates/sim-core/src/fault.rs", "HOOK"),
];

/// `global-state`: no `static` of an `Atomic*`, `Mutex`, `RwLock` or
/// `OnceLock` type in non-test `sim-core` or `experiments` source,
/// outside [`GLOBAL_STATE_ALLOWED`]. Run settings (threads, probe,
/// trace, fault plan) and the records a run collects travel in the run
/// value; a process-wide static would let one run (or test) steer
/// another's.
fn global_state(ctx: &FileCtx<'_>, findings: &mut Vec<Finding>) {
    let scoped = ["crates/sim-core/src/", "crates/experiments/src/"];
    if !scoped.iter().any(|dir| ctx.path.starts_with(dir)) {
        return;
    }
    for (i, line) in ctx.lines.iter().enumerate() {
        // `static NAME: Type …`, not a `'static` lifetime.
        let decl = find_ident(line, "static")
            .filter(|&pos| pos == 0 || line.as_bytes()[pos - 1] != b'\'')
            .and_then(|pos| line[pos + "static".len()..].split_once(':'));
        let Some((name, ty)) = decl.filter(|_| !ctx.is_test_line(i)) else {
            continue;
        };
        let name = name.trim().trim_start_matches("mut ");
        // The type's own name, past any `std::sync::` path.
        let ty = ty.split(['<', '=', ';']).next().unwrap_or("").trim();
        let head = ty.rsplit("::").next().unwrap_or(ty);
        let global = head.starts_with("Atomic") || ["Mutex", "RwLock", "OnceLock"].contains(&head);
        if global && !GLOBAL_STATE_ALLOWED.contains(&(ctx.path, name)) {
            let message = format!(
                "process-wide `static {name}: {head}`; run settings and records \
                 travel in the run value (experiments::RunConfig), and only \
                 allowlisted counters and caches may be global"
            );
            findings.push(Finding::new("global-state", ctx.path, i + 1, message));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx_findings(path: &str, source: &str) -> Vec<Finding> {
        let scrubbed = crate::lexer::scrub(source);
        let mask = crate::test_line_mask(&scrubbed.lines, false);
        check_file(&FileCtx {
            path,
            lines: &scrubbed.lines,
            test_mask: &mask,
            strings: &scrubbed.strings,
        })
    }

    #[test]
    fn ident_boundaries_hold() {
        assert!(has_ident("use std::collections::HashMap;", "HashMap"));
        assert!(!has_ident("let m: FxHashMap<u64, u64>;", "HashMap"));
        assert!(!has_ident("emit_slow(&ev)", "emit"));
    }

    #[test]
    fn default_hasher_allows_explicit_hashers() {
        let ok = "pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;";
        assert!(ctx_findings("crates/x/src/lib.rs", ok).is_empty());
        let bad = "let m = HashMap::new();";
        assert_eq!(ctx_findings("crates/x/src/lib.rs", bad).len(), 1);
    }

    #[test]
    fn wallclock_allows_telemetry_and_benches() {
        let src = "let t = Instant::now();";
        assert!(ctx_findings("crates/experiments/src/telemetry.rs", src).is_empty());
        assert!(ctx_findings("crates/bench/benches/substrate.rs", src).is_empty());
        assert_eq!(ctx_findings("crates/cpu/src/baseline.rs", src).len(), 1);
    }

    #[test]
    fn token_boundaries_hold() {
        // unwrap_or is total, not a panic site.
        assert!(has_token("v.pop().unwrap()", ".unwrap()"));
        assert!(!has_token("v.pop().unwrap_or(0)", ".unwrap()"));
        assert!(has_token("let v = vec![0; n];", "vec!"));
        assert!(!has_token("let v = my_vec(n);", "vec!"));
        assert!(has_token("let v = Vec::new();", "Vec::new"));
        assert!(!has_token("let v = SmallVec::newish();", "Vec::new"));
        assert!(has_token("buf.to_vec()", "to_vec"));
        assert!(!has_token("buf.to_vector()", "to_vec"));
        assert!(has_token("Vec::with_capacity(8)", "with_capacity"));
    }

    #[test]
    fn registry_drift_checks_schema_literals() {
        // Canonical spellings are clean.
        let ok = format!(
            "const S: &str = \"{}\";\nlet h = \"{}\";",
            sim_core::registry::SCHEMA_BENCH,
            sim_core::registry::SCHEMA_OBS,
        );
        assert!(ctx_findings("crates/x/src/lib.rs", &ok).is_empty());
        // A stale version is drift.
        let stale = "const S: &str = \"bench-repro/1\";";
        let f = ctx_findings("crates/x/src/lib.rs", stale);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "registry-drift");
        assert!(f[0].message.contains("stale"), "{}", f[0].message);
        // An unknown family is drift.
        let unknown = "let s = \"mystery-repro/1\";";
        let f = ctx_findings("crates/x/src/lib.rs", unknown);
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("unregistered"), "{}", f[0].message);
        // A schema embedded in a larger literal (a JSON header) is
        // still checked.
        let embedded = "let h = \"{\\\"schema\\\":\\\"obs-repro/9\\\"}\";";
        assert_eq!(ctx_findings("crates/x/src/lib.rs", embedded).len(), 1);
        // A versionless prefix check makes no canonicality claim.
        let prefix = "if s.starts_with(\"bench-repro/\") {}";
        assert!(ctx_findings("crates/x/src/lib.rs", prefix).is_empty());
        // Test code may spell wrong schemas deliberately.
        let test = "#[cfg(test)]\nmod tests {\n    const S: &str = \"bench-repro/1\";\n}";
        assert!(ctx_findings("crates/x/src/lib.rs", test).is_empty());
    }

    #[test]
    fn probe_guard_accepts_literals_and_guards() {
        let lit = "probe::emit(probe::ProbeEvent::Access { hit: true });";
        assert!(ctx_findings("crates/cpu/src/baseline.rs", lit).is_empty());
        let guarded = "if probe::active() {\n    probe::emit(ev);\n}";
        assert!(ctx_findings("crates/cpu/src/baseline.rs", guarded).is_empty());
        let bare = "probe::emit(ev);";
        assert_eq!(ctx_findings("crates/cpu/src/baseline.rs", bare).len(), 1);
    }

    #[test]
    fn rng_rule_applies_even_in_tests() {
        let src = "#[cfg(test)]\nmod tests {\n    fn f() { let r = thread_rng(); }\n}";
        assert_eq!(ctx_findings("crates/x/src/lib.rs", src).len(), 1);
    }

    #[test]
    fn bench_prefix_requires_registered_layer() {
        let ok = "let mut g = c.benchmark_group(\"substrate/cache_kernel\");";
        assert!(ctx_findings("crates/bench/benches/substrate.rs", ok).is_empty());
        let figure = "let mut g = c.benchmark_group(\"figure_drivers\");";
        assert!(ctx_findings("crates/bench/benches/figures.rs", figure).is_empty());
        let bad = "let mut g = c.benchmark_group(\"misc\");";
        assert_eq!(
            ctx_findings("crates/bench/benches/substrate.rs", bad).len(),
            1
        );
        // A computed name cannot be checked and is flagged too.
        let dynamic = "let mut g = c.benchmark_group(&name);";
        assert_eq!(
            ctx_findings("crates/bench/benches/substrate.rs", dynamic).len(),
            1
        );
        // Out of scope outside bench files.
        assert!(ctx_findings("crates/bench/src/lib.rs", bad).is_empty());
    }

    #[test]
    fn bench_prefix_reads_wrapped_arguments() {
        let wrapped = "let mut g = c.benchmark_group(\n    \"substrate/pipeline\",\n);";
        assert!(ctx_findings("crates/bench/benches/substrate.rs", wrapped).is_empty());
        let wrapped_bad = "let mut g = c.benchmark_group(\n    \"misc\",\n);";
        assert_eq!(
            ctx_findings("crates/bench/benches/substrate.rs", wrapped_bad).len(),
            1
        );
    }

    #[test]
    fn span_name_requires_registered_literal() {
        let ok = "let _s = sim_core::span::enter(\"replay_block\");";
        assert!(ctx_findings("crates/x/src/lib.rs", ok).is_empty());
        let scope_ok =
            "span::scope(trace, ScopeKind::Figure, \"fig_fig1\", \"fig1\", String::new, f);";
        assert!(ctx_findings("crates/x/src/lib.rs", scope_ok).is_empty());
        // rustfmt-wrapped scope call: the name literal lands three
        // lines down.
        let wrapped = "sim_core::span::scope(\n    cfg.trace.as_ref(),\n    ScopeKind::Sweep,\n    \"sweep_repro\",\n    \"repro\",\n);";
        assert!(ctx_findings("crates/x/src/lib.rs", wrapped).is_empty());
        let bad = "let _s = crate::span::enter(\"mystery_phase\");";
        let findings = ctx_findings("crates/x/src/lib.rs", bad);
        assert_eq!(findings.len(), 1);
        assert!(findings[0].message.contains("mystery_phase"));
        // A computed name cannot be checked and is flagged too.
        let dynamic = "let _s = sim_core::span::enter(name);";
        assert_eq!(ctx_findings("crates/x/src/lib.rs", dynamic).len(), 1);
        // The span module itself is the definition site.
        assert!(ctx_findings("crates/sim-core/src/span.rs", bad).is_empty());
    }

    #[test]
    fn global_state_flags_sync_statics_outside_the_allowlist() {
        let src = "static ARMED: AtomicBool = AtomicBool::new(false);\n\
                   static STORE: std::sync::Mutex<Vec<u8>> = Mutex::new(Vec::new());\n\
                   pub static CACHE: OnceLock<u64> = OnceLock::new();\n\
                   static NAME: &'static str = \"x\";\n\
                   fn f(s: &'static str) {}";
        let findings = ctx_findings("crates/sim-core/src/lib.rs", src);
        assert_eq!(
            findings.iter().map(|f| f.line).collect::<Vec<_>>(),
            [1, 2, 3]
        );
        assert!(findings[1].message.contains("static STORE: Mutex"));
        // Other crates are out of scope; allowlisted counters pass.
        assert!(ctx_findings("crates/cache/src/pool.rs", src).is_empty());
        let tallies = "static TALLIES: Mutex<BTreeMap<u32, u64>> = Mutex::new(BTreeMap::new());";
        assert!(ctx_findings("crates/sim-core/src/parallel.rs", tallies).is_empty());
        assert_eq!(
            ctx_findings("crates/sim-core/src/fault.rs", tallies).len(),
            1
        );
    }

    #[test]
    fn test_regions_are_exempt_from_code_rules() {
        let src = "#[cfg(test)]\nmod tests {\n    use std::collections::HashMap;\n}";
        assert!(ctx_findings("crates/x/src/lib.rs", src).is_empty());
    }
}
