//! Golden tests for the lint pass itself.
//!
//! The fixtures under `tests/fixtures/` are linted through
//! [`simlint::lint_source`] under *synthetic* workspace paths — rule
//! applicability is path-driven, so a fixture can be checked as if it
//! lived on a hot kernel path without actually being compiled into
//! one. The rendered diagnostics are compared byte-for-byte against
//! `fixtures/golden_diagnostics.txt`.
//!
//! A separate self-check runs the real workspace pass over this
//! repository and requires it to come back clean — the same invariant
//! CI enforces via `cargo run -p simlint -- --json`.

use std::path::Path;

/// Every known-bad fixture with the synthetic path it is linted under.
/// Order here is the order of blocks in the golden file.
const BAD_FIXTURES: [(&str, &str); 11] = [
    ("bad_default_hasher.rs", "crates/x/src/lib.rs"),
    ("bad_wallclock.rs", "crates/cpu/src/baseline.rs"),
    ("bad_transitive_panic.rs", "crates/x/src/kernel.rs"),
    ("bad_hot_path_alloc.rs", "crates/x/src/kernel.rs"),
    ("bad_registry_drift.rs", "crates/x/src/lib.rs"),
    ("bad_probe_guard.rs", "crates/cpu/src/baseline.rs"),
    ("bad_unseeded_rng.rs", "crates/x/src/lib.rs"),
    ("bad_waiver.rs", "crates/x/src/lib.rs"),
    ("bad_bench_prefix.rs", "crates/bench/benches/micro.rs"),
    ("bad_span_name.rs", "crates/x/src/lib.rs"),
    ("bad_global_state.rs", "crates/sim-core/src/run.rs"),
];

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    match std::fs::read_to_string(&path) {
        Ok(text) => text,
        Err(err) => panic!("cannot read fixture {}: {err}", path.display()),
    }
}

#[test]
fn bad_fixtures_match_golden_diagnostics() {
    let mut rendered = String::new();
    for (name, synthetic_path) in BAD_FIXTURES {
        let (findings, waived) = simlint::lint_source(synthetic_path, &fixture(name));
        assert!(
            !findings.is_empty(),
            "{name} must trip its rule under {synthetic_path}"
        );
        assert_eq!(waived, 0, "{name} has no waivers");
        rendered.push_str(&format!("# {name}\n"));
        for f in &findings {
            rendered.push_str(&f.render());
            rendered.push('\n');
        }
        rendered.push('\n');
    }
    let golden_path =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/golden_diagnostics.txt");
    if std::env::var_os("SIMLINT_BLESS").is_some() {
        std::fs::write(&golden_path, &rendered).expect("rewrite golden file");
        return;
    }
    let golden = include_str!("fixtures/golden_diagnostics.txt");
    assert_eq!(
        rendered, golden,
        "fixture diagnostics drifted from fixtures/golden_diagnostics.txt \
         (rerun with SIMLINT_BLESS=1 to accept)"
    );
}

#[test]
fn each_rule_is_covered_by_a_fixture() {
    // Every rule the engine knows must have at least one fixture that
    // trips it, so a new rule cannot land untested.
    let mut tripped: Vec<&'static str> = Vec::new();
    for (name, synthetic_path) in BAD_FIXTURES {
        let (findings, _) = simlint::lint_source(synthetic_path, &fixture(name));
        tripped.extend(findings.iter().map(|f| f.rule));
    }
    for rule in simlint::rules::RULE_NAMES {
        assert!(tripped.contains(&rule), "no fixture trips rule `{rule}`");
    }
}

#[test]
fn waived_fixture_is_clean_with_one_waiver() {
    let (findings, waived) =
        simlint::lint_source("crates/cpu/src/baseline.rs", &fixture("waived.rs"));
    assert!(
        findings.is_empty(),
        "waiver must suppress the finding: {findings:?}"
    );
    assert_eq!(waived, 1);
}

#[test]
fn clean_fixture_is_clean_everywhere() {
    // Linted under the hot kernel path so every path-scoped rule is
    // armed; a clean file must produce neither findings nor waivers.
    let (findings, waived) =
        simlint::lint_source("crates/cache/src/cache.rs", &fixture("clean.rs"));
    assert!(findings.is_empty(), "clean fixture flagged: {findings:?}");
    assert_eq!(waived, 0);
}

#[test]
fn workspace_self_check_is_clean() {
    // The shipped tree must lint clean — the invariant CI enforces.
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let report = match simlint::lint_workspace(&root) {
        Ok(report) => report,
        Err(err) => panic!("workspace lint failed: {err}"),
    };
    assert!(
        report.is_clean(),
        "workspace has lint findings:\n{}",
        report.render_human()
    );
    assert!(
        report.files_scanned > 50,
        "workspace walk looks truncated: {} files",
        report.files_scanned
    );
}

#[test]
fn walker_skips_fixtures_vendor_and_target() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let files = match simlint::workspace_files(&root) {
        Ok(files) => files,
        Err(err) => panic!("workspace walk failed: {err}"),
    };
    assert!(files
        .iter()
        .any(|(rel, _)| rel == "crates/simlint/src/lib.rs"));
    for (rel, _) in &files {
        assert!(
            !rel.contains("fixtures/")
                && !rel.starts_with("vendor/")
                && !rel.starts_with("target/"),
            "walker must skip {rel}"
        );
    }
}
