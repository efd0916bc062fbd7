//! The `simlint` command-line entry point.
//!
//! ```text
//! simlint [--json] [--root PATH]
//! simlint loc [--files] [--root PATH]
//! ```
//!
//! Scans the workspace's Rust sources (skipping `vendor/`, `target/`,
//! and test fixtures) against the rule set in [`simlint::rules`].
//! Exits 0 on a clean tree, 1 when findings remain, 2 on usage or I/O
//! errors. `--json` emits the `lint-repro/2` JSONL document instead of
//! human diagnostics. `loc` prints non-test code lines per crate (per
//! file with `--files`) and exits 0.

use std::path::PathBuf;
use std::process::ExitCode;

/// The usage text. Printed to stdout (exit 0) when help is asked for,
/// to stderr (exit 2) when the invocation was malformed.
fn usage_text() -> String {
    format!(
        "usage: simlint [--json] [--root PATH]\n\
         \u{20}      simlint loc [--files] [--root PATH]\n\
         \n\
         --json        machine-readable output (schema {})\n\
         loc           non-test code lines per crate\n\
         --files       with loc: one row per file\n\
         --root PATH   workspace root to scan (default: nearest ancestor\n\
         \u{20}             of the current directory with a [workspace] manifest)",
        simlint::SCHEMA,
    )
}

fn usage() -> ExitCode {
    eprintln!("{}", usage_text());
    ExitCode::from(2)
}

/// Whether a `Cargo.toml` manifest declares a `[workspace]` table.
///
/// Lexes the manifest line-wise instead of substring-matching the
/// whole text: a table header only counts when it *begins* its line
/// (TOML permits leading whitespace and a trailing comment, nothing
/// else), so `[workspace]` mentioned inside a comment or a string —
/// e.g. a crate description quoting this very tool — no longer makes
/// a member crate look like the root.
fn declares_workspace(manifest: &str) -> bool {
    manifest.lines().any(|line| {
        let line = line.trim_start();
        let Some(rest) = line.strip_prefix("[workspace]") else {
            return false;
        };
        let rest = rest.trim_start();
        rest.is_empty() || rest.starts_with('#')
    })
}

/// The nearest ancestor directory whose `Cargo.toml` declares a
/// `[workspace]` — where `cargo run -p simlint` leaves the working
/// directory, or wherever in the tree a human invokes it from.
fn find_workspace_root() -> Option<PathBuf> {
    let mut dir = std::env::current_dir().ok()?;
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if declares_workspace(&text) {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

fn main() -> ExitCode {
    let mut json = false;
    let mut loc = false;
    let mut files = false;
    let mut root: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1).peekable();
    if args.peek().is_some_and(|arg| arg == "loc") {
        loc = true;
        args.next();
    }
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" if !loc => json = true,
            "--files" if loc => files = true,
            "--root" => match args.next() {
                Some(path) => root = Some(PathBuf::from(path)),
                None => return usage(),
            },
            "-h" | "--help" => {
                println!("{}", usage_text());
                return ExitCode::SUCCESS;
            }
            _ => return usage(),
        }
    }
    let Some(root) = root.or_else(find_workspace_root) else {
        eprintln!("simlint: no workspace root found (pass --root)");
        return ExitCode::from(2);
    };

    if loc {
        return match simlint::loc::report(&root, files) {
            Ok(table) => {
                print!("{table}");
                ExitCode::SUCCESS
            }
            Err(msg) => {
                eprintln!("simlint: {msg}");
                ExitCode::from(2)
            }
        };
    }
    match simlint::lint_workspace(&root) {
        Ok(report) => {
            if json {
                print!("{}", report.render_json());
            } else {
                print!("{}", report.render_human());
            }
            if report.is_clean() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(msg) => {
            eprintln!("simlint: {msg}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::declares_workspace;

    #[test]
    fn workspace_header_must_begin_a_line() {
        assert!(declares_workspace("[workspace]\nmembers = []\n"));
        assert!(declares_workspace("  [workspace]  # root\n"));
        assert!(declares_workspace(
            "[package]\nname = \"x\"\n\n[workspace]\n"
        ));
        // Mentions inside comments or strings are not declarations.
        assert!(!declares_workspace(
            "# the [workspace] table lives upstairs\n"
        ));
        assert!(!declares_workspace(
            "description = \"finds the [workspace] root\"\n"
        ));
        // A longer table name is not the workspace table.
        assert!(!declares_workspace("[workspace.metadata.x]\nkey = 1\n"));
    }
}
