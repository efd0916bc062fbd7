//! `simlint loc`: non-test code lines per crate.
//!
//! A line counts when it holds code: after [`lexer::scrub`] blanks
//! comments and literal contents, the line is not blank, or it lies
//! inside a multi-line string literal and is not blank in the source.
//! Lines of `#[cfg(test)]` / `#[test]` items ([`test_line_mask`]) and
//! whole test, bench and example files count zero.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

use crate::{lexer, test_context_path, test_line_mask, workspace_files};

/// The non-test code lines of one source file at a workspace-relative
/// `path`.
#[must_use]
pub fn code_lines(path: &str, source: &str) -> usize {
    if test_context_path(path) {
        return 0;
    }
    let scrubbed = lexer::scrub(source);
    let mask = test_line_mask(&scrubbed.lines, false);
    // 1-based lines that continue a string literal begun above them.
    let mut in_string = vec![false; scrubbed.lines.len() + 2];
    for (start, text) in &scrubbed.strings {
        let newlines = text.matches('\n').count();
        for flag in &mut in_string[start + 1..=start + newlines] {
            *flag = true;
        }
    }
    let original: Vec<&str> = source.lines().collect();
    scrubbed
        .lines
        .iter()
        .enumerate()
        .filter(|&(i, line)| {
            let literal = in_string[i + 1] && original.get(i).is_some_and(|l| !l.trim().is_empty());
            !mask[i] && (!line.trim().is_empty() || literal)
        })
        .count()
}

/// The unit a file is counted under: `crates/<dir>` for a member
/// crate, else the file's top-level directory (`src` is the root
/// package).
#[must_use]
pub fn unit(path: &str) -> &str {
    let mut parts = path.splitn(3, '/');
    match (parts.next(), parts.next()) {
        (Some("crates"), Some(dir)) => &path[.."crates/".len() + dir.len()],
        (Some(top), Some(_)) => top,
        _ => ".",
    }
}

/// Counts every workspace source under `root` (as [`workspace_files`]
/// finds them) and renders the table: one row per unit with code
/// lines, or per file when `files` is set, then the total.
///
/// # Errors
///
/// Returns an error message if the tree cannot be walked or a file
/// cannot be read.
pub fn report(root: &Path, files: bool) -> Result<String, String> {
    let mut rows: BTreeMap<String, usize> = BTreeMap::new();
    for (rel, abs) in workspace_files(root)? {
        let source = std::fs::read_to_string(&abs)
            .map_err(|e| format!("cannot read {}: {e}", abs.display()))?;
        let key = if files {
            rel.clone()
        } else {
            unit(&rel).to_owned()
        };
        *rows.entry(key).or_default() += code_lines(&rel, &source);
    }
    rows.retain(|_, n| *n > 0);
    let width = rows.keys().map(String::len).max().unwrap_or(0).max(5);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:width$}  code lines",
        if files { "file" } else { "crate" }
    );
    for (key, n) in &rows {
        let _ = writeln!(out, "{key:width$}  {n:>10}");
    }
    let _ = writeln!(
        out,
        "{:width$}  {:>10}",
        "total",
        rows.values().sum::<usize>()
    );
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_code_outside_tests_comments_and_blanks() {
        let source = "\
//! Crate docs.

/// A doc comment.
pub const USAGE: &str = \"usage: x
  --flag   a continuation line of the literal\";

/* a block
   comment */
pub fn f() -> u64 {
    1 // trailing comment
}

#[cfg(test)]
mod tests {
    #[test]
    fn t() {}
}
";
        // `USAGE` (2 lines), `fn f` (3 lines).
        assert_eq!(code_lines("crates/x/src/lib.rs", source), 5);
        assert_eq!(code_lines("crates/x/tests/it.rs", source), 0);
        assert_eq!(code_lines("examples/demo.rs", source), 0);
        assert_eq!(unit("crates/amb/src/lib.rs"), "crates/amb");
        assert_eq!(unit("src/lib.rs"), "src");
        assert_eq!(unit("perf/src/main.rs"), "perf");
        assert_eq!(unit("build.rs"), ".");
    }
}
