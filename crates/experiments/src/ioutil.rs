//! Fault-aware file I/O for the harness's JSON/JSONL artifacts.
//!
//! Every artifact the `repro` harness persists (bench report, probe
//! JSONL, checkpoint lines) goes through this module so that (a) the
//! [`sim_core::fault::FaultSite::JsonlWrite`] injection site covers
//! all of them uniformly, and (b) *real* transient I/O errors get the
//! same bounded-retry treatment injected ones do, instead of failing
//! the whole sweep on the first hiccup.

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;

use sim_core::fault::{FaultSite, FaultState};

/// Writes the bytes `render` produces to `path`, retrying transient
/// failures with the run's fault plan's deterministic backoff (or the
/// default policy's, without a plan).
///
/// Each attempt truncates the file and runs `render` into a buffered
/// writer on it, so a document is streamed to disk rather than built
/// in memory, and a failed attempt's partial output never survives a
/// retry. A caller holding a string passes
/// `|out| out.write_all(s.as_bytes())`.
///
/// # Errors
///
/// Returns the last I/O error (from opening, rendering or flushing)
/// once the retry budget is exhausted, or the injected fault's error
/// when a persistent fault plan defeats every retry at the
/// [`FaultSite::JsonlWrite`] gate.
pub fn write_with_retry(
    fault: &FaultState,
    path: &Path,
    mut render: impl FnMut(&mut dyn Write) -> io::Result<()>,
) -> io::Result<()> {
    // Injection site: a transient fault retries inside the gate and
    // falls through to the real write; a persistent one surfaces here
    // as the error a dying disk would produce.
    fault
        .gate(FaultSite::JsonlWrite)
        .map_err(io::Error::other)?;
    let budget = fault.io_retry_attempts();
    let mut attempt = 0u32;
    loop {
        attempt += 1;
        match write_once(path, &mut render) {
            Ok(()) => return Ok(()),
            Err(err) if attempt >= budget => return Err(err),
            Err(_) => fault.backoff(attempt),
        }
    }
}

/// One attempt: truncate, render, flush. The flush is explicit because
/// dropping a `BufWriter` discards its error.
fn write_once(
    path: &Path,
    render: &mut impl FnMut(&mut dyn Write) -> io::Result<()>,
) -> io::Result<()> {
    let mut out = BufWriter::new(File::create(path)?);
    render(&mut out)?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::fault::{FaultPlan, RetryPolicy};

    fn scratch(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("ioutil_{name}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn text(s: &'static str) -> impl FnMut(&mut dyn Write) -> io::Result<()> {
        move |out| out.write_all(s.as_bytes())
    }

    #[test]
    fn writes_and_overwrites() {
        let dir = scratch("overwrite");
        let path = dir.join("artifact.json");
        let faults = FaultState::default();
        write_with_retry(&faults, &path, text("one")).unwrap();
        write_with_retry(&faults, &path, text("two")).unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "two");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unwritable_path_errors_after_retries() {
        let faults = FaultState::default();
        let err = write_with_retry(
            &faults,
            Path::new("/nonexistent-root-dir/x/y.json"),
            text("data"),
        )
        .expect_err("path cannot exist");
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
    }

    #[test]
    fn a_render_failing_halfway_is_retried_on_a_truncated_file() {
        let dir = scratch("half");
        let path = dir.join("stream.jsonl");
        let full: String = (0..10_000).map(|i| format!("{{\"line\":{i}}}\n")).collect();
        let mut attempts = 0;
        write_with_retry(&FaultState::default(), &path, |out| {
            attempts += 1;
            if attempts == 1 {
                // More than the buffer holds, so part of it reaches
                // the file before the failure.
                out.write_all(&full.as_bytes()[..full.len() / 2])?;
                return Err(io::Error::other("disk hiccup"));
            }
            out.write_all(full.as_bytes())
        })
        .unwrap();
        assert_eq!(attempts, 2);
        assert_eq!(std::fs::read_to_string(&path).unwrap(), full);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_persistent_jsonl_write_plan_surfaces_as_an_error() {
        let dir = scratch("persistent");
        let path = dir.join("never.jsonl");
        let plan = FaultPlan::new(7, 1.0)
            .with_sites(&[FaultSite::JsonlWrite])
            .persistent()
            .with_retry(RetryPolicy {
                max_attempts: 3,
                base_delay_micros: 0,
                max_delay_micros: 0,
            });
        let mut rendered = false;
        let err = write_with_retry(&FaultState::new(Some(plan)), &path, |out| {
            rendered = true;
            out.write_all(b"x")
        })
        .expect_err("a persistent plan defeats every retry");
        assert!(err.to_string().contains("jsonl-write"), "got: {err}");
        assert!(!rendered, "the gate fails before any attempt");
        assert!(!path.exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
