//! Fault-aware file I/O for the harness's JSON/JSONL artifacts.
//!
//! Every artifact the `repro` harness persists (bench report, probe
//! JSONL, checkpoint lines) goes through this module so that (a) the
//! [`sim_core::fault::FaultSite::JsonlWrite`] injection site covers
//! all of them uniformly, and (b) *real* transient I/O errors get the
//! same bounded-retry treatment injected ones do, instead of failing
//! the whole sweep on the first hiccup.

use std::io;
use std::path::Path;

use sim_core::fault::{FaultSite, FaultState};

/// Writes `contents` to `path`, retrying transient failures with the
/// run's fault plan's deterministic backoff (or the default policy's,
/// without a plan).
///
/// # Errors
///
/// Returns the last I/O error once the retry budget is exhausted, or
/// the injected fault's error when a persistent fault plan defeats
/// every retry at the [`FaultSite::JsonlWrite`] gate.
pub fn write_with_retry(fault: &FaultState, path: &Path, contents: &str) -> io::Result<()> {
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
        match std::fs::write(path, contents) {
            Ok(()) => return Ok(()),
            Err(err) if attempt >= budget => return Err(err),
            Err(_) => fault.backoff(attempt),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_and_overwrites() {
        let dir = std::env::temp_dir().join("ioutil_write_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("artifact.json");
        let faults = FaultState::default();
        write_with_retry(&faults, &path, "one").unwrap();
        write_with_retry(&faults, &path, "two").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "two");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unwritable_path_errors_after_retries() {
        let faults = FaultState::default();
        let err = write_with_retry(&faults, Path::new("/nonexistent-root-dir/x/y.json"), "data")
            .expect_err("path cannot exist");
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
    }
}
