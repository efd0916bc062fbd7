//! Retrying file I/O for the harness's JSON/JSONL artifacts.
//!
//! Every artifact the `repro` harness persists (bench report, probe
//! JSONL, span trace, MRC curves) goes through [`write_with_retry`],
//! so a transient I/O error gets a few bounded retries instead of
//! failing the whole sweep on the first hiccup.

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Duration;

/// Attempts [`write_with_retry`] makes before it gives up.
const ATTEMPTS: u32 = 5;

/// Backoff before the first retry, microseconds; it doubles per retry.
const BASE_DELAY_MICROS: u64 = 50;

/// Backoff ceiling, microseconds.
const MAX_DELAY_MICROS: u64 = 2_000;

/// The backoff before retry `attempt` (1-based): the base delay
/// doubled `attempt - 1` times, capped at the ceiling.
fn backoff(attempt: u32) -> Duration {
    let shift = attempt.saturating_sub(1).min(20);
    Duration::from_micros((BASE_DELAY_MICROS << shift).min(MAX_DELAY_MICROS))
}

/// Writes the bytes `render` produces to `path`, retrying a failed
/// attempt with a doubling backoff, up to five attempts in all.
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
/// once every attempt has failed.
pub fn write_with_retry(
    path: &Path,
    mut render: impl FnMut(&mut dyn Write) -> io::Result<()>,
) -> io::Result<()> {
    let mut attempt = 0u32;
    loop {
        attempt += 1;
        match write_once(path, &mut render) {
            Ok(()) => return Ok(()),
            Err(err) if attempt >= ATTEMPTS => return Err(err),
            Err(_) => std::thread::sleep(backoff(attempt)),
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
        write_with_retry(&path, text("one")).unwrap();
        write_with_retry(&path, text("two")).unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "two");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unwritable_path_errors_after_retries() {
        let err = write_with_retry(Path::new("/nonexistent-root-dir/x/y.json"), text("data"))
            .expect_err("path cannot exist");
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
    }

    #[test]
    fn a_render_failing_halfway_is_retried_on_a_truncated_file() {
        let dir = scratch("half");
        let path = dir.join("stream.jsonl");
        let full: String = (0..10_000).map(|i| format!("{{\"line\":{i}}}\n")).collect();
        let mut attempts = 0;
        write_with_retry(&path, |out| {
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
    fn backoff_schedule_doubles_and_caps() {
        assert_eq!(backoff(1), Duration::from_micros(50));
        assert_eq!(backoff(2), Duration::from_micros(100));
        assert_eq!(backoff(3), Duration::from_micros(200));
        assert_eq!(backoff(4), Duration::from_micros(400));
        assert_eq!(backoff(6), Duration::from_micros(1_600));
        assert_eq!(backoff(7), Duration::from_micros(2_000));
        assert_eq!(backoff(40), Duration::from_micros(2_000));
    }
}
