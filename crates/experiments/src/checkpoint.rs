//! Checkpoint/resume for the `repro` sweep: completed figure cells
//! persisted as `fault-repro/1` JSONL so a killed run continues where
//! it died.
//!
//! # Format (`fault-repro/1`)
//!
//! One header line, then one line per completed cell, appended (and
//! flushed) as each cell finishes:
//!
//! ```text
//! {"schema":"fault-repro/1","events_per_workload":2000,"targets":["fig1","fig2"]}
//! {"type":"cell","target":"fig1","status":"ok","events":144000,"rendered":"..."}
//! {"type":"cell","target":"fig2","status":"degraded","events":0,"rendered":"...","message":"..."}
//! ```
//!
//! `rendered` is the cell's full stdout table (JSON-escaped), so a
//! resumed run can reprint checkpointed cells byte-identically without
//! re-running them — the basis of the resume golden test.
//!
//! The loader is deliberately tolerant: a missing file, wrong schema,
//! mismatched `events_per_workload`, or a torn/corrupt tail (the
//! expected shape after a kill mid-write) never fails the run — bad
//! lines are skipped with a warning and the affected cells simply
//! re-run. The last line per target wins, and only `ok` cells are
//! skippable on `--resume`; `degraded` ones get a fresh chance.

use std::fmt::Write as _;
use std::fs::File;
use std::io::{self, Write as _};
use std::path::Path;
use std::sync::{Mutex, PoisonError};

use sim_core::fault::{FaultSite, FaultState};

use crate::jsonl::{self, Value};
use crate::telemetry::json_string;

/// The checkpoint schema identifier.
pub const SCHEMA: &str = sim_core::registry::SCHEMA_FAULT;

/// How a checkpointed cell ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellStatus {
    /// The cell completed and `rendered` holds its full output.
    Ok,
    /// The cell exhausted its retry budget; `rendered` holds the
    /// placeholder the sweep printed and `message` says why.
    Degraded,
}

impl CellStatus {
    /// The schema's `status` field value.
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            CellStatus::Ok => "ok",
            CellStatus::Degraded => "degraded",
        }
    }

    /// Parses a `status` field value.
    #[must_use]
    pub fn parse(name: &str) -> Option<CellStatus> {
        match name {
            "ok" => Some(CellStatus::Ok),
            "degraded" => Some(CellStatus::Degraded),
            _ => None,
        }
    }
}

/// One completed (or degraded) figure cell.
#[derive(Debug, Clone, PartialEq)]
pub struct CellEntry {
    /// Canonical target name (`fig1`, …).
    pub target: String,
    /// How the cell ended.
    pub status: CellStatus,
    /// Simulated events the cell accounted for (0 when degraded).
    pub events: u64,
    /// The cell's full stdout rendering (table text, or the degraded
    /// placeholder line).
    pub rendered: String,
    /// Failure description, for degraded cells.
    pub message: Option<String>,
}

impl CellEntry {
    fn to_line(&self) -> String {
        let mut line = format!(
            "{{\"type\":\"cell\",\"target\":{},\"status\":{},\"events\":{},\"rendered\":{}",
            json_string(&self.target),
            json_string(self.status.name()),
            self.events,
            json_string(&self.rendered),
        );
        if let Some(message) = &self.message {
            let _ = write!(line, ",\"message\":{}", json_string(message));
        }
        line.push('}');
        line
    }

    fn from_value(v: &Value) -> Option<CellEntry> {
        if v.str_field("type") != Some("cell") {
            return None;
        }
        Some(CellEntry {
            target: v.str_field("target")?.to_owned(),
            status: CellStatus::parse(v.str_field("status")?)?,
            events: v.u64_field("events")?,
            rendered: v.str_field("rendered")?.to_owned(),
            message: v.str_field("message").map(str::to_owned),
        })
    }
}

fn header_line(events_per_workload: usize, targets: &[&str]) -> String {
    let mut line = format!(
        "{{\"schema\":{},\"events_per_workload\":{events_per_workload},\"targets\":[",
        json_string(SCHEMA),
    );
    for (i, t) in targets.iter().enumerate() {
        if i > 0 {
            line.push(',');
        }
        line.push_str(&json_string(t));
    }
    line.push_str("]}");
    line
}

/// An incremental checkpoint file: one cell appended and flushed per
/// [`CheckpointWriter::record`], so the file is valid (modulo at most
/// one torn tail line) at every instant a kill could land.
#[derive(Debug)]
pub struct CheckpointWriter {
    state: Mutex<WriterState>,
}

#[derive(Debug)]
struct WriterState {
    file: File,
    recorded: u64,
}

impl CheckpointWriter {
    /// Creates (truncating) a checkpoint at `path` with a fresh
    /// header.
    ///
    /// # Errors
    ///
    /// Any error creating or writing the file.
    pub fn create(path: &Path, events_per_workload: usize, targets: &[&str]) -> io::Result<Self> {
        Self::with_preserved(path, events_per_workload, targets, &[])
    }

    /// Rewrites the checkpoint at `path` with a fresh header plus the
    /// `preserved` cells carried over from a previous run, leaving the
    /// file open for appending this run's cells after them.
    ///
    /// # Errors
    ///
    /// Any error creating or writing the file.
    pub fn with_preserved(
        path: &Path,
        events_per_workload: usize,
        targets: &[&str],
        preserved: &[CellEntry],
    ) -> io::Result<Self> {
        let mut file = File::create(path)?;
        writeln!(file, "{}", header_line(events_per_workload, targets))?;
        for cell in preserved {
            writeln!(file, "{}", cell.to_line())?;
        }
        file.flush()?;
        Ok(CheckpointWriter {
            state: Mutex::new(WriterState {
                file,
                recorded: preserved.len() as u64,
            }),
        })
    }

    /// Appends and flushes one completed cell, returning the total
    /// number of cells now in the file (preserved + recorded) — the
    /// counter `--crash-after` compares against.
    ///
    /// # Errors
    ///
    /// The write/flush error, or the injected fault when a persistent
    /// plan in `fault` defeats every retry at the
    /// [`FaultSite::JsonlWrite`] gate.
    pub fn record(&self, fault: &FaultState, cell: &CellEntry) -> io::Result<u64> {
        // Injection site: same gate as every other artifact write.
        fault
            .gate(FaultSite::JsonlWrite)
            .map_err(io::Error::other)?;
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        writeln!(state.file, "{}", cell.to_line())?;
        state.file.flush()?;
        state.recorded += 1;
        Ok(state.recorded)
    }
}

/// What [`load`] recovered from an existing checkpoint.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Loaded {
    /// Usable cells, last line per target winning, in file order of
    /// each target's final appearance.
    pub cells: Vec<CellEntry>,
    /// Human-readable notes about anything skipped or reset (torn
    /// lines, schema/parameter mismatches). Empty on a clean load.
    pub warnings: Vec<String>,
}

/// Reads the checkpoint at `path`, tolerating every corruption a kill
/// can produce. Returns no cells (with a warning where applicable)
/// when the file is missing, has a foreign schema, or was written for
/// a different `--events` setting; otherwise returns the last recorded
/// entry per target, skipping torn or malformed lines individually.
#[must_use]
pub fn load(path: &Path, expected_events: usize) -> Loaded {
    let mut out = Loaded::default();
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(err) if err.kind() == io::ErrorKind::NotFound => return out,
        Err(err) => {
            out.warnings.push(format!(
                "checkpoint {} unreadable ({err}); starting fresh",
                path.display()
            ));
            return out;
        }
    };
    let mut lines = text.lines().enumerate();
    let Some((_, first)) = lines.next() else {
        out.warnings.push(format!(
            "checkpoint {} is empty; starting fresh",
            path.display()
        ));
        return out;
    };
    let header = match jsonl::parse(first) {
        Ok(v) if v.str_field("schema") == Some(SCHEMA) => v,
        _ => {
            out.warnings.push(format!(
                "checkpoint {} has no {SCHEMA} header; starting fresh",
                path.display()
            ));
            return out;
        }
    };
    if header.u64_field("events_per_workload") != Some(expected_events as u64) {
        out.warnings.push(format!(
            "checkpoint {} was written for --events {}, this run uses {}; starting fresh",
            path.display(),
            header
                .u64_field("events_per_workload")
                .map_or_else(|| "?".to_owned(), |n| n.to_string()),
            expected_events,
        ));
        return out;
    }
    for (i, line) in lines {
        if line.trim().is_empty() {
            continue;
        }
        let cell = jsonl::parse(line)
            .ok()
            .as_ref()
            .and_then(CellEntry::from_value);
        match cell {
            Some(cell) => {
                // Last line per target wins (a degraded cell later
                // re-recorded as ok, or vice versa).
                out.cells.retain(|c| c.target != cell.target);
                out.cells.push(cell);
            }
            None => out.warnings.push(format!(
                "checkpoint {} line {}: unparseable (torn write?); cell will re-run",
                path.display(),
                i + 1,
            )),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("checkpoint_unit_tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn ok_cell(target: &str, rendered: &str) -> CellEntry {
        CellEntry {
            target: target.to_owned(),
            status: CellStatus::Ok,
            events: 1000,
            rendered: rendered.to_owned(),
            message: None,
        }
    }

    #[test]
    fn write_then_load_round_trips() {
        let path = temp_path("round_trip.jsonl");
        let writer = CheckpointWriter::create(&path, 2000, &["fig1", "fig2"]).unwrap();
        assert_eq!(
            writer
                .record(&FaultState::default(), &ok_cell("fig1", "line a\nline b\n"))
                .unwrap(),
            1
        );
        let degraded = CellEntry {
            target: "fig2".to_owned(),
            status: CellStatus::Degraded,
            events: 0,
            rendered: "fig2: degraded\n".to_owned(),
            message: Some("injected worker fault persisted".to_owned()),
        };
        assert_eq!(writer.record(&FaultState::default(), &degraded).unwrap(), 2);
        drop(writer);

        let loaded = load(&path, 2000);
        assert!(loaded.warnings.is_empty(), "{:?}", loaded.warnings);
        assert_eq!(loaded.cells.len(), 2);
        assert_eq!(loaded.cells[0], ok_cell("fig1", "line a\nline b\n"));
        assert_eq!(loaded.cells[1], degraded);
    }

    #[test]
    fn last_entry_per_target_wins() {
        let path = temp_path("last_wins.jsonl");
        let writer = CheckpointWriter::create(&path, 100, &["fig1"]).unwrap();
        let mut first = ok_cell("fig1", "old");
        first.status = CellStatus::Degraded;
        writer.record(&FaultState::default(), &first).unwrap();
        writer
            .record(&FaultState::default(), &ok_cell("fig1", "new"))
            .unwrap();
        drop(writer);
        let loaded = load(&path, 100);
        assert_eq!(loaded.cells, vec![ok_cell("fig1", "new")]);
    }

    #[test]
    fn resume_preserves_prior_cells() {
        let path = temp_path("preserve.jsonl");
        let keep = ok_cell("fig1", "kept");
        let writer = CheckpointWriter::with_preserved(
            &path,
            100,
            &["fig1", "fig3"],
            std::slice::from_ref(&keep),
        )
        .unwrap();
        assert_eq!(
            writer
                .record(&FaultState::default(), &ok_cell("fig3", "fresh"))
                .unwrap(),
            2
        );
        drop(writer);
        let loaded = load(&path, 100);
        assert_eq!(loaded.cells, vec![keep, ok_cell("fig3", "fresh")]);
    }

    #[test]
    fn missing_file_is_a_clean_fresh_start() {
        let loaded = load(Path::new("/definitely/not/here.jsonl"), 100);
        assert!(loaded.cells.is_empty());
        assert!(loaded.warnings.is_empty());
    }

    #[test]
    fn torn_tail_skips_only_the_bad_line() {
        let path = temp_path("torn.jsonl");
        let writer = CheckpointWriter::create(&path, 100, &["fig1"]).unwrap();
        writer
            .record(&FaultState::default(), &ok_cell("fig1", "good"))
            .unwrap();
        drop(writer);
        // Simulate a kill mid-write: append half a line.
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str("{\"type\":\"cell\",\"target\":\"fig2\",\"stat");
        std::fs::write(&path, text).unwrap();

        let loaded = load(&path, 100);
        assert_eq!(loaded.cells, vec![ok_cell("fig1", "good")]);
        assert_eq!(loaded.warnings.len(), 1);
        assert!(
            loaded.warnings[0].contains("torn write"),
            "{:?}",
            loaded.warnings
        );
    }

    #[test]
    fn foreign_schema_and_event_mismatch_start_fresh() {
        let path = temp_path("foreign.jsonl");
        std::fs::write(&path, "{\"schema\":\"other/9\"}\n").unwrap();
        let loaded = load(&path, 100);
        assert!(loaded.cells.is_empty());
        assert_eq!(loaded.warnings.len(), 1);

        let writer = CheckpointWriter::create(&path, 100, &["fig1"]).unwrap();
        writer
            .record(&FaultState::default(), &ok_cell("fig1", "x"))
            .unwrap();
        drop(writer);
        let loaded = load(&path, 999);
        assert!(loaded.cells.is_empty());
        assert!(
            loaded.warnings[0].contains("--events 100"),
            "{:?}",
            loaded.warnings
        );
    }

    #[test]
    fn empty_file_warns_and_starts_fresh() {
        let path = temp_path("empty.jsonl");
        std::fs::write(&path, "").unwrap();
        let loaded = load(&path, 100);
        assert!(loaded.cells.is_empty());
        assert_eq!(loaded.warnings.len(), 1);
    }
}
