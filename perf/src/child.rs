//! One `repro` child run, timed from outside.
//!
//! Each child runs in a fresh directory under the benchmark's run
//! root, with explicit `--bench-json` and artifact paths inside it, so
//! nothing it writes lands in the working directory; the directory is
//! deleted afterwards. Wall time is taken around the whole process,
//! peak RSS is the highest `VmHWM` polled from `/proc`, and stdout and
//! the artifact must match the workload's golden digests.

use std::fs::{self, File};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitStatus, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Duration;

use experiments::jsonl;
use experiments::telemetry::Stopwatch;

use crate::catalog::{Artifact, BenchWorkload};

/// How often the child's `VmHWM` is read. `VmHWM` only rises, so a
/// reading misses at most the growth of the last interval.
const POLL: Duration = Duration::from_millis(5);

/// The `arena` object of a run's `--bench-json` report.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct ArenaCounts {
    pub resident_events: u64,
    pub replay_hits: u64,
    pub materializations: u64,
}

/// A child run whose outputs matched the golden digests.
#[derive(Debug)]
pub(crate) struct Rep {
    pub wall_s: f64,
    pub peak_rss_mib: f64,
    /// `total.events` of the bench report.
    pub events: u64,
    pub arena: ArenaCounts,
    /// Size of the `--probe-out` file, 0 when the workload writes none.
    pub probe_out_bytes: u64,
}

/// A directory removed, with everything in it, when dropped.
struct TempDir(PathBuf);

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

/// Runs workload `w` once through `repro` at `threads` worker threads,
/// in a fresh directory under `runs_dir`.
///
/// # Errors
///
/// Returns why the run failed: it could not start, exited nonzero,
/// wrote no readable bench report, or an output digest differs from
/// the golden one.
pub(crate) fn run(
    repro: &Path,
    runs_dir: &Path,
    w: &BenchWorkload,
    threads: usize,
) -> Result<Rep, String> {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = runs_dir.join(format!(
        "{}-{}-{}",
        w.name,
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let dir = TempDir(dir);
    let path = |name: &str| dir.0.join(name);
    let create = |name: &str| {
        File::create(path(name)).map_err(|e| format!("cannot create {}: {e}", path(name).display()))
    };

    let mut cmd = Command::new(repro);
    cmd.current_dir(&dir.0)
        .arg("--threads")
        .arg(threads.to_string())
        .arg("--events")
        .arg(w.events.to_string())
        .arg("--bench-json")
        .arg(path("bench.json"));
    if let Some((artifact, _)) = w.artifact {
        cmd.arg(artifact.flag()).arg(path("artifact.jsonl"));
    }
    cmd.args(w.args)
        .stdin(Stdio::null())
        .stdout(create("stdout")?)
        .stderr(create("stderr")?);
    let (status, wall_s, peak_kib) = measure(cmd)?;
    if !status.success() {
        let stderr = fs::read_to_string(path("stderr")).unwrap_or_default();
        let tail: Vec<&str> = stderr.lines().rev().take(5).collect();
        return Err(format!(
            "repro {status}; stderr ends:\n  {}",
            tail.into_iter().rev().collect::<Vec<_>>().join("\n  ")
        ));
    }

    let read = |name: &str| fs::read(path(name)).map_err(|e| format!("cannot read {name}: {e}"));
    check_digest("stdout", &read("stdout")?, w.stdout_digest)?;
    let mut probe_out_bytes = 0;
    if let Some((artifact, golden)) = w.artifact {
        let bytes = read("artifact.jsonl")?;
        check_digest(artifact.flag(), &bytes, golden)?;
        if artifact == Artifact::Probe {
            probe_out_bytes = bytes.len() as u64;
        }
    }
    let report = String::from_utf8(read("bench.json")?)
        .map_err(|_| "the bench report is not UTF-8".to_owned())?;
    let (events, arena) = parse_bench(&report)?;
    Ok(Rep {
        wall_s,
        peak_rss_mib: peak_kib as f64 / 1024.0,
        events,
        arena,
        probe_out_bytes,
    })
}

/// Spawns `cmd` and waits for it, returning its exit status, its wall
/// time in seconds and its highest polled `VmHWM` in KiB.
fn measure(mut cmd: Command) -> Result<(ExitStatus, f64, u64), String> {
    let clock = Stopwatch::start();
    let mut child = cmd
        .spawn()
        .map_err(|e| format!("cannot start repro: {e}"))?;
    let status_file = PathBuf::from(format!("/proc/{}/status", child.id()));
    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let poller = scope.spawn(|| {
            let mut peak = 0;
            while !done.load(Ordering::SeqCst) {
                if let Some(kib) = fs::read_to_string(&status_file)
                    .ok()
                    .as_deref()
                    .and_then(vm_hwm_kib)
                {
                    peak = peak.max(kib);
                }
                std::thread::sleep(POLL);
            }
            peak
        });
        let status = child.wait();
        let wall_s = clock.elapsed_seconds();
        done.store(true, Ordering::SeqCst);
        // The poller only reads files; a panic there loses the reading,
        // not the run.
        let peak = poller.join().unwrap_or(0);
        let status = status.map_err(|e| format!("cannot wait for repro: {e}"))?;
        Ok((status, wall_s, peak))
    })
}

/// The `VmHWM` (peak resident set) of a `/proc/<pid>/status` file, in
/// KiB.
pub(crate) fn vm_hwm_kib(status: &str) -> Option<u64> {
    let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    let mut fields = line.split_whitespace();
    let value = fields.next()?.parse().ok()?;
    (fields.next() == Some("kB")).then_some(value)
}

/// 64-bit FNV-1a.
pub(crate) fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn check_digest(what: &str, bytes: &[u8], golden: u64) -> Result<(), String> {
    let digest = fnv1a64(bytes);
    if digest == golden {
        Ok(())
    } else {
        Err(format!(
            "{what} digest {digest:#018x} differs from the golden {golden:#018x}"
        ))
    }
}

/// `total.events` and the `arena` counters of a bench report.
fn parse_bench(text: &str) -> Result<(u64, ArenaCounts), String> {
    let doc = jsonl::parse(text).map_err(|e| format!("bench report: {e}"))?;
    if doc.str_field("schema") != Some(sim_core::registry::SCHEMA_BENCH) {
        return Err(format!(
            "bench report schema is not {}",
            sim_core::registry::SCHEMA_BENCH
        ));
    }
    let events = doc
        .get("total")
        .and_then(|total| total.u64_field("events"))
        .ok_or("bench report has no total.events")?;
    let arena = doc.get("arena").ok_or("bench report has no arena")?;
    let field = |key: &str| {
        arena
            .u64_field(key)
            .ok_or_else(|| format!("bench report has no arena.{key}"))
    };
    Ok((
        events,
        ArenaCounts {
            resident_events: field("resident_events")?,
            replay_hits: field("replay_hits")?,
            materializations: field("materializations")?,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vm_hwm_parses_the_status_line() {
        let status = "Name:\trepro\nVmPeak:\t  900000 kB\nVmHWM:\t  865894 kB\nVmRSS:\t  12 kB\n";
        assert_eq!(vm_hwm_kib(status), Some(865_894));
        assert_eq!(vm_hwm_kib("Name:\tzombie\nState:\tZ\n"), None);
        assert_eq!(vm_hwm_kib("VmHWM:\t  12 MB\n"), None);
        assert_eq!(vm_hwm_kib("VmHWM:\t  lots kB\n"), None);
    }

    #[test]
    fn fnv1a64_matches_reference_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn digest_is_stable_and_sensitive() {
        let out = b"Figure 1: miss classification accuracy\n";
        let copy = out.to_vec();
        assert_eq!(fnv1a64(out), fnv1a64(&copy));
        assert!(check_digest("stdout", out, fnv1a64(out)).is_ok());
        let mut flipped = out.to_vec();
        flipped[0] ^= 1;
        assert!(check_digest("stdout", &flipped, fnv1a64(out)).is_err());
    }

    #[test]
    fn bench_report_yields_total_events_and_arena() {
        let report = experiments::telemetry::BenchReport {
            threads: 1,
            events_per_workload: 10,
            figures: vec![experiments::telemetry::FigureBench::ok("fig1", 0.5, 720)],
            total_wall_seconds: 0.5,
        };
        let arena = trace_gen::arena::ArenaStats {
            traces: 2,
            resident_events: 20,
            hits: 5,
            misses: 2,
        };
        let (events, counts) = parse_bench(&report.to_json_with_arena(&arena)).unwrap();
        assert_eq!(events, 720);
        assert_eq!(
            counts,
            ArenaCounts {
                resident_events: 20,
                replay_hits: 5,
                materializations: 2,
            }
        );
        assert!(parse_bench("{\"schema\": \"other\"}").is_err());
    }
}
