//! Golden digests of the accuracy drivers (Figs 1 and 2 and the
//! ablations), rendered by the real `repro` binary: the stdout tables,
//! the `--probe epoch:500` document and the `--probe raw` event
//! stream.
//!
//! The tables pin every report; the probe documents pin the order and
//! content of every event each accuracy cell emits (`access`,
//! `classify`, `cbit`, `fill`, `evict`, `oracle`). A change meant to be
//! exact in the cache kernel, the MCT or the scorer must keep all
//! three; re-record them only for a change that means to alter the
//! figures or the probe schema.

use std::fs::File;
use std::io::Read;
use std::path::PathBuf;
use std::process::Command;

/// 64-bit FNV-1a of `repro --threads 1 --events 20000 fig1 fig2
/// ablation`'s stdout.
const STDOUT_DIGEST: u64 = 0xd66b_017b_8b61_3e21;
/// 64-bit FNV-1a of the same run's `--probe epoch:500` document.
const EPOCH_DIGEST: u64 = 0x837f_a15d_c567_439d;
/// 64-bit FNV-1a of the `--probe raw` document of `repro --threads 1
/// --events 2000 fig1 fig2 ablation`.
const RAW_DIGEST: u64 = 0xbf70_dbb8_bab1_d1fe;

const TARGETS: [&str; 3] = ["fig1", "fig2", "ablation"];

/// FNV-1a over everything `bytes` yields, read in chunks (the raw
/// document is a few hundred MB).
fn fnv1a(mut bytes: impl Read) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut buf = vec![0u8; 1 << 16];
    loop {
        let n = bytes.read(&mut buf).expect("read digest input");
        if n == 0 {
            return hash;
        }
        for &b in &buf[..n] {
            hash = (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Runs `repro --threads 1 --events <events> [probe args] fig1 fig2
/// ablation` and returns its stdout.
fn repro(events: &str, probe: &[&str]) -> Vec<u8> {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["--threads", "1", "--events", events])
        .args(probe)
        .args(TARGETS)
        .output()
        .expect("spawn repro");
    assert!(
        out.status.success(),
        "repro failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    out.stdout
}

/// The digest of the probe document `repro` writes under `mode`,
/// removed afterwards.
fn probe_digest(events: &str, mode: &str, name: &str) -> u64 {
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let path_arg = path.to_str().expect("UTF-8 temp path");
    let stdout = repro(events, &["--probe", mode, "--probe-out", path_arg]);
    assert!(!stdout.is_empty());
    let digest = fnv1a(File::open(&path).expect("probe document written"));
    std::fs::remove_file(&path).expect("remove probe document");
    digest
}

#[test]
fn accuracy_tables_match_the_recorded_digest() {
    let stdout = repro("20000", &[]);
    let digest = fnv1a(&stdout[..]);
    assert_eq!(
        digest,
        STDOUT_DIGEST,
        "accuracy tables moved (digest {digest:#018x}):\n{}",
        String::from_utf8_lossy(&stdout)
    );
}

#[test]
fn epoch_probe_document_matches_the_recorded_digest() {
    let digest = probe_digest("20000", "epoch:500", "accuracy_golden_epoch.jsonl");
    assert_eq!(
        digest, EPOCH_DIGEST,
        "epoch probe document moved (digest {digest:#018x})"
    );
}

#[test]
fn raw_probe_document_matches_the_recorded_digest() {
    let digest = probe_digest("2000", "raw", "accuracy_golden_raw.jsonl");
    assert_eq!(
        digest, RAW_DIGEST,
        "raw probe document moved (digest {digest:#018x})"
    );
}

#[test]
fn fnv1a_matches_reference_vectors() {
    assert_eq!(fnv1a(&b""[..]), 0xcbf2_9ce4_8422_2325);
    assert_eq!(fnv1a(&b"a"[..]), 0xaf63_dc4c_8601_ec8c);
    assert_eq!(fnv1a(&b"foobar"[..]), 0x8594_4171_f739_67e8);
}
