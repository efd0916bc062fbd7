//! Golden digest of the CPU-model tables: every target that drives
//! the out-of-order core (Figs 3–6, §5.4, §5.6 and the window/buffer
//! ablations), rendered by the real `repro` binary.
//!
//! Any change to the core loop, the shared miss path or an
//! architecture's timing that moves one cycle of one cell moves this
//! digest. A change meant to be exact (a faster core loop) must keep it;
//! re-record it only for a change that means to alter the tables.

use std::process::Command;

/// 64-bit FNV-1a of `repro --threads 1 --events 20000 fig3 fig4 fig5
/// sec54 sec56 fig6 ablation`'s stdout.
const DIGEST: u64 = 0x0540_a8a9_d393_615e;

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn cpu_model_tables_match_the_recorded_digest() {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["--threads", "1", "--events", "20000"])
        .args(["fig3", "fig4", "fig5", "sec54", "sec56", "fig6", "ablation"])
        .output()
        .expect("spawn repro");
    assert!(
        out.status.success(),
        "repro failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let digest = fnv1a(&out.stdout);
    assert_eq!(
        digest,
        DIGEST,
        "CPU-model tables moved (digest {digest:#018x}):\n{}",
        String::from_utf8_lossy(&out.stdout)
    );
}

#[test]
fn fnv1a_matches_reference_vectors() {
    assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
    assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
}
