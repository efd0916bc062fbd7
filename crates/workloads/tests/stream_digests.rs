//! Pins every generated stream: a 64-bit FNV-1a digest of
//! `(addr, kind, pc, work)` over the first [`EVENTS`] events of each
//! `full_suite()` and `taxonomy_suite()` workload, at seeds 1 and 2.
//!
//! A generator change that moves any event of any workload (a sampler
//! rewrite, a reordered RNG draw) fails here before it reaches a
//! figure. A mismatch prints the whole recomputed table; re-record it
//! only for a change that means to alter the streams.

use trace_gen::{AccessKind, TraceSource};
use workloads::{full_suite, taxonomy_suite};

const EVENTS: usize = 100_000;

/// `(workload, seed, digest)`, in suite order, seed 1 then seed 2.
const EXPECTED: &[(&str, u64, u64)] = &[
    ("tomcatv", 1, 0x6f15b1538060f4cb),
    ("tomcatv", 2, 0xab4453ff948aa3c7),
    ("swim", 1, 0x1c3cc2eb901539e5),
    ("swim", 2, 0xe350e233f9e07585),
    ("su2cor", 1, 0x5b7208f1c8a974a5),
    ("su2cor", 2, 0xbcbc20c42854cafb),
    ("hydro2d", 1, 0x8293216b13a01ac0),
    ("hydro2d", 2, 0x7fe1cb672999c894),
    ("mgrid", 1, 0xb6c55afb09010474),
    ("mgrid", 2, 0x0b4a4a2abbc2ea86),
    ("applu", 1, 0x278fa12289e4439d),
    ("applu", 2, 0x26f30324868ee12c),
    ("turb3d", 1, 0xe5cc3b18bbe7966f),
    ("turb3d", 2, 0xbd59523c200a50d3),
    ("apsi", 1, 0xe5603e412e091cd9),
    ("apsi", 2, 0x27d063d1f1da0451),
    ("wave5", 1, 0xa290266b6f1819a4),
    ("wave5", 2, 0xad4a5cf283168a61),
    ("fpppp", 1, 0x4ae77001895563b3),
    ("fpppp", 2, 0xfc46bec0c0480dc3),
    ("go", 1, 0x243320a154f16438),
    ("go", 2, 0x66d40b186d057e51),
    ("m88ksim", 1, 0xcbd632c5907dc22d),
    ("m88ksim", 2, 0xec1e47f3c27fffbb),
    ("gcc", 1, 0x2ce9865c06e8a097),
    ("gcc", 2, 0x12d1ad21aa34a510),
    ("compress", 1, 0x634b03c5a78f3255),
    ("compress", 2, 0x356046d7ad6e717a),
    ("li", 1, 0x3021061df4a56961),
    ("li", 2, 0xd5ff2be6616b92f5),
    ("ijpeg", 1, 0x76d503b754232020),
    ("ijpeg", 2, 0xcbca7f2a5bcbf4c2),
    ("perl", 1, 0xabd922e1b48d0d40),
    ("perl", 2, 0x378653b5ae501315),
    ("vortex", 1, 0xc20c16cc19242539),
    ("vortex", 2, 0xe732a68eca0a310e),
    ("uniform", 1, 0x897099869a0b90c3),
    ("uniform", 2, 0x8ef6146fd2f0aa02),
    ("working_set_128", 1, 0x7454096ebbaa6d05),
    ("working_set_128", 2, 0x7454096ebbaa6d05),
    ("working_set_512", 1, 0xaac0078db8c0b505),
    ("working_set_512", 2, 0xaac0078db8c0b505),
];

fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

fn digest(mut src: Box<dyn TraceSource>) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325;
    for _ in 0..EVENTS {
        let e = src.next_event();
        let kind = match e.access.kind {
            AccessKind::Load => 0u8,
            AccessKind::Store => 1,
        };
        fnv1a(&mut hash, &e.access.addr.raw().to_le_bytes());
        fnv1a(&mut hash, &[kind]);
        fnv1a(&mut hash, &e.access.pc.raw().to_le_bytes());
        fnv1a(&mut hash, &e.work.to_le_bytes());
    }
    hash
}

#[test]
fn generated_streams_match_recorded_digests() {
    let mut actual = Vec::new();
    for w in full_suite().into_iter().chain(taxonomy_suite()) {
        for seed in [1, 2] {
            actual.push((w.name(), seed, digest(w.source(seed))));
        }
    }
    let table: String = actual
        .iter()
        .map(|(name, seed, d)| format!("    ({name:?}, {seed}, {d:#018x}),\n"))
        .collect();
    assert!(
        actual.as_slice() == EXPECTED,
        "stream digests moved; recomputed table:\n{table}"
    );
}
