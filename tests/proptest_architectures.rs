//! Property tests over the cache-assist architectures: for *arbitrary*
//! access streams (not just the curated workloads), every system must
//! satisfy the memory-interface contract.

use cpu_model::MemorySystem;
use experiments::arch::{Arch, System};
use proptest::prelude::*;
use sim_core::{Addr, Cycle};
use trace_gen::{AccessKind, MemoryAccess};

/// A compact synthetic access: (line index within a small hot region,
/// is_store, think time). Small regions force constant collisions.
fn accesses() -> impl Strategy<Value = Vec<(u64, bool, u64)>> {
    prop::collection::vec((0u64..2048, prop::bool::ANY, 0u64..6), 1..400)
}

/// A fresh system of every architecture `sim --list-archs` names.
fn systems() -> Vec<System> {
    Arch::all().map(Arch::build).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Responses are causal (never before the request) and requests at
    /// non-decreasing times produce bounded latencies for every
    /// architecture, on arbitrary streams.
    #[test]
    fn every_architecture_is_causal_and_bounded(stream in accesses()) {
        for mut sys in systems() {
            let label = sys.label();
            let mut now = Cycle::ZERO;
            for &(line, store, think) in &stream {
                let addr = Addr::new(line * 64);
                let access = MemoryAccess {
                    addr,
                    kind: if store { AccessKind::Store } else { AccessKind::Load },
                    pc: Addr::new(0x400_000 + (line % 7) * 4),
                };
                let resp = sys.access(access, now);
                prop_assert!(resp.ready >= now, "{label}: time travel");
                // Worst case is a stall through a full MSHR file of
                // memory misses plus the fetch itself — comfortably
                // under 16 × 100 + slack.
                prop_assert!(
                    resp.ready - now < 4_000,
                    "{label}: latency {} looks unbounded",
                    resp.ready - now
                );
                now += think;
            }
        }
    }

    /// Determinism: replaying the identical stream through a fresh
    /// instance of each architecture produces identical responses.
    #[test]
    fn every_architecture_is_deterministic(stream in accesses()) {
        let run = |mut sys: System| -> Vec<u64> {
            let mut now = Cycle::ZERO;
            stream
                .iter()
                .map(|&(line, store, think)| {
                    let access = MemoryAccess {
                        addr: Addr::new(line * 64),
                        kind: if store { AccessKind::Store } else { AccessKind::Load },
                        pc: Addr::new(0x400_000),
                    };
                    let r = sys.access(access, now);
                    now += think;
                    r.ready.raw()
                })
                .collect()
        };
        let first: Vec<Vec<u64>> = systems().into_iter().map(run).collect();
        let second: Vec<Vec<u64>> = systems().into_iter().map(run).collect();
        prop_assert_eq!(first, second);
    }

    /// Repeatedly accessing one line quickly becomes cheap (it must be
    /// cached or buffered by every architecture) — no policy may
    /// permanently exile a hot line.
    #[test]
    fn hot_line_becomes_cheap_everywhere(line in 0u64..2048) {
        for mut sys in systems() {
            let label = sys.label();
            let access = MemoryAccess::load(Addr::new(line * 64), Addr::new(0x400_000));
            let mut now = Cycle::ZERO;
            // Warm up generously (some policies need a few rounds).
            for _ in 0..8 {
                let r = sys.access(access, now);
                now = r.ready + 10;
            }
            let r = sys.access(access, now);
            prop_assert!(
                r.ready - now <= 8,
                "{label}: hot line still costs {} cycles",
                r.ready - now
            );
        }
    }
}
