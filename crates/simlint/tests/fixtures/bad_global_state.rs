// Fixture: process-wide statics carrying run configuration, which the
// `global-state` rule rejects in sim-core and experiments. Never
// compiled; linted under a synthetic sim-core path.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

static MAX_THREADS: AtomicUsize = AtomicUsize::new(0);
static PLAN: std::sync::Mutex<Option<u64>> = Mutex::new(None);
static NEXT_WORKER: OnceLock<u32> = OnceLock::new();

thread_local! {
    static ARMED: std::cell::Cell<u8> = const { std::cell::Cell::new(0) };
}

pub fn threads(name: &'static str) -> usize {
    let _ = name;
    MAX_THREADS.load(Ordering::Relaxed)
}
