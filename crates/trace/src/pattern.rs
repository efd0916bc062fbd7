//! Composable synthetic access-pattern generators.
//!
//! Every generator is an unbounded [`TraceSource`] with three shared
//! knobs configured through builder-style methods:
//!
//! * `with_work(n)` — non-memory instructions per access (how
//!   compute-bound the pattern is);
//! * `with_store_period(k)` — every *k*-th access is a store
//!   (0 = loads only);
//! * `with_pc(addr)` — the synthetic program counter attributed to the
//!   pattern's accesses.
//!
//! The SPEC95-analog workloads in the `workloads` crate are built by
//! composing these primitives with [`Interleave`].

use sim_core::rng::SplitMix64;
use sim_core::Addr;

use crate::{AccessKind, MemoryAccess, TraceEvent, TraceSource};

/// Shared per-generator event shaping (work, stores, PC).
#[derive(Debug, Clone)]
struct Shape {
    work: u32,
    store_period: u32,
    pc: Addr,
    count: u64,
}

impl Shape {
    fn new() -> Self {
        Shape {
            work: 4,
            store_period: 0,
            pc: Addr::new(0x0040_0000),
            count: 0,
        }
    }

    fn event(&mut self, addr: Addr) -> TraceEvent {
        self.count += 1;
        let kind =
            if self.store_period != 0 && self.count.is_multiple_of(u64::from(self.store_period)) {
                AccessKind::Store
            } else {
                AccessKind::Load
            };
        TraceEvent::new(
            MemoryAccess {
                addr,
                kind,
                pc: self.pc,
            },
            self.work,
        )
    }
}

macro_rules! shape_builders {
    ($ty:ident) => {
        impl $ty {
            /// Sets the non-memory instruction count per access.
            #[must_use]
            pub fn with_work(mut self, work: u32) -> Self {
                self.shape.work = work;
                self
            }

            /// Makes every `period`-th access a store (0 disables
            /// stores).
            #[must_use]
            pub fn with_store_period(mut self, period: u32) -> Self {
                self.shape.store_period = period;
                self
            }

            /// Sets the synthetic program counter for this pattern.
            #[must_use]
            pub fn with_pc(mut self, pc: Addr) -> Self {
                self.shape.pc = pc;
                self
            }
        }
    };
}

/// A cyclic sequential sweep: walk a region front to back in
/// fixed-size elements, then wrap around.
///
/// A sweep over a region larger than the cache produces pure capacity
/// misses with strong spatial locality — the canonical numeric-code
/// pattern and the best case for next-line prefetching.
#[derive(Debug, Clone)]
pub struct SequentialSweep {
    base: Addr,
    region: u64,
    element: u64,
    offset: u64,
    shape: Shape,
}

impl SequentialSweep {
    /// Sweeps `region` bytes starting at `base` in `element`-byte
    /// steps.
    ///
    /// # Panics
    ///
    /// Panics if `element` is zero or larger than `region`.
    #[must_use]
    pub fn new(base: Addr, region: u64, element: u64) -> Self {
        assert!(
            element > 0 && element <= region,
            "element must fit the region"
        );
        SequentialSweep {
            base,
            region,
            element,
            offset: 0,
            shape: Shape::new(),
        }
    }
}

shape_builders!(SequentialSweep);

impl TraceSource for SequentialSweep {
    fn next_event(&mut self) -> TraceEvent {
        let addr = self.base + self.offset;
        self.offset += self.element;
        if self.offset >= self.region {
            self.offset = 0;
        }
        self.shape.event(addr)
    }
}

/// A strided walk: repeatedly add a fixed (possibly large,
/// power-of-two) stride, wrapping within a region.
///
/// Power-of-two strides equal to the cache size land every access in
/// the same set — the pathological conflict pattern of FFT-style codes
/// (the `turb3d` analog is built from this).
#[derive(Debug, Clone)]
pub struct StridedStream {
    base: Addr,
    region: u64,
    stride: u64,
    offset: u64,
    shape: Shape,
}

impl StridedStream {
    /// Walks `region` bytes from `base` in `stride`-byte hops.
    ///
    /// # Panics
    ///
    /// Panics if `stride` is zero or `region` is zero.
    #[must_use]
    pub fn new(base: Addr, region: u64, stride: u64) -> Self {
        assert!(
            stride > 0 && region > 0,
            "stride and region must be positive"
        );
        StridedStream {
            base,
            region,
            stride,
            offset: 0,
            shape: Shape::new(),
        }
    }
}

shape_builders!(StridedStream);

impl TraceSource for StridedStream {
    fn next_event(&mut self) -> TraceEvent {
        let addr = self.base + self.offset;
        self.offset = (self.offset + self.stride) % self.region;
        self.shape.event(addr)
    }
}

/// Several arrays advanced in lockstep: one access to each array per
/// loop iteration, all at the same element index.
///
/// When the array bases are a multiple of the cache size apart, the
/// simultaneous accesses collide in the same set every iteration —
/// the classic source of conflict misses in dense numeric loops
/// (`tomcatv`-style).
#[derive(Debug, Clone)]
pub struct LockstepArrays {
    bases: Vec<Addr>,
    length: u64,
    element: u64,
    index: u64,
    array: usize,
    shape: Shape,
}

impl LockstepArrays {
    /// Iterates index `0..length/element` over all of `bases`,
    /// touching `bases[0][i], bases[1][i], …` then `i+1`.
    ///
    /// # Panics
    ///
    /// Panics if `bases` is empty or `element` is zero or larger than
    /// `length`.
    #[must_use]
    pub fn new(bases: Vec<Addr>, length: u64, element: u64) -> Self {
        assert!(!bases.is_empty(), "need at least one array");
        assert!(
            element > 0 && element <= length,
            "element must fit the array"
        );
        LockstepArrays {
            bases,
            length,
            element,
            index: 0,
            array: 0,
            shape: Shape::new(),
        }
    }
}

shape_builders!(LockstepArrays);

impl TraceSource for LockstepArrays {
    fn next_event(&mut self) -> TraceEvent {
        let addr = self.bases[self.array] + self.index;
        self.array += 1;
        if self.array == self.bases.len() {
            self.array = 0;
            self.index += self.element;
            if self.index >= self.length {
                self.index = 0;
            }
        }
        self.shape.event(addr)
    }
}

/// A pointer chase over a random permutation of cache lines.
///
/// Visits every line of the region in a fixed pseudo-random cyclic
/// order — no spatial locality, defeating next-line prefetching, with
/// reuse distance equal to the region size (capacity misses when the
/// region exceeds the cache).
#[derive(Debug, Clone)]
pub struct PointerChase {
    base: Addr,
    next: Vec<u32>,
    current: u32,
    line_size: u64,
    shape: Shape,
}

impl PointerChase {
    /// Chases through `region` bytes at `base` in `line_size` hops,
    /// in a permutation determined by `seed`.
    ///
    /// # Panics
    ///
    /// Panics if the region holds fewer than two lines.
    #[must_use]
    pub fn new(base: Addr, region: u64, line_size: u64, seed: u64) -> Self {
        let lines = (region / line_size) as u32;
        assert!(lines >= 2, "pointer chase needs at least two lines");
        // Build a single cycle (Sattolo's algorithm) so the chase
        // visits every line before repeating.
        let mut order: Vec<u32> = (0..lines).collect();
        let mut rng = SplitMix64::new(seed);
        for i in (1..order.len()).rev() {
            let j = rng.next_below(i as u64) as usize; // j < i: Sattolo
            order.swap(i, j);
        }
        let mut next = vec![0u32; lines as usize];
        for w in 0..lines as usize {
            next[order[w] as usize] = order[(w + 1) % lines as usize];
        }
        PointerChase {
            base,
            next,
            current: 0,
            line_size,
            shape: Shape::new(),
        }
    }
}

shape_builders!(PointerChase);

impl TraceSource for PointerChase {
    fn next_event(&mut self) -> TraceEvent {
        let addr = self.base + u64::from(self.current) * self.line_size;
        self.current = self.next[self.current as usize];
        self.shape.event(addr)
    }
}

/// Zipf-distributed accesses over a set of lines: a few lines are very
/// hot, the tail is cold.
///
/// Models hash tables and interpreter data structures (`gcc`, `perl`
/// analogs). Hot lines mostly hit; tail accesses produce irregular
/// misses.
///
/// A draw maps a uniform `u` to the first rank whose CDF reaches `u`.
/// A guide table makes that a short scan instead of a binary search
/// over the whole CDF: with `K` buckets (a power of two), `guide[b]`
/// is the first rank whose CDF reaches `b / K`, so the rank for `u`
/// lies between `guide[⌊u·K⌋]` and `guide[⌊u·K⌋ + 1]`. Both `u·K` and
/// `b / K` are exact in binary floating point, so the guided draw
/// returns exactly the binary search's rank.
#[derive(Debug, Clone)]
pub struct ZipfAccess {
    base: Addr,
    line_size: u64,
    cdf: Vec<f64>,
    /// `K + 1` bucket starts, each clamped to the last rank (`u16`
    /// keeps the table small; `new` bounds `lines` to fit).
    guide: Vec<u16>,
    rank_to_line: Vec<u32>,
    rng: SplitMix64,
    shape: Shape,
}

impl ZipfAccess {
    /// Accesses `lines` lines at `base` with Zipf exponent `theta`
    /// (0 = uniform, ~1 = classic Zipf), ranks shuffled by `seed` so
    /// hot lines are scattered over the region.
    ///
    /// # Panics
    ///
    /// Panics if `lines` is zero or above 65 536 (the guide table
    /// stores ranks as `u16`), or `theta` is negative.
    #[must_use]
    pub fn new(base: Addr, lines: u32, line_size: u64, theta: f64, seed: u64) -> Self {
        assert!(lines > 0, "need at least one line");
        assert!(lines <= 1 << 16, "at most 65536 lines");
        assert!(theta >= 0.0, "theta must be non-negative");
        let mut rng = SplitMix64::new(seed);
        let mut cdf = Vec::with_capacity(lines as usize);
        let mut total = 0.0;
        for rank in 1..=lines {
            total += 1.0 / f64::from(rank).powf(theta);
            cdf.push(total);
        }
        for p in &mut cdf {
            *p /= total;
        }
        let buckets = (4 * lines.next_power_of_two()).min(4096);
        let last = lines as usize - 1;
        let guide = (0..=buckets)
            .map(|b| {
                let edge = f64::from(b) / f64::from(buckets);
                // `last` fits: `lines` is at most 2^16.
                cdf.partition_point(|&p| p < edge).min(last) as u16
            })
            .collect();
        let mut rank_to_line: Vec<u32> = (0..lines).collect();
        rng.shuffle(&mut rank_to_line);
        ZipfAccess {
            base,
            line_size,
            cdf,
            guide,
            rank_to_line,
            rng,
            shape: Shape::new(),
        }
    }

    /// The first rank whose CDF reaches `u` (clamped to the last rank),
    /// for `u` in `[0, 1)`: `cdf.partition_point(|&p| p < u)`, found by
    /// a scan inside `u`'s guide bucket.
    fn rank(&self, u: f64) -> usize {
        let buckets = self.guide.len() - 1;
        // Exact: `buckets` is a power of two and `u < 1`.
        let b = (u * buckets as f64) as usize;
        let (mut rank, end) = (usize::from(self.guide[b]), usize::from(self.guide[b + 1]));
        while rank < end && self.cdf[rank] < u {
            rank += 1;
        }
        rank
    }
}

shape_builders!(ZipfAccess);

impl TraceSource for ZipfAccess {
    fn next_event(&mut self) -> TraceEvent {
        let u = self.rng.next_f64();
        let line = self.rank_to_line[self.rank(u)];
        let addr = self.base + u64::from(line) * self.line_size;
        self.shape.event(addr)
    }
}

/// Round-robin accesses over `k` lines that all map to the same cache
/// set.
///
/// With `k` one larger than the cache's associativity this is the
/// purest conflict-miss generator: every access misses, and every miss
/// would have hit with one more way.
#[derive(Debug, Clone)]
pub struct SetConflict {
    addrs: Vec<Addr>,
    position: usize,
    dwell: u32,
    remaining: u32,
    shape: Shape,
}

impl SetConflict {
    /// Cycles over `k` addresses spaced `set_span` bytes apart (use
    /// the cache size so all map to one set), starting at `base`.
    /// Each address is accessed `dwell` times in a row before moving
    /// on (dwell > 1 adds hits between the conflict misses).
    ///
    /// # Panics
    ///
    /// Panics if `k < 2` or `dwell` is zero.
    #[must_use]
    pub fn new(base: Addr, k: u32, set_span: u64, dwell: u32) -> Self {
        assert!(k >= 2, "conflict needs at least two contenders");
        assert!(dwell >= 1, "dwell must be at least 1");
        let addrs = (0..k).map(|i| base + u64::from(i) * set_span).collect();
        SetConflict {
            addrs,
            position: 0,
            dwell,
            remaining: dwell,
            shape: Shape::new(),
        }
    }
}

shape_builders!(SetConflict);

impl TraceSource for SetConflict {
    fn next_event(&mut self) -> TraceEvent {
        let addr = self.addrs[self.position];
        self.remaining -= 1;
        if self.remaining == 0 {
            self.remaining = self.dwell;
            self.position = (self.position + 1) % self.addrs.len();
        }
        self.shape.event(addr)
    }
}

/// Wraps a source so each generated line is revisited in a short
/// burst of neighbouring accesses before moving on.
///
/// Models "a capacity miss followed by a short burst of activity"
/// (paper §5.6): streaming data that is used a few times and never
/// again — the pattern cache exclusion targets.
#[derive(Debug, Clone)]
pub struct Burst<S> {
    inner: S,
    burst: u32,
    span: u64,
    current: Option<TraceEvent>,
    issued: u32,
    rng: SplitMix64,
}

impl<S: TraceSource> Burst<S> {
    /// Repeats each of `inner`'s accesses `burst` times, each repeat
    /// displaced by a small random offset within `span` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `burst` is zero or `span` is zero.
    #[must_use]
    pub fn new(inner: S, burst: u32, span: u64, seed: u64) -> Self {
        assert!(burst >= 1, "burst must be at least 1");
        assert!(span >= 1, "span must be at least 1");
        Burst {
            inner,
            burst,
            span,
            current: None,
            issued: 0,
            rng: SplitMix64::new(seed),
        }
    }
}

impl<S: TraceSource> TraceSource for Burst<S> {
    fn next_event(&mut self) -> TraceEvent {
        match self.current {
            Some(base) if self.issued < self.burst => {
                self.issued += 1;
                let jitter = self.rng.next_below(self.span);
                TraceEvent::new(
                    MemoryAccess {
                        addr: base.access.addr + jitter,
                        ..base.access
                    },
                    base.work,
                )
            }
            _ => {
                let e = self.inner.next_event();
                self.current = Some(e);
                self.issued = 1;
                e
            }
        }
    }
}

/// A weighted interleaving of child sources, switching between them in
/// runs.
///
/// Real programs interleave loops over different structures; the
/// SPEC95 analogs compose their phases with this. Weights control how
/// often each child is selected; `run` controls how many consecutive
/// events come from one child before reselecting (longer runs preserve
/// each child's locality).
pub struct Interleave {
    children: Vec<(Box<dyn TraceSource>, f64)>,
    cumulative: Vec<f64>,
    run: u32,
    remaining: u32,
    active: usize,
    rng: SplitMix64,
}

impl std::fmt::Debug for Interleave {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Interleave")
            .field("children", &self.children.len())
            .field("run", &self.run)
            .finish_non_exhaustive()
    }
}

impl Interleave {
    /// Builds an interleaving from `(source, weight)` pairs with run
    /// length `run`, selecting runs with `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `children` is empty, any weight is non-positive, or
    /// `run` is zero.
    #[must_use]
    pub fn new(children: Vec<(Box<dyn TraceSource>, f64)>, run: u32, seed: u64) -> Self {
        assert!(!children.is_empty(), "need at least one child");
        assert!(run >= 1, "run length must be at least 1");
        let mut cumulative = Vec::with_capacity(children.len());
        let mut total = 0.0;
        for (_, w) in &children {
            assert!(*w > 0.0, "weights must be positive");
            total += w;
            cumulative.push(total);
        }
        for c in &mut cumulative {
            *c /= total;
        }
        Interleave {
            children,
            cumulative,
            run,
            remaining: 0,
            active: 0,
            rng: SplitMix64::new(seed),
        }
    }
}

impl TraceSource for Interleave {
    fn next_event(&mut self) -> TraceEvent {
        if self.remaining == 0 {
            let u = self.rng.next_f64();
            self.active = self
                .cumulative
                .partition_point(|&p| p < u)
                .min(self.children.len() - 1);
            self.remaining = self.run;
        }
        self.remaining -= 1;
        self.children[self.active].0.next_event()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addrs<S: TraceSource>(mut s: S, n: usize) -> Vec<u64> {
        (0..n).map(|_| s.next_event().access.addr.raw()).collect()
    }

    #[test]
    fn sequential_sweep_wraps() {
        let s = SequentialSweep::new(Addr::new(100), 32, 8);
        assert_eq!(addrs(s, 6), vec![100, 108, 116, 124, 100, 108]);
    }

    #[test]
    fn strided_stream_wraps_at_region() {
        let s = StridedStream::new(Addr::new(0), 64, 48);
        // offsets 0, 48, 96%64=32, 80%64=16, 0 ...
        assert_eq!(addrs(s, 5), vec![0, 48, 32, 16, 0]);
    }

    #[test]
    fn lockstep_touches_every_array_per_index() {
        let s = LockstepArrays::new(vec![Addr::new(0), Addr::new(1000)], 16, 8);
        assert_eq!(addrs(s, 6), vec![0, 1000, 8, 1008, 0, 1000]);
    }

    #[test]
    fn pointer_chase_visits_every_line_once_per_lap() {
        let s = PointerChase::new(Addr::new(0), 8 * 64, 64, 7);
        let seen = addrs(s, 8);
        let mut sorted = seen.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..8).map(|n| n * 64).collect::<Vec<_>>());
    }

    #[test]
    fn pointer_chase_is_cyclic() {
        let s = PointerChase::new(Addr::new(0), 8 * 64, 64, 7);
        let seq = addrs(s, 16);
        assert_eq!(&seq[..8], &seq[8..]);
    }

    #[test]
    fn pointer_chase_has_no_self_loop() {
        let s = PointerChase::new(Addr::new(0), 16 * 64, 64, 3);
        let seq = addrs(s, 16);
        for pair in seq.windows(2) {
            assert_ne!(pair[0], pair[1]);
        }
    }

    #[test]
    fn zipf_prefers_hot_lines() {
        let mut s = ZipfAccess::new(Addr::new(0), 100, 64, 1.0, 9);
        let mut counts = std::collections::HashMap::new();
        for _ in 0..10_000 {
            *counts
                .entry(s.next_event().access.addr.raw())
                .or_insert(0u32) += 1;
        }
        let max = counts.values().copied().max().unwrap();
        let distinct = counts.len();
        // Heavily skewed: hottest line far above uniform share, but
        // many lines still touched.
        assert!(max > 500, "hottest line only {max}");
        assert!(distinct > 50, "only {distinct} lines touched");
    }

    #[test]
    fn zipf_theta_zero_is_roughly_uniform() {
        let mut s = ZipfAccess::new(Addr::new(0), 10, 64, 0.0, 9);
        let mut counts = [0u32; 10];
        for _ in 0..10_000 {
            counts[(s.next_event().access.addr.raw() / 64) as usize] += 1;
        }
        for c in counts {
            assert!((700..1300).contains(&c), "count {c} too far from uniform");
        }
    }

    proptest::proptest! {
        #[test]
        fn zipf_guided_rank_equals_binary_search(
            exp in 0u32..17,
            raw_lines in 0u32..u32::MAX,
            theta_milli in 0u32..3000,
            raws in proptest::collection::vec(0u64..u64::MAX, 0..64),
        ) {
            let lines = 1 + raw_lines % (1 << exp);
            let theta = f64::from(theta_milli) / 1000.0;
            let s = ZipfAccess::new(Addr::new(0), lines, 64, theta, 1);
            let buckets = s.guide.len() - 1;
            // Adversarial draws: both ends of [0, 1), every bucket
            // edge, every CDF value and the float just below it, plus
            // random draws made the way `next_f64` makes them.
            let mut us = vec![0.0, 1.0 - f64::EPSILON / 2.0];
            us.extend((0..buckets).map(|b| b as f64 / buckets as f64));
            for &p in &s.cdf {
                us.push(p);
                us.push(f64::from_bits(p.to_bits() - 1));
            }
            us.extend(raws.iter().map(|r| (r >> 11) as f64 / (1u64 << 53) as f64));
            for u in us.into_iter().filter(|u| (0.0..1.0).contains(u)) {
                let want = s.cdf.partition_point(|&p| p < u).min(lines as usize - 1);
                proptest::prop_assert_eq!(
                    s.rank(u), want,
                    "u {} lines {} theta {}", u, lines, theta
                );
            }
        }
    }

    #[test]
    fn set_conflict_cycles_contenders() {
        let s = SetConflict::new(Addr::new(0), 3, 16 * 1024, 1);
        assert_eq!(addrs(s, 4), vec![0, 16 * 1024, 32 * 1024, 0]);
    }

    #[test]
    fn set_conflict_dwell_repeats() {
        let s = SetConflict::new(Addr::new(0), 2, 1024, 3);
        assert_eq!(addrs(s, 7), vec![0, 0, 0, 1024, 1024, 1024, 0]);
    }

    #[test]
    fn burst_repeats_within_span() {
        let inner = SequentialSweep::new(Addr::new(0), 1 << 20, 4096);
        let mut b = Burst::new(inner, 4, 64, 1);
        let mut last_base = None;
        for _ in 0..12 {
            let a = b.next_event().access.addr.raw();
            let base = a / 4096 * 4096;
            if let Some(prev) = last_base {
                // Base only changes every 4 events.
                let _ = prev;
            }
            last_base = Some(base);
            assert!(a - base < 64 + 4096);
        }
    }

    #[test]
    fn interleave_draws_from_all_children() {
        let a: Box<dyn TraceSource> = Box::new(SequentialSweep::new(Addr::new(0), 64, 8));
        let b: Box<dyn TraceSource> = Box::new(SequentialSweep::new(Addr::new(1 << 30), 64, 8));
        let mut mix = Interleave::new(vec![(a, 1.0), (b, 1.0)], 2, 42);
        let mut low = 0;
        let mut high = 0;
        for _ in 0..200 {
            if mix.next_event().access.addr.raw() < 1 << 29 {
                low += 1;
            } else {
                high += 1;
            }
        }
        assert!(low > 40 && high > 40, "low {low}, high {high}");
    }

    #[test]
    fn shape_builders_apply() {
        let mut s = SequentialSweep::new(Addr::new(0), 64, 8)
            .with_work(7)
            .with_store_period(2)
            .with_pc(Addr::new(0x1234));
        let e1 = s.next_event();
        let e2 = s.next_event();
        assert_eq!(e1.work, 7);
        assert_eq!(e1.access.pc, Addr::new(0x1234));
        assert_eq!(e1.access.kind, AccessKind::Load);
        assert_eq!(e2.access.kind, AccessKind::Store);
    }

    #[test]
    fn generators_are_deterministic() {
        let a = addrs(PointerChase::new(Addr::new(0), 64 * 64, 64, 5), 100);
        let b = addrs(PointerChase::new(Addr::new(0), 64 * 64, 64, 5), 100);
        assert_eq!(a, b);
    }
}
