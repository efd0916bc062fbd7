//! Simulated time.

use core::fmt;
use core::ops::{Add, AddAssign, Sub};

/// A point in simulated time, measured in processor clock cycles.
///
/// `Cycle` is ordered and supports the arithmetic a timing model needs
/// (advance by a latency, measure a distance) while preventing the
/// accidental use of a cycle count as, say, an address.
///
/// # Examples
///
/// ```
/// use sim_core::Cycle;
///
/// let start = Cycle::ZERO;
/// let done = start + 20;
/// assert_eq!(done - start, 20);
/// assert!(done > start);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Cycle(u64);

impl Cycle {
    /// The start of simulated time.
    pub const ZERO: Cycle = Cycle(0);

    /// Creates a cycle value from a raw count.
    #[must_use]
    pub const fn new(raw: u64) -> Self {
        Cycle(raw)
    }

    /// Returns the raw cycle count.
    #[must_use]
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// Returns the later of two times (e.g. "ready when both the port
    /// is free and the data has arrived").
    #[must_use]
    pub fn max(self, other: Cycle) -> Cycle {
        Cycle(self.0.max(other.0))
    }

    /// Returns the number of cycles from `earlier` to `self`, or zero
    /// if `earlier` is in the future.
    #[must_use]
    pub fn since(self, earlier: Cycle) -> u64 {
        self.0.saturating_sub(earlier.0)
    }
}

impl Add<u64> for Cycle {
    type Output = Cycle;

    fn add(self, latency: u64) -> Cycle {
        Cycle(self.0 + latency)
    }
}

impl AddAssign<u64> for Cycle {
    fn add_assign(&mut self, latency: u64) {
        self.0 += latency;
    }
}

impl Sub<Cycle> for Cycle {
    type Output = u64;

    /// # Panics
    ///
    /// Panics in debug builds if `rhs` is later than `self`.
    fn sub(self, rhs: Cycle) -> u64 {
        debug_assert!(self.0 >= rhs.0, "cycle subtraction underflow");
        self.0 - rhs.0
    }
}

impl fmt::Display for Cycle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cycle {}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_and_arithmetic() {
        let a = Cycle::new(10);
        let b = a + 5;
        assert_eq!(b.raw(), 15);
        assert_eq!(b - a, 5);
        assert!(b > a);
        assert_eq!(a.max(b), b);
    }

    #[test]
    fn since_saturates() {
        let a = Cycle::new(10);
        let b = Cycle::new(20);
        assert_eq!(b.since(a), 10);
        assert_eq!(a.since(b), 0);
    }

    #[test]
    fn add_assign_advances() {
        let mut c = Cycle::ZERO;
        c += 100;
        c += 1;
        assert_eq!(c, Cycle::new(101));
    }
}
