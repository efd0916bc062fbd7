//! Byte and cache-line address newtypes.

use core::fmt;
use core::ops::{Add, Sub};

/// A byte address in the simulated (physical) address space.
///
/// `Addr` is a transparent wrapper around `u64` that exists to keep byte
/// addresses and [`LineAddr`]s (line numbers) statically distinct — mixing
/// the two is the classic cache-simulator bug.
///
/// # Examples
///
/// ```
/// use sim_core::Addr;
///
/// let a = Addr::new(0x1000);
/// assert_eq!(a.offset(64), 0);
/// assert_eq!((a + 8).offset(64), 8);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Addr(u64);

impl Addr {
    /// Creates an address from a raw byte value.
    #[must_use]
    pub const fn new(raw: u64) -> Self {
        Addr(raw)
    }

    /// Returns the raw byte value.
    #[must_use]
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// Returns the cache line this byte address falls in.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `line_size` is not a power of two.
    #[must_use]
    pub fn line(self, line_size: u64) -> LineAddr {
        debug_assert!(
            line_size.is_power_of_two(),
            "line size must be a power of two"
        );
        LineAddr(self.0 >> line_size.trailing_zeros())
    }

    /// Returns the byte offset within a cache line of size `line_size`.
    #[must_use]
    pub fn offset(self, line_size: u64) -> u64 {
        debug_assert!(line_size.is_power_of_two());
        self.0 & (line_size - 1)
    }
}

impl From<u64> for Addr {
    fn from(raw: u64) -> Self {
        Addr(raw)
    }
}

impl From<Addr> for u64 {
    fn from(a: Addr) -> u64 {
        a.0
    }
}

impl Add<u64> for Addr {
    type Output = Addr;

    fn add(self, rhs: u64) -> Addr {
        Addr(self.0.wrapping_add(rhs))
    }
}

impl Sub<u64> for Addr {
    type Output = Addr;

    fn sub(self, rhs: u64) -> Addr {
        Addr(self.0.wrapping_sub(rhs))
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

impl fmt::LowerHex for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

impl fmt::UpperHex for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::UpperHex::fmt(&self.0, f)
    }
}

/// A cache-line address: the byte address divided by the line size.
///
/// A `LineAddr` is meaningful only together with the line size used to
/// derive it; all caches in one simulation share a single line size
/// (64 bytes in the paper's configuration), enforced by the hierarchy.
///
/// # Examples
///
/// ```
/// use sim_core::{Addr, LineAddr};
///
/// let line = Addr::new(0x1fff).line(64);
/// assert_eq!(line, LineAddr::new(0x7f));
/// assert_eq!(line.next(), LineAddr::new(0x80));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct LineAddr(u64);

impl LineAddr {
    /// Creates a line address from a raw line number.
    #[must_use]
    pub const fn new(raw: u64) -> Self {
        LineAddr(raw)
    }

    /// Returns the raw line number.
    #[must_use]
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// Returns the next sequential cache line (the target of a
    /// next-line prefetch).
    #[must_use]
    pub const fn next(self) -> LineAddr {
        LineAddr(self.0.wrapping_add(1))
    }

    /// Returns the byte address of the first byte in this line.
    #[must_use]
    pub fn base_addr(self, line_size: u64) -> Addr {
        debug_assert!(line_size.is_power_of_two());
        Addr(self.0 << line_size.trailing_zeros())
    }
}

impl From<u64> for LineAddr {
    fn from(raw: u64) -> Self {
        LineAddr(raw)
    }
}

impl From<LineAddr> for u64 {
    fn from(l: LineAddr) -> u64 {
        l.0
    }
}

impl fmt::Display for LineAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {:#x}", self.0)
    }
}

impl fmt::LowerHex for LineAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_extraction() {
        assert_eq!(Addr::new(0).line(64), LineAddr::new(0));
        assert_eq!(Addr::new(63).line(64), LineAddr::new(0));
        assert_eq!(Addr::new(64).line(64), LineAddr::new(1));
        assert_eq!(Addr::new(0xffff).line(64), LineAddr::new(0x3ff));
    }

    #[test]
    fn offset_within_line() {
        assert_eq!(Addr::new(0x1043).offset(64), 3);
        assert_eq!(Addr::new(0x1040).offset(64), 0);
        assert_eq!(Addr::new(0x107f).offset(64), 63);
    }

    #[test]
    fn line_round_trip() {
        let a = Addr::new(0xdead_bec0);
        let line = a.line(64);
        let base = line.base_addr(64);
        assert!(base <= a);
        assert!(a.raw() - base.raw() < 64);
    }

    #[test]
    fn next_line_is_sequential() {
        let line = Addr::new(0x1000).line(64);
        assert_eq!(line.next().base_addr(64), Addr::new(0x1040));
    }

    #[test]
    fn addr_arithmetic() {
        let a = Addr::new(100);
        assert_eq!(a + 28, Addr::new(128));
        assert_eq!(a - 100, Addr::new(0));
    }

    #[test]
    fn display_is_hex() {
        assert_eq!(Addr::new(0xabc).to_string(), "0xabc");
        assert_eq!(format!("{:x}", LineAddr::new(0xff)), "ff");
    }
}
