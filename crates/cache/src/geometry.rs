//! Cache geometry: size / associativity / line-size arithmetic.

use core::fmt;

use sim_core::{log2_exact, LineAddr};

/// An error constructing a [`CacheGeometry`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ConfigError {
    /// A parameter that must be a power of two was not.
    NotPowerOfTwo {
        /// Which parameter was invalid.
        what: &'static str,
        /// The offending value.
        value: u64,
    },
    /// The capacity is too small to hold even one line per way.
    TooSmall {
        /// Requested capacity in bytes.
        size_bytes: u64,
        /// Requested associativity.
        associativity: u32,
        /// Requested line size in bytes.
        line_size: u64,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::NotPowerOfTwo { what, value } => {
                write!(f, "{what} must be a power of two, got {value}")
            }
            ConfigError::TooSmall { size_bytes, associativity, line_size } => write!(
                f,
                "cache of {size_bytes} bytes cannot hold {associativity} ways of {line_size}-byte lines"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

/// The shape of a cache: capacity, associativity and line size.
///
/// All address-field extraction (set index, tag) lives here so every
/// structure that mirrors the cache's indexing — the Miss
/// Classification Table above all — computes fields identically.
///
/// # Examples
///
/// ```
/// use cache_model::CacheGeometry;
/// use sim_core::Addr;
///
/// // The paper's L1: 16 KB direct-mapped, 64-byte lines => 256 sets.
/// let geom = CacheGeometry::new(16 * 1024, 1, 64)?;
/// assert_eq!(geom.num_sets(), 256);
/// let line = Addr::new(0x12345).line(64);
/// assert_eq!(geom.set_index(line), (0x12345 >> 6) as usize % 256);
/// # Ok::<(), cache_model::ConfigError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheGeometry {
    size_bytes: u64,
    associativity: u32,
    line_size: u64,
    set_bits: u32,
}

impl CacheGeometry {
    /// Creates a geometry for a cache of `size_bytes` capacity,
    /// `associativity` ways, and `line_size`-byte lines.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if any parameter is not a power of two,
    /// if `associativity` is zero, or if the capacity cannot hold at
    /// least one full set.
    pub fn new(size_bytes: u64, associativity: u32, line_size: u64) -> Result<Self, ConfigError> {
        if log2_exact(line_size).is_none() {
            return Err(ConfigError::NotPowerOfTwo {
                what: "line size",
                value: line_size,
            });
        }
        if log2_exact(size_bytes).is_none() {
            return Err(ConfigError::NotPowerOfTwo {
                what: "cache size",
                value: size_bytes,
            });
        }
        if associativity == 0 || log2_exact(u64::from(associativity)).is_none() {
            return Err(ConfigError::NotPowerOfTwo {
                what: "associativity",
                value: u64::from(associativity),
            });
        }
        let set_bytes = line_size * u64::from(associativity);
        if size_bytes < set_bytes {
            return Err(ConfigError::TooSmall {
                size_bytes,
                associativity,
                line_size,
            });
        }
        let num_sets = size_bytes / set_bytes;
        // num_sets is a power of two because all inputs are.
        let set_bits = num_sets.trailing_zeros();
        Ok(CacheGeometry {
            size_bytes,
            associativity,
            line_size,
            set_bits,
        })
    }

    /// Total capacity in bytes.
    #[must_use]
    pub const fn size_bytes(&self) -> u64 {
        self.size_bytes
    }

    /// Number of ways per set (1 = direct-mapped).
    #[must_use]
    pub const fn associativity(&self) -> u32 {
        self.associativity
    }

    /// Line size in bytes.
    #[must_use]
    pub const fn line_size(&self) -> u64 {
        self.line_size
    }

    /// Number of sets.
    #[must_use]
    pub const fn num_sets(&self) -> usize {
        1 << self.set_bits
    }

    /// Number of index bits (log2 of the set count).
    #[must_use]
    pub const fn set_bits(&self) -> u32 {
        self.set_bits
    }

    /// Total number of lines the cache can hold.
    #[must_use]
    pub const fn num_lines(&self) -> usize {
        self.num_sets() * self.associativity as usize
    }

    /// The set a line maps to.
    #[must_use]
    pub fn set_index(&self, line: LineAddr) -> usize {
        (line.raw() & ((1 << self.set_bits) - 1)) as usize
    }

    /// The tag of a line (the line address above the index bits).
    #[must_use]
    pub fn tag(&self, line: LineAddr) -> u64 {
        line.raw() >> self.set_bits
    }

    /// Reconstructs a line address from its tag and set index.
    ///
    /// Inverse of [`Self::set_index`] + [`Self::tag`]; used to name
    /// evicted lines.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `set` is out of range.
    #[must_use]
    pub fn line_from_parts(&self, tag: u64, set: usize) -> LineAddr {
        debug_assert!(set < self.num_sets());
        LineAddr::new((tag << self.set_bits) | set as u64)
    }

    /// Number of meaningful tag bits for a `bits`-bit address space.
    ///
    /// Used by the MCT partial-tag sweep (Figure 2) to know what
    /// "the full tag" means.
    #[must_use]
    pub fn full_tag_bits(&self, address_bits: u32) -> u32 {
        let line_bits = self.line_size.trailing_zeros();
        address_bits.saturating_sub(line_bits + self.set_bits)
    }
}

impl fmt::Display for CacheGeometry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} KB {}-way, {}-byte lines ({} sets)",
            self.size_bytes / 1024,
            self.associativity,
            self.line_size,
            self.num_sets()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::Addr;

    fn paper_l1() -> CacheGeometry {
        CacheGeometry::new(16 * 1024, 1, 64).unwrap()
    }

    #[test]
    fn paper_configurations() {
        let l1 = paper_l1();
        assert_eq!(l1.num_sets(), 256);
        assert_eq!(l1.num_lines(), 256);

        let l1_2way = CacheGeometry::new(16 * 1024, 2, 64).unwrap();
        assert_eq!(l1_2way.num_sets(), 128);
        assert_eq!(l1_2way.num_lines(), 256);

        let l2 = CacheGeometry::new(1024 * 1024, 2, 64).unwrap();
        assert_eq!(l2.num_sets(), 8192);
    }

    #[test]
    fn rejects_bad_parameters() {
        assert!(matches!(
            CacheGeometry::new(10_000, 1, 64),
            Err(ConfigError::NotPowerOfTwo {
                what: "cache size",
                ..
            })
        ));
        assert!(matches!(
            CacheGeometry::new(16 * 1024, 3, 64),
            Err(ConfigError::NotPowerOfTwo {
                what: "associativity",
                ..
            })
        ));
        assert!(matches!(
            CacheGeometry::new(16 * 1024, 0, 64),
            Err(ConfigError::NotPowerOfTwo {
                what: "associativity",
                ..
            })
        ));
        assert!(matches!(
            CacheGeometry::new(16 * 1024, 1, 48),
            Err(ConfigError::NotPowerOfTwo {
                what: "line size",
                ..
            })
        ));
        assert!(matches!(
            CacheGeometry::new(64, 2, 64),
            Err(ConfigError::TooSmall { .. })
        ));
    }

    #[test]
    fn tag_index_round_trip() {
        let geom = paper_l1();
        for raw in [0u64, 0x40, 0x1234_5678, u64::MAX >> 8] {
            let line = Addr::new(raw).line(64);
            let set = geom.set_index(line);
            let tag = geom.tag(line);
            assert_eq!(geom.line_from_parts(tag, set), line);
        }
    }

    #[test]
    fn lines_one_cache_size_apart_share_a_set() {
        let geom = paper_l1();
        let a = Addr::new(0x0000).line(64);
        let b = Addr::new(16 * 1024).line(64);
        assert_eq!(geom.set_index(a), geom.set_index(b));
        assert_ne!(geom.tag(a), geom.tag(b));
    }

    #[test]
    fn full_tag_bits_for_paper_l1() {
        let geom = paper_l1();
        // 32-bit addresses: 32 - 6 (offset) - 8 (index) = 18 tag bits.
        assert_eq!(geom.full_tag_bits(32), 18);
        assert_eq!(geom.full_tag_bits(64), 50);
        assert_eq!(geom.full_tag_bits(10), 0);
    }

    #[test]
    fn display_mentions_shape() {
        assert_eq!(
            paper_l1().to_string(),
            "16 KB 1-way, 64-byte lines (256 sets)"
        );
    }
}
