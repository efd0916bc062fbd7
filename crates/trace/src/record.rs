//! Recorded traces and a compact binary codec.
//!
//! Generators are cheap enough to re-run, but recording supports
//! (a) regression-testing against a frozen reference stream and
//! (b) exchanging traces with other tools. The format is a simple
//! little-endian framing with a magic header — no external codec
//! dependency.

use std::fmt;
use std::io::{self, Read, Write};

use sim_core::Addr;

use crate::{AccessKind, MemoryAccess, TraceEvent};

const MAGIC: &[u8; 8] = b"CMTRACE1";

/// An error reading a recorded trace.
#[derive(Debug)]
#[non_exhaustive]
pub enum CodecError {
    /// The stream did not start with the trace magic.
    BadMagic,
    /// An access kind byte was neither load nor store.
    BadKind(u8),
    /// Underlying I/O failure.
    Io(io::Error),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::BadMagic => f.write_str("not a recorded trace (bad magic)"),
            CodecError::BadKind(b) => write!(f, "invalid access kind byte {b:#x}"),
            CodecError::Io(e) => write!(f, "trace i/o error: {e}"),
        }
    }
}

impl std::error::Error for CodecError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CodecError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for CodecError {
    fn from(e: io::Error) -> Self {
        CodecError::Io(e)
    }
}

/// A finite, recorded reference stream.
///
/// # Examples
///
/// ```
/// use trace_gen::{Trace, TraceSource};
/// use trace_gen::pattern::SequentialSweep;
/// use sim_core::Addr;
///
/// let trace: Trace = SequentialSweep::new(Addr::new(0), 1024, 8)
///     .take_events(100)
///     .collect();
/// let mut bytes = Vec::new();
/// trace.write_to(&mut bytes)?;
/// let back = Trace::read_from(&mut bytes.as_slice())?;
/// assert_eq!(trace, back);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Trace {
    events: Vec<TraceEvent>,
}

impl Trace {
    /// Creates an empty trace.
    #[must_use]
    pub fn new() -> Self {
        Trace::default()
    }

    /// The recorded events.
    #[must_use]
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Number of events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` if no events are recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Appends an event.
    pub fn push(&mut self, event: TraceEvent) {
        self.events.push(event);
    }

    /// Iterates over the events.
    pub fn iter(&self) -> impl Iterator<Item = &TraceEvent> + '_ {
        self.events.iter()
    }

    /// Total instructions the trace represents (accesses + work).
    #[must_use]
    pub fn instructions(&self) -> u64 {
        self.events.iter().map(TraceEvent::instructions).sum()
    }

    /// Number of distinct cache lines touched, for a given line size.
    #[must_use]
    pub fn footprint_lines(&self, line_size: u64) -> usize {
        let mut lines: Vec<u64> = self
            .events
            .iter()
            .map(|e| e.access.addr.line(line_size).raw())
            .collect();
        lines.sort_unstable();
        lines.dedup();
        lines.len()
    }

    /// Serializes the trace. A mut reference to any `Write` works
    /// (e.g. `&mut file`).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the writer.
    pub fn write_to<W: Write>(&self, mut w: W) -> Result<(), CodecError> {
        w.write_all(MAGIC)?;
        w.write_all(&(self.events.len() as u64).to_le_bytes())?;
        for e in &self.events {
            w.write_all(&e.access.addr.raw().to_le_bytes())?;
            w.write_all(&e.access.pc.raw().to_le_bytes())?;
            w.write_all(&e.work.to_le_bytes())?;
            let kind = match e.access.kind {
                AccessKind::Load => 0u8,
                AccessKind::Store => 1u8,
            };
            w.write_all(&[kind])?;
        }
        Ok(())
    }

    /// Deserializes a trace written by [`Self::write_to`]. A mut
    /// reference to any `Read` works.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::BadMagic`] or [`CodecError::BadKind`] on
    /// malformed input, and propagates I/O errors.
    pub fn read_from<R: Read>(mut r: R) -> Result<Self, CodecError> {
        let mut magic = [0u8; 8];
        r.read_exact(&mut magic)?;
        if &magic != MAGIC {
            return Err(CodecError::BadMagic);
        }
        let mut len8 = [0u8; 8];
        r.read_exact(&mut len8)?;
        let len = u64::from_le_bytes(len8) as usize;
        let mut events = Vec::with_capacity(len.min(1 << 24));
        for _ in 0..len {
            let mut buf = [0u8; 21];
            r.read_exact(&mut buf)?;
            let addr = u64::from_le_bytes(buf[0..8].try_into().expect("slice of 8"));
            let pc = u64::from_le_bytes(buf[8..16].try_into().expect("slice of 8"));
            let work = u32::from_le_bytes(buf[16..20].try_into().expect("slice of 4"));
            let kind = match buf[20] {
                0 => AccessKind::Load,
                1 => AccessKind::Store,
                b => return Err(CodecError::BadKind(b)),
            };
            events.push(TraceEvent::new(
                MemoryAccess {
                    addr: Addr::new(addr),
                    kind,
                    pc: Addr::new(pc),
                },
                work,
            ));
        }
        Ok(Trace { events })
    }
}

impl FromIterator<TraceEvent> for Trace {
    fn from_iter<I: IntoIterator<Item = TraceEvent>>(iter: I) -> Self {
        Trace {
            events: iter.into_iter().collect(),
        }
    }
}

impl Extend<TraceEvent> for Trace {
    fn extend<I: IntoIterator<Item = TraceEvent>>(&mut self, iter: I) {
        self.events.extend(iter);
    }
}

impl IntoIterator for Trace {
    type Item = TraceEvent;
    type IntoIter = std::vec::IntoIter<TraceEvent>;

    fn into_iter(self) -> Self::IntoIter {
        self.events.into_iter()
    }
}

impl<'a> IntoIterator for &'a Trace {
    type Item = &'a TraceEvent;
    type IntoIter = std::slice::Iter<'a, TraceEvent>;

    fn into_iter(self) -> Self::IntoIter {
        self.events.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::{SequentialSweep, ZipfAccess};
    use crate::TraceSource;

    fn sample(n: usize) -> Trace {
        ZipfAccess::new(Addr::new(0x1000), 64, 64, 0.8, 3)
            .with_store_period(3)
            .with_work(5)
            .take_events(n)
            .collect()
    }

    #[test]
    fn round_trip_preserves_everything() {
        let t = sample(500);
        let mut bytes = Vec::new();
        t.write_to(&mut bytes).unwrap();
        let back = Trace::read_from(bytes.as_slice()).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn empty_trace_round_trips() {
        let t = Trace::new();
        let mut bytes = Vec::new();
        t.write_to(&mut bytes).unwrap();
        assert_eq!(Trace::read_from(bytes.as_slice()).unwrap(), t);
    }

    #[test]
    fn bad_magic_detected() {
        let err = Trace::read_from(&b"NOTATRACE"[..]).unwrap_err();
        assert!(matches!(err, CodecError::BadMagic));
    }

    #[test]
    fn bad_kind_detected() {
        let t = sample(1);
        let mut bytes = Vec::new();
        t.write_to(&mut bytes).unwrap();
        let last = bytes.len() - 1;
        bytes[last] = 9;
        let err = Trace::read_from(bytes.as_slice()).unwrap_err();
        assert!(matches!(err, CodecError::BadKind(9)));
    }

    #[test]
    fn truncated_stream_is_io_error() {
        let t = sample(10);
        let mut bytes = Vec::new();
        t.write_to(&mut bytes).unwrap();
        bytes.truncate(bytes.len() - 5);
        let err = Trace::read_from(bytes.as_slice()).unwrap_err();
        assert!(matches!(err, CodecError::Io(_)));
    }

    #[test]
    fn instructions_and_footprint() {
        let t: Trace = SequentialSweep::new(Addr::new(0), 4 * 64, 64)
            .with_work(2)
            .take_events(8)
            .collect();
        assert_eq!(t.instructions(), 8 * 3);
        assert_eq!(t.footprint_lines(64), 4);
    }

    #[test]
    fn collect_and_extend() {
        let mut t: Trace = sample(5);
        t.extend(sample(5));
        assert_eq!(t.len(), 10);
        let total: usize = (&t).into_iter().count();
        assert_eq!(total, 10);
    }
}
