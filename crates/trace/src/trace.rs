//! The in-memory trace and its binary serialization.

use std::error::Error;
use std::fmt;

use brepl_ir::{BranchId, Lanes};

use crate::codec::{read_varint, unzigzag, write_varint, zigzag, BitReader, BitWriter};
use crate::stats::TraceStats;

/// One executed conditional branch.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct TraceEvent {
    /// The static branch site.
    pub site: BranchId,
    /// The direction taken.
    pub taken: bool,
}

/// A branch trace: the sequence of `(site, direction)` events produced by
/// one program execution.
///
/// Events are stored as one packed `u32` each (`site << 1 | taken`), so a
/// ten-million-branch trace occupies 40 MB in memory; the serialized form
/// ([`Trace::to_bytes`]) is considerably smaller because consecutive sites
/// are usually close together (loops) and directions pack to one bit.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Trace {
    packed: Vec<u32>,
}

/// A malformed trace: decoding failed or an event cannot be represented.
///
/// Every byte-input path through this crate is *total* — malformed input
/// of any shape yields one of these variants, never a panic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceError {
    /// The magic number or version did not match.
    BadHeader,
    /// The byte stream ended prematurely, a varint overflowed, or the
    /// declared event count exceeds what the remaining bytes could encode.
    Truncated,
    /// A site id exceeded the encodable range (31 bits).
    SiteOutOfRange,
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::BadHeader => write!(f, "bad trace header"),
            TraceError::Truncated => write!(f, "truncated trace data"),
            TraceError::SiteOutOfRange => write!(f, "branch site id out of range"),
        }
    }
}

impl Error for TraceError {}

const MAGIC: &[u8; 4] = b"BRTR";
const VERSION: u8 = 1;
/// Site ids must fit in 31 bits to pack with the direction.
const MAX_SITE: u32 = u32::MAX >> 1;

impl Trace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty trace with capacity for `n` events.
    pub fn with_capacity(n: usize) -> Self {
        Trace {
            packed: Vec::with_capacity(n),
        }
    }

    /// Appends an event, rejecting unrepresentable site ids with a typed
    /// error: the total form [`Trace::from_bytes`] decodes through.
    ///
    /// # Errors
    ///
    /// [`TraceError::SiteOutOfRange`] if the site id does not fit in 31
    /// bits.
    fn try_push(&mut self, ev: TraceEvent) -> Result<(), TraceError> {
        if ev.site.0 > MAX_SITE {
            return Err(TraceError::SiteOutOfRange);
        }
        self.packed.push(ev.site.0 << 1 | u32::from(ev.taken));
        Ok(())
    }

    /// Appends an event.
    ///
    /// # Panics
    ///
    /// Panics if the site id does not fit in 31 bits. Site ids produced by
    /// `Module::renumber_branches` are sequential and can never get close,
    /// so in-process producers (the simulator) use this form; ids from
    /// *outside* the process arrive through the total [`Trace::from_bytes`].
    pub fn push(&mut self, ev: TraceEvent) {
        self.try_push(ev).expect("site id exceeds 31 bits");
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.packed.len()
    }

    /// True when no events were recorded.
    pub fn is_empty(&self) -> bool {
        self.packed.is_empty()
    }

    /// Iterates over the events in execution order.
    pub fn iter(&self) -> impl Iterator<Item = TraceEvent> + '_ {
        self.packed.iter().map(|&p| TraceEvent {
            site: BranchId(p >> 1),
            taken: p & 1 == 1,
        })
    }

    /// The raw packed event words (`site << 1 | taken`), in execution
    /// order. Batched evaluators (stats, static replay, pattern tables)
    /// run as single array passes over this instead of materializing
    /// [`TraceEvent`]s.
    pub fn packed(&self) -> &[u32] {
        &self.packed
    }

    /// The highest site id observed, or `None` for an empty trace. One
    /// array pass; batched passes use it to pre-size per-site tables.
    pub fn max_site(&self) -> Option<BranchId> {
        self.packed.iter().max().map(|&p| BranchId(p >> 1))
    }

    /// A canonical 128-bit fingerprint of the event stream.
    ///
    /// Dual-lane FNV-1a over the length and the packed words, two events
    /// per mixed word. Equal fingerprints identify equal traces to the
    /// stage-level memo in `brepl-core`, where they let whole selection
    /// results be reused across pipeline stages.
    pub fn fingerprint(&self) -> (u64, u64) {
        let mut h = Lanes::new();
        h.mix(self.packed.len() as u64);
        for pair in self.packed.chunks(2) {
            let lo = u64::from(pair[0]);
            let hi = pair.get(1).copied().map_or(0, u64::from);
            h.mix(lo | hi << 32);
        }
        h.finish()
    }

    /// Computes per-site statistics in one pass.
    pub fn stats(&self) -> TraceStats {
        TraceStats::from_trace(self)
    }

    /// Serializes the trace: magic, version, event count, varint-encoded
    /// zig-zag site deltas, then the packed direction bitstream.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.len() / 2 + 16);
        out.extend_from_slice(MAGIC);
        out.push(VERSION);
        write_varint(&mut out, self.len() as u64);
        let mut prev: i64 = 0;
        let mut dirs = BitWriter::new();
        for ev in self.iter() {
            let site = i64::from(ev.site.0);
            write_varint(&mut out, zigzag(site - prev));
            prev = site;
            dirs.push(ev.taken);
        }
        out.extend_from_slice(&dirs.into_bytes());
        out
    }

    /// Deserializes a trace produced by [`Trace::to_bytes`]. Total: any
    /// byte string returns `Ok` or a typed error, never a panic.
    ///
    /// # Errors
    ///
    /// Returns a [`TraceError`] on malformed input.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, TraceError> {
        if bytes.len() < 5 || &bytes[..4] != MAGIC || bytes[4] != VERSION {
            return Err(TraceError::BadHeader);
        }
        let mut pos = 5;
        let count64 = read_varint(bytes, &mut pos).ok_or(TraceError::Truncated)?;
        // Every event costs at least one site byte (plus direction bits),
        // so a declared count beyond the remaining bytes is malformed.
        // Checking *before* allocating keeps an adversarial header from
        // forcing a huge (or capacity-overflowing) preallocation.
        if count64 > (bytes.len() - pos) as u64 {
            return Err(TraceError::Truncated);
        }
        let count = count64 as usize;
        let mut sites = Vec::with_capacity(count);
        let mut prev: i64 = 0;
        for _ in 0..count {
            let delta = read_varint(bytes, &mut pos).ok_or(TraceError::Truncated)?;
            // checked_add: an adversarial delta can overflow i64, which is
            // just another way of being out of range.
            let site = prev
                .checked_add(unzigzag(delta))
                .ok_or(TraceError::SiteOutOfRange)?;
            if site < 0 || site > i64::from(MAX_SITE) {
                return Err(TraceError::SiteOutOfRange);
            }
            prev = site;
            sites.push(site as u32);
        }
        let mut dirs = BitReader::new(&bytes[pos..]);
        let mut trace = Trace::with_capacity(count);
        for site in sites {
            let taken = dirs.next().ok_or(TraceError::Truncated)?;
            trace.try_push(TraceEvent {
                site: BranchId(site),
                taken,
            })?;
        }
        Ok(trace)
    }
}

impl FromIterator<TraceEvent> for Trace {
    fn from_iter<I: IntoIterator<Item = TraceEvent>>(iter: I) -> Self {
        let mut t = Trace::new();
        for ev in iter {
            t.push(ev);
        }
        t
    }
}

impl Extend<TraceEvent> for Trace {
    fn extend<I: IntoIterator<Item = TraceEvent>>(&mut self, iter: I) {
        for ev in iter {
            self.push(ev);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn loopy_trace(n: usize) -> Trace {
        // Three sites cycling like a loop: exit check, body branch, nested.
        (0..n)
            .map(|i| TraceEvent {
                site: BranchId((i % 3) as u32),
                taken: i % 7 != 0,
            })
            .collect()
    }

    #[test]
    fn fingerprint_discriminates() {
        let a = loopy_trace(100);
        let b = loopy_trace(101);
        assert_eq!(a.fingerprint(), loopy_trace(100).fingerprint());
        assert_ne!(a.fingerprint(), b.fingerprint());
        // A single flipped direction is visible.
        let mut flipped = Trace::new();
        for (i, ev) in a.iter().enumerate() {
            flipped.push(TraceEvent {
                site: ev.site,
                taken: if i == 50 { !ev.taken } else { ev.taken },
            });
        }
        assert_ne!(a.fingerprint(), flipped.fingerprint());
        assert_ne!(Trace::new().fingerprint(), a.fingerprint());
    }

    #[test]
    fn round_trip_empty() {
        let t = Trace::new();
        assert!(t.is_empty());
        assert_eq!(Trace::from_bytes(&t.to_bytes()).unwrap(), t);
    }

    #[test]
    fn round_trip_loopy() {
        let t = loopy_trace(10_000);
        let bytes = t.to_bytes();
        assert_eq!(Trace::from_bytes(&bytes).unwrap(), t);
        // Loop-like traces compress well below 4 bytes/event: deltas are
        // tiny and directions are one bit.
        assert!(
            bytes.len() < 10_000 * 2,
            "expected < 2 bytes/event, got {}",
            bytes.len()
        );
    }

    #[test]
    fn bad_header_rejected() {
        assert_eq!(
            Trace::from_bytes(b"NOPE\x01\x00"),
            Err(TraceError::BadHeader)
        );
        assert_eq!(Trace::from_bytes(b""), Err(TraceError::BadHeader));
    }

    #[test]
    fn truncated_rejected() {
        let t = loopy_trace(100);
        let bytes = t.to_bytes();
        assert_eq!(
            Trace::from_bytes(&bytes[..bytes.len() - 13]),
            Err(TraceError::Truncated)
        );
    }

    #[test]
    fn oversized_site_is_a_typed_error() {
        let mut t = Trace::new();
        let err = t
            .try_push(TraceEvent {
                site: BranchId(u32::MAX),
                taken: false,
            })
            .unwrap_err();
        assert_eq!(err, TraceError::SiteOutOfRange);
        assert!(t.is_empty(), "a rejected event must not be recorded");
        // The last representable site round-trips.
        t.try_push(TraceEvent {
            site: BranchId(u32::MAX >> 1),
            taken: true,
        })
        .unwrap();
        assert_eq!(Trace::from_bytes(&t.to_bytes()).unwrap(), t);
    }

    #[test]
    fn huge_declared_count_is_rejected_without_allocating() {
        // Header + varint(u64::MAX) as the event count: must fail fast
        // with Truncated, not preallocate 2^64 slots.
        let mut bytes = b"BRTR\x01".to_vec();
        bytes.extend_from_slice(&[0xff; 9]);
        bytes.push(0x01);
        assert_eq!(Trace::from_bytes(&bytes), Err(TraceError::Truncated));
    }

    /// Deterministic codec fuzz: single-byte mutations, truncations and
    /// garbage must all decode totally (Ok or typed Err — a panic fails
    /// the test by unwinding).
    #[test]
    fn decoding_is_total_under_mutation() {
        let valid = loopy_trace(200).to_bytes();
        for i in 0..valid.len() {
            for flip in [0x01u8, 0x80, 0xff] {
                let mut mutated = valid.clone();
                mutated[i] ^= flip;
                let _ = Trace::from_bytes(&mutated);
            }
            let _ = Trace::from_bytes(&valid[..i]);
        }
        // Xorshift garbage of assorted lengths.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        for len in [0usize, 1, 4, 5, 6, 13, 64, 509] {
            let mut garbage = Vec::with_capacity(len);
            for _ in 0..len {
                state ^= state >> 12;
                state ^= state << 25;
                state ^= state >> 27;
                garbage.push((state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 56) as u8);
            }
            let _ = Trace::from_bytes(&garbage);
            // Garbage behind a valid header must still be total.
            let mut headed = b"BRTR\x01".to_vec();
            headed.extend_from_slice(&garbage);
            let _ = Trace::from_bytes(&headed);
        }
    }
}
