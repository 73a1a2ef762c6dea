//! Dense per-site outcome bitstreams.
//!
//! [`Trace::packed`] interleaves all sites in execution order; the machine
//! search instead wants each site's outcome *stream* on its own, dense
//! enough to evaluate word-at-a-time. A [`PackedStream`] stores one site's
//! directions as `u64` words, 64 outcomes per word with the oldest outcome
//! in bit 0 of word 0 — the same packing `brepl-core`'s memo fingerprint
//! uses, so a stream's fingerprint can be computed straight from its words
//! without unpacking.

use crate::stats::TraceStats;
use crate::trace::Trace;

/// One branch site's outcome stream as a packed bitvector.
///
/// Outcomes are appended LSB-first: outcome `i` lives in bit `i % 64` of
/// word `i / 64`. The tail word's unused high bits are always zero — an
/// invariant every constructor maintains, which lets word-level consumers
/// (fingerprints, chunked machine evaluation) treat the words
/// array as canonical.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PackedStream {
    words: Vec<u64>,
    len: usize,
}

impl PackedStream {
    /// Creates an empty stream.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty stream with capacity for `n` outcomes.
    pub fn with_capacity(n: usize) -> Self {
        PackedStream {
            words: Vec::with_capacity(n.div_ceil(64)),
            len: 0,
        }
    }

    /// Appends one outcome.
    #[inline]
    pub fn push(&mut self, taken: bool) {
        let bit = self.len % 64;
        if bit == 0 {
            self.words.push(0);
        }
        if taken {
            *self.words.last_mut().expect("word pushed above") |= 1u64 << bit;
        }
        self.len += 1;
    }

    /// Appends the low `width` bits of `bits`, least significant first,
    /// as `width` outcomes. `width` must be a power of two no larger than
    /// 64 and the stream length a multiple of it, so that the bits land
    /// in one word; [`Self::bits`] reads them back.
    pub fn push_bits(&mut self, bits: u64, width: u32) {
        debug_assert!(width.is_power_of_two() && width <= 64);
        debug_assert!(self.len.is_multiple_of(width as usize));
        let bit = self.len % 64;
        if bit == 0 {
            self.words.push(0);
        }
        let mask = u64::MAX >> (64 - width);
        *self.words.last_mut().expect("word pushed above") |= (bits & mask) << bit;
        self.len += width as usize;
    }

    /// The `width` outcomes from index `at` as bits, least significant
    /// first: the value [`Self::push_bits`] appended at `at`, under the
    /// same alignment rule.
    ///
    /// # Panics
    ///
    /// Panics if `at + width > len()`.
    pub fn bits(&self, at: usize, width: u32) -> u64 {
        assert!(at + width as usize <= self.len, "bit range out of range");
        let mask = u64::MAX >> (64 - width);
        self.words[at / 64] >> (at % 64) & mask
    }

    /// Number of outcomes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no outcomes were recorded.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The packed words, oldest outcome in bit 0 of word 0. Exactly
    /// `len().div_ceil(64)` words; tail bits beyond `len()` are zero.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// The outcome at `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= len()`.
    pub fn get(&self, idx: usize) -> bool {
        assert!(idx < self.len, "outcome index out of range");
        self.words[idx / 64] >> (idx % 64) & 1 == 1
    }

    /// Iterates over the outcomes in stream order.
    pub fn iter(&self) -> impl Iterator<Item = bool> + '_ {
        (0..self.len).map(move |i| self.words[i / 64] >> (i % 64) & 1 == 1)
    }

    /// Number of taken outcomes — one popcount per word.
    pub fn count_taken(&self) -> u64 {
        self.words.iter().map(|w| u64::from(w.count_ones())).sum()
    }
}

impl FromIterator<bool> for PackedStream {
    fn from_iter<I: IntoIterator<Item = bool>>(iter: I) -> Self {
        let mut s = PackedStream::new();
        for taken in iter {
            s.push(taken);
        }
        s
    }
}

/// Splits a trace into per-site packed outcome streams in one pass,
/// pre-sized from `stats` so no stream ever reallocates. Index `i` of the
/// result is site `i`'s stream (empty for sites that never executed);
/// the vector covers `0..=max_site`.
pub fn packed_site_streams(trace: &Trace, stats: &TraceStats) -> Vec<PackedStream> {
    let n_sites = trace.max_site().map_or(0, |s| s.index() + 1);
    let mut streams: Vec<PackedStream> = (0..n_sites)
        .map(|i| {
            PackedStream::with_capacity(
                stats.site(brepl_ir::BranchId::from_index(i)).total() as usize
            )
        })
        .collect();
    for &p in trace.packed() {
        streams[(p >> 1) as usize].push(p & 1 == 1);
    }
    streams
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceEvent;
    use brepl_ir::BranchId;

    fn xorshift_bools(n: usize, mut state: u64) -> Vec<bool> {
        (0..n)
            .map(|_| {
                state ^= state >> 12;
                state ^= state << 25;
                state ^= state >> 27;
                state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 63 == 1
            })
            .collect()
    }

    #[test]
    fn round_trips_at_word_boundaries() {
        for n in [0usize, 1, 63, 64, 65, 127, 128, 129, 1000] {
            let dirs = xorshift_bools(n, 0x9e37 + n as u64);
            let s: PackedStream = dirs.iter().copied().collect();
            assert_eq!(s.len(), n);
            assert_eq!(s.words().len(), n.div_ceil(64));
            let back: Vec<bool> = s.iter().collect();
            assert_eq!(back, dirs, "n = {n}");
            for (i, &d) in dirs.iter().enumerate() {
                assert_eq!(s.get(i), d);
            }
            assert_eq!(s.count_taken(), dirs.iter().filter(|&&d| d).count() as u64);
        }
    }

    #[test]
    fn per_site_streams_match_scalar_split() {
        let mut trace = Trace::new();
        let mut state = 0xdead_beefu64;
        for _ in 0..10_000 {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            let r = state.wrapping_mul(0x2545_F491_4F6C_DD1D);
            trace.push(TraceEvent {
                site: BranchId((r % 7) as u32),
                taken: r & (1 << 40) != 0,
            });
        }
        let stats = trace.stats();
        let streams = packed_site_streams(&trace, &stats);
        let mut scalar: Vec<Vec<bool>> = vec![Vec::new(); 7];
        for ev in trace.iter() {
            scalar[ev.site.index()].push(ev.taken);
        }
        assert_eq!(streams.len(), 7);
        for (i, s) in streams.iter().enumerate() {
            assert_eq!(s.iter().collect::<Vec<bool>>(), scalar[i], "site {i}");
            assert_eq!(s.len() as u64, stats.site(BranchId(i as u32)).total());
        }
    }

    #[test]
    fn bit_fields_round_trip_at_every_width() {
        for width in [1u32, 2, 4, 8, 16, 32, 64] {
            let mask = u64::MAX >> (64 - width);
            let values: Vec<u64> = (0..200u64)
                .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15) & mask)
                .collect();
            let mut s = PackedStream::new();
            for &v in &values {
                s.push_bits(v | !mask, width);
            }
            assert_eq!(s.len(), values.len() * width as usize);
            assert_eq!(s.words().len(), s.len().div_ceil(64));
            for (i, &v) in values.iter().enumerate() {
                assert_eq!(s.bits(i * width as usize, width), v, "width {width}");
            }
        }
    }

    #[test]
    fn empty_trace_has_no_streams() {
        let t = Trace::new();
        assert!(packed_site_streams(&t, &t.stats()).is_empty());
    }
}
