//! Windowed per-site counters for online drift detection.
//!
//! The re-specialization layer (`brepl_core::respec`) watches a shipped
//! program's branch behaviour segment by segment and compares it against
//! the planning-time expectation. Its unit of observation is a *window*:
//! a fixed-length run of consecutive outcomes at one site, summarised as
//! a [`SiteCounts`]. Windows are computed from [`PackedStream`] words —
//! whole words are popcounted and only the window edges pay a mask — so
//! the feed costs ~1 instruction per 64 outcomes.
//!
//! [`windowed_counts`] slices a single stream; a per-site feed is one call
//! per stream of [`packed_site_streams`](crate::packed_site_streams).

use crate::packed::PackedStream;
use crate::stats::SiteCounts;

/// Number of taken outcomes in `stream[start..end)`, word-at-a-time.
///
/// Whole words inside the range are popcounted directly; the first and
/// last partial words are masked. `start..end` must lie within the
/// stream (`end <= len`), and `start <= end`.
fn count_taken_range(stream: &PackedStream, start: usize, end: usize) -> u64 {
    debug_assert!(start <= end && end <= stream.len());
    if start == end {
        return 0;
    }
    let words = stream.words();
    let (first_word, first_bit) = (start / 64, start % 64);
    let (last_word, last_bits) = ((end - 1) / 64, (end - 1) % 64 + 1);
    if first_word == last_word {
        let mask = if last_bits == 64 {
            u64::MAX
        } else {
            (1u64 << last_bits) - 1
        };
        let w = words[first_word] & mask & !((1u64 << first_bit) - 1);
        return u64::from(w.count_ones());
    }
    let mut taken = u64::from((words[first_word] & !((1u64 << first_bit) - 1)).count_ones());
    for &w in &words[first_word + 1..last_word] {
        taken += u64::from(w.count_ones());
    }
    let tail_mask = if last_bits == 64 {
        u64::MAX
    } else {
        (1u64 << last_bits) - 1
    };
    taken += u64::from((words[last_word] & tail_mask).count_ones());
    taken
}

/// Splits one site's outcome stream into consecutive windows of `window`
/// outcomes each and returns a [`SiteCounts`] per window. The final
/// window is partial when the stream length is not a multiple of
/// `window`; it is included (callers that want full windows only can
/// drop it). An empty stream yields no windows.
///
/// # Panics
///
/// Panics if `window == 0`.
pub fn windowed_counts(stream: &PackedStream, window: usize) -> Vec<SiteCounts> {
    assert!(window > 0, "window length must be positive");
    let len = stream.len();
    let mut out = Vec::with_capacity(len.div_ceil(window));
    let mut start = 0usize;
    while start < len {
        let end = (start + window).min(len);
        let taken = count_taken_range(stream, start, end);
        out.push(SiteCounts {
            taken,
            not_taken: (end - start) as u64 - taken,
        });
        start = end;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn windows_match_scalar_slicing() {
        for n in [0usize, 1, 63, 64, 65, 127, 128, 500, 1000] {
            for window in [1usize, 7, 64, 100, 128, 1024] {
                let dirs = xorshift_bools(n, 0xbeef + n as u64 + window as u64);
                let s: PackedStream = dirs.iter().copied().collect();
                let got = windowed_counts(&s, window);
                let want: Vec<SiteCounts> = dirs
                    .chunks(window)
                    .map(|c| {
                        let taken = c.iter().filter(|&&d| d).count() as u64;
                        SiteCounts {
                            taken,
                            not_taken: c.len() as u64 - taken,
                        }
                    })
                    .collect();
                assert_eq!(got, want, "n = {n}, window = {window}");
            }
        }
    }

    #[test]
    fn range_counts_cross_word_boundaries() {
        let dirs = xorshift_bools(300, 42);
        let s: PackedStream = dirs.iter().copied().collect();
        for &(start, end) in &[(0usize, 300usize), (63, 65), (64, 128), (1, 299), (70, 70)] {
            let want = dirs[start..end].iter().filter(|&&d| d).count() as u64;
            assert_eq!(count_taken_range(&s, start, end), want, "{start}..{end}");
        }
    }
}
