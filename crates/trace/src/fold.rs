//! Segmented runs folded per original site as they run.
//!
//! The drift observer (`brepl_core::Respec`) reads a run of a replicated
//! program segment by segment, and within a segment each *original* site
//! on its own: the site's outcomes in its own order, and which replica
//! each one ran in, so that misses count against the predictions current
//! when the segment is observed. A [`SegmentFold`] is the event sink that
//! builds exactly that while the run executes: per segment and original
//! site, one outcome bit and a packed replica ordinal per event, instead
//! of a four-byte event per branch kept for the whole run.

use brepl_ir::BranchId;

use crate::packed::PackedStream;
use crate::sink::EventSink;
use crate::stats::{SiteCounts, TraceStats};

/// One original site's events in one segment.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SiteStream {
    /// The outcomes, in the site's own order.
    pub taken: PackedStream,
    /// Event `i`'s replica ordinal (an index into the site's replica
    /// list, [`Segment::replicas`]) in bits `i * w .. (i + 1) * w`, where
    /// `w` is the bits an ordinal needs rounded up to a power of two, so
    /// that no ordinal straddles a word: 1 for two replicas, 2 for up to
    /// four. Empty for a site with one replica.
    pub replica: PackedStream,
}

impl SiteStream {
    /// Event `i`'s replica ordinal, `width` bits wide.
    fn ordinal(&self, i: usize, width: u32) -> usize {
        match width {
            0 => 0,
            w => self.replica.bits(i * w as usize, w) as usize,
        }
    }
}

/// Bits a replica ordinal takes for a site with `replicas` replicas
/// ([`SiteStream::replica`]).
fn ordinal_width(replicas: usize) -> u32 {
    match replicas {
        0 | 1 => 0,
        n => (usize::BITS - (n - 1).leading_zeros()).next_power_of_two(),
    }
}

/// One segment of a [`SegmentFold`], as the observer reads it.
#[derive(Clone, Copy, Debug)]
pub struct Segment<'a> {
    /// Original site → its replicas (sites of the run's program), in site
    /// order.
    pub replicas: &'a [Vec<BranchId>],
    /// Original site → its events in the segment.
    pub sites: &'a [SiteStream],
}

impl Segment<'_> {
    /// Events in the segment.
    pub fn events(&self) -> u64 {
        self.sites.iter().map(|s| s.taken.len() as u64).sum()
    }

    /// The replica (a site of the run's program) that event `i` of
    /// original site `orig` ran in.
    ///
    /// # Panics
    ///
    /// Panics if the site has no event `i` in the segment.
    pub fn replica(&self, orig: usize, i: usize) -> BranchId {
        let (stream, replicas) = (&self.sites[orig], &self.replicas[orig]);
        assert!(i < stream.taken.len(), "event out of range");
        replicas[stream.ordinal(i, ordinal_width(replicas.len()))]
    }

    /// Original site `orig`'s miss stream in its own order: bit `i` is set
    /// when `predict` of event `i`'s replica differs from its outcome.
    pub fn misses(&self, orig: usize, predict: impl Fn(BranchId) -> bool) -> PackedStream {
        let pins: Vec<bool> = self.replicas[orig].iter().map(|&r| predict(r)).collect();
        let stream = &self.sites[orig];
        let width = ordinal_width(pins.len());
        stream
            .taken
            .iter()
            .enumerate()
            .map(|(i, taken)| taken != pins[stream.ordinal(i, width)])
            .collect()
    }

    /// Per-replica counts of the segment, indexed by the run's sites:
    /// `trace.stats()` of the segment's events.
    pub fn stats(&self) -> TraceStats {
        let mut counts: Vec<SiteCounts> = Vec::new();
        let mut add = |site: BranchId, taken: u64, events: u64| {
            if site.index() >= counts.len() {
                counts.resize(site.index() + 1, SiteCounts::default());
            }
            let c = &mut counts[site.index()];
            c.taken += taken;
            c.not_taken += events - taken;
        };
        for (stream, replicas) in self.sites.iter().zip(self.replicas) {
            if stream.taken.is_empty() {
                continue;
            }
            match ordinal_width(replicas.len()) {
                0 => add(
                    replicas[0],
                    stream.taken.count_taken(),
                    stream.taken.len() as u64,
                ),
                w => {
                    for (i, taken) in stream.taken.iter().enumerate() {
                        add(replicas[stream.ordinal(i, w)], u64::from(taken), 1);
                    }
                }
            }
        }
        TraceStats::from_counts(counts)
    }
}

/// Where a run site's events go.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Route {
    orig: u32,
    ordinal: u32,
    width: u32,
}

/// The event sink of a segmented drift run: splits the events at the
/// run's segment marks and, within each segment, by original site through
/// `provenance`, keeping each event's outcome bit and replica ordinal.
/// Events after the last mark (after the tape is exhausted, say) belong
/// to the last segment. Also counts the whole run per site, as a
/// [`TraceStats`] sink would.
#[derive(Clone, Debug, PartialEq)]
pub struct SegmentFold {
    /// Run site → its original site and replica ordinal.
    route: Vec<Route>,
    /// Original site → its replicas, in site order.
    replicas: Vec<Vec<BranchId>>,
    /// `segments[k][orig]`.
    segments: Vec<Vec<SiteStream>>,
    /// The segment events go to.
    current: usize,
    /// Whole-run per-site counts.
    counts: TraceStats,
}

impl SegmentFold {
    /// A fold of `segments` segments (at least one) for a program whose
    /// site `s` was copied from original site `provenance[s]`. Every
    /// recorded site must be covered by `provenance`.
    pub fn new(provenance: &[BranchId], segments: usize) -> Self {
        let n_orig = provenance.iter().map(|p| p.index() + 1).max().unwrap_or(0);
        let mut replicas: Vec<Vec<BranchId>> = vec![Vec::new(); n_orig];
        let mut route = Vec::with_capacity(provenance.len());
        for (site, orig) in provenance.iter().enumerate() {
            let list = &mut replicas[orig.index()];
            route.push(Route {
                orig: orig.0,
                ordinal: list.len() as u32,
                width: 0,
            });
            list.push(BranchId::from_index(site));
        }
        for r in &mut route {
            r.width = ordinal_width(replicas[r.orig as usize].len());
        }
        SegmentFold {
            route,
            segments: vec![vec![SiteStream::default(); n_orig]; segments.max(1)],
            replicas,
            current: 0,
            counts: TraceStats::default(),
        }
    }

    /// Segment `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k` is not below the segment count.
    pub fn segment(&self, k: usize) -> Segment<'_> {
        Segment {
            replicas: &self.replicas,
            sites: &self.segments[k],
        }
    }

    /// Per-site counts of the whole run, equal to `trace.stats()` of the
    /// recorded run.
    pub fn counts(&self) -> &TraceStats {
        &self.counts
    }
}

impl EventSink for SegmentFold {
    #[inline]
    fn record(&mut self, site: BranchId, taken: bool) {
        self.counts.record(site, taken);
        let r = self.route[site.index()];
        let stream = &mut self.segments[self.current][r.orig as usize];
        stream.taken.push(taken);
        if r.width > 0 {
            stream.replica.push_bits(u64::from(r.ordinal), r.width);
        }
    }

    #[inline]
    fn events(&self) -> usize {
        self.counts.events()
    }

    #[inline]
    fn mark(&mut self) {
        self.current = (self.current + 1).min(self.segments.len() - 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{Trace, TraceEvent};

    #[test]
    fn ordinal_widths_are_powers_of_two() {
        let widths: Vec<u32> = (0..=17).map(ordinal_width).collect();
        assert_eq!(
            widths,
            [0, 0, 1, 2, 2, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 8]
        );
    }

    #[test]
    fn fold_splits_by_mark_and_original_site() {
        // Sites 0 and 2 are replicas of original 0, site 1 of original 1;
        // sites 3, 4 and 5 of original 2 (two-bit ordinals).
        let provenance: Vec<BranchId> = [0u32, 1, 0, 2, 2, 2].map(BranchId).to_vec();
        let mut fold = SegmentFold::new(&provenance, 2);
        let events = [(0u32, true), (1, false), (2, false), (5, true), (4, true)];
        let mut trace = Trace::new();
        for (i, &(site, taken)) in events.iter().enumerate() {
            if i == 3 {
                fold.mark();
            }
            fold.record(BranchId(site), taken);
            trace.push(TraceEvent {
                site: BranchId(site),
                taken,
            });
        }
        // A mark past the last segment keeps the events in it.
        fold.mark();
        fold.record(BranchId(3), false);
        trace.push(TraceEvent {
            site: BranchId(3),
            taken: false,
        });
        assert_eq!(fold.counts(), &trace.stats());
        assert_eq!(fold.events(), 6);

        let first = fold.segment(0);
        assert_eq!(first.events(), 3);
        assert_eq!(
            first.sites[0].taken.iter().collect::<Vec<_>>(),
            [true, false]
        );
        assert_eq!(first.replica(0, 1), BranchId(2));
        assert_eq!(first.sites[1].taken.len(), 1);
        assert!(first.sites[2].taken.is_empty());

        let second = fold.segment(1);
        let orig2: Vec<BranchId> = (0..3).map(|i| second.replica(2, i)).collect();
        assert_eq!(orig2, [5, 4, 3].map(BranchId));
        assert_eq!(
            second.sites[2].taken.iter().collect::<Vec<_>>(),
            [true, true, false]
        );
        // Misses against site-parity predictions: site 5 predicts taken.
        let misses = second.misses(2, |s| s.0 % 2 == 1);
        assert_eq!(misses.iter().collect::<Vec<_>>(), [false, true, true]);
        let want: Trace = trace.iter().skip(3).collect();
        assert_eq!(second.stats(), want.stats());
    }
}
