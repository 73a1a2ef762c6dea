//! Per-site trace statistics: the raw material for profile-based
//! prediction and for Table 1's static/executed branch counts.

use brepl_ir::BranchId;

use crate::trace::Trace;

/// Taken/not-taken counts for one branch site.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SiteCounts {
    /// Times the branch was taken.
    pub taken: u64,
    /// Times the branch was not taken.
    pub not_taken: u64,
}

impl SiteCounts {
    /// Total executions.
    pub fn total(&self) -> u64 {
        self.taken + self.not_taken
    }

    /// The majority direction (`true` = taken; ties predict taken, matching
    /// a "predict taken" prior for unbiased branches).
    pub fn majority(&self) -> bool {
        self.taken >= self.not_taken
    }

    /// Mispredictions when always predicting the majority direction.
    pub fn minority_count(&self) -> u64 {
        self.taken.min(self.not_taken)
    }
}

/// Aggregated statistics over a whole trace.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TraceStats {
    counts: Vec<SiteCounts>,
    total: u64,
}

impl TraceStats {
    /// Computes statistics for `trace`.
    ///
    /// Pre-sizes the per-site array from a max-site scan, then
    /// accumulates in one branch-free pass over the packed events — no
    /// per-event bounds growth, so cost is flat even when a high site id
    /// appears late in the trace.
    pub fn from_trace(trace: &Trace) -> Self {
        let packed = trace.packed();
        let n_sites = trace.max_site().map_or(0, |s| s.index() + 1);
        let mut counts = vec![SiteCounts::default(); n_sites];
        for &p in packed {
            let c = &mut counts[(p >> 1) as usize];
            let taken = u64::from(p & 1);
            c.taken += taken;
            c.not_taken += 1 - taken;
        }
        let total = packed.len() as u64;
        TraceStats { counts, total }
    }

    /// Builds statistics directly from per-site counts indexed by site —
    /// the accumulation shape of [`TraceStats::from_trace`], for callers
    /// (like the re-specialization layer) that hold the counts without a
    /// trace. Equal to `from_trace` on any trace whose per-site tallies
    /// match `counts`.
    pub fn from_counts(counts: Vec<SiteCounts>) -> Self {
        let total = counts.iter().map(SiteCounts::total).sum();
        TraceStats { counts, total }
    }

    /// Counts one event, growing the per-site table to `site + 1` when
    /// the site is new — so counting a run event by event yields exactly
    /// [`TraceStats::from_trace`] of its recorded trace.
    #[inline]
    pub(crate) fn count(&mut self, site: BranchId, taken: bool) {
        let i = site.index();
        if i >= self.counts.len() {
            self.grow(i + 1);
        }
        let c = &mut self.counts[i];
        let taken = u64::from(taken);
        c.taken += taken;
        c.not_taken += 1 - taken;
        self.total += 1;
    }

    /// Out of line: a run meets each new high site once.
    #[cold]
    fn grow(&mut self, n_sites: usize) {
        self.counts.resize(n_sites, SiteCounts::default());
    }

    /// Total number of events in the trace.
    pub fn total_events(&self) -> u64 {
        self.total
    }

    /// Counts for one site (zero counts for sites never executed).
    pub fn site(&self, site: BranchId) -> SiteCounts {
        self.counts.get(site.index()).copied().unwrap_or_default()
    }

    /// Length of the per-site table: one past the highest site counted
    /// (`0` when nothing was).
    pub fn site_count(&self) -> usize {
        self.counts.len()
    }

    /// Number of *distinct* sites that executed at least once — the paper's
    /// "executed branches" row of Table 1.
    pub fn executed_sites(&self) -> usize {
        self.counts.iter().filter(|c| c.total() > 0).count()
    }

    /// Iterates over `(site, counts)` for executed sites.
    pub fn iter_executed(&self) -> impl Iterator<Item = (BranchId, SiteCounts)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, c)| c.total() > 0)
            .map(|(i, c)| (BranchId::from_index(i), *c))
    }

    /// Misprediction rate (in percent) of pure profile prediction: each
    /// site mispredicts its minority direction.
    pub fn profile_misprediction_percent(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let wrong: u64 = self.counts.iter().map(SiteCounts::minority_count).sum();
        100.0 * wrong as f64 / self.total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceEvent;

    fn ev(site: u32, taken: bool) -> TraceEvent {
        TraceEvent {
            site: BranchId(site),
            taken,
        }
    }

    #[test]
    fn counts_accumulate() {
        let t: Trace = vec![ev(0, true), ev(0, true), ev(0, false), ev(2, false)]
            .into_iter()
            .collect();
        let s = t.stats();
        assert_eq!(s.total_events(), 4);
        assert_eq!(
            s.site(BranchId(0)),
            SiteCounts {
                taken: 2,
                not_taken: 1
            }
        );
        assert_eq!(s.site(BranchId(1)).total(), 0);
        assert_eq!(s.executed_sites(), 2);
        assert_eq!(s.site(BranchId(99)).total(), 0);
    }

    #[test]
    fn majority_and_minority() {
        let c = SiteCounts {
            taken: 3,
            not_taken: 7,
        };
        assert!(!c.majority());
        assert_eq!(c.minority_count(), 3);
        let tie = SiteCounts {
            taken: 5,
            not_taken: 5,
        };
        assert!(tie.majority(), "ties predict taken");
    }

    #[test]
    fn profile_misprediction() {
        // Site 0: 75% taken -> 25% wrong. Site 1: always taken -> 0% wrong.
        let mut t = Trace::new();
        for i in 0..4 {
            t.push(ev(0, i != 0));
        }
        for _ in 0..4 {
            t.push(ev(1, true));
        }
        let s = t.stats();
        assert!((s.profile_misprediction_percent() - 12.5).abs() < 1e-9);
    }

    #[test]
    fn empty_trace_is_zero_percent() {
        assert_eq!(Trace::new().stats().profile_misprediction_percent(), 0.0);
    }

    #[test]
    fn sparse_high_site_trace_is_cheap_and_correct() {
        // Regression guard for the resize-per-event pathology: a single
        // very high site id late in the trace must cost one pre-sized
        // allocation, not repeated growth, and the counts must still be
        // exact. The wall-time side of this guard is brbench's
        // `trace.stats_s` metric.
        let mut t = Trace::new();
        for i in 0..200_000u32 {
            t.push(ev(i % 7, i % 3 == 0));
        }
        t.push(ev(3_000_000, true));
        let s = t.stats();
        assert_eq!(s.total_events(), 200_001);
        assert_eq!(s.executed_sites(), 8);
        assert_eq!(
            s.site(BranchId(3_000_000)),
            SiteCounts {
                taken: 1,
                not_taken: 0
            }
        );
        let low: u64 = (0..7).map(|i| s.site(BranchId(i)).total()).sum();
        assert_eq!(low, 200_000);
    }

    #[test]
    fn iter_executed_skips_gaps() {
        let t: Trace = vec![ev(5, true)].into_iter().collect();
        let s = t.stats();
        let v: Vec<_> = s.iter_executed().collect();
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].0, BranchId(5));
    }
}
