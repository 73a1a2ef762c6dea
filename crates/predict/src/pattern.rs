//! Per-branch history pattern tables (§3 of the paper).
//!
//! A pattern table maps a *history pattern* — the directions of the last
//! `bits` relevant branches — to taken/not-taken counts for the branch
//! under that pattern. Two history kinds exist, matching the paper's two
//! semi-static schemes:
//!
//! * [`HistoryKind::Global`]: one shared register records the last `bits`
//!   branches of *any* site (the **correlated branch strategy**);
//! * [`HistoryKind::Local`]: each site records its own last `bits`
//!   outcomes (the **loop branch strategy**).
//!
//! Histories are integers with the *newest* outcome in bit 0, so the
//! paper's string notation "011" (rightmost = most recent) is the integer
//! `0b011` here.

use brepl_ir::BranchId;
use brepl_trace::{packed_site_streams, SiteCounts, Trace};

use crate::report::Report;

/// Which history register arrangement feeds the pattern tables.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum HistoryKind {
    /// One global history register shared by all branches.
    Global,
    /// One private history register per branch.
    Local,
}

/// The pattern table of a single branch site.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PatternTable {
    /// The observed `(pattern, counts)` pairs, in ascending pattern order.
    counts: Vec<(u32, SiteCounts)>,
    executions: u64,
}

impl PatternTable {
    /// Builds the table of a single branch from its outcome stream under
    /// `bits` of local history — the one local-history builder:
    /// [`PatternTableSet::build`] with [`HistoryKind::Local`] runs it over
    /// each site's stream. The history register starts at all-zeros.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= bits <= 16`.
    pub fn from_outcomes(outcomes: impl IntoIterator<Item = bool>, bits: u32) -> PatternTable {
        assert!((1..=16).contains(&bits), "history bits must be in 1..=16");
        let mask: u32 = (1 << bits) - 1;
        let mut row = vec![SiteCounts::default(); 1usize << bits];
        let mut h: u32 = 0;
        for taken in outcomes {
            let bit = u32::from(taken);
            let c = &mut row[h as usize];
            c.taken += u64::from(bit);
            c.not_taken += u64::from(1 - bit);
            h = (h << 1 | bit) & mask;
        }
        PatternTable::from_row(&row)
    }

    /// The table whose counts under pattern `p` are `row[p]`, keeping only
    /// observed patterns.
    fn from_row(row: &[SiteCounts]) -> PatternTable {
        let counts: Vec<(u32, SiteCounts)> = row
            .iter()
            .enumerate()
            .filter(|(_, c)| c.total() > 0)
            .map(|(p, &c)| (p as u32, c))
            .collect();
        let executions = counts.iter().map(|(_, c)| c.total()).sum();
        PatternTable { counts, executions }
    }

    /// Total executions of the branch.
    pub fn executions(&self) -> u64 {
        self.executions
    }

    /// Number of distinct patterns observed.
    fn used_patterns(&self) -> usize {
        self.counts.len()
    }

    /// Counts under one exact full-length pattern.
    pub fn pattern(&self, pattern: u32) -> SiteCounts {
        self.counts
            .binary_search_by_key(&pattern, |&(p, _)| p)
            .map_or_else(|_| SiteCounts::default(), |i| self.counts[i].1)
    }

    /// Iterates `(pattern, counts)` over observed patterns, in ascending
    /// pattern order.
    pub fn iter_patterns(&self) -> impl Iterator<Item = (u32, SiteCounts)> + '_ {
        self.counts.iter().copied()
    }

    /// Aggregated counts over all observed patterns whose `len` low bits
    /// (i.e. most recent `len` outcomes) equal `suffix` — this is how the
    /// paper computes "the number of taken and not taken branches for all
    /// shorter patterns".
    ///
    /// # Panics
    ///
    /// Panics if `len > 31`.
    pub fn suffix_counts(&self, suffix: u32, len: u32) -> SiteCounts {
        assert!(len <= 31, "suffix length exceeds 31 bits");
        let mask = if len == 0 { 0 } else { (1u32 << len) - 1 };
        let mut total = SiteCounts::default();
        for &(p, c) in &self.counts {
            if p & mask == suffix & mask {
                total.taken += c.taken;
                total.not_taken += c.not_taken;
            }
        }
        total
    }

    /// Mispredictions when each full pattern predicts its majority
    /// direction — the ideal history-based semi-static prediction.
    fn ideal_mispredictions(&self) -> u64 {
        self.counts.iter().map(|(_, c)| c.minority_count()).sum()
    }

    /// Precomputes every suffix aggregation up to `max_len` bits, so
    /// machine builders that query [`PatternTable::suffix_counts`] once
    /// per state pay one table scan total instead of one per query.
    ///
    /// # Panics
    ///
    /// Panics if `max_len > 16`.
    pub fn suffix_aggregate(&self, max_len: u32) -> SuffixAggregate<'_> {
        assert!(max_len <= 16, "aggregate length exceeds 16 bits");
        let mask = if max_len == 0 {
            0
        } else {
            (1u32 << max_len) - 1
        };
        let mut levels: Vec<Vec<SiteCounts>> = Vec::with_capacity(max_len as usize + 1);
        let mut top = vec![SiteCounts::default(); 1usize << max_len];
        for &(p, c) in &self.counts {
            let t = &mut top[(p & mask) as usize];
            t.taken += c.taken;
            t.not_taken += c.not_taken;
        }
        levels.push(top);
        // levels[0] ends up holding max_len-bit suffixes; fold down one
        // bit per step, then reverse so levels[l] answers length-l queries.
        for l in (0..max_len).rev() {
            let prev = levels.last().expect("pushed above");
            let mut cur = vec![SiteCounts::default(); 1usize << l];
            for (s, c) in cur.iter_mut().enumerate() {
                let a = prev[s];
                let b = prev[s | 1 << l];
                c.taken = a.taken + b.taken;
                c.not_taken = a.not_taken + b.not_taken;
            }
            levels.push(cur);
        }
        levels.reverse();
        SuffixAggregate {
            table: self,
            max_len,
            levels,
        }
    }
}

/// Precomputed suffix sums of one [`PatternTable`] — see
/// [`PatternTable::suffix_aggregate`]. `counts(suffix, len)` equals
/// `table.suffix_counts(suffix, len)` for every query; lengths beyond the
/// precomputed range fall back to the table scan.
pub struct SuffixAggregate<'a> {
    table: &'a PatternTable,
    max_len: u32,
    /// `levels[l][s]` aggregates every observed pattern whose `l` low bits
    /// equal `s`.
    levels: Vec<Vec<SiteCounts>>,
}

impl SuffixAggregate<'_> {
    /// Exactly [`PatternTable::suffix_counts`] on the aggregated table.
    ///
    /// # Panics
    ///
    /// Panics if `len > 31`.
    pub fn counts(&self, suffix: u32, len: u32) -> SiteCounts {
        assert!(len <= 31, "suffix length exceeds 31 bits");
        if len > self.max_len {
            return self.table.suffix_counts(suffix, len);
        }
        let mask = if len == 0 { 0 } else { (1u32 << len) - 1 };
        self.levels[len as usize][(suffix & mask) as usize]
    }
}

/// Pattern tables for every site of one trace, built with a given history
/// kind and length.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PatternTableSet {
    kind: HistoryKind,
    bits: u32,
    tables: Vec<PatternTable>,
}

impl PatternTableSet {
    /// Builds pattern tables from a trace.
    ///
    /// History registers start at all-zeros ("not taken"), matching a
    /// profiling run that begins with empty history. Local history reads
    /// only a site's own outcomes, so each site's table is
    /// [`PatternTable::from_outcomes`] over its packed stream. Global
    /// history interleaves every site, so it takes one pass over the trace
    /// into a dense `n_sites · 2^bits` scratch; the paper's correlation
    /// rows use one bit.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= bits <= 16`.
    pub fn build(trace: &Trace, kind: HistoryKind, bits: u32) -> Self {
        assert!((1..=16).contains(&bits), "history bits must be in 1..=16");
        let tables = match kind {
            HistoryKind::Local => packed_site_streams(trace, &trace.stats())
                .iter()
                .map(|stream| PatternTable::from_outcomes(stream.iter(), bits))
                .collect(),
            HistoryKind::Global => {
                let n_sites = trace.max_site().map_or(0, |s| s.index() + 1);
                let mask: u32 = (1 << bits) - 1;
                let mut scratch = vec![SiteCounts::default(); n_sites << bits];
                let mut global: u32 = 0;
                for &p in trace.packed() {
                    let taken = u64::from(p & 1);
                    let c = &mut scratch[((p >> 1) as usize) << bits | global as usize];
                    c.taken += taken;
                    c.not_taken += 1 - taken;
                    global = (global << 1 | p & 1) & mask;
                }
                scratch
                    .chunks_exact(1 << bits)
                    .map(PatternTable::from_row)
                    .collect()
            }
        };
        PatternTableSet { kind, bits, tables }
    }

    /// The history arrangement used.
    pub fn kind(&self) -> HistoryKind {
        self.kind
    }

    /// History length in bits.
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// The table for one site (empty table if the site never executed).
    pub fn site(&self, site: BranchId) -> Option<&PatternTable> {
        self.tables.get(site.index()).filter(|t| t.executions > 0)
    }

    /// Iterates `(site, table)` over executed sites.
    pub fn iter_sites(&self) -> impl Iterator<Item = (BranchId, &PatternTable)> + '_ {
        self.tables
            .iter()
            .enumerate()
            .filter(|(_, t)| t.executions > 0)
            .map(|(i, t)| (BranchId::from_index(i), t))
    }

    /// The ideal semi-static report: each `(site, pattern)` pair predicts
    /// its majority direction. With `kind = Global, bits = 1` this is the
    /// paper's *1 bit correlation* row; with `Local` it is the *k bit loop*
    /// rows.
    pub fn report(&self) -> Report {
        let mut r = Report::new();
        for (site, t) in self.iter_sites() {
            r.record_bulk(site, t.executions(), t.ideal_mispredictions());
        }
        r
    }

    /// Derives the `bits`-length set of the same trace and history kind
    /// by suffix aggregation, without re-walking the trace.
    ///
    /// This is exact, not an approximation: every history register starts
    /// at all-zeros and shifts in the same outcome bits, so at every event
    /// the `bits`-length history equals the low `bits` bits of the longer
    /// history (induction: `h_k' = (h_k << 1 | b) & mask_k = (h_full' &
    /// mask_k)`). Folding each table's counts over the low `bits` bits of
    /// its patterns therefore reproduces [`PatternTableSet::build`] with
    /// the shorter length — counts, executions, used-pattern sets and fill
    /// rates all included.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= bits <= self.bits()`.
    pub fn aggregated(&self, bits: u32) -> PatternTableSet {
        assert!(
            bits >= 1 && bits <= self.bits,
            "aggregated length must be in 1..=bits()"
        );
        let mask: u32 = (1 << bits) - 1;
        let tables = self
            .tables
            .iter()
            .map(|t| {
                let mut row = vec![SiteCounts::default(); 1usize << bits];
                for &(p, c) in &t.counts {
                    let e = &mut row[(p & mask) as usize];
                    e.taken += c.taken;
                    e.not_taken += c.not_taken;
                }
                PatternTable::from_row(&row)
            })
            .collect();
        PatternTableSet {
            kind: self.kind,
            bits,
            tables,
        }
    }

    /// Average pattern-table fill rate over executed branches, in percent —
    /// Table 2 of the paper. A site that observed `u` distinct patterns out
    /// of `2^bits` contributes `100·u/2^bits`.
    pub fn fill_rate_percent(&self) -> f64 {
        let capacity = (1u64 << self.bits) as f64;
        let mut sum = 0.0;
        let mut n = 0usize;
        for (_, t) in self.iter_sites() {
            sum += 100.0 * t.used_patterns() as f64 / capacity;
            n += 1;
        }
        if n == 0 {
            0.0
        } else {
            sum / n as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use brepl_trace::TraceEvent;
    use std::collections::HashMap;

    fn ev(site: u32, taken: bool) -> TraceEvent {
        TraceEvent {
            site: BranchId(site),
            taken,
        }
    }

    /// A perfectly alternating branch.
    fn alternating(n: usize) -> Trace {
        (0..n).map(|i| ev(0, i % 2 == 0)).collect()
    }

    #[test]
    fn local_one_bit_nails_alternating() {
        let t = alternating(1000);
        let pts = PatternTableSet::build(&t, HistoryKind::Local, 1);
        let table = pts.site(BranchId(0)).unwrap();
        // After "not taken" (0) it is always taken; after "taken" (1) never.
        assert_eq!(table.pattern(0).not_taken, 0);
        assert!(table.pattern(0).taken > 0);
        assert_eq!(table.pattern(1).taken, 0);
        let report = pts.report();
        assert_eq!(report.mispredictions(), 0);
    }

    #[test]
    fn profile_cannot_nail_alternating_but_history_can() {
        let t = alternating(1000);
        let stats = t.stats();
        assert!((stats.profile_misprediction_percent() - 50.0).abs() < 0.2);
        let pts = PatternTableSet::build(&t, HistoryKind::Local, 1);
        assert_eq!(pts.report().misprediction_percent(), 0.0);
    }

    #[test]
    fn global_history_captures_correlation() {
        // Site 1 always repeats what site 0 just did: global 1-bit history
        // predicts it perfectly, local history does not.
        let mut trace = Trace::new();
        let dirs = [true, false, false, true, true, true, false, false];
        for (i, &d) in dirs.iter().cycle().take(4000).enumerate() {
            let _ = i;
            trace.push(ev(0, d));
            trace.push(ev(1, d));
        }
        let global = PatternTableSet::build(&trace, HistoryKind::Global, 1);
        let (_, w) = global.report().site(BranchId(1));
        assert_eq!(w, 0, "global history should predict the copier exactly");
        let local = PatternTableSet::build(&trace, HistoryKind::Local, 1);
        let (_, wl) = local.report().site(BranchId(1));
        assert!(wl > 0, "local history cannot see the other branch");
    }

    #[test]
    fn suffix_counts_aggregate_longer_patterns() {
        // Period-4 pattern 1101 repeating.
        let dirs = [true, true, false, true];
        let t: Trace = (0..4000).map(|i| ev(0, dirs[i % 4])).collect();
        let pts = PatternTableSet::build(&t, HistoryKind::Local, 3);
        let table = pts.site(BranchId(0)).unwrap();
        // Suffix "1" (last outcome taken) covers 3 of 4 phase positions.
        let s1 = table.suffix_counts(0b1, 1);
        let s0 = table.suffix_counts(0b0, 1);
        assert_eq!(s1.total() + s0.total(), table.executions());
        assert!(s1.total() > s0.total());
        // Length-0 suffix aggregates everything.
        let all = table.suffix_counts(0, 0);
        assert_eq!(all.total(), table.executions());
    }

    #[test]
    fn fill_rate_is_sparse_for_regular_branches() {
        // A strongly periodic branch touches few of the 2^9 patterns, like
        // the paper's 0.1%–2% fill observation.
        let dirs = [true, true, true, false];
        let t: Trace = (0..100_000).map(|i| ev(0, dirs[i % 4])).collect();
        let pts = PatternTableSet::build(&t, HistoryKind::Local, 9);
        // 4 steady-state patterns plus at most 9 warmup patterns out of 512.
        assert!(pts.fill_rate_percent() < 3.0);
        let table = pts.site(BranchId(0)).unwrap();
        assert!(table.used_patterns() <= 13);
    }

    #[test]
    fn longer_history_never_hurts_ideal_prediction() {
        let dirs = [true, false, true, true, false, false, true];
        let t: Trace = (0..7000).map(|i| ev(0, dirs[i % 7])).collect();
        let mut prev = u64::MAX;
        for bits in 1..=9 {
            let pts = PatternTableSet::build(&t, HistoryKind::Local, bits);
            let w = pts.report().mispredictions();
            assert!(w <= prev, "bits={bits}: {w} > {prev}");
            prev = w;
        }
        // Period 7 fits in 9 bits of history: perfect prediction modulo
        // warmup.
        assert!(prev < 10);
    }

    /// The event-by-event reference build: every event is filed under its
    /// history register, in trace order, into one hash map per site.
    fn build_event_by_event(trace: &Trace, kind: HistoryKind, bits: u32) -> PatternTableSet {
        let mask: u32 = (1 << bits) - 1;
        let n_sites = trace.max_site().map_or(0, |s| s.index() + 1);
        let mut maps: Vec<HashMap<u32, SiteCounts>> = vec![HashMap::new(); n_sites];
        let mut global: u32 = 0;
        let mut local = vec![0u32; n_sites];
        for ev in trace.iter() {
            let i = ev.site.index();
            let h = match kind {
                HistoryKind::Global => global,
                HistoryKind::Local => local[i],
            };
            let c = maps[i].entry(h).or_default();
            if ev.taken {
                c.taken += 1;
            } else {
                c.not_taken += 1;
            }
            let bit = u32::from(ev.taken);
            global = (global << 1 | bit) & mask;
            local[i] = (local[i] << 1 | bit) & mask;
        }
        let tables = maps
            .into_iter()
            .map(|map| {
                let mut counts: Vec<(u32, SiteCounts)> = map.into_iter().collect();
                counts.sort_unstable_by_key(|&(p, _)| p);
                let executions = counts.iter().map(|(_, c)| c.total()).sum();
                PatternTable { counts, executions }
            })
            .collect();
        PatternTableSet { kind, bits, tables }
    }

    fn assert_build_equals_event_by_event(trace: &Trace, what: &str) {
        for kind in [HistoryKind::Global, HistoryKind::Local] {
            for bits in [1, 4, 9] {
                assert_eq!(
                    PatternTableSet::build(trace, kind, bits),
                    build_event_by_event(trace, kind, bits),
                    "{what}: kind={kind:?} bits={bits}"
                );
            }
        }
    }

    #[test]
    fn build_equals_event_by_event_on_random_traces() {
        // Multi-site interleavings, warmup patterns, and a one-event trace.
        let mut state = 0x1234_5678_9abc_def0u64;
        for (n, sites) in [(0usize, 1u64), (1, 1), (100, 3), (50_000, 13)] {
            let mut trace = Trace::new();
            for _ in 0..n {
                state ^= state >> 12;
                state ^= state << 25;
                state ^= state >> 27;
                let r = state.wrapping_mul(0x2545_F491_4F6C_DD1D);
                trace.push(ev((r % sites) as u32, r & (1 << 40) != 0));
            }
            assert_build_equals_event_by_event(&trace, &format!("{n} events"));
        }
    }

    #[test]
    fn build_equals_event_by_event_on_every_small_workload() {
        for w in brepl_workloads::all_workloads(brepl_workloads::Scale::Small) {
            let trace = w.run().expect("workload runs").trace;
            assert_build_equals_event_by_event(&trace, w.name);
        }
    }

    #[test]
    fn suffix_aggregate_matches_scan() {
        let dirs: Vec<bool> = (0..4000).map(|i| matches!(i % 7, 0 | 2 | 3)).collect();
        let table = PatternTable::from_outcomes(dirs.iter().copied(), 9);
        let agg = table.suffix_aggregate(9);
        for len in 0..=10u32 {
            for suffix in [0u32, 1, 2, 5, 0b1_0110, 0b1_1111_1111, 0b11_0000_0001] {
                assert_eq!(
                    agg.counts(suffix, len),
                    table.suffix_counts(suffix, len),
                    "suffix={suffix:b} len={len}"
                );
            }
        }
    }

    #[test]
    fn aggregated_equals_direct_build() {
        // Suffix aggregation of a 9-bit set must reproduce the directly
        // built k-bit set for every k, both history kinds, including
        // warmup events and multi-site interleavings.
        let mut state = 0xbead_cafe_0042_9001u64;
        let mut trace = Trace::new();
        for _ in 0..40_000 {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            let r = state.wrapping_mul(0x2545_F491_4F6C_DD1D);
            trace.push(ev((r % 11) as u32, r & (1 << 40) != 0));
        }
        for kind in [HistoryKind::Global, HistoryKind::Local] {
            let full = PatternTableSet::build(&trace, kind, 9);
            for bits in 1..=9u32 {
                let direct = PatternTableSet::build(&trace, kind, bits);
                assert_eq!(full.aggregated(bits), direct, "kind={kind:?} bits={bits}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "aggregated length")]
    fn aggregated_beyond_built_length_rejected() {
        let t = alternating(10);
        let pts = PatternTableSet::build(&t, HistoryKind::Local, 4);
        let _ = pts.aggregated(5);
    }

    #[test]
    #[should_panic(expected = "history bits")]
    fn zero_bits_rejected() {
        let _ = PatternTableSet::build(&Trace::new(), HistoryKind::Local, 0);
    }

    #[test]
    fn empty_trace_fill_rate_zero() {
        let pts = PatternTableSet::build(&Trace::new(), HistoryKind::Local, 4);
        assert_eq!(pts.fill_rate_percent(), 0.0);
        assert!(pts.site(BranchId(0)).is_none());
        assert_eq!(pts.bits(), 4);
        assert_eq!(pts.kind(), HistoryKind::Local);
    }
}
