//! Exhaustive search for intra-loop branch prediction state machines
//! (§4.1 of the paper).
//!
//! States of an intra-loop machine are history patterns; a machine is valid
//! when (a) every transition is *uniquely determined* by the bits the state
//! knows (otherwise code replication could not wire a static edge), and
//! (b) the state graph is strongly connected ("each state can be reached
//! from another state and via other states from the initial state").
//!
//! The searched space is the family of *complete suffix antichains*: the
//! leaf sets of binary tries over history strings keyed newest-bit-first.
//! Every history is covered by exactly one leaf, so the paper's
//! "patterns counted not more than once" bookkeeping is automatic. The
//! enumeration is exhaustive within this family — there are only
//! `Catalan(n-1)` tree shapes per state count `n`, a few thousand for the
//! paper's maximum of ten states.

use brepl_predict::PatternTable;

use crate::machine::StateMachine;
use crate::pattern::HistPattern;

/// The outcome of a machine search at one state count.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SearchResult {
    /// The best machine found.
    pub machine: StateMachine,
    /// Correct predictions under partition scoring.
    pub correct: u64,
    /// Total profiled executions.
    pub total: u64,
}

impl SearchResult {
    /// Mispredictions under partition scoring.
    pub fn mispredictions(&self) -> u64 {
        self.total - self.correct
    }
}

/// A reusable enumeration of candidate state sets, grouped by state count.
#[derive(Clone, Debug)]
pub struct IntraLoopSearch {
    max_states: usize,
    max_depth: u32,
    /// Antichains indexed by their size (index 0 and 1 unused).
    by_size: Vec<Vec<Vec<HistPattern>>>,
}

impl IntraLoopSearch {
    /// Prepares the search space for machines of up to `max_states` states
    /// and history patterns up to `max_depth` bits.
    ///
    /// # Panics
    ///
    /// Panics unless `2 <= max_states <= 12` and `1 <= max_depth <= 16`.
    pub fn new(max_states: usize, max_depth: u32) -> Self {
        assert!(
            (2..=12).contains(&max_states),
            "max_states must be in 2..=12"
        );
        assert!((1..=16).contains(&max_depth), "max_depth must be in 1..=16");
        let mut by_size: Vec<Vec<Vec<HistPattern>>> = vec![Vec::new(); max_states + 1];
        // Enumerate leaf sets of binary tries: start from {0, 1} and
        // repeatedly split a leaf into its two older-bit refinements. To
        // enumerate each antichain exactly once, only split leaves at or
        // after the last-split position (canonical order).
        let initial = vec![
            HistPattern::parse("0").unwrap(),
            HistPattern::parse("1").unwrap(),
        ];
        let mut stack: Vec<(Vec<HistPattern>, usize)> = vec![(initial, 0)];
        while let Some((set, from)) = stack.pop() {
            by_size[set.len()].push(set.clone());
            if set.len() >= max_states {
                continue;
            }
            for i in from..set.len() {
                if set[i].len() >= max_depth {
                    continue;
                }
                let mut refined = set.clone();
                let leaf = refined.remove(i);
                refined.push(leaf.prepend_older(false));
                refined.push(leaf.prepend_older(true));
                stack.push((refined, i));
            }
        }
        IntraLoopSearch {
            max_states,
            max_depth,
            by_size,
        }
    }

    /// The number of candidate state sets with exactly `n` states.
    pub fn candidates(&self, n: usize) -> usize {
        self.by_size.get(n).map_or(0, Vec::len)
    }

    /// Finds, for every state count `2..=max_states`, the valid machine
    /// maximizing correctly predicted branches under partition scoring.
    /// Index `n` of the result holds the best `n`-state machine (indices 0
    /// and 1 are `None`).
    pub fn search(&self, table: &PatternTable) -> Vec<Option<SearchResult>> {
        let mut best: Vec<Option<SearchResult>> = vec![None; self.max_states + 1];
        // One suffix scan of the table serves every candidate machine's
        // prediction queries.
        let agg = table.suffix_aggregate(self.max_depth);
        // The state count doubles as the semantic index of `best`.
        #[allow(clippy::needless_range_loop)]
        for n in 2..=self.max_states {
            for patterns in &self.by_size[n] {
                let Some(machine) = StateMachine::from_patterns_with(patterns, &agg) else {
                    continue;
                };
                if !machine.is_strongly_connected() {
                    continue;
                }
                let (correct, total) = machine.score_by_partition(table);
                let cand = SearchResult {
                    machine,
                    correct,
                    total,
                };
                match &best[n] {
                    Some(b) if b.correct >= correct => {}
                    _ => best[n] = Some(cand),
                }
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use brepl_ir::BranchId;
    use brepl_predict::{HistoryKind, PatternTableSet};
    use brepl_trace::{Trace, TraceEvent};

    fn table_for(dirs: &[bool]) -> PatternTableSet {
        let t: Trace = dirs
            .iter()
            .map(|&taken| TraceEvent {
                site: BranchId(0),
                taken,
            })
            .collect();
        PatternTableSet::build(&t, HistoryKind::Local, 9)
    }

    #[test]
    fn enumeration_counts_are_catalan() {
        let s = IntraLoopSearch::new(6, 9);
        // Complete binary tries with n leaves: Catalan(n-1).
        assert_eq!(s.candidates(2), 1);
        assert_eq!(s.candidates(3), 2);
        assert_eq!(s.candidates(4), 5);
        assert_eq!(s.candidates(5), 14);
        assert_eq!(s.candidates(6), 42);
    }

    #[test]
    fn depth_limit_caps_enumeration() {
        let s = IntraLoopSearch::new(4, 1);
        // With depth 1 only {0, 1} exists.
        assert_eq!(s.candidates(2), 1);
        assert_eq!(s.candidates(3), 0);
        assert_eq!(s.candidates(4), 0);
    }

    #[test]
    fn alternating_branch_solved_with_two_states() {
        let dirs: Vec<bool> = (0..2000).map(|i| i % 2 == 0).collect();
        let pts = table_for(&dirs);
        let table = pts.site(BranchId(0)).unwrap();
        let search = IntraLoopSearch::new(4, 9);
        let results = search.search(table);
        let two = results[2].as_ref().unwrap();
        assert_eq!(two.mispredictions(), 0);
        // More states cannot do better than perfect.
        let four = results[4].as_ref().unwrap();
        assert!(four.correct <= two.total);
    }

    #[test]
    fn period_three_needs_three_states() {
        // T T N repeating: profile gets 1/3 wrong, 2 states get ~1/3 wrong
        // (state "1" is ambiguous), 3 states are perfect.
        let dirs: Vec<bool> = (0..3000).map(|i| i % 3 != 2).collect();
        let pts = table_for(&dirs);
        let table = pts.site(BranchId(0)).unwrap();
        let search = IntraLoopSearch::new(4, 9);
        let results = search.search(table);
        let two = results[2].as_ref().unwrap();
        let three = results[3].as_ref().unwrap();
        assert!(two.mispredictions() > three.mispredictions());
        // Perfect modulo the handful of warmup patterns.
        assert!(three.mispredictions() <= 9);
    }

    #[test]
    fn monotone_in_state_count() {
        // More states never hurt the best achievable score.
        let dirs: Vec<bool> = (0..5000).map(|i| matches!(i % 7, 0 | 2 | 3 | 6)).collect();
        let pts = table_for(&dirs);
        let table = pts.site(BranchId(0)).unwrap();
        let search = IntraLoopSearch::new(8, 9);
        let results = search.search(table);
        let mut prev = 0u64;
        #[allow(clippy::needless_range_loop)]
        for n in 2..=8 {
            let r = results[n].as_ref().unwrap();
            assert!(
                r.correct >= prev,
                "n={n}: correct {} < previous {prev}",
                r.correct
            );
            prev = r.correct;
        }
    }

    #[test]
    fn search_reaches_the_global_optimum() {
        let dirs: Vec<bool> = (0..3000).map(|i| i % 3 != 2).collect();
        let pts = table_for(&dirs);
        let table = pts.site(BranchId(0)).unwrap();
        let search = IntraLoopSearch::new(5, 9);
        let best = search
            .search(table)
            .into_iter()
            .flatten()
            .max_by_key(|r| r.correct)
            .unwrap();
        assert!(best.mispredictions() <= 9);
    }

    #[test]
    #[should_panic(expected = "max_states")]
    fn tiny_max_states_rejected() {
        let _ = IntraLoopSearch::new(1, 9);
    }
}
