//! Correlated-branch state machines (§4.3 of the paper).
//!
//! Unlike loop machines, the states of a correlated machine are
//! independent: each state is a *path* — a short sequence of earlier branch
//! decisions leading to the branch — plus one catch-all state for
//! executions matching no selected path. The machine is "the set of those
//! paths which give the lowest misprediction rate", with at most
//! `n - 1` paths for an `n`-state machine and path length below `n`
//! ("we used a maximum path length of n for an n state machine to keep the
//! size of the replicated code small").

use std::collections::HashMap;

use brepl_cfg::PathStep;
use brepl_ir::BranchId;
use brepl_trace::{SiteCounts, Trace};

/// A correlated-branch machine: selected decision paths with per-path
/// predictions plus a catch-all prediction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CorrelatedMachine {
    /// Selected paths (execution order within each path) and the direction
    /// predicted when the path matches. Longest path wins on overlap.
    pub paths: Vec<(Vec<PathStep>, bool)>,
    /// Prediction when no selected path matches.
    pub catch_all: bool,
}

impl CorrelatedMachine {
    /// Number of machine states (paths + the catch-all).
    pub fn states(&self) -> usize {
        self.paths.len() + 1
    }

    /// Predicts the branch direction given the most recent branch events
    /// (oldest first). The longest matching path wins.
    pub fn predict(&self, recent: &[(BranchId, bool)]) -> bool {
        let mut best: Option<(usize, bool)> = None;
        for (path, predict) in &self.paths {
            if path_matches(path, recent) {
                match best {
                    Some((len, _)) if len >= path.len() => {}
                    _ => best = Some((path.len(), *predict)),
                }
            }
        }
        best.map_or(self.catch_all, |(_, p)| p)
    }
}

fn path_matches(path: &[PathStep], recent: &[(BranchId, bool)]) -> bool {
    if path.len() > recent.len() {
        return false;
    }
    let tail = &recent[recent.len() - path.len()..];
    path.iter()
        .zip(tail)
        .all(|(step, &(site, taken))| step.site == site && step.taken == taken)
}

/// Per-site profile of path outcomes: for every candidate path, the branch
/// outcome counts over executions whose longest matching candidate was that
/// path, plus the catch-all bucket.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PathProfile {
    /// Candidate paths (deduplicated, any order).
    candidates: Vec<Vec<PathStep>>,
    /// `chain[g]` lists candidate indices that are suffixes of candidate
    /// `g` (including `g` itself), longest first — when a selected set does
    /// not contain the longest match, counts fall through this chain.
    chain: Vec<Vec<usize>>,
    /// Outcome counts grouped by longest matching candidate.
    group_counts: Vec<SiteCounts>,
    /// Outcomes matching no candidate.
    unmatched: SiteCounts,
    total: u64,
}

/// The result of building a correlated machine: the machine plus its
/// profiled accuracy.
#[derive(Clone, Debug)]
pub struct CorrelatedResult {
    /// The machine.
    pub machine: CorrelatedMachine,
    /// Correct predictions on the profiling trace.
    pub correct: u64,
    /// Total profiled executions of the branch.
    pub total: u64,
}

impl CorrelatedResult {
    /// Mispredictions on the profiling trace.
    pub fn mispredictions(&self) -> u64 {
        self.total - self.correct
    }
}

/// Builds [`PathProfile`]s for a set of branches by folding `trace`
/// through a `PathFold`, the same fold a profiling run feeds while it
/// executes.
///
/// `candidates_by_site` maps each branch of interest to its candidate
/// decision paths (usually from
/// [`brepl_cfg::PredecessorPaths::enumerate`]); empty paths are ignored
/// (they denote "no decision", which the catch-all covers).
pub fn profile_paths(
    trace: &Trace,
    candidates_by_site: &HashMap<BranchId, Vec<Vec<PathStep>>>,
) -> HashMap<BranchId, PathProfile> {
    let mut fold = PathFold::new(
        candidates_by_site
            .iter()
            .map(|(&site, cands)| (site, cands.as_slice())),
    );
    for ev in trace.iter() {
        fold.record(ev.site, ev.taken);
    }
    fold.into_profiles()
}

/// Path profiling as a fold over the event stream: each event at a site
/// with candidates is counted in the group of its longest matching
/// candidate, read from the events before it, and then every event
/// enters the window of recent events.
#[derive(Clone, Debug)]
pub(crate) struct PathFold {
    /// Dense site -> index into `profiles`, so the per-event dispatch is
    /// an array load rather than a hash lookup.
    of_site: Vec<Option<u32>>,
    profiles: Vec<(BranchId, PathProfile, PathTrie)>,
    /// Ring buffer of the most recent events (packed as `site << 1 |
    /// taken`, the trace's own encoding): `count` valid entries, the next
    /// write landing at `next`. The capacity is the longest candidate
    /// rounded up to a power of two, so the wrap is a mask; the tries are
    /// at most that deep, so a walk never observes the extra slots.
    ring: Vec<u32>,
    count: usize,
    next: usize,
}

impl PathFold {
    /// A fold for the given sites and their candidate paths (suffix-closed
    /// here; empty paths are dropped).
    pub(crate) fn new<'c>(
        candidates_by_site: impl IntoIterator<Item = (BranchId, &'c [Vec<PathStep>])>,
    ) -> Self {
        let mut of_site: Vec<Option<u32>> = Vec::new();
        let mut profiles = Vec::new();
        let mut max_len = 0usize;
        for (site, cands) in candidates_by_site {
            // Suffix-closure: every non-empty suffix of a candidate is a
            // candidate too. Path enumeration caps its output on dense
            // CFGs; without the closure a deeper enumeration could *lose*
            // the short paths a shallow one found, making more states
            // perform worse than fewer.
            let mut candidates: Vec<Vec<PathStep>> = Vec::new();
            for p in cands {
                for start in 0..p.len() {
                    candidates.push(p[start..].to_vec());
                }
            }
            candidates.sort();
            candidates.dedup();
            max_len = max_len.max(candidates.iter().map(Vec::len).max().unwrap_or(0));
            let trie = PathTrie::build(&candidates);
            let profile = PathProfile {
                chain: suffix_chains(&candidates),
                group_counts: vec![SiteCounts::default(); candidates.len()],
                candidates,
                unmatched: SiteCounts::default(),
                total: 0,
            };
            if site.index() >= of_site.len() {
                of_site.resize(site.index() + 1, None);
            }
            of_site[site.index()] = Some(profiles.len() as u32);
            profiles.push((site, profile, trie));
        }
        PathFold {
            of_site,
            profiles,
            ring: vec![0; max_len.max(1).next_power_of_two()],
            count: 0,
            next: 0,
        }
    }

    /// Takes one event.
    #[inline]
    pub(crate) fn record(&mut self, site: BranchId, taken: bool) {
        if let Some(&Some(i)) = self.of_site.get(site.index()) {
            self.count_path(i as usize, taken);
        }
        let mask = self.ring.len() - 1;
        self.ring[self.next] = site.0 << 1 | u32::from(taken);
        self.next = (self.next + 1) & mask;
        self.count = (self.count + 1).min(self.ring.len());
    }

    /// Counts an event of profile `i` in the group of its longest matching
    /// candidate: the walk goes through the reversed-path trie over the
    /// recent events, newest first, and the deepest terminal it passes is
    /// the longest match (candidates are deduplicated, so two matches
    /// cannot share a length). Out of line, so that the interpreter loop
    /// a profiling run monomorphises keeps only the call.
    #[inline(never)]
    fn count_path(&mut self, i: usize, taken: bool) {
        let (_, profile, trie) = &mut self.profiles[i];
        let mask = self.ring.len() - 1;
        let mut best: Option<usize> = None;
        let mut node = 0usize;
        for age in 0..self.count {
            let key = self.ring[(self.next + mask - age) & mask];
            match trie.edges[node].iter().find(|&&(k, _)| k == key) {
                Some(&(_, child)) => {
                    node = child;
                    if let Some(gi) = trie.terminal[node] {
                        best = Some(gi);
                    }
                }
                None => break,
            }
        }
        let bucket = match best {
            Some(gi) => &mut profile.group_counts[gi],
            None => &mut profile.unmatched,
        };
        if taken {
            bucket.taken += 1;
        } else {
            bucket.not_taken += 1;
        }
        profile.total += 1;
    }

    /// The profile of `site`, if it has one.
    pub(crate) fn profile(&self, site: BranchId) -> Option<&PathProfile> {
        let i = self.of_site.get(site.index()).copied().flatten()?;
        Some(&self.profiles[i as usize].1)
    }

    /// Every site's profile.
    fn into_profiles(self) -> HashMap<BranchId, PathProfile> {
        self.profiles
            .into_iter()
            .map(|(site, profile, _)| (site, profile))
            .collect()
    }
}

/// A trie over candidate paths keyed newest-event-first: the edge out of
/// the root consumes the most recent event, deeper edges consume older
/// ones. Node 0 is the root; `terminal[n]` holds the candidate index whose
/// reversed path ends at node `n`.
#[derive(Clone, Debug)]
struct PathTrie {
    edges: Vec<Vec<(u32, usize)>>,
    terminal: Vec<Option<usize>>,
}

impl PathTrie {
    fn build(candidates: &[Vec<PathStep>]) -> Self {
        let mut trie = PathTrie {
            edges: vec![Vec::new()],
            terminal: vec![None],
        };
        for (gi, path) in candidates.iter().enumerate() {
            let mut node = 0usize;
            for step in path.iter().rev() {
                let key = (step.site.index() as u32) << 1 | u32::from(step.taken);
                node = match trie.edges[node].iter().find(|&&(k, _)| k == key) {
                    Some(&(_, child)) => child,
                    None => {
                        let child = trie.edges.len();
                        trie.edges[node].push((key, child));
                        trie.edges.push(Vec::new());
                        trie.terminal.push(None);
                        child
                    }
                };
            }
            trie.terminal[node] = Some(gi);
        }
        trie
    }
}

fn is_path_suffix(shorter: &[PathStep], longer: &[PathStep]) -> bool {
    shorter.len() <= longer.len() && longer[longer.len() - shorter.len()..] == *shorter
}

fn suffix_chains(candidates: &[Vec<PathStep>]) -> Vec<Vec<usize>> {
    candidates
        .iter()
        .map(|g| {
            let mut chain: Vec<usize> = candidates
                .iter()
                .enumerate()
                .filter(|(_, c)| is_path_suffix(c, g))
                .map(|(i, _)| i)
                .collect();
            chain.sort_by_key(|&i| std::cmp::Reverse(candidates[i].len()));
            chain
        })
        .collect()
}

impl PathProfile {
    /// Total profiled executions.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Routes each group's counts to the longest selected candidate on its
    /// suffix chain, or to the catch-all when the chain holds none.
    /// Returns the per-candidate counts and the catch-all's.
    fn route(&self, selected: &[bool]) -> (Vec<SiteCounts>, SiteCounts) {
        let mut per_target: Vec<SiteCounts> = vec![SiteCounts::default(); self.candidates.len()];
        let mut catch = self.unmatched;
        for (g, counts) in self.group_counts.iter().enumerate() {
            if counts.total() == 0 {
                continue;
            }
            let bucket = match self.chain[g].iter().find(|&&i| selected[i]) {
                Some(&i) => &mut per_target[i],
                None => &mut catch,
            };
            bucket.taken += counts.taken;
            bucket.not_taken += counts.not_taken;
        }
        (per_target, catch)
    }

    /// Mispredictions of a given selected path set.
    fn mispredictions_of(&self, selected: &[bool]) -> u64 {
        let (per_target, catch) = self.route(selected);
        per_target
            .iter()
            .map(SiteCounts::minority_count)
            .sum::<u64>()
            + catch.minority_count()
    }

    /// Greedily selects at most `max_states - 1` paths (one state is the
    /// catch-all) minimizing mispredictions, and returns the resulting
    /// machine with predictions filled in.
    ///
    /// # Panics
    ///
    /// Panics if `max_states == 0`.
    pub fn select(&self, max_states: usize) -> CorrelatedResult {
        self.select_with_threshold(max_states, 1)
    }

    /// Like [`PathProfile::select`], but a path is only added when it
    /// removes at least `min_gain` mispredictions. With hundreds of
    /// candidate paths and few executions, an unthresholded selection can
    /// shatter the executions into pure singleton groups — perfect on the
    /// profiling run and useless after replication; the threshold is the
    /// standard guard against that overfitting.
    ///
    /// # Panics
    ///
    /// Panics if `max_states == 0` or `min_gain == 0`.
    pub fn select_with_threshold(&self, max_states: usize, min_gain: u64) -> CorrelatedResult {
        assert!(max_states >= 1, "need at least the catch-all state");
        assert!(min_gain >= 1, "min_gain must be positive");
        let n = self.candidates.len();
        let mut selected = vec![false; n];
        let mut current = self.mispredictions_of(&selected);
        for _ in 1..max_states {
            let mut best: Option<(usize, u64)> = None;
            for i in 0..n {
                if selected[i] {
                    continue;
                }
                selected[i] = true;
                let w = self.mispredictions_of(&selected);
                selected[i] = false;
                if w + min_gain <= current {
                    match best {
                        Some((_, bw)) if bw <= w => {}
                        _ => best = Some((i, w)),
                    }
                }
            }
            let Some((i, w)) = best else { break };
            selected[i] = true;
            current = w;
        }

        // Final predictions: recompute routed counts.
        let (per_target, catch) = self.route(&selected);
        let paths: Vec<(Vec<PathStep>, bool)> = (0..n)
            .filter(|&i| selected[i])
            .map(|i| {
                let c = per_target[i];
                let predict = if c.total() == 0 { true } else { c.majority() };
                (self.candidates[i].clone(), predict)
            })
            .collect();
        let machine = CorrelatedMachine {
            paths,
            catch_all: if catch.total() == 0 {
                true
            } else {
                catch.majority()
            },
        };
        CorrelatedResult {
            machine,
            correct: self.total - current,
            total: self.total,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use brepl_trace::TraceEvent;

    fn step(site: u32, taken: bool) -> PathStep {
        PathStep {
            site: BranchId(site),
            taken,
        }
    }

    fn ev(site: u32, taken: bool) -> TraceEvent {
        TraceEvent {
            site: BranchId(site),
            taken,
        }
    }

    /// Branch 1 copies branch 0's decision; candidates are the two length-1
    /// paths through branch 0.
    fn correlated_trace() -> (Trace, HashMap<BranchId, Vec<Vec<PathStep>>>) {
        let mut t = Trace::new();
        let mut x = 3u64;
        for _ in 0..2000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let d = x >> 40 & 1 == 1;
            t.push(ev(0, d));
            t.push(ev(1, d));
        }
        let mut cands = HashMap::new();
        cands.insert(BranchId(1), vec![vec![step(0, true)], vec![step(0, false)]]);
        (t, cands)
    }

    #[test]
    fn two_paths_predict_copier_perfectly() {
        let (t, cands) = correlated_trace();
        let profiles = profile_paths(&t, &cands);
        let p = &profiles[&BranchId(1)];
        assert_eq!(p.total(), 2000);
        let result = p.select(3);
        assert_eq!(result.mispredictions(), 0);
        // One explicit path plus the catch-all suffices: the catch-all
        // purely holds the other path's executions, so greedy stops early.
        assert!(result.machine.states() <= 3);
        // The machine predicts by recent events.
        assert!(result.machine.predict(&[(BranchId(0), true)]));
        assert!(!result.machine.predict(&[(BranchId(0), false)]));
    }

    #[test]
    fn catch_all_only_equals_profile() {
        let (t, cands) = correlated_trace();
        let profiles = profile_paths(&t, &cands);
        let result = profiles[&BranchId(1)].select(1);
        // One state: plain profile prediction for the branch.
        let stats = t.stats();
        let c = stats.site(BranchId(1));
        assert_eq!(result.mispredictions(), c.minority_count());
        assert_eq!(result.machine.states(), 1);
    }

    #[test]
    fn two_states_capture_the_dominant_path() {
        let (t, cands) = correlated_trace();
        let profiles = profile_paths(&t, &cands);
        let one_path = profiles[&BranchId(1)].select(2);
        // Selecting either path resolves the corresponding half exactly;
        // catch-all handles the other half as its majority.
        assert!(one_path.mispredictions() < 2000 / 2);
        assert_eq!(one_path.machine.paths.len(), 1);
    }

    #[test]
    fn longer_paths_win_over_shorter() {
        // Branch 2 computes XOR of branches 0 and 1: no single path (and no
        // length-1 path at all) can make it predictable; the four length-2
        // paths resolve it exactly.
        let mut t = Trace::new();
        let mut x = 9u64;
        for _ in 0..3000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(7);
            let a = x >> 20 & 1 == 1;
            let b = x >> 21 & 1 == 1;
            t.push(ev(0, a));
            t.push(ev(1, b));
            t.push(ev(2, a ^ b));
        }
        let mut cands = HashMap::new();
        cands.insert(
            BranchId(2),
            vec![
                vec![step(1, true)],
                vec![step(1, false)],
                vec![step(0, true), step(1, true)],
                vec![step(0, false), step(1, true)],
                vec![step(0, true), step(1, false)],
                vec![step(0, false), step(1, false)],
            ],
        );
        let profiles = profile_paths(&t, &cands);
        let five = profiles[&BranchId(2)].select(5);
        assert_eq!(five.mispredictions(), 0, "full length-2 path set is exact");
        let two = profiles[&BranchId(2)].select(2);
        assert!(two.mispredictions() > 0, "XOR defeats a single path");
        assert!(two.mispredictions() < 3000 / 2);
    }

    #[test]
    fn path_matching_is_suffix_anchored() {
        let m = CorrelatedMachine {
            paths: vec![(vec![step(0, true), step(1, false)], false)],
            catch_all: true,
        };
        // Exact suffix matches.
        assert!(!m.predict(&[(BranchId(0), true), (BranchId(1), false)]));
        // Longer context still matches the suffix.
        assert!(!m.predict(&[
            (BranchId(5), true),
            (BranchId(0), true),
            (BranchId(1), false)
        ]));
        // Wrong order or direction falls to catch-all.
        assert!(m.predict(&[(BranchId(1), false), (BranchId(0), true)]));
        assert!(m.predict(&[(BranchId(0), true), (BranchId(1), true)]));
        assert!(m.predict(&[]));
    }

    #[test]
    fn more_states_never_increase_mispredictions() {
        let (t, cands) = correlated_trace();
        let profiles = profile_paths(&t, &cands);
        let p = &profiles[&BranchId(1)];
        let mut prev = u64::MAX;
        for n in 1..=4 {
            let r = p.select(n);
            assert!(r.mispredictions() <= prev);
            prev = r.mispredictions();
        }
    }

    /// The trie walk over the ring equals a direct longest-suffix scan of
    /// every candidate over the whole history, on a random trace with
    /// overlapping candidates of several lengths.
    #[test]
    fn fold_equals_a_direct_longest_match_scan() {
        let mut x = 17u64;
        let mut events: Vec<(BranchId, bool)> = Vec::new();
        for _ in 0..5000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            events.push((BranchId((x >> 33) as u32 % 4), x >> 40 & 1 == 1));
        }
        let trace: Trace = events.iter().map(|&(s, t)| ev(s.0, t)).collect();
        let mut cands = HashMap::new();
        cands.insert(
            BranchId(2),
            vec![
                vec![step(0, true), step(1, false)],
                vec![step(3, true), step(0, true), step(1, false)],
                vec![step(2, false)],
            ],
        );
        cands.insert(BranchId(3), vec![vec![step(3, true), step(3, true)]]);
        cands.insert(BranchId(1), Vec::new());
        let profiles = profile_paths(&trace, &cands);
        for (site, paths) in &cands {
            let mut closed: Vec<Vec<PathStep>> = paths
                .iter()
                .flat_map(|p| (0..p.len()).map(move |k| p[k..].to_vec()))
                .collect();
            closed.sort();
            closed.dedup();
            let mut groups = vec![SiteCounts::default(); closed.len()];
            let mut unmatched = SiteCounts::default();
            for (i, &(s, taken)) in events.iter().enumerate() {
                if s != *site {
                    continue;
                }
                let best = (0..closed.len())
                    .filter(|&g| path_matches(&closed[g], &events[..i]))
                    .max_by_key(|&g| closed[g].len());
                let bucket = best.map_or(&mut unmatched, |g| &mut groups[g]);
                bucket.taken += u64::from(taken);
                bucket.not_taken += u64::from(!taken);
            }
            let p = &profiles[site];
            assert_eq!(p.candidates, closed);
            assert_eq!(p.group_counts, groups, "site {site:?}");
            assert_eq!(p.unmatched, unmatched, "site {site:?}");
            assert_eq!(p.total, trace.stats().site(*site).total());
        }
    }
}
