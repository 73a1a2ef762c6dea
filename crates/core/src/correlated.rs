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
#[derive(Clone, Debug)]
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

/// Builds [`PathProfile`]s for a set of branches in one trace pass.
///
/// `candidates_by_site` maps each branch of interest to its candidate
/// decision paths (usually from
/// [`brepl_cfg::PredecessorPaths::enumerate`]); empty paths are ignored
/// (they denote "no decision", which the catch-all covers).
pub fn profile_paths(
    trace: &Trace,
    candidates_by_site: &HashMap<BranchId, Vec<Vec<PathStep>>>,
) -> HashMap<BranchId, PathProfile> {
    let mut sites: Vec<BranchId> = Vec::with_capacity(candidates_by_site.len());
    let mut profiles: Vec<PathProfile> = Vec::with_capacity(candidates_by_site.len());
    let mut max_len = 0usize;
    for (&site, cands) in candidates_by_site {
        let candidates: Vec<Vec<PathStep>> = {
            // Suffix-closure: every non-empty suffix of a candidate is a
            // candidate too. Path enumeration caps its output on dense
            // CFGs; without the closure a deeper enumeration could *lose*
            // the short paths a shallow one found, making more states
            // perform worse than fewer.
            let mut c: Vec<Vec<PathStep>> = Vec::new();
            for p in cands {
                for start in 0..p.len() {
                    c.push(p[start..].to_vec());
                }
            }
            c.retain(|p| !p.is_empty());
            c.sort();
            c.dedup();
            c
        };
        max_len = max_len.max(candidates.iter().map(Vec::len).max().unwrap_or(0));
        let chain = suffix_chains(&candidates);
        let n = candidates.len();
        sites.push(site);
        profiles.push(PathProfile {
            candidates,
            chain,
            group_counts: vec![SiteCounts::default(); n],
            unmatched: SiteCounts::default(),
            total: 0,
        });
    }

    // Dense site -> profile index, so the per-event dispatch below is an
    // array load rather than a hash lookup.
    let n_sites = sites.iter().map(|s| s.index() + 1).max().unwrap_or(0);
    let mut of_site: Vec<Option<usize>> = vec![None; n_sites];
    for (i, site) in sites.iter().enumerate() {
        of_site[site.index()] = Some(i);
    }

    // One reversed-path trie per profile: the longest-match scan walks the
    // recent events newest-first through the trie, and the deepest terminal
    // seen is the longest matching candidate (candidates are deduplicated,
    // so two matches cannot share a length). This replaces the per-event
    // scan over every candidate.
    let tries: Vec<PathTrie> = profiles
        .iter()
        .map(|p| PathTrie::build(&p.candidates))
        .collect();

    // Ring buffer of the most recent events (packed as
    // `site << 1 | taken`, the trace's own encoding): `count` valid
    // entries, the next write landing at `next`. Replaces a front-popped
    // Vec — same logical window, no per-event memmove. The capacity is
    // rounded up to a power of two so the wrap is a mask, not a divide;
    // the trie is at most `max_len` deep, so the walk below can never
    // observe the extra slots.
    let cap = max_len.max(1).next_power_of_two();
    let mask = cap - 1;
    let mut ring: Vec<u32> = vec![0; cap];
    let mut count = 0usize;
    let mut next = 0usize;
    for &packed in trace.packed() {
        let site = BranchId(packed >> 1);
        let taken = packed & 1 == 1;
        if let Some(i) = of_site.get(site.index()).copied().flatten() {
            let profile = &mut profiles[i];
            let trie = &tries[i];
            profile.total += 1;
            let mut best: Option<usize> = None;
            let mut node = 0usize;
            for age in 0..count {
                let key = ring[(next + cap - 1 - age) & mask];
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
        }
        if max_len > 0 {
            ring[next] = packed;
            next = (next + 1) & mask;
            count = (count + 1).min(cap);
        }
    }
    sites.into_iter().zip(profiles).collect()
}

/// A trie over candidate paths keyed newest-event-first: the edge out of
/// the root consumes the most recent event, deeper edges consume older
/// ones. Node 0 is the root; `terminal[n]` holds the candidate index whose
/// reversed path ends at node `n`.
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
}
