//! Branch prediction state machines (§4 of the paper).
//!
//! A state machine compacts a branch's history pattern table into a handful
//! of states. Each state carries a fixed prediction; the transition on the
//! actual outcome moves to the next state. Code replication later turns
//! each state into one copy of the surrounding code, so the "current state"
//! is encoded in the program counter and the per-state prediction becomes a
//! static, per-site prediction.

use brepl_predict::{PatternTable, SuffixAggregate};
use brepl_trace::{PackedStream, SiteCounts};

use crate::pattern::HistPattern;

/// One state of a [`StateMachine`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MachineState {
    /// The history pattern this state represents (a label; transitions are
    /// stored explicitly).
    pub pattern: HistPattern,
    /// The direction predicted while in this state.
    pub predict: bool,
    /// Next state index when the branch is taken.
    pub on_taken: usize,
    /// Next state index when the branch is not taken.
    pub on_not_taken: usize,
}

/// A branch prediction state machine.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StateMachine {
    states: Vec<MachineState>,
    initial: usize,
}

impl StateMachine {
    /// Builds a machine from explicit states.
    ///
    /// # Panics
    ///
    /// Panics if `states` is empty, `initial` or any transition index is
    /// out of range.
    pub fn from_states(states: Vec<MachineState>, initial: usize) -> Self {
        assert!(!states.is_empty(), "state machine needs at least one state");
        assert!(initial < states.len(), "initial state out of range");
        for s in &states {
            assert!(
                s.on_taken < states.len() && s.on_not_taken < states.len(),
                "transition out of range"
            );
        }
        StateMachine { states, initial }
    }

    /// Derives a machine from a set of history patterns with
    /// longest-suffix-match semantics, taking predictions from the suffix
    /// counts of a precomputed [`SuffixAggregate`] (one table scan
    /// amortized over every query: searches build hundreds of machines
    /// from the same table).
    ///
    /// The transition from state `p` on outcome `b` appends `b` as the
    /// newest outcome and selects the longest pattern in the set that is a
    /// suffix of the result. Returns `None` when some transition is not
    /// uniquely determined — i.e. a pattern *longer* than the known history
    /// could match, which would make the replicated control flow ambiguous
    /// — or when no pattern matches at all.
    ///
    /// The initial state is the pattern matching the all-zeros history
    /// (the machine starts with empty history, which reads as "not taken"
    /// everywhere), falling back to state 0.
    ///
    /// Each state predicts the majority direction among histories ending
    /// with its pattern ([`PatternTable::suffix_counts`]). States with no
    /// profile data predict taken.
    pub fn from_patterns_with(patterns: &[HistPattern], agg: &SuffixAggregate<'_>) -> Option<Self> {
        if patterns.is_empty() {
            return None;
        }
        let mut states = Vec::with_capacity(patterns.len());
        for &p in patterns {
            let next = |taken: bool| -> Option<usize> {
                let appended = p.append(taken, 16);
                // Candidates that are suffixes of the known new history.
                let mut best: Option<usize> = None;
                for (j, &q) in patterns.iter().enumerate() {
                    if q.len() <= appended.len() {
                        if q.is_suffix_of(appended) {
                            match best {
                                Some(b) if patterns[b].len() >= q.len() => {}
                                _ => best = Some(j),
                            }
                        }
                    } else {
                        // A longer pattern could match depending on bits the
                        // machine does not know: ambiguous unless it
                        // disagrees with the known suffix.
                        if appended.is_suffix_of(q) {
                            return None;
                        }
                    }
                }
                best
            };
            let on_taken = next(true)?;
            let on_not_taken = next(false)?;
            let counts = agg.counts(p.bits(), p.len());
            let predict = if counts.total() == 0 {
                true
            } else {
                counts.majority()
            };
            states.push(MachineState {
                pattern: p,
                predict,
                on_taken,
                on_not_taken,
            });
        }
        let zeros = HistPattern::new(0, 16);
        let initial = patterns
            .iter()
            .position(|p| p.is_suffix_of(zeros))
            .unwrap_or(0);
        Some(StateMachine { states, initial })
    }

    /// The states.
    pub fn states(&self) -> &[MachineState] {
        &self.states
    }

    /// Number of states.
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// True when the machine has no states (never constructible).
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }

    /// The initial state index.
    pub fn initial(&self) -> usize {
        self.initial
    }

    /// The transition function.
    pub fn next(&self, state: usize, taken: bool) -> usize {
        let s = &self.states[state];
        if taken {
            s.on_taken
        } else {
            s.on_not_taken
        }
    }

    /// The machine reduced to its bare transition table — the
    /// witness-independent form `brepl_analysis::check_history` consumes
    /// (predictions and transitions only, no pattern labels).
    pub fn to_table(&self) -> brepl_analysis::MachineTable {
        brepl_analysis::MachineTable {
            states: self
                .states
                .iter()
                .map(|s| brepl_analysis::TableState {
                    predict: s.predict,
                    on_taken: s.on_taken,
                    on_not_taken: s.on_not_taken,
                })
                .collect(),
            initial: self.initial,
        }
    }

    /// True if every state can reach every other state — the paper's
    /// requirement that "each state can be reached from another state and
    /// via other states from the initial state".
    pub fn is_strongly_connected(&self) -> bool {
        let n = self.states.len();
        // Reachability from each state via BFS; n is tiny (<= ~10).
        for start in 0..n {
            let mut seen = vec![false; n];
            let mut stack = vec![start];
            seen[start] = true;
            while let Some(s) = stack.pop() {
                for t in [self.states[s].on_taken, self.states[s].on_not_taken] {
                    if !seen[t] {
                        seen[t] = true;
                        stack.push(t);
                    }
                }
            }
            if seen.iter().any(|&v| !v) {
                return false;
            }
        }
        true
    }

    /// Runs the machine over a site's outcome sequence, counting correct
    /// predictions. This is the *true* accuracy of the replicated code.
    pub fn simulate<I: IntoIterator<Item = bool>>(&self, outcomes: I) -> (u64, u64) {
        let mut state = self.initial;
        let mut correct = 0u64;
        let mut total = 0u64;
        for taken in outcomes {
            total += 1;
            if self.states[state].predict == taken {
                correct += 1;
            }
            state = self.next(state, taken);
        }
        (correct, total)
    }

    /// Precomputed chunk-transition table: entry `(state << 8) | byte`
    /// holds the state after consuming the byte's eight outcomes (LSB
    /// first) and how many of the eight the machine predicted correctly.
    fn chunk_tables(&self) -> (Vec<u8>, Vec<u8>) {
        let n = self.states.len();
        debug_assert!(n <= CHUNK_MAX_STATES);
        // First a (state × nibble) table by direct 4-step walks, then the
        // byte table as a composition of two nibble steps.
        let mut nib_next = vec![0u8; n << 4];
        let mut nib_correct = vec![0u8; n << 4];
        for s in 0..n {
            for nib in 0..16usize {
                let mut st = s;
                let mut c = 0u8;
                for i in 0..4 {
                    let taken = nib >> i & 1 == 1;
                    c += u8::from(self.states[st].predict == taken);
                    st = self.next(st, taken);
                }
                nib_next[s << 4 | nib] = st as u8;
                nib_correct[s << 4 | nib] = c;
            }
        }
        let mut next = vec![0u8; n << 8];
        let mut correct = vec![0u8; n << 8];
        for s in 0..n {
            for byte in 0..256usize {
                let lo = byte & 0xf;
                let hi = byte >> 4;
                let mid = nib_next[s << 4 | lo] as usize;
                next[s << 8 | byte] = nib_next[mid << 4 | hi];
                correct[s << 8 | byte] = nib_correct[s << 4 | lo] + nib_correct[mid << 4 | hi];
            }
        }
        (next, correct)
    }

    /// Scores the machine against a full-length pattern table by
    /// *partitioning*: every observed table pattern is assigned to the
    /// longest state pattern that is a suffix of it (unmatched patterns go
    /// to the initial state), and each state contributes the majority count
    /// of its share. This is exactly the paper's counting scheme ("taking
    /// care that patterns are counted not more than once").
    ///
    /// Returns `(correct, total)`.
    pub fn score_by_partition(&self, table: &PatternTable) -> (u64, u64) {
        let mut per_state: Vec<SiteCounts> = vec![SiteCounts::default(); self.states.len()];
        for (bits, counts) in table.iter_patterns() {
            let full = HistPattern::new(bits, 16);
            let mut best: Option<usize> = None;
            for (j, s) in self.states.iter().enumerate() {
                if s.pattern.is_suffix_of(full) {
                    match best {
                        Some(b) if self.states[b].pattern.len() >= s.pattern.len() => {}
                        _ => best = Some(j),
                    }
                }
            }
            let j = best.unwrap_or(self.initial);
            per_state[j].taken += counts.taken;
            per_state[j].not_taken += counts.not_taken;
        }
        let total: u64 = per_state.iter().map(SiteCounts::total).sum();
        let correct: u64 = per_state.iter().map(|c| c.taken.max(c.not_taken)).sum();
        (correct, total)
    }

    /// The machine reduced to at most `max_states` states — the pipeline's
    /// code-growth backoff shrinks oversized machines with this before
    /// giving a site up entirely.
    ///
    /// Keeps the initial state plus the lowest-index survivors; any
    /// transition into a removed state is redirected to the initial state,
    /// so the result is always a well-formed machine. Prediction *quality*
    /// after shrinking is deliberately not preserved — the pipeline's
    /// refinement loop re-measures and drops machines that stop paying for
    /// themselves.
    pub fn shrunk(&self, max_states: usize) -> StateMachine {
        let k = max_states.clamp(1, self.states.len());
        if k == self.states.len() {
            return self.clone();
        }
        // Survivors: the initial state and then the lowest indices.
        let mut keep: Vec<usize> = Vec::with_capacity(k);
        keep.push(self.initial);
        for i in 0..self.states.len() {
            if keep.len() == k {
                break;
            }
            if i != self.initial {
                keep.push(i);
            }
        }
        keep.sort_unstable();
        let mut remap = vec![usize::MAX; self.states.len()];
        for (new, &old) in keep.iter().enumerate() {
            remap[old] = new;
        }
        let initial = remap[self.initial];
        let redirect = |t: usize| {
            if remap[t] == usize::MAX {
                initial
            } else {
                remap[t]
            }
        };
        let states = keep
            .iter()
            .map(|&old| {
                let s = &self.states[old];
                MachineState {
                    pattern: s.pattern,
                    predict: s.predict,
                    on_taken: redirect(s.on_taken),
                    on_not_taken: redirect(s.on_not_taken),
                }
            })
            .collect();
        StateMachine { states, initial }
    }

    /// The machine that treats every outcome as its complement: transitions
    /// swapped, predictions negated, pattern labels bit-complemented.
    /// `m.complemented().simulate(xs)` equals `m.simulate(!xs)` — used to
    /// run exit-chain machines on loops whose *taken* direction leaves the
    /// loop.
    pub fn complemented(&self) -> StateMachine {
        let states = self
            .states
            .iter()
            .map(|s| MachineState {
                pattern: HistPattern::new(!s.pattern.bits(), s.pattern.len()),
                predict: !s.predict,
                on_taken: s.on_not_taken,
                on_not_taken: s.on_taken,
            })
            .collect();
        StateMachine {
            states,
            initial: self.initial,
        }
    }
}

/// Chunked evaluation needs state indices to fit a byte.
const CHUNK_MAX_STATES: usize = 256;

/// A machine below this many outcomes-per-state runs scalar: building the
/// 256-entry chunk table costs more than it saves. Both paths return
/// identical counts, so the threshold never affects results.
const CHUNK_MIN_OUTCOMES_PER_STATE: usize = 1024;

/// Simulates every machine over the same packed outcome stream in one
/// structure-of-arrays pass, returning `(correct, total)` per machine —
/// bit-identical to calling [`StateMachine::simulate`] on each.
///
/// Long streams step chunk-transition tables eight outcomes per lookup
/// (eight lookups per 64-outcome word); the partial tail word and short
/// streams fall back to scalar stepping.
pub fn simulate_packed_many(machines: &[StateMachine], outcomes: &PackedStream) -> Vec<(u64, u64)> {
    let len = outcomes.len();
    let total = len as u64;
    let words = outcomes.words();
    let full_words = len / 64;
    let tail = len % 64;
    let mut results = vec![(0u64, total); machines.len()];
    let mut chunked: Vec<usize> = Vec::with_capacity(machines.len());
    for (i, m) in machines.iter().enumerate() {
        if len >= CHUNK_MIN_OUTCOMES_PER_STATE * m.len() && m.len() <= CHUNK_MAX_STATES {
            chunked.push(i);
        } else {
            results[i] = m.simulate(outcomes.iter());
        }
    }
    if chunked.is_empty() {
        return results;
    }
    let tables: Vec<(Vec<u8>, Vec<u8>)> = chunked
        .iter()
        .map(|&i| machines[i].chunk_tables())
        .collect();
    let mut state: Vec<usize> = chunked.iter().map(|&i| machines[i].initial()).collect();
    let mut correct: Vec<u64> = vec![0; chunked.len()];
    for &w in &words[..full_words] {
        for (k, (next, per_byte)) in tables.iter().enumerate() {
            let mut st = state[k];
            let mut c = 0u32;
            let mut x = w;
            for _ in 0..8 {
                let idx = st << 8 | (x & 0xff) as usize;
                c += u32::from(per_byte[idx]);
                st = next[idx] as usize;
                x >>= 8;
            }
            state[k] = st;
            correct[k] += u64::from(c);
        }
    }
    if tail > 0 {
        let w = words[full_words];
        for (k, &mi) in chunked.iter().enumerate() {
            let m = &machines[mi];
            let mut st = state[k];
            for i in 0..tail {
                let taken = w >> i & 1 == 1;
                correct[k] += u64::from(m.states[st].predict == taken);
                st = m.next(st, taken);
            }
            state[k] = st;
        }
    }
    for (k, &mi) in chunked.iter().enumerate() {
        results[mi] = (correct[k], total);
    }
    results
}

#[cfg(test)]
mod tests {
    use super::*;
    use brepl_ir::BranchId;
    use brepl_predict::{HistoryKind, PatternTableSet};
    use brepl_trace::{Trace, TraceEvent};

    fn table_for(dirs: &[bool], bits: u32) -> brepl_predict::PatternTableSet {
        let t: Trace = dirs
            .iter()
            .map(|&taken| TraceEvent {
                site: BranchId(0),
                taken,
            })
            .collect();
        PatternTableSet::build(&t, HistoryKind::Local, bits)
    }

    fn machine_of(patterns: &[HistPattern], table: &PatternTable) -> Option<StateMachine> {
        StateMachine::from_patterns_with(patterns, &table.suffix_aggregate(9))
    }

    fn alternating(n: usize) -> Vec<bool> {
        (0..n).map(|i| i % 2 == 0).collect()
    }

    struct XorShift(u64);

    impl XorShift {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 >> 12;
            self.0 ^= self.0 << 25;
            self.0 ^= self.0 >> 27;
            self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
        }

        fn bools(&mut self, n: usize) -> Vec<bool> {
            (0..n).map(|_| self.next() >> 63 == 1).collect()
        }

        /// A random well-formed machine with `n` states.
        fn machine(&mut self, n: usize) -> StateMachine {
            let states = (0..n)
                .map(|_| {
                    let r = self.next();
                    MachineState {
                        pattern: HistPattern::new((r >> 32) as u32 & 0xff, 8),
                        predict: r & 1 == 1,
                        on_taken: (r >> 8) as usize % n,
                        on_not_taken: (r >> 20) as usize % n,
                    }
                })
                .collect();
            let initial = self.next() as usize % n;
            StateMachine::from_states(states, initial)
        }
    }

    /// Word-at-a-time packed evaluation must count exactly like scalar
    /// stepping — random machines, random streams, lengths straddling
    /// word and chunk-threshold boundaries.
    #[test]
    fn packed_simulation_matches_scalar_stepping() {
        let mut rng = XorShift(0x9e37_79b9_7f4a_7c15);
        for &n_states in &[1usize, 2, 3, 5, 8, 12] {
            for &len in &[0usize, 1, 63, 64, 65, 1000, 4096, 5000, 20_001] {
                let machines: Vec<StateMachine> = (0..4).map(|_| rng.machine(n_states)).collect();
                let dirs = rng.bools(len);
                let packed: PackedStream = dirs.iter().copied().collect();
                let got = simulate_packed_many(&machines, &packed);
                for (m, &r) in machines.iter().zip(&got) {
                    assert_eq!(
                        r,
                        m.simulate(dirs.iter().copied()),
                        "states = {n_states}, len = {len}"
                    );
                }
            }
        }
    }

    /// The paper's Figure 1: 2-state machine {0, 1} on an alternating
    /// branch predicts perfectly.
    #[test]
    fn two_state_machine_nails_alternation() {
        let dirs = alternating(1000);
        let pts = table_for(&dirs, 9);
        let table = pts.site(BranchId(0)).unwrap();
        let patterns = [
            HistPattern::parse("0").unwrap(),
            HistPattern::parse("1").unwrap(),
        ];
        let m = machine_of(&patterns, table).unwrap();
        assert_eq!(m.len(), 2);
        assert!(m.is_strongly_connected());
        // State "0": last time not taken -> predict taken. State "1": the
        // reverse.
        let s0 = m.states().iter().find(|s| s.pattern.bits() == 0).unwrap();
        assert!(s0.predict);
        let (correct, total) = m.simulate(dirs.iter().copied());
        // Initial state may mispredict once.
        assert!(total - correct <= 1);
        let (pc, pt) = m.score_by_partition(table);
        assert_eq!(pc, pt, "partition scoring is exact here");
    }

    #[test]
    fn transitions_follow_longest_suffix() {
        let dirs = alternating(100);
        let pts = table_for(&dirs, 9);
        let table = pts.site(BranchId(0)).unwrap();
        // {0, 01, 11}: from "0" on taken, history ends "01" -> state 01;
        // from "01" on taken -> ends "11" -> state 11; on not-taken -> "0".
        let patterns = [
            HistPattern::parse("0").unwrap(),
            HistPattern::parse("01").unwrap(),
            HistPattern::parse("11").unwrap(),
        ];
        let m = machine_of(&patterns, table).unwrap();
        let idx = |s: &str| {
            m.states()
                .iter()
                .position(|st| st.pattern == HistPattern::parse(s).unwrap())
                .unwrap()
        };
        assert_eq!(m.next(idx("0"), true), idx("01"));
        assert_eq!(m.next(idx("0"), false), idx("0"));
        assert_eq!(m.next(idx("01"), true), idx("11"));
        assert_eq!(m.next(idx("01"), false), idx("0"));
        assert_eq!(m.next(idx("11"), true), idx("11"));
        assert_eq!(m.next(idx("11"), false), idx("0"));
        assert!(m.is_strongly_connected());
    }

    #[test]
    fn ambiguous_pattern_sets_rejected() {
        let dirs = alternating(100);
        let pts = table_for(&dirs, 9);
        let table = pts.site(BranchId(0)).unwrap();
        // {0, 01}: from "0" on taken the history ends "...1": "01" could
        // match or not depending on an unknown older bit -> ambiguous.
        let patterns = [
            HistPattern::parse("0").unwrap(),
            HistPattern::parse("01").unwrap(),
        ];
        assert!(machine_of(&patterns, table).is_none());
    }

    #[test]
    fn empty_pattern_set_rejected() {
        let dirs = alternating(10);
        let pts = table_for(&dirs, 9);
        let table = pts.site(BranchId(0)).unwrap();
        assert!(machine_of(&[], table).is_none());
    }

    #[test]
    fn partition_score_matches_simulation_on_periodic_input() {
        // Period 3: 110 repeating.
        let dirs: Vec<bool> = (0..3000).map(|i| i % 3 != 2).collect();
        let pts = table_for(&dirs, 9);
        let table = pts.site(BranchId(0)).unwrap();
        let patterns = [
            HistPattern::parse("0").unwrap(),
            HistPattern::parse("01").unwrap(),
            HistPattern::parse("11").unwrap(),
        ];
        let m = machine_of(&patterns, table).unwrap();
        let (sc, st) = m.simulate(dirs.iter().copied());
        let (pc, pt) = m.score_by_partition(table);
        assert_eq!(st, pt);
        // Simulation and partition agree within warmup slack.
        assert!((sc as i64 - pc as i64).unsigned_abs() <= 9);
        // Period-3 pattern is perfectly predictable with these 3 states.
        assert!(st - sc <= 9);
    }

    #[test]
    fn not_strongly_connected_detected() {
        let states = vec![
            MachineState {
                pattern: HistPattern::parse("0").unwrap(),
                predict: true,
                on_taken: 1,
                on_not_taken: 1,
            },
            MachineState {
                pattern: HistPattern::parse("1").unwrap(),
                predict: true,
                on_taken: 1,
                on_not_taken: 1,
            },
        ];
        let m = StateMachine::from_states(states, 0);
        assert!(!m.is_strongly_connected());
    }

    #[test]
    fn shrunk_keeps_initial_and_stays_valid() {
        let dirs: Vec<bool> = (0..600).map(|i| i % 3 != 2).collect();
        let pts = table_for(&dirs, 9);
        let table = pts.site(BranchId(0)).unwrap();
        let m = machine_of(
            &[
                HistPattern::parse("0").unwrap(),
                HistPattern::parse("01").unwrap(),
                HistPattern::parse("11").unwrap(),
            ],
            table,
        )
        .unwrap();
        for k in 1..=4 {
            let s = m.shrunk(k);
            assert_eq!(s.len(), k.min(m.len()));
            assert!(s.initial() < s.len());
            for st in s.states() {
                assert!(st.on_taken < s.len() && st.on_not_taken < s.len());
            }
            // The surviving initial state keeps its prediction.
            assert_eq!(
                s.states()[s.initial()].predict,
                m.states()[m.initial()].predict
            );
        }
        // Shrinking to the current size is the identity.
        assert_eq!(m.shrunk(m.len()), m);
        assert_eq!(m.shrunk(99), m);
        // A 1-state machine still simulates (it degenerates to a static
        // prediction).
        let (_, total) = m.shrunk(1).simulate(dirs.iter().copied());
        assert_eq!(total, dirs.len() as u64);
    }

    #[test]
    #[should_panic(expected = "at least one state")]
    fn from_states_rejects_empty() {
        let _ = StateMachine::from_states(vec![], 0);
    }

    #[test]
    fn complemented_is_involution_and_flips_streams() {
        let dirs: Vec<bool> = (0..500).map(|i| i % 3 != 2).collect();
        let pts = table_for(&dirs, 9);
        let table = pts.site(BranchId(0)).unwrap();
        let m = machine_of(
            &[
                HistPattern::parse("0").unwrap(),
                HistPattern::parse("01").unwrap(),
                HistPattern::parse("11").unwrap(),
            ],
            table,
        )
        .unwrap();
        assert_eq!(m.complemented().complemented(), m);
        // Running the complemented machine on the complemented stream gives
        // the same number of correct predictions.
        let flipped: Vec<bool> = dirs.iter().map(|&d| !d).collect();
        let (c1, t1) = m.simulate(dirs.iter().copied());
        let (c2, t2) = m.complemented().simulate(flipped.iter().copied());
        assert_eq!((c1, t1), (c2, t2));
    }
}
