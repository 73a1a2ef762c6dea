//! Loop-exit branch state machines (§4.2 of the paper).
//!
//! A loop-exit branch is taken while the loop keeps iterating and not taken
//! once when the loop exits (or vice versa; we normalize below). The
//! machine has one *initial* state representing "the loop exited last time"
//! (pattern `0`) and a chain of states counting iterations since then
//! (patterns `01`, `011`, `0111`, …), ending in a tail state. Two tail
//! shapes exist:
//!
//! * **Chain** (Figure 5's main spine): the last state `1…1` self-loops
//!   while iterations continue.
//! * **Oscillating tail**: the two longest states alternate on taken, which
//!   predicts loops with a strong even/odd iteration-count bias — "if a
//!   loop has a high probability of an even or odd number of iterations,
//!   the loop would change between the two states with the longest history
//!   information".
//!
//! Exit branches whose *taken* direction leaves the loop are handled by
//! scoring against the complemented outcome stream.

use brepl_predict::{PatternTable, SuffixAggregate};
use brepl_trace::PackedStream;

use crate::intra_loop::SearchResult;
use crate::machine::{simulate_packed_many, MachineState, StateMachine};
use crate::pattern::HistPattern;

/// Builds the plain chain machine with `n >= 2` states:
/// `{0, 01, 011, …, 01^(n-2), 1^(n-1)}`, with longest-suffix transitions
/// (which make the final all-ones state self-loop on taken).
///
/// Predictions come from the pattern table's suffix counts.
///
/// # Panics
///
/// Panics unless `2 <= n <= 10`.
fn exit_chain_with(n: usize, agg: &SuffixAggregate<'_>) -> StateMachine {
    assert!((2..=10).contains(&n), "chain length must be in 2..=10");
    let mut patterns = Vec::with_capacity(n);
    patterns.push(HistPattern::parse("0").unwrap());
    for ones in 1..n - 1 {
        // 0 followed by `ones` ones: bits = (1 << ones) - 1, len = ones + 1.
        patterns.push(HistPattern::new((1 << ones) - 1, ones as u32 + 1));
    }
    // Tail: all ones of length n-1.
    patterns.push(HistPattern::new((1 << (n - 1)) - 1, n as u32 - 1));
    StateMachine::from_patterns_with(&patterns, agg)
        .expect("chain pattern sets always derive valid machines")
}

/// Builds the oscillating-tail variant: like [`exit_chain_with`] but the
/// two longest states alternate on taken, capturing even/odd iteration
/// counts. Requires `n >= 3` so two tail states exist.
///
/// Predictions for the two tail states are taken from the suffix counts of
/// `x·1^(n-2)` patterns split by one *older* bit, which is where the parity
/// signal lives in the pattern table.
///
/// # Panics
///
/// Panics unless `3 <= n <= 10`.
fn exit_oscillator_with(n: usize, agg: &SuffixAggregate<'_>) -> StateMachine {
    assert!((3..=10).contains(&n), "oscillator needs 3..=10 states");
    // Spine: 0, 01, 011, ..., 01^(n-3); tails A = 01^(n-2), B = 11^(n-2).
    let mut states: Vec<MachineState> = Vec::with_capacity(n);
    let spine_len = n - 2;
    let predict_for = |p: HistPattern| -> bool {
        let c = agg.counts(p.bits(), p.len());
        if c.total() == 0 {
            true
        } else {
            c.majority()
        }
    };
    for i in 0..spine_len {
        // Pattern 0 followed by i ones.
        let p = HistPattern::new((1u32 << i) - 1, i as u32 + 1);
        states.push(MachineState {
            pattern: p,
            predict: predict_for(p),
            on_taken: i + 1, // next spine state or tail A
            on_not_taken: 0,
        });
    }
    let ones = n - 2;
    let tail_a = HistPattern::new((1 << ones) - 1, ones as u32 + 1); // 01^(n-2)
    let tail_b = HistPattern::new((1 << (ones + 1)) - 1, ones as u32 + 1); // 11^(n-2)
    let a_idx = spine_len;
    let b_idx = spine_len + 1;
    states.push(MachineState {
        pattern: tail_a,
        predict: predict_for(tail_a),
        on_taken: b_idx,
        on_not_taken: 0,
    });
    states.push(MachineState {
        pattern: tail_b,
        predict: predict_for(tail_b),
        on_taken: a_idx,
        on_not_taken: 0,
    });
    StateMachine::from_states(states, 0)
}

/// Scores both loop-exit shapes against a site's outcome stream — in both
/// polarities — for every budget `2..=max` in one shared pass: index
/// `n - 2` of the result is the best machine under budget `n`. `outcomes`
/// must be the branch's directions in trace order.
///
/// Loop-exit machines assume "taken = keep iterating". Branches whose
/// *taken* direction exits the loop are handled by building the chain on
/// the complemented outcome stream and then complementing the machine back
/// ([`StateMachine::complemented`]), so the returned machines always run
/// on real outcomes. Both polarities' local-history tables are built from
/// the stream itself.
///
/// The budgets nest — budget `n`'s candidate list is budget `n - 1`'s plus
/// the size-`n` shapes — so one pair of tables and one simulation per
/// shape serve every budget. Selection pipelines ask for the whole
/// per-size menu (§6 joint rebalancing). Within a budget the first of
/// equally good candidates wins.
pub fn exit_machine_menu(max: usize, outcomes: &PackedStream) -> Vec<SearchResult> {
    assert!((2..=10).contains(&max), "budget must be in 2..=10");
    let total = outcomes.len() as u64;
    let table = PatternTable::from_outcomes(outcomes.iter(), TABLE_BITS);
    let inverted_table = PatternTable::from_outcomes(outcomes.iter().map(|o| !o), TABLE_BITS);
    let agg = table.suffix_aggregate(TABLE_BITS);
    let inv_agg = inverted_table.suffix_aggregate(TABLE_BITS);

    // All chain lengths up to the budget: a longer chain is not always
    // better under true simulation (the machine's state can diverge from
    // the history partition), so the search is over sizes 2..=max. Every
    // budget's candidates are gathered first (in the same order the
    // per-budget loop scored them), then simulated together in one packed
    // pass over the stream.
    let mut candidates: Vec<StateMachine> = Vec::with_capacity(4 * (max - 1));
    let mut budget_sizes = Vec::with_capacity(max - 1);
    for k in 2..=max {
        candidates.push(exit_chain_with(k, &agg));
        candidates.push(exit_chain_with(k, &inv_agg).complemented());
        if k >= 3 {
            candidates.push(exit_oscillator_with(k, &agg));
            candidates.push(exit_oscillator_with(k, &inv_agg).complemented());
        }
        budget_sizes.push(if k >= 3 { 4 } else { 2 });
    }
    let scores = simulate_packed_many(&candidates, outcomes);

    let mut best: Option<SearchResult> = None;
    let mut menu = Vec::with_capacity(max - 1);
    let mut idx = 0;
    for size in budget_sizes {
        for _ in 0..size {
            let (correct, _) = scores[idx];
            match &best {
                Some(b) if b.correct >= correct => {}
                _ => {
                    best = Some(SearchResult {
                        machine: candidates[idx].clone(),
                        correct,
                        total,
                    })
                }
            }
            idx += 1;
        }
        menu.push(best.clone().expect("at least one candidate machine exists"));
    }
    menu
}

/// The local-history length of every table a loop-machine search reads —
/// here both polarity tables, in selection the intra-loop table: the
/// paper's 9 bits, more than any machine of at most 10 states reads.
pub(crate) const TABLE_BITS: u32 = 9;

#[cfg(test)]
mod tests {
    use super::*;

    fn packed(dirs: &[bool]) -> PackedStream {
        dirs.iter().copied().collect()
    }

    /// The profile (1-state) baseline on an outcome stream.
    fn profile_correct(outcomes: &PackedStream) -> u64 {
        let taken = outcomes.count_taken();
        taken.max(outcomes.len() as u64 - taken)
    }

    fn table_for(dirs: &[bool]) -> PatternTable {
        PatternTable::from_outcomes(dirs.iter().copied(), TABLE_BITS)
    }

    fn chain(n: usize, dirs: &[bool]) -> StateMachine {
        exit_chain_with(n, &table_for(dirs).suffix_aggregate(TABLE_BITS))
    }

    fn oscillator(n: usize, dirs: &[bool]) -> StateMachine {
        exit_oscillator_with(n, &table_for(dirs).suffix_aggregate(TABLE_BITS))
    }

    /// The best machine under budget `n`: the last entry of the menu.
    fn best(n: usize, dirs: &[bool]) -> SearchResult {
        exit_machine_menu(n, &packed(dirs)).pop().unwrap()
    }

    /// Loop running exactly k iterations each activation: k-1 taken then
    /// one not-taken.
    fn fixed_count_loop(k: usize, activations: usize) -> Vec<bool> {
        let mut v = Vec::new();
        for _ in 0..activations {
            for i in 0..k {
                v.push(i + 1 < k);
            }
        }
        v
    }

    #[test]
    fn chain_shape_matches_figure_5() {
        let dirs = fixed_count_loop(4, 200);
        let m = chain(4, &dirs);
        assert_eq!(m.len(), 4);
        // 0 -> 01 -> 011 -> 111(self-loop) and every not-taken returns to 0.
        let pat: Vec<String> = m.states().iter().map(|s| s.pattern.to_string()).collect();
        assert_eq!(pat, vec!["0", "01", "011", "111"]);
        for s in m.states() {
            assert_eq!(s.on_not_taken, 0);
        }
        let last = m.states().len() - 1;
        assert_eq!(m.next(last, true), last, "tail self-loops");
        assert!(m.is_strongly_connected());
    }

    #[test]
    fn chain_with_enough_states_is_perfect_on_fixed_counts() {
        // 4-iteration loop: states 0,01,011,111 -- the 111 state is entered
        // exactly at the 3rd taken, where the next outcome is the exit.
        let dirs = fixed_count_loop(4, 500);
        let best = best(4, &dirs);
        // Profile gets exactly 1/4 wrong; the chain should be perfect
        // modulo warmup.
        assert!(best.mispredictions() <= 1);
        assert!(profile_correct(&packed(&dirs)) <= best.correct);
    }

    #[test]
    fn short_chain_degrades_gracefully() {
        let dirs = fixed_count_loop(8, 300);
        let two = best(2, &dirs);
        let eight = best(8, &dirs);
        assert!(eight.correct >= two.correct);
        // 2 states on an 8-iteration loop: predicts "keep going"
        // everywhere, missing each exit once, like profile.
        assert!(two.correct >= profile_correct(&packed(&dirs)) - 2);
    }

    #[test]
    fn oscillator_captures_even_odd_loops() {
        // Loop alternating between 2 and 4 iterations — even counts with a
        // strong parity structure that the plain chain's self-looping tail
        // cannot see.
        let mut dirs = Vec::new();
        for i in 0..400 {
            let k = if i % 2 == 0 { 2 } else { 4 };
            for j in 0..k {
                dirs.push(j + 1 < k);
            }
        }
        let chain = chain(3, &dirs);
        let (chain_c, _) = chain.simulate(dirs.iter().copied());
        let osc = oscillator(3, &dirs);
        let (osc_c, _) = osc.simulate(dirs.iter().copied());
        // The 3-state oscillator tracks parity of iterations; it should
        // beat the plain 3-state chain here.
        assert!(
            osc_c >= chain_c,
            "oscillator {osc_c} should be >= chain {chain_c}"
        );
        let best = best(3, &dirs);
        assert_eq!(best.correct, osc_c.max(chain_c));
    }

    #[test]
    fn inverted_polarity_loops_still_learn() {
        // Exit-on-taken loops: 5 not-taken then one taken.
        let dirs: Vec<bool> = (0..1200).map(|i| i % 6 == 5).collect();
        let best = best(6, &dirs);
        let profile_wrong = dirs.len() as u64 - profile_correct(&packed(&dirs));
        assert!(best.mispredictions() < profile_wrong);
    }

    #[test]
    #[should_panic(expected = "chain length")]
    fn chain_rejects_one_state() {
        let dirs = fixed_count_loop(2, 10);
        let _ = chain(1, &dirs);
    }
}
