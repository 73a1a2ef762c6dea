//! Process-wide memo for per-branch machine searches.
//!
//! The state-machine search is a pure function of `(branch class, outcome
//! stream, state budget)` — the site's pattern table is built from its
//! stream — and across a pipeline run the same stream is searched many
//! times: the 2..=10-state sweeps of `table5` re-analyze identical
//! streams at repeated budgets, `ablation` re-runs the pipeline on the
//! same workloads row after row, `crossdata` trains twice per program, and
//! many branches inside one program have bit-identical profiles
//! (always-taken guards, shared loop latches). Keying the search result on
//! a canonical fingerprint of its inputs makes every repeat a hash lookup
//! that builds no table.
//!
//! Two granularities are cached:
//!
//! * the **per-branch** loop-machine search, keyed on the branch's class
//!   and outcome-stream fingerprint ([`lookup_or_compute`]); and
//! * the **whole-module** strategy selection of the trace-taking entry
//!   points, keyed on canonical module and trace fingerprints
//!   ([`lookup_or_compute_selection`]) — bins that re-select over the
//!   exact `(module, trace, budget)` triple they already solved pay for
//!   selection once per distinct input. The pipeline selects from its
//!   folded profiling run, which has no trace to fingerprint, and does
//!   not use this tier.
//!
//! Determinism: the cached value for a key is exactly what the search
//! would recompute, so cache hits cannot change results — only wall-clock.
//! The memo is always on; `tests/memo_transparency.rs` checks that a
//! selection served by per-branch hits equals one computed after [`clear`].
//! The map is guarded by a [`Mutex`] and shared by all engine workers.
//! Lock poisoning is deliberately ignored (`PoisonError::into_inner`): the
//! map is only ever mutated by complete, panic-free operations (`get`,
//! `insert`, `clear`), so a worker that panicked while *holding* the lock
//! cannot have left a torn entry behind, and a panic propagated out of
//! [`crate::engine::par_map`] must not brick every later search.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

use brepl_cfg::BranchClass;
use brepl_ir::Lanes;

use crate::machine::StateMachine;
use crate::select::Selection;

/// One entry per machine size: the best machine of exactly that size and
/// its simulated mispredictions (indices 0 and 1 stay `None`).
pub type SizeMenu = Vec<Option<(StateMachine, u64)>>;

/// The memoized outcome of the loop-machine search for one branch.
#[derive(Clone, Debug)]
pub struct LoopSearchOutcome {
    /// The winning machine and its simulated misses, when one beats the
    /// profile baseline it was searched against.
    pub best: Option<(StateMachine, u64)>,
    /// Best machine per exact state count, for joint §6 rebalancing.
    pub menu: SizeMenu,
}

/// Memo key: branch class, outcome-stream fingerprint, and the state
/// budget of the search.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
struct MemoKey {
    class: BranchClass,
    outcomes_fp: (u64, u64),
    max_states: usize,
}

/// Entry cap: a full-suite `BREPL_SCALE=full` sweep stays far below this;
/// the cap only guards against pathological long-running processes.
const MAX_ENTRIES: usize = 1 << 16;

/// Memo key for a whole-module selection: canonical module fingerprint,
/// trace fingerprint, and the state budget. The worker-thread count is
/// deliberately absent — `select_strategies_with_threads` is bit-identical
/// for every thread count, so one cached value serves them all.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
struct SelectionKey {
    module_fp: (u64, u64),
    trace_fp: (u64, u64),
    max_states: usize,
}

/// Whole-selection entry cap. Selections are per-(module, trace, budget),
/// so even sweep-heavy drivers create a few hundred entries at most; the
/// cap guards long-lived processes cycling through unbounded inputs.
const MAX_SELECTION_ENTRIES: usize = 1 << 10;

struct Memo {
    map: Mutex<HashMap<MemoKey, Arc<LoopSearchOutcome>>>,
    hits: Mutex<u64>,
    selections: Mutex<HashMap<SelectionKey, Arc<Selection>>>,
    selection_hits: Mutex<u64>,
}

fn memo() -> &'static Memo {
    static MEMO: OnceLock<Memo> = OnceLock::new();
    MEMO.get_or_init(|| Memo {
        map: Mutex::new(HashMap::new()),
        hits: Mutex::new(0),
        selections: Mutex::new(HashMap::new()),
        selection_hits: Mutex::new(0),
    })
}

/// Canonical 128-bit fingerprint of a branch's outcome stream.
///
/// `PackedStream` stores outcomes LSB-first, 64 per word, with the tail
/// word zero-padded, so the length and the words are mixed verbatim.
pub fn fingerprint_packed(stream: &brepl_trace::PackedStream) -> (u64, u64) {
    let mut h = Lanes::new();
    h.mix(stream.len() as u64);
    for &word in stream.words() {
        h.mix(word);
    }
    h.finish()
}

/// Looks up a search outcome, computing and caching it on a miss.
///
/// `compute` must be a pure function of the fingerprinted inputs: the
/// memo returns the cached value verbatim on a repeat key.
pub fn lookup_or_compute(
    class: BranchClass,
    outcomes_fp: (u64, u64),
    max_states: usize,
    compute: impl FnOnce() -> LoopSearchOutcome,
) -> Arc<LoopSearchOutcome> {
    let key = MemoKey {
        class,
        outcomes_fp,
        max_states,
    };
    let m = memo();
    if let Some(hit) = m
        .map
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .get(&key)
        .cloned()
    {
        *m.hits
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner) += 1;
        return hit;
    }
    let value = Arc::new(compute());
    let mut map = m
        .map
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    // Two workers may race to compute the same key; both computed the same
    // value, so first-insert-wins keeps a single canonical Arc.
    if let Some(existing) = map.get(&key) {
        return existing.clone();
    }
    if map.len() < MAX_ENTRIES {
        map.insert(key, value.clone());
    }
    value
}

/// Looks up a whole-module selection, computing and caching it on a miss.
///
/// Keyed on `(module fingerprint, trace fingerprint, max_states)`; see
/// [`crate::select::select_strategies_with_threads`] and
/// [`crate::select::select_strategies_classified`], its callers.
/// `compute` must be the selection search itself — the memo returns the
/// cached [`Selection`] verbatim on a repeat key, which is exactly what
/// the search would recompute because selection is a pure function of the
/// fingerprinted inputs.
pub fn lookup_or_compute_selection(
    module_fp: (u64, u64),
    trace_fp: (u64, u64),
    max_states: usize,
    compute: impl FnOnce() -> Selection,
) -> Arc<Selection> {
    let key = SelectionKey {
        module_fp,
        trace_fp,
        max_states,
    };
    let m = memo();
    if let Some(hit) = m
        .selections
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .get(&key)
        .cloned()
    {
        *m.selection_hits
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner) += 1;
        return hit;
    }
    let value = Arc::new(compute());
    let mut map = m
        .selections
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    if let Some(existing) = map.get(&key) {
        return existing.clone();
    }
    if map.len() < MAX_SELECTION_ENTRIES {
        map.insert(key, value.clone());
    }
    value
}

/// `(entries, hits)` for the whole-selection memo — observability for
/// tests and the bench harness.
pub fn selection_stats() -> (usize, u64) {
    let m = memo();
    let entries = m
        .selections
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .len();
    let hits = *m
        .selection_hits
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    (entries, hits)
}

/// `(entries, hits)` — observability for tests and the bench harness.
pub fn stats() -> (usize, u64) {
    let m = memo();
    let entries = m
        .map
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .len();
    let hits = *m
        .hits
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    (entries, hits)
}

/// Empties both memo tiers (tests; long-lived servers switching
/// workloads).
pub fn clear() {
    let m = memo();
    m.map
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .clear();
    *m.hits
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner) = 0;
    m.selections
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .clear();
    *m.selection_hits
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner) = 0;
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The fingerprint of an unpacked stream: the reference
    /// [`fingerprint_packed`] is checked against.
    fn fingerprint_outcomes(outcomes: &[bool]) -> (u64, u64) {
        let mut h = Lanes::new();
        h.mix(outcomes.len() as u64);
        // Pack 64 outcomes per word before mixing.
        for chunk in outcomes.chunks(64) {
            let mut word = 0u64;
            for (i, &taken) in chunk.iter().enumerate() {
                word |= u64::from(taken) << i;
            }
            h.mix(word);
        }
        h.finish()
    }

    #[test]
    fn outcome_fingerprint_discriminates() {
        let a: Vec<bool> = (0..200).map(|i| i % 2 == 0).collect();
        let b: Vec<bool> = (0..200).map(|i| i % 2 == 1).collect();
        let c: Vec<bool> = (0..201).map(|i| i % 2 == 0).collect();
        assert_eq!(fingerprint_outcomes(&a), fingerprint_outcomes(&a));
        assert_ne!(fingerprint_outcomes(&a), fingerprint_outcomes(&b));
        assert_ne!(fingerprint_outcomes(&a), fingerprint_outcomes(&c));
        assert_ne!(fingerprint_outcomes(&[]), fingerprint_outcomes(&[false]));
    }

    #[test]
    fn packed_fingerprint_matches_scalar() {
        let mut state = 0x1234_5678_9abc_def0u64;
        for n in [0usize, 1, 7, 63, 64, 65, 127, 128, 129, 1000] {
            let dirs: Vec<bool> = (0..n)
                .map(|_| {
                    state ^= state >> 12;
                    state ^= state << 25;
                    state ^= state >> 27;
                    state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 63 == 1
                })
                .collect();
            let packed: brepl_trace::PackedStream = dirs.iter().copied().collect();
            assert_eq!(
                fingerprint_packed(&packed),
                fingerprint_outcomes(&dirs),
                "n = {n}"
            );
        }
    }

    #[test]
    fn second_lookup_hits() {
        let fp = fingerprint_outcomes(&[true, false, true, true]);
        let mut computed = 0;
        for _ in 0..3 {
            let out = lookup_or_compute(BranchClass::IntraLoop, fp, 4, || {
                computed += 1;
                LoopSearchOutcome {
                    best: None,
                    menu: vec![None; 5],
                }
            });
            assert!(out.best.is_none());
        }
        assert_eq!(computed, 1, "repeat keys must not recompute");
    }
}
