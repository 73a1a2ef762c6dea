//! Incremental re-proving of the static gate stack.
//!
//! The pipeline's refinement/quarantine loop re-replicates and re-gates
//! after every site drop, but a drop only changes the functions the
//! dropped sites live in: every other function's replicated form, witness
//! slice, provenance slice and shipped predictions are bit-identical to
//! the previous round, and so are its diagnostics. [`GateCache`] exploits
//! that: per-function (translation validator) and per-site (history
//! checker) results are keyed by a fingerprint of *everything the check
//! reads*, and a key hit replays the stored diagnostics instead of
//! re-running the solver.
//!
//! Correctness rests on the keys being complete:
//!
//! * [`validate_one_function`](crate::validate::validate_one_function)
//!   reads the original function (fixed for the whole pipeline run — the
//!   cache lives no longer than one run), the replicated function, the
//!   function's `ReplicaFuncMap` slice, and `predictions.get(site)` for
//!   branch sites of the replicated function. The key mixes the
//!   replicated function's structural fingerprint, the map slice, and
//!   every (site, shipped prediction) pair.
//! * [`site_history_diags`](crate::history::site_history_diags) reads the
//!   machine table, the one function containing the site's replicas (the
//!   product is intra-function), the provenance entries of that
//!   function's branch sites, and their shipped predictions. The key
//!   mixes all four; a site whose replicas cannot be attributed to
//!   exactly one function (gone, or — only via a corrupted provenance —
//!   spread over several) is re-proved from scratch every round.
//!
//! Diagnostic *order* is preserved exactly: both cached entry points walk
//! the same iteration order as their from-scratch counterparts and only
//! substitute each step's result.

use std::collections::HashMap;

use brepl_ir::{BranchId, FuncId, Lanes, Module};
use brepl_predict::StaticPrediction;

use crate::diag::AnalysisDiag;
use crate::history::site_history_diags;
use crate::product::{HistorySpec, MachineTable};
use crate::replica_map::{ReplicaFuncMap, ReplicaMap};
use crate::validate::validate_one_function;

type Key = (u64, u64);

/// Round-to-round memo for the pipeline's static gates. One instance per
/// pipeline run: the original module must not change underneath it.
#[derive(Default)]
pub struct GateCache {
    /// Per-function validator results, keyed by everything
    /// `validate_one_function` reads beyond the (fixed) original.
    validate: HashMap<FuncId, (Key, Vec<AnalysisDiag>)>,
    /// Per-site history-checker results.
    history: HashMap<BranchId, (Key, Vec<AnalysisDiag>)>,
    /// Cache hits replayed so far.
    hits: usize,
}

impl GateCache {
    /// An empty cache.
    pub fn new() -> Self {
        GateCache::default()
    }

    /// Cache hits replayed since construction (tests and diagnostics).
    pub fn hits(&self) -> usize {
        self.hits
    }
}

/// [`crate::validate_replication`] with round-to-round reuse: functions
/// whose replicated form, witness slice and shipped predictions are
/// unchanged replay their previous diagnostics. The returned list is
/// identical to the from-scratch call.
pub fn validate_replication_cached(
    original: &Module,
    replicated: &Module,
    map: &ReplicaMap,
    predictions: &StaticPrediction,
    cache: &mut GateCache,
) -> Vec<AnalysisDiag> {
    let mut diags = Vec::new();

    // The global shape check is cheap and guards the per-function walk;
    // rerun it every round, exactly as the from-scratch validator does.
    if map.functions.len() != replicated.function_count()
        || original.function_count() != replicated.function_count()
    {
        return crate::validate_replication(original, replicated, map, predictions);
    }

    for (fid, rfunc) in replicated.iter_functions() {
        let ofunc = original.function(fid);
        let fmap = &map.functions[fid.index()];
        let key = validate_key(fid, rfunc, fmap, predictions);
        match cache.validate.get(&fid) {
            Some((k, cached)) if *k == key => {
                cache.hits += 1;
                diags.extend(cached.iter().cloned());
            }
            _ => {
                let fresh = validate_one_function(fid, ofunc, rfunc, fmap, predictions);
                diags.extend(fresh.iter().cloned());
                cache.validate.insert(fid, (key, fresh));
            }
        }
    }
    diags
}

/// [`crate::check_history`] with round-to-round reuse: sites whose
/// machine table, containing function, provenance slice and shipped
/// predictions are unchanged replay their previous diagnostics. The
/// returned list is identical to the from-scratch call.
pub fn check_history_cached(
    replicated: &Module,
    provenance: &[BranchId],
    spec: &HistorySpec,
    predictions: &StaticPrediction,
    cache: &mut GateCache,
) -> Vec<AnalysisDiag> {
    // One pass over the module: which function holds the replicas of each
    // original site, and each function's key ingredients. A site present
    // in several functions (impossible for an honest provenance, but the
    // chaos harness corrupts things) maps to `None` and skips the cache.
    let mut home: HashMap<BranchId, Option<FuncId>> = HashMap::new();
    for (fid, f) in replicated.iter_functions() {
        for (_, block) in f.iter_blocks() {
            let Some(new_site) = block.term.branch_site() else {
                continue;
            };
            let Some(&orig) = provenance.get(new_site.index()) else {
                continue;
            };
            match home.entry(orig).or_insert(Some(fid)) {
                Some(prev) if *prev != fid => {
                    home.insert(orig, None);
                }
                _ => {}
            }
        }
    }

    let mut fn_keys: HashMap<FuncId, Key> = HashMap::new();
    let mut diags = Vec::new();
    for (&site, table) in &spec.machines {
        let keyed_fid = home.get(&site).copied().flatten();
        let Some(fid) = keyed_fid else {
            // No single home function: re-prove from scratch, uncached.
            diags.extend(site_history_diags(
                replicated,
                provenance,
                site,
                table,
                predictions,
            ));
            continue;
        };
        let fn_key = *fn_keys
            .entry(fid)
            .or_insert_with(|| history_fn_key(fid, replicated, provenance, predictions));
        let key = history_key(fn_key, table);
        match cache.history.get(&site) {
            Some((k, cached)) if *k == key => {
                cache.hits += 1;
                diags.extend(cached.iter().cloned());
            }
            _ => {
                let fresh = site_history_diags(replicated, provenance, site, table, predictions);
                diags.extend(fresh.iter().cloned());
                cache.history.insert(site, (key, fresh));
            }
        }
    }
    diags
}

/// Key for one function's validator slice: the replicated function's
/// structure, its witness slice, and every shipped prediction the checks
/// can read.
fn validate_key(
    fid: FuncId,
    rfunc: &brepl_ir::Function,
    fmap: &ReplicaFuncMap,
    predictions: &StaticPrediction,
) -> Key {
    let mut h = Lanes::new();
    h.mix(fid.index() as u64);
    let (fa, fb) = rfunc.fingerprint();
    h.mix(fa);
    h.mix(fb);
    h.mix(fmap.origins.len() as u64);
    for chain in &fmap.origins {
        h.mix(chain.len() as u64);
        for o in chain {
            h.mix(o.index() as u64);
        }
    }
    h.mix(fmap.machine_predictions.len() as u64);
    for p in &fmap.machine_predictions {
        h.mix(match p {
            None => 2,
            Some(false) => 0,
            Some(true) => 1,
        });
    }
    for (_, block) in rfunc.iter_blocks() {
        if let Some(site) = block.term.branch_site() {
            h.mix(site.index() as u64);
            h.mix(u64::from(predictions.get(site)));
        }
    }
    h.finish()
}

/// Key ingredients shared by every site homed in `fid`: the function's
/// structure plus the provenance and shipped prediction of each of its
/// branch sites.
fn history_fn_key(
    fid: FuncId,
    replicated: &Module,
    provenance: &[BranchId],
    predictions: &StaticPrediction,
) -> Key {
    let f = replicated.function(fid);
    let mut h = Lanes::new();
    h.mix(fid.index() as u64);
    let (fa, fb) = f.fingerprint();
    h.mix(fa);
    h.mix(fb);
    for (_, block) in f.iter_blocks() {
        if let Some(new_site) = block.term.branch_site() {
            h.mix(new_site.index() as u64);
            h.mix(
                provenance
                    .get(new_site.index())
                    .map_or(u64::MAX, |o| o.index() as u64),
            );
            h.mix(u64::from(predictions.get(new_site)));
        }
    }
    h.finish()
}

/// Full history key: the home function's key plus the machine table.
fn history_key(fn_key: Key, table: &MachineTable) -> Key {
    let mut h = Lanes::new();
    h.mix(fn_key.0);
    h.mix(fn_key.1);
    h.mix(table.initial as u64);
    h.mix(table.states.len() as u64);
    for s in &table.states {
        h.mix(u64::from(s.predict));
        h.mix(s.on_taken as u64);
        h.mix(s.on_not_taken as u64);
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::product::TableState;
    use brepl_ir::{FunctionBuilder, Operand};

    /// The same hand-replicated flip-flop as `history.rs`'s tests: two
    /// replicas of one alternating loop branch, each pinning its machine
    /// state's prediction and branching into the other state's copy.
    fn replicated_flip_flop() -> (Module, Vec<BranchId>) {
        let mut b = FunctionBuilder::new("main", 1);
        let n = b.param(0);
        let i = b.reg();
        b.const_int(i, 0);
        let head0 = b.new_block();
        let body0 = b.new_block();
        let head1 = b.new_block();
        let body1 = b.new_block();
        let exit = b.new_block();
        b.jmp(head0);
        b.switch_to(head0);
        let c0 = b.lt(i.into(), n.into());
        b.br(c0, body0, exit);
        b.switch_to(body0);
        b.add(i, i.into(), Operand::imm(1));
        b.jmp(head1);
        b.switch_to(head1);
        let c1 = b.lt(i.into(), n.into());
        b.br(c1, body1, exit);
        b.switch_to(body1);
        b.add(i, i.into(), Operand::imm(1));
        b.jmp(head0);
        b.switch_to(exit);
        b.ret(None);
        let mut m = Module::new();
        m.push_function(b.finish());
        (m, vec![BranchId(0), BranchId(0)])
    }

    fn wired_machine() -> MachineTable {
        MachineTable {
            states: vec![
                TableState {
                    predict: true,
                    on_taken: 1,
                    on_not_taken: 0,
                },
                TableState {
                    predict: false,
                    on_taken: 0,
                    on_not_taken: 1,
                },
            ],
            initial: 0,
        }
    }

    fn flip_flop_spec() -> (Module, Vec<BranchId>, HistorySpec, StaticPrediction) {
        let (m, prov) = replicated_flip_flop();
        let table = wired_machine();
        let mut predictions = StaticPrediction::with_default(true);
        predictions.set(BranchId(0), true);
        predictions.set(BranchId(1), false);
        let mut spec = HistorySpec::new();
        spec.insert(BranchId(0), table);
        (m, prov, spec, predictions)
    }

    #[test]
    fn cached_validate_replays_identical_diags() {
        let (m, _) = replicated_flip_flop();
        let map = ReplicaMap::identity(&m);
        // Pin the wrong direction on one site so diagnostics are non-empty
        // and the replay has something real to preserve.
        let mut predictions = StaticPrediction::with_default(true);
        predictions.set(BranchId(0), true);
        predictions.set(BranchId(1), false);
        let scratch = crate::validate_replication(&m, &m, &map, &predictions);
        let mut cache = GateCache::new();
        let first = validate_replication_cached(&m, &m, &map, &predictions, &mut cache);
        assert_eq!(first, scratch);
        assert_eq!(cache.hits(), 0, "first round populates, never hits");
        let second = validate_replication_cached(&m, &m, &map, &predictions, &mut cache);
        assert_eq!(second, scratch);
        assert!(cache.hits() > 0, "unchanged round must replay from cache");
    }

    #[test]
    fn cached_history_replays_identical_diags() {
        let (m, prov, spec, predictions) = flip_flop_spec();
        let scratch = crate::check_history(&m, &prov, &spec, &predictions);
        let mut cache = GateCache::new();
        let first = check_history_cached(&m, &prov, &spec, &predictions, &mut cache);
        assert_eq!(first, scratch);
        assert_eq!(cache.hits(), 0);
        let second = check_history_cached(&m, &prov, &spec, &predictions, &mut cache);
        assert_eq!(second, scratch);
        assert!(cache.hits() > 0);
    }

    #[test]
    fn changed_predictions_miss_the_cache() {
        let (m, prov, spec, mut predictions) = flip_flop_spec();
        let mut cache = GateCache::new();
        let clean = check_history_cached(&m, &prov, &spec, &predictions, &mut cache);
        assert!(clean.is_empty(), "{clean:?}");
        // Flip a shipped prediction: the key must change, the re-proof
        // must run, and it must now find the violation.
        predictions.set(BranchId(0), false);
        let hits_before = cache.hits();
        let dirty = check_history_cached(&m, &prov, &spec, &predictions, &mut cache);
        assert_eq!(cache.hits(), hits_before, "changed key must not hit");
        assert_eq!(dirty, crate::check_history(&m, &prov, &spec, &predictions));
        assert!(
            !dirty.is_empty(),
            "flipped pin must be re-proved and caught"
        );
    }

    #[test]
    fn corrupted_multi_home_site_skips_cache_but_stays_exact() {
        let (m, _, spec, predictions) = flip_flop_spec();
        // A provenance claiming the two replicas belong to... the same
        // original site is fine; spreading a site across several functions
        // needs a second function. Corrupt instead by duplicating the
        // module into two functions sharing provenance for site 0.
        let mut m2 = m.clone();
        let mut f = m.function(brepl_ir::FuncId(0)).clone();
        f.name = "main_copy".to_string();
        m2.push_function(f);
        let prov2 = vec![BranchId(0), BranchId(0), BranchId(0), BranchId(0)];
        let scratch = crate::check_history(&m2, &prov2, &spec, &predictions);
        let mut cache = GateCache::new();
        let a = check_history_cached(&m2, &prov2, &spec, &predictions, &mut cache);
        let b = check_history_cached(&m2, &prov2, &spec, &predictions, &mut cache);
        assert_eq!(a, scratch);
        assert_eq!(b, scratch);
        assert_eq!(cache.hits(), 0, "multi-home sites must never be cached");
    }
}
