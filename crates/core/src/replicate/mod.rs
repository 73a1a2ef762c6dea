//! The code replication transform: applies a per-branch plan of state
//! machines to a module, producing a replicated module whose branch sites
//! each carry a static prediction.
//!
//! [`apply_plan`] rewrites one function at a time: loop machines first
//! (one copy of the loop per product state, `loop_replicate`), then
//! correlated machines (tail duplication of the incoming paths,
//! `path_replicate`), then jump threading and block merging (`simplify`).
//! Both replication steps report every block they clone as a
//! `(source, clone)` pair. Beside the function it keeps one note per
//! block — origin chain, machine pin, planned correlated site — and one
//! rule maintains the notes: a clone inherits its source's note. The
//! finished notes are the function's [`ReplicaFuncMap`], the witness the
//! translation validator checks.

mod check;
mod cleanup;
mod loop_replicate;
mod path_replicate;
mod simplify;

pub use check::{
    check_equivalence, check_equivalence_counts, check_equivalence_outcomes, EquivalenceError,
    RunCounts,
};
pub use loop_replicate::MAX_PRODUCT_STATES;

pub use brepl_analysis::{ReplicaFuncMap, ReplicaMap};

use std::collections::BTreeMap;
use std::fmt;

use brepl_cfg::{Cfg, DomTree, LoopForest, LoopId};
use brepl_ir::{BlockId, BranchId, FuncId, Function, Module, Term};
use brepl_predict::StaticPrediction;
use brepl_trace::TraceStats;

use crate::correlated::CorrelatedMachine;
use crate::machine::StateMachine;
use cleanup::remove_unreachable;
use loop_replicate::replicate_loop;
use path_replicate::replicate_correlated;

/// The machine assigned to one branch.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BranchMachine {
    /// Intra-loop or loop-exit machine: replicate the innermost loop that
    /// can carry the machine's history (see `region_loop`).
    Loop(StateMachine),
    /// Correlated machine: tail-duplicate the incoming paths.
    Correlated(CorrelatedMachine),
}

impl BranchMachine {
    /// Number of states of the machine.
    pub fn states(&self) -> usize {
        match self {
            BranchMachine::Loop(m) => m.len(),
            BranchMachine::Correlated(m) => m.states(),
        }
    }
}

/// A replication plan: which branches get which machines. Keys are branch
/// sites of the *original* module.
#[derive(Clone, Debug, Default)]
pub struct ReplicationPlan {
    /// Per-branch machine assignments.
    pub assignments: BTreeMap<BranchId, BranchMachine>,
}

impl ReplicationPlan {
    /// An empty plan (replication is the identity).
    pub fn new() -> Self {
        Self::default()
    }

    /// Assigns a machine to a branch.
    pub fn assign(&mut self, site: BranchId, machine: BranchMachine) {
        self.assignments.insert(site, machine);
    }

    /// Number of planned branches.
    pub fn len(&self) -> usize {
        self.assignments.len()
    }

    /// True when no branches are planned.
    pub fn is_empty(&self) -> bool {
        self.assignments.is_empty()
    }

    /// The plan's history specification: the bare transition table of every
    /// [`BranchMachine::Loop`] assignment, keyed by original site.
    ///
    /// This is the input to the witness-independent checker
    /// ([`brepl_analysis::check_history`]): it is derived from the
    /// transform's *input*, never from the `ReplicaMap` the transform
    /// emits. Correlated machines have no state-transition table — their
    /// tail-duplicated paths are covered by the witness validator's BR006
    /// check and by the exact cost replay.
    pub fn history_spec(&self) -> brepl_analysis::HistorySpec {
        let mut spec = brepl_analysis::HistorySpec::new();
        for (&site, machine) in &self.assignments {
            if let BranchMachine::Loop(m) = machine {
                spec.insert(site, m.to_table());
            }
        }
        spec
    }
}

/// Why a plan could not be applied.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ReplicateError {
    /// A planned site does not exist in the module.
    UnknownBranch(BranchId),
    /// A loop machine was assigned to a branch outside any loop.
    NotInLoop(BranchId),
    /// The loop replication failed (state cap and friends).
    Loop(String),
}

impl fmt::Display for ReplicateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplicateError::UnknownBranch(s) => write!(f, "no branch with site {s}"),
            ReplicateError::NotInLoop(s) => {
                write!(f, "loop machine assigned to non-loop branch {s}")
            }
            ReplicateError::Loop(e) => write!(f, "loop replication failed: {e}"),
        }
    }
}

impl std::error::Error for ReplicateError {}

/// The output of [`apply_plan`].
#[derive(Clone, Debug)]
pub struct ReplicatedProgram {
    /// The transformed module (verified, branch sites renumbered).
    pub module: Module,
    /// Static per-site predictions for the transformed module: machine
    /// states where planned, profile majority elsewhere.
    pub predictions: StaticPrediction,
    /// `provenance[new_site] = original site` the branch was copied from.
    pub provenance: Vec<BranchId>,
    /// The witness for static translation validation: per replica block,
    /// the chain of original blocks it carries and the machine-pinned
    /// prediction, if any (see [`brepl_analysis::validate_replication`]).
    pub replica_map: ReplicaMap,
}

impl ReplicatedProgram {
    /// Code-size growth factor relative to `original`.
    pub fn size_growth(&self, original: &Module) -> f64 {
        self.module.size_units() as f64 / original.size_units() as f64
    }
}

/// The replication region for a loop machine controlling the branch in
/// `bid`: the innermost containing loop that can carry the machine's
/// history.
///
/// `replicate_loop` keeps the original target for any leg leaving the
/// replicated region, which lands re-entries on the initial state's copy
/// — the machine step of that leg is dropped. Starting from the branch's
/// innermost loop, this walks up the nest until every leg either stays
/// inside the region, resets the machine (`next(q, leg) == initial` for
/// all `q`, so the dropped step coincides with the re-entry reset), or
/// leaves every loop containing the branch (control then never returns
/// to the branch, so the lost state is irrelevant). Without the walk, a
/// machine whose non-reset leg exits the innermost loop — e.g. one
/// counting consecutive takens of a loop-exit branch across iterations
/// of the *enclosing* loop — degenerates: its non-initial copies are
/// unreachable and every surviving copy pins the initial state's
/// prediction, silently diverging from the plan.
///
/// Returns `None` when the branch is in no loop at all.
fn region_loop(
    func: &Function,
    forest: &LoopForest,
    bid: BlockId,
    machine: &StateMachine,
) -> Option<LoopId> {
    let mut cur = forest.innermost(bid)?;
    let Term::Br { then_, else_, .. } = &func.block(bid).term else {
        return Some(cur);
    };
    let mut top = cur;
    while let Some(p) = forest.get(top).parent {
        top = p;
    }
    let resets =
        |taken: bool| (0..machine.len()).all(|q| machine.next(q, taken) == machine.initial());
    let legs = [(*then_, true), (*else_, false)];
    loop {
        let l = forest.get(cur);
        let carried = legs
            .iter()
            .all(|&(t, taken)| l.contains(t) || resets(taken) || !forest.get(top).contains(t));
        if carried {
            return Some(cur);
        }
        match l.parent {
            Some(p) => cur = p,
            None => return Some(cur),
        }
    }
}

/// What one replication step did to a function: every block it cloned and
/// every branch copy it pinned to a machine state.
#[derive(Debug)]
struct Replication {
    /// Every `(source, clone)` pair in push order: clone ids run on from
    /// the function's previous block count, and a source precedes its
    /// clones, so the log replays front to back.
    copies: Vec<(BlockId, BlockId)>,
    /// `(copy, prediction)` for every copy of a controlled branch: the
    /// prediction of the machine state the copy encodes.
    pins: Vec<(BlockId, bool)>,
}

/// What [`apply_plan`] knows about one block of the function it rewrites.
/// One rule maintains it: a clone inherits its source's note.
#[derive(Clone, Debug, Default)]
struct Note {
    /// The original blocks whose instruction streams the block carries, in
    /// order — the witness the translation validator checks the
    /// simulation relation against.
    origins: Vec<BlockId>,
    /// The prediction a machine state pins at the block's branch. A clone
    /// sits on a subset of its source's incoming paths, so the machine
    /// states reaching it are a subset of those reaching the source and
    /// the pin holds for it too.
    pin: Option<bool>,
    /// The planned correlated site whose path machine the block's branch
    /// takes. Loop copies of the branch inherit it; it is read once, to
    /// build the correlated worklist after the loop machines.
    corr: Option<BranchId>,
}

/// Records `step` in `notes` — each clone inherits its source's note, then
/// each pin lands — and removes the blocks `step` left unreachable, with
/// their notes. Returns the cleanup map for the caller's worklist.
fn follow(notes: &mut Vec<Note>, func: &mut Function, step: Replication) -> Vec<Option<BlockId>> {
    for (src, clone) in step.copies {
        debug_assert_eq!(clone.index(), notes.len(), "clone log is in push order");
        let note = notes[src.index()].clone();
        notes.push(note);
    }
    for (b, p) in step.pins {
        notes[b.index()].pin = Some(p);
    }
    let map = remove_unreachable(func);
    remap(&map, notes);
    map
}

/// Carries per-block notes through a cleanup map. Cleanup keeps the
/// surviving blocks in their order, so the notes of removed blocks drop
/// out and the rest stay in place.
fn remap(map: &[Option<BlockId>], notes: &mut Vec<Note>) {
    debug_assert_eq!(map.len(), notes.len());
    let mut kept = map.iter();
    notes.retain(|_| kept.next().is_some_and(Option::is_some));
}

/// Applies `plan` to a copy of `module`. `profile` supplies the fallback
/// profile predictions for unplanned branches (use the stats of the
/// profiling trace).
///
/// # Errors
///
/// Returns a [`ReplicateError`] if a planned site is missing, a loop
/// machine targets a non-loop branch, or a loop's product state space
/// exceeds [`MAX_PRODUCT_STATES`].
pub fn apply_plan(
    module: &Module,
    plan: &ReplicationPlan,
    profile: &TraceStats,
) -> Result<ReplicatedProgram, ReplicateError> {
    let mut out = module.clone();

    // Locate planned branches: site -> (func, block).
    let mut planned: Vec<Vec<(BlockId, BranchId)>> = vec![Vec::new(); out.function_count()];
    for &site in plan.assignments.keys() {
        let (fid, bid) = out
            .locate_branch(site)
            .ok_or(ReplicateError::UnknownBranch(site))?;
        planned[fid.index()].push((bid, site));
    }

    let fids: Vec<FuncId> = out.iter_functions().map(|(f, _)| f).collect();
    let mut fn_maps: Vec<ReplicaFuncMap> = Vec::with_capacity(fids.len());
    for (fid, sites) in fids.into_iter().zip(planned) {
        let mut notes: Vec<Note> = (0..out.function(fid).blocks.len())
            .map(|i| Note {
                origins: vec![BlockId::from_index(i)],
                ..Note::default()
            })
            .collect();
        // Loop sites stay in `todo`, which copies do not join: a loop
        // machine controls the original branch, and its copies get their
        // pins from the replication itself.
        let mut todo: Vec<(BlockId, BranchId)> = Vec::new();
        for (bid, site) in sites {
            match &plan.assignments[&site] {
                BranchMachine::Loop(_) => todo.push((bid, site)),
                BranchMachine::Correlated(_) => notes[bid.index()].corr = Some(site),
            }
        }

        // --- Loop machines, deepest regions first -----------------------
        while !todo.is_empty() {
            let func = out.function_mut(fid);
            let cfg = Cfg::new(func);
            let dom = DomTree::new(&cfg);
            let forest = LoopForest::new(&cfg, &dom);

            // Each branch's replication region, then the deepest among
            // the remaining branches.
            let machine_of = |site: BranchId| -> &StateMachine {
                match &plan.assignments[&site] {
                    BranchMachine::Loop(m) => m,
                    BranchMachine::Correlated(_) => unreachable!("todo holds Loop sites"),
                }
            };
            let mut regions: Vec<LoopId> = Vec::with_capacity(todo.len());
            for &(bid, site) in &todo {
                let Some(l) = region_loop(func, &forest, bid, machine_of(site)) else {
                    return Err(ReplicateError::NotInLoop(site));
                };
                regions.push(l);
            }
            let mut best: Option<(usize, u32)> = None; // (todo idx, depth)
            for (i, &l) in regions.iter().enumerate() {
                let depth = forest.get(l).depth;
                match best {
                    Some((_, d)) if d >= depth => {}
                    _ => best = Some((i, depth)),
                }
            }
            let (idx, _) = best.expect("todo not empty");
            let target_loop = regions[idx];
            let loop_blocks = forest.get(target_loop).blocks.clone();

            // All remaining branches with this same region replicate
            // together (product machine), as the paper prescribes for
            // same-loop branches.
            let mut group: Vec<(BlockId, BranchId)> = Vec::new();
            let mut rest: Vec<(BlockId, BranchId)> = Vec::new();
            for (i, &entry) in todo.iter().enumerate() {
                if regions[i] == target_loop {
                    group.push(entry);
                } else {
                    rest.push(entry);
                }
            }
            todo = rest;

            let mut machines: Vec<(BlockId, &StateMachine)> = group
                .iter()
                .map(|&(bid, site)| (bid, machine_of(site)))
                .collect();
            // Same-loop machines multiply the state space; when the product
            // overflows the cap, shed the largest machines — those branches
            // simply stay at profile prediction, which is what a compiler's
            // cost function would do.
            while machines.len() > 1
                && machines.iter().map(|(_, m)| m.len()).product::<usize>() > MAX_PRODUCT_STATES
            {
                let worst = machines
                    .iter()
                    .enumerate()
                    .max_by_key(|(_, (_, m))| m.len())
                    .map(|(i, _)| i)
                    .expect("non-empty");
                machines.remove(worst);
            }
            if machines.len() == 1 && machines[0].1.len() > MAX_PRODUCT_STATES {
                continue;
            }
            let step = replicate_loop(func, &loop_blocks, &machines)
                .map_err(|e| ReplicateError::Loop(e.to_string()))?;
            let map = follow(&mut notes, func, step);
            remap_blocks(&map, &mut todo);
        }

        // --- Correlated machines ----------------------------------------
        // Loop replication above may have multiplied these branch blocks;
        // every copy inherited its site, so each gets its path machine.
        // Block order is the plan's site order for the original blocks
        // (sites are numbered in block order), then loop copies in
        // creation order. The worklist pops from the end and is remapped
        // after each transform's cleanup; path-split clones do not join it.
        let mut corr_todo: Vec<(BlockId, BranchId)> = notes
            .iter()
            .enumerate()
            .filter_map(|(i, n)| Some((BlockId::from_index(i), n.corr?)))
            .collect();
        while let Some((bid, site)) = corr_todo.pop() {
            let BranchMachine::Correlated(machine) = &plan.assignments[&site] else {
                unreachable!("notes name correlated sites")
            };
            let func = out.function_mut(fid);
            let step = replicate_correlated(func, bid, machine);
            let map = follow(&mut notes, func, step);
            remap_blocks(&map, &mut corr_todo);
        }

        // --- Jump threading / block merging (Mueller–Whalley style) -----
        // Replication leaves pruned arms and empty jump blocks behind; a
        // real code generator would clean these up, so the size growth we
        // report should too. Simplification never touches a conditional
        // branch, only where it lives.
        let strace = simplify::simplify_function_tracked(out.function_mut(fid));
        // A merge concatenates the donor's instruction stream onto the
        // absorber, and the donor's terminator replaces the absorber's
        // jump: the chain concatenates and the pin moves with the branch.
        for &(a, t) in &strace.merges {
            let donor = std::mem::take(&mut notes[t.index()]);
            let absorber = &mut notes[a.index()];
            absorber.origins.extend(donor.origins);
            absorber.pin = donor.pin;
        }
        remap(&strace.cleanup, &mut notes);

        // This function is final now (renumbering below does not move
        // blocks); record its origin chains and machine predictions.
        // `unzip` allocates both vectors at their length; an in-place
        // `collect` would keep the notes' allocation, sized by the
        // function's largest intermediate block count.
        debug_assert_eq!(notes.len(), out.function(fid).blocks.len());
        let (origins, machine_predictions) = notes.into_iter().map(|n| (n.origins, n.pin)).unzip();
        fn_maps.push(ReplicaFuncMap {
            origins,
            machine_predictions,
        });
    }

    // Final numbering + prediction table: a machine pin where the replica
    // map has one, the original site's profile majority elsewhere.
    let provenance = out.renumber_branches_with_provenance();
    out.verify().expect("replication must produce valid IR");
    let mut predictions = StaticPrediction::with_default(true);
    for ((_, func), map) in out.iter_functions().zip(&fn_maps) {
        for (block, pin) in func.blocks.iter().zip(&map.machine_predictions) {
            if let Some(site) = block.term.branch_site() {
                let p = pin.unwrap_or_else(|| profile.site(provenance[site.index()]).majority());
                predictions.set(site, p);
            }
        }
    }

    Ok(ReplicatedProgram {
        module: out,
        predictions,
        provenance,
        replica_map: ReplicaMap { functions: fn_maps },
    })
}

/// Remaps a tracked `(block, site)` worklist through a cleanup block map,
/// dropping entries whose block became unreachable.
fn remap_blocks(map: &[Option<BlockId>], blocks: &mut Vec<(BlockId, BranchId)>) {
    blocks.retain_mut(|(b, _)| match map.get(b.index()) {
        Some(Some(nb)) => {
            *b = *nb;
            true
        }
        _ => false,
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::MachineState;
    use crate::pattern::HistPattern;
    use brepl_ir::{FunctionBuilder, Operand, Value};
    use brepl_predict::evaluate_static;
    use brepl_sim::{Machine as Sim, RunConfig};

    /// Loop over i in 0..n with an alternating branch and an exit branch.
    fn alternating_module() -> Module {
        let mut b = FunctionBuilder::new("main", 1);
        let n = b.param(0);
        let i = b.reg();
        let acc = b.reg();
        b.const_int(i, 0);
        b.const_int(acc, 0);
        let head = b.new_block();
        let even = b.new_block();
        let odd = b.new_block();
        let latch = b.new_block();
        let exit = b.new_block();
        b.jmp(head);
        b.switch_to(head);
        let r = b.reg();
        b.rem(r, i.into(), Operand::imm(2));
        let c = b.eq(r.into(), Operand::imm(0));
        b.br(c, even, odd);
        b.switch_to(even);
        b.add(acc, acc.into(), Operand::imm(3));
        b.jmp(latch);
        b.switch_to(odd);
        b.add(acc, acc.into(), Operand::imm(5));
        b.jmp(latch);
        b.switch_to(latch);
        b.add(i, i.into(), Operand::imm(1));
        let c2 = b.lt(i.into(), n.into());
        b.br(c2, head, exit);
        b.switch_to(exit);
        b.out(acc.into());
        b.ret(Some(acc.into()));
        let mut m = Module::new();
        m.push_function(b.finish());
        m
    }

    fn flip_flop() -> StateMachine {
        StateMachine::from_states(
            vec![
                MachineState {
                    pattern: HistPattern::parse("0").unwrap(),
                    predict: true,
                    on_taken: 1,
                    on_not_taken: 0,
                },
                MachineState {
                    pattern: HistPattern::parse("1").unwrap(),
                    predict: false,
                    on_taken: 1,
                    on_not_taken: 0,
                },
            ],
            0,
        )
    }

    #[test]
    fn empty_plan_is_identity_modulo_numbering() {
        let m = alternating_module();
        let trace = Sim::new(&m, RunConfig::default())
            .unwrap()
            .run("main", &[Value::Int(50)])
            .unwrap()
            .trace;
        let program = apply_plan(&m, &ReplicationPlan::new(), &trace.stats()).unwrap();
        assert_eq!(program.module.size_units(), m.size_units());
        assert_eq!(program.size_growth(&m), 1.0);
        // Predictions are profile majorities.
        let report = evaluate_static(&program.predictions, &trace);
        let profile_wrong: u64 = trace
            .stats()
            .iter_executed()
            .map(|(_, c)| c.minority_count())
            .sum();
        assert_eq!(report.mispredictions(), profile_wrong);
    }

    #[test]
    fn planned_loop_replication_halves_mispredictions() {
        let m = alternating_module();
        let args = [Value::Int(100)];
        let original = Sim::new(&m, RunConfig::default())
            .unwrap()
            .run("main", &args)
            .unwrap();
        let stats = original.trace.stats();

        // The alternating branch is site 0 (first branch of the function).
        let mut plan = ReplicationPlan::new();
        plan.assign(BranchId(0), BranchMachine::Loop(flip_flop()));
        let program = apply_plan(&m, &plan, &stats).unwrap();
        check_equivalence(&m, &program, "main", &args, &[]).unwrap();

        let transformed = Sim::new(&program.module, RunConfig::default())
            .unwrap()
            .run("main", &args)
            .unwrap();
        let report = evaluate_static(&program.predictions, &transformed.trace);
        // Original profile: ~50 wrong (alternation) + 1 (exit).
        // Replicated: only the exit miss remains.
        assert!(report.mispredictions() <= 1);
        assert!(program.size_growth(&m) > 1.0);
        assert!(program.size_growth(&m) < 2.0);
    }

    #[test]
    fn machine_advancing_on_inner_loop_exit_widens_region() {
        // Nested loops shaped like compress's scan loop: the controlled
        // branch A heads the inner loop, but its taken leg exits to C in
        // the enclosing loop, and the machine advances on taken. The
        // innermost loop alone cannot carry that history (the step would
        // be dropped at the region boundary and every copy would pin the
        // initial state), so the region must widen to the outer loop.
        //
        //   h: br -> A | exit      (outer header)
        //   A: br -> C | B         (inner header, machine-controlled)
        //   B: br -> h | A         (inner latch / outer latch)
        //   C: jmp h               (outer blocks only)
        let mut b = FunctionBuilder::new("main", 0);
        let i = b.reg();
        let acc = b.reg();
        b.const_int(i, 0);
        b.const_int(acc, 0);
        let h = b.new_block();
        let a = b.new_block();
        let bb = b.new_block();
        let c = b.new_block();
        let exit = b.new_block();
        b.jmp(h);
        b.switch_to(h);
        let c1 = b.lt(i.into(), Operand::imm(30));
        b.br(c1, a, exit);
        b.switch_to(a);
        b.add(i, i.into(), Operand::imm(1));
        let r = b.reg();
        b.rem(r, i.into(), Operand::imm(3));
        let c2 = b.eq(r.into(), Operand::imm(0));
        b.br(c2, c, bb);
        b.switch_to(bb);
        let r2 = b.reg();
        b.rem(r2, i.into(), Operand::imm(2));
        let c3 = b.eq(r2.into(), Operand::imm(0));
        b.br(c3, h, a);
        b.switch_to(c);
        b.add(acc, acc.into(), Operand::imm(1));
        b.jmp(h);
        b.switch_to(exit);
        b.out(acc.into());
        b.ret(Some(acc.into()));
        let mut m = Module::new();
        m.push_function(b.finish());

        // Predict taken only after two consecutive takens of A; on_taken
        // advances, so the exit leg must stay inside the region.
        let machine = StateMachine::from_states(
            vec![
                MachineState {
                    pattern: HistPattern::parse("0").unwrap(),
                    predict: false,
                    on_taken: 1,
                    on_not_taken: 0,
                },
                MachineState {
                    pattern: HistPattern::parse("01").unwrap(),
                    predict: false,
                    on_taken: 2,
                    on_not_taken: 0,
                },
                MachineState {
                    pattern: HistPattern::parse("11").unwrap(),
                    predict: true,
                    on_taken: 2,
                    on_not_taken: 0,
                },
            ],
            0,
        );

        let stats = Sim::new(&m, RunConfig::default())
            .unwrap()
            .run("main", &[])
            .unwrap()
            .trace
            .stats();
        let mut plan = ReplicationPlan::new();
        plan.assign(BranchId(1), BranchMachine::Loop(machine));
        let program = apply_plan(&m, &plan, &stats).unwrap();
        check_equivalence(&m, &program, "main", &[], &[]).unwrap();

        // The witness-independent checker re-derives the per-copy states;
        // before region widening it reported BR009/BR010 here, because the
        // non-initial copies were unreachable and every surviving copy
        // pinned the initial state's prediction.
        let diags = brepl_analysis::check_history(
            &program.module,
            &program.provenance,
            &plan.history_spec(),
            &program.predictions,
        );
        assert!(diags.is_empty(), "history check must pass: {diags:?}");

        // The predict-taken state is realized by some copy.
        let f = program
            .module
            .function(program.module.function_by_name("main").unwrap());
        let has_taken_pin = f.iter_blocks().any(|(_, block)| {
            block.term.branch_site().is_some_and(|s| {
                program.provenance[s.index()] == BranchId(1) && program.predictions.get(s)
            })
        });
        assert!(has_taken_pin, "no copy pins the machine's taken state");
    }

    #[test]
    fn replica_map_passes_static_validation() {
        let m = alternating_module();
        let args = [Value::Int(100)];
        let stats = Sim::new(&m, RunConfig::default())
            .unwrap()
            .run("main", &args)
            .unwrap()
            .trace
            .stats();
        let mut plan = ReplicationPlan::new();
        plan.assign(BranchId(0), BranchMachine::Loop(flip_flop()));
        let program = apply_plan(&m, &plan, &stats).unwrap();
        let diags = brepl_analysis::validate_replication(
            &m,
            &program.module,
            &program.replica_map,
            &program.predictions,
        );
        assert!(
            !brepl_analysis::has_errors(&diags),
            "static validation failed: {diags:?}"
        );
    }

    #[test]
    fn empty_plan_replica_map_is_identity_and_validates() {
        let m = alternating_module();
        let stats = Sim::new(&m, RunConfig::default())
            .unwrap()
            .run("main", &[Value::Int(10)])
            .unwrap()
            .trace
            .stats();
        let program = apply_plan(&m, &ReplicationPlan::new(), &stats).unwrap();
        assert_eq!(program.replica_map, ReplicaMap::identity(&m));
        let diags = brepl_analysis::validate_replication(
            &m,
            &program.module,
            &program.replica_map,
            &program.predictions,
        );
        assert!(diags.is_empty(), "identity must validate clean: {diags:?}");
    }

    #[test]
    fn correlated_replication_passes_static_validation() {
        // Diamond into a join holding a correlated branch: the second
        // branch repeats the first's condition, so path depth 1 predicts
        // it perfectly.
        let mut b = FunctionBuilder::new("main", 1);
        let x = b.param(0);
        let t = b.new_block();
        let e = b.new_block();
        let j = b.new_block();
        let yes = b.new_block();
        let no = b.new_block();
        let c = b.gt(x.into(), Operand::imm(0));
        b.br(c, t, e);
        b.switch_to(t);
        b.jmp(j);
        b.switch_to(e);
        b.jmp(j);
        b.switch_to(j);
        let c2 = b.gt(x.into(), Operand::imm(0));
        b.br(c2, yes, no);
        b.switch_to(yes);
        b.ret(Some(Operand::imm(1)));
        b.switch_to(no);
        b.ret(Some(Operand::imm(0)));
        let mut m = Module::new();
        m.push_function(b.finish());

        let args = [Value::Int(5)];
        let stats = Sim::new(&m, RunConfig::default())
            .unwrap()
            .run("main", &args)
            .unwrap()
            .trace
            .stats();
        let machine = CorrelatedMachine {
            paths: vec![
                (
                    vec![brepl_cfg::PathStep {
                        site: BranchId(0),
                        taken: true,
                    }],
                    true,
                ),
                (
                    vec![brepl_cfg::PathStep {
                        site: BranchId(0),
                        taken: false,
                    }],
                    false,
                ),
            ],
            catch_all: true,
        };
        let mut plan = ReplicationPlan::new();
        plan.assign(BranchId(1), BranchMachine::Correlated(machine));
        let program = apply_plan(&m, &plan, &stats).unwrap();
        check_equivalence(&m, &program, "main", &args, &[]).unwrap();
        let diags = brepl_analysis::validate_replication(
            &m,
            &program.module,
            &program.replica_map,
            &program.predictions,
        );
        assert!(
            !brepl_analysis::has_errors(&diags),
            "static validation failed: {diags:?}"
        );
    }

    #[test]
    fn provenance_maps_copies_to_original() {
        let m = alternating_module();
        let trace = Sim::new(&m, RunConfig::default())
            .unwrap()
            .run("main", &[Value::Int(20)])
            .unwrap()
            .trace;
        let mut plan = ReplicationPlan::new();
        plan.assign(BranchId(0), BranchMachine::Loop(flip_flop()));
        let program = apply_plan(&m, &plan, &trace.stats()).unwrap();
        // Two copies of site 0 exist; every provenance entry is 0 or 1.
        let zeros = program
            .provenance
            .iter()
            .filter(|&&p| p == BranchId(0))
            .count();
        assert_eq!(zeros, 2);
        assert_eq!(program.provenance.len(), program.module.branch_count());
    }

    #[test]
    fn unknown_site_rejected() {
        let m = alternating_module();
        let trace = Sim::new(&m, RunConfig::default())
            .unwrap()
            .run("main", &[Value::Int(4)])
            .unwrap()
            .trace;
        let mut plan = ReplicationPlan::new();
        plan.assign(BranchId(99), BranchMachine::Loop(flip_flop()));
        assert_eq!(
            apply_plan(&m, &plan, &trace.stats()).unwrap_err(),
            ReplicateError::UnknownBranch(BranchId(99))
        );
    }

    #[test]
    fn non_loop_branch_rejected_for_loop_machine() {
        let mut b = FunctionBuilder::new("main", 1);
        let x = b.param(0);
        let t = b.new_block();
        let e = b.new_block();
        let c = b.gt(x.into(), Operand::imm(0));
        b.br(c, t, e);
        b.switch_to(t);
        b.ret(None);
        b.switch_to(e);
        b.ret(None);
        let mut m = Module::new();
        m.push_function(b.finish());
        let trace = Sim::new(&m, RunConfig::default())
            .unwrap()
            .run("main", &[Value::Int(1)])
            .unwrap()
            .trace;
        let mut plan = ReplicationPlan::new();
        plan.assign(BranchId(0), BranchMachine::Loop(flip_flop()));
        assert_eq!(
            apply_plan(&m, &plan, &trace.stats()).unwrap_err(),
            ReplicateError::NotInLoop(BranchId(0))
        );
    }
}
