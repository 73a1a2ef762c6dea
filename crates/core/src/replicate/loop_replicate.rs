//! Loop replication (§4–§5, Figure 1 of the paper): one copy of the loop
//! body per state of the branch prediction state machine, with the
//! replicated branch's edges wired to the successor *states'* copies so the
//! machine state lives in the program counter.
//!
//! Several improved branches in the same loop multiply the state count
//! (the paper: "if branches are in the same loop, the number of states
//! must be multiplied"), which we realize directly with a product state
//! space.

use std::collections::BTreeSet;

use brepl_ir::{BlockId, Function};

use super::Replication;
use crate::machine::StateMachine;

/// Why a loop could not be replicated.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(super) enum LoopReplicateError {
    /// A planned branch block is not inside the given loop.
    BranchNotInLoop(BlockId),
    /// The product state space exceeds the configured cap.
    TooManyStates {
        /// The product of machine sizes requested.
        requested: usize,
        /// The configured cap.
        cap: usize,
    },
    /// No machines were supplied.
    NoMachines,
}

impl std::fmt::Display for LoopReplicateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LoopReplicateError::BranchNotInLoop(b) => {
                write!(f, "branch block {b} is not inside the loop")
            }
            LoopReplicateError::TooManyStates { requested, cap } => {
                write!(f, "product state space {requested} exceeds cap {cap}")
            }
            LoopReplicateError::NoMachines => write!(f, "no machines supplied"),
        }
    }
}

impl std::error::Error for LoopReplicateError {}

/// Hard cap on the product state space of one loop; beyond this the code
/// growth is out of the range the paper explores (its plots stop around
/// code-size factor 5).
pub const MAX_PRODUCT_STATES: usize = 512;

/// Replicates `loop_blocks` of `func` with the product of `machines`, one
/// machine per improved branch (`(branch block, machine)` pairs).
///
/// The result logs every `(original loop block, copy)` the non-initial
/// product states add, and pins each copy of a controlled branch to the
/// prediction of its state.
///
/// External entries into the loop keep flowing to the original blocks, so
/// the original copy must represent the initial product state — which it
/// does, because every machine's initial state indexes the identity copy.
///
/// The caller is responsible for running
/// [`remove_unreachable`](super::cleanup::remove_unreachable) afterwards
/// (unreachable state copies are expected — see Figure 1) and for
/// renumbering branch sites at the module level.
///
/// # Errors
///
/// Returns a [`LoopReplicateError`] when a branch lies outside the loop or
/// the product space exceeds [`MAX_PRODUCT_STATES`].
pub(super) fn replicate_loop(
    func: &mut Function,
    loop_blocks: &BTreeSet<BlockId>,
    machines: &[(BlockId, &StateMachine)],
) -> Result<Replication, LoopReplicateError> {
    if machines.is_empty() {
        return Err(LoopReplicateError::NoMachines);
    }
    for &(b, _) in machines {
        if !loop_blocks.contains(&b) {
            return Err(LoopReplicateError::BranchNotInLoop(b));
        }
    }
    let dims: Vec<usize> = machines.iter().map(|(_, m)| m.len()).collect();
    let product: usize = dims.iter().product();
    if product > MAX_PRODUCT_STATES {
        return Err(LoopReplicateError::TooManyStates {
            requested: product,
            cap: MAX_PRODUCT_STATES,
        });
    }

    // Product-state indexing: mixed-radix over the per-machine states.
    let encode = |components: &[usize]| -> usize {
        let mut s = 0;
        for (i, &c) in components.iter().enumerate() {
            s = s * dims[i] + c;
        }
        s
    };
    let initial: Vec<usize> = machines.iter().map(|(_, m)| m.initial()).collect();
    let initial_idx = encode(&initial);
    let decode = |mut s: usize| -> Vec<usize> {
        let mut out = vec![0; dims.len()];
        for i in (0..dims.len()).rev() {
            out[i] = s % dims[i];
            s /= dims[i];
        }
        out
    };

    // Allocate copies: the initial product state is the original blocks;
    // every other state gets fresh clones appended at the end.
    let loop_list: Vec<BlockId> = loop_blocks.iter().copied().collect();
    let mut copy_of = vec![vec![BlockId(0); loop_list.len()]; product];
    let mut copies = Vec::with_capacity((product - 1) * loop_list.len());
    // `s` is the product-state index, a semantic quantity, not just a
    // position in `copy_of`.
    #[allow(clippy::needless_range_loop)]
    for s in 0..product {
        for (li, &orig) in loop_list.iter().enumerate() {
            if s == initial_idx {
                copy_of[s][li] = orig;
            } else {
                let id = BlockId::from_index(func.blocks.len());
                let cloned = func.block(orig).clone();
                func.blocks.push(cloned);
                copy_of[s][li] = id;
                copies.push((orig, id));
            }
        }
    }
    let loop_index = |b: BlockId| loop_list.iter().position(|&x| x == b);

    // Rewire every copy.
    let mut pins = Vec::new();
    for s in 0..product {
        let comps = decode(s);
        for (li, &orig) in loop_list.iter().enumerate() {
            let this = copy_of[s][li];
            // Which machine (if any) owns this block's branch?
            let owner = machines.iter().position(|&(bb, _)| bb == orig);
            if let Some(mi) = owner {
                let machine = machines[mi].1;
                pins.push((this, machine.states()[comps[mi]].predict));
            }
            let term = &mut func.blocks[this.index()].term;
            // Compute the taken/not-taken successor states.
            let succ_state = |taken: bool| -> usize {
                match owner {
                    None => s,
                    Some(mi) => {
                        let mut c = comps.clone();
                        c[mi] = machines[mi].1.next(comps[mi], taken);
                        encode(&c)
                    }
                }
            };
            match term {
                brepl_ir::Term::Br { then_, else_, .. } => {
                    let retarget = |t: BlockId, taken: bool, copy_of: &Vec<Vec<BlockId>>| {
                        match loop_index(t) {
                            Some(ti) => copy_of[succ_state(taken)][ti],
                            None => t,
                        }
                    };
                    let new_then = retarget(*then_, true, &copy_of);
                    let new_else = retarget(*else_, false, &copy_of);
                    *then_ = new_then;
                    *else_ = new_else;
                }
                brepl_ir::Term::Jmp { target } => {
                    if let Some(ti) = loop_index(*target) {
                        *target = copy_of[s][ti];
                    }
                }
                brepl_ir::Term::Ret { .. } => {}
            }
        }
    }

    Ok(Replication { copies, pins })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::MachineState;
    use crate::pattern::HistPattern;
    use brepl_cfg::{Cfg, DomTree, LoopForest};
    use brepl_ir::{FunctionBuilder, Module, Operand};
    use brepl_sim::{Machine as Sim, RunConfig};

    /// The paper's Figure 1 setting: a loop with an alternating intra-loop
    /// branch. main() sums f(i) over i in 0..200 where the branch tests
    /// i % 2.
    fn alternating_loop_module() -> Module {
        let mut b = FunctionBuilder::new("main", 0);
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
        let c2 = b.lt(i.into(), Operand::imm(200));
        b.br(c2, head, exit);
        b.switch_to(exit);
        b.out(acc.into());
        b.ret(Some(acc.into()));
        let mut m = Module::new();
        m.push_function(b.finish());
        m
    }

    fn two_state_machine() -> StateMachine {
        // {0 -> predict taken, 1 -> predict not taken}: the alternating
        // branch i%2==0 is taken on even i; after taken (state 1) the next
        // is odd -> not taken.
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
    fn figure_1_replication_preserves_semantics_and_predicts_perfectly() {
        let module = alternating_loop_module();
        let original = Sim::new(&module, RunConfig::default())
            .unwrap()
            .run("main", &[])
            .unwrap();

        let mut replicated = module.clone();
        let fid = replicated.function_by_name("main").unwrap();
        let func = replicated.function_mut(fid);
        let cfg = Cfg::new(func);
        let dom = DomTree::new(&cfg);
        let forest = LoopForest::new(&cfg, &dom);
        assert_eq!(forest.loops().len(), 1);
        let loop_blocks = forest.loops()[0].blocks.clone();
        let machine = two_state_machine();
        let branch_block = BlockId(1); // head holds the alternating branch
        let info = replicate_loop(func, &loop_blocks, &[(branch_block, &machine)]).unwrap();
        // One non-initial state: one copy of each loop block.
        assert_eq!(info.copies.len(), loop_blocks.len());
        assert_eq!(info.pins.len(), 2);
        super::super::cleanup::remove_unreachable(func);
        replicated.renumber_branches();
        replicated.verify().unwrap();

        // Semantics preserved.
        let transformed = Sim::new(&replicated, RunConfig::default())
            .unwrap()
            .run("main", &[])
            .unwrap();
        assert_eq!(original.result, transformed.result);
        assert_eq!(original.trace.len(), transformed.trace.len());

        // Per-site profile prediction on the replicated program is now
        // nearly perfect: each copy of the alternating branch sees a single
        // direction, and only the loop's final exit can still miss.
        let original_stats = original.trace.stats();
        let transformed_stats = transformed.trace.stats();
        let orig_wrong: u64 = original_stats
            .iter_executed()
            .map(|(_, c)| c.minority_count())
            .sum();
        let new_wrong: u64 = transformed_stats
            .iter_executed()
            .map(|(_, c)| c.minority_count())
            .sum();
        assert!(orig_wrong >= 100, "alternation defeats plain profile");
        assert!(new_wrong <= 1, "replication leaves only the exit miss");
        // Both copies of the alternating branch execute and are pure.
        let pure_100: usize = transformed_stats
            .iter_executed()
            .filter(|(_, c)| c.total() == 100 && c.minority_count() == 0)
            .count();
        assert!(pure_100 >= 2);
    }

    #[test]
    fn product_replication_of_two_branches() {
        // Replicate both the alternating branch (2 states) and the latch
        // (2-state chain) -> 4 product states.
        let module = alternating_loop_module();
        let original = Sim::new(&module, RunConfig::default())
            .unwrap()
            .run("main", &[])
            .unwrap();
        let mut replicated = module.clone();
        let fid = replicated.function_by_name("main").unwrap();
        let func = replicated.function_mut(fid);
        let cfg = Cfg::new(func);
        let dom = DomTree::new(&cfg);
        let forest = LoopForest::new(&cfg, &dom);
        let loop_blocks = forest.loops()[0].blocks.clone();
        let m1 = two_state_machine();
        let m2 = two_state_machine();
        let info =
            replicate_loop(func, &loop_blocks, &[(BlockId(1), &m1), (BlockId(4), &m2)]).unwrap();
        assert_eq!(info.copies.len(), 3 * loop_blocks.len());
        super::super::cleanup::remove_unreachable(func);
        replicated.renumber_branches();
        replicated.verify().unwrap();
        let transformed = Sim::new(&replicated, RunConfig::default())
            .unwrap()
            .run("main", &[])
            .unwrap();
        assert_eq!(original.result, transformed.result);
        assert_eq!(original.trace.len(), transformed.trace.len());
    }

    #[test]
    fn branch_outside_loop_rejected() {
        let module = alternating_loop_module();
        let mut m = module.clone();
        let fid = m.function_by_name("main").unwrap();
        let func = m.function_mut(fid);
        let cfg = Cfg::new(func);
        let dom = DomTree::new(&cfg);
        let forest = LoopForest::new(&cfg, &dom);
        let loop_blocks = forest.loops()[0].blocks.clone();
        let machine = two_state_machine();
        let err = replicate_loop(func, &loop_blocks, &[(BlockId(0), &machine)]).unwrap_err();
        assert_eq!(err, LoopReplicateError::BranchNotInLoop(BlockId(0)));
    }

    #[test]
    fn state_cap_enforced() {
        let module = alternating_loop_module();
        let mut m = module.clone();
        let fid = m.function_by_name("main").unwrap();
        let func = m.function_mut(fid);
        let cfg = Cfg::new(func);
        let dom = DomTree::new(&cfg);
        let forest = LoopForest::new(&cfg, &dom);
        let loop_blocks = forest.loops()[0].blocks.clone();
        // A 1024-state machine via repeated product of 2-state machines is
        // simulated by asking for 10 copies of the same branch... instead
        // build one machine with too many states cheaply.
        let machine = two_state_machine();
        let machines: Vec<(BlockId, &StateMachine)> =
            (0..10).map(|_| (BlockId(1), &machine)).collect();
        let err = replicate_loop(func, &loop_blocks, &machines).unwrap_err();
        assert!(matches!(err, LoopReplicateError::TooManyStates { .. }));
    }
}
