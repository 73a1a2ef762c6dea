//! Post-replication cleanup in the spirit of Mueller & Whalley's jump
//! elimination: replication leaves chains of jump-only blocks behind
//! (pruned arms, split edges); threading them away shrinks the replicated
//! code without touching any branch site, so the size numbers reported by
//! the pipeline are the ones a real code generator would see.

use brepl_ir::{BlockId, Function, Term};

use super::cleanup::remove_unreachable;

/// What simplification did to the block structure, in enough detail to
/// replay it over the replicator's per-block notes.
#[derive(Clone, Debug, Default)]
pub(super) struct SimplifyTrace {
    /// Straight-line merges `(absorber, donor)` in the order they were
    /// performed: the donor's instruction stream and terminator moved to
    /// the absorber. Replay front to back — an absorber may later donate.
    pub(super) merges: Vec<(BlockId, BlockId)>,
    /// The final unreachable-block cleanup map, indexed by pre-cleanup
    /// block id (block count is unchanged by threading and merging).
    pub(super) cleanup: Vec<Option<BlockId>>,
}

/// Threads edges through empty jump-only blocks and merges straight-line
/// block pairs, then removes unreachable blocks. Conditional branches and
/// their site ids are never touched, so predictions and provenance remain
/// valid.
///
/// Returns the [`SimplifyTrace`]: the replicator replays its merge log
/// over its per-block notes (a merge concatenates the donor's origin
/// chain onto the absorber's and moves the donor's pin there).
pub(super) fn simplify_function_tracked(func: &mut Function) -> SimplifyTrace {
    let mut trace = SimplifyTrace::default();

    // --- 1. Jump threading: resolve chains of empty `jmp` blocks. -------
    let n = func.blocks.len();
    let mut forward: Vec<BlockId> = (0..n).map(BlockId::from_index).collect();
    #[allow(clippy::needless_range_loop)]
    for b in 0..n {
        // Follow the chain from b with cycle protection.
        let mut cur = BlockId::from_index(b);
        let mut hops = 0;
        while hops < n {
            let block = func.block(cur);
            match block.term {
                Term::Jmp { target } if block.insts.is_empty() && target != cur => {
                    cur = target;
                    hops += 1;
                }
                _ => break,
            }
        }
        forward[b] = cur;
    }
    for block in &mut func.blocks {
        block.term.map_successors(|t| forward[t.index()]);
    }
    // The entry may itself be an empty jump chain.
    let fwd_entry = forward[func.entry.index()];
    if fwd_entry != func.entry {
        func.entry = fwd_entry;
    }

    // --- 2. Merge straight-line pairs: `a: ...; jmp b` where b has a
    // single predecessor. -------------------------------------------------
    loop {
        // Count predecessors.
        let n = func.blocks.len();
        let mut pred_count = vec![0usize; n];
        for block in &func.blocks {
            for s in block.term.successors() {
                pred_count[s.index()] += 1;
            }
        }
        let mut merged_any = false;
        for a in 0..n {
            let Term::Jmp { target } = func.blocks[a].term else {
                continue;
            };
            let t = target.index();
            if t == a || pred_count[t] != 1 || target == func.entry {
                continue;
            }
            // Move b's instructions and terminator into a.
            let mut donor_insts = std::mem::take(&mut func.blocks[t].insts);
            let donor_term = func.blocks[t].term.clone();
            func.blocks[a].insts.append(&mut donor_insts);
            func.blocks[a].term = donor_term;
            // Leave b as an unreachable empty return; cleanup removes it.
            func.blocks[t].term = Term::Ret { value: None };
            trace
                .merges
                .push((BlockId::from_index(a), BlockId::from_index(t)));
            merged_any = true;
            break; // recompute predecessor counts from scratch
        }
        if !merged_any {
            break;
        }
    }

    // --- 3. Drop whatever became unreachable. ----------------------------
    trace.cleanup = remove_unreachable(func);
    trace
}

#[cfg(test)]
mod tests {
    use super::*;
    use brepl_ir::{FuncId, FunctionBuilder, Module, Operand, Value};
    use brepl_sim::{Machine, RunConfig};

    /// Builds a function full of jump-only glue blocks.
    fn gluey_module() -> Module {
        let mut b = FunctionBuilder::new("main", 1);
        let x = b.param(0);
        let glue1 = b.new_block();
        let glue2 = b.new_block();
        let work = b.new_block();
        let t = b.new_block();
        let e = b.new_block();
        let tail1 = b.new_block();
        let tail2 = b.new_block();
        b.jmp(glue1);
        b.switch_to(glue1);
        b.jmp(glue2);
        b.switch_to(glue2);
        b.jmp(work);
        b.switch_to(work);
        let c = b.gt(x.into(), Operand::imm(0));
        b.br(c, t, e);
        b.switch_to(t);
        b.jmp(tail1);
        b.switch_to(e);
        b.jmp(tail1);
        b.switch_to(tail1);
        b.jmp(tail2);
        b.switch_to(tail2);
        b.out(x.into());
        b.ret(Some(x.into()));
        let mut m = Module::new();
        m.push_function(b.finish());
        m
    }

    #[test]
    fn threading_and_merging_shrink_glue() {
        let mut m = gluey_module();
        let before = m.size_units();
        let original = Machine::new(&m, RunConfig::default())
            .unwrap()
            .run("main", &[Value::Int(5)])
            .unwrap();
        let trace = simplify_function_tracked(m.function_mut(FuncId(0)));
        m.renumber_branches();
        m.verify().unwrap();
        assert!(
            trace.cleanup.contains(&None),
            "threaded-away glue is removed"
        );
        assert!(m.size_units() < before);
        // Semantics preserved (branch events too).
        let after = Machine::new(&m, RunConfig::default())
            .unwrap()
            .run("main", &[Value::Int(5)])
            .unwrap();
        assert_eq!(original.result, after.result);
        assert_eq!(original.trace.len(), after.trace.len());
        // The whole function collapses to entry + branch arms' merged tail.
        assert!(m.function(FuncId(0)).blocks.len() <= 4);
    }

    #[test]
    fn self_loops_survive() {
        let mut b = FunctionBuilder::new("main", 1);
        let x = b.param(0);
        let head = b.new_block();
        let exit = b.new_block();
        b.jmp(head);
        b.switch_to(head);
        let c = b.lt(x.into(), Operand::imm(3));
        b.br(c, head, exit);
        b.switch_to(exit);
        b.ret(None);
        let mut m = Module::new();
        m.push_function(b.finish());
        let _ = simplify_function_tracked(m.function_mut(FuncId(0)));
        m.renumber_branches();
        m.verify().unwrap();
        assert!(Machine::new(&m, RunConfig::default())
            .unwrap()
            .run("main", &[Value::Int(10)])
            .is_ok());
    }

    #[test]
    fn branch_sites_are_preserved() {
        let mut m = gluey_module();
        let before = m.branch_count();
        let _ = simplify_function_tracked(m.function_mut(FuncId(0)));
        m.renumber_branches();
        assert_eq!(m.branch_count(), before);
    }
}
