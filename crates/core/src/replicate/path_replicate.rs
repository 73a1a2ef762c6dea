//! Path replication for correlated branches (§4.3): tail duplication in
//! the style of Mueller & Whalley, except that the goal is to *encode the
//! incoming decision path in the program counter* rather than to remove
//! jumps.
//!
//! [`split_by_paths`] duplicates a block (recursively, up to a depth) so
//! that every copy is reached through a unique chain of predecessor
//! blocks. Each copy of a correlated branch then corresponds to one path
//! state of its [`crate::correlated::CorrelatedMachine`], and the per-copy
//! static prediction is the machine's prediction for that path.

use brepl_ir::{BlockId, BranchId, Function, Term};

use super::Replication;
use crate::correlated::CorrelatedMachine;

/// Collects `(pred block, is_taken_edge_slot)` pairs — one entry per
/// incoming edge of `block`.
fn incoming_edges(func: &Function, block: BlockId) -> Vec<(BlockId, usize)> {
    let mut edges = Vec::new();
    for (bid, b) in func.iter_blocks() {
        for (slot, succ) in b.term.successors().enumerate() {
            if succ == block {
                edges.push((bid, slot));
            }
        }
    }
    edges
}

fn retarget_edge(func: &mut Function, pred: BlockId, slot: usize, new_target: BlockId) {
    let term = &mut func.block_mut(pred).term;
    let mut i = 0;
    term.map_successors(|t| {
        let out = if i == slot { new_target } else { t };
        i += 1;
        out
    });
}

/// Duplicates `block` (and, recursively, its predecessors) so that every
/// copy of `block` has a unique predecessor chain of length up to `depth`.
/// The entry block and blocks on a cycle back to themselves are never
/// split. Returns every `(source, clone)` pair in push order; the copies
/// of `block` are `block` itself and its clones ([`copies_of`]).
///
/// The caller must renumber branch sites afterwards (copies carry stale
/// ids, which is what provenance tracking expects).
fn split_by_paths(func: &mut Function, block: BlockId, depth: usize) -> Vec<(BlockId, BlockId)> {
    let mut clones = Vec::new();
    split_rec(func, block, depth, &mut Vec::new(), &mut clones);
    clones
}

/// `block` and its clones in `log`, the original first. `block` is on the
/// recursion stack while its predecessors split, so only the top level of
/// [`split_by_paths`] clones it.
fn copies_of(block: BlockId, log: &[(BlockId, BlockId)]) -> impl Iterator<Item = BlockId> + '_ {
    std::iter::once(block).chain(
        log.iter()
            .filter(move |&&(src, _)| src == block)
            .map(|&(_, clone)| clone),
    )
}

fn split_rec(
    func: &mut Function,
    block: BlockId,
    depth: usize,
    stack: &mut Vec<BlockId>,
    clones: &mut Vec<(BlockId, BlockId)>,
) {
    if depth == 0 || block == func.entry || stack.contains(&block) {
        return;
    }
    stack.push(block);
    // First give each predecessor a unique chain (so the edges arriving
    // here already encode deeper history). Depth counts *decisions*:
    // walking back through a jump-only predecessor does not consume it,
    // matching how `PredecessorPaths::enumerate` counts path length.
    let preds: Vec<BlockId> = {
        let mut p: Vec<BlockId> = incoming_edges(func, block)
            .into_iter()
            .map(|(b, _)| b)
            .collect();
        p.sort();
        p.dedup();
        p
    };
    for p in preds {
        if p != block {
            let pred_depth = match func.block(p).term {
                Term::Br { .. } => depth - 1,
                _ => depth,
            };
            split_rec(func, p, pred_depth, stack, clones);
        }
    }
    stack.pop();

    // ... then give each incoming edge its own copy of this block.
    let edges = incoming_edges(func, block);
    for &(pred, slot) in edges.iter().skip(1) {
        let clone = func.block(block).clone();
        let id = BlockId::from_index(func.blocks.len());
        func.blocks.push(clone);
        clones.push((block, id));
        retarget_edge(func, pred, slot, id);
    }
}

/// Walks backwards from `block` along unique-predecessor chains, collecting
/// up to `depth` branch decisions `(site, taken)` oldest-first — the
/// decision path a copy produced by [`split_by_paths`] is reached through.
fn decision_path(func: &Function, block: BlockId, depth: usize) -> Vec<(BranchId, bool)> {
    let mut path = Vec::new();
    let mut cur = block;
    let mut steps = 0usize;
    while path.len() < depth && steps < 128 {
        steps += 1;
        let edges = incoming_edges(func, cur);
        // Unique predecessor blocks only; several parallel edges from the
        // same branch (then == else) are fine for walking but ambiguous
        // for direction, handled below.
        let mut preds: Vec<BlockId> = edges.iter().map(|&(b, _)| b).collect();
        preds.sort();
        preds.dedup();
        if preds.len() != 1 || preds[0] == cur {
            break;
        }
        let p = preds[0];
        if let Term::Br { then_, site, .. } = func.block(p).term {
            path.push((site, then_ == cur));
        }
        cur = p;
    }
    path.reverse();
    path
}

/// Applies a correlated machine to `func`: splits the branch's block to
/// the machine's maximum path depth, logs every clone the split makes
/// and pins every copy of the branch to the static prediction of the
/// matching path state.
pub(super) fn replicate_correlated(
    func: &mut Function,
    branch_block: BlockId,
    machine: &CorrelatedMachine,
) -> Replication {
    let depth = machine
        .paths
        .iter()
        .map(|(p, _)| p.len())
        .max()
        .unwrap_or(0);
    if depth == 0 {
        return Replication {
            copies: Vec::new(),
            pins: vec![(branch_block, machine.catch_all)],
        };
    }
    let copies = split_by_paths(func, branch_block, depth);
    let pins = copies_of(branch_block, &copies)
        .map(|copy| (copy, machine.predict(&decision_path(func, copy, depth))))
        .collect();
    Replication { copies, pins }
}

#[cfg(test)]
mod tests {
    use super::*;
    use brepl_cfg::PathStep;
    use brepl_ir::{FunctionBuilder, Module, Operand, Value};
    use brepl_sim::{Machine as Sim, RunConfig};

    /// Diamond into a join holding a correlated branch:
    /// b0: br x>0 -> b1 | b2; both jmp b3; b3: br x>0 again (copier).
    fn correlated_module() -> Module {
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
        m
    }

    #[test]
    fn split_creates_copy_per_path() {
        let mut m = correlated_module();
        let fid = m.function_by_name("main").unwrap();
        let func = m.function_mut(fid);
        let clones = split_by_paths(func, BlockId(3), 1);
        assert_eq!(copies_of(BlockId(3), &clones).count(), 2);
        assert_eq!(clones.len(), 1);
        m.renumber_branches();
        m.verify().unwrap();
        // Each copy has exactly one predecessor now.
        let func = m.function(fid);
        for &(bid, _) in [(BlockId(3), 0usize), (BlockId::from_index(6), 0)].iter() {
            let preds = incoming_edges(func, bid);
            assert_eq!(preds.len(), 1, "copy {bid} should have one pred");
        }
    }

    #[test]
    fn decision_paths_identify_copies() {
        let mut m = correlated_module();
        let fid = m.function_by_name("main").unwrap();
        let func = m.function_mut(fid);
        let clones = split_by_paths(func, BlockId(3), 2);
        let func = m.function(fid);
        let mut dirs = Vec::new();
        for c in copies_of(BlockId(3), &clones) {
            let path = decision_path(func, c, 2);
            assert_eq!(path.len(), 1, "one decision precedes the join");
            dirs.push(path[0].1);
        }
        dirs.sort();
        assert_eq!(dirs, vec![false, true]);
    }

    #[test]
    fn replicate_correlated_annotates_and_preserves_semantics() {
        let m = correlated_module();
        let machine = CorrelatedMachine {
            paths: vec![
                (
                    vec![PathStep {
                        site: BranchId(0),
                        taken: true,
                    }],
                    true,
                ),
                (
                    vec![PathStep {
                        site: BranchId(0),
                        taken: false,
                    }],
                    false,
                ),
            ],
            catch_all: true,
        };
        let mut transformed = m.clone();
        let fid = transformed.function_by_name("main").unwrap();
        let func = transformed.function_mut(fid);
        let replication = replicate_correlated(func, BlockId(3), &machine);
        assert_eq!(replication.pins.len(), 2);
        assert_eq!(replication.copies.len(), 1);
        // The clone log's source is the split block; the clone id is fresh.
        assert_eq!(replication.copies[0], (BlockId(3), BlockId(6)));
        super::super::cleanup::remove_unreachable(func);
        transformed.renumber_branches();
        transformed.verify().unwrap();

        for &arg in &[5i64, -5, 0, 17] {
            let a = Sim::new(&m, RunConfig::default())
                .unwrap()
                .run("main", &[Value::Int(arg)])
                .unwrap();
            let b = Sim::new(&transformed, RunConfig::default())
                .unwrap()
                .run("main", &[Value::Int(arg)])
                .unwrap();
            assert_eq!(a.result, b.result, "arg {arg}");
        }
        // One copy predicts taken, the other not taken.
        let mut preds: Vec<bool> = replication.pins.iter().map(|&(_, p)| p).collect();
        preds.sort();
        assert_eq!(preds, vec![false, true]);
    }

    #[test]
    fn entry_block_is_never_split() {
        let mut m = correlated_module();
        let fid = m.function_by_name("main").unwrap();
        let func = m.function_mut(fid);
        assert!(split_by_paths(func, BlockId(0), 3).is_empty());
    }

    #[test]
    fn loops_do_not_diverge() {
        // A self-loop feeding a branch: splitting must terminate.
        let mut b = FunctionBuilder::new("main", 1);
        let x = b.param(0);
        let head = b.new_block();
        let after = b.new_block();
        let t = b.new_block();
        b.jmp(head);
        b.switch_to(head);
        let c = b.lt(x.into(), Operand::imm(10));
        b.br(c, head, after);
        b.switch_to(after);
        let c2 = b.gt(x.into(), Operand::imm(5));
        b.br(c2, t, t);
        b.switch_to(t);
        b.ret(None);
        let mut m = Module::new();
        m.push_function(b.finish());
        let fid = m.function_by_name("main").unwrap();
        let func = m.function_mut(fid);
        let _ = split_by_paths(func, BlockId(2), 4);
        m.renumber_branches();
        m.verify().unwrap();
    }
}
