//! Dead-block removal after rewiring — the paper's Figure 1 discards the
//! replicas "2b" and "3a" because no path leads to them. Reachability
//! is `Cfg::reachable`, the same computation the `BR001` lint uses, so
//! "cleanup removed it" and "the validator would flag it" can never
//! disagree.

use brepl_cfg::Cfg;
use brepl_ir::{BlockId, Function};

/// Removes blocks unreachable from the entry and compacts the block list.
///
/// Returns the remapping `old block id -> new block id` (`None` for
/// removed blocks).
pub(super) fn remove_unreachable(func: &mut Function) -> Vec<Option<BlockId>> {
    let n = func.blocks.len();
    let reachable = Cfg::new(func).reachable();
    let mut map: Vec<Option<BlockId>> = vec![None; n];
    let mut next = 0u32;
    for i in 0..n {
        if reachable[i] {
            map[i] = Some(BlockId(next));
            next += 1;
        }
    }
    // Compact and rewrite.
    let mut new_blocks = Vec::with_capacity(next as usize);
    for (i, block) in std::mem::take(&mut func.blocks).into_iter().enumerate() {
        if !reachable[i] {
            continue;
        }
        let mut block = block;
        block
            .term
            .map_successors(|t| map[t.index()].expect("successor of reachable block is reachable"));
        new_blocks.push(block);
    }
    func.blocks = new_blocks;
    func.entry = map[func.entry.index()].expect("entry is reachable");
    map
}

#[cfg(test)]
mod tests {
    use super::*;
    use brepl_analysis::{lint_module, DiagCode};
    use brepl_ir::{FunctionBuilder, Module, Operand};

    #[test]
    fn removes_and_remaps() {
        let mut b = FunctionBuilder::new("f", 1);
        let x = b.param(0);
        let dead = b.new_block();
        let live = b.new_block();
        let end = b.new_block();
        let c = b.gt(x.into(), Operand::imm(0));
        b.br(c, live, end);
        b.switch_to(dead);
        b.jmp(end);
        b.switch_to(live);
        b.jmp(end);
        b.switch_to(end);
        b.ret(None);
        let mut f = b.finish();
        assert_eq!(f.blocks.len(), 4);
        let map = remove_unreachable(&mut f);
        assert_eq!(f.blocks.len(), 3);
        assert_eq!(map[1], None, "dead block removed");
        assert_eq!(map[0], Some(BlockId(0)));
        assert_eq!(map[2], Some(BlockId(1)));
        assert_eq!(map[3], Some(BlockId(2)));
        // Terminators remapped: entry branch now targets 1 and 2.
        let succs: Vec<_> = f.block(BlockId(0)).term.successors().collect();
        assert_eq!(succs, vec![BlockId(1), BlockId(2)]);
    }

    #[test]
    fn post_cleanup_has_zero_br001() {
        // After cleanup the BR001 lint (unreachable block) must be silent —
        // the lint and the cleanup share the same reachability analysis.
        let mut b = FunctionBuilder::new("f", 1);
        let x = b.param(0);
        let dead = b.new_block();
        let dead2 = b.new_block();
        let end = b.new_block();
        let c = b.gt(x.into(), Operand::imm(0));
        b.br(c, end, end);
        b.switch_to(dead);
        b.jmp(dead2);
        b.switch_to(dead2);
        b.jmp(dead);
        b.switch_to(end);
        b.ret(None);
        let mut f = b.finish();
        let br001 = |f: &Function| {
            let mut m = Module::new();
            m.push_function(f.clone());
            lint_module(&m)
                .iter()
                .filter(|d| d.code == DiagCode::UnreachableReplica)
                .count()
        };
        assert_eq!(br001(&f), 2);
        remove_unreachable(&mut f);
        assert_eq!(br001(&f), 0);
    }

    #[test]
    fn fully_reachable_is_identity() {
        let mut b = FunctionBuilder::new("f", 0);
        let next = b.new_block();
        b.jmp(next);
        b.switch_to(next);
        b.ret(None);
        let mut f = b.finish();
        let map = remove_unreachable(&mut f);
        assert_eq!(map, vec![Some(BlockId(0)), Some(BlockId(1))]);
        assert_eq!(f.blocks.len(), 2);
    }
}
