//! Live-register analysis (backward, may).
//!
//! A register is *live* at a point when some path from that point reads it
//! before writing it. The IR is non-SSA, so this is the classic bit-vector
//! problem: per-block `use` (read before any write in the block, including
//! the terminator's condition or return operand) and `def` sets, solved
//! backward with a union meet and an empty fact at function exits.

use brepl_cfg::Cfg;
use brepl_ir::{Function, Reg, Term};

use crate::bitset::BitSet;
use crate::solver::{solve, Direction, GenKill, Meet};

/// Per-block liveness facts.
#[derive(Clone, Debug)]
pub struct Liveness {
    /// Registers live at each block's entry.
    pub live_in: Vec<BitSet>,
    /// Registers live at each block's exit.
    pub live_out: Vec<BitSet>,
}

impl Liveness {
    /// Registers live at the entry of `b`.
    pub fn live_in(&self, b: brepl_ir::BlockId) -> &BitSet {
        &self.live_in[b.index()]
    }
}

/// Registers read by a terminator (a branch condition or return operand).
pub fn term_uses(term: &Term, mut f: impl FnMut(Reg)) {
    match term {
        Term::Br { cond, .. } => {
            if let Some(r) = cond.reg() {
                f(r);
            }
        }
        Term::Ret { value: Some(v) } => {
            if let Some(r) = v.reg() {
                f(r);
            }
        }
        _ => {}
    }
}

/// Computes liveness for `func` over its CFG.
pub fn liveness(func: &Function, cfg: &Cfg) -> Liveness {
    let n_regs = func.n_regs as usize;
    let mut p = GenKill::new(Direction::Backward, Meet::Union, cfg.len(), n_regs);
    for (bid, block) in func.iter_blocks() {
        let gen = &mut p.gen[bid.index()];
        let kill = &mut p.kill[bid.index()];
        for inst in &block.insts {
            inst.for_each_use(|o| {
                if let Some(r) = o.reg() {
                    if !kill.contains(r.index()) {
                        gen.insert(r.index());
                    }
                }
            });
            if let Some(d) = inst.def() {
                kill.insert(d.index());
            }
        }
        let (gen, kill) = (&mut p.gen[bid.index()], &p.kill[bid.index()]);
        term_uses(&block.term, |r| {
            if !kill.contains(r.index()) {
                gen.insert(r.index());
            }
        });
    }
    let sol = solve(cfg, &p);
    Liveness {
        live_in: sol.entry,
        live_out: sol.exit,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use brepl_ir::{BlockId, FunctionBuilder, Operand};

    #[test]
    fn loop_counter_is_live_around_the_loop() {
        // i = 0; while (i < n) i += 1; return i
        let mut b = FunctionBuilder::new("f", 1);
        let n = b.param(0);
        let i = b.reg();
        let head = b.new_block();
        let body = b.new_block();
        let exit = b.new_block();
        b.const_int(i, 0);
        b.jmp(head);
        b.switch_to(head);
        let c = b.lt(i.into(), n.into());
        b.br(c, body, exit);
        b.switch_to(body);
        b.add(i, i.into(), Operand::imm(1));
        b.jmp(head);
        b.switch_to(exit);
        b.ret(Some(i.into()));
        let f = b.finish();
        let cfg = Cfg::new(&f);
        let live = liveness(&f, &cfg);

        // i is live at the head, around the back edge, and into the exit.
        assert!(live.live_in(head).contains(i.index()));
        assert!(live.live_out[body.index()].contains(i.index()));
        assert!(live.live_in(exit).contains(i.index()));
        // n (the param) is live at entry but dead after the loop.
        assert!(live.live_in(BlockId(0)).contains(n.index()));
        assert!(!live.live_in(exit).contains(n.index()));
        // Nothing is live at function exit.
        assert!(live.live_out[exit.index()].is_empty());
    }

    #[test]
    fn block_local_def_masks_upstream_use() {
        // b1 writes x before reading it, so x is not live into b1.
        let mut b = FunctionBuilder::new("f", 0);
        let x = b.reg();
        let next = b.new_block();
        b.const_int(x, 1);
        b.jmp(next);
        b.switch_to(next);
        b.const_int(x, 2);
        b.ret(Some(x.into()));
        let f = b.finish();
        let cfg = Cfg::new(&f);
        let live = liveness(&f, &cfg);
        assert!(!live.live_in(next).contains(x.index()));
        assert!(!live.live_out[0].contains(x.index()));
    }

    #[test]
    fn branch_condition_counts_as_use() {
        let mut b = FunctionBuilder::new("f", 1);
        let x = b.param(0);
        let t = b.new_block();
        b.br(x, t, t);
        b.switch_to(t);
        b.ret(None);
        let f = b.finish();
        let cfg = Cfg::new(&f);
        let live = liveness(&f, &cfg);
        assert!(live.live_in(BlockId(0)).contains(x.index()));
    }
}
