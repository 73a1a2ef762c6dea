//! The worklist solver for gen/kill bit-vector problems.
//!
//! A [`GenKill`] problem has the transfer `out = gen ∪ (in − kill)` and a
//! union or intersection meet. [`solve`] runs the classic iterative
//! worklist algorithm over a [`Cfg`], seeding the worklist in reverse
//! postorder for forward problems and postorder for backward ones, and
//! returns per-block facts at block entry and exit. Unreachable blocks
//! keep the top fact. The transfer is monotone and the lattice finite, so
//! the worklist always drains. [`SolveStats`] and
//! [`default_solve_budget`] serve the step-capped fixpoints elsewhere in
//! the crate (constant propagation and frequency propagation).

use brepl_cfg::{postorder, reverse_postorder, Cfg};
use brepl_ir::BlockId;

use crate::bitset::BitSet;

/// Which way facts flow.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Direction {
    /// Facts flow along CFG edges (e.g. definitely-assigned registers).
    Forward,
    /// Facts flow against CFG edges (e.g. liveness).
    Backward,
}

/// Per-block fixpoint facts produced by [`solve`].
#[derive(Clone, Debug)]
pub struct DataflowSolution {
    /// The fact holding at each block's entry.
    pub entry: Vec<BitSet>,
    /// The fact holding at each block's exit.
    pub exit: Vec<BitSet>,
}

/// Convergence accounting of a step-capped fixpoint run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SolveStats {
    /// Block-processings performed (worklist pops).
    pub steps: u64,
    /// True when the worklist drained — the facts are a true fixpoint.
    /// False when the step budget ran out first; the returned facts are the
    /// last iterate, not a fixpoint, and any client gating correctness on
    /// them must fail closed.
    pub converged: bool,
}

/// The default step budget of a step-capped fixpoint over a CFG with
/// `n_blocks` blocks: generous for any monotone problem of bounded
/// height, and finite, so a fixpoint that fails to converge reports
/// `converged: false` instead of spinning forever.
pub fn default_solve_budget(n_blocks: usize) -> u64 {
    (n_blocks as u64).saturating_mul(1024).max(1 << 16)
}

/// Runs the worklist algorithm for `problem` over `cfg` to its fixpoint.
pub fn solve(cfg: &Cfg, problem: &GenKill) -> DataflowSolution {
    let n = cfg.len();
    let forward = problem.direction == Direction::Forward;
    let top = problem.top();
    let mut entry = vec![top.clone(); n];
    let mut exit = vec![top.clone(); n];

    // Seed in an order that visits definers before users where possible, so
    // most facts converge in one or two sweeps.
    let seed = if forward {
        reverse_postorder(cfg)
    } else {
        postorder(cfg)
    };
    let mut queue: std::collections::VecDeque<BlockId> = seed.into_iter().collect();
    let mut queued = vec![false; n];
    for &b in &queue {
        queued[b.index()] = true;
    }

    while let Some(b) = queue.pop_front() {
        queued[b.index()] = false;
        let i = b.index();

        // Meet the facts flowing into this block.
        let mut incoming = top.clone();
        if forward {
            if b == cfg.entry() {
                problem.meet_into(&mut incoming, &problem.boundary);
            }
            for &p in cfg.preds(b) {
                problem.meet_into(&mut incoming, &exit[p.index()]);
            }
        } else {
            if cfg.succs(b).is_empty() {
                problem.meet_into(&mut incoming, &problem.boundary);
            }
            for &s in cfg.succs(b) {
                problem.meet_into(&mut incoming, &entry[s.index()]);
            }
        }

        let mut outgoing = incoming.clone();
        outgoing.subtract(&problem.kill[i]);
        outgoing.union_with(&problem.gen[i]);
        let (in_slot, out_slot) = if forward {
            (&mut entry[i], &mut exit[i])
        } else {
            (&mut exit[i], &mut entry[i])
        };
        *in_slot = incoming;
        if outgoing != *out_slot {
            *out_slot = outgoing;
            let dependents = if forward { cfg.succs(b) } else { cfg.preds(b) };
            for &d in dependents {
                if !queued[d.index()] {
                    queued[d.index()] = true;
                    queue.push_back(d);
                }
            }
        }
    }

    DataflowSolution { entry, exit }
}

/// The meet operator of a bit-vector problem.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Meet {
    /// May-analysis: a fact holds if it holds on *some* path (top = ∅).
    Union,
    /// Must-analysis: a fact holds if it holds on *every* path (top = full).
    Intersect,
}

/// A gen/kill bit-vector problem, ready to hand to [`solve`]:
/// `transfer(b, in) = gen[b] ∪ (in − kill[b])`.
#[derive(Clone, Debug)]
pub struct GenKill {
    /// Flow direction.
    pub direction: Direction,
    /// Meet operator (determines the top fact).
    pub meet: Meet,
    /// The fact at the boundary: function entry for forward problems,
    /// every function exit (`ret` terminator) for backward problems.
    pub boundary: BitSet,
    /// Per-block generated facts.
    pub gen: Vec<BitSet>,
    /// Per-block killed facts.
    pub kill: Vec<BitSet>,
    domain: usize,
}

impl GenKill {
    /// Builds a gen/kill problem with empty gen/kill sets for `n_blocks`
    /// blocks over a fact universe of `domain` bits. The boundary fact
    /// starts empty; callers fill `gen`, `kill` and `boundary`.
    pub fn new(direction: Direction, meet: Meet, n_blocks: usize, domain: usize) -> Self {
        GenKill {
            direction,
            meet,
            boundary: BitSet::new_empty(domain),
            gen: vec![BitSet::new_empty(domain); n_blocks],
            kill: vec![BitSet::new_empty(domain); n_blocks],
            domain,
        }
    }

    /// The identity of the meet: the optimistic initial fact.
    fn top(&self) -> BitSet {
        match self.meet {
            Meet::Union => BitSet::new_empty(self.domain),
            Meet::Intersect => BitSet::new_full(self.domain),
        }
    }

    /// `acc = acc ⊓ other`.
    fn meet_into(&self, acc: &mut BitSet, other: &BitSet) {
        match self.meet {
            Meet::Union => acc.union_with(other),
            Meet::Intersect => acc.intersect_with(other),
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use brepl_ir::{FunctionBuilder, Operand};

    /// b0 -> b1 -> b2, with a back edge b2 -> b1.
    fn looped() -> brepl_ir::Function {
        let mut b = FunctionBuilder::new("f", 1);
        let x = b.param(0);
        let head = b.new_block();
        let exit = b.new_block();
        b.jmp(head);
        b.switch_to(head);
        let c = b.gt(x.into(), Operand::imm(0));
        b.br(c, head, exit);
        b.switch_to(exit);
        b.ret(None);
        b.finish()
    }

    #[test]
    fn forward_union_propagates_through_loop() {
        let f = looped();
        let cfg = Cfg::new(&f);
        // "Fact 0 is generated in the entry block" must reach everything.
        let mut p = GenKill::new(Direction::Forward, Meet::Union, cfg.len(), 1);
        p.gen[0].insert(0);
        let sol = solve(&cfg, &p);
        for b in cfg.blocks() {
            if b != cfg.entry() {
                assert!(sol.entry[b.index()].contains(0), "missing at {b}");
            }
            assert!(sol.exit[b.index()].contains(0), "missing at {b} exit");
        }
    }

    #[test]
    fn forward_intersect_kills_on_any_path() {
        // Diamond where only one arm generates the fact: must-analysis says
        // it does NOT hold at the join.
        let mut b = FunctionBuilder::new("f", 1);
        let x = b.param(0);
        let t = b.new_block();
        let e = b.new_block();
        let j = b.new_block();
        let c = b.gt(x.into(), Operand::imm(0));
        b.br(c, t, e);
        b.switch_to(t);
        b.jmp(j);
        b.switch_to(e);
        b.jmp(j);
        b.switch_to(j);
        b.ret(None);
        let f = b.finish();
        let cfg = Cfg::new(&f);
        let mut p = GenKill::new(Direction::Forward, Meet::Intersect, cfg.len(), 1);
        p.gen[1].insert(0); // only the then-arm
        let sol = solve(&cfg, &p);
        assert!(sol.exit[1].contains(0));
        assert!(!sol.entry[3].contains(0));
    }

    #[test]
    fn backward_reaches_predecessors() {
        let f = looped();
        let cfg = Cfg::new(&f);
        // Fact generated in the exit block flows backward everywhere.
        let mut p = GenKill::new(Direction::Backward, Meet::Union, cfg.len(), 1);
        p.gen[2].insert(0);
        let sol = solve(&cfg, &p);
        assert!(sol.entry[2].contains(0));
        assert!(sol.exit[1].contains(0));
        assert!(sol.entry[0].contains(0));
    }

    #[test]
    fn unreachable_blocks_keep_top() {
        let mut b = FunctionBuilder::new("f", 0);
        let dead = b.new_block();
        b.ret(None);
        b.switch_to(dead);
        b.ret(None);
        let f = b.finish();
        let cfg = Cfg::new(&f);
        let p = GenKill::new(Direction::Forward, Meet::Intersect, cfg.len(), 3);
        let sol = solve(&cfg, &p);
        assert_eq!(sol.entry[1], BitSet::new_full(3));
    }
}
