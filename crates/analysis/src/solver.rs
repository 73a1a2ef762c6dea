//! The generic worklist dataflow solver.
//!
//! An analysis implements [`DataflowAnalysis`] (arbitrary meet lattice) or
//! instantiates the ready-made [`GenKill`] engine (bit-vector problems:
//! transfer `out = gen ∪ (in − kill)` with a union or intersection meet).
//! [`solve`] runs the classic iterative worklist algorithm over a
//! [`Cfg`], seeding the worklist in reverse postorder for forward problems
//! and postorder for backward ones, and returns per-block facts at block
//! entry and exit. Unreachable blocks keep the top fact.

use brepl_cfg::{postorder, reverse_postorder, Cfg};
use brepl_ir::BlockId;

use crate::bitset::BitSet;

/// Which way facts flow.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Direction {
    /// Facts flow along CFG edges (e.g. reaching definitions).
    Forward,
    /// Facts flow against CFG edges (e.g. liveness).
    Backward,
}

/// A dataflow problem over an arbitrary meet semilattice.
pub trait DataflowAnalysis {
    /// The lattice element attached to each program point.
    type Fact: Clone + PartialEq;

    /// Which way facts flow.
    fn direction(&self) -> Direction;

    /// The fact at the boundary: function entry for forward problems,
    /// every function exit (`ret` terminator) for backward problems.
    fn boundary_fact(&self) -> Self::Fact;

    /// The identity of the meet (the optimistic initial fact).
    fn top_fact(&self) -> Self::Fact;

    /// `acc = acc ⊓ other`; returns true when `acc` changed.
    fn meet_into(&self, acc: &mut Self::Fact, other: &Self::Fact) -> bool;

    /// The block transfer function, applied to the fact flowing *into* the
    /// block (at its entry for forward problems, at its exit for backward
    /// ones).
    fn transfer(&self, block: BlockId, input: &Self::Fact) -> Self::Fact;
}

/// Per-block fixpoint facts produced by [`solve`].
#[derive(Clone, Debug)]
pub struct DataflowSolution<F> {
    /// The fact holding at each block's entry.
    pub entry: Vec<F>,
    /// The fact holding at each block's exit.
    pub exit: Vec<F>,
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

/// The default step budget for a CFG with `n_blocks` blocks.
///
/// Every in-crate analysis is a monotone bit-vector problem that converges
/// in at most `blocks × lattice-height` block-processings, far below this
/// bound — the budget exists so an adversarial [`DataflowAnalysis`]
/// implementation (a non-monotone transfer, an unbounded lattice) makes
/// [`solve`] terminate with `converged: false` instead of spinning forever.
pub fn default_solve_budget(n_blocks: usize) -> u64 {
    (n_blocks as u64).saturating_mul(1024).max(1 << 16)
}

/// Runs the worklist algorithm for `analysis` over `cfg` to a fixpoint.
///
/// Termination requires the usual conditions: a finite-height lattice and a
/// monotone transfer function. All analyses in this crate satisfy both; as
/// a backstop, iteration is capped at [`default_solve_budget`] steps.
pub fn solve<A: DataflowAnalysis>(cfg: &Cfg, analysis: &A) -> DataflowSolution<A::Fact> {
    solve_metered(cfg, analysis, default_solve_budget(cfg.len())).0
}

/// [`solve`] with an explicit step budget, reporting whether the worklist
/// actually drained. Each worklist pop costs one step; when `max_steps`
/// runs out the queue is abandoned and `converged` is false.
fn solve_metered<A: DataflowAnalysis>(
    cfg: &Cfg,
    analysis: &A,
    max_steps: u64,
) -> (DataflowSolution<A::Fact>, SolveStats) {
    let n = cfg.len();
    let forward = analysis.direction() == Direction::Forward;
    let mut entry = vec![analysis.top_fact(); n];
    let mut exit = vec![analysis.top_fact(); n];

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

    let mut steps = 0u64;
    let mut converged = true;
    while let Some(b) = queue.pop_front() {
        if steps >= max_steps {
            converged = false;
            break;
        }
        steps += 1;
        queued[b.index()] = false;
        let i = b.index();

        // Meet the facts flowing into this block.
        let mut incoming = analysis.top_fact();
        if forward {
            if b == cfg.entry() {
                analysis.meet_into(&mut incoming, &analysis.boundary_fact());
            }
            for &p in cfg.preds(b) {
                analysis.meet_into(&mut incoming, &exit[p.index()]);
            }
        } else {
            if cfg.succs(b).is_empty() {
                analysis.meet_into(&mut incoming, &analysis.boundary_fact());
            }
            for &s in cfg.succs(b) {
                analysis.meet_into(&mut incoming, &entry[s.index()]);
            }
        }

        let outgoing = analysis.transfer(b, &incoming);
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

    (
        DataflowSolution { entry, exit },
        SolveStats { steps, converged },
    )
}

/// The meet operator of a bit-vector problem.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Meet {
    /// May-analysis: a fact holds if it holds on *some* path (top = ∅).
    Union,
    /// Must-analysis: a fact holds if it holds on *every* path (top = full).
    Intersect,
}

/// A concrete gen/kill bit-vector problem, ready to hand to [`solve`]:
/// `transfer(b, in) = gen[b] ∪ (in − kill[b])`.
#[derive(Clone, Debug)]
pub struct GenKill {
    /// Flow direction.
    pub direction: Direction,
    /// Meet operator (determines the top fact).
    pub meet: Meet,
    /// The fact at the boundary (entry or exits, per direction).
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
}

impl DataflowAnalysis for GenKill {
    type Fact = BitSet;

    fn direction(&self) -> Direction {
        self.direction
    }

    fn boundary_fact(&self) -> BitSet {
        self.boundary.clone()
    }

    fn top_fact(&self) -> BitSet {
        match self.meet {
            Meet::Union => BitSet::new_empty(self.domain),
            Meet::Intersect => BitSet::new_full(self.domain),
        }
    }

    fn meet_into(&self, acc: &mut BitSet, other: &BitSet) -> bool {
        match self.meet {
            Meet::Union => acc.union_with(other),
            Meet::Intersect => acc.intersect_with(other),
        }
    }

    fn transfer(&self, block: BlockId, input: &BitSet) -> BitSet {
        let mut out = input.clone();
        out.subtract(&self.kill[block.index()]);
        out.union_with(&self.gen[block.index()]);
        out
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
    fn budget_exhaustion_is_reported_not_hung() {
        let f = looped();
        let cfg = Cfg::new(&f);
        let mut p = GenKill::new(Direction::Forward, Meet::Union, cfg.len(), 1);
        p.gen[0].insert(0);
        // One step cannot drain a 3-block worklist.
        let (_, stats) = solve_metered(&cfg, &p, 1);
        assert_eq!(stats.steps, 1);
        assert!(!stats.converged);
        // A generous budget converges and reports so.
        let (sol, stats) = solve_metered(&cfg, &p, default_solve_budget(cfg.len()));
        assert!(stats.converged);
        assert!(stats.steps >= cfg.len() as u64);
        assert!(sol.exit[2].contains(0));
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
