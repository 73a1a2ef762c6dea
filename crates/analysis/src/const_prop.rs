//! Sparse conditional constant propagation over the interval domain.
//!
//! A Wegman–Zadeck-style fixpoint per function: block executability and
//! per-register abstract values ([`AbsVal`]) grow together, so a branch
//! whose condition is proved constant marks only the surviving successor
//! executable, and code behind the dead edge contributes nothing to the
//! join. Branch edges additionally *refine* the compared register (the
//! then-edge of `if i < n` knows `i ∈ (-∞, n-1]`), which is what turns a
//! counted loop's exit test into a provable direction.
//!
//! Loops are handled with standard interval widening (a per-block update
//! counter switches the join to [`Interval::widen`] once a block keeps
//! changing), followed by two descending ("narrowing") sweeps with
//! executability frozen, which recover the bounds widening threw away.
//! The whole fixpoint is metered like the generic worklist solver: a
//! function that exhausts [`default_solve_budget`] reports
//! `converged = false` and clients must fail closed (claim nothing).
//!
//! The abstract semantics mirror `brepl-sim` exactly; see
//! [`crate::interval`] for the arithmetic fine print. Two load-bearing
//! facts from the interpreter: non-parameter registers start at `Int(0)`
//! in every frame, and `Ftoi` always produces an integer (it is the
//! identity on integers).

use std::collections::VecDeque;

use brepl_cfg::Cfg;
use brepl_ir::{
    BlockId, CmpOp, FuncId, Function, Inst, Intrinsic, Module, Operand, Reg, Term, Value,
};

use crate::interval::Interval;
use crate::solver::{default_solve_budget, SolveStats};

/// One register's abstract value.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AbsVal {
    /// No value reaches here (unexecuted code).
    Bot,
    /// Definitely an integer, within the interval.
    Int(Interval),
    /// Anything — possibly a float, possibly any integer.
    Any,
}

impl AbsVal {
    /// Normalizing constructor: an empty interval is no value at all.
    fn int(iv: Interval) -> AbsVal {
        if iv.is_empty() {
            AbsVal::Bot
        } else {
            AbsVal::Int(iv)
        }
    }

    /// Least upper bound.
    fn join(&self, other: &AbsVal) -> AbsVal {
        match (self, other) {
            (AbsVal::Bot, x) | (x, AbsVal::Bot) => x.clone(),
            (AbsVal::Int(a), AbsVal::Int(b)) => AbsVal::Int(a.join(b)),
            _ => AbsVal::Any,
        }
    }

    /// Join with widening on the interval component (`old` is the
    /// previous value at a head that keeps changing).
    fn widen(&self, old: &AbsVal) -> AbsVal {
        match (self, old) {
            (AbsVal::Int(new), AbsVal::Int(prev)) => AbsVal::Int(new.join(prev).widen(prev)),
            _ => self.join(old),
        }
    }
}

/// An abstract register file (indexed by [`Reg`]).
pub type Env = Vec<AbsVal>;

/// Per-function result of the fixpoint.
#[derive(Clone, Debug)]
pub struct FuncValues {
    /// Whether each block is abstractly executable. Blocks behind edges
    /// proved dead stay `false` — a *must*-unreachable claim is sound
    /// because executability only ever grows during the fixpoint.
    pub executable: Vec<bool>,
    /// The abstract register file at each executable block's entry
    /// (`None` exactly where `executable` is `false`).
    env_in: Vec<Option<Env>>,
    /// Worklist accounting; `stats.converged == false` means the budget
    /// ran out and **nothing may be claimed** for this function.
    pub stats: SolveStats,
}

impl FuncValues {
    /// Replays the block's instructions from its entry environment and
    /// returns the abstract register file at the terminator, or `None`
    /// for unexecutable blocks or a non-converged function.
    fn term_env(&self, func: &Function, block: BlockId) -> Option<Env> {
        if !self.stats.converged {
            return None;
        }
        let mut env = self.env_in[block.index()].clone()?;
        for inst in &func.block(block).insts {
            transfer_inst(inst, &mut env);
        }
        Some(env)
    }

    /// The abstract value of the block's branch condition at its
    /// terminator (the block replayed from its entry environment, then the
    /// condition operand evaluated), or `None`
    /// when the block is unexecutable, the function did not converge, or
    /// the terminator is not a branch.
    pub fn branch_condition_value(&self, func: &Function, block: BlockId) -> Option<AbsVal> {
        let env = self.term_env(func, block)?;
        match &func.block(block).term {
            Term::Br { cond, .. } => Some(eval_operand(*cond, &env)),
            _ => None,
        }
    }

    /// The entry environment of `block`, if executable.
    pub fn entry_env(&self, block: BlockId) -> Option<&[AbsVal]> {
        self.env_in[block.index()].as_deref()
    }
}

/// Whole-module constant propagation: per-function fixpoints plus a
/// call-graph reachability sweep rooted at `main`.
#[derive(Clone, Debug)]
pub struct ConstProp {
    /// Per-function values, indexed by [`FuncId`].
    pub funcs: Vec<FuncValues>,
    /// Functions reachable from the entry through calls in abstractly
    /// executable blocks. Unreachable functions keep their (sound,
    /// entry-agnostic) per-function values, but every block in them is
    /// additionally known dead at module level.
    pub reachable_funcs: Vec<bool>,
    /// True only if every function's fixpoint converged in budget.
    pub converged: bool,
}

impl ConstProp {
    /// Runs the analysis on `module`.
    ///
    /// Every function is analyzed once with parameters at [`AbsVal::Any`]
    /// (the context-insensitive summary), so the result is sound for any
    /// call site. Reachability then starts from `main` — or from every
    /// function, if there is no `main` — and follows `Call` instructions
    /// in executable blocks only.
    pub fn analyze(module: &Module) -> ConstProp {
        let mut funcs = Vec::with_capacity(module.function_count());
        for (_, f) in module.iter_functions() {
            funcs.push(analyze_function(f));
        }
        let converged = funcs.iter().all(|f| f.stats.converged);

        let mut reachable = vec![false; module.function_count()];
        let mut queue: VecDeque<FuncId> = VecDeque::new();
        match module.function_by_name("main") {
            Some(entry) => {
                reachable[entry.index()] = true;
                queue.push_back(entry);
            }
            None => {
                for (fid, _) in module.iter_functions() {
                    reachable[fid.index()] = true;
                    queue.push_back(fid);
                }
            }
        }
        while let Some(fid) = queue.pop_front() {
            let f = module.function(fid);
            let values = &funcs[fid.index()];
            for (bid, block) in f.iter_blocks() {
                // A non-converged function claims nothing, so treat all
                // its blocks as executable for call discovery.
                if values.stats.converged && !values.executable[bid.index()] {
                    continue;
                }
                for inst in &block.insts {
                    if let Inst::Call { callee, .. } = inst {
                        if let Some(target) = module.function_by_name(callee) {
                            if !reachable[target.index()] {
                                reachable[target.index()] = true;
                                queue.push_back(target);
                            }
                        }
                    }
                }
            }
        }
        ConstProp {
            funcs,
            reachable_funcs: reachable,
            converged,
        }
    }

    /// Is `block` of `fid` executable at module level (function reachable
    /// *and* block executable in its fixpoint)? Non-converged functions
    /// conservatively answer `true` for every block.
    pub fn block_live(&self, fid: FuncId, block: BlockId) -> bool {
        if !self.reachable_funcs[fid.index()] {
            return false;
        }
        let f = &self.funcs[fid.index()];
        !f.stats.converged || f.executable[block.index()]
    }
}

/// Number of changing joins at a block before the join switches to
/// widening. Small enough to terminate fast, large enough that short
/// ascending chains (0 → [0,0] → [0,1] → …) settle without widening.
const WIDEN_AFTER: u32 = 3;

/// Descending sweeps after the widened fixpoint.
const NARROW_SWEEPS: usize = 2;

fn analyze_function(func: &Function) -> FuncValues {
    let cfg = Cfg::new(func);
    let n_blocks = func.blocks.len();
    let n_regs = func.n_regs as usize;
    let budget = default_solve_budget(n_blocks);

    // Entry environment: parameters are caller-controlled, every other
    // register is zero-initialized by the interpreter's frame setup.
    let mut entry_env: Env = Vec::with_capacity(n_regs);
    for r in 0..n_regs {
        if (r as u32) < func.n_params {
            entry_env.push(AbsVal::Any);
        } else {
            entry_env.push(AbsVal::Int(Interval::constant(0)));
        }
    }

    // Widening points: targets of RPO-retreating edges. Every CFG cycle
    // contains such an edge (its minimal-RPO vertex receives one), so
    // widening there alone guarantees termination — and loop *bodies*
    // keep their precise joined envs, which is what lets the descending
    // sweeps recover tight bounds afterwards.
    let order = brepl_cfg::reverse_postorder(&cfg);
    let mut rpo_index = vec![usize::MAX; n_blocks];
    for (i, &b) in order.iter().enumerate() {
        rpo_index[b.index()] = i;
    }
    let mut widen_point = vec![false; n_blocks];
    for &b in &order {
        for &s in cfg.succs(b) {
            if rpo_index[s.index()] <= rpo_index[b.index()] {
                widen_point[s.index()] = true;
            }
        }
    }

    let mut executable = vec![false; n_blocks];
    let mut env_in: Vec<Option<Env>> = vec![None; n_blocks];
    let mut join_counts = vec![0u32; n_blocks];
    let mut on_list = vec![false; n_blocks];
    let mut worklist: VecDeque<BlockId> = VecDeque::new();

    executable[func.entry.index()] = true;
    env_in[func.entry.index()] = Some(entry_env);
    worklist.push_back(func.entry);
    on_list[func.entry.index()] = true;

    let mut steps: u64 = 0;
    let mut converged = true;
    while let Some(b) = worklist.pop_front() {
        on_list[b.index()] = false;
        steps += 1;
        if steps > budget {
            converged = false;
            break;
        }
        let mut env = env_in[b.index()].clone().expect("executable block has env");
        let block = func.block(b);
        for inst in &block.insts {
            transfer_inst(inst, &mut env);
        }
        // Propagate along executable out-edges, with branch refinement.
        let mut propagate = |succ: BlockId, env: Env, worklist: &mut VecDeque<BlockId>| {
            let changed = match &mut env_in[succ.index()] {
                slot @ None => {
                    *slot = Some(env);
                    executable[succ.index()] = true;
                    true
                }
                Some(old) => {
                    let widen =
                        widen_point[succ.index()] && join_counts[succ.index()] >= WIDEN_AFTER;
                    let mut any = false;
                    for (o, n) in old.iter_mut().zip(env) {
                        let merged = if widen { n.widen(o) } else { n.join(o) };
                        if merged != *o {
                            *o = merged;
                            any = true;
                        }
                    }
                    if any {
                        join_counts[succ.index()] += 1;
                    }
                    any
                }
            };
            if changed && !on_list[succ.index()] {
                on_list[succ.index()] = true;
                worklist.push_back(succ);
            }
        };
        match &block.term {
            Term::Ret { .. } => {}
            Term::Jmp { target } => propagate(*target, env, &mut worklist),
            Term::Br {
                cond, then_, else_, ..
            } => {
                let cv = eval_operand(*cond, &env);
                let (can_take, can_fall) = branch_feasibility(&cv);
                let cond_reg = cond.reg();
                let refinement = cond_reg.and_then(|r| edge_refinement(block, r));
                if can_take {
                    let e = refined_env(&env, cond_reg, &cv, &refinement, true);
                    propagate(*then_, e, &mut worklist);
                }
                if can_fall {
                    let e = refined_env(&env, cond_reg, &cv, &refinement, false);
                    propagate(*else_, e, &mut worklist);
                }
            }
        }
    }

    let mut values = FuncValues {
        executable,
        env_in,
        stats: SolveStats { steps, converged },
    };
    if converged {
        narrow(func, &cfg, &mut values);
    }
    values
}

/// Descending sweeps: re-apply the (monotone) transfer system from the
/// widened post-fixpoint in reverse-postorder, with executability frozen.
/// Every intermediate assignment stays above the least fixpoint, so the
/// tightened bounds remain sound; see the module docs.
fn narrow(func: &Function, cfg: &Cfg, values: &mut FuncValues) {
    let order = brepl_cfg::reverse_postorder(cfg);
    for _ in 0..NARROW_SWEEPS {
        for &b in &order {
            if !values.executable[b.index()] {
                continue;
            }
            if b == func.entry {
                continue; // the boundary env never changes
            }
            // Recompute the entry env as the join over executable
            // predecessor edges of their refined exit envs.
            let mut acc: Option<Env> = None;
            for &p in cfg.preds(b) {
                if !values.executable[p.index()] {
                    continue;
                }
                let Some(pin) = values.env_in[p.index()].as_ref() else {
                    continue;
                };
                if let Some(c) = edge_env(func, p, b, pin) {
                    acc = Some(match acc {
                        None => c,
                        Some(a) => join_envs(a, c),
                    });
                }
            }
            if let Some(new_in) = acc {
                values.env_in[b.index()] = Some(new_in);
            }
        }
    }
}

/// The environment flowing from predecessor `p` into `b`: `p`'s entry
/// environment `pin` pushed through its instructions, with branch-edge
/// refinement applied. `None` when no feasible edge `p -> b` survives
/// abstract evaluation (the branch condition rules the edge out, or `p`
/// returns).
pub(crate) fn edge_env(func: &Function, p: BlockId, b: BlockId, pin: &Env) -> Option<Env> {
    let mut env = pin.clone();
    let pblock = func.block(p);
    for inst in &pblock.insts {
        transfer_inst(inst, &mut env);
    }
    match &pblock.term {
        Term::Jmp { target } if *target == b => Some(env),
        Term::Jmp { .. } => None,
        Term::Br {
            cond, then_, else_, ..
        } => {
            let cv = eval_operand(*cond, &env);
            let (can_take, can_fall) = branch_feasibility(&cv);
            let cond_reg = cond.reg();
            let refinement = cond_reg.and_then(|r| edge_refinement(pblock, r));
            // The edge may target `b` as then, else, or both.
            let mut merged: Option<Env> = None;
            if *then_ == b && can_take {
                merged = Some(refined_env(&env, cond_reg, &cv, &refinement, true));
            }
            if *else_ == b && can_fall {
                let e = refined_env(&env, cond_reg, &cv, &refinement, false);
                merged = Some(match merged {
                    None => e,
                    Some(m) => join_envs(m, e),
                });
            }
            merged
        }
        Term::Ret { .. } => None,
    }
}

fn join_envs(mut a: Env, b: Env) -> Env {
    for (x, y) in a.iter_mut().zip(b) {
        *x = x.join(&y);
    }
    a
}

/// Which successors a branch on `cond` can reach.
pub(crate) fn branch_feasibility(cond: &AbsVal) -> (bool, bool) {
    match cond {
        AbsVal::Bot => (false, false),
        AbsVal::Int(iv) => {
            if iv.is_empty() {
                (false, false)
            } else if !iv.contains(0) {
                (true, false)
            } else if iv.as_constant() == Some(0) {
                (false, true)
            } else {
                (true, true)
            }
        }
        AbsVal::Any => (true, true),
    }
}

/// A comparison feeding the branch condition whose operand register may
/// be refined along the edges: `(reg, op, k)` with the predicate
/// normalized to `reg op k`.
pub(crate) struct EdgeRefinement {
    pub(crate) reg: Reg,
    pub(crate) op: CmpOp,
    pub(crate) k: i64,
}

/// Finds the in-block `Cmp` defining `cond` (scanning backwards, giving
/// up on an intervening redefinition of the condition register), and
/// checks its compared register is not redefined between the compare and
/// the terminator — the validity condition for edge refinement in a
/// mutable-register IR.
pub(crate) fn edge_refinement(block: &brepl_ir::Block, cond: Reg) -> Option<EdgeRefinement> {
    let mut cmp_at: Option<usize> = None;
    for (i, inst) in block.insts.iter().enumerate().rev() {
        if inst.def() == Some(cond) {
            if matches!(inst, Inst::Cmp { .. }) {
                cmp_at = Some(i);
            }
            break;
        }
    }
    let i = cmp_at?;
    let Inst::Cmp { op, lhs, rhs, .. } = &block.insts[i] else {
        return None;
    };
    let (reg, op, k) = match (lhs, rhs) {
        (Operand::Reg(r), Operand::Imm(Value::Int(k))) => (*r, *op, *k),
        (Operand::Imm(Value::Int(k)), Operand::Reg(r)) => (*r, op.swapped(), *k),
        _ => return None,
    };
    // The refined register must still hold the compared value at the
    // branch.
    for inst in &block.insts[i + 1..] {
        if inst.def() == Some(reg) {
            return None;
        }
    }
    Some(EdgeRefinement { reg, op, k })
}

/// The environment flowing along one edge of a branch: the condition
/// register is restricted to truthy/falsy, and the compared register (if
/// the refinement is valid) is restricted by the predicate.
pub(crate) fn refined_env(
    env: &Env,
    cond: Option<Reg>,
    cond_val: &AbsVal,
    refinement: &Option<EdgeRefinement>,
    taken: bool,
) -> Env {
    let mut out = env.clone();
    if let (Some(cond), AbsVal::Int(iv)) = (cond, cond_val) {
        let refined = if taken {
            iv.refine_cmp(CmpOp::Ne, 0, true)
        } else {
            iv.refine_cmp(CmpOp::Eq, 0, true)
        };
        out[cond.index()] = AbsVal::int(refined);
    }
    if let Some(r) = refinement {
        if let AbsVal::Int(iv) = &out[r.reg.index()] {
            out[r.reg.index()] = AbsVal::int(iv.refine_cmp(r.op, r.k, taken));
        }
    }
    out
}

/// Abstract evaluation of an operand.
pub(crate) fn eval_operand(op: Operand, env: &Env) -> AbsVal {
    match op {
        Operand::Imm(Value::Int(v)) => AbsVal::Int(Interval::constant(v)),
        Operand::Imm(Value::Float(_)) => AbsVal::Any,
        Operand::Reg(r) => env.get(r.index()).cloned().unwrap_or(AbsVal::Any),
    }
}

/// Abstract execution of one instruction, mirroring `brepl-sim`.
pub(crate) fn transfer_inst(inst: &Inst, env: &mut Env) {
    let result: AbsVal = match inst {
        Inst::Const { value, .. } => match value {
            Value::Int(v) => AbsVal::Int(Interval::constant(*v)),
            Value::Float(_) => AbsVal::Any,
        },
        Inst::Copy { src, .. } => eval_operand(*src, env),
        Inst::Bin { op, lhs, rhs, .. } => {
            match (eval_operand(*lhs, env), eval_operand(*rhs, env)) {
                (AbsVal::Int(a), AbsVal::Int(b)) => AbsVal::int(Interval::binop(*op, &a, &b)),
                (AbsVal::Bot, _) | (_, AbsVal::Bot) => AbsVal::Bot,
                _ => AbsVal::Any,
            }
        }
        Inst::Cmp { op, lhs, rhs, .. } => {
            // The interpreter always produces Int(0|1) (or traps, which
            // aborts the run before the result is observable).
            match (eval_operand(*lhs, env), eval_operand(*rhs, env)) {
                (AbsVal::Int(a), AbsVal::Int(b)) => AbsVal::int(Interval::cmp(*op, &a, &b)),
                (AbsVal::Bot, _) | (_, AbsVal::Bot) => AbsVal::Bot,
                _ => AbsVal::Int(Interval::range(0, 1)),
            }
        }
        Inst::Ftoi { src, .. } => match eval_operand(*src, env) {
            // Identity on integers; any float truncates to some integer.
            AbsVal::Int(iv) => AbsVal::Int(iv),
            AbsVal::Bot => AbsVal::Bot,
            AbsVal::Any => AbsVal::Int(Interval::top()),
        },
        Inst::Itof { .. } => AbsVal::Any,
        Inst::Load { .. } => AbsVal::Any,
        Inst::Store { .. } => return,
        Inst::Alloc { .. } => AbsVal::Any,
        Inst::Call { dst, .. } => match dst {
            Some(_) => AbsVal::Any,
            None => return,
        },
        Inst::Intrin {
            dst, which, args, ..
        } => {
            let v = match which {
                // `out` writes Int(0) into its (optional) destination.
                Intrinsic::Out => AbsVal::Int(Interval::constant(0)),
                // Input values come off the tape (or Int(-1) when empty)
                // and may be floats.
                Intrinsic::In => AbsVal::Any,
                Intrinsic::Sqrt => AbsVal::Any,
                // rand(b) yields [0, b-1]; a non-positive bound traps.
                Intrinsic::Rand => match args.first().map(|a| eval_operand(*a, env)) {
                    Some(AbsVal::Int(b)) if !b.is_empty() => {
                        AbsVal::int(Interval::range(0, b.hi_clamped().saturating_sub(1).max(0)))
                    }
                    _ => AbsVal::Int(Interval::top()),
                },
            };
            match dst {
                Some(_) => v,
                None => return,
            }
        }
    };
    if let Some(dst) = inst.def() {
        if let Some(slot) = env.get_mut(dst.index()) {
            *slot = result;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use brepl_ir::FunctionBuilder;

    /// `for i in 0..n { if i < n { .. } }` — the inner test is provably
    /// always true once edge refinement narrows `i` inside the loop.
    fn counted_loop(trip: i64) -> Function {
        let mut b = FunctionBuilder::new("main", 0);
        let i = b.reg();
        b.const_int(i, 0);
        let head = b.new_block();
        let body = b.new_block();
        let inner_t = b.new_block();
        let latch = b.new_block();
        let exit = b.new_block();
        b.jmp(head);
        b.switch_to(head);
        let c = b.lt(i.into(), Operand::imm(trip));
        b.br(c, body, exit);
        b.switch_to(body);
        let c2 = b.lt(i.into(), Operand::imm(trip));
        b.br(c2, inner_t, latch);
        b.switch_to(inner_t);
        b.out(i.into());
        b.jmp(latch);
        b.switch_to(latch);
        b.add(i, i.into(), Operand::imm(1));
        b.jmp(head);
        b.switch_to(exit);
        b.ret(None);
        b.finish()
    }

    #[test]
    fn widening_and_narrowing_bound_a_counted_loop() {
        let f = counted_loop(100);
        let v = analyze_function(&f);
        assert!(v.stats.converged);
        // Every block is reachable.
        assert!(v.executable.iter().all(|&e| e));
        // At the loop head, i ∈ [0, 100] after narrowing (0 from entry,
        // up to 100 from the latch increment of a body-capped i).
        let head = BlockId(1);
        let env = v.entry_env(head).unwrap();
        let AbsVal::Int(iv) = &env[0] else {
            panic!("i is an integer: {:?}", env[0])
        };
        assert!(iv.subset_of(&Interval::range(0, 100)), "head i = {iv}");
        // In the body, the branch-edge refinement caps i at 99, so the
        // duplicated test is provably true.
        let body = BlockId(2);
        let env = v.entry_env(body).unwrap();
        let AbsVal::Int(iv) = &env[0] else {
            panic!("i is an integer: {:?}", env[0])
        };
        assert!(iv.subset_of(&Interval::range(0, 99)), "body i = {iv}");
    }

    #[test]
    fn constant_branch_kills_the_dead_edge() {
        let mut b = FunctionBuilder::new("main", 0);
        let x = b.reg();
        b.const_int(x, 7);
        let t = b.new_block();
        let e = b.new_block();
        let c = b.gt(x.into(), Operand::imm(3));
        b.br(c, t, e);
        b.switch_to(t);
        b.ret(None);
        b.switch_to(e);
        b.ret(None);
        let f = b.finish();
        let v = analyze_function(&f);
        assert!(v.stats.converged);
        assert!(v.executable[t.index()], "taken edge lives");
        assert!(!v.executable[e.index()], "fallthrough edge proved dead");
    }

    #[test]
    fn params_are_unknown_and_zero_init_is_used() {
        let mut b = FunctionBuilder::new("f", 1);
        let p = Reg(0);
        let z = b.reg();
        let s = b.reg();
        b.add(s, p.into(), z.into());
        b.ret(Some(s.into()));
        let f = b.finish();
        let v = analyze_function(&f);
        let entry = f.entry;
        let env = v.entry_env(entry).unwrap();
        assert_eq!(env[p.index()], AbsVal::Any);
        // Unwritten non-param registers are Int(0) per frame setup.
        assert_eq!(env[z.index()], AbsVal::Int(Interval::constant(0)));
    }

    #[test]
    fn rand_is_bounded_and_loads_are_not() {
        let mut b = FunctionBuilder::new("main", 0);
        let r = b.rand(Operand::imm(6));
        let c = b.lt(r.into(), Operand::imm(6));
        let t = b.new_block();
        let e = b.new_block();
        b.br(c, t, e);
        b.switch_to(t);
        b.ret(None);
        b.switch_to(e);
        b.ret(None);
        let f = b.finish();
        let v = analyze_function(&f);
        assert!(v.executable[t.index()]);
        assert!(!v.executable[e.index()], "rand(6) < 6 is provably true");
    }

    #[test]
    fn call_graph_reachability_starts_at_main() {
        let mut helper = FunctionBuilder::new("helper", 0);
        helper.ret(None);
        let mut dead = FunctionBuilder::new("dead", 0);
        dead.ret(None);
        let mut main = FunctionBuilder::new("main", 0);
        main.call(None, "helper", vec![]);
        main.ret(None);
        let mut m = Module::new();
        let f_help = m.push_function(helper.finish());
        let f_dead = m.push_function(dead.finish());
        let f_main = m.push_function(main.finish());
        let cp = ConstProp::analyze(&m);
        assert!(cp.reachable_funcs[f_main.index()]);
        assert!(cp.reachable_funcs[f_help.index()]);
        assert!(!cp.reachable_funcs[f_dead.index()]);
        assert!(cp.block_live(f_main, m.function(f_main).entry));
        assert!(!cp.block_live(f_dead, m.function(f_dead).entry));
    }
}
