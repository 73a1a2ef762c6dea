//! The Ball–Larus heuristic chain ("Branch Prediction for Free",
//! PLDI 1993), in the ordering the paper reports as most successful:
//! **Pointer, Call, Opcode, Return, Store, Loop, Guard**.
//!
//! Each heuristic either produces a prediction for a branch or abstains;
//! the first heuristic with an opinion wins, and branches nobody claims
//! default to taken.
//!
//! ### IR-level substitutions
//!
//! Ball–Larus define their heuristics over real machine code. Our IR has
//! no pointer type, so the *pointer* heuristic keys on equality
//! comparisons between two registers (address-style comparisons are
//! overwhelmingly `==`/`!=` of computed values, and "pointer comparisons
//! are usually unequal" translates directly); every other heuristic maps
//! one-to-one.

use brepl_cfg::{Cfg, ClassifiedBranches, DomTree, LoopForest};
use brepl_ir::{Block, BlockId, BranchId, CmpOp, Function, Module, Operand, Term, Value};

use crate::eval::StaticPrediction;
use crate::stat::branch_condition;

/// Which heuristic decided a branch.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum Heuristic {
    /// Register equality comparison predicted unequal.
    Pointer,
    /// Avoid successors that call.
    Call,
    /// Comparison opcode decides.
    Opcode,
    /// Avoid successors that return.
    Return,
    /// Avoid successors that store.
    Store,
    /// Loop back edges are taken, exits are not.
    Loop,
    /// Prefer the successor that uses the branch operands.
    Guard,
    /// No heuristic fired; default (taken).
    Default,
}

/// The Ball–Larus prediction for a whole module.
#[derive(Clone, Debug)]
pub struct BallLarus {
    prediction: StaticPrediction,
}

impl BallLarus {
    /// Runs the heuristic chain over every branch of `module`.
    pub fn analyze(module: &Module) -> Self {
        let mut prediction = StaticPrediction::with_default(true);
        for (site, guess, _) in decisions(module) {
            prediction.set(site, guess);
        }
        BallLarus { prediction }
    }

    /// The resulting per-site prediction.
    pub fn prediction(&self) -> &StaticPrediction {
        &self.prediction
    }
}

/// Every branch of `module` with its predicted direction and the
/// heuristic that decided it, in block order.
fn decisions(module: &Module) -> Vec<(BranchId, bool, Heuristic)> {
    let mut out = Vec::new();
    for (_, func) in module.iter_functions() {
        let cfg = Cfg::new(func);
        let dom = DomTree::new(&cfg);
        let forest = LoopForest::new(&cfg, &dom);
        let classes = ClassifiedBranches::analyze(func, &forest);
        for (bid, block) in func.iter_blocks() {
            let Term::Br {
                then_, else_, site, ..
            } = block.term
            else {
                continue;
            };
            let (guess, heuristic) = chain(func, &classes, bid, then_, else_);
            out.push((site, guess, heuristic));
        }
    }
    out
}

fn chain(
    func: &Function,
    classes: &ClassifiedBranches,
    block: BlockId,
    then_: BlockId,
    else_: BlockId,
) -> (bool, Heuristic) {
    if let Some(g) = pointer(func, block) {
        return (g, Heuristic::Pointer);
    }
    if let Some(g) = avoid_successor(func, then_, else_, Block::has_call) {
        return (g, Heuristic::Call);
    }
    if let Some(g) = opcode(func, block) {
        return (g, Heuristic::Opcode);
    }
    if let Some(g) = avoid_successor(func, then_, else_, Block::returns) {
        return (g, Heuristic::Return);
    }
    if let Some(g) = avoid_successor(func, then_, else_, Block::has_store) {
        return (g, Heuristic::Store);
    }
    if let Some(g) = loop_direction(classes, block) {
        return (g, Heuristic::Loop);
    }
    if let Some(g) = guard(func, block, then_, else_) {
        return (g, Heuristic::Guard);
    }
    (true, Heuristic::Default)
}

/// Pointer: register-register equality comparisons predict unequal.
fn pointer(func: &Function, block: BlockId) -> Option<bool> {
    let (op, lhs, rhs) = branch_condition(func, block)?;
    let both_regs = lhs.reg().is_some() && rhs.reg().is_some();
    if !both_regs {
        return None;
    }
    match op {
        CmpOp::Eq => Some(false),
        CmpOp::Ne => Some(true),
        _ => None,
    }
}

/// Opcode: comparisons against zero and equality with immediates predict
/// the "unusual" outcome false.
fn opcode(func: &Function, block: BlockId) -> Option<bool> {
    let (op, lhs, rhs) = branch_condition(func, block)?;
    let zero_rhs = matches!(rhs, Operand::Imm(Value::Int(0)));
    let zero_lhs = matches!(lhs, Operand::Imm(Value::Int(0)));
    match op {
        CmpOp::Eq => Some(false),
        CmpOp::Ne => Some(true),
        CmpOp::Lt | CmpOp::Le if zero_rhs => Some(false),
        CmpOp::Gt | CmpOp::Ge if zero_lhs => Some(false),
        _ => None,
    }
}

/// Shared shape of Call/Return/Store: if exactly one successor has the
/// property, avoid it.
fn avoid_successor(
    func: &Function,
    then_: BlockId,
    else_: BlockId,
    property: fn(&Block) -> bool,
) -> Option<bool> {
    let t = property(func.block(then_));
    let e = property(func.block(else_));
    match (t, e) {
        (true, false) => Some(false), // avoid taken successor
        (false, true) => Some(true),  // avoid not-taken successor
        _ => None,
    }
}

/// Loop: predict the direction that stays in / re-enters the loop.
fn loop_direction(classes: &ClassifiedBranches, block: BlockId) -> Option<bool> {
    let info = classes.branches().iter().find(|b| b.block == block)?;
    match info.class {
        brepl_cfg::BranchClass::LoopExit => {
            // Exactly one side leaves the innermost loop; predict the side
            // that stays.
            match (info.then_in_loop, info.else_in_loop) {
                (true, false) => Some(true),
                (false, true) => Some(false),
                _ => None,
            }
        }
        brepl_cfg::BranchClass::IntraLoop => info.taken_is_back_edge.then_some(true),
        brepl_cfg::BranchClass::NonLoop => None,
    }
}

/// Guard: if a register used by the comparison is read in exactly one
/// successor's instructions, predict the branch toward that successor.
fn guard(func: &Function, block: BlockId, then_: BlockId, else_: BlockId) -> Option<bool> {
    let (_, lhs, rhs) = branch_condition(func, block)?;
    let regs: Vec<_> = [lhs.reg(), rhs.reg()].into_iter().flatten().collect();
    if regs.is_empty() {
        return None;
    }
    let uses = |b: BlockId| -> bool {
        func.block(b).insts.iter().any(|i| {
            let mut found = false;
            i.for_each_use(|o| {
                if let Some(r) = o.reg() {
                    if regs.contains(&r) {
                        found = true;
                    }
                }
            });
            found
        })
    };
    match (uses(then_), uses(else_)) {
        (true, false) => Some(true),
        (false, true) => Some(false),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use brepl_ir::FunctionBuilder;

    fn single_fn_module(b: FunctionBuilder) -> Module {
        let mut m = Module::new();
        m.push_function(b.finish());
        m
    }

    #[test]
    fn pointer_heuristic_fires_on_reg_equality() {
        let mut b = FunctionBuilder::new("main", 2);
        let x = b.param(0);
        let y = b.param(1);
        let t = b.new_block();
        let e = b.new_block();
        let c = b.eq(x.into(), y.into());
        b.br(c, t, e);
        b.switch_to(t);
        b.ret(None);
        b.switch_to(e);
        b.ret(None);
        let m = single_fn_module(b);
        let (site, _, h) = decisions(&m)[0];
        assert_eq!(h, Heuristic::Pointer);
        assert!(!BallLarus::analyze(&m).prediction().get(site));
    }

    #[test]
    fn call_heuristic_avoids_calling_block() {
        let mut b = FunctionBuilder::new("main", 2);
        let x = b.param(0);
        let y = b.param(1);
        let t = b.new_block();
        let e = b.new_block();
        // lt comparison so pointer/opcode stay silent.
        let c = b.lt(x.into(), y.into());
        b.br(c, t, e);
        b.switch_to(t);
        b.call(None, "leaf", vec![]);
        b.ret(None);
        b.switch_to(e);
        b.ret(None);
        let mut m = single_fn_module(b);
        let mut leaf = FunctionBuilder::new("leaf", 0);
        leaf.ret(None);
        m.push_function(leaf.finish());
        let bl = BallLarus::analyze(&m);
        let (site, _, h) = decisions(&m)[0];
        assert_eq!(h, Heuristic::Call);
        assert!(!bl.prediction().get(site), "avoid the calling successor");
    }

    #[test]
    fn loop_heuristic_predicts_back_edge() {
        let mut b = FunctionBuilder::new("main", 2);
        let x = b.param(0);
        let y = b.param(1);
        let head = b.new_block();
        let exit = b.new_block();
        b.jmp(head);
        b.switch_to(head);
        // Self-loop latch: taken re-enters the loop. Both successors are
        // blocks without calls/returns... head loops, exit returns; Return
        // heuristic fires first in chain order? then_=head (no ret),
        // else_=exit (ret) -> Return heuristic says avoid exit -> taken.
        let c = b.lt(x.into(), y.into());
        b.br(c, head, exit);
        b.switch_to(exit);
        b.ret(None);
        let m = single_fn_module(b);
        let bl = BallLarus::analyze(&m);
        let (site, _, h) = decisions(&m)[0];
        assert!(bl.prediction().get(site), "stay in the loop");
        assert!(matches!(h, Heuristic::Return | Heuristic::Loop));
    }

    #[test]
    fn guard_heuristic_prefers_operand_user() {
        let mut b = FunctionBuilder::new("main", 2);
        let x = b.param(0);
        let y = b.param(1);
        let t = b.new_block();
        let e = b.new_block();
        let j = b.new_block();
        let c = b.lt(x.into(), y.into());
        b.br(c, t, e);
        b.switch_to(t);
        let z = b.reg();
        b.add(z, x.into(), Operand::imm(1)); // uses x
        b.jmp(j);
        b.switch_to(e);
        b.jmp(j);
        b.switch_to(j);
        b.ret(None);
        let m = single_fn_module(b);
        let bl = BallLarus::analyze(&m);
        let (site, _, h) = decisions(&m)[0];
        assert_eq!(h, Heuristic::Guard);
        assert!(bl.prediction().get(site));
    }

    #[test]
    fn default_when_nothing_fires() {
        let mut b = FunctionBuilder::new("main", 2);
        let x = b.param(0);
        let y = b.param(1);
        let t = b.new_block();
        let e = b.new_block();
        let j = b.new_block();
        let c = b.lt(x.into(), y.into());
        b.br(c, t, e);
        b.switch_to(t);
        b.jmp(j);
        b.switch_to(e);
        b.jmp(j);
        b.switch_to(j);
        b.ret(None);
        let m = single_fn_module(b);
        let (site, _, h) = decisions(&m)[0];
        assert_eq!(h, Heuristic::Default);
        assert!(BallLarus::analyze(&m).prediction().get(site));
    }
}
