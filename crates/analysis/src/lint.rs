//! Lints: warning-severity findings over a single module, built on the
//! dataflow analyses. The pipeline does not run them; the `gates` bench
//! bin runs [`lint_module`] on every shipped program (a rename or rewiring
//! bug in replication usually shows up here first). They are meaningful
//! on any module.

use brepl_cfg::Cfg;
use brepl_ir::{FuncId, Function, Loc, Module};

use crate::diag::{AnalysisDiag, DiagCode};
use crate::liveness::{liveness, term_uses};
use crate::uninit::use_before_def;

/// `BR001` for every block of `func` not reachable from its entry.
fn unreachable_diags(fid: FuncId, func: &Function) -> Vec<AnalysisDiag> {
    let reachable = Cfg::new(func).reachable();
    func.iter_blocks()
        .filter(|(bid, _)| !reachable[bid.index()])
        .map(|(bid, _)| {
            AnalysisDiag::new(
                DiagCode::UnreachableReplica,
                Loc::block(fid, bid),
                format!("block {bid} is unreachable from the function entry"),
            )
        })
        .collect()
}

/// `BR002` for every instruction whose written register is dead at that
/// point. Instructions with side effects (stores, calls, intrinsics,
/// allocations) are exempt — their value is in the effect — and so are
/// potentially-trapping instructions (loads, divisions), whose removal
/// could change behavior. Unreachable blocks are skipped.
fn dead_store_diags(fid: FuncId, func: &Function) -> Vec<AnalysisDiag> {
    let cfg = Cfg::new(func);
    let live = liveness(func, &cfg);
    let reachable = cfg.reachable();
    let mut diags = Vec::new();
    for (bid, block) in func.iter_blocks() {
        if !reachable[bid.index()] {
            continue;
        }
        // Walk the block backward from live-out, per-instruction.
        let mut live_now = live.live_out[bid.index()].clone();
        term_uses(&block.term, |r| {
            live_now.insert(r.index());
        });
        let mut dead: Vec<usize> = Vec::new();
        for (i, inst) in block.insts.iter().enumerate().rev() {
            if let Some(d) = inst.def() {
                if !live_now.contains(d.index()) && is_removable(inst) {
                    dead.push(i);
                }
                live_now.remove(d.index());
            }
            inst.for_each_use(|o| {
                if let Some(r) = o.reg() {
                    live_now.insert(r.index());
                }
            });
        }
        for i in dead.into_iter().rev() {
            let d = block.insts[i].def().expect("dead stores write a register");
            diags.push(AnalysisDiag::new(
                DiagCode::DeadStore,
                Loc::inst(fid, bid, i),
                format!("{d} is written here but never read afterwards"),
            ));
        }
    }
    diags
}

/// True when deleting the instruction could not change observable behavior:
/// no side effects and no way to trap.
fn is_removable(inst: &brepl_ir::Inst) -> bool {
    use brepl_ir::{BinOp, Inst};
    match inst {
        Inst::Const { .. }
        | Inst::Copy { .. }
        | Inst::Cmp { .. }
        | Inst::Ftoi { .. }
        | Inst::Itof { .. } => true,
        // Division and remainder trap on zero; loads trap out of bounds.
        Inst::Bin { op, .. } => !matches!(op, BinOp::Div | BinOp::Rem),
        Inst::Load { .. }
        | Inst::Store { .. }
        | Inst::Alloc { .. }
        | Inst::Call { .. }
        | Inst::Intrin { .. } => false,
    }
}

/// `BR003` for every read of a not-definitely-assigned register.
fn use_before_def_diags(fid: FuncId, func: &Function) -> Vec<AnalysisDiag> {
    let cfg = Cfg::new(func);
    use_before_def(func, &cfg)
        .into_iter()
        .map(|u| {
            AnalysisDiag::new(
                DiagCode::UseBeforeDef,
                Loc {
                    func: fid,
                    block: Some(u.block),
                    inst: Some(u.inst),
                },
                format!("{} may be read before it is written", u.reg),
            )
        })
        .collect()
}

/// Runs every lint over every function of `module`.
pub fn lint_module(module: &Module) -> Vec<AnalysisDiag> {
    let mut diags = Vec::new();
    for (fid, func) in module.iter_functions() {
        diags.extend(unreachable_diags(fid, func));
        diags.extend(dead_store_diags(fid, func));
        diags.extend(use_before_def_diags(fid, func));
    }
    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use brepl_ir::{FunctionBuilder, Operand};

    #[test]
    fn unreachable_block_reported() {
        let mut b = FunctionBuilder::new("f", 0);
        let dead = b.new_block();
        b.ret(None);
        b.switch_to(dead);
        b.ret(None);
        let mut m = Module::new();
        m.push_function(b.finish());
        let diags = lint_module(&m);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, DiagCode::UnreachableReplica);
        assert_eq!(diags[0].loc, Loc::block(FuncId(0), dead));
    }

    #[test]
    fn dead_store_reported_but_not_side_effects() {
        let mut b = FunctionBuilder::new("f", 0);
        let x = b.reg();
        b.const_int(x, 1); // overwritten below without a read: dead
        b.const_int(x, 2);
        b.store(Operand::imm(0), x.into()); // side effect: never dead
        b.ret(None);
        let mut m = Module::new();
        m.globals = 1;
        m.push_function(b.finish());
        let diags = lint_module(&m);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, DiagCode::DeadStore);
        assert_eq!(diags[0].loc, Loc::inst(FuncId(0), brepl_ir::BlockId(0), 0));
    }

    #[test]
    fn trapping_instructions_are_not_dead_stores() {
        let mut b = FunctionBuilder::new("f", 1);
        let p0 = b.param(0);
        let x = b.reg();
        b.div(x, Operand::imm(1), p0.into()); // may trap: not removable
        b.ret(None);
        let mut m = Module::new();
        m.push_function(b.finish());
        assert!(lint_module(&m).is_empty());
    }

    #[test]
    fn use_before_def_reported() {
        let mut b = FunctionBuilder::new("f", 0);
        let x = b.reg();
        b.out(x.into());
        b.ret(None);
        let mut m = Module::new();
        m.push_function(b.finish());
        let diags = lint_module(&m);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, DiagCode::UseBeforeDef);
    }

    #[test]
    fn clean_function_is_clean() {
        let mut b = FunctionBuilder::new("f", 1);
        let p0 = b.param(0);
        let y = b.reg();
        b.add(y, p0.into(), Operand::imm(1));
        b.ret(Some(y.into()));
        let mut m = Module::new();
        m.push_function(b.finish());
        assert!(lint_module(&m).is_empty());
    }
}
