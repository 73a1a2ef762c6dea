//! A no-profile static predictor that consumes *proofs*: directions
//! pinned by whole-module abstract interpretation (supplied by the
//! caller, typically `brepl_analysis::classify_module`) take absolute
//! precedence, the Ball–Larus *loop* heuristic covers the rest of the
//! loop branches, and everything else defaults to taken.
//!
//! The proofs arrive as plain `(site, direction)` pairs rather than an
//! analysis type so this crate stays independent of `brepl-analysis`
//! (which depends on *us* for [`StaticPrediction`]).

use brepl_cfg::{Cfg, ClassifiedBranches, DomTree, LoopForest};
use brepl_ir::{BranchId, Module, Term};

use crate::eval::StaticPrediction;

/// The proof-guided static prediction for a whole module.
#[derive(Clone, Debug)]
pub struct ProofGuided {
    prediction: StaticPrediction,
}

impl ProofGuided {
    /// Builds the prediction for `module`, giving `proofs` precedence
    /// over the loop heuristic.
    pub fn analyze(module: &Module, proofs: &[(BranchId, bool)]) -> Self {
        let mut prediction = StaticPrediction::with_default(true);
        for (_, func) in module.iter_functions() {
            let cfg = Cfg::new(func);
            let dom = DomTree::new(&cfg);
            let forest = LoopForest::new(&cfg, &dom);
            let classes = ClassifiedBranches::analyze(func, &forest);
            for (_, block) in func.iter_blocks() {
                let Term::Br { site, .. } = block.term else {
                    continue;
                };
                let guess = match proofs.iter().find(|(s, _)| *s == site) {
                    Some(&(_, dir)) => dir,
                    None => match classes.by_site(site) {
                        // A loop-exit branch: predict the direction that
                        // stays inside the loop.
                        Some(info)
                            if !info.taken_is_back_edge
                                && info.innermost_loop.is_some()
                                && info.then_in_loop != info.else_in_loop =>
                        {
                            info.then_in_loop
                        }
                        // Back edges are taken; everything else defaults
                        // to taken.
                        _ => true,
                    },
                };
                prediction.set(site, guess);
            }
        }
        ProofGuided { prediction }
    }

    /// The resulting per-site static prediction.
    pub fn prediction(&self) -> &StaticPrediction {
        &self.prediction
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use brepl_ir::{FunctionBuilder, Operand};
    use brepl_trace::{Trace, TraceEvent};

    /// A counted loop (header site 0, taken stays in) followed by a
    /// non-loop branch (site 1).
    fn looped_module() -> Module {
        let mut b = FunctionBuilder::new("main", 0);
        let head = b.new_block();
        let body = b.new_block();
        let exit = b.new_block();
        let done = b.new_block();
        let i = b.reg();
        b.const_int(i, 0);
        b.jmp(head);
        b.switch_to(head);
        let c = b.lt(Operand::Reg(i), Operand::imm(10));
        b.br(c, body, exit);
        b.switch_to(body);
        b.add(i, Operand::Reg(i), Operand::imm(1));
        b.jmp(head);
        b.switch_to(exit);
        let r = b.rand(Operand::imm(2));
        b.br(r, done, done);
        b.switch_to(done);
        b.ret(None);
        let mut m = Module::new();
        m.push_function(b.finish());
        m.renumber_branches();
        m
    }

    #[test]
    fn proofs_override_heuristics_and_loop_covers_headers() {
        let m = looped_module();
        // No proofs: the loop heuristic keeps the header in-loop
        // (taken), the non-loop branch defaults to taken.
        let pg = ProofGuided::analyze(&m, &[]);
        assert!(pg.prediction().get(BranchId(0)));
        assert!(pg.prediction().get(BranchId(1)));

        // A proof pinning the header not-taken wins over the heuristic.
        let pg = ProofGuided::analyze(&m, &[(BranchId(0), false)]);
        assert!(!pg.prediction().get(BranchId(0)));
        assert!(pg.prediction().get(BranchId(1)));
    }

    #[test]
    fn loop_heuristic_beats_default_on_a_counted_loop_trace() {
        let m = looped_module();
        let pg = ProofGuided::analyze(&m, &[]);
        // The header goes taken 10 of 11 times; predicting taken gives
        // exactly one miss.
        let trace: Trace = (0..11)
            .map(|n| TraceEvent {
                site: BranchId(0),
                taken: n < 10,
            })
            .collect();
        let report = crate::evaluate_static(pg.prediction(), &trace);
        assert_eq!(report.mispredictions(), 1);
    }
}
