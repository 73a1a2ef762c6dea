//! Greedy state addition under a code-size cost model (§5 and the
//! misprediction-versus-code-size plots, Figures 6–13).
//!
//! "The states were added in such an order that the state that predicted
//! the largest number of branches and that increased the code size by the
//! smallest amount was chosen first." We follow the same rule at branch
//! granularity: each step enables the best machine of one more branch,
//! ordered by benefit per size unit, where the size cost follows the
//! paper's interaction law — machines in *different* loops add code,
//! machines in the *same* loop multiply it.

use std::collections::HashMap;

use brepl_cfg::{Cfg, ClassifiedBranches, DomTree, LoopForest};
use brepl_ir::{BlockId, FuncId, Module};
use brepl_trace::Trace;

use crate::replicate::BranchMachine;
use crate::select::{select_strategies, Selection};

/// One point of a misprediction-versus-code-size curve.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CurvePoint {
    /// Cumulative code-size growth factor (1.0 = original size).
    pub size_factor: f64,
    /// Cumulative misprediction rate in percent.
    pub misprediction_percent: f64,
    /// Number of branch machines enabled so far.
    pub machines_enabled: usize,
}

/// The greedy curve for one module/trace pair.
#[derive(Clone, Debug, Default)]
pub struct GreedyCurve {
    /// Points from "no machines" (profile prediction, factor 1.0) onward.
    pub points: Vec<CurvePoint>,
    /// The branch enabled at each step: `order[i]` produced
    /// `points[i + 1]`.
    pub order: Vec<brepl_ir::BranchId>,
}

impl GreedyCurve {
    /// The last point at or under a size budget, if any.
    pub fn at_size_budget(&self, max_factor: f64) -> Option<CurvePoint> {
        self.points
            .iter()
            .take_while(|p| p.size_factor <= max_factor)
            .last()
            .copied()
    }

    /// The best (final) misprediction percentage on the curve.
    pub fn best_misprediction(&self) -> f64 {
        self.points.last().map_or(0.0, |p| p.misprediction_percent)
    }
}

/// Computes the greedy misprediction/size curve for `module` with machines
/// of at most `max_states` states, reusing a precomputed [`Selection`].
pub fn greedy_curve_from_selection(
    module: &Module,
    selection: &Selection,
    trace_len: u64,
) -> GreedyCurve {
    // Loop identity and size for the cost model.
    #[derive(Clone, Copy)]
    struct LoopInfo {
        size_units: usize,
        product: u64,
    }
    let mut loop_of_site: HashMap<brepl_ir::BranchId, (FuncId, BlockId)> = HashMap::new();
    let mut loops: HashMap<(FuncId, BlockId), LoopInfo> = HashMap::new();
    let mut site_block_units: HashMap<brepl_ir::BranchId, usize> = HashMap::new();
    for (fid, func) in module.iter_functions() {
        let cfg = Cfg::new(func);
        let dom = DomTree::new(&cfg);
        let forest = LoopForest::new(&cfg, &dom);
        let classes = ClassifiedBranches::analyze(func, &forest);
        for info in classes.branches() {
            if let Some(l) = info.innermost_loop {
                let lp = forest.get(l);
                let key = (fid, lp.header);
                loop_of_site.insert(info.site, key);
                loops.entry(key).or_insert(LoopInfo {
                    size_units: lp.blocks.iter().map(|&b| func.block(b).size_units()).sum(),
                    product: 1,
                });
            }
            site_block_units.insert(info.site, func.block(info.block).size_units());
        }
    }
    let base_size = module.size_units() as f64;

    // Candidate steps: every branch whose chosen strategy beats profile.
    struct Step {
        site: brepl_ir::BranchId,
        benefit: u64,
        states: usize,
        correlated_block_units: usize,
    }
    let mut steps: Vec<Step> = selection
        .choices()
        .iter()
        .filter(|c| c.benefit() > 0)
        .map(|c| Step {
            site: c.site,
            benefit: c.benefit(),
            states: c.chosen.as_ref().map_or(1, BranchMachine::states),
            correlated_block_units: match &c.chosen {
                Some(BranchMachine::Correlated(m)) => {
                    let per_path: usize = m.paths.iter().map(|(p, _)| p.len().max(1)).sum();
                    per_path
                }
                _ => 0,
            },
        })
        .collect();

    let cost_of = |step: &Step, loops: &HashMap<(FuncId, BlockId), LoopInfo>| -> f64 {
        match loop_of_site.get(&step.site) {
            Some(key) => {
                // Same-loop machines multiply: going from product P to
                // P * states adds (states - 1) * P copies of the loop.
                let info = loops[key];
                info.size_units as f64 * info.product as f64 * (step.states as f64 - 1.0)
            }
            None => {
                // Tail duplication: roughly one copy of the branch block
                // per path step.
                let bs = site_block_units.get(&step.site).copied().unwrap_or(4);
                (step.correlated_block_units.max(1) * bs) as f64
            }
        }
    };

    let mut curve = GreedyCurve::default();
    let mut misses = selection.profile_misses();
    let mut size = base_size;
    let total = trace_len.max(1) as f64;
    curve.points.push(CurvePoint {
        size_factor: 1.0,
        misprediction_percent: 100.0 * misses as f64 / total,
        machines_enabled: 0,
    });

    let mut enabled = 0usize;
    while !steps.is_empty() {
        // Pick the best benefit/cost step under current loop products.
        let (idx, _) = steps
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let c = cost_of(s, &loops).max(1e-9);
                (i, s.benefit as f64 / c)
            })
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .expect("steps not empty");
        let step = steps.swap_remove(idx);
        let cost = cost_of(&step, &loops);
        if let Some(key) = loop_of_site.get(&step.site) {
            let info = loops.get_mut(key).expect("loop recorded");
            info.product *= step.states as u64;
        }
        size += cost;
        misses -= step.benefit;
        enabled += 1;
        curve.order.push(step.site);
        curve.points.push(CurvePoint {
            size_factor: size / base_size,
            misprediction_percent: 100.0 * misses as f64 / total,
            machines_enabled: enabled,
        });
    }
    curve
}

impl GreedyCurve {
    /// The branches (in greedy order) whose cumulative estimated size stays
    /// within `max_factor` — the set a size-budgeted optimizer would
    /// replicate.
    pub fn sites_within_budget(&self, max_factor: f64) -> Vec<brepl_ir::BranchId> {
        self.points
            .iter()
            .skip(1)
            .zip(&self.order)
            .take_while(|(p, _)| p.size_factor <= max_factor)
            .map(|(_, &site)| site)
            .collect()
    }
}

/// Convenience wrapper: runs selection then builds the curve.
pub fn greedy_curve(module: &Module, trace: &Trace, max_states: usize) -> GreedyCurve {
    let selection = select_strategies(module, trace, max_states);
    greedy_curve_from_selection(module, &selection, trace.len() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use brepl_ir::{FunctionBuilder, Operand, Value};
    use brepl_sim::{Machine as Sim, RunConfig};

    fn alternating_module() -> Module {
        let mut b = FunctionBuilder::new("main", 1);
        let n = b.param(0);
        let i = b.reg();
        b.const_int(i, 0);
        let head = b.new_block();
        let even = b.new_block();
        let odd = b.new_block();
        let latch = b.new_block();
        let exit = b.new_block();
        b.jmp(head);
        b.switch_to(head);
        let r = b.reg();
        b.rem(r, i.into(), Operand::imm(2));
        let c = b.eq(r.into(), Operand::imm(0));
        b.br(c, even, odd);
        b.switch_to(even);
        b.jmp(latch);
        b.switch_to(odd);
        b.jmp(latch);
        b.switch_to(latch);
        b.add(i, i.into(), Operand::imm(1));
        let c2 = b.lt(i.into(), n.into());
        b.br(c2, head, exit);
        b.switch_to(exit);
        b.ret(Some(i.into()));
        let mut m = Module::new();
        m.push_function(b.finish());
        m
    }

    #[test]
    fn curve_starts_at_profile_and_descends() {
        let m = alternating_module();
        let t = Sim::new(&m, RunConfig::default())
            .unwrap()
            .run("main", &[Value::Int(200)])
            .unwrap()
            .trace;
        let curve = greedy_curve(&m, &t, 4);
        assert!(curve.points.len() >= 2, "at least one improvement step");
        assert_eq!(curve.points[0].size_factor, 1.0);
        // Monotone: misprediction never rises, size never falls.
        for w in curve.points.windows(2) {
            assert!(w[1].misprediction_percent <= w[0].misprediction_percent);
            assert!(w[1].size_factor >= w[0].size_factor);
        }
        // The alternating branch dominates: final rate near zero.
        assert!(curve.best_misprediction() < 1.0);
        assert!(curve.points[0].misprediction_percent > 20.0);
    }

    #[test]
    fn sites_within_budget_tracks_order() {
        let m = alternating_module();
        let t = Sim::new(&m, RunConfig::default())
            .unwrap()
            .run("main", &[Value::Int(200)])
            .unwrap()
            .trace;
        let curve = greedy_curve(&m, &t, 4);
        assert_eq!(curve.order.len() + 1, curve.points.len());
        // An infinite budget enables everything; a 1.0 budget nothing.
        assert_eq!(
            curve.sites_within_budget(f64::INFINITY).len(),
            curve.order.len()
        );
        assert!(curve.sites_within_budget(1.0).is_empty());
        // Budgets are monotone.
        let a = curve.sites_within_budget(1.5).len();
        let b = curve.sites_within_budget(2.5).len();
        assert!(a <= b);
    }

    #[test]
    fn size_budget_lookup() {
        let m = alternating_module();
        let t = Sim::new(&m, RunConfig::default())
            .unwrap()
            .run("main", &[Value::Int(100)])
            .unwrap()
            .trace;
        let curve = greedy_curve(&m, &t, 4);
        let p = curve.at_size_budget(1.0).unwrap();
        assert_eq!(p.machines_enabled, 0);
        let all = curve.at_size_budget(f64::INFINITY).unwrap();
        assert_eq!(
            all.machines_enabled,
            curve.points.last().unwrap().machines_enabled
        );
    }

    #[test]
    fn same_loop_machines_multiply_cost() {
        let m = alternating_module();
        let t = Sim::new(&m, RunConfig::default())
            .unwrap()
            .run("main", &[Value::Int(200)])
            .unwrap()
            .trace;
        let sel = select_strategies(&m, &t, 4);
        let curve = greedy_curve_from_selection(&m, &sel, t.len() as u64);
        // If both loop branches get machines, the second one costs more
        // than the first (the loop already multiplied).
        if curve.points.len() >= 3 {
            let d1 = curve.points[1].size_factor - curve.points[0].size_factor;
            let d2 = curve.points[2].size_factor - curve.points[1].size_factor;
            assert!(d2 >= d1 * 0.99, "second same-loop step at least as costly");
        }
    }
}
