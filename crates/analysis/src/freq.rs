//! Static profile estimation: heuristic branch probabilities and
//! Wu–Larus frequency propagation — the fourth static layer.
//!
//! [`estimate_profile`] assigns every conditional branch a taken
//! probability and every block an expected execution frequency *without
//! running the program*:
//!
//! 1. **Branch probabilities.** The classify layer's proofs are promoted
//!    to exact rationals ([`DirectionClass::ProvedMonostatic`] → `1/1` or
//!    `0/1`, [`DirectionClass::BoundedBias`] → `num/den`). Everything
//!    else gets Ball–Larus heuristic evidence — loop back-edge, opcode,
//!    call, return, store and guard — combined Wu–Larus-style with the
//!    Dempster–Shafer rule `p = p₁p₂ / (p₁p₂ + (1−p₁)(1−p₂))`.
//! 2. **Frequency propagation.** Loops are processed innermost-first:
//!    per unit of flow entering a loop header, one local propagation over
//!    the loop body (inner headers contribute through their
//!    already-known multipliers) yields the loop's *exit-edge mass*, and
//!    the cyclic probability is its complement, `cp = 1 − exit_mass`.
//!    A final pass over the whole function in reverse postorder —
//!    skipping back edges, multiplying each header's entry mass by
//!    `1/(1−cp)` — produces the block and edge frequencies.
//! 3. **Call-graph scaling.** A bounded relaxation over call-site mass
//!    turns per-entry function frequencies into whole-program site
//!    frequencies (`main` = 1 entry; recursion is capped, never spun).
//!
//! The result is machine-checkable: at the fixpoint every block's
//! in-edge mass (plus 1 for the entry) equals its frequency —
//! [`StaticProfile::check_conservation`] verifies exactly that, and the
//! drift gate ([`static_profile_diags`]) turns violations into `BR021`.
//! The propagation is metered like SCCP's fixpoint and **fails closed**:
//! irreducible control flow or a blown step budget withholds every
//! estimate for the function (`BR022`) instead of shipping garbage.
//!
//! Against a measured trace the gate also checks every *exact* bias
//! estimate in integer arithmetic (`BR019`) and that no mass was
//! assigned to proved-unreachable sites (`BR020`). Heuristic estimates
//! are *never* gated — their drift against measurement is data (the
//! `gates` bench reports it), not corruption: a heuristic being
//! wrong about an input-dependent branch is precisely the hard-branch
//! taxonomy the estimate cannot see.

use brepl_cfg::{reverse_postorder, Cfg, ClassifiedBranches, DomTree, LoopForest, LoopId};
use brepl_ir::{BlockId, BranchId, CmpOp, FuncId, Inst, Loc, Module, Operand, Term, Value};
use brepl_trace::TraceStats;

use crate::classify::{Classification, DirectionClass};
use crate::diag::{AnalysisDiag, DiagCode};
use crate::solver::default_solve_budget;

/// Ball–Larus heuristic confidences (probability that the branch goes
/// the direction the heuristic predicts). The values are the ones
/// Wu–Larus report from the Ball–Larus measurements.
mod confidence {
    /// Loop branch: the direction staying in (or re-entering) the loop.
    pub const LOOP: f64 = 0.88;
    /// Opcode: equality tests fail, negative/pointer-like compares fail.
    pub const OPCODE: f64 = 0.84;
    /// Call: the successor leading to a call is avoided.
    pub const CALL: f64 = 0.78;
    /// Return: the successor that returns immediately is avoided.
    pub const RETURN: f64 = 0.72;
    /// Store: the successor containing a store is avoided.
    pub const STORE: f64 = 0.55;
    /// Guard: a condition register re-used in the taken successor holds.
    pub const GUARD: f64 = 0.62;
}

/// Heuristic cyclic probabilities are capped here so an unproved loop
/// never claims an unbounded trip count (multiplier ≤ 50).
const MAX_HEURISTIC_CP: f64 = 0.98;

/// Call-graph relaxation passes and the cap on any function's entry
/// count — recursion saturates instead of spinning.
const CALL_SCALE_PASSES: usize = 8;
const MAX_CALL_SCALE: f64 = 1e12;

/// Relative tolerance of the flow-conservation check. The propagation
/// is plain f64 arithmetic, so exact equality is only approximate.
pub const CONSERVATION_EPS: f64 = 1e-6;

/// How confident one bias estimate is.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum BiasEstimate {
    /// The taken-rate is *proved* to be exactly `num / den` (promoted
    /// from the classify layer). Checkable against a measured trace in
    /// integer arithmetic — the `BR019` trust base.
    Exact {
        /// Numerator of the exact taken-rate.
        num: u64,
        /// Denominator of the exact taken-rate.
        den: u64,
    },
    /// Heuristic evidence only; the probability is a guess and is never
    /// gated against measurement.
    Heuristic(f64),
}

impl BiasEstimate {
    /// The estimated taken-probability as a float.
    pub fn prob(&self) -> f64 {
        match self {
            BiasEstimate::Exact { num, den } => *num as f64 / (*den).max(1) as f64,
            BiasEstimate::Heuristic(p) => *p,
        }
    }

    /// True for proof-backed exact estimates.
    pub fn is_exact(&self) -> bool {
        matches!(self, BiasEstimate::Exact { .. })
    }
}

/// One branch site's static estimate.
#[derive(Clone, Debug)]
pub struct SiteEstimate {
    /// The branch site.
    pub site: BranchId,
    /// The function holding the branch.
    pub func: FuncId,
    /// The block whose terminator is the branch.
    pub block: BlockId,
    /// The taken-bias estimate.
    pub bias: BiasEstimate,
    /// Expected executions of the site per whole-program run
    /// (call-graph-scaled block frequency).
    pub freq: f64,
}

/// Per-function frequency estimates, in per-entry units.
#[derive(Clone, Debug)]
pub struct FuncProfile {
    /// Expected executions of each block per function entry.
    pub bfreq: Vec<f64>,
    /// Expected flow along each out-edge, aligned with
    /// `Cfg::succs(block)` slot order.
    pub efreq: Vec<Vec<f64>>,
    /// Estimated taken-probability per block holding a branch
    /// (1.0-sized map: `prob[b]` is meaningful only for branch blocks).
    pub prob: Vec<f64>,
    /// Estimated whole-program entries of this function.
    pub call_scale: f64,
    /// False when the propagation failed closed (irreducible flow or a
    /// blown budget): every frequency above is zeroed and no claim is
    /// made (`BR022`).
    pub converged: bool,
}

/// The whole-module static profile.
#[derive(Clone, Debug)]
pub struct StaticProfile {
    /// Per-function estimates, indexed by `FuncId`.
    pub funcs: Vec<FuncProfile>,
    /// Per-site estimates, in function/block order.
    pub sites: Vec<SiteEstimate>,
    /// Functions whose propagation failed closed.
    pub unconverged_funcs: Vec<FuncId>,
}

impl StaticProfile {
    /// Looks up one site's estimate.
    pub fn by_site(&self, site: BranchId) -> Option<&SiteEstimate> {
        self.sites.iter().find(|s| s.site == site)
    }

    /// True when every function's propagation converged.
    pub fn converged(&self) -> bool {
        self.unconverged_funcs.is_empty()
    }

    /// Counts `(exact, heuristic)` site estimates.
    pub fn counts(&self) -> (usize, usize) {
        let mut c = (0, 0);
        for s in &self.sites {
            if s.bias.is_exact() {
                c.0 += 1;
            } else {
                c.1 += 1;
            }
        }
        c
    }

    /// Checks the flow-conservation invariant: for every block of every
    /// converged function, in-edge mass (plus 1 for the entry) equals
    /// the block frequency within [`CONSERVATION_EPS`] relative
    /// tolerance. Returns the violations as `(func, block, |error|)`.
    ///
    /// An honest [`estimate_profile`] output passes by construction —
    /// the fuzz oracle asserts exactly that — so any violation means the
    /// profile was corrupted after the fact (`BR021`).
    pub fn check_conservation(&self, module: &Module) -> Vec<(FuncId, BlockId, f64)> {
        let mut violations = Vec::new();
        for (fid, func) in module.iter_functions() {
            let fp = &self.funcs[fid.index()];
            if !fp.converged {
                continue;
            }
            let cfg = Cfg::new(func);
            // In-mass per block from the stored edge frequencies.
            let mut in_mass = vec![0.0f64; cfg.len()];
            for b in cfg.blocks() {
                for (slot, &s) in cfg.succs(b).iter().enumerate() {
                    in_mass[s.index()] += fp.efreq[b.index()][slot];
                }
            }
            in_mass[cfg.entry().index()] += 1.0;
            // Back edges re-inject header mass; at the fixpoint the sum
            // still matches because the header multiplier accounts for
            // it — conservation holds for *every* block.
            for b in cfg.blocks() {
                let got = fp.bfreq[b.index()];
                let want = in_mass[b.index()];
                let err = (got - want).abs();
                if err > CONSERVATION_EPS * want.abs().max(1.0) {
                    violations.push((fid, b, err));
                }
            }
        }
        violations
    }
}

/// Dempster–Shafer combination of two "the branch is taken" evidences.
fn combine(p1: f64, p2: f64) -> f64 {
    let num = p1 * p2;
    let den = num + (1.0 - p1) * (1.0 - p2);
    if den <= f64::EPSILON {
        0.5
    } else {
        num / den
    }
}

/// True when the successor block reads the branch's condition register —
/// the guard-heuristic trigger (`if (x) use(x)` guards succeed).
fn block_uses_reg(func: &brepl_ir::Function, b: BlockId, reg: brepl_ir::Reg) -> bool {
    let mut used = false;
    for i in &func.block(b).insts {
        i.for_each_use(|o| {
            if o.reg() == Some(reg) {
                used = true;
            }
        });
    }
    used
}

/// The heuristic taken-probability for one branch, before any proof
/// promotion. Each applicable heuristic contributes its confidence via
/// Dempster–Shafer combination, starting from the uninformed 0.5.
fn heuristic_prob(
    func: &brepl_ir::Function,
    info: &brepl_cfg::BranchInfo,
    forest: &LoopForest,
) -> f64 {
    let mut p = 0.5f64;

    // Loop heuristic: prefer the direction that is a back edge, or that
    // stays inside the innermost loop when the other side leaves it.
    if info.taken_is_back_edge {
        p = combine(p, confidence::LOOP);
    } else if info
        .innermost_loop
        .map(|l| {
            forest
                .get(l)
                .back_edges
                .iter()
                .any(|&(t, h)| t == info.block && h == info.else_)
        })
        .unwrap_or(false)
    {
        p = combine(p, 1.0 - confidence::LOOP);
    } else if info.then_in_loop && !info.else_in_loop {
        p = combine(p, confidence::LOOP);
    } else if info.else_in_loop && !info.then_in_loop {
        p = combine(p, 1.0 - confidence::LOOP);
    }

    // Opcode heuristic: equality comparisons fail, comparisons against
    // negative immediates fail. The condition is located by scanning the
    // branch block for the compare defining the condition register.
    let block = func.block(info.block);
    if let Term::Br { cond, .. } = &block.term {
        if let Some(creg) = cond.reg() {
            for inst in block.insts.iter().rev() {
                if inst.def() != Some(creg) {
                    continue;
                }
                if let Inst::Cmp { op, rhs, .. } = inst {
                    let neg_imm = matches!(rhs, Operand::Imm(Value::Int(k)) if *k < 0);
                    match op {
                        CmpOp::Eq => p = combine(p, 1.0 - confidence::OPCODE),
                        CmpOp::Ne => p = combine(p, confidence::OPCODE),
                        CmpOp::Lt | CmpOp::Le if neg_imm => {
                            p = combine(p, 1.0 - confidence::OPCODE)
                        }
                        _ => {}
                    }
                }
                break;
            }
            // Guard heuristic: the taken successor re-uses the condition
            // register (and the other side does not).
            let then_uses = block_uses_reg(func, info.then_, creg);
            let else_uses = block_uses_reg(func, info.else_, creg);
            if then_uses && !else_uses {
                p = combine(p, confidence::GUARD);
            } else if else_uses && !then_uses {
                p = combine(p, 1.0 - confidence::GUARD);
            }
        }
    }

    // Call heuristic: avoid the side that calls.
    let then_calls = func.block(info.then_).has_call();
    let else_calls = func.block(info.else_).has_call();
    if then_calls && !else_calls {
        p = combine(p, 1.0 - confidence::CALL);
    } else if else_calls && !then_calls {
        p = combine(p, confidence::CALL);
    }

    // Return heuristic: avoid the side that returns immediately.
    let then_rets = func.block(info.then_).returns();
    let else_rets = func.block(info.else_).returns();
    if then_rets && !else_rets {
        p = combine(p, 1.0 - confidence::RETURN);
    } else if else_rets && !then_rets {
        p = combine(p, confidence::RETURN);
    }

    // Store heuristic: avoid the side that stores.
    let then_stores = func.block(info.then_).has_store();
    let else_stores = func.block(info.else_).has_store();
    if then_stores && !else_stores {
        p = combine(p, 1.0 - confidence::STORE);
    } else if else_stores && !then_stores {
        p = combine(p, confidence::STORE);
    }

    // The clamp ceiling must not exceed MAX_HEURISTIC_CP: a loop header
    // whose stay-in-loop probability beats the cyclic-probability cap
    // would make the capped header multiplier disagree with the stored
    // edge probabilities, and the profile would violate its own
    // flow-conservation invariant (a false BR021 on honest input-drain
    // loops, where the loop, opcode and return heuristics all agree).
    p.clamp(1.0 - MAX_HEURISTIC_CP, MAX_HEURISTIC_CP)
}

/// Per-function propagation state shared by the loop-local passes and
/// the final whole-function pass.
struct Propagation<'a> {
    cfg: &'a Cfg,
    forest: &'a LoopForest,
    rpo: &'a [BlockId],
    rpo_pos: Vec<usize>,
    /// Taken-probability per block (branch blocks only; 1.0 elsewhere).
    prob: Vec<f64>,
    /// Cyclic probability per loop, filled innermost-first.
    cp: Vec<f64>,
    steps: u64,
    budget: u64,
}

impl<'a> Propagation<'a> {
    /// The flow fraction block `b` sends down successor slot `slot`.
    fn slot_prob(&self, b: BlockId, slot: usize, nsuccs: usize) -> f64 {
        if nsuccs <= 1 {
            1.0
        } else if slot == 0 {
            self.prob[b.index()]
        } else {
            1.0 - self.prob[b.index()]
        }
    }

    /// Propagates one unit of flow from `root` through `region` (`None`
    /// = the whole function), skipping every back edge and multiplying
    /// loop-header in-mass by the header's `1/(1-cp)`. Returns per-block
    /// frequencies, or `None` when the region is irreducible (an edge
    /// retreats in RPO without being a natural back edge) or the step
    /// budget runs out — the caller fails closed.
    fn propagate(&mut self, root: BlockId, region: Option<LoopId>) -> Option<Vec<f64>> {
        let n = self.cfg.len();
        let mut freq = vec![0.0f64; n];
        let in_region = |b: BlockId, forest: &LoopForest| match region {
            None => true,
            Some(l) => forest.get(l).contains(b),
        };
        for &b in self.rpo {
            if !in_region(b, self.forest) {
                continue;
            }
            self.steps += 1;
            if self.steps > self.budget {
                return None;
            }
            let mut mass = 0.0f64;
            if b == root {
                mass = 1.0;
            } else {
                for &p in self.cfg.preds(b) {
                    if !in_region(p, self.forest) {
                        continue;
                    }
                    if self.is_back_edge(p, b) {
                        continue;
                    }
                    // A retreating edge that is not a natural back edge
                    // means irreducible flow: fail closed.
                    if self.rpo_pos[p.index()] >= self.rpo_pos[b.index()] {
                        return None;
                    }
                    let succs = self.cfg.succs(p);
                    for (slot, &s) in succs.iter().enumerate() {
                        if s == b {
                            mass += freq[p.index()] * self.slot_prob(p, slot, succs.len());
                        }
                    }
                }
            }
            // A loop header inside the region (not the root itself)
            // multiplies its entry mass by the loop's already-computed
            // cyclic factor; unknown (not yet computed) cp of an *outer*
            // loop cannot occur because loops are processed inner-first.
            if let Some(l) = self.forest.innermost(b) {
                if self.forest.get(l).header == b && b != root {
                    let cp = self.cp[l.index()];
                    mass /= (1.0 - cp).max(1e-12);
                }
            }
            freq[b.index()] = mass;
        }
        Some(freq)
    }

    /// True when `from -> to` is a back edge of any natural loop.
    fn is_back_edge(&self, from: BlockId, to: BlockId) -> bool {
        self.forest
            .loops()
            .iter()
            .any(|lp| lp.back_edges.iter().any(|&(t, h)| t == from && h == to))
    }
}

/// Estimates the whole-module static profile. `cls` supplies the
/// direction proofs to promote; pass the output of
/// [`crate::classify_module`] on the same module.
pub fn estimate_profile(module: &Module, cls: &Classification) -> StaticProfile {
    let mut funcs = Vec::new();
    let mut sites = Vec::new();
    let mut unconverged_funcs = Vec::new();

    for (fid, func) in module.iter_functions() {
        let cfg = Cfg::new(func);
        let dom = DomTree::new(&cfg);
        let forest = LoopForest::new(&cfg, &dom);
        let branches = ClassifiedBranches::analyze(func, &forest);
        let n = cfg.len();

        // Per-block taken probability, proofs first.
        let mut prob = vec![1.0f64; n];
        let mut bias: Vec<Option<(BlockId, BranchId, BiasEstimate)>> = Vec::new();
        for info in branches.branches() {
            let est = match cls.by_site(info.site).map(|s| s.class) {
                Some(DirectionClass::ProvedMonostatic(d)) => BiasEstimate::Exact {
                    num: u64::from(d),
                    den: 1,
                },
                Some(DirectionClass::BoundedBias { num, den }) => BiasEstimate::Exact { num, den },
                _ => BiasEstimate::Heuristic(heuristic_prob(func, info, &forest)),
            };
            prob[info.block.index()] = est.prob();
            bias.push(Some((info.block, info.site, est)));
        }

        let rpo = reverse_postorder(&cfg);
        let mut rpo_pos = vec![usize::MAX; n];
        for (i, &b) in rpo.iter().enumerate() {
            rpo_pos[b.index()] = i;
        }

        let mut prop = Propagation {
            cfg: &cfg,
            forest: &forest,
            rpo: &rpo,
            rpo_pos,
            prob: prob.clone(),
            cp: vec![0.0; forest.loops().len()],
            steps: 0,
            budget: default_solve_budget(n),
        };

        // Loops innermost-first (deeper first; ties are fine because a
        // loop never contains a same-depth sibling).
        let mut loop_order: Vec<usize> = (0..forest.loops().len()).collect();
        loop_order.sort_by_key(|&i| std::cmp::Reverse(forest.loops()[i].depth));
        let mut ok = true;
        for li in loop_order {
            let lp = &forest.loops()[li];
            let header = lp.header;
            let Some(local) = prop.propagate(header, Some(LoopId(li as u32))) else {
                ok = false;
                break;
            };
            // Exit-edge mass per unit entering the header; the cyclic
            // probability is its complement.
            let mut exit_mass = 0.0f64;
            for &(from, to) in &lp.exit_edges {
                let succs = cfg.succs(from);
                for (slot, &s) in succs.iter().enumerate() {
                    if s == to {
                        exit_mass += local[from.index()] * prop.slot_prob(from, slot, succs.len());
                    }
                }
            }
            let mut cp = (1.0 - exit_mass).clamp(0.0, 1.0);
            // Proof-less loops are capped; a header with an exact bias
            // proof may claim its exact multiplier (den executions of
            // the test per entry), still finite.
            let header_exact = branches
                .branches()
                .iter()
                .find(|i| i.block == header)
                .and_then(|i| cls.by_site(i.site))
                .map(|s| matches!(s.class, DirectionClass::BoundedBias { .. }))
                .unwrap_or(false);
            if !header_exact {
                cp = cp.min(MAX_HEURISTIC_CP);
            } else if cp >= 1.0 - 1e-12 {
                // Even a "proved" loop may not claim infinity.
                cp = 1.0 - 1e-12;
            }
            prop.cp[li] = cp;
        }

        let freq = if ok {
            prop.propagate(func.entry, None)
        } else {
            None
        };

        match freq {
            Some(bfreq) if bfreq.iter().all(|f| f.is_finite()) => {
                let mut efreq: Vec<Vec<f64>> = Vec::with_capacity(n);
                for b in cfg.blocks() {
                    let succs = cfg.succs(b);
                    let row: Vec<f64> = succs
                        .iter()
                        .enumerate()
                        .map(|(slot, _)| bfreq[b.index()] * prop.slot_prob(b, slot, succs.len()))
                        .collect();
                    efreq.push(row);
                }
                for entry in bias.into_iter().flatten() {
                    let (block, site, est) = entry;
                    sites.push(SiteEstimate {
                        site,
                        func: fid,
                        block,
                        bias: est,
                        freq: bfreq[block.index()],
                    });
                }
                funcs.push(FuncProfile {
                    bfreq,
                    efreq,
                    prob,
                    call_scale: 0.0,
                    converged: true,
                });
            }
            _ => {
                // Fail closed: zero everything, claim nothing.
                funcs.push(FuncProfile {
                    bfreq: vec![0.0; n],
                    efreq: cfg
                        .blocks()
                        .map(|b| vec![0.0; cfg.succs(b).len()])
                        .collect(),
                    prob,
                    call_scale: 0.0,
                    converged: false,
                });
                unconverged_funcs.push(fid);
            }
        }
    }

    // Call-graph scaling: bounded relaxation of entry counts, main = 1.
    let nf = funcs.len();
    let mut scale = vec![0.0f64; nf];
    let main = module.function_by_name("main");
    if let Some(m) = main {
        scale[m.index()] = 1.0;
    }
    for _ in 0..CALL_SCALE_PASSES {
        let mut next = vec![0.0f64; nf];
        if let Some(m) = main {
            next[m.index()] = 1.0;
        }
        for (fid, func) in module.iter_functions() {
            let fp = &funcs[fid.index()];
            if !fp.converged || scale[fid.index()] <= 0.0 {
                continue;
            }
            for (bid, block) in func.iter_blocks() {
                for inst in &block.insts {
                    if let Inst::Call { callee, .. } = inst {
                        if let Some(g) = module.function_by_name(callee) {
                            next[g.index()] += scale[fid.index()] * fp.bfreq[bid.index()];
                        }
                    }
                }
            }
        }
        for v in &mut next {
            *v = v.min(MAX_CALL_SCALE);
        }
        scale = next;
    }
    for (i, fp) in funcs.iter_mut().enumerate() {
        fp.call_scale = scale[i];
    }
    for s in &mut sites {
        s.freq *= scale[s.func.index()].max(if main.is_none() { 1.0 } else { 0.0 });
        if !s.freq.is_finite() {
            s.freq = MAX_CALL_SCALE;
        }
    }

    StaticProfile {
        funcs,
        sites,
        unconverged_funcs,
    }
}

/// The estimate-vs-measured drift gate. Checks `profile` against a
/// measured trace (`stats`) and the direction proofs (`cls`):
///
/// * `BR019` — a site with an *exact* bias estimate whose measured
///   taken-count violates the rational (integer arithmetic, any event
///   count). Exact estimates are proof-promoted, so an honest trace can
///   never fire this: a hit means the trace or the stored estimate was
///   tampered with. Attributed to the site for per-site quarantine.
/// * `BR020` — positive estimated frequency at a site proved
///   unreachable.
/// * `BR021` — a flow-conservation violation inside the stored profile.
/// * `BR022` — one per function whose propagation failed closed.
pub fn static_profile_diags(
    module: &Module,
    cls: &Classification,
    profile: &StaticProfile,
    stats: &TraceStats,
) -> Vec<AnalysisDiag> {
    let mut diags = Vec::new();
    for &fid in &profile.unconverged_funcs {
        diags.push(AnalysisDiag::new(
            DiagCode::EstimateFixpointFailure,
            Loc::block(fid, module.function(fid).entry),
            "frequency propagation failed closed (irreducible flow or blown budget); \
             estimates for this function withheld",
        ));
    }
    for (fid, block, err) in profile.check_conservation(module) {
        diags.push(AnalysisDiag::new(
            DiagCode::EstimateConservationViolation,
            Loc::block(fid, block),
            format!("static profile violates flow conservation by {err:.3e}"),
        ));
    }
    for s in &profile.sites {
        let loc = Loc::term(s.func, s.block);
        if let Some(sc) = cls.by_site(s.site) {
            if !sc.reachable && s.freq > CONSERVATION_EPS {
                diags.push(
                    AnalysisDiag::new(
                        DiagCode::EstimateUnreachableMass,
                        loc,
                        format!(
                            "static profile assigns frequency {:.3} to a branch proved unreachable",
                            s.freq
                        ),
                    )
                    .with_site(s.site),
                );
                continue;
            }
        }
        if let BiasEstimate::Exact { num, den } = s.bias {
            let counts = stats.site(s.site);
            let total = counts.total() as u128;
            if total > 0 && counts.taken as u128 * den as u128 != total * num as u128 {
                diags.push(
                    AnalysisDiag::new(
                        DiagCode::EstimateDriftConflict,
                        loc,
                        format!(
                            "measured {}/{} taken contradicts the exact static estimate {num}/{den}",
                            counts.taken,
                            counts.total(),
                        ),
                    )
                    .with_site(s.site),
                );
            }
        }
    }
    diags
}

/// Mean absolute estimated-vs-measured taken-bias error over the sites
/// the trace actually executed — the `gates` bench's estimate-section
/// headline number. Returns `(mean_abs_error, sites_compared)`.
pub fn bias_error(profile: &StaticProfile, stats: &TraceStats) -> (f64, usize) {
    let mut sum = 0.0f64;
    let mut n = 0usize;
    for s in &profile.sites {
        let counts = stats.site(s.site);
        if counts.total() == 0 {
            continue;
        }
        let measured = counts.taken as f64 / counts.total() as f64;
        sum += (measured - s.bias.prob()).abs();
        n += 1;
    }
    (if n == 0 { 0.0 } else { sum / n as f64 }, n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::classify_module;
    use brepl_ir::{FunctionBuilder, Module, Operand};
    use brepl_trace::{Trace, TraceEvent};

    /// `main` with one counted loop `for i in 0..trip` and one inner
    /// random diamond — one exact header bias, one heuristic site.
    fn counted_loop_module(trip: i64) -> Module {
        let mut b = FunctionBuilder::new("main", 0);
        let head = b.new_block();
        let body = b.new_block();
        let inner_t = b.new_block();
        let latch = b.new_block();
        let exit = b.new_block();
        let i = b.reg();
        b.const_int(i, 0);
        b.jmp(head);
        b.switch_to(head);
        let c = b.lt(Operand::Reg(i), Operand::imm(trip));
        b.br(c, body, exit); // site 0: exact trip/(trip+1)
        b.switch_to(body);
        let r = b.rand(Operand::imm(2));
        b.br(r, inner_t, latch); // site 1: heuristic
        b.switch_to(inner_t);
        b.jmp(latch);
        b.switch_to(latch);
        b.add(i, Operand::Reg(i), Operand::imm(1));
        b.jmp(head);
        b.switch_to(exit);
        b.ret(None);
        let mut m = Module::new();
        m.push_function(b.finish());
        m.renumber_branches();
        m
    }

    #[test]
    fn dempster_shafer_combination_laws() {
        // Identity at 0.5, symmetry, reinforcement.
        assert!((combine(0.5, 0.8) - 0.8).abs() < 1e-12);
        assert!((combine(0.8, 0.5) - 0.8).abs() < 1e-12);
        assert!(combine(0.8, 0.8) > 0.8);
        assert!(combine(0.2, 0.2) < 0.2);
        // Opposing evidence of equal strength cancels.
        assert!((combine(0.8, 0.2) - 0.5).abs() < 1e-12);
        // Degenerate input stays defined.
        assert!((combine(0.0, 1.0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn counted_loop_gets_exact_bias_and_right_frequencies() {
        let m = counted_loop_module(100);
        let cls = classify_module(&m);
        let p = estimate_profile(&m, &cls);
        assert!(p.converged());
        let head = p.by_site(brepl_ir::BranchId(0)).unwrap();
        assert_eq!(head.bias, BiasEstimate::Exact { num: 100, den: 101 });
        // The header runs trip+1 times per program run.
        assert!(
            (head.freq - 101.0).abs() < 1e-6 * 101.0,
            "header freq {} != 101",
            head.freq
        );
        // The inner branch runs once per iteration.
        let inner = p.by_site(brepl_ir::BranchId(1)).unwrap();
        assert!(matches!(inner.bias, BiasEstimate::Heuristic(_)));
        assert!(
            (inner.freq - 100.0).abs() < 1e-6 * 100.0,
            "inner freq {} != 100",
            inner.freq
        );
        assert_eq!(p.counts(), (1, 1));
    }

    #[test]
    fn conservation_holds_and_detects_corruption() {
        let m = counted_loop_module(17);
        let cls = classify_module(&m);
        let mut p = estimate_profile(&m, &cls);
        assert!(p.check_conservation(&m).is_empty());
        // Corrupt one block frequency: the invariant catches it.
        p.funcs[0].bfreq[2] += 1.0;
        assert!(!p.check_conservation(&m).is_empty());
    }

    #[test]
    fn honest_trace_passes_the_drift_gate() {
        let m = counted_loop_module(3);
        let cls = classify_module(&m);
        let p = estimate_profile(&m, &cls);
        // One loop entry: head taken 3/4, inner arbitrary.
        let mut t = Trace::new();
        for n in 0..4u32 {
            t.push(TraceEvent {
                site: brepl_ir::BranchId(0),
                taken: n < 3,
            });
            if n < 3 {
                t.push(TraceEvent {
                    site: brepl_ir::BranchId(1),
                    taken: n % 2 == 0,
                });
            }
        }
        let diags = static_profile_diags(&m, &cls, &p, &t.stats());
        assert!(diags.is_empty(), "unexpected diags: {diags:?}");
    }

    #[test]
    fn forged_estimate_fires_br019_alone() {
        let m = counted_loop_module(3);
        let cls = classify_module(&m);
        let mut p = estimate_profile(&m, &cls);
        // Perturb the exact estimate at the header — the honest trace
        // now contradicts it.
        for s in &mut p.sites {
            if s.site == brepl_ir::BranchId(0) {
                s.bias = BiasEstimate::Exact { num: 1, den: 2 };
            }
        }
        let mut t = Trace::new();
        for n in 0..4u32 {
            t.push(TraceEvent {
                site: brepl_ir::BranchId(0),
                taken: n < 3,
            });
        }
        let diags = static_profile_diags(&m, &cls, &p, &t.stats());
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, DiagCode::EstimateDriftConflict);
        assert_eq!(diags[0].site, Some(brepl_ir::BranchId(0)));
    }

    #[test]
    fn heuristic_sites_never_fire_br019() {
        let m = counted_loop_module(3);
        let cls = classify_module(&m);
        let p = estimate_profile(&m, &cls);
        // A wildly drifted heuristic site: all taken although the
        // estimate is near 0.5. Data, not a diagnostic.
        let mut t = Trace::new();
        for _ in 0..100 {
            t.push(TraceEvent {
                site: brepl_ir::BranchId(1),
                taken: true,
            });
        }
        let diags = static_profile_diags(&m, &cls, &p, &t.stats());
        assert!(diags.is_empty(), "heuristic drift must not gate: {diags:?}");
        let (err, n) = bias_error(&p, &t.stats());
        assert_eq!(n, 1);
        assert!(err > 0.3, "drift should be visible as data: {err}");
    }

    #[test]
    fn nested_loops_multiply() {
        // for i in 0..10 { for j in 0..5 { } } — inner header runs
        // 10 * 6 = 60 times, inner body 50 times.
        let mut b = FunctionBuilder::new("main", 0);
        let ohead = b.new_block();
        let obody = b.new_block();
        let ihead = b.new_block();
        let ibody = b.new_block();
        let olatch = b.new_block();
        let exit = b.new_block();
        let i = b.reg();
        let j = b.reg();
        b.const_int(i, 0);
        b.jmp(ohead);
        b.switch_to(ohead);
        let c = b.lt(Operand::Reg(i), Operand::imm(10));
        b.br(c, obody, exit);
        b.switch_to(obody);
        b.const_int(j, 0);
        b.jmp(ihead);
        b.switch_to(ihead);
        let c2 = b.lt(Operand::Reg(j), Operand::imm(5));
        b.br(c2, ibody, olatch);
        b.switch_to(ibody);
        b.add(j, Operand::Reg(j), Operand::imm(1));
        b.jmp(ihead);
        b.switch_to(olatch);
        b.add(i, Operand::Reg(i), Operand::imm(1));
        b.jmp(ohead);
        b.switch_to(exit);
        b.ret(None);
        let mut m = Module::new();
        m.push_function(b.finish());
        m.renumber_branches();

        let cls = classify_module(&m);
        let p = estimate_profile(&m, &cls);
        assert!(p.converged());
        assert!(p.check_conservation(&m).is_empty());
        let outer = p.by_site(brepl_ir::BranchId(0)).unwrap();
        let inner = p.by_site(brepl_ir::BranchId(1)).unwrap();
        assert!((outer.freq - 11.0).abs() < 1e-6 * 11.0, "{}", outer.freq);
        assert!((inner.freq - 60.0).abs() < 1e-6 * 60.0, "{}", inner.freq);
    }

    #[test]
    fn call_scaling_multiplies_callee_entries() {
        // main: for i in 0..4 call leaf(); leaf has one branch.
        let mut leaf = FunctionBuilder::new("leaf", 0);
        let t = leaf.new_block();
        let e = leaf.new_block();
        let one = leaf.reg();
        leaf.const_int(one, 1);
        let c = leaf.gt(Operand::Reg(one), Operand::imm(0));
        leaf.br(c, t, e);
        leaf.switch_to(t);
        leaf.ret(None);
        leaf.switch_to(e);
        leaf.ret(None);

        let mut b = FunctionBuilder::new("main", 0);
        let head = b.new_block();
        let body = b.new_block();
        let exit = b.new_block();
        let i = b.reg();
        b.const_int(i, 0);
        b.jmp(head);
        b.switch_to(head);
        let c = b.lt(Operand::Reg(i), Operand::imm(4));
        b.br(c, body, exit);
        b.switch_to(body);
        b.call(None, "leaf", vec![]);
        b.add(i, Operand::Reg(i), Operand::imm(1));
        b.jmp(head);
        b.switch_to(exit);
        b.ret(None);

        let mut m = Module::new();
        m.push_function(b.finish());
        m.push_function(leaf.finish());
        m.renumber_branches();

        let cls = classify_module(&m);
        let p = estimate_profile(&m, &cls);
        assert!(p.converged());
        let leaf_fid = m.function_by_name("leaf").unwrap();
        let scale = p.funcs[leaf_fid.index()].call_scale;
        assert!(
            (scale - 4.0).abs() < 1e-6 * 4.0,
            "leaf entries {scale} != 4"
        );
        // The leaf branch site's global frequency is 4 (once per call).
        let leaf_site = p
            .sites
            .iter()
            .find(|s| s.func == leaf_fid)
            .expect("leaf site");
        assert!(
            (leaf_site.freq - 4.0).abs() < 1e-6 * 4.0,
            "{}",
            leaf_site.freq
        );
    }
}
