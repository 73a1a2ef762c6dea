//! Branch classification (§5 of the paper) and predecessor-path
//! enumeration for correlated branches (§4.3).

use brepl_ir::{BlockId, BranchId, Function, Term};

use crate::graph::Cfg;
use crate::loops::{LoopForest, LoopId};

/// The class of a conditional branch with respect to loop structure.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BranchClass {
    /// Inside a loop, both successors stay inside the innermost loop.
    /// Candidates for *intra-loop* state machines (§4.1).
    IntraLoop,
    /// Inside a loop, at least one successor leaves the innermost loop.
    /// Candidates for *loop-exit* state machines (§4.2).
    LoopExit,
    /// Not inside any loop. Candidates for *correlated* machines only.
    NonLoop,
}

/// Per-branch classification result.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BranchInfo {
    /// The branch site.
    pub site: BranchId,
    /// The block whose terminator is this branch.
    pub block: BlockId,
    /// Taken target.
    pub then_: BlockId,
    /// Not-taken target.
    pub else_: BlockId,
    /// The class.
    pub class: BranchClass,
    /// The innermost loop containing the branch block, if any.
    pub innermost_loop: Option<LoopId>,
    /// Whether the *taken* direction is a back edge of the innermost loop
    /// (used by the Ball–Larus *loop* heuristic and by replication).
    pub taken_is_back_edge: bool,
    /// Whether the taken target stays inside the innermost loop
    /// (false for non-loop branches).
    pub then_in_loop: bool,
    /// Whether the not-taken target stays inside the innermost loop
    /// (false for non-loop branches).
    pub else_in_loop: bool,
}

/// All conditional branches of one function, classified.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ClassifiedBranches {
    branches: Vec<BranchInfo>,
}

impl ClassifiedBranches {
    /// Classifies every conditional branch of `func`.
    pub fn analyze(func: &Function, forest: &LoopForest) -> Self {
        let mut branches = Vec::new();
        for (bid, block) in func.iter_blocks() {
            let Term::Br {
                then_, else_, site, ..
            } = block.term
            else {
                continue;
            };
            let innermost_loop = forest.innermost(bid);
            let (then_in_loop, else_in_loop) = match innermost_loop {
                None => (false, false),
                Some(l) => {
                    let lp = forest.get(l);
                    (lp.contains(then_), lp.contains(else_))
                }
            };
            let class = match innermost_loop {
                None => BranchClass::NonLoop,
                Some(_) if then_in_loop && else_in_loop => BranchClass::IntraLoop,
                Some(_) => BranchClass::LoopExit,
            };
            let taken_is_back_edge = innermost_loop
                .map(|l| {
                    forest
                        .get(l)
                        .back_edges
                        .iter()
                        .any(|&(t, h)| t == bid && h == then_)
                })
                .unwrap_or(false);
            branches.push(BranchInfo {
                site,
                block: bid,
                then_,
                else_,
                class,
                innermost_loop,
                taken_is_back_edge,
                then_in_loop,
                else_in_loop,
            });
        }
        ClassifiedBranches { branches }
    }

    /// All classified branches, in block order.
    pub fn branches(&self) -> &[BranchInfo] {
        &self.branches
    }

    /// Looks up a branch by site id.
    pub fn by_site(&self, site: BranchId) -> Option<&BranchInfo> {
        self.branches.iter().find(|b| b.site == site)
    }
}

/// One decision on a control-flow path leading to a branch: an earlier
/// branch site and the direction it took.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PathStep {
    /// The earlier branch.
    pub site: BranchId,
    /// The direction taken at that branch.
    pub taken: bool,
}

/// The set of control-flow paths (sequences of earlier branch decisions)
/// that can reach a given branch, capped in length and count.
///
/// Paths are stored oldest-decision-first, i.e. in execution order. This is
/// the raw material for the correlated-branch state machines of §4.3: each
/// state of such a machine is one of these paths.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PredecessorPaths {
    /// Distinct decision paths, execution order within each path.
    pub paths: Vec<Vec<PathStep>>,
    /// True when enumeration was cut off by the path-count cap, meaning
    /// `paths` is not exhaustive.
    pub truncated: bool,
}

/// Upper bound on enumerated paths per branch; beyond this the analysis
/// marks the result truncated rather than blowing up on dense CFGs.
pub const MAX_PATHS: usize = 256;

impl PredecessorPaths {
    /// Enumerates the decision paths of length `<= max_decisions` that end
    /// at `block` (exclusive of `block`'s own terminator).
    ///
    /// The backward walk does not revisit a block within a single path, so
    /// loop iterations contribute each static cycle at most once per path —
    /// matching the paper's use of short acyclic path fragments.
    pub fn enumerate(func: &Function, cfg: &Cfg, block: BlockId, max_decisions: usize) -> Self {
        let mut paths: Vec<Vec<PathStep>> = Vec::new();
        let mut truncated = false;
        // Worklist of (current block, decisions newest-first, visited set).
        let mut work: Vec<(BlockId, Vec<PathStep>, Vec<BlockId>)> =
            vec![(block, Vec::new(), vec![block])];
        while let Some((cur, decisions, visited)) = work.pop() {
            if paths.len() >= MAX_PATHS {
                truncated = true;
                break;
            }
            let preds = cfg.preds(cur);
            let extendable = decisions.len() < max_decisions && !preds.is_empty();
            if !extendable {
                let mut p = decisions.clone();
                p.reverse();
                if !paths.contains(&p) {
                    paths.push(p);
                }
                continue;
            }
            let mut extended_any = false;
            for &p in preds {
                if visited.contains(&p) {
                    continue;
                }
                let step = match func.block(p).term {
                    Term::Br {
                        then_, else_, site, ..
                    } => {
                        // With then_ == else_ the direction is ambiguous;
                        // record the taken direction arbitrarily but
                        // deterministically.
                        let taken = then_ == cur;
                        let _ = else_;
                        Some(PathStep { site, taken })
                    }
                    _ => None,
                };
                let mut d = decisions.clone();
                if let Some(s) = step {
                    d.push(s);
                }
                let mut v = visited.clone();
                v.push(p);
                work.push((p, d, v));
                extended_any = true;
            }
            if !extended_any {
                let mut p = decisions.clone();
                p.reverse();
                if !paths.contains(&p) {
                    paths.push(p);
                }
            }
        }
        paths.sort();
        paths.dedup();
        PredecessorPaths { paths, truncated }
    }

    /// The maximum decision count over all paths.
    pub fn max_len(&self) -> usize {
        self.paths.iter().map(Vec::len).max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dom::DomTree;
    use brepl_ir::{FunctionBuilder, Operand};

    /// Loop with an intra-loop branch and the loop-exit branch:
    ///
    /// b0 -> b1 (head, exit br) -> b2 (intra br) -> b3|b4 -> b1 ; b5 exit
    fn loopy() -> brepl_ir::Function {
        let mut b = FunctionBuilder::new("f", 1);
        let x = b.param(0);
        let head = b.new_block();
        let body = b.new_block();
        let a1 = b.new_block();
        let a2 = b.new_block();
        let exit = b.new_block();
        b.jmp(head);
        b.switch_to(head);
        let c = b.lt(x.into(), Operand::imm(100));
        b.br(c, body, exit);
        b.switch_to(body);
        let c2 = b.eq(x.into(), Operand::imm(1));
        b.br(c2, a1, a2);
        b.switch_to(a1);
        b.jmp(head);
        b.switch_to(a2);
        b.jmp(head);
        b.switch_to(exit);
        b.ret(None);
        b.finish()
    }

    fn analyze(f: &brepl_ir::Function) -> (Cfg, ClassifiedBranches) {
        let cfg = Cfg::new(f);
        let dom = DomTree::new(&cfg);
        let forest = LoopForest::new(&cfg, &dom);
        let cls = ClassifiedBranches::analyze(f, &forest);
        (cfg, cls)
    }

    #[test]
    fn classes_assigned() {
        let f = loopy();
        let (_, cls) = analyze(&f);
        assert_eq!(cls.branches().len(), 2);
        let head_branch = cls
            .branches()
            .iter()
            .find(|b| b.block == BlockId(1))
            .unwrap();
        assert_eq!(head_branch.class, BranchClass::LoopExit);
        let body_branch = cls
            .branches()
            .iter()
            .find(|b| b.block == BlockId(2))
            .unwrap();
        assert_eq!(body_branch.class, BranchClass::IntraLoop);
    }

    #[test]
    fn non_loop_branch_classified() {
        let mut b = FunctionBuilder::new("f", 1);
        let x = b.param(0);
        let t = b.new_block();
        let e = b.new_block();
        let c = b.gt(x.into(), Operand::imm(0));
        b.br(c, t, e);
        b.switch_to(t);
        b.ret(None);
        b.switch_to(e);
        b.ret(None);
        let f = b.finish();
        let (_, cls) = analyze(&f);
        assert_eq!(cls.branches()[0].class, BranchClass::NonLoop);
        assert!(cls.by_site(cls.branches()[0].site).is_some());
    }

    #[test]
    fn predecessor_paths_of_diamond_join() {
        // b0 --c--> b1 | b2 ; both -> b3 (second branch there)
        let mut b = FunctionBuilder::new("f", 1);
        let x = b.param(0);
        let t = b.new_block();
        let e = b.new_block();
        let j = b.new_block();
        let end1 = b.new_block();
        let end2 = b.new_block();
        let c = b.gt(x.into(), Operand::imm(0));
        b.br(c, t, e);
        b.switch_to(t);
        b.jmp(j);
        b.switch_to(e);
        b.jmp(j);
        b.switch_to(j);
        let c2 = b.lt(x.into(), Operand::imm(5));
        b.br(c2, end1, end2);
        b.switch_to(end1);
        b.ret(None);
        b.switch_to(end2);
        b.ret(None);
        let f = b.finish();
        let cfg = Cfg::new(&f);
        let pp = PredecessorPaths::enumerate(&f, &cfg, BlockId(3), 2);
        assert!(!pp.truncated);
        // Two ways to reach the join: via taken and via not-taken of the
        // first branch.
        assert_eq!(pp.paths.len(), 2);
        assert!(pp.paths.iter().any(|p| p.len() == 1 && p[0].taken));
        assert!(pp.paths.iter().any(|p| p.len() == 1 && !p[0].taken));
        assert_eq!(pp.max_len(), 1);
    }

    #[test]
    fn path_enumeration_respects_length_cap() {
        let f = loopy();
        let cfg = Cfg::new(&f);
        // Paths to the intra-loop branch block b2, at most 1 decision:
        // always "head branch taken".
        let pp = PredecessorPaths::enumerate(&f, &cfg, BlockId(2), 1);
        assert!(pp.paths.iter().all(|p| p.len() <= 1));
        assert!(pp.paths.iter().any(|p| p.len() == 1 && p[0].taken));
    }

    #[test]
    fn entry_block_has_single_empty_path() {
        let mut b = FunctionBuilder::new("f", 0);
        b.ret(None);
        let f = b.finish();
        let cfg = Cfg::new(&f);
        let pp = PredecessorPaths::enumerate(&f, &cfg, BlockId(0), 3);
        assert_eq!(pp.paths, vec![Vec::<PathStep>::new()]);
    }
}
