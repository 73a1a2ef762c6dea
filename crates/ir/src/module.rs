//! Blocks, functions and modules.

use std::collections::HashMap;

use crate::ids::{BlockId, BranchId, FuncId, Reg};
use crate::inst::{Inst, Term};

/// A basic block: a straight-line instruction sequence plus one terminator.
#[derive(Clone, Debug, PartialEq)]
pub struct Block {
    /// The non-terminator instructions, in execution order.
    pub insts: Vec<Inst>,
    /// The terminator.
    pub term: Term,
}

impl Block {
    /// An abstract size measure for the code-size accounting of §5 of the
    /// paper: one unit per instruction plus one for the terminator.
    pub fn size_units(&self) -> usize {
        self.insts.len() + 1
    }

    /// True when the block makes a direct call: the trigger of the
    /// Ball–Larus call heuristic.
    pub fn has_call(&self) -> bool {
        self.insts.iter().any(|i| matches!(i, Inst::Call { .. }))
    }

    /// True when the block stores to memory: the trigger of the
    /// Ball–Larus store heuristic (calls and I/O intrinsics do not count).
    pub fn has_store(&self) -> bool {
        self.insts.iter().any(|i| matches!(i, Inst::Store { .. }))
    }

    /// True when the block returns without branching further: the
    /// trigger of the Ball–Larus return heuristic.
    pub fn returns(&self) -> bool {
        matches!(self.term, Term::Ret { .. })
    }
}

/// A function: parameter count, register count, and a block list.
///
/// Parameters are passed in registers `0..n_params`. `entry` is the start
/// block. Register `n_regs` is the first *invalid* register index.
#[derive(Clone, Debug, PartialEq)]
pub struct Function {
    /// The function name, unique within a module.
    pub name: String,
    /// Number of parameters (bound to registers `0..n_params` on entry).
    pub n_params: u32,
    /// Total number of virtual registers used.
    pub n_regs: u32,
    /// The basic blocks; `BlockId(i)` indexes `blocks[i]`.
    pub blocks: Vec<Block>,
    /// The entry block.
    pub entry: BlockId,
}

impl Function {
    /// Returns the block for `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn block(&self, id: BlockId) -> &Block {
        &self.blocks[id.index()]
    }

    /// Mutable access to the block for `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn block_mut(&mut self, id: BlockId) -> &mut Block {
        &mut self.blocks[id.index()]
    }

    /// Iterates over `(BlockId, &Block)` pairs.
    pub fn iter_blocks(&self) -> impl Iterator<Item = (BlockId, &Block)> {
        self.blocks
            .iter()
            .enumerate()
            .map(|(i, b)| (BlockId::from_index(i), b))
    }

    /// Total size in abstract units (see [`Block::size_units`]).
    pub fn size_units(&self) -> usize {
        self.blocks.iter().map(Block::size_units).sum()
    }

    /// Number of conditional-branch terminators in this function.
    pub fn branch_count(&self) -> usize {
        self.blocks
            .iter()
            .filter(|b| matches!(b.term, Term::Br { .. }))
            .count()
    }
}

/// A whole program: a set of named functions plus reserved global words.
///
/// The heap is a single word-addressed array shared by all functions;
/// addresses `0..globals` are reserved at startup for global variables and
/// never handed out by `alloc`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Module {
    functions: Vec<Function>,
    by_name: HashMap<String, FuncId>,
    /// Number of heap words reserved for globals.
    pub globals: usize,
    branch_count: usize,
}

impl Module {
    /// Creates an empty module.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a function and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if a function with the same name already exists.
    pub fn push_function(&mut self, f: Function) -> FuncId {
        let id = FuncId::from_index(self.functions.len());
        let prev = self.by_name.insert(f.name.clone(), id);
        assert!(prev.is_none(), "duplicate function name {:?}", f.name);
        self.functions.push(f);
        self.renumber_branches();
        id
    }

    /// Looks a function up by name.
    pub fn function_by_name(&self, name: &str) -> Option<FuncId> {
        self.by_name.get(name).copied()
    }

    /// Returns the function for `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn function(&self, id: FuncId) -> &Function {
        &self.functions[id.index()]
    }

    /// Mutable access to the function for `id`. Callers that add, remove or
    /// clone conditional branches must call [`Module::renumber_branches`]
    /// (or [`Module::renumber_branches_with_provenance`]) afterwards.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn function_mut(&mut self, id: FuncId) -> &mut Function {
        &mut self.functions[id.index()]
    }

    /// Iterates over `(FuncId, &Function)` pairs.
    pub fn iter_functions(&self) -> impl Iterator<Item = (FuncId, &Function)> {
        self.functions
            .iter()
            .enumerate()
            .map(|(i, f)| (FuncId::from_index(i), f))
    }

    /// Number of functions.
    pub fn function_count(&self) -> usize {
        self.functions.len()
    }

    /// Number of static conditional-branch sites (valid after the last
    /// renumbering).
    pub fn branch_count(&self) -> usize {
        self.branch_count
    }

    /// Total module size in abstract units (see [`Block::size_units`]).
    pub fn size_units(&self) -> usize {
        self.functions.iter().map(Function::size_units).sum()
    }

    /// Assigns fresh, dense [`BranchId`]s to every conditional branch, in
    /// deterministic (function, block) order.
    pub fn renumber_branches(&mut self) {
        let _ = self.renumber_branches_with_provenance();
    }

    /// Assigns fresh, dense [`BranchId`]s and returns, for each *new* id,
    /// the id the branch carried *before* renumbering.
    ///
    /// Transforms that clone branches leave the original site id on the
    /// clone; renumbering afterwards therefore yields the provenance map
    /// `new_site -> original_site` needed to relate replicated branches back
    /// to profile data.
    pub fn renumber_branches_with_provenance(&mut self) -> Vec<BranchId> {
        let mut provenance = Vec::new();
        let mut next = 0u32;
        for f in &mut self.functions {
            for b in &mut f.blocks {
                if let Term::Br { site, .. } = &mut b.term {
                    provenance.push(*site);
                    *site = BranchId(next);
                    next += 1;
                }
            }
        }
        self.branch_count = next as usize;
        provenance
    }

    /// Finds the location `(function, block)` of a branch site.
    ///
    /// Linear scan; intended for diagnostics and tests, not hot paths.
    pub fn locate_branch(&self, site: BranchId) -> Option<(FuncId, BlockId)> {
        for (fid, f) in self.iter_functions() {
            for (bid, b) in f.iter_blocks() {
                if b.term.branch_site() == Some(site) {
                    return Some((fid, bid));
                }
            }
        }
        None
    }

    /// Reserves `words` additional global heap words, returning the base
    /// address of the reserved region.
    pub fn reserve_globals(&mut self, words: usize) -> i64 {
        let base = self.globals;
        self.globals += words;
        base as i64
    }
}

/// Convenience: tracks maximum register usage when building by hand.
pub(crate) fn max_reg_in_function(f: &Function) -> u32 {
    let mut max = f.n_params;
    let mut see = |r: Reg| {
        if r.0 + 1 > max {
            max = r.0 + 1;
        }
    };
    for b in &f.blocks {
        for i in &b.insts {
            if let Some(d) = i.def() {
                see(d);
            }
            i.for_each_use(|o| {
                if let Some(r) = o.reg() {
                    see(r);
                }
            });
        }
        match &b.term {
            Term::Br { cond, .. } => {
                if let Some(r) = cond.reg() {
                    see(r);
                }
            }
            Term::Ret { value: Some(v) } => {
                if let Some(r) = v.reg() {
                    see(r);
                }
            }
            _ => {}
        }
    }
    max
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::Operand;

    fn tiny_function(name: &str) -> Function {
        Function {
            name: name.to_string(),
            n_params: 0,
            n_regs: 1,
            blocks: vec![
                Block {
                    insts: vec![Inst::Const {
                        dst: Reg(0),
                        value: 1i64.into(),
                    }],
                    term: Term::Br {
                        cond: Operand::Reg(Reg(0)),
                        then_: BlockId(1),
                        else_: BlockId(1),
                        site: BranchId(0),
                    },
                },
                Block {
                    insts: vec![],
                    term: Term::Ret { value: None },
                },
            ],
            entry: BlockId(0),
        }
    }

    #[test]
    fn push_function_renumbers_branches() {
        let mut m = Module::new();
        m.push_function(tiny_function("a"));
        m.push_function(tiny_function("b"));
        assert_eq!(m.branch_count(), 2);
        let sites: Vec<_> = m
            .iter_functions()
            .flat_map(|(_, f)| f.blocks.iter().filter_map(|b| b.term.branch_site()))
            .collect();
        assert_eq!(sites, vec![BranchId(0), BranchId(1)]);
    }

    #[test]
    #[should_panic(expected = "duplicate function name")]
    fn duplicate_names_panic() {
        let mut m = Module::new();
        m.push_function(tiny_function("a"));
        m.push_function(tiny_function("a"));
    }

    #[test]
    fn provenance_tracks_old_sites() {
        let mut m = Module::new();
        m.push_function(tiny_function("a"));
        // Clone the branch block to simulate replication: the clone keeps
        // the stale site id.
        let f = m.function_mut(FuncId(0));
        let cloned = f.blocks[0].clone();
        f.blocks.push(cloned);
        let prov = m.renumber_branches_with_provenance();
        assert_eq!(prov, vec![BranchId(0), BranchId(0)]);
        assert_eq!(m.branch_count(), 2);
    }

    #[test]
    fn locate_branch_finds_site() {
        let mut m = Module::new();
        m.push_function(tiny_function("a"));
        assert_eq!(m.locate_branch(BranchId(0)), Some((FuncId(0), BlockId(0))));
        assert_eq!(m.locate_branch(BranchId(7)), None);
    }

    #[test]
    fn size_units_counts_instructions_and_terminators() {
        let mut m = Module::new();
        m.push_function(tiny_function("a"));
        // 1 inst + term, plus empty block term.
        assert_eq!(m.size_units(), 3);
    }

    #[test]
    fn reserve_globals_bumps_base() {
        let mut m = Module::new();
        assert_eq!(m.reserve_globals(4), 0);
        assert_eq!(m.reserve_globals(2), 4);
        assert_eq!(m.globals, 6);
    }
}
