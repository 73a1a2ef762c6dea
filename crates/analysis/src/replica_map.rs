//! The replica map: the witness artifact the replicator emits so the
//! translation validator can check the transformation without re-deriving
//! it.
//!
//! Replication clones blocks, rewires edges between clones, and then
//! simplifies (threads jumps past empty blocks and merges straight-line
//! pairs). A replica block therefore corresponds to a *chain* of original
//! blocks: the blocks whose instruction streams were concatenated into it.
//! For untouched blocks and pristine clones the chain has length one.

use brepl_ir::{BlockId, Module};

/// Per-function origin information for one replicated function.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ReplicaFuncMap {
    /// For each replica block (by index), the chain of original block ids
    /// whose instruction streams it carries, in order. Always non-empty
    /// for a well-formed map.
    pub origins: Vec<Vec<BlockId>>,
    /// For each replica block, the branch direction the encoded machine
    /// state predicts at that block's conditional branch — `None` when the
    /// block has no machine-pinned prediction (unconditional terminator, or
    /// a branch predicted from profile data instead).
    pub machine_predictions: Vec<Option<bool>>,
}

impl ReplicaFuncMap {
    /// The identity map for an untransformed function with `n_blocks`
    /// blocks.
    pub fn identity(n_blocks: usize) -> Self {
        ReplicaFuncMap {
            origins: (0..n_blocks)
                .map(|i| vec![BlockId::from_index(i)])
                .collect(),
            machine_predictions: vec![None; n_blocks],
        }
    }

    /// The first original block of replica block `b`'s chain, if the map
    /// covers `b`.
    pub fn first_origin(&self, b: BlockId) -> Option<BlockId> {
        self.origins.get(b.index()).and_then(|c| c.first().copied())
    }
}

/// Origin information for every function of a replicated module, indexed
/// by [`brepl_ir::FuncId`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ReplicaMap {
    /// One entry per function, in function-id order.
    pub functions: Vec<ReplicaFuncMap>,
}

impl ReplicaMap {
    /// The identity map for `module` (every function untransformed).
    pub fn identity(module: &Module) -> Self {
        ReplicaMap {
            functions: module
                .iter_functions()
                .map(|(_, f)| ReplicaFuncMap::identity(f.blocks.len()))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use brepl_ir::FunctionBuilder;

    #[test]
    fn identity_covers_all_blocks() {
        let mut b = FunctionBuilder::new("main", 0);
        let next = b.new_block();
        b.jmp(next);
        b.switch_to(next);
        b.ret(None);
        let mut m = Module::new();
        m.push_function(b.finish());
        let map = ReplicaMap::identity(&m);
        assert_eq!(map.functions.len(), 1);
        let fm = &map.functions[0];
        assert_eq!(fm.origins, vec![vec![BlockId(0)], vec![BlockId(1)]]);
        assert_eq!(fm.first_origin(BlockId(1)), Some(BlockId(1)));
        assert_eq!(fm.first_origin(BlockId(9)), None);
        assert_eq!(fm.machine_predictions, vec![None, None]);
    }
}
