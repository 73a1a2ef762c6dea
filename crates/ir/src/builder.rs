//! A fluent builder for [`Function`]s.

use std::fmt;

use crate::ids::{BlockId, BranchId, Reg};
use crate::inst::{BinOp, CmpOp, Inst, Intrinsic, Operand, Term, Value};
use crate::module::{Block, Function};

/// A structural error detected when finishing a built function.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum BuildError {
    /// The block was created but never given a terminator.
    MissingTerminator {
        /// The unterminated block.
        block: BlockId,
    },
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::MissingTerminator { block } => {
                write!(f, "block b{} lacks a terminator", block.0)
            }
        }
    }
}

/// Builds a [`Function`] block by block.
///
/// Blocks are created with [`FunctionBuilder::new_block`]; instructions are
/// appended to the *current* block (selected with
/// [`FunctionBuilder::switch_to`]). A block is finished by emitting a
/// terminator ([`br`](Self::br), [`jmp`](Self::jmp), [`ret`](Self::ret));
/// emitting an instruction into a terminated block panics, which catches
/// most builder misuse immediately.
///
/// ```
/// use brepl_ir::{FunctionBuilder, Operand};
/// let mut b = FunctionBuilder::new("abs", 1);
/// let x = b.param(0);
/// let neg = b.new_block();
/// let pos = b.new_block();
/// let c = b.lt(x.into(), Operand::imm(0));
/// b.br(c, neg, pos);
/// b.switch_to(neg);
/// let r = b.reg();
/// b.sub(r, Operand::imm(0), x.into());
/// b.ret(Some(r.into()));
/// b.switch_to(pos);
/// b.ret(Some(x.into()));
/// let f = b.finish();
/// assert_eq!(f.blocks.len(), 3);
/// ```
#[derive(Debug)]
pub struct FunctionBuilder {
    name: String,
    n_params: u32,
    next_reg: u32,
    blocks: Vec<(Vec<Inst>, Option<Term>)>,
    current: BlockId,
    entry: BlockId,
}

impl FunctionBuilder {
    /// Starts a function with `n_params` parameters. The entry block is
    /// created and selected.
    pub fn new(name: impl Into<String>, n_params: u32) -> Self {
        FunctionBuilder {
            name: name.into(),
            n_params,
            next_reg: n_params,
            blocks: vec![(Vec::new(), None)],
            current: BlockId(0),
            entry: BlockId(0),
        }
    }

    /// The register holding parameter `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= n_params`.
    pub fn param(&self, i: u32) -> Reg {
        assert!(i < self.n_params, "parameter index out of range");
        Reg(i)
    }

    /// Allocates a fresh virtual register.
    pub fn reg(&mut self) -> Reg {
        let r = Reg(self.next_reg);
        self.next_reg += 1;
        r
    }

    /// Creates a new (empty, unselected) block.
    pub fn new_block(&mut self) -> BlockId {
        let id = BlockId::from_index(self.blocks.len());
        self.blocks.push((Vec::new(), None));
        id
    }

    /// Selects the block receiving subsequently emitted instructions.
    ///
    /// # Panics
    ///
    /// Panics if `block` does not exist or is already terminated.
    pub fn switch_to(&mut self, block: BlockId) {
        assert!(block.index() < self.blocks.len(), "no such block {block}");
        assert!(
            self.blocks[block.index()].1.is_none(),
            "block {block} is already terminated"
        );
        self.current = block;
    }

    fn push(&mut self, inst: Inst) {
        let (insts, term) = &mut self.blocks[self.current.index()];
        assert!(
            term.is_none(),
            "emitting into terminated block {}",
            self.current
        );
        insts.push(inst);
    }

    fn terminate(&mut self, term: Term) {
        let slot = &mut self.blocks[self.current.index()].1;
        assert!(slot.is_none(), "block {} terminated twice", self.current);
        *slot = Some(term);
    }

    // ----- instructions ---------------------------------------------------

    /// `dst = value`.
    fn const_val(&mut self, dst: Reg, value: Value) {
        self.push(Inst::Const { dst, value });
    }

    /// `dst = v` for an integer immediate.
    pub fn const_int(&mut self, dst: Reg, v: i64) {
        self.const_val(dst, Value::Int(v));
    }

    /// `dst = v` for a float immediate.
    pub fn const_float(&mut self, dst: Reg, v: f64) {
        self.const_val(dst, Value::Float(v));
    }

    /// Allocates a fresh register holding the integer `v`.
    pub fn iconst(&mut self, v: i64) -> Reg {
        let r = self.reg();
        self.const_int(r, v);
        r
    }

    /// `dst = src`.
    pub fn copy(&mut self, dst: Reg, src: Operand) {
        self.push(Inst::Copy { dst, src });
    }

    /// `dst = lhs op rhs`.
    pub fn bin(&mut self, op: BinOp, dst: Reg, lhs: Operand, rhs: Operand) {
        self.push(Inst::Bin { op, dst, lhs, rhs });
    }

    /// `dst = lhs op rhs`, comparison producing 0/1.
    pub fn cmp(&mut self, op: CmpOp, dst: Reg, lhs: Operand, rhs: Operand) {
        self.push(Inst::Cmp { op, dst, lhs, rhs });
    }

    /// Comparison into a fresh register, returned.
    fn cmp_new(&mut self, op: CmpOp, lhs: Operand, rhs: Operand) -> Reg {
        let dst = self.reg();
        self.cmp(op, dst, lhs, rhs);
        dst
    }

    /// `dst = int(src)`.
    pub fn ftoi(&mut self, dst: Reg, src: Operand) {
        self.push(Inst::Ftoi { dst, src });
    }

    /// `dst = float(src)`.
    pub fn itof(&mut self, dst: Reg, src: Operand) {
        self.push(Inst::Itof { dst, src });
    }

    /// `dst = mem[addr]`.
    pub fn load(&mut self, dst: Reg, addr: Operand) {
        self.push(Inst::Load { dst, addr });
    }

    /// `mem[addr] = value`.
    pub fn store(&mut self, addr: Operand, value: Operand) {
        self.push(Inst::Store { addr, value });
    }

    /// `dst = alloc(words)`.
    pub fn alloc(&mut self, dst: Reg, words: Operand) {
        self.push(Inst::Alloc { dst, words });
    }

    /// `dst = call callee(args...)`.
    pub fn call(&mut self, dst: Option<Reg>, callee: impl Into<String>, args: Vec<Operand>) {
        self.push(Inst::Call {
            dst,
            callee: callee.into(),
            args,
        });
    }

    /// `dst = intrinsic(args...)`.
    pub fn intrin(&mut self, dst: Option<Reg>, which: Intrinsic, args: Vec<Operand>) {
        self.push(Inst::Intrin { dst, which, args });
    }

    /// `out(v)` — write `v` to the output tape.
    pub fn out(&mut self, v: Operand) {
        self.intrin(None, Intrinsic::Out, vec![v]);
    }

    /// Fresh register receiving `in()`.
    pub fn input(&mut self) -> Reg {
        let r = self.reg();
        self.intrin(Some(r), Intrinsic::In, vec![]);
        r
    }

    /// Fresh register receiving `rand(bound)`.
    pub fn rand(&mut self, bound: Operand) -> Reg {
        let r = self.reg();
        self.intrin(Some(r), Intrinsic::Rand, vec![bound]);
        r
    }

    // ----- sugar for common binops ---------------------------------------

    /// `dst = lhs + rhs`.
    pub fn add(&mut self, dst: Reg, lhs: Operand, rhs: Operand) {
        self.bin(BinOp::Add, dst, lhs, rhs);
    }

    /// `dst = lhs - rhs`.
    pub fn sub(&mut self, dst: Reg, lhs: Operand, rhs: Operand) {
        self.bin(BinOp::Sub, dst, lhs, rhs);
    }

    /// `dst = lhs * rhs`.
    pub fn mul(&mut self, dst: Reg, lhs: Operand, rhs: Operand) {
        self.bin(BinOp::Mul, dst, lhs, rhs);
    }

    /// `dst = lhs / rhs`.
    pub fn div(&mut self, dst: Reg, lhs: Operand, rhs: Operand) {
        self.bin(BinOp::Div, dst, lhs, rhs);
    }

    /// `dst = lhs % rhs`.
    pub fn rem(&mut self, dst: Reg, lhs: Operand, rhs: Operand) {
        self.bin(BinOp::Rem, dst, lhs, rhs);
    }

    /// Fresh register receiving `lhs < rhs`.
    pub fn lt(&mut self, lhs: Operand, rhs: Operand) -> Reg {
        self.cmp_new(CmpOp::Lt, lhs, rhs)
    }

    /// Fresh register receiving `lhs <= rhs`.
    pub fn le(&mut self, lhs: Operand, rhs: Operand) -> Reg {
        self.cmp_new(CmpOp::Le, lhs, rhs)
    }

    /// Fresh register receiving `lhs == rhs`.
    pub fn eq(&mut self, lhs: Operand, rhs: Operand) -> Reg {
        self.cmp_new(CmpOp::Eq, lhs, rhs)
    }

    /// Fresh register receiving `lhs != rhs`.
    pub fn ne(&mut self, lhs: Operand, rhs: Operand) -> Reg {
        self.cmp_new(CmpOp::Ne, lhs, rhs)
    }

    /// Fresh register receiving `lhs > rhs`.
    pub fn gt(&mut self, lhs: Operand, rhs: Operand) -> Reg {
        self.cmp_new(CmpOp::Gt, lhs, rhs)
    }

    /// Fresh register receiving `lhs >= rhs`.
    pub fn ge(&mut self, lhs: Operand, rhs: Operand) -> Reg {
        self.cmp_new(CmpOp::Ge, lhs, rhs)
    }

    // ----- terminators ----------------------------------------------------

    /// Terminates the current block with a conditional branch.
    ///
    /// Branch site ids carry a placeholder value here; they are assigned for
    /// real by [`crate::Module::renumber_branches`] when the function is
    /// added to a module.
    pub fn br(&mut self, cond: Reg, then_: BlockId, else_: BlockId) {
        self.terminate(Term::Br {
            cond: Operand::Reg(cond),
            then_,
            else_,
            site: BranchId(u32::MAX),
        });
    }

    /// Terminates the current block with an unconditional jump.
    pub fn jmp(&mut self, target: BlockId) {
        self.terminate(Term::Jmp { target });
    }

    /// Terminates the current block with a return.
    pub fn ret(&mut self, value: Option<Operand>) {
        self.terminate(Term::Ret { value });
    }

    /// Finishes the function, surfacing structural mistakes as a typed
    /// error instead of aborting the process.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError::MissingTerminator`] naming the first block
    /// (in creation order) that was never terminated.
    fn try_finish(self) -> Result<Function, BuildError> {
        let mut blocks: Vec<Block> = Vec::with_capacity(self.blocks.len());
        for (i, (insts, term)) in self.blocks.into_iter().enumerate() {
            let Some(term) = term else {
                return Err(BuildError::MissingTerminator {
                    block: BlockId(i as u32),
                });
            };
            blocks.push(Block { insts, term });
        }
        Ok(Function {
            name: self.name,
            n_params: self.n_params,
            n_regs: self.next_reg,
            blocks,
            entry: self.entry,
        })
    }

    /// Finishes the function.
    ///
    /// # Panics
    ///
    /// Panics if any block lacks a terminator, naming the first such block.
    pub fn finish(self) -> Function {
        self.try_finish().unwrap_or_else(|e| panic!("{e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_loop() {
        let mut b = FunctionBuilder::new("f", 1);
        let n = b.param(0);
        let i = b.reg();
        b.const_int(i, 0);
        let head = b.new_block();
        let body = b.new_block();
        let exit = b.new_block();
        b.jmp(head);
        b.switch_to(head);
        let c = b.lt(i.into(), n.into());
        b.br(c, body, exit);
        b.switch_to(body);
        b.add(i, i.into(), Operand::imm(1));
        b.jmp(head);
        b.switch_to(exit);
        b.ret(Some(i.into()));
        let f = b.finish();
        assert_eq!(f.blocks.len(), 4);
        assert_eq!(f.branch_count(), 1);
        assert!(f.n_regs >= 2);
    }

    #[test]
    #[should_panic(expected = "lacks a terminator")]
    fn unterminated_block_panics_on_finish() {
        let b = FunctionBuilder::new("f", 0);
        let _ = b.finish();
    }

    #[test]
    fn try_finish_reports_missing_terminator() {
        // The entry is terminated; the second block is left dangling, so
        // the error must name it rather than the entry.
        let mut b = FunctionBuilder::new("f", 0);
        let dangling = b.new_block();
        b.jmp(dangling);
        let err = b.try_finish().unwrap_err();
        assert_eq!(err, BuildError::MissingTerminator { block: dangling });
        assert_eq!(err.to_string(), "block b1 lacks a terminator");
    }

    #[test]
    fn try_finish_succeeds_on_complete_function() {
        let mut b = FunctionBuilder::new("f", 0);
        b.ret(None);
        let f = b.try_finish().expect("complete function builds");
        assert_eq!(f.blocks.len(), 1);
    }

    #[test]
    #[should_panic(expected = "terminated twice")]
    fn double_terminate_panics() {
        let mut b = FunctionBuilder::new("f", 0);
        b.ret(None);
        b.ret(None);
    }

    #[test]
    #[should_panic(expected = "already terminated")]
    fn switch_to_terminated_block_panics() {
        let mut b = FunctionBuilder::new("f", 0);
        b.ret(None);
        b.switch_to(BlockId(0));
    }

    #[test]
    #[should_panic(expected = "parameter index out of range")]
    fn bad_param_panics() {
        let b = FunctionBuilder::new("f", 1);
        let _ = b.param(1);
    }
}
