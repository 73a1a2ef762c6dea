//! Instructions, terminators, operands and runtime values.

use std::fmt;

use crate::ids::{BlockId, BranchId, Reg};

/// A runtime value: a 64-bit integer or a 64-bit float.
///
/// The IR is dynamically typed at this coarse granularity, like an assembly
/// register file with integer and floating views. Comparison instructions
/// produce `Int(0)` or `Int(1)`; conditional branches test for non-zero
/// integers.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Value {
    /// A 64-bit signed integer (also used for booleans and addresses).
    Int(i64),
    /// A 64-bit IEEE float.
    Float(f64),
}

impl Value {
    /// Interprets the value as a branch condition (non-zero integer is
    /// taken; floats are truthy when non-zero).
    pub fn is_truthy(self) -> bool {
        match self {
            Value::Int(v) => v != 0,
            Value::Float(v) => v != 0.0,
        }
    }

    /// Returns the integer payload, if this is an [`Value::Int`].
    pub fn as_int(self) -> Option<i64> {
        match self {
            Value::Int(v) => Some(v),
            Value::Float(_) => None,
        }
    }

    /// Returns the float payload, if this is a [`Value::Float`].
    pub fn as_float(self) -> Option<f64> {
        match self {
            Value::Float(v) => Some(v),
            Value::Int(_) => None,
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(v) => write!(f, "{v}"),
            Value::Float(v) => write!(f, "{v:?}f"),
        }
    }
}

/// An instruction operand: a register read or an immediate constant.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Operand {
    /// Read a virtual register.
    Reg(Reg),
    /// An immediate value.
    Imm(Value),
}

impl Operand {
    /// Shorthand for an integer immediate.
    pub fn imm(v: i64) -> Self {
        Operand::Imm(Value::Int(v))
    }

    /// Shorthand for a float immediate.
    pub fn fimm(v: f64) -> Self {
        Operand::Imm(Value::Float(v))
    }

    /// Returns the register read by this operand, if any.
    pub fn reg(self) -> Option<Reg> {
        match self {
            Operand::Reg(r) => Some(r),
            Operand::Imm(_) => None,
        }
    }
}

impl From<Reg> for Operand {
    fn from(r: Reg) -> Self {
        Operand::Reg(r)
    }
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Reg(r) => write!(f, "{r}"),
            Operand::Imm(v) => write!(f, "{v}"),
        }
    }
}

/// Binary arithmetic and bitwise operations.
///
/// Arithmetic ops are polymorphic over [`Value::Int`] and [`Value::Float`]
/// (both operands must have the same kind); bitwise and shift ops require
/// integers. Integer division and remainder truncate toward zero.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division (integer division truncates; division by zero traps).
    Div,
    /// Remainder (integers only; remainder by zero traps).
    Rem,
    /// Bitwise and (integers only).
    And,
    /// Bitwise or (integers only).
    Or,
    /// Bitwise xor (integers only).
    Xor,
    /// Left shift (integers only, shift amount masked to 0..64).
    Shl,
    /// Arithmetic right shift (integers only, shift amount masked to 0..64).
    Shr,
}

impl BinOp {
    /// The mnemonic used in the textual format.
    pub fn mnemonic(self) -> &'static str {
        match self {
            BinOp::Add => "add",
            BinOp::Sub => "sub",
            BinOp::Mul => "mul",
            BinOp::Div => "div",
            BinOp::Rem => "rem",
            BinOp::And => "and",
            BinOp::Or => "or",
            BinOp::Xor => "xor",
            BinOp::Shl => "shl",
            BinOp::Shr => "shr",
        }
    }

    /// All binary operations, for exhaustive testing.
    pub const ALL: [BinOp; 10] = [
        BinOp::Add,
        BinOp::Sub,
        BinOp::Mul,
        BinOp::Div,
        BinOp::Rem,
        BinOp::And,
        BinOp::Or,
        BinOp::Xor,
        BinOp::Shl,
        BinOp::Shr,
    ];
}

/// Comparison operations; result is `Int(1)` or `Int(0)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Less than (signed / ordered).
    Lt,
    /// Less than or equal.
    Le,
    /// Greater than.
    Gt,
    /// Greater than or equal.
    Ge,
}

impl CmpOp {
    /// The mnemonic used in the textual format.
    pub fn mnemonic(self) -> &'static str {
        match self {
            CmpOp::Eq => "eq",
            CmpOp::Ne => "ne",
            CmpOp::Lt => "lt",
            CmpOp::Le => "le",
            CmpOp::Gt => "gt",
            CmpOp::Ge => "ge",
        }
    }

    /// The comparison with operands swapped (`a op b` == `b op.swapped() a`).
    pub fn swapped(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Eq,
            CmpOp::Ne => CmpOp::Ne,
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
        }
    }

    /// The negated comparison (`!(a op b)` == `a op.negated() b`).
    pub fn negated(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Ne,
            CmpOp::Ne => CmpOp::Eq,
            CmpOp::Lt => CmpOp::Ge,
            CmpOp::Le => CmpOp::Gt,
            CmpOp::Gt => CmpOp::Le,
            CmpOp::Ge => CmpOp::Lt,
        }
    }

    /// All comparison operations, for exhaustive testing.
    pub const ALL: [CmpOp; 6] = [
        CmpOp::Eq,
        CmpOp::Ne,
        CmpOp::Lt,
        CmpOp::Le,
        CmpOp::Gt,
        CmpOp::Ge,
    ];
}

/// Built-in operations the interpreter provides to programs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Intrinsic {
    /// `out(v)` — append `v` to the machine's output tape.
    Out,
    /// `in()` — pop the next value from the input tape; `Int(-1)` when empty.
    In,
    /// `rand(bound)` — deterministic xorshift PRNG in `0..bound` (`bound > 0`).
    Rand,
    /// `sqrt(x)` — float square root (integer input is converted first).
    Sqrt,
}

impl Intrinsic {
    /// The mnemonic used in the textual format.
    pub fn mnemonic(self) -> &'static str {
        match self {
            Intrinsic::Out => "out",
            Intrinsic::In => "in",
            Intrinsic::Rand => "rand",
            Intrinsic::Sqrt => "sqrt",
        }
    }
}

/// A non-terminator instruction.
#[derive(Clone, Debug, PartialEq)]
pub enum Inst {
    /// `dst = imm`.
    Const {
        /// Destination register.
        dst: Reg,
        /// The constant value.
        value: Value,
    },
    /// `dst = src` (register copy / immediate move).
    Copy {
        /// Destination register.
        dst: Reg,
        /// Source operand.
        src: Operand,
    },
    /// `dst = lhs op rhs`.
    Bin {
        /// The operation.
        op: BinOp,
        /// Destination register.
        dst: Reg,
        /// Left operand.
        lhs: Operand,
        /// Right operand.
        rhs: Operand,
    },
    /// `dst = (lhs op rhs) as Int(0|1)`.
    Cmp {
        /// The comparison.
        op: CmpOp,
        /// Destination register.
        dst: Reg,
        /// Left operand.
        lhs: Operand,
        /// Right operand.
        rhs: Operand,
    },
    /// `dst = int(src)` — float-to-int truncation (no-op on ints).
    Ftoi {
        /// Destination register.
        dst: Reg,
        /// Source operand.
        src: Operand,
    },
    /// `dst = float(src)` — int-to-float conversion (no-op on floats).
    Itof {
        /// Destination register.
        dst: Reg,
        /// Source operand.
        src: Operand,
    },
    /// `dst = mem[addr]` — word-addressed heap load.
    Load {
        /// Destination register.
        dst: Reg,
        /// Address operand (integer word index).
        addr: Operand,
    },
    /// `mem[addr] = value`.
    Store {
        /// Address operand (integer word index).
        addr: Operand,
        /// Value to store.
        value: Operand,
    },
    /// `dst = alloc(words)` — bump-allocate `words` heap words, returns the
    /// base address.
    Alloc {
        /// Destination register (receives the base address).
        dst: Reg,
        /// Number of words to allocate.
        words: Operand,
    },
    /// `dst = call name(args...)` — direct call by function name.
    Call {
        /// Optional destination register for the return value.
        dst: Option<Reg>,
        /// Callee name (resolved at verification / execution time).
        callee: String,
        /// Argument operands, bound to the callee's parameter registers.
        args: Vec<Operand>,
    },
    /// `dst = intrinsic(args...)`.
    Intrin {
        /// Optional destination register.
        dst: Option<Reg>,
        /// Which intrinsic.
        which: Intrinsic,
        /// Argument operands.
        args: Vec<Operand>,
    },
}

impl Inst {
    /// The register written by this instruction, if any.
    pub fn def(&self) -> Option<Reg> {
        match self {
            Inst::Const { dst, .. }
            | Inst::Copy { dst, .. }
            | Inst::Bin { dst, .. }
            | Inst::Cmp { dst, .. }
            | Inst::Ftoi { dst, .. }
            | Inst::Itof { dst, .. }
            | Inst::Load { dst, .. }
            | Inst::Alloc { dst, .. } => Some(*dst),
            Inst::Store { .. } => None,
            Inst::Call { dst, .. } | Inst::Intrin { dst, .. } => *dst,
        }
    }

    /// Visits every operand read by this instruction.
    pub fn for_each_use(&self, mut f: impl FnMut(Operand)) {
        match self {
            Inst::Const { .. } => {}
            Inst::Copy { src, .. } | Inst::Ftoi { src, .. } | Inst::Itof { src, .. } => f(*src),
            Inst::Bin { lhs, rhs, .. } | Inst::Cmp { lhs, rhs, .. } => {
                f(*lhs);
                f(*rhs);
            }
            Inst::Load { addr, .. } => f(*addr),
            Inst::Store { addr, value } => {
                f(*addr);
                f(*value);
            }
            Inst::Alloc { words, .. } => f(*words),
            Inst::Call { args, .. } | Inst::Intrin { args, .. } => {
                for a in args {
                    f(*a);
                }
            }
        }
    }
}

/// A block terminator.
#[derive(Clone, Debug, PartialEq)]
pub enum Term {
    /// Conditional branch: to `then_` when `cond` is truthy, else `else_`.
    ///
    /// The `site` id is the static-branch identity used by traces, pattern
    /// tables and replication; it is assigned / refreshed by
    /// [`crate::Module::renumber_branches`].
    Br {
        /// The condition operand.
        cond: Operand,
        /// Target when the condition is truthy (the *taken* direction).
        then_: BlockId,
        /// Target when the condition is falsy.
        else_: BlockId,
        /// Static branch site id.
        site: BranchId,
    },
    /// Unconditional jump.
    Jmp {
        /// Jump target.
        target: BlockId,
    },
    /// Return from the function.
    Ret {
        /// Optional return value.
        value: Option<Operand>,
    },
}

impl Term {
    /// Successor block ids, in `(taken, not-taken)` order for branches.
    pub fn successors(&self) -> impl Iterator<Item = BlockId> + '_ {
        let (a, b) = match self {
            Term::Br { then_, else_, .. } => (Some(*then_), Some(*else_)),
            Term::Jmp { target } => (Some(*target), None),
            Term::Ret { .. } => (None, None),
        };
        a.into_iter().chain(b)
    }

    /// Rewrites every successor block id through `f`.
    pub fn map_successors(&mut self, mut f: impl FnMut(BlockId) -> BlockId) {
        match self {
            Term::Br { then_, else_, .. } => {
                *then_ = f(*then_);
                *else_ = f(*else_);
            }
            Term::Jmp { target } => *target = f(*target),
            Term::Ret { .. } => {}
        }
    }

    /// Returns the branch site id if this is a conditional branch.
    pub fn branch_site(&self) -> Option<BranchId> {
        match self {
            Term::Br { site, .. } => Some(*site),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_truthiness() {
        assert!(Value::Int(1).is_truthy());
        assert!(Value::Int(-3).is_truthy());
        assert!(!Value::Int(0).is_truthy());
        assert!(Value::Float(0.5).is_truthy());
        assert!(!Value::Float(0.0).is_truthy());
    }

    #[test]
    fn cmp_negated_is_involution() {
        for op in CmpOp::ALL {
            assert_eq!(op.negated().negated(), op);
        }
    }

    #[test]
    fn cmp_swapped_is_involution() {
        for op in CmpOp::ALL {
            assert_eq!(op.swapped().swapped(), op);
        }
    }

    #[test]
    fn inst_def_and_uses() {
        let i = Inst::Bin {
            op: BinOp::Add,
            dst: Reg(3),
            lhs: Operand::Reg(Reg(1)),
            rhs: Operand::imm(7),
        };
        assert_eq!(i.def(), Some(Reg(3)));
        let mut uses = Vec::new();
        i.for_each_use(|o| uses.push(o));
        assert_eq!(uses.len(), 2);
        let st = Inst::Store {
            addr: Operand::imm(0),
            value: Operand::imm(1),
        };
        assert_eq!(st.def(), None);
    }

    #[test]
    fn term_successors_order() {
        let t = Term::Br {
            cond: Operand::imm(1),
            then_: BlockId(4),
            else_: BlockId(9),
            site: BranchId(0),
        };
        let succs: Vec<_> = t.successors().collect();
        assert_eq!(succs, vec![BlockId(4), BlockId(9)]);
        assert_eq!(t.branch_site(), Some(BranchId(0)));
    }

    #[test]
    fn map_successors_rewrites_all() {
        let mut t = Term::Br {
            cond: Operand::imm(1),
            then_: BlockId(0),
            else_: BlockId(1),
            site: BranchId(0),
        };
        t.map_successors(|b| BlockId(b.0 + 10));
        assert_eq!(
            t.successors().collect::<Vec<_>>(),
            vec![BlockId(10), BlockId(11)]
        );
    }
}
