//! # brepl-ir — a small register-based imperative IR
//!
//! This crate defines the program representation used throughout `brepl`,
//! the reproduction of Krall's PLDI 1994 paper *Improving Semi-static Branch
//! Prediction by Code Replication*. The paper operates on MIPS assembly;
//! we operate on a compact, analyzable IR with the same essential structure:
//! mutable virtual registers (non-SSA), basic blocks, explicit conditional
//! branches carrying stable [`BranchId`] site identifiers, and a word
//! addressed memory.
//!
//! The IR is deliberately *non-SSA*: the code-replication transform
//! duplicates basic blocks freely and rewires edges between replicas, which
//! is trivial when registers are mutable storage and would require phi-node
//! surgery under SSA. This mirrors the paper's assembly-level setting.
//!
//! ## Quick tour
//!
//! ```
//! use brepl_ir::{Module, FunctionBuilder, Operand};
//!
//! // fn count(n) { s = 0; for i in 0..n { s += i }; return s }
//! let mut b = FunctionBuilder::new("count", 1);
//! let n = b.param(0);
//! let s = b.reg();
//! let i = b.reg();
//! let head = b.new_block();
//! let body = b.new_block();
//! let done = b.new_block();
//!
//! b.const_int(s, 0);
//! b.const_int(i, 0);
//! b.jmp(head);
//!
//! b.switch_to(head);
//! let c = b.lt(Operand::from(i), Operand::from(n));
//! b.br(c, body, done);
//!
//! b.switch_to(body);
//! b.add(s, s.into(), i.into());
//! b.add(i, i.into(), Operand::imm(1));
//! b.jmp(head);
//!
//! b.switch_to(done);
//! b.ret(Some(s.into()));
//!
//! let mut module = Module::new();
//! module.push_function(b.finish());
//! module.verify().unwrap();
//! assert_eq!(module.branch_count(), 1);
//! ```
//!
//! A textual format is provided for debugging and tests; see [`parse_module`]
//! and the [`std::fmt::Display`] impl on [`Module`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod builder;
mod display;
mod fingerprint;
mod ids;
mod inst;
mod loc;
mod module;
mod parse;
mod verify;

pub use builder::FunctionBuilder;
pub use fingerprint::Lanes;
pub use ids::{BlockId, BranchId, FuncId, Reg};
pub use inst::{BinOp, CmpOp, Inst, Intrinsic, Operand, Term, Value};
pub use loc::{InstIdx, Loc};
pub use module::{Block, Function, Module};
pub use parse::{parse_module, ParseModuleError};
pub use verify::VerifyError;
