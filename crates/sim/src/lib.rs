//! # brepl-sim — an interpreter for the brepl IR with branch tracing
//!
//! This is the reproduction's stand-in for the paper's profiling tool: the
//! paper inserts trace code into assembly sources and runs the instrumented
//! binary; we interpret the IR directly and emit a [`brepl_trace::Trace`]
//! of `(branch site, direction)` events. Because replication transforms
//! produce new modules, the same machine also *verifies* transforms by
//! comparing observable outputs between original and replicated programs.
//!
//! Each run feeds its branch events to a [`brepl_trace::EventSink`]
//! chosen by the caller ([`Machine::run_with`]): a [`brepl_trace::Trace`]
//! records them, a [`brepl_trace::TraceStats`] only counts them per site.
//!
//! The machine pre-decodes the module into a flat executable form on
//! construction and grows its heap lazily, so repeated runs are cheap;
//! the original tree-walking interpreter survives as
//! [`ReferenceMachine`], the oracle the golden bit-identity tests compare
//! the fast path against.
//!
//! ```
//! use brepl_ir::{FunctionBuilder, Module, Operand};
//! use brepl_sim::{Machine, RunConfig};
//!
//! let mut b = FunctionBuilder::new("main", 0);
//! let i = b.reg();
//! b.const_int(i, 0);
//! let head = b.new_block();
//! let body = b.new_block();
//! let done = b.new_block();
//! b.jmp(head);
//! b.switch_to(head);
//! let c = b.lt(i.into(), Operand::imm(10));
//! b.br(c, body, done);
//! b.switch_to(body);
//! b.add(i, i.into(), Operand::imm(1));
//! b.jmp(head);
//! b.switch_to(done);
//! b.out(i.into());
//! b.ret(None);
//!
//! let mut m = Module::new();
//! m.push_function(b.finish());
//!
//! let mut machine = Machine::new(&m, RunConfig::default()).unwrap();
//! let outcome = machine.run("main", &[]).unwrap();
//! assert_eq!(outcome.trace.len(), 11); // 10 taken + 1 exit
//! assert_eq!(machine.output()[0], brepl_ir::Value::Int(10));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arith;
mod error;
mod exec;
mod machine;
mod reference;

pub use error::RunError;
pub use machine::{Machine, Outcome, OutputCheck, Run, RunConfig};
pub use reference::ReferenceMachine;
