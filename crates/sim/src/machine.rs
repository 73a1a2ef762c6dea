//! The interpreter proper: a machine bound to a pre-decoded module.

use std::borrow::Cow;

use brepl_ir::{Module, Value};
use brepl_trace::{EventSink, Trace};

use crate::error::RunError;
use crate::exec::{self, ExecModule};

/// Execution limits and seeds.
#[derive(Clone, Copy, Debug)]
pub struct RunConfig {
    /// Heap size in words (globals + allocations). This is the *logical*
    /// size — physical memory is only committed as the program stores.
    pub heap_words: usize,
    /// Maximum number of executed instructions (terminators included).
    pub fuel: u64,
    /// Maximum call depth.
    pub max_call_depth: usize,
    /// Seed for the deterministic `rand` intrinsic.
    pub seed: u64,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            heap_words: 1 << 22,
            fuel: 500_000_000,
            max_call_depth: 10_000,
            seed: 0x9E37_79B9_7F4A_7C15,
        }
    }
}

/// The result of a successful run.
#[derive(Clone, Debug, PartialEq)]
pub struct Outcome {
    /// The entry function's return value.
    pub result: Option<Value>,
    /// The branch trace of the whole execution.
    pub trace: Trace,
    /// Instructions executed.
    pub steps: u64,
}

/// The result of a successful [`Machine::run_with`]: the run's event sink
/// in place of a trace.
#[derive(Clone, Debug, PartialEq)]
pub struct Run<S> {
    /// The entry function's return value.
    pub result: Option<Value>,
    /// The sink every conditional branch of the run was fed to.
    pub sink: S,
    /// Instructions executed.
    pub steps: u64,
    /// One mark per segment bound passed to [`Machine::run_with`] (none
    /// for an unsegmented run); see [`Machine::run_segmented`].
    pub marks: Vec<usize>,
}

impl From<Run<Trace>> for Outcome {
    fn from(run: Run<Trace>) -> Self {
        Outcome {
            result: run.result,
            trace: run.sink,
            steps: run.steps,
        }
    }
}

/// An interpreter instance bound to one module.
///
/// Construction pre-decodes the module into a flat executable form (see
/// `exec`), so repeated runs pay the decode once. The heap is lazily
/// grown: [`RunConfig::heap_words`] bounds addresses, but physical memory
/// is committed only as far as the program actually stores — a load
/// beyond the committed end yields `Int(0)`, exactly what a zero-filled
/// heap would hold there.
///
/// The machine owns the heap and the output tape, and owns or borrows
/// the input tape; a fresh machine gives a fresh program state, so two
/// runs with the same inputs are bit-identical — profiles are
/// deterministic.
pub struct Machine<'m> {
    module: &'m Module,
    exec: ExecModule,
    heap: Vec<Value>,
    brk: usize,
    input: Cow<'m, [Value]>,
    input_pos: usize,
    output: Vec<Value>,
    prng: u64,
    config: RunConfig,
    /// Register stack shared by all call frames, reused across runs.
    regs: Vec<Value>,
}

impl<'m> Machine<'m> {
    /// Creates a machine for `module`, pre-decoding it for execution.
    ///
    /// # Errors
    ///
    /// Returns [`RunError::GlobalsExceedHeap`] if the module's global
    /// segment does not fit in the configured heap.
    pub fn new(module: &'m Module, config: RunConfig) -> Result<Self, RunError> {
        if module.globals > config.heap_words {
            return Err(RunError::GlobalsExceedHeap {
                globals: module.globals,
                heap_words: config.heap_words,
            });
        }
        Ok(Machine {
            module,
            exec: ExecModule::decode(module),
            heap: Vec::new(),
            brk: module.globals,
            input: Cow::Borrowed(&[]),
            input_pos: 0,
            output: Vec::new(),
            prng: config.seed | 1,
            config,
            regs: Vec::new(),
        })
    }

    /// Replaces the input tape consumed by the `in()` intrinsic.
    pub fn set_input(&mut self, input: Vec<Value>) {
        self.input = Cow::Owned(input);
        self.input_pos = 0;
    }

    /// Replaces the input tape with a borrowed one: [`Self::set_input`]
    /// without a copy of the tape.
    pub fn borrow_input(&mut self, input: &'m [Value]) {
        self.input = Cow::Borrowed(input);
        self.input_pos = 0;
    }

    /// Reserves room for `n` more output values, so that a run whose
    /// output length is known ahead does not grow its tape by doubling.
    pub fn reserve_output(&mut self, n: usize) {
        self.output.reserve_exact(n);
    }

    /// The values written by the `out()` intrinsic so far.
    pub fn output(&self) -> &[Value] {
        &self.output
    }

    /// Consumes the machine, moving its output tape out.
    pub fn into_output(self) -> Vec<Value> {
        self.output
    }

    /// Runs `entry(args)` to completion, recording every conditional branch.
    ///
    /// # Errors
    ///
    /// Returns a [`RunError`] on traps (division by zero, bad address,
    /// fuel/stack exhaustion, type errors) or if `entry` is unknown.
    pub fn run(&mut self, entry: &str, args: &[Value]) -> Result<Outcome, RunError> {
        self.run_with(entry, args, &[], Trace::new())
            .map(Outcome::from)
    }

    /// Runs `entry(args)` like [`Machine::run`], additionally recording
    /// where each input-segment boundary falls in the branch trace.
    ///
    /// `bounds` are ascending input positions at which a new segment
    /// begins; the returned marks give, for each bound, the trace length
    /// at the moment the `in()` intrinsic first reached that position.
    /// `marks[k-1]..marks[k]` (with the final bound closed by the total
    /// trace length) is therefore exactly the slice of branch events
    /// driven by segment `k`'s input — the unit the re-specialization
    /// layer observes. Bounds the program never consumed up to are padded
    /// with the final trace length, so the result always has one mark per
    /// bound. The execution itself (steps, fuel, trace, output) is
    /// bit-identical to [`Machine::run`] on the same input.
    ///
    /// # Errors
    ///
    /// Same error conditions as [`Machine::run`].
    pub fn run_segmented(
        &mut self,
        entry: &str,
        args: &[Value],
        bounds: &[usize],
    ) -> Result<(Outcome, Vec<usize>), RunError> {
        let mut run = self.run_with(entry, args, bounds, Trace::new())?;
        let marks = std::mem::take(&mut run.marks);
        Ok((run.into(), marks))
    }

    /// Runs `entry(args)` to completion, feeding every conditional branch
    /// to `sink` in execution order: a [`Trace`] records the events, a
    /// [`brepl_trace::TraceStats`] only counts them per site (and equals
    /// `trace.stats()` of the recorded run). The execution — result,
    /// steps, fuel, output — does not depend on the sink.
    ///
    /// `bounds` are segment bounds as in [`Machine::run_segmented`]; the
    /// marks count the events the sink had taken, and come back in
    /// [`Run::marks`], padded to one per bound. Pass `&[]` for an
    /// unsegmented run.
    ///
    /// # Errors
    ///
    /// Same error conditions as [`Machine::run`].
    pub fn run_with<S: EventSink>(
        &mut self,
        entry: &str,
        args: &[Value],
        bounds: &[usize],
        sink: S,
    ) -> Result<Run<S>, RunError> {
        let fid = self
            .module
            .function_by_name(entry)
            .ok_or_else(|| RunError::UnknownFunction(entry.to_string()))?;
        let mut marks = Vec::with_capacity(bounds.len());
        let state = exec::State {
            heap: &mut self.heap,
            heap_limit: self.config.heap_words,
            brk: &mut self.brk,
            input: &self.input,
            input_pos: &mut self.input_pos,
            output: &mut self.output,
            prng: &mut self.prng,
            seg_bounds: bounds,
            seg_marks: &mut marks,
            sink,
        };
        let (result, sink, steps) = exec::run(
            &self.exec,
            state,
            &mut self.regs,
            fid.index(),
            args,
            self.config.fuel,
            self.config.max_call_depth,
        )?;
        marks.resize(bounds.len(), sink.events());
        Ok(Run {
            result,
            sink,
            steps,
            marks,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use brepl_ir::{FunctionBuilder, Module, Operand};

    fn run_module(m: &Module, entry: &str, args: &[Value]) -> Result<Outcome, RunError> {
        Machine::new(m, RunConfig::default())
            .unwrap()
            .run(entry, args)
    }

    fn simple_main(build: impl FnOnce(&mut FunctionBuilder)) -> Module {
        let mut b = FunctionBuilder::new("main", 0);
        build(&mut b);
        let mut m = Module::new();
        m.push_function(b.finish());
        m
    }

    #[test]
    fn arithmetic_and_return() {
        let m = simple_main(|b| {
            let x = b.iconst(6);
            let y = b.reg();
            b.mul(y, x.into(), Operand::imm(7));
            b.ret(Some(y.into()));
        });
        let out = run_module(&m, "main", &[]).unwrap();
        assert_eq!(out.result, Some(Value::Int(42)));
        assert!(out.trace.is_empty());
    }

    #[test]
    fn float_arithmetic() {
        let m = simple_main(|b| {
            let x = b.reg();
            b.const_float(x, 2.0);
            let y = b.reg();
            b.div(y, Operand::fimm(1.0), x.into());
            let s = b.reg();
            b.intrin(Some(s), brepl_ir::Intrinsic::Sqrt, vec![Operand::fimm(9.0)]);
            let z = b.reg();
            b.add(z, y.into(), s.into());
            b.ret(Some(z.into()));
        });
        let out = run_module(&m, "main", &[]).unwrap();
        assert_eq!(out.result, Some(Value::Float(3.5)));
    }

    #[test]
    fn loop_traces_branches() {
        let m = simple_main(|b| {
            let i = b.reg();
            b.const_int(i, 0);
            let head = b.new_block();
            let body = b.new_block();
            let done = b.new_block();
            b.jmp(head);
            b.switch_to(head);
            let c = b.lt(i.into(), Operand::imm(5));
            b.br(c, body, done);
            b.switch_to(body);
            b.add(i, i.into(), Operand::imm(1));
            b.jmp(head);
            b.switch_to(done);
            b.ret(Some(i.into()));
        });
        let out = run_module(&m, "main", &[]).unwrap();
        assert_eq!(out.result, Some(Value::Int(5)));
        assert_eq!(out.trace.len(), 6);
        let dirs: Vec<bool> = out.trace.iter().map(|e| e.taken).collect();
        assert_eq!(dirs, vec![true, true, true, true, true, false]);
    }

    #[test]
    fn calls_and_recursion() {
        // fib(n) recursive.
        let mut fb = FunctionBuilder::new("fib", 1);
        let n = fb.param(0);
        let rec = fb.new_block();
        let base = fb.new_block();
        let c = fb.lt(n.into(), Operand::imm(2));
        fb.br(c, base, rec);
        fb.switch_to(base);
        fb.ret(Some(n.into()));
        fb.switch_to(rec);
        let a = fb.reg();
        let b_ = fb.reg();
        let n1 = fb.reg();
        let n2 = fb.reg();
        fb.sub(n1, n.into(), Operand::imm(1));
        fb.sub(n2, n.into(), Operand::imm(2));
        fb.call(Some(a), "fib", vec![n1.into()]);
        fb.call(Some(b_), "fib", vec![n2.into()]);
        let s = fb.reg();
        fb.add(s, a.into(), b_.into());
        fb.ret(Some(s.into()));

        let mut mb = FunctionBuilder::new("main", 0);
        let r = mb.reg();
        mb.call(Some(r), "fib", vec![Operand::imm(10)]);
        mb.ret(Some(r.into()));

        let mut m = Module::new();
        m.push_function(fb.finish());
        m.push_function(mb.finish());
        let out = run_module(&m, "main", &[]).unwrap();
        assert_eq!(out.result, Some(Value::Int(55)));
        assert!(out.trace.len() > 100);
    }

    #[test]
    fn memory_and_io() {
        let m = simple_main(|b| {
            let base = b.reg();
            b.alloc(base, Operand::imm(4));
            b.store(base.into(), Operand::imm(11));
            let v = b.reg();
            b.load(v, base.into());
            b.out(v.into());
            let inp = b.input();
            b.out(inp.into());
            let empty = b.input();
            b.out(empty.into());
            b.ret(None);
        });
        let mut machine = Machine::new(&m, RunConfig::default()).unwrap();
        machine.set_input(vec![Value::Int(99)]);
        machine.run("main", &[]).unwrap();
        assert_eq!(
            machine.output(),
            &[Value::Int(11), Value::Int(99), Value::Int(-1)]
        );
    }

    #[test]
    fn rand_is_deterministic() {
        let m = simple_main(|b| {
            let r = b.rand(Operand::imm(1000));
            b.ret(Some(r.into()));
        });
        let a = run_module(&m, "main", &[]).unwrap().result;
        let b_ = run_module(&m, "main", &[]).unwrap().result;
        assert_eq!(a, b_);
    }

    #[test]
    fn traps() {
        let div = simple_main(|b| {
            let x = b.reg();
            b.div(x, Operand::imm(1), Operand::imm(0));
            b.ret(None);
        });
        assert_eq!(
            run_module(&div, "main", &[]).unwrap_err(),
            RunError::DivisionByZero
        );

        let bad_addr = simple_main(|b| {
            let x = b.reg();
            b.load(x, Operand::imm(-1));
            b.ret(None);
        });
        assert_eq!(
            run_module(&bad_addr, "main", &[]).unwrap_err(),
            RunError::BadAddress(-1)
        );

        let spin = simple_main(|b| {
            let head = b.new_block();
            b.jmp(head);
            b.switch_to(head);
            b.jmp(head);
        });
        let mut machine = Machine::new(
            &spin,
            RunConfig {
                fuel: 1000,
                ..RunConfig::default()
            },
        )
        .unwrap();
        assert_eq!(machine.run("main", &[]).unwrap_err(), RunError::OutOfFuel);
    }

    #[test]
    fn stack_overflow_detected() {
        let mut fb = FunctionBuilder::new("f", 0);
        fb.call(None, "f", vec![]);
        fb.ret(None);
        let mut m = Module::new();
        m.push_function(fb.finish());
        let err = Machine::new(
            &m,
            RunConfig {
                max_call_depth: 64,
                ..RunConfig::default()
            },
        )
        .unwrap()
        .run("f", &[])
        .unwrap_err();
        assert_eq!(err, RunError::StackOverflow);
    }

    #[test]
    fn unknown_entry_and_arity() {
        let m = simple_main(|b| b.ret(None));
        assert!(matches!(
            run_module(&m, "nope", &[]).unwrap_err(),
            RunError::UnknownFunction(_)
        ));
        assert!(matches!(
            run_module(&m, "main", &[Value::Int(1)]).unwrap_err(),
            RunError::BadArgCount { .. }
        ));
    }

    #[test]
    fn globals_exceeding_heap_is_a_typed_error() {
        let mut m = simple_main(|b| b.ret(None));
        m.globals = 64;
        let err = Machine::new(
            &m,
            RunConfig {
                heap_words: 32,
                ..RunConfig::default()
            },
        )
        .err()
        .expect("construction must fail");
        assert_eq!(
            err,
            RunError::GlobalsExceedHeap {
                globals: 64,
                heap_words: 32
            }
        );
    }

    #[test]
    fn lazy_heap_matches_zero_filled_semantics() {
        // Load far beyond anything stored: a zero-filled heap holds
        // Int(0) there, and so must the lazily committed one. Stores past
        // the logical limit still trap.
        let m = simple_main(|b| {
            let v = b.reg();
            b.load(v, Operand::imm(1000));
            b.out(v.into());
            b.store(Operand::imm(500), Operand::imm(7));
            let w = b.reg();
            b.load(w, Operand::imm(500));
            b.out(w.into());
            b.ret(None);
        });
        let mut machine = Machine::new(
            &m,
            RunConfig {
                heap_words: 1024,
                ..RunConfig::default()
            },
        )
        .unwrap();
        machine.run("main", &[]).unwrap();
        assert_eq!(machine.output(), &[Value::Int(0), Value::Int(7)]);

        let oob = simple_main(|b| {
            b.store(Operand::imm(1024), Operand::imm(1));
            b.ret(None);
        });
        let err = Machine::new(
            &oob,
            RunConfig {
                heap_words: 1024,
                ..RunConfig::default()
            },
        )
        .unwrap()
        .run("main", &[])
        .unwrap_err();
        assert_eq!(err, RunError::BadAddress(1024));
    }

    #[test]
    fn segmented_runs_mark_boundaries_and_stay_bit_identical() {
        // Loop of 10 iterations; each reads one input and branches on it,
        // so every iteration contributes exactly two trace events (loop
        // head + data branch) and consumes exactly one input element.
        let m = simple_main(|b| {
            let i = b.reg();
            let head = b.new_block();
            let body = b.new_block();
            let t = b.new_block();
            let f = b.new_block();
            let latch = b.new_block();
            let exit = b.new_block();
            b.const_int(i, 0);
            b.jmp(head);
            b.switch_to(head);
            let more = b.lt(i.into(), Operand::imm(10));
            b.br(more, body, exit);
            b.switch_to(body);
            let v = b.input();
            let one = b.eq(v.into(), Operand::imm(1));
            b.br(one, t, f);
            b.switch_to(t);
            b.jmp(latch);
            b.switch_to(f);
            b.jmp(latch);
            b.switch_to(latch);
            b.add(i, i.into(), Operand::imm(1));
            b.jmp(head);
            b.switch_to(exit);
            b.ret(None);
        });
        let input: Vec<Value> = (0..10).map(|k| Value::Int(k % 2)).collect();

        let mut plain = Machine::new(&m, RunConfig::default()).unwrap();
        plain.set_input(input.clone());
        let want = plain.run("main", &[]).unwrap();

        let mut seg = Machine::new(&m, RunConfig::default()).unwrap();
        seg.set_input(input.clone());
        let (got, marks) = seg.run_segmented("main", &[], &[4, 7]).unwrap();
        // Iteration k's `in()` happens after 2k+1 trace events.
        assert_eq!(marks, vec![9, 15]);
        assert_eq!(got, want, "segmented run must be bit-identical");

        // A bound at position 0 marks before any input is consumed; a
        // bound past the tape is padded with the final trace length.
        let mut seg = Machine::new(&m, RunConfig::default()).unwrap();
        seg.set_input(input);
        let (got, marks) = seg.run_segmented("main", &[], &[0, 4, 100]).unwrap();
        assert_eq!(marks, vec![1, 9, got.trace.len()]);
        assert_eq!(got.trace.len(), 21);
    }
}
