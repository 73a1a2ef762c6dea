//! The pre-decoded executable form and its flat dispatch loop.
//!
//! [`ExecModule::decode`] lowers a [`Module`] once, up front, into a flat
//! arena of fixed-size [`Op`]s: block structure becomes program-counter
//! indices, operands become packed register/constant-pool indices, call
//! targets become function indices and intrinsics are specialized per
//! kind. The run loop is then a single `ops[pc]` dispatch with no
//! per-step allocation — call frames share one register stack — and no
//! name lookups.
//!
//! Malformed code that the old tree-walking interpreter only rejected
//! when reached (an unknown callee, an intrinsic missing its argument)
//! decodes to a [`Op::Trap`] carrying the exact [`RunError`], so errors
//! still surface lazily and the two engines stay observably identical.
//! The reference tree-walk lives on in [`crate::ReferenceMachine`] as the
//! oracle the golden tests compare against.

use brepl_ir::{BinOp, BranchId, CmpOp, Inst, Intrinsic, Module, Operand, Term, Value};
use brepl_trace::EventSink;

use crate::arith::{eval_bin, eval_cmp};
use crate::error::RunError;
use crate::machine::OutputCheck;

/// Packed-operand flag: the low 31 bits index the constant pool instead
/// of the current frame's registers.
const IMM_BIT: u32 = 1 << 31;

/// Sentinel for "no register" in optional destination/value slots.
const NONE: u32 = u32::MAX;

/// One decoded function.
pub(crate) struct ExecFunc {
    pub n_params: u32,
    pub n_regs: u32,
    pub entry_pc: u32,
}

/// `dst = lhs op rhs`.
#[derive(Clone, Copy, Debug)]
struct Bin {
    op: BinOp,
    dst: u32,
    lhs: u32,
    rhs: u32,
}

/// `dst = lhs op rhs`, written as `Int(0)` or `Int(1)`.
#[derive(Clone, Copy, Debug)]
struct Cmp {
    op: CmpOp,
    dst: u32,
    lhs: u32,
    rhs: u32,
}

/// `dst = heap[addr]`.
#[derive(Clone, Copy, Debug)]
struct Load {
    dst: u32,
    addr: u32,
}

/// `heap[addr] = value`.
#[derive(Clone, Copy, Debug)]
struct Store {
    addr: u32,
    value: u32,
}

/// Where a conditional branch goes, and the site its event is recorded
/// under.
#[derive(Clone, Copy, Debug)]
struct Edge {
    then_pc: u32,
    else_pc: u32,
    site: BranchId,
}

/// A conditional branch on register or constant `cond`.
#[derive(Clone, Copy, Debug)]
struct Br {
    cond: u32,
    edge: Edge,
}

/// An unconditional jump, pre-threaded through any chain of further
/// jump-only blocks: `target` is the end of the chain and `count` the
/// number of jumps collapsed (each still costs one step, so fuel
/// accounting is unchanged).
#[derive(Clone, Copy, Debug)]
struct Jump {
    target: u32,
    count: u32,
}

/// One fixed-size decoded operation. Branch targets are absolute indices
/// into the op arena; operands are packed (see [`IMM_BIT`]).
///
/// The superinstructions from [`Op::BinBin`] on hold their component ops'
/// payloads and run them in order through the same helpers as the plain
/// ops, with one step and fuel check between components, so each is
/// observably the sequence it replaces.
#[derive(Debug)]
enum Op {
    Const {
        dst: u32,
        value: Value,
    },
    Copy {
        dst: u32,
        src: u32,
    },
    Bin(Bin),
    Cmp(Cmp),
    Ftoi {
        dst: u32,
        src: u32,
    },
    Itof {
        dst: u32,
        src: u32,
    },
    Load(Load),
    Store(Store),
    Alloc {
        dst: u32,
        words: u32,
    },
    Call {
        func: u32,
        args_start: u32,
        args_len: u32,
        ret_dst: u32,
    },
    Out {
        arg: u32,
        dst: u32,
    },
    In {
        dst: u32,
    },
    Rand {
        arg: u32,
        dst: u32,
    },
    Sqrt {
        arg: u32,
        dst: u32,
    },
    /// Raises `traps[err]` when executed (lazy decode-time diagnosis).
    Trap {
        err: u32,
    },
    Br(Br),
    /// Fused compare-and-branch: a block whose last instruction is the
    /// `Cmp` producing the terminator's condition register dispatches
    /// once for both. Costs two steps (the compare and the branch,
    /// fuel-checked separately) and still writes the compare's
    /// destination register, so it is observably the unfused pair.
    CmpBr(Cmp, Edge),
    Jmp(Jump),
    Ret {
        value: u32,
    },
    /// Two consecutive `Bin`s in one dispatch. The second op's slot keeps
    /// its plain form (a call can still return into it); the fused head
    /// executes both, fuel-checking between them, and skips two slots.
    BinBin(Bin, Bin),
    /// A `Bin` feeding straight into a `Load` — the dominant addressing
    /// idiom (`mul`/`add` then `load`). Same slot discipline as
    /// [`Op::BinBin`].
    BinLoad(Bin, Load),
    /// A block-closing `Bin` fused with the (already threaded) `Jmp`
    /// terminator that follows it — the back-edge of nearly every loop
    /// body.
    BinJmp(Bin, Jump),
    /// A `Bin` feeding a following `Store` — the compute-address (or
    /// compute-value) half of nearly every heap write.
    BinStore(Bin, Store),
    /// A `Load` feeding the fused compare-and-branch that closes the
    /// block — the search-loop idiom (`load; cmp; br`). Costs three
    /// steps, each fuel-checked in original order.
    LoadCmpBr(Load, Cmp, Edge),
    /// Two consecutive `Const`s in one dispatch — loop-preheader
    /// initialization runs. Same slot discipline as [`Op::BinBin`]. The
    /// two halves are stored as arrays: as two `(dst, value)` pairs the
    /// variant would widen every op to 56 bytes.
    ConstConst {
        dst: [u32; 2],
        value: [Value; 2],
    },
    /// A block-closing `Const` fused with the (threaded) `Jmp` after it.
    ConstJmp {
        dst: u32,
        value: Value,
        jump: Jump,
    },
    /// A `Copy` feeding the fused compare-and-branch that closes the
    /// block. Three steps, like [`Op::LoadCmpBr`].
    CopyCmpBr {
        dst: u32,
        src: u32,
        cmp: Cmp,
        edge: Edge,
    },
    /// A `Bin` feeding the fused compare-and-branch — the canonical
    /// loop latch (`i += step; cmp i, n; br`). Three steps, like
    /// [`Op::LoadCmpBr`].
    BinCmpBr(Bin, Cmp, Edge),
    /// Triple: two `Bin`s closing a block plus its (threaded) `Jmp` —
    /// the two-instruction loop body falling into its back-edge. The
    /// head executes all three; the two tail slots keep their own
    /// (pair-fused) forms for direct entry.
    BinBinJmp(Bin, Bin, Jump),
    /// Triple: a `Cmp`, a `Bin`, and the conditional branch closing the
    /// block — the compare whose flag survives one arithmetic op before
    /// being branched on. Same slot discipline as [`Op::BinBinJmp`].
    CmpBinBr(Cmp, Bin, Br),
    /// Triple: a `Load` feeding a `Cmp` feeding a `Bin` — the
    /// scan-and-accumulate inner-loop run. Same slot discipline as
    /// [`Op::BinBinJmp`]; advances three slots.
    LoadCmpBin(Load, Cmp, Bin),
}

// The arena's stride: a fused variant that outgrows it slows every
// dispatch, fused or not.
const _: () = assert!(std::mem::size_of::<Op>() == 48);

/// A module lowered for execution.
pub(crate) struct ExecModule {
    funcs: Vec<ExecFunc>,
    ops: Vec<Op>,
    consts: Vec<Value>,
    /// Flattened packed argument lists for every call site.
    call_args: Vec<u32>,
    /// Errors raised by [`Op::Trap`].
    traps: Vec<RunError>,
}

impl ExecModule {
    /// Lowers `module`. Function indices match the module's own, so a
    /// [`brepl_ir::FuncId`] resolved by name indexes `funcs` directly.
    pub(crate) fn decode(module: &Module) -> ExecModule {
        let mut exec = ExecModule {
            funcs: Vec::with_capacity(module.function_count()),
            ops: Vec::new(),
            consts: Vec::new(),
            call_args: Vec::new(),
            traps: Vec::new(),
        };
        for (_, f) in module.iter_functions() {
            // Lay the function's blocks out contiguously; each block costs
            // its instructions plus one terminator op.
            let base = exec.ops.len() as u32;
            let mut block_pcs = Vec::with_capacity(f.blocks.len());
            let mut off = base;
            for b in &f.blocks {
                block_pcs.push(off);
                off += b.insts.len() as u32 + 1;
            }
            exec.funcs.push(ExecFunc {
                n_params: f.n_params,
                n_regs: f.n_regs,
                entry_pc: block_pcs[f.entry.index()],
            });
            for b in &f.blocks {
                for inst in &b.insts {
                    let op = exec.decode_inst(module, inst);
                    exec.ops.push(op);
                }
                let term = exec.decode_term(&b.term, &block_pcs);
                exec.fuse_cmp_br(b, term);
            }
        }
        exec.thread_jumps();
        exec.fuse_triples();
        exec.fuse_pairs();
        exec
    }

    /// Rewrites three-op straight-line runs into one dispatch, before the
    /// pair pass so the pair pass can still fuse the tail slots for
    /// direct entry. Same overlap discipline as [`ExecModule::fuse_pairs`]:
    /// every slot keeps an op executing the original sequence from there.
    fn fuse_triples(&mut self) {
        for i in 0..self.ops.len().saturating_sub(2) {
            self.ops[i] = match (&self.ops[i], &self.ops[i + 1], &self.ops[i + 2]) {
                (&Op::Bin(a), &Op::Bin(b), &Op::Jmp(j)) => Op::BinBinJmp(a, b, j),
                (&Op::Cmp(c), &Op::Bin(b), &Op::Br(t)) => Op::CmpBinBr(c, b, t),
                (&Op::Load(l), &Op::Cmp(c), &Op::Bin(b)) => Op::LoadCmpBin(l, c, b),
                _ => continue,
            };
        }
    }

    /// Rewrites every op whose successor slot forms a fusable pair into
    /// the two-in-one superinstruction. Rewrites overlap deliberately: a
    /// run `a b c` becomes `ab bc c`, and whichever slot control enters
    /// (fallthrough, branch target, or a call's return pc) executes the
    /// original sequence — a fused head performs both ops and advances
    /// two slots (or jumps away, for terminator-tailed fusions). Pairs of
    /// instruction-kind ops never span a block boundary; the `Jmp`- and
    /// `CmpBr`-tailed cases fuse a block's last instruction with its own
    /// terminator, which also cannot cross blocks. `Cmp; Bin` and
    /// `Bin; Br` stay unfused: each ran for under 0.4 % of dispatches.
    fn fuse_pairs(&mut self) {
        for i in 0..self.ops.len().saturating_sub(1) {
            self.ops[i] = match (&self.ops[i], &self.ops[i + 1]) {
                (&Op::Bin(a), &Op::Bin(b)) => Op::BinBin(a, b),
                (&Op::Bin(b), &Op::Load(l)) => Op::BinLoad(b, l),
                (&Op::Bin(b), &Op::Jmp(j)) => Op::BinJmp(b, j),
                (&Op::Bin(b), &Op::Store(s)) => Op::BinStore(b, s),
                (&Op::Bin(b), &Op::CmpBr(c, e)) => Op::BinCmpBr(b, c, e),
                (&Op::Load(l), &Op::CmpBr(c, e)) => Op::LoadCmpBr(l, c, e),
                (&Op::Const { dst, value }, &Op::Const { dst: d, value: v }) => Op::ConstConst {
                    dst: [dst, d],
                    value: [value, v],
                },
                (&Op::Const { dst, value }, &Op::Jmp(jump)) => Op::ConstJmp { dst, value, jump },
                (&Op::Copy { dst, src }, &Op::CmpBr(cmp, edge)) => Op::CopyCmpBr {
                    dst,
                    src,
                    cmp,
                    edge,
                },
                _ => continue,
            };
        }
    }

    /// Pushes the decoded terminator, fusing it into the preceding `Cmp`
    /// when that compare is the block's last instruction and produces the
    /// branch condition. The terminator slot keeps the plain `Br` so the
    /// block layout (and every pc) is unchanged; the fused case never
    /// reaches it, because the `CmpBr` slot jumps away.
    fn fuse_cmp_br(&mut self, block: &brepl_ir::Block, term: Op) {
        if let Op::Br(t) = term {
            if t.cond & IMM_BIT == 0 && !block.insts.is_empty() {
                if let Some(&Op::Cmp(c)) = self.ops.last() {
                    if c.dst == t.cond {
                        *self.ops.last_mut().expect("just matched") = Op::CmpBr(c, t.edge);
                    }
                }
            }
        }
        self.ops.push(term);
    }

    /// Collapses chains of jump-only blocks: a `Jmp` whose target is
    /// another `Jmp` is rewritten to point at the end of the chain,
    /// carrying the number of jumps folded so the run loop burns the same
    /// fuel. Chains are capped (cycles of empty blocks stay partially
    /// threaded and spin at run time exactly as before, until fuel runs
    /// out).
    fn thread_jumps(&mut self) {
        const MAX_CHAIN: u32 = 64;
        for pc in 0..self.ops.len() {
            let Op::Jmp(Jump { target, .. }) = self.ops[pc] else {
                continue;
            };
            let mut t = target;
            let mut count = 1u32;
            while count < MAX_CHAIN {
                match self.ops[t as usize] {
                    Op::Jmp(next) if t as usize != pc => {
                        t = next.target;
                        count += next.count;
                    }
                    _ => break,
                }
            }
            self.ops[pc] = Op::Jmp(Jump { target: t, count });
        }
    }

    fn pack(&mut self, o: Operand) -> u32 {
        match o {
            Operand::Reg(r) => r.index() as u32,
            Operand::Imm(v) => {
                let idx = self.consts.len() as u32;
                self.consts.push(v);
                idx | IMM_BIT
            }
        }
    }

    fn pack_dst(dst: Option<brepl_ir::Reg>) -> u32 {
        dst.map_or(NONE, |r| r.index() as u32)
    }

    fn trap(&mut self, err: RunError) -> Op {
        let idx = self.traps.len() as u32;
        self.traps.push(err);
        Op::Trap { err: idx }
    }

    fn decode_inst(&mut self, module: &Module, inst: &Inst) -> Op {
        match inst {
            Inst::Const { dst, value } => Op::Const {
                dst: dst.index() as u32,
                value: *value,
            },
            Inst::Copy { dst, src } => Op::Copy {
                dst: dst.index() as u32,
                src: self.pack(*src),
            },
            Inst::Bin { op, dst, lhs, rhs } => Op::Bin(Bin {
                op: *op,
                dst: dst.index() as u32,
                lhs: self.pack(*lhs),
                rhs: self.pack(*rhs),
            }),
            Inst::Cmp { op, dst, lhs, rhs } => Op::Cmp(Cmp {
                op: *op,
                dst: dst.index() as u32,
                lhs: self.pack(*lhs),
                rhs: self.pack(*rhs),
            }),
            Inst::Ftoi { dst, src } => Op::Ftoi {
                dst: dst.index() as u32,
                src: self.pack(*src),
            },
            Inst::Itof { dst, src } => Op::Itof {
                dst: dst.index() as u32,
                src: self.pack(*src),
            },
            Inst::Load { dst, addr } => Op::Load(Load {
                dst: dst.index() as u32,
                addr: self.pack(*addr),
            }),
            Inst::Store { addr, value } => Op::Store(Store {
                addr: self.pack(*addr),
                value: self.pack(*value),
            }),
            Inst::Alloc { dst, words } => Op::Alloc {
                dst: dst.index() as u32,
                words: self.pack(*words),
            },
            Inst::Call { dst, callee, args } => match module.function_by_name(callee) {
                None => self.trap(RunError::UnknownFunction(callee.clone())),
                Some(cid) => {
                    let args_start = self.call_args.len() as u32;
                    for a in args {
                        let packed = self.pack(*a);
                        self.call_args.push(packed);
                    }
                    Op::Call {
                        func: cid.0,
                        args_start,
                        args_len: args.len() as u32,
                        ret_dst: Self::pack_dst(*dst),
                    }
                }
            },
            Inst::Intrin { dst, which, args } => {
                let dst = Self::pack_dst(*dst);
                match which {
                    Intrinsic::Out => match args.first() {
                        Some(a) => Op::Out {
                            arg: self.pack(*a),
                            dst,
                        },
                        None => self.trap(RunError::BadIntrinsic("out needs one argument")),
                    },
                    Intrinsic::In => Op::In { dst },
                    Intrinsic::Rand => match args.first() {
                        Some(a) => Op::Rand {
                            arg: self.pack(*a),
                            dst,
                        },
                        None => self.trap(RunError::BadIntrinsic("rand needs an int bound")),
                    },
                    Intrinsic::Sqrt => match args.first() {
                        Some(a) => Op::Sqrt {
                            arg: self.pack(*a),
                            dst,
                        },
                        None => self.trap(RunError::BadIntrinsic("sqrt needs one argument")),
                    },
                }
            }
        }
    }

    fn decode_term(&mut self, term: &Term, block_pcs: &[u32]) -> Op {
        match term {
            Term::Br {
                cond,
                then_,
                else_,
                site,
            } => Op::Br(Br {
                cond: self.pack(*cond),
                edge: Edge {
                    then_pc: block_pcs[then_.index()],
                    else_pc: block_pcs[else_.index()],
                    site: *site,
                },
            }),
            Term::Jmp { target } => Op::Jmp(Jump {
                target: block_pcs[target.index()],
                count: 1,
            }),
            Term::Ret { value } => Op::Ret {
                value: value.map_or(NONE, |o| self.pack(o)),
            },
        }
    }
}

/// Mutable machine state borrowed by [`run`], split out field by field so
/// the op arena can stay immutably borrowed alongside it, plus the run's
/// event sink.
pub(crate) struct State<'a, 'i, S> {
    pub heap: &'a mut Vec<Value>,
    /// Logical heap size in words; the physical vector grows lazily
    /// towards it on store.
    pub heap_limit: usize,
    pub brk: &'a mut usize,
    pub input: &'a mut Reader<'i>,
    pub output: Output<'a>,
    pub prng: &'a mut u64,
    /// Receives one event-count mark per slice boundary the input reader
    /// crosses; the sink gets an [`EventSink::mark`] call with each.
    pub seg_marks: &'a mut Vec<usize>,
    /// Takes every executed conditional branch; moved into the loop, so
    /// it lives in registers like any local, and handed back at the end.
    pub sink: S,
}

/// The input tape the `in()` intrinsic reads, as slices read in order.
///
/// The first read past a slice's end moves on to the next slice and marks
/// a segment bound: the number of branch events so far, which is where
/// drift injected at the bound first becomes visible. Past the last slice
/// every read yields the `-1` end-of-input sentinel. A one-slice tape
/// never marks.
pub(crate) struct Reader<'a> {
    slices: &'a [&'a [Value]],
    /// Index of the slice being read.
    slice: usize,
    /// `slices[slice]`.
    current: &'a [Value],
    /// Position of the next value in `current`. A reader may start past
    /// its end; the excess carries over into the following slices.
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader `pos` values into the tape `slices`, which holds at least
    /// one slice.
    pub fn new(slices: &'a [&'a [Value]], pos: usize) -> Self {
        Reader {
            slices,
            slice: 0,
            current: slices[0],
            pos,
        }
    }

    /// Values read so far, counted from the start of the tape.
    pub fn position(&self) -> usize {
        let before: usize = self.slices[..self.slice].iter().map(|s| s.len()).sum();
        before + self.pos
    }

    #[inline(always)]
    fn read<S: EventSink>(&mut self, marks: &mut Vec<usize>, sink: &mut S) -> Value {
        if self.pos < self.current.len() {
            let v = self.current[self.pos];
            self.pos += 1;
            v
        } else {
            self.read_on(marks, sink)
        }
    }

    /// [`Reader::read`] once the current slice is used up: crosses into
    /// the next slice that holds the position, marking each boundary.
    #[cold]
    #[inline(never)]
    fn read_on<S: EventSink>(&mut self, marks: &mut Vec<usize>, sink: &mut S) -> Value {
        while self.pos >= self.current.len() {
            let Some(&next) = self.slices.get(self.slice + 1) else {
                return Value::Int(-1);
            };
            marks.push(sink.events());
            sink.mark();
            self.pos -= self.current.len();
            self.slice += 1;
            self.current = next;
        }
        let v = self.current[self.pos];
        self.pos += 1;
        v
    }
}

/// Where the `out()` intrinsic's values go.
pub(crate) enum Output<'a> {
    /// Appended to the machine's output tape.
    Tape(&'a mut Vec<Value>),
    /// Compared with the expected tape at the same position; only the
    /// summary is kept.
    Check(&'a [Value], &'a mut OutputCheck),
}

struct Frame {
    base: u32,
    ret_pc: u32,
    ret_dst: u32,
}

#[inline(always)]
fn rd(regs: &[Value], consts: &[Value], base: usize, o: u32) -> Value {
    if o & IMM_BIT != 0 {
        consts[(o & !IMM_BIT) as usize]
    } else {
        regs[base + o as usize]
    }
}

#[inline(always)]
fn addr_of(v: Value, limit: usize) -> Result<usize, RunError> {
    let a = v
        .as_int()
        .ok_or(RunError::TypeError("address must be an integer"))?;
    if a < 0 || a as usize >= limit {
        return Err(RunError::BadAddress(a));
    }
    Ok(a as usize)
}

// The per-op helpers below are the only definitions of the ops that
// superinstructions fuse; a plain op and every fused op holding it run
// the same helper. `run` is monomorphised in the calling crates, so each
// is marked for inlining like `rd` and `addr_of`.

/// Charges `n` more steps; the run is out of fuel once it has taken more
/// than `fuel`.
#[inline(always)]
fn step(steps: &mut u64, n: u64, fuel: u64) -> Result<(), RunError> {
    *steps += n;
    if *steps > fuel {
        return Err(RunError::OutOfFuel);
    }
    Ok(())
}

#[inline(always)]
fn bin(regs: &mut [Value], consts: &[Value], base: usize, b: Bin) -> Result<(), RunError> {
    let v = eval_bin(
        b.op,
        rd(regs, consts, base, b.lhs),
        rd(regs, consts, base, b.rhs),
    )?;
    regs[base + b.dst as usize] = v;
    Ok(())
}

/// Writes the compare's result and returns it, for a fused branch.
#[inline(always)]
fn cmp(regs: &mut [Value], consts: &[Value], base: usize, c: Cmp) -> Result<bool, RunError> {
    let taken = eval_cmp(
        c.op,
        rd(regs, consts, base, c.lhs),
        rd(regs, consts, base, c.rhs),
    )?;
    regs[base + c.dst as usize] = Value::Int(i64::from(taken));
    Ok(taken)
}

#[inline(always)]
fn load(
    regs: &mut [Value],
    consts: &[Value],
    base: usize,
    heap: &[Value],
    heap_limit: usize,
    l: Load,
) -> Result<(), RunError> {
    let a = addr_of(rd(regs, consts, base, l.addr), heap_limit)?;
    regs[base + l.dst as usize] = heap.get(a).copied().unwrap_or(Value::Int(0));
    Ok(())
}

#[inline(always)]
fn store(
    regs: &[Value],
    consts: &[Value],
    base: usize,
    heap: &mut Vec<Value>,
    heap_limit: usize,
    s: Store,
) -> Result<(), RunError> {
    let a = addr_of(rd(regs, consts, base, s.addr), heap_limit)?;
    let v = rd(regs, consts, base, s.value);
    if a >= heap.len() {
        let grown = (a + 1).max(heap.len() * 2).min(heap_limit);
        heap.resize(grown, Value::Int(0));
    }
    heap[a] = v;
    Ok(())
}

/// Records the branch's event and returns the pc it goes to.
#[inline(always)]
fn branch<S: EventSink>(sink: &mut S, taken: bool, e: Edge) -> usize {
    sink.record(e.site, taken);
    (if taken { e.then_pc } else { e.else_pc }) as usize
}

#[inline(always)]
fn br<S: EventSink>(regs: &[Value], consts: &[Value], base: usize, sink: &mut S, t: Br) -> usize {
    branch(sink, rd(regs, consts, base, t.cond).is_truthy(), t.edge)
}

/// Runs `funcs[fid](args)` to completion over the decoded module, feeding
/// every conditional branch to `state.sink`; returns the result, the
/// sink and the step count.
///
/// Bit-identical to the reference tree-walk: same step accounting (one
/// step per instruction and per terminator, checked against fuel before
/// executing), same branch events, same error conditions in the same
/// order. The lazily grown heap is observationally the old zero-filled
/// one — loads beyond the physical end yield `Int(0)`, exactly what the
/// eager fill stored there. The loop is monomorphised per sink, so a
/// counting run pays no dispatch for not recording.
pub(crate) fn run<S: EventSink>(
    exec: &ExecModule,
    state: State<'_, '_, S>,
    regs: &mut Vec<Value>,
    fid: usize,
    args: &[Value],
    fuel: u64,
    max_call_depth: usize,
) -> Result<(Option<Value>, S, u64), RunError> {
    let f = &exec.funcs[fid];
    if args.len() != f.n_params as usize {
        return Err(RunError::BadArgCount {
            got: args.len(),
            want: f.n_params as usize,
        });
    }
    regs.clear();
    regs.resize(f.n_regs as usize, Value::Int(0));
    regs[..args.len()].copy_from_slice(args);
    let mut frames = vec![Frame {
        base: 0,
        ret_pc: NONE,
        ret_dst: NONE,
    }];
    let mut base = 0usize;
    let mut pc = f.entry_pc as usize;

    let consts = &exec.consts[..];
    let ops = &exec.ops[..];
    let State {
        heap,
        heap_limit,
        brk,
        input,
        mut output,
        prng,
        seg_marks,
        mut sink,
    } = state;

    let mut steps: u64 = 0;

    loop {
        step(&mut steps, 1, fuel)?;
        match ops[pc] {
            Op::Const { dst, value } => {
                regs[base + dst as usize] = value;
                pc += 1;
            }
            Op::Copy { dst, src } => {
                regs[base + dst as usize] = rd(regs, consts, base, src);
                pc += 1;
            }
            Op::Bin(b) => {
                bin(regs, consts, base, b)?;
                pc += 1;
            }
            Op::Cmp(c) => {
                cmp(regs, consts, base, c)?;
                pc += 1;
            }
            Op::Ftoi { dst, src } => {
                regs[base + dst as usize] = match rd(regs, consts, base, src) {
                    Value::Float(v) => Value::Int(v as i64),
                    v @ Value::Int(_) => v,
                };
                pc += 1;
            }
            Op::Itof { dst, src } => {
                regs[base + dst as usize] = match rd(regs, consts, base, src) {
                    Value::Int(v) => Value::Float(v as f64),
                    v @ Value::Float(_) => v,
                };
                pc += 1;
            }
            Op::Load(l) => {
                load(regs, consts, base, heap, heap_limit, l)?;
                pc += 1;
            }
            Op::Store(s) => {
                store(regs, consts, base, heap, heap_limit, s)?;
                pc += 1;
            }
            Op::Alloc { dst, words } => {
                let w = rd(regs, consts, base, words)
                    .as_int()
                    .ok_or(RunError::TypeError("alloc size must be an integer"))?;
                if w < 0 {
                    return Err(RunError::TypeError("alloc size must be non-negative"));
                }
                let start = *brk;
                let end = start.checked_add(w as usize).ok_or(RunError::OutOfMemory)?;
                if end > heap_limit {
                    return Err(RunError::OutOfMemory);
                }
                *brk = end;
                regs[base + dst as usize] = Value::Int(start as i64);
                pc += 1;
            }
            Op::Call {
                func,
                args_start,
                args_len,
                ret_dst,
            } => {
                let cf = &exec.funcs[func as usize];
                if frames.len() >= max_call_depth {
                    return Err(RunError::StackOverflow);
                }
                let nbase = regs.len();
                regs.resize(nbase + cf.n_regs as usize, Value::Int(0));
                let (caller, callee) = regs.split_at_mut(nbase);
                let packed = &exec.call_args[args_start as usize..][..args_len as usize];
                for (i, &a) in packed.iter().enumerate() {
                    callee[i] = rd(caller, consts, base, a);
                }
                frames.push(Frame {
                    base: nbase as u32,
                    ret_pc: (pc + 1) as u32,
                    ret_dst,
                });
                base = nbase;
                pc = cf.entry_pc as usize;
            }
            Op::Out { arg, dst } => {
                let v = rd(regs, consts, base, arg);
                match &mut output {
                    Output::Tape(tape) => tape.push(v),
                    Output::Check(expected, check) => check.write(expected, v),
                }
                if dst != NONE {
                    regs[base + dst as usize] = Value::Int(0);
                }
                pc += 1;
            }
            Op::In { dst } => {
                // Crossing into the next input slice (a segment bound) is
                // off the hot path: it happens only once the current slice
                // is used up. Steps, fuel and the trace are untouched, so
                // segmented runs stay bit-identical.
                let v = input.read(seg_marks, &mut sink);
                if dst != NONE {
                    regs[base + dst as usize] = v;
                }
                pc += 1;
            }
            Op::Rand { arg, dst } => {
                let bound = rd(regs, consts, base, arg)
                    .as_int()
                    .ok_or(RunError::BadIntrinsic("rand needs an int bound"))?;
                if bound <= 0 {
                    return Err(RunError::BadIntrinsic("rand bound must be positive"));
                }
                // xorshift64* — the same stream the reference produces.
                let mut x = *prng;
                x ^= x >> 12;
                x ^= x << 25;
                x ^= x >> 27;
                *prng = x;
                let r = x.wrapping_mul(0x2545_F491_4F6C_DD1D);
                if dst != NONE {
                    regs[base + dst as usize] = Value::Int((r % bound as u64) as i64);
                }
                pc += 1;
            }
            Op::Sqrt { arg, dst } => {
                let x = match rd(regs, consts, base, arg) {
                    Value::Float(v) => v,
                    Value::Int(v) => v as f64,
                };
                if dst != NONE {
                    regs[base + dst as usize] = Value::Float(x.sqrt());
                }
                pc += 1;
            }
            Op::Trap { err } => {
                return Err(exec.traps[err as usize].clone());
            }
            Op::Br(t) => pc = br(regs, consts, base, &mut sink, t),
            Op::CmpBr(c, e) => {
                let taken = cmp(regs, consts, base, c)?;
                // The branch is its own step, checked against fuel before
                // it runs — exactly as the unfused pair would.
                step(&mut steps, 1, fuel)?;
                pc = branch(&mut sink, taken, e);
            }
            Op::Jmp(j) => {
                // `count - 1` threaded jumps ride along; each was one step.
                step(&mut steps, u64::from(j.count) - 1, fuel)?;
                pc = j.target as usize;
            }
            Op::BinBin(a, b) => {
                bin(regs, consts, base, a)?;
                step(&mut steps, 1, fuel)?;
                bin(regs, consts, base, b)?;
                pc += 2;
            }
            Op::BinLoad(b, l) => {
                bin(regs, consts, base, b)?;
                step(&mut steps, 1, fuel)?;
                load(regs, consts, base, heap, heap_limit, l)?;
                pc += 2;
            }
            Op::BinJmp(b, j) => {
                bin(regs, consts, base, b)?;
                step(&mut steps, u64::from(j.count), fuel)?;
                pc = j.target as usize;
            }
            Op::BinStore(b, s) => {
                bin(regs, consts, base, b)?;
                step(&mut steps, 1, fuel)?;
                store(regs, consts, base, heap, heap_limit, s)?;
                pc += 2;
            }
            Op::LoadCmpBr(l, c, e) => {
                load(regs, consts, base, heap, heap_limit, l)?;
                step(&mut steps, 1, fuel)?;
                let taken = cmp(regs, consts, base, c)?;
                step(&mut steps, 1, fuel)?;
                pc = branch(&mut sink, taken, e);
            }
            Op::ConstConst { dst, value } => {
                regs[base + dst[0] as usize] = value[0];
                step(&mut steps, 1, fuel)?;
                regs[base + dst[1] as usize] = value[1];
                pc += 2;
            }
            Op::ConstJmp { dst, value, jump } => {
                regs[base + dst as usize] = value;
                step(&mut steps, u64::from(jump.count), fuel)?;
                pc = jump.target as usize;
            }
            Op::CopyCmpBr {
                dst,
                src,
                cmp: c,
                edge,
            } => {
                regs[base + dst as usize] = rd(regs, consts, base, src);
                step(&mut steps, 1, fuel)?;
                let taken = cmp(regs, consts, base, c)?;
                step(&mut steps, 1, fuel)?;
                pc = branch(&mut sink, taken, edge);
            }
            Op::BinCmpBr(b, c, e) => {
                bin(regs, consts, base, b)?;
                step(&mut steps, 1, fuel)?;
                let taken = cmp(regs, consts, base, c)?;
                step(&mut steps, 1, fuel)?;
                pc = branch(&mut sink, taken, e);
            }
            Op::BinBinJmp(a, b, j) => {
                bin(regs, consts, base, a)?;
                step(&mut steps, 1, fuel)?;
                bin(regs, consts, base, b)?;
                step(&mut steps, u64::from(j.count), fuel)?;
                pc = j.target as usize;
            }
            Op::CmpBinBr(c, b, t) => {
                cmp(regs, consts, base, c)?;
                step(&mut steps, 1, fuel)?;
                bin(regs, consts, base, b)?;
                step(&mut steps, 1, fuel)?;
                pc = br(regs, consts, base, &mut sink, t);
            }
            Op::LoadCmpBin(l, c, b) => {
                load(regs, consts, base, heap, heap_limit, l)?;
                step(&mut steps, 1, fuel)?;
                cmp(regs, consts, base, c)?;
                step(&mut steps, 1, fuel)?;
                bin(regs, consts, base, b)?;
                pc += 3;
            }
            Op::Ret { value } => {
                let v = if value == NONE {
                    None
                } else {
                    Some(rd(regs, consts, base, value))
                };
                let finished = frames.pop().expect("frame stack never empty here");
                regs.truncate(finished.base as usize);
                match frames.last() {
                    None => {
                        return Ok((v, sink, steps));
                    }
                    Some(caller) => {
                        base = caller.base as usize;
                        if finished.ret_dst != NONE {
                            regs[base + finished.ret_dst as usize] = v.unwrap_or(Value::Int(0));
                        }
                        pc = finished.ret_pc as usize;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Machine, ReferenceMachine, RunConfig};
    use brepl_ir::parse_module;

    /// An operand every component accepts.
    const OK: Value = Value::Int(3);
    /// A divisor: the `Bin` reading it traps.
    const ZERO: Value = Value::Int(0);
    /// A comparison operand against an integer: the `Cmp` reading it traps.
    const FLOAT: Value = Value::Float(0.5);
    /// An address: the `Load` or `Store` reading it traps.
    const NEG: Value = Value::Int(-1);

    /// The variant name of every op in the arena, in pc order.
    fn kinds(exec: &ExecModule) -> Vec<String> {
        exec.ops
            .iter()
            .map(|op| {
                let s = format!("{op:?}");
                let end = s.find(|c: char| !c.is_ascii_alphanumeric());
                s[..end.unwrap_or(s.len())].to_string()
            })
            .collect()
    }

    /// Decodes `src`, asserts its arena's op kinds, then runs `main` on
    /// each argument set under every fuel value from 1 to one past the
    /// first that does not run out, on both engines.
    fn check(src: &str, want: &[&str], arg_sets: &[&[Value]]) {
        let module = parse_module(src).expect("test module parses");
        assert_eq!(kinds(&ExecModule::decode(&module)), want, "{src}");
        for args in arg_sets {
            let mut settled = false;
            for fuel in 1.. {
                let config = RunConfig {
                    heap_words: 64,
                    fuel,
                    ..RunConfig::default()
                };
                let mut fast = Machine::new(&module, config).expect("fast engine constructs");
                let a = fast.run("main", args);
                let mut oracle = ReferenceMachine::new(&module, config).expect("oracle constructs");
                let b = oracle.run("main", args);
                let at = format!("{src}args {args:?}, fuel {fuel}");
                assert_eq!(a, b, "{at}");
                assert_eq!(fast.output(), oracle.output(), "{at}");
                if let (Ok(a), Ok(b)) = (&a, &b) {
                    assert_eq!(a.trace.to_bytes(), b.trace.to_bytes(), "{at}");
                    assert!(settled || a.steps == fuel, "{at}: first full run");
                }
                if b != Err(RunError::OutOfFuel) {
                    if settled {
                        break;
                    }
                    settled = true;
                }
            }
        }
    }

    /// Every superinstruction, `CmpBr`, a threaded jump chain and a call
    /// returning mid-block onto a fused op: the decoded arena is pinned,
    /// and each run — including each trap of each component, and each
    /// fuel value that stops the run between components — is the
    /// reference interpreter's.
    #[test]
    fn fused_ops_match_the_reference_at_every_fuel() {
        check(
            "func @main(3) regs=5 entry=b0 {
            b0:
              r3 = div 12, r0
              r4 = div 12, r1
              ret r4
            }",
            &["BinBin", "Bin", "Ret"],
            &[&[OK, OK, OK], &[ZERO, OK, OK], &[OK, ZERO, OK]],
        );
        check(
            "func @main(3) regs=5 entry=b0 {
            b0:
              r3 = div 12, r0
              r4 = load r1
              ret r4
            }",
            &["BinLoad", "Load", "Ret"],
            &[&[OK, OK, OK], &[ZERO, OK, OK], &[OK, NEG, OK]],
        );
        check(
            "func @main(3) regs=4 entry=b0 {
            b0:
              r3 = div 12, r0
              jmp b1
            b1:
              ret r3
            }",
            &["BinJmp", "Jmp", "Ret"],
            &[&[OK, OK, OK], &[ZERO, OK, OK]],
        );
        check(
            "func @main(3) regs=5 entry=b0 {
            b0:
              r3 = lt r0, 5
              r4 = div 12, r1
              ret r4
            }",
            &["Cmp", "Bin", "Ret"],
            &[&[OK, OK, OK], &[FLOAT, OK, OK], &[OK, ZERO, OK]],
        );
        check(
            "func @main(3) regs=5 entry=b0 {
            b0:
              r3 = div 12, r0
              store r1, r3
              r4 = load 3
              out(r4)
              ret r4
            }",
            &["BinStore", "Store", "Load", "Out", "Ret"],
            &[&[OK, OK, OK], &[ZERO, OK, OK], &[OK, NEG, OK]],
        );
        check(
            "func @main(3) regs=4 entry=b0 {
            b0:
              r3 = div 12, r0
              br r1, b1, b2
            b1:
              ret r3
            b2:
              ret 0
            }",
            &["Bin", "Br", "Ret", "Ret"],
            &[&[OK, OK, OK], &[ZERO, OK, OK], &[OK, ZERO, OK]],
        );
        check(
            "func @main(3) regs=5 entry=b0 {
            b0:
              r3 = load r0
              r4 = lt r1, 5
              br r4, b1, b2
            b1:
              out(r3)
              ret r3
            b2:
              ret 1
            }",
            &["LoadCmpBr", "CmpBr", "Br", "Out", "Ret", "Ret"],
            &[
                &[OK, OK, OK],
                &[NEG, OK, OK],
                &[OK, FLOAT, OK],
                &[OK, Value::Int(7), OK],
            ],
        );
        check(
            "func @main(3) regs=5 entry=b0 {
            b0:
              r3 = const 1
              r4 = const 2.5
              ret r4
            }",
            &["ConstConst", "Const", "Ret"],
            &[&[OK, OK, OK]],
        );
        check(
            "func @main(3) regs=4 entry=b0 {
            b0:
              r3 = const 7
              jmp b1
            b1:
              ret r3
            }",
            &["ConstJmp", "Jmp", "Ret"],
            &[&[OK, OK, OK]],
        );
        check(
            "func @main(3) regs=5 entry=b0 {
            b0:
              r3 = copy r0
              r4 = lt r1, 5
              br r4, b1, b2
            b1:
              ret r3
            b2:
              ret 0
            }",
            &["CopyCmpBr", "CmpBr", "Br", "Ret", "Ret"],
            &[&[OK, OK, OK], &[OK, FLOAT, OK], &[OK, Value::Int(7), OK]],
        );
        check(
            "func @main(3) regs=5 entry=b0 {
            b0:
              r3 = div 12, r0
              r4 = lt r1, 5
              br r4, b1, b2
            b1:
              ret r3
            b2:
              ret 0
            }",
            &["BinCmpBr", "CmpBr", "Br", "Ret", "Ret"],
            &[
                &[OK, OK, OK],
                &[ZERO, OK, OK],
                &[OK, FLOAT, OK],
                &[OK, Value::Int(7), OK],
            ],
        );
        check(
            "func @main(3) regs=5 entry=b0 {
            b0:
              r3 = div 12, r0
              r4 = div 12, r1
              jmp b1
            b1:
              ret r4
            }",
            &["BinBinJmp", "BinJmp", "Jmp", "Ret"],
            &[&[OK, OK, OK], &[ZERO, OK, OK], &[OK, ZERO, OK]],
        );
        check(
            "func @main(3) regs=5 entry=b0 {
            b0:
              r3 = lt r0, 5
              r4 = div 12, r1
              br r3, b1, b2
            b1:
              ret r4
            b2:
              ret 0
            }",
            &["CmpBinBr", "Bin", "Br", "Ret", "Ret"],
            &[
                &[OK, OK, OK],
                &[FLOAT, OK, OK],
                &[OK, ZERO, OK],
                &[Value::Int(7), OK, OK],
            ],
        );
        check(
            "func @main(3) regs=6 entry=b0 {
            b0:
              r3 = load r0
              r4 = lt r1, 5
              r5 = div 12, r2
              ret r5
            }",
            &["LoadCmpBin", "Cmp", "Bin", "Ret"],
            &[
                &[OK, OK, OK],
                &[NEG, OK, OK],
                &[OK, FLOAT, OK],
                &[OK, OK, ZERO],
            ],
        );
        check(
            "func @main(3) regs=4 entry=b0 {
            b0:
              r3 = lt r0, 5
              br r3, b1, b2
            b1:
              ret 1
            b2:
              ret 0
            }",
            &["CmpBr", "Br", "Ret", "Ret"],
            &[&[OK, OK, OK], &[FLOAT, OK, OK], &[Value::Int(7), OK, OK]],
        );
        // A loop whose entry, body and back edge run through jump-only
        // blocks: the threaded `Jmp`s, and the `ConstJmp` and `BinJmp`
        // that carry them, each charge the whole chain.
        check(
            "func @main(1) regs=4 entry=b0 {
            b0:
              r1 = const 0
              jmp b4
            b1:
              r1 = add r1, 1
              r2 = lt r1, 3
              br r2, b2, b5
            b2:
              r3 = div 12, r0
              jmp b3
            b3:
              jmp b4
            b4:
              jmp b1
            b5:
              ret r1
            }",
            &[
                "ConstJmp", "Jmp", "BinCmpBr", "CmpBr", "Br", "BinJmp", "Jmp", "Jmp", "Jmp", "Ret",
            ],
            &[&[OK], &[ZERO]],
        );
        // The call's return pc is the slot after it, mid-block; that slot
        // holds a fused op that runs the rest of the block.
        check(
            "func @f(1) regs=3 entry=b0 {
            b0:
              r1 = div 12, r0
              r2 = add r1, 1
              ret r2
            }
            func @main(3) regs=7 entry=b0 {
            b0:
              r3 = call @f(r0)
              r4 = div 12, r1
              r5 = load r2
              r6 = lt r4, 5
              br r6, b1, b2
            b1:
              ret r5
            b2:
              out(r3)
              ret r3
            }",
            &[
                "BinBin",
                "Bin",
                "Ret",
                "Call",
                "BinLoad",
                "LoadCmpBr",
                "CmpBr",
                "Br",
                "Ret",
                "Out",
                "Ret",
            ],
            &[
                &[OK, OK, OK],
                &[ZERO, OK, OK],
                &[OK, ZERO, OK],
                &[OK, OK, NEG],
                &[OK, Value::Int(1), OK],
            ],
        );
    }
}
