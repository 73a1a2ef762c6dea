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

/// One fixed-size decoded operation. Branch targets are absolute indices
/// into the op arena; operands are packed (see [`IMM_BIT`]).
pub(crate) enum Op {
    Const {
        dst: u32,
        value: Value,
    },
    Copy {
        dst: u32,
        src: u32,
    },
    Bin {
        op: BinOp,
        dst: u32,
        lhs: u32,
        rhs: u32,
    },
    Cmp {
        op: CmpOp,
        dst: u32,
        lhs: u32,
        rhs: u32,
    },
    Ftoi {
        dst: u32,
        src: u32,
    },
    Itof {
        dst: u32,
        src: u32,
    },
    Load {
        dst: u32,
        addr: u32,
    },
    Store {
        addr: u32,
        value: u32,
    },
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
    Br {
        cond: u32,
        then_pc: u32,
        else_pc: u32,
        site: BranchId,
    },
    /// Fused compare-and-branch: a block whose last instruction is the
    /// `Cmp` producing the terminator's condition register dispatches
    /// once for both. Costs two steps (the compare and the branch,
    /// fuel-checked separately) and still writes the compare's
    /// destination register, so it is observably the unfused pair.
    CmpBr {
        op: CmpOp,
        dst: u32,
        lhs: u32,
        rhs: u32,
        then_pc: u32,
        else_pc: u32,
        site: BranchId,
    },
    /// An unconditional jump, pre-threaded through any chain of further
    /// jump-only blocks: `target` is the end of the chain and `count` the
    /// number of jumps collapsed (each still costs one step, so fuel
    /// accounting is unchanged).
    Jmp {
        target: u32,
        count: u32,
    },
    Ret {
        value: u32,
    },
    /// Two consecutive `Bin`s in one dispatch. The second op's slot keeps
    /// its plain form (a call can still return into it); the fused head
    /// executes both, fuel-checking between them, and skips two slots.
    BinBin {
        a_op: BinOp,
        a_dst: u32,
        a_lhs: u32,
        a_rhs: u32,
        b_op: BinOp,
        b_dst: u32,
        b_lhs: u32,
        b_rhs: u32,
    },
    /// A `Bin` feeding straight into a `Load` — the dominant addressing
    /// idiom (`mul`/`add` then `load`). Same slot discipline as
    /// [`Op::BinBin`].
    BinLoad {
        op: BinOp,
        dst: u32,
        lhs: u32,
        rhs: u32,
        l_dst: u32,
        l_addr: u32,
    },
    /// A block-closing `Bin` fused with the (already threaded) `Jmp`
    /// terminator that follows it — the back-edge of nearly every loop
    /// body.
    BinJmp {
        op: BinOp,
        dst: u32,
        lhs: u32,
        rhs: u32,
        target: u32,
        count: u32,
    },
    /// A mid-block `Cmp` feeding a following `Bin` in one dispatch —
    /// the flag-then-arithmetic idiom. Same slot discipline as
    /// [`Op::BinBin`].
    CmpBin {
        c_op: CmpOp,
        c_dst: u32,
        c_lhs: u32,
        c_rhs: u32,
        b_op: BinOp,
        b_dst: u32,
        b_lhs: u32,
        b_rhs: u32,
    },
    /// A `Bin` feeding a following `Store` — the compute-address (or
    /// compute-value) half of nearly every heap write.
    BinStore {
        op: BinOp,
        dst: u32,
        lhs: u32,
        rhs: u32,
        s_addr: u32,
        s_value: u32,
    },
    /// A block-closing `Bin` fused with the conditional branch after it.
    /// The condition register is whatever the `Br` read — produced
    /// earlier in the block or in a predecessor — so unlike
    /// [`Op::CmpBr`] no compare runs here.
    BinBr {
        op: BinOp,
        dst: u32,
        lhs: u32,
        rhs: u32,
        cond: u32,
        then_pc: u32,
        else_pc: u32,
        site: BranchId,
    },
    /// A `Load` feeding the fused compare-and-branch that closes the
    /// block — the search-loop idiom (`load; cmp; br`). Costs three
    /// steps, each fuel-checked in original order.
    LoadCmpBr {
        l_dst: u32,
        l_addr: u32,
        op: CmpOp,
        dst: u32,
        lhs: u32,
        rhs: u32,
        then_pc: u32,
        else_pc: u32,
        site: BranchId,
    },
    /// Two consecutive `Const`s in one dispatch — loop-preheader
    /// initialization runs. Same slot discipline as [`Op::BinBin`].
    ConstConst {
        a_dst: u32,
        a_value: Value,
        b_dst: u32,
        b_value: Value,
    },
    /// A block-closing `Const` fused with the (threaded) `Jmp` after it.
    ConstJmp {
        dst: u32,
        value: Value,
        target: u32,
        count: u32,
    },
    /// A `Copy` feeding the fused compare-and-branch that closes the
    /// block. Three steps, like [`Op::LoadCmpBr`].
    CopyCmpBr {
        dst: u32,
        src: u32,
        c_op: CmpOp,
        c_dst: u32,
        c_lhs: u32,
        c_rhs: u32,
        then_pc: u32,
        else_pc: u32,
        site: BranchId,
    },
    /// A `Bin` feeding the fused compare-and-branch — the canonical
    /// loop latch (`i += step; cmp i, n; br`). Three steps, like
    /// [`Op::LoadCmpBr`].
    BinCmpBr {
        a_op: BinOp,
        a_dst: u32,
        a_lhs: u32,
        a_rhs: u32,
        c_op: CmpOp,
        c_dst: u32,
        c_lhs: u32,
        c_rhs: u32,
        then_pc: u32,
        else_pc: u32,
        site: BranchId,
    },
    /// Triple: two `Bin`s closing a block plus its (threaded) `Jmp` —
    /// the two-instruction loop body falling into its back-edge. The
    /// head executes all three; the two tail slots keep their own
    /// (pair-fused) forms for direct entry.
    BinBinJmp {
        a_op: BinOp,
        a_dst: u32,
        a_lhs: u32,
        a_rhs: u32,
        b_op: BinOp,
        b_dst: u32,
        b_lhs: u32,
        b_rhs: u32,
        target: u32,
        count: u32,
    },
    /// Triple: a `Cmp`, a `Bin`, and the conditional branch closing the
    /// block — the compare whose flag survives one arithmetic op before
    /// being branched on. Same slot discipline as [`Op::BinBinJmp`].
    CmpBinBr {
        c_op: CmpOp,
        c_dst: u32,
        c_lhs: u32,
        c_rhs: u32,
        b_op: BinOp,
        b_dst: u32,
        b_lhs: u32,
        b_rhs: u32,
        cond: u32,
        then_pc: u32,
        else_pc: u32,
        site: BranchId,
    },
    /// Triple: a `Load` feeding a `Cmp` feeding a `Bin` — the
    /// scan-and-accumulate inner-loop run. Same slot discipline as
    /// [`Op::BinBinJmp`]; advances three slots.
    LoadCmpBin {
        l_dst: u32,
        l_addr: u32,
        c_op: CmpOp,
        c_dst: u32,
        c_lhs: u32,
        c_rhs: u32,
        b_op: BinOp,
        b_dst: u32,
        b_lhs: u32,
        b_rhs: u32,
    },
}

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
            let fused = match (&self.ops[i], &self.ops[i + 1], &self.ops[i + 2]) {
                (
                    &Op::Bin { op, dst, lhs, rhs },
                    &Op::Bin {
                        op: b_op,
                        dst: b_dst,
                        lhs: b_lhs,
                        rhs: b_rhs,
                    },
                    &Op::Jmp { target, count },
                ) => Op::BinBinJmp {
                    a_op: op,
                    a_dst: dst,
                    a_lhs: lhs,
                    a_rhs: rhs,
                    b_op,
                    b_dst,
                    b_lhs,
                    b_rhs,
                    target,
                    count,
                },
                (
                    &Op::Cmp { op, dst, lhs, rhs },
                    &Op::Bin {
                        op: b_op,
                        dst: b_dst,
                        lhs: b_lhs,
                        rhs: b_rhs,
                    },
                    &Op::Br {
                        cond,
                        then_pc,
                        else_pc,
                        site,
                    },
                ) => Op::CmpBinBr {
                    c_op: op,
                    c_dst: dst,
                    c_lhs: lhs,
                    c_rhs: rhs,
                    b_op,
                    b_dst,
                    b_lhs,
                    b_rhs,
                    cond,
                    then_pc,
                    else_pc,
                    site,
                },
                (
                    &Op::Load {
                        dst: l_dst,
                        addr: l_addr,
                    },
                    &Op::Cmp { op, dst, lhs, rhs },
                    &Op::Bin {
                        op: b_op,
                        dst: b_dst,
                        lhs: b_lhs,
                        rhs: b_rhs,
                    },
                ) => Op::LoadCmpBin {
                    l_dst,
                    l_addr,
                    c_op: op,
                    c_dst: dst,
                    c_lhs: lhs,
                    c_rhs: rhs,
                    b_op,
                    b_dst,
                    b_lhs,
                    b_rhs,
                },
                _ => continue,
            };
            self.ops[i] = fused;
        }
    }

    /// Rewrites every op whose successor slot forms a fusable pair into
    /// the two-in-one superinstruction. Rewrites overlap deliberately: a
    /// run `a b c` becomes `ab bc c`, and whichever slot control enters
    /// (fallthrough, branch target, or a call's return pc) executes the
    /// original sequence — a fused head performs both ops and advances
    /// two slots (or jumps away, for terminator-tailed fusions). Pairs of
    /// instruction-kind ops never span a block boundary; the `Jmp`-, `Br`-
    /// and `CmpBr`-tailed cases fuse a block's last instruction with its
    /// own terminator, which also cannot cross blocks.
    fn fuse_pairs(&mut self) {
        for i in 0..self.ops.len().saturating_sub(1) {
            let fused = match (&self.ops[i], &self.ops[i + 1]) {
                (
                    &Op::Bin { op, dst, lhs, rhs },
                    &Op::Bin {
                        op: b_op,
                        dst: b_dst,
                        lhs: b_lhs,
                        rhs: b_rhs,
                    },
                ) => Op::BinBin {
                    a_op: op,
                    a_dst: dst,
                    a_lhs: lhs,
                    a_rhs: rhs,
                    b_op,
                    b_dst,
                    b_lhs,
                    b_rhs,
                },
                (
                    &Op::Bin { op, dst, lhs, rhs },
                    &Op::Load {
                        dst: l_dst,
                        addr: l_addr,
                    },
                ) => Op::BinLoad {
                    op,
                    dst,
                    lhs,
                    rhs,
                    l_dst,
                    l_addr,
                },
                (&Op::Bin { op, dst, lhs, rhs }, &Op::Jmp { target, count }) => Op::BinJmp {
                    op,
                    dst,
                    lhs,
                    rhs,
                    target,
                    count,
                },
                (
                    &Op::Bin { op, dst, lhs, rhs },
                    &Op::Store {
                        addr: s_addr,
                        value: s_value,
                    },
                ) => Op::BinStore {
                    op,
                    dst,
                    lhs,
                    rhs,
                    s_addr,
                    s_value,
                },
                (
                    &Op::Bin { op, dst, lhs, rhs },
                    &Op::Br {
                        cond,
                        then_pc,
                        else_pc,
                        site,
                    },
                ) => Op::BinBr {
                    op,
                    dst,
                    lhs,
                    rhs,
                    cond,
                    then_pc,
                    else_pc,
                    site,
                },
                (
                    &Op::Bin { op, dst, lhs, rhs },
                    &Op::CmpBr {
                        op: c_op,
                        dst: c_dst,
                        lhs: c_lhs,
                        rhs: c_rhs,
                        then_pc,
                        else_pc,
                        site,
                    },
                ) => Op::BinCmpBr {
                    a_op: op,
                    a_dst: dst,
                    a_lhs: lhs,
                    a_rhs: rhs,
                    c_op,
                    c_dst,
                    c_lhs,
                    c_rhs,
                    then_pc,
                    else_pc,
                    site,
                },
                (
                    &Op::Cmp { op, dst, lhs, rhs },
                    &Op::Bin {
                        op: b_op,
                        dst: b_dst,
                        lhs: b_lhs,
                        rhs: b_rhs,
                    },
                ) => Op::CmpBin {
                    c_op: op,
                    c_dst: dst,
                    c_lhs: lhs,
                    c_rhs: rhs,
                    b_op,
                    b_dst,
                    b_lhs,
                    b_rhs,
                },
                (
                    &Op::Load {
                        dst: l_dst,
                        addr: l_addr,
                    },
                    &Op::CmpBr {
                        op,
                        dst,
                        lhs,
                        rhs,
                        then_pc,
                        else_pc,
                        site,
                    },
                ) => Op::LoadCmpBr {
                    l_dst,
                    l_addr,
                    op,
                    dst,
                    lhs,
                    rhs,
                    then_pc,
                    else_pc,
                    site,
                },
                (
                    &Op::Const { dst, value },
                    &Op::Const {
                        dst: b_dst,
                        value: b_value,
                    },
                ) => Op::ConstConst {
                    a_dst: dst,
                    a_value: value,
                    b_dst,
                    b_value,
                },
                (&Op::Const { dst, value }, &Op::Jmp { target, count }) => Op::ConstJmp {
                    dst,
                    value,
                    target,
                    count,
                },
                (
                    &Op::Copy { dst, src },
                    &Op::CmpBr {
                        op,
                        dst: c_dst,
                        lhs,
                        rhs,
                        then_pc,
                        else_pc,
                        site,
                    },
                ) => Op::CopyCmpBr {
                    dst,
                    src,
                    c_op: op,
                    c_dst,
                    c_lhs: lhs,
                    c_rhs: rhs,
                    then_pc,
                    else_pc,
                    site,
                },
                _ => continue,
            };
            self.ops[i] = fused;
        }
    }

    /// Pushes the decoded terminator, fusing it into the preceding `Cmp`
    /// when that compare is the block's last instruction and produces the
    /// branch condition. The terminator slot keeps the plain `Br` so the
    /// block layout (and every pc) is unchanged; the fused case never
    /// reaches it, because the `CmpBr` slot jumps away.
    fn fuse_cmp_br(&mut self, block: &brepl_ir::Block, term: Op) {
        if let Op::Br {
            cond,
            then_pc,
            else_pc,
            site,
        } = term
        {
            if cond & IMM_BIT == 0 && !block.insts.is_empty() {
                if let Some(&Op::Cmp { op, dst, lhs, rhs }) = self.ops.last() {
                    if dst == cond {
                        *self.ops.last_mut().expect("just matched") = Op::CmpBr {
                            op,
                            dst,
                            lhs,
                            rhs,
                            then_pc,
                            else_pc,
                            site,
                        };
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
            let Op::Jmp { target, .. } = self.ops[pc] else {
                continue;
            };
            let mut t = target;
            let mut count = 1u32;
            while count < MAX_CHAIN {
                match self.ops[t as usize] {
                    Op::Jmp {
                        target: next,
                        count: c,
                    } if t as usize != pc => {
                        t = next;
                        count += c;
                    }
                    _ => break,
                }
            }
            self.ops[pc] = Op::Jmp { target: t, count };
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
            Inst::Bin { op, dst, lhs, rhs } => Op::Bin {
                op: *op,
                dst: dst.index() as u32,
                lhs: self.pack(*lhs),
                rhs: self.pack(*rhs),
            },
            Inst::Cmp { op, dst, lhs, rhs } => Op::Cmp {
                op: *op,
                dst: dst.index() as u32,
                lhs: self.pack(*lhs),
                rhs: self.pack(*rhs),
            },
            Inst::Ftoi { dst, src } => Op::Ftoi {
                dst: dst.index() as u32,
                src: self.pack(*src),
            },
            Inst::Itof { dst, src } => Op::Itof {
                dst: dst.index() as u32,
                src: self.pack(*src),
            },
            Inst::Load { dst, addr } => Op::Load {
                dst: dst.index() as u32,
                addr: self.pack(*addr),
            },
            Inst::Store { addr, value } => Op::Store {
                addr: self.pack(*addr),
                value: self.pack(*value),
            },
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
            } => Op::Br {
                cond: self.pack(*cond),
                then_pc: block_pcs[then_.index()],
                else_pc: block_pcs[else_.index()],
                site: *site,
            },
            Term::Jmp { target } => Op::Jmp {
                target: block_pcs[target.index()],
                count: 1,
            },
            Term::Ret { value } => Op::Ret {
                value: value.map_or(NONE, |o| self.pack(o)),
            },
        }
    }
}

/// Mutable machine state borrowed by [`run`], split out field by field so
/// the op arena can stay immutably borrowed alongside it, plus the run's
/// event sink.
pub(crate) struct State<'a, S> {
    pub heap: &'a mut Vec<Value>,
    /// Logical heap size in words; the physical vector grows lazily
    /// towards it on store.
    pub heap_limit: usize,
    pub brk: &'a mut usize,
    pub input: &'a [Value],
    pub input_pos: &'a mut usize,
    pub output: &'a mut Vec<Value>,
    pub prng: &'a mut u64,
    /// Ascending input positions at which a new input segment begins.
    /// When the `in()` intrinsic is about to consume the element at
    /// `seg_bounds[k]`, the number of branch events so far is recorded as
    /// `seg_marks[k]` — that is where drift injected at the segment
    /// boundary first becomes visible. Empty for ordinary runs; bounds
    /// never reached are left unmarked (the caller pads them).
    pub seg_bounds: &'a [usize],
    /// Receives one event-count mark per crossed segment bound; the sink
    /// gets an [`EventSink::mark`] call with each.
    pub seg_marks: &'a mut Vec<usize>,
    /// Takes every executed conditional branch; moved into the loop, so
    /// it lives in registers like any local, and handed back at the end.
    pub sink: S,
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
    state: State<'_, S>,
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
        input_pos,
        output,
        prng,
        seg_bounds,
        seg_marks,
        mut sink,
    } = state;

    let mut steps: u64 = 0;

    loop {
        steps += 1;
        if steps > fuel {
            return Err(RunError::OutOfFuel);
        }
        match &ops[pc] {
            Op::Const { dst, value } => {
                regs[base + *dst as usize] = *value;
                pc += 1;
            }
            Op::Copy { dst, src } => {
                regs[base + *dst as usize] = rd(regs, consts, base, *src);
                pc += 1;
            }
            Op::Bin { op, dst, lhs, rhs } => {
                let a = rd(regs, consts, base, *lhs);
                let b = rd(regs, consts, base, *rhs);
                regs[base + *dst as usize] = eval_bin(*op, a, b)?;
                pc += 1;
            }
            Op::Cmp { op, dst, lhs, rhs } => {
                let a = rd(regs, consts, base, *lhs);
                let b = rd(regs, consts, base, *rhs);
                regs[base + *dst as usize] = Value::Int(i64::from(eval_cmp(*op, a, b)?));
                pc += 1;
            }
            Op::Ftoi { dst, src } => {
                regs[base + *dst as usize] = match rd(regs, consts, base, *src) {
                    Value::Float(v) => Value::Int(v as i64),
                    v @ Value::Int(_) => v,
                };
                pc += 1;
            }
            Op::Itof { dst, src } => {
                regs[base + *dst as usize] = match rd(regs, consts, base, *src) {
                    Value::Int(v) => Value::Float(v as f64),
                    v @ Value::Float(_) => v,
                };
                pc += 1;
            }
            Op::Load { dst, addr } => {
                let a = addr_of(rd(regs, consts, base, *addr), heap_limit)?;
                regs[base + *dst as usize] = heap.get(a).copied().unwrap_or(Value::Int(0));
                pc += 1;
            }
            Op::Store { addr, value } => {
                let a = addr_of(rd(regs, consts, base, *addr), heap_limit)?;
                let v = rd(regs, consts, base, *value);
                if a >= heap.len() {
                    let grown = (a + 1).max(heap.len() * 2).min(heap_limit);
                    heap.resize(grown, Value::Int(0));
                }
                heap[a] = v;
                pc += 1;
            }
            Op::Alloc { dst, words } => {
                let w = rd(regs, consts, base, *words)
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
                regs[base + *dst as usize] = Value::Int(start as i64);
                pc += 1;
            }
            Op::Call {
                func,
                args_start,
                args_len,
                ret_dst,
            } => {
                let cf = &exec.funcs[*func as usize];
                if frames.len() >= max_call_depth {
                    return Err(RunError::StackOverflow);
                }
                let nbase = regs.len();
                regs.resize(nbase + cf.n_regs as usize, Value::Int(0));
                let (caller, callee) = regs.split_at_mut(nbase);
                let packed = &exec.call_args[*args_start as usize..][..*args_len as usize];
                for (i, &a) in packed.iter().enumerate() {
                    callee[i] = rd(caller, consts, base, a);
                }
                frames.push(Frame {
                    base: nbase as u32,
                    ret_pc: (pc + 1) as u32,
                    ret_dst: *ret_dst,
                });
                base = nbase;
                pc = cf.entry_pc as usize;
            }
            Op::Out { arg, dst } => {
                let v = rd(regs, consts, base, *arg);
                output.push(v);
                if *dst != NONE {
                    regs[base + *dst as usize] = Value::Int(0);
                }
                pc += 1;
            }
            Op::In { dst } => {
                // Segment bookkeeping is off the hot path for ordinary
                // runs: `seg_bounds` is empty and the comparison fails on
                // the length check alone. Steps, fuel and the trace are
                // untouched, so segmented runs stay bit-identical.
                while seg_marks.len() < seg_bounds.len()
                    && *input_pos >= seg_bounds[seg_marks.len()]
                {
                    seg_marks.push(sink.events());
                    sink.mark();
                }
                let v = if *input_pos < input.len() {
                    let v = input[*input_pos];
                    *input_pos += 1;
                    v
                } else {
                    Value::Int(-1)
                };
                if *dst != NONE {
                    regs[base + *dst as usize] = v;
                }
                pc += 1;
            }
            Op::Rand { arg, dst } => {
                let bound = rd(regs, consts, base, *arg)
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
                if *dst != NONE {
                    regs[base + *dst as usize] = Value::Int((r % bound as u64) as i64);
                }
                pc += 1;
            }
            Op::Sqrt { arg, dst } => {
                let x = match rd(regs, consts, base, *arg) {
                    Value::Float(v) => v,
                    Value::Int(v) => v as f64,
                };
                if *dst != NONE {
                    regs[base + *dst as usize] = Value::Float(x.sqrt());
                }
                pc += 1;
            }
            Op::Trap { err } => {
                return Err(exec.traps[*err as usize].clone());
            }
            Op::Br {
                cond,
                then_pc,
                else_pc,
                site,
            } => {
                let taken = rd(regs, consts, base, *cond).is_truthy();
                sink.record(*site, taken);
                pc = if taken { *then_pc } else { *else_pc } as usize;
            }
            Op::CmpBr {
                op,
                dst,
                lhs,
                rhs,
                then_pc,
                else_pc,
                site,
            } => {
                let a = rd(regs, consts, base, *lhs);
                let b = rd(regs, consts, base, *rhs);
                let taken = eval_cmp(*op, a, b)?;
                regs[base + *dst as usize] = Value::Int(i64::from(taken));
                // The branch is its own step, checked against fuel before
                // it runs — exactly as the unfused pair would.
                steps += 1;
                if steps > fuel {
                    return Err(RunError::OutOfFuel);
                }
                sink.record(*site, taken);
                pc = if taken { *then_pc } else { *else_pc } as usize;
            }
            Op::Jmp { target, count } => {
                // `count - 1` threaded jumps ride along; each was one step.
                steps += u64::from(*count) - 1;
                if steps > fuel {
                    return Err(RunError::OutOfFuel);
                }
                pc = *target as usize;
            }
            Op::BinBin {
                a_op,
                a_dst,
                a_lhs,
                a_rhs,
                b_op,
                b_dst,
                b_lhs,
                b_rhs,
            } => {
                let a = rd(regs, consts, base, *a_lhs);
                let b = rd(regs, consts, base, *a_rhs);
                regs[base + *a_dst as usize] = eval_bin(*a_op, a, b)?;
                steps += 1;
                if steps > fuel {
                    return Err(RunError::OutOfFuel);
                }
                let a = rd(regs, consts, base, *b_lhs);
                let b = rd(regs, consts, base, *b_rhs);
                regs[base + *b_dst as usize] = eval_bin(*b_op, a, b)?;
                pc += 2;
            }
            Op::BinLoad {
                op,
                dst,
                lhs,
                rhs,
                l_dst,
                l_addr,
            } => {
                let a = rd(regs, consts, base, *lhs);
                let b = rd(regs, consts, base, *rhs);
                regs[base + *dst as usize] = eval_bin(*op, a, b)?;
                steps += 1;
                if steps > fuel {
                    return Err(RunError::OutOfFuel);
                }
                let a = addr_of(rd(regs, consts, base, *l_addr), heap_limit)?;
                regs[base + *l_dst as usize] = heap.get(a).copied().unwrap_or(Value::Int(0));
                pc += 2;
            }
            Op::BinJmp {
                op,
                dst,
                lhs,
                rhs,
                target,
                count,
            } => {
                let a = rd(regs, consts, base, *lhs);
                let b = rd(regs, consts, base, *rhs);
                regs[base + *dst as usize] = eval_bin(*op, a, b)?;
                steps += u64::from(*count);
                if steps > fuel {
                    return Err(RunError::OutOfFuel);
                }
                pc = *target as usize;
            }
            Op::CmpBin {
                c_op,
                c_dst,
                c_lhs,
                c_rhs,
                b_op,
                b_dst,
                b_lhs,
                b_rhs,
            } => {
                let a = rd(regs, consts, base, *c_lhs);
                let b = rd(regs, consts, base, *c_rhs);
                regs[base + *c_dst as usize] = Value::Int(i64::from(eval_cmp(*c_op, a, b)?));
                steps += 1;
                if steps > fuel {
                    return Err(RunError::OutOfFuel);
                }
                let a = rd(regs, consts, base, *b_lhs);
                let b = rd(regs, consts, base, *b_rhs);
                regs[base + *b_dst as usize] = eval_bin(*b_op, a, b)?;
                pc += 2;
            }
            Op::BinStore {
                op,
                dst,
                lhs,
                rhs,
                s_addr,
                s_value,
            } => {
                let a = rd(regs, consts, base, *lhs);
                let b = rd(regs, consts, base, *rhs);
                regs[base + *dst as usize] = eval_bin(*op, a, b)?;
                steps += 1;
                if steps > fuel {
                    return Err(RunError::OutOfFuel);
                }
                let a = addr_of(rd(regs, consts, base, *s_addr), heap_limit)?;
                let v = rd(regs, consts, base, *s_value);
                if a >= heap.len() {
                    let grown = (a + 1).max(heap.len() * 2).min(heap_limit);
                    heap.resize(grown, Value::Int(0));
                }
                heap[a] = v;
                pc += 2;
            }
            Op::BinBr {
                op,
                dst,
                lhs,
                rhs,
                cond,
                then_pc,
                else_pc,
                site,
            } => {
                let a = rd(regs, consts, base, *lhs);
                let b = rd(regs, consts, base, *rhs);
                regs[base + *dst as usize] = eval_bin(*op, a, b)?;
                steps += 1;
                if steps > fuel {
                    return Err(RunError::OutOfFuel);
                }
                let taken = rd(regs, consts, base, *cond).is_truthy();
                sink.record(*site, taken);
                pc = if taken { *then_pc } else { *else_pc } as usize;
            }
            Op::LoadCmpBr {
                l_dst,
                l_addr,
                op,
                dst,
                lhs,
                rhs,
                then_pc,
                else_pc,
                site,
            } => {
                let a = addr_of(rd(regs, consts, base, *l_addr), heap_limit)?;
                regs[base + *l_dst as usize] = heap.get(a).copied().unwrap_or(Value::Int(0));
                steps += 1;
                if steps > fuel {
                    return Err(RunError::OutOfFuel);
                }
                let a = rd(regs, consts, base, *lhs);
                let b = rd(regs, consts, base, *rhs);
                let taken = eval_cmp(*op, a, b)?;
                regs[base + *dst as usize] = Value::Int(i64::from(taken));
                steps += 1;
                if steps > fuel {
                    return Err(RunError::OutOfFuel);
                }
                sink.record(*site, taken);
                pc = if taken { *then_pc } else { *else_pc } as usize;
            }
            Op::ConstConst {
                a_dst,
                a_value,
                b_dst,
                b_value,
            } => {
                regs[base + *a_dst as usize] = *a_value;
                steps += 1;
                if steps > fuel {
                    return Err(RunError::OutOfFuel);
                }
                regs[base + *b_dst as usize] = *b_value;
                pc += 2;
            }
            Op::ConstJmp {
                dst,
                value,
                target,
                count,
            } => {
                regs[base + *dst as usize] = *value;
                steps += u64::from(*count);
                if steps > fuel {
                    return Err(RunError::OutOfFuel);
                }
                pc = *target as usize;
            }
            Op::CopyCmpBr {
                dst,
                src,
                c_op,
                c_dst,
                c_lhs,
                c_rhs,
                then_pc,
                else_pc,
                site,
            } => {
                regs[base + *dst as usize] = rd(regs, consts, base, *src);
                steps += 1;
                if steps > fuel {
                    return Err(RunError::OutOfFuel);
                }
                let a = rd(regs, consts, base, *c_lhs);
                let b = rd(regs, consts, base, *c_rhs);
                let taken = eval_cmp(*c_op, a, b)?;
                regs[base + *c_dst as usize] = Value::Int(i64::from(taken));
                steps += 1;
                if steps > fuel {
                    return Err(RunError::OutOfFuel);
                }
                sink.record(*site, taken);
                pc = if taken { *then_pc } else { *else_pc } as usize;
            }
            Op::BinCmpBr {
                a_op,
                a_dst,
                a_lhs,
                a_rhs,
                c_op,
                c_dst,
                c_lhs,
                c_rhs,
                then_pc,
                else_pc,
                site,
            } => {
                let a = rd(regs, consts, base, *a_lhs);
                let b = rd(regs, consts, base, *a_rhs);
                regs[base + *a_dst as usize] = eval_bin(*a_op, a, b)?;
                steps += 1;
                if steps > fuel {
                    return Err(RunError::OutOfFuel);
                }
                let a = rd(regs, consts, base, *c_lhs);
                let b = rd(regs, consts, base, *c_rhs);
                let taken = eval_cmp(*c_op, a, b)?;
                regs[base + *c_dst as usize] = Value::Int(i64::from(taken));
                steps += 1;
                if steps > fuel {
                    return Err(RunError::OutOfFuel);
                }
                sink.record(*site, taken);
                pc = if taken { *then_pc } else { *else_pc } as usize;
            }
            Op::BinBinJmp {
                a_op,
                a_dst,
                a_lhs,
                a_rhs,
                b_op,
                b_dst,
                b_lhs,
                b_rhs,
                target,
                count,
            } => {
                let a = rd(regs, consts, base, *a_lhs);
                let b = rd(regs, consts, base, *a_rhs);
                regs[base + *a_dst as usize] = eval_bin(*a_op, a, b)?;
                steps += 1;
                if steps > fuel {
                    return Err(RunError::OutOfFuel);
                }
                let a = rd(regs, consts, base, *b_lhs);
                let b = rd(regs, consts, base, *b_rhs);
                regs[base + *b_dst as usize] = eval_bin(*b_op, a, b)?;
                steps += u64::from(*count);
                if steps > fuel {
                    return Err(RunError::OutOfFuel);
                }
                pc = *target as usize;
            }
            Op::CmpBinBr {
                c_op,
                c_dst,
                c_lhs,
                c_rhs,
                b_op,
                b_dst,
                b_lhs,
                b_rhs,
                cond,
                then_pc,
                else_pc,
                site,
            } => {
                let a = rd(regs, consts, base, *c_lhs);
                let b = rd(regs, consts, base, *c_rhs);
                regs[base + *c_dst as usize] = Value::Int(i64::from(eval_cmp(*c_op, a, b)?));
                steps += 1;
                if steps > fuel {
                    return Err(RunError::OutOfFuel);
                }
                let a = rd(regs, consts, base, *b_lhs);
                let b = rd(regs, consts, base, *b_rhs);
                regs[base + *b_dst as usize] = eval_bin(*b_op, a, b)?;
                steps += 1;
                if steps > fuel {
                    return Err(RunError::OutOfFuel);
                }
                let taken = rd(regs, consts, base, *cond).is_truthy();
                sink.record(*site, taken);
                pc = if taken { *then_pc } else { *else_pc } as usize;
            }
            Op::LoadCmpBin {
                l_dst,
                l_addr,
                c_op,
                c_dst,
                c_lhs,
                c_rhs,
                b_op,
                b_dst,
                b_lhs,
                b_rhs,
            } => {
                let a = addr_of(rd(regs, consts, base, *l_addr), heap_limit)?;
                regs[base + *l_dst as usize] = heap.get(a).copied().unwrap_or(Value::Int(0));
                steps += 1;
                if steps > fuel {
                    return Err(RunError::OutOfFuel);
                }
                let a = rd(regs, consts, base, *c_lhs);
                let b = rd(regs, consts, base, *c_rhs);
                regs[base + *c_dst as usize] = Value::Int(i64::from(eval_cmp(*c_op, a, b)?));
                steps += 1;
                if steps > fuel {
                    return Err(RunError::OutOfFuel);
                }
                let a = rd(regs, consts, base, *b_lhs);
                let b = rd(regs, consts, base, *b_rhs);
                regs[base + *b_dst as usize] = eval_bin(*b_op, a, b)?;
                pc += 3;
            }
            Op::Ret { value } => {
                let v = if *value == NONE {
                    None
                } else {
                    Some(rd(regs, consts, base, *value))
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
