//! Deterministic random-program synthesis for fuzzing and property tests.
//!
//! [`random_loop_module`] builds terminating, branch-rich modules from a
//! seed: a counted loop whose body stacks conditional diamonds with
//! periodic, threshold, pseudo-random and bit-test conditions — the branch
//! shapes the paper's technique targets. Every module `out`s its
//! accumulator each iteration, so semantic equivalence between the
//! original and a replicated form is observable from the output tape.
//!
//! The same `(seed, diamonds, trip)` triple always produces the same
//! module, which is what makes fuzz failures replayable and shrinkable.

use brepl_ir::{BinOp, BlockId, FunctionBuilder, Module, Operand, Reg, Value};

/// Simple xorshift for deterministic generation from a caller-chosen seed.
pub struct Gen {
    state: u64,
}

impl Gen {
    /// Seeds the generator; the OR keeps the state non-zero.
    pub fn new(seed: u64) -> Self {
        Gen {
            state: seed | 0x1234_5678,
        }
    }

    /// Next raw 64-bit value.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform-ish value below `bound` (`bound == 0` yields 0).
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound.max(1)
    }
}

/// Emits a random arithmetic update of `acc` using `i`.
fn random_update(g: &mut Gen, b: &mut FunctionBuilder, acc: Reg, i: Reg) {
    match g.below(4) {
        0 => b.add(acc, acc.into(), Operand::imm(g.below(9) as i64 + 1)),
        1 => b.add(acc, acc.into(), i.into()),
        2 => {
            let t = b.reg();
            b.mul(t, i.into(), Operand::imm(g.below(5) as i64 + 1));
            b.add(acc, acc.into(), t.into());
        }
        _ => {
            b.bin(
                BinOp::Xor,
                acc,
                acc.into(),
                Operand::imm(g.below(64) as i64),
            );
        }
    }
}

/// Emits a random branch condition over `i` (periodic, threshold or
/// pseudo-random), returning the condition register.
fn random_condition(g: &mut Gen, b: &mut FunctionBuilder, i: Reg, trip: i64) -> Reg {
    match g.below(4) {
        0 => {
            // Periodic: i % k == c.
            let k = g.below(5) as i64 + 2;
            let c = g.below(k as u64) as i64;
            let r = b.reg();
            b.rem(r, i.into(), Operand::imm(k));
            b.eq(r.into(), Operand::imm(c))
        }
        1 => {
            // Threshold: i < trip * x / 4.
            let x = g.below(4) as i64 + 1;
            b.lt(i.into(), Operand::imm(trip * x / 4))
        }
        2 => {
            // Pseudo-random via the deterministic rand intrinsic.
            let r = b.rand(Operand::imm(g.below(3) as i64 + 2));
            b.eq(r.into(), Operand::imm(0))
        }
        _ => {
            // Bit test: (i >> s) & 1.
            let s = g.below(4) as i64;
            let r = b.reg();
            b.bin(BinOp::Shr, r, i.into(), Operand::imm(s));
            let r2 = b.reg();
            b.bin(BinOp::And, r2, r.into(), Operand::imm(1));
            b.ne(r2.into(), Operand::imm(0))
        }
    }
}

/// Builds a terminating module: a counted loop of `trip` iterations whose
/// body contains `diamonds` conditional diamonds with varied conditions,
/// ending with an `out(acc)` so semantic equivalence is observable.
pub fn random_loop_module(seed: u64, diamonds: usize, trip: i64) -> Module {
    let mut g = Gen::new(seed);
    let mut b = FunctionBuilder::new("main", 0);
    let i = b.reg();
    let acc = b.reg();
    b.const_int(i, 0);
    b.const_int(acc, 1);

    let head = b.new_block();
    let exit = b.new_block();
    b.jmp(head);

    // head holds the loop test.
    b.switch_to(head);
    let body_entry = b.new_block();
    let c = b.lt(i.into(), Operand::imm(trip));
    b.br(c, body_entry, exit);

    let mut cur: BlockId = body_entry;
    for _ in 0..diamonds {
        b.switch_to(cur);
        let cond = random_condition(&mut g, &mut b, i, trip);
        let then_b = b.new_block();
        let else_b = b.new_block();
        let join = b.new_block();
        b.br(cond, then_b, else_b);
        b.switch_to(then_b);
        random_update(&mut g, &mut b, acc, i);
        b.jmp(join);
        b.switch_to(else_b);
        random_update(&mut g, &mut b, acc, i);
        random_update(&mut g, &mut b, acc, i);
        b.jmp(join);
        cur = join;
    }
    // Latch.
    b.switch_to(cur);
    b.out(acc.into());
    b.add(i, i.into(), Operand::imm(1));
    b.jmp(head);

    b.switch_to(exit);
    b.out(acc.into());
    b.ret(Some(acc.into()));

    let mut m = Module::new();
    m.push_function(b.finish());
    m.verify().expect("generated module verifies");
    m
}

/// Builds the drift-gate module in *drain* form: the loop reads one
/// input symbol per iteration until the tape is exhausted (`in()`
/// returns the `-1` sentinel), then branches on the symbol (site 1,
/// taken ⇔ symbol `== 1`). The branch's behaviour is *entirely*
/// input-driven, so splicing input tapes with different symbol patterns
/// at a segment boundary shifts exactly one site's distribution — the
/// minimal re-specialization scenario — and because the trip count
/// follows the tape, the *same* module serves a one-segment planning
/// run and a many-segment adaptive run. An alternating tape makes
/// site 1 a perfect 2-state flip-flop (a machine-controlled site after
/// planning); a constant tape makes it monostatic (where a demotion
/// patch wins).
pub fn input_gate_module() -> Module {
    let mut b = FunctionBuilder::new("main", 0);
    let acc = b.reg();
    let v = b.reg();
    let head = b.new_block();
    let body = b.new_block();
    let yes = b.new_block();
    let no = b.new_block();
    let latch = b.new_block();
    let exit = b.new_block();

    b.const_int(acc, 7);
    b.jmp(head);

    // Site 0: the drain loop — read a symbol, exit on the sentinel.
    // Heavily not-taken and stable across segments: never patched.
    b.switch_to(head);
    let nxt = b.input();
    b.copy(v, nxt.into());
    let done = b.eq(v.into(), Operand::imm(-1));
    b.br(done, exit, body);

    // Site 1: the gate — taken iff this iteration's input symbol is 1.
    b.switch_to(body);
    let one = b.eq(v.into(), Operand::imm(1));
    b.br(one, yes, no);

    b.switch_to(yes);
    b.mul(acc, acc.into(), Operand::imm(3));
    b.add(acc, acc.into(), Operand::imm(1));
    b.jmp(latch);

    b.switch_to(no);
    b.mul(acc, acc.into(), Operand::imm(5));
    b.add(acc, acc.into(), Operand::imm(2));
    b.jmp(latch);

    b.switch_to(latch);
    b.bin(BinOp::And, acc, acc.into(), Operand::imm((1 << 40) - 1));
    b.out(acc.into());
    b.jmp(head);

    b.switch_to(exit);
    b.ret(Some(acc.into()));

    let mut m = Module::new();
    m.push_function(b.finish());
    m.renumber_branches();
    m.verify().expect("input-gate module verifies");
    m
}

/// An input tape for [`input_gate_module`]: `n` symbols, either
/// alternating `0,1,0,1,…` (`pattern = GatePattern::Alternating`) or all
/// one constant.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GatePattern {
    /// `0,1,0,1,…` — a perfect period-2 site, won by a 2-state machine.
    Alternating,
    /// Every symbol equal to the given value — a monostatic site.
    Constant(i64),
}

/// Generates a tape of `n` symbols in the given pattern.
pub fn gate_tape(n: usize, pattern: GatePattern) -> Vec<Value> {
    (0..n)
        .map(|k| match pattern {
            GatePattern::Alternating => Value::Int((k % 2) as i64),
            GatePattern::Constant(v) => Value::Int(v),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Workload;

    #[test]
    fn generation_is_deterministic() {
        let a = random_loop_module(17, 3, 50);
        let b = random_loop_module(17, 3, 50);
        assert_eq!(a, b);
        let c = random_loop_module(18, 3, 50);
        assert_ne!(a, c, "different seeds should differ");
    }

    #[test]
    fn generated_modules_verify_across_shapes() {
        for seed in 0..8 {
            for diamonds in [0, 1, 4] {
                let m = random_loop_module(seed, diamonds, 20);
                assert!(m.branch_count() > diamonds);
            }
        }
    }

    /// The gate module over the concatenated segment tapes.
    fn gate_workload(segments: &[Vec<Value>]) -> Workload {
        Workload {
            name: "drift-gate",
            description: "drain loop around one input-driven branch",
            module: input_gate_module(),
            args: vec![],
            input: segments.concat(),
        }
    }

    #[test]
    fn input_gate_tracks_its_tape() {
        let alt = gate_tape(100, GatePattern::Alternating);
        let w = gate_workload(std::slice::from_ref(&alt));
        let outcome = w.run().unwrap();
        let stats = outcome.trace.stats();
        // Site 0: drain loop, 100 symbol iterations (not taken) + 1
        // sentinel exit (taken). Site 1: exactly the tape — 50 taken
        // (symbol 1) / 50 not taken.
        let s0 = stats.site(brepl_ir::BranchId(0));
        assert_eq!((s0.taken, s0.not_taken), (1, 100));
        let s1 = stats.site(brepl_ir::BranchId(1));
        assert_eq!((s1.taken, s1.not_taken), (50, 50));

        let con = gate_tape(60, GatePattern::Constant(1));
        let w = gate_workload(&[alt, con]);
        assert_eq!(w.input.len(), 160);
        let stats = w.run().unwrap().trace.stats();
        let s1 = stats.site(brepl_ir::BranchId(1));
        assert_eq!((s1.taken, s1.not_taken), (110, 50));
    }
}
