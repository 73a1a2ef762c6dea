//! Canonical structural fingerprints of modules.
//!
//! The analysis pipeline is a pure function of its IR and trace inputs, so
//! whole stages can be memoized on a compact identity of those inputs (see
//! `brepl_core::memo`). The fingerprint below is a 128-bit dual-lane
//! FNV-1a walk over *everything semantically visible* in a module: globals,
//! function names and signatures, block structure, every instruction field
//! and every terminator — with float immediates hashed via
//! [`f64::to_bits`] so `0.0`/`-0.0` and NaN payloads are distinguished
//! exactly like the interpreter distinguishes them.
//!
//! Two modules with equal fingerprints are treated as identical by the
//! memo layer; the walk therefore never skips a field that execution,
//! replication or selection could observe.

use crate::ids::BlockId;
use crate::inst::{Inst, Operand, Term, Value};
use crate::module::{Function, Module};

/// Dual-lane FNV-1a accumulator: the one hasher behind every fingerprint
/// and cache key in the workspace (modules and functions here; traces,
/// pattern tables, outcome streams and gate-cache keys in their crates).
/// Lane `a` is 64-bit FNV-1a over each mixed word; lane `b` mixes the
/// word rotated by 32 with its own offset and prime, so the pair is a
/// 128-bit identity.
pub struct Lanes {
    a: u64,
    b: u64,
}

impl Default for Lanes {
    fn default() -> Self {
        Lanes::new()
    }
}

impl Lanes {
    /// A fresh accumulator at the two offset bases.
    pub fn new() -> Self {
        Lanes {
            a: 0xcbf2_9ce4_8422_2325,
            b: 0x6c62_272e_07bb_0142,
        }
    }

    /// Mixes one word into both lanes.
    pub fn mix(&mut self, x: u64) {
        self.a = (self.a ^ x).wrapping_mul(0x0000_0100_0000_01b3);
        self.b = (self.b ^ x.rotate_left(32)).wrapping_mul(0x0000_01b3_0000_0193);
    }

    /// The 128-bit value, as `(lane a, lane b)`.
    pub fn finish(self) -> (u64, u64) {
        (self.a, self.b)
    }

    /// Length-prefixed byte mixing (names): no two distinct strings can
    /// produce the same mix sequence.
    fn mix_bytes(&mut self, bytes: &[u8]) {
        self.mix(bytes.len() as u64);
        for chunk in bytes.chunks(8) {
            let mut word = 0u64;
            for (i, &c) in chunk.iter().enumerate() {
                word |= u64::from(c) << (8 * i);
            }
            self.mix(word);
        }
    }

    fn mix_value(&mut self, v: Value) {
        match v {
            Value::Int(i) => {
                self.mix(0);
                self.mix(i as u64);
            }
            Value::Float(f) => {
                self.mix(1);
                self.mix(f.to_bits());
            }
        }
    }

    fn mix_operand(&mut self, o: Operand) {
        match o {
            Operand::Reg(r) => {
                self.mix(0);
                self.mix(u64::from(r.0));
            }
            Operand::Imm(v) => {
                self.mix(1);
                self.mix_value(v);
            }
        }
    }

    fn mix_block(&mut self, id: BlockId) {
        self.mix(u64::from(id.0));
    }

    fn mix_inst(&mut self, inst: &Inst) {
        match inst {
            Inst::Const { dst, value } => {
                self.mix(0);
                self.mix(u64::from(dst.0));
                self.mix_value(*value);
            }
            Inst::Copy { dst, src } => {
                self.mix(1);
                self.mix(u64::from(dst.0));
                self.mix_operand(*src);
            }
            Inst::Bin { op, dst, lhs, rhs } => {
                self.mix(2);
                self.mix(*op as u64);
                self.mix(u64::from(dst.0));
                self.mix_operand(*lhs);
                self.mix_operand(*rhs);
            }
            Inst::Cmp { op, dst, lhs, rhs } => {
                self.mix(3);
                self.mix(*op as u64);
                self.mix(u64::from(dst.0));
                self.mix_operand(*lhs);
                self.mix_operand(*rhs);
            }
            Inst::Ftoi { dst, src } => {
                self.mix(4);
                self.mix(u64::from(dst.0));
                self.mix_operand(*src);
            }
            Inst::Itof { dst, src } => {
                self.mix(5);
                self.mix(u64::from(dst.0));
                self.mix_operand(*src);
            }
            Inst::Load { dst, addr } => {
                self.mix(6);
                self.mix(u64::from(dst.0));
                self.mix_operand(*addr);
            }
            Inst::Store { addr, value } => {
                self.mix(7);
                self.mix_operand(*addr);
                self.mix_operand(*value);
            }
            Inst::Alloc { dst, words } => {
                self.mix(8);
                self.mix(u64::from(dst.0));
                self.mix_operand(*words);
            }
            Inst::Call { dst, callee, args } => {
                self.mix(9);
                self.mix(dst.map_or(u64::MAX, |r| u64::from(r.0)));
                self.mix_bytes(callee.as_bytes());
                self.mix(args.len() as u64);
                for a in args {
                    self.mix_operand(*a);
                }
            }
            Inst::Intrin { dst, which, args } => {
                self.mix(10);
                self.mix(dst.map_or(u64::MAX, |r| u64::from(r.0)));
                self.mix(*which as u64);
                self.mix(args.len() as u64);
                for a in args {
                    self.mix_operand(*a);
                }
            }
        }
    }

    fn mix_term(&mut self, term: &Term) {
        match term {
            Term::Br {
                cond,
                then_,
                else_,
                site,
            } => {
                self.mix(0);
                self.mix_operand(*cond);
                self.mix_block(*then_);
                self.mix_block(*else_);
                self.mix(u64::from(site.0));
            }
            Term::Jmp { target } => {
                self.mix(1);
                self.mix_block(*target);
            }
            Term::Ret { value } => {
                self.mix(2);
                match value {
                    None => self.mix(0),
                    Some(v) => {
                        self.mix(1);
                        self.mix_operand(*v);
                    }
                }
            }
        }
    }
}

impl Lanes {
    fn mix_function(&mut self, f: &Function) {
        self.mix_bytes(f.name.as_bytes());
        self.mix(u64::from(f.n_params));
        self.mix(u64::from(f.n_regs));
        self.mix_block(f.entry);
        self.mix(f.blocks.len() as u64);
        for b in &f.blocks {
            self.mix(b.insts.len() as u64);
            for inst in &b.insts {
                self.mix_inst(inst);
            }
            self.mix_term(&b.term);
        }
    }
}

impl Module {
    /// A canonical 128-bit structural fingerprint of this module.
    ///
    /// Covers globals, every function (name, signature, entry block) and
    /// every instruction and terminator field, including branch site ids
    /// and float immediate bit patterns. Equal fingerprints are treated as
    /// equal modules by the stage-level memo in `brepl-core`.
    pub fn fingerprint(&self) -> (u64, u64) {
        let mut h = Lanes::new();
        h.mix(self.globals as u64);
        h.mix(self.function_count() as u64);
        for (_, f) in self.iter_functions() {
            h.mix_function(f);
        }
        h.finish()
    }
}

impl Function {
    /// A canonical 128-bit structural fingerprint of this one function —
    /// the per-function slice of [`Module::fingerprint`], for caches that
    /// track change at function granularity (the pipeline's incremental
    /// gate re-proving).
    pub fn fingerprint(&self) -> (u64, u64) {
        let mut h = Lanes::new();
        h.mix_function(self);
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use crate::{FunctionBuilder, Module, Operand};

    fn sample(imm: i64) -> Module {
        let mut b = FunctionBuilder::new("main", 1);
        let n = b.param(0);
        let r = b.reg();
        b.add(r, n.into(), Operand::imm(imm));
        let t = b.new_block();
        let e = b.new_block();
        let c = b.lt(r.into(), Operand::imm(10));
        b.br(c, t, e);
        b.switch_to(t);
        b.ret(Some(r.into()));
        b.switch_to(e);
        b.ret(Some(Operand::imm(0)));
        let mut m = Module::new();
        m.push_function(b.finish());
        m
    }

    #[test]
    fn identical_modules_agree() {
        assert_eq!(sample(7).fingerprint(), sample(7).fingerprint());
    }

    #[test]
    fn an_immediate_change_is_visible() {
        assert_ne!(sample(7).fingerprint(), sample(8).fingerprint());
    }

    #[test]
    fn globals_are_visible() {
        let mut a = sample(7);
        a.reserve_globals(4);
        assert_ne!(a.fingerprint(), sample(7).fingerprint());
    }

    #[test]
    fn float_immediates_hash_by_bits() {
        let mk = |x: f64| {
            let mut b = FunctionBuilder::new("main", 0);
            b.ret(Some(Operand::fimm(x)));
            let mut m = Module::new();
            m.push_function(b.finish());
            m
        };
        assert_ne!(mk(0.0).fingerprint(), mk(-0.0).fingerprint());
        assert_eq!(mk(f64::NAN).fingerprint(), mk(f64::NAN).fingerprint());
    }

    #[test]
    fn function_order_and_names_matter() {
        let f = |name: &str| {
            let mut b = FunctionBuilder::new(name, 0);
            b.ret(None);
            b.finish()
        };
        let mut a = Module::new();
        a.push_function(f("x"));
        a.push_function(f("y"));
        let mut b = Module::new();
        b.push_function(f("y"));
        b.push_function(f("x"));
        assert_ne!(a.fingerprint(), b.fingerprint());
    }
}
