//! Host-speed calibration for the end-to-end timings.
//!
//! On a shared host, other tenants slow every program down, often for tens
//! of seconds at a time, so a whole run can land in a slow phase. Each
//! timed slice of work is therefore preceded by one calibration unit: a
//! fixed piece of work that lives in the benchmark, so that no change to
//! the library moves it, and followed by another. [`at_reference_speed`]
//! scales the slice's time by the two units' mean to seconds at the
//! reference speed, at which a unit takes [`REFERENCE_S`].

use std::hint::black_box;
use std::time::Instant;

/// Seconds one calibration unit takes on the reference host (a 2-vCPU
/// Intel Xeon VM) when nothing else runs on it.
pub const REFERENCE_S: f64 = 0.009;

/// Dependent integer steps in a unit.
const ALU_STEPS: u64 = 3_000_000;
/// Loop iterations of the unit's bytecode program.
const VM_ITERATIONS: u32 = 250_000;
/// Words of the bytecode program's memory (16 KiB, cache-resident).
const VM_WORDS: usize = 4096;

/// `seconds` of work timed between two calibration units that took
/// `before` and `after` seconds, scaled to the reference speed.
pub fn at_reference_speed(seconds: f64, before: f64, after: f64) -> f64 {
    seconds * 2.0 * REFERENCE_S / (before + after)
}

/// Times one calibration unit, in seconds: a chain of dependent integer
/// operations, then a small bytecode interpreter (dispatch, loads, stores
/// and data-dependent branches), the two kinds of work the pipeline's
/// layers do.
pub fn unit() -> f64 {
    let t = Instant::now();
    let (mut a, mut b) = (1u64, 7u64);
    for i in 0..ALU_STEPS {
        a = a.rotate_left(5) ^ b.wrapping_add(i);
        b = black_box(b ^ (a >> 3));
    }
    black_box(a);
    black_box(interpret(black_box(&PROGRAM)));
    t.elapsed().as_secs_f64()
}

/// One instruction of the calibration program; operands are registers.
#[derive(Clone, Copy)]
enum Op {
    /// `r[a] = r[b] * k`.
    MulImm(usize, usize, u32),
    /// `r[a] = mem[r[b]]`.
    Load(usize, usize),
    /// `mem[r[b]] = r[a]`.
    Store(usize, usize),
    /// `r[a] ^= r[b]`.
    Xor(usize, usize),
    /// `r[a] += r[b]`.
    Add(usize, usize),
    /// Jump to `target` when `r[a]` is odd.
    BranchOdd(usize, usize),
    /// Decrement `r[a]`; jump to `target` unless it reached 0.
    Loop(usize, usize),
    /// Stop.
    Halt,
}

/// A hash-and-scatter loop over the memory, with a branch on the data.
const PROGRAM: [Op; 10] = [
    Op::MulImm(1, 1, 0x9e37_79b1),
    Op::Load(2, 1),
    Op::Xor(2, 1),
    Op::BranchOdd(2, 6),
    Op::Add(3, 2),
    Op::Store(3, 2),
    Op::MulImm(4, 2, 0x85eb_ca6b),
    Op::Add(1, 4),
    Op::Loop(0, 0),
    Op::Halt,
];

/// Runs `program` for [`VM_ITERATIONS`] loop iterations; returns its
/// registers.
fn interpret(program: &[Op]) -> [u32; 5] {
    let mut mem = [0u32; VM_WORDS];
    for (i, w) in mem.iter_mut().enumerate() {
        *w = (i as u32).wrapping_mul(2_654_435_761);
    }
    let at = |v: u32| v as usize % VM_WORDS;
    let mut r = [VM_ITERATIONS, 12_345, 0, 0, 0];
    let mut pc = 0;
    loop {
        let op = program[pc];
        pc += 1;
        match op {
            Op::MulImm(a, b, k) => r[a] = r[b].wrapping_mul(k),
            Op::Load(a, b) => r[a] = mem[at(r[b])],
            Op::Store(a, b) => mem[at(r[b])] = r[a],
            Op::Xor(a, b) => r[a] ^= r[b],
            Op::Add(a, b) => r[a] = r[a].wrapping_add(r[b]),
            Op::BranchOdd(a, target) => {
                if r[a] & 1 == 1 {
                    pc = target;
                }
            }
            Op::Loop(a, target) => {
                r[a] -= 1;
                if r[a] != 0 {
                    pc = target;
                }
            }
            Op::Halt => return r,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_program_halts_after_every_iteration() {
        let r = interpret(&PROGRAM);
        assert_eq!(r[0], 0);
        assert_ne!(r[3], 0, "the data-dependent branch falls through sometimes");
    }
}
