//! `kmp` — Morris–Pratt string matching over a seeded random binary
//! text, with **closed-form** expected branch rates.
//!
//! The matcher scans for the pattern `ab` over the alphabet `{a, b}`
//! (encoded 0/1) with the Morris–Pratt automaton. For this pattern the
//! automaton state is exactly "the previous symbol was `a`", so under
//! an i.i.d. uniform text every data branch has an analytically exact
//! rate — the workload validates the simulator and the static estimator
//! against real math instead of self-referential differential tests
//! (Nicaud et al.'s KMP misprediction analysis is the model; this is
//! its smallest rigorous instance):
//!
//! | site | branch                      | expected taken rate |
//! |------|-----------------------------|---------------------|
//! | 0    | scan loop `i < n`           | exactly `n/(n+1)`   |
//! | 1    | `state == 1`                | `(n-1)/(2n)` → ½    |
//! | 2    | at state 1: `c == b`        | ½                   |
//! | 3    | at state 0: `c == a`        | ½                   |
//!
//! Expected matches: `(n-1)/4`. Expected per-site-majority (profile)
//! misprediction rate: `(n+1)/(3n+1)` → **1/3** — the i.i.d. floor no
//! replication can beat, which is precisely the hard-branch end of the
//! taxonomy the estimate drift gate (`BR019`) is built to chart.
//!
//! [`biased_text`] generalizes the text to `P('a') = p = num/den`.
//! With the automaton state still "the previous symbol was `a`", the
//! closed forms become: site 1 taken rate → `p`, site 2 → `1 − p`,
//! site 3 → `p`, expected matches → `(n−1)·p(1−p)`, and the
//! per-site-majority misprediction rate → `2·min(p, 1−p)·n/(3n+1)` ≈
//! `⅔·min(p, 1−p)`. Because every rate is a closed form of `p`, drift
//! scenarios that shift `p` mid-run know *exactly* what misprediction
//! looks like before the shift, after it unpatched, and after a
//! re-specialization patch — the drift suite asserts all three.
//!
//! Site 0 is a constant-trip counted loop, so the classify layer proves
//! its bias exactly and the static profile estimator must reproduce
//! `n/(n+1)` as an exact rational; sites 1–3 are input-dependent and
//! get heuristic estimates only. `tests/pipeline_workloads.rs` asserts
//! both halves against the closed forms.

use brepl_ir::{FunctionBuilder, Module, Operand, Value};

use crate::util::XorShift;
use crate::{Scale, Workload};

/// Text length per scale.
pub fn symbols(scale: Scale) -> i64 {
    match scale {
        Scale::Small => 20_000,
        Scale::Full => 400_000,
    }
}

/// Builds the kmp workload with an alternate input dataset.
pub fn build_seeded(scale: Scale, seed: u64) -> Workload {
    let n = symbols(scale);
    Workload {
        name: "kmp",
        description: "Morris-Pratt search for \"ab\" over random binary text (closed-form rates)",
        module: automaton(Scan::Counted(n)),
        args: vec![],
        input: generate_text(n as usize, seed),
    }
}

/// The kmp automaton in *drain* form: the scan loop reads symbols until
/// the tape is exhausted (`in()` returns the `-1` sentinel) instead of
/// counting to a baked trip count, so one module serves tapes of any
/// length — a drift scenario plans on one segment and keeps the same
/// shipped program running across many. Sites 1–3 keep the closed-form
/// rates of the table above; site 0 becomes the sentinel test (one
/// taken exit against `n` not-taken continues) and is no longer
/// provable by the classifier — which is fine, because it is also the
/// one site whose distribution never drifts.
pub fn drift_module() -> Module {
    automaton(Scan::Drained)
}

/// How the automaton's scan loop (site 0) ends.
#[derive(Clone, Copy)]
enum Scan {
    /// Counts `i` up to a baked trip count `n`: the loop test is `i < n`.
    Counted(i64),
    /// Reads symbols until `in()` returns the `-1` end-of-tape sentinel.
    Drained,
}

/// The Morris–Pratt automaton for `ab` with its scan loop in form `scan`.
fn automaton(scan: Scan) -> Module {
    let mut b = FunctionBuilder::new("main", 0);
    let counter = match scan {
        Scan::Counted(n) => Some((b.reg(), n)),
        Scan::Drained => None,
    };
    let state = b.reg();
    let matches = b.reg();
    let checksum = b.reg();
    let c = b.reg();

    let head = b.new_block();
    let body = b.new_block();
    let at1 = b.new_block();
    let at1_match = b.new_block();
    let at1_stay = b.new_block();
    let at0 = b.new_block();
    let at0_adv = b.new_block();
    let at0_stay = b.new_block();
    let latch = b.new_block();
    let exit = b.new_block();

    if let Some((i, _)) = counter {
        b.const_int(i, 0);
    }
    b.const_int(state, 0);
    b.const_int(matches, 0);
    b.const_int(checksum, 7);
    b.jmp(head);

    b.switch_to(head);
    if let Some((i, n)) = counter {
        // Site 0: the scan loop — constant trip count, provable exactly.
        let more = b.lt(i.into(), Operand::imm(n));
        b.br(more, body, exit);
        b.switch_to(body);
        let nxt = b.input();
        b.copy(c, nxt.into());
    } else {
        // Site 0: the drain loop — read a symbol, exit on the sentinel.
        let nxt = b.input();
        b.copy(c, nxt.into());
        let done = b.eq(c.into(), Operand::imm(-1));
        b.br(done, exit, body);
        b.switch_to(body);
    }

    // Site 1: automaton state dispatch (state == 1 ⇔ previous symbol
    // was 'a').
    let in1 = b.eq(state.into(), Operand::imm(1));
    b.br(in1, at1, at0);

    // Site 2: at state 1 the automaton expects pattern[1] = 'b' (1).
    b.switch_to(at1);
    let hit = b.eq(c.into(), Operand::imm(1));
    b.br(hit, at1_match, at1_stay);

    b.switch_to(at1_match);
    b.add(matches, matches.into(), Operand::imm(1));
    b.const_int(state, 0);
    b.jmp(latch);

    // Mismatch at state 1 means c = 'a' — the Morris–Pratt failure
    // link falls to state 0 and immediately re-advances on 'a'.
    b.switch_to(at1_stay);
    b.const_int(state, 1);
    b.jmp(latch);

    // Site 3: at state 0 the automaton expects pattern[0] = 'a' (0).
    b.switch_to(at0);
    let adv = b.eq(c.into(), Operand::imm(0));
    b.br(adv, at0_adv, at0_stay);

    b.switch_to(at0_adv);
    b.const_int(state, 1);
    b.jmp(latch);

    b.switch_to(at0_stay);
    b.const_int(state, 0);
    b.jmp(latch);

    b.switch_to(latch);
    b.mul(checksum, checksum.into(), Operand::imm(31));
    b.add(checksum, checksum.into(), c.into());
    b.bin(
        brepl_ir::BinOp::And,
        checksum,
        checksum.into(),
        Operand::imm((1 << 40) - 1),
    );
    if let Some((i, _)) = counter {
        b.add(i, i.into(), Operand::imm(1));
    }
    b.jmp(head);

    b.switch_to(exit);
    b.out(matches.into());
    b.out(checksum.into());
    b.ret(Some(matches.into()));

    let mut module = Module::new();
    module.push_function(b.finish());
    module.renumber_branches();
    module.verify().expect("kmp module must verify");
    module
}

/// Uniform i.i.d. binary text ('a' = 0, 'b' = 1).
fn generate_text(n: usize, seed: u64) -> Vec<Value> {
    biased_text(n, seed, 1, 2)
}

/// Biased i.i.d. binary text with `P('a') = num/den` ('a' = 0, 'b' = 1).
///
/// Exposed so drift scenarios can splice tapes with different biases at
/// a segment boundary while keeping the module (and hence the plan)
/// fixed. The generator stream depends only on `seed`, not the bias.
///
/// # Panics
///
/// Panics if `den == 0` or `num > den`.
pub fn biased_text(n: usize, seed: u64, num: u64, den: u64) -> Vec<Value> {
    assert!(den > 0 && num <= den, "bias must be a proper fraction");
    let mut rng = XorShift::new(0xAB5EED ^ seed.wrapping_mul(0x9E3779B97F4A7C15));
    (0..n)
        .map(|_| Value::Int(i64::from(rng.below(den) >= num)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use brepl_ir::BranchId;

    #[test]
    fn matches_and_rates_track_the_closed_forms() {
        let w = build_seeded(Scale::Small, 0);
        let n = symbols(Scale::Small) as f64;
        let (outcome, output) = w.run_with_output().unwrap();
        let matches = output[0].as_int().unwrap() as f64;
        // E[matches] = (n-1)/4 for uniform binary text.
        assert!(
            (matches / n - 0.25).abs() < 0.02,
            "matches/n = {}",
            matches / n
        );

        let stats = outcome.trace.stats();
        // Site 0: the counted loop is deterministic — exact, not approximate.
        let s0 = stats.site(BranchId(0));
        assert_eq!(s0.taken, n as u64);
        assert_eq!(s0.not_taken, 1);
        // Sites 1–3: taken rate ½ within sampling tolerance.
        for k in 1..=3u32 {
            let s = stats.site(BranchId(k));
            assert!(s.total() > 1_000, "site {k} executed {}", s.total());
            let rate = s.taken as f64 / s.total() as f64;
            assert!((rate - 0.5).abs() < 0.02, "site {k} rate {rate}");
        }
        // Per-site-majority misprediction tends to 1/3 of all events.
        let pct = stats.profile_misprediction_percent();
        assert!(
            (pct / 100.0 - 1.0 / 3.0).abs() < 0.02,
            "profile misprediction {pct}%"
        );
    }

    #[test]
    fn biased_rates_track_the_closed_forms() {
        // With P('a') = p, the automaton state is "previous symbol was
        // 'a'", so: site 1 → p, site 2 → 1−p, site 3 → p, matches/n →
        // p(1−p), and the per-site-majority misprediction rate →
        // 2·min(p,1−p)·n/(3n+1).
        for &(num, den) in &[(1u64, 4u64), (3, 4), (1, 2)] {
            let p = num as f64 / den as f64;
            let mut w = build_seeded(Scale::Small, 0);
            w.input = biased_text(symbols(Scale::Small) as usize, 0, num, den);
            let n = symbols(Scale::Small) as f64;
            let (outcome, output) = w.run_with_output().unwrap();
            let matches = output[0].as_int().unwrap() as f64;
            assert!(
                (matches / n - p * (1.0 - p)).abs() < 0.02,
                "p = {p}: matches/n = {}",
                matches / n
            );
            let stats = outcome.trace.stats();
            let s0 = stats.site(BranchId(0));
            assert_eq!((s0.taken, s0.not_taken), (n as u64, 1));
            for (site, want) in [(1u32, p), (2, 1.0 - p), (3, p)] {
                let s = stats.site(BranchId(site));
                let rate = s.taken as f64 / s.total() as f64;
                assert!((rate - want).abs() < 0.02, "p = {p}, site {site}: {rate}");
            }
            let pct = stats.profile_misprediction_percent() / 100.0;
            let want = 2.0 * p.min(1.0 - p) * n / (3.0 * n + 1.0);
            assert!((pct - want).abs() < 0.02, "p = {p}: misprediction {pct}");
        }
    }

    /// The counted and drained forms are the modules they have always
    /// been: literal fingerprints, so a change to the shared builder
    /// cannot move either one (`brbench`'s `drift-adapt` runs the drained
    /// form).
    #[test]
    fn both_scan_forms_keep_their_fingerprints() {
        assert_eq!(
            build_seeded(Scale::Small, 0).module.fingerprint(),
            (0x6d05bdf89f6fdd19, 0x514cf4bb82695e45)
        );
        assert_eq!(
            drift_module().fingerprint(),
            (0xd3a159fae1ff0eeb, 0x1ca1f13fb321ceb4)
        );
    }

    #[test]
    fn seeds_change_the_text_not_the_shape() {
        let a = build_seeded(Scale::Small, 0);
        let b = build_seeded(Scale::Small, 1);
        assert_eq!(a.input.len(), b.input.len());
        assert_ne!(a.input, b.input);
        assert_eq!(a.module.fingerprint(), b.module.fingerprint());
    }
}
