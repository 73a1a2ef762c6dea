//! Property-style testing of the predictor zoo and pattern tables.
//! Cases are driven by a deterministic xorshift generator (the workspace
//! builds with zero network access, so no external property-testing
//! framework).

mod common;

use brepl::ir::BranchId;
use brepl::predict::dynamic::{LastDirection, SaturatingCounters, TwoLevel};
use brepl::predict::semistatic::{combine_best, loop_report, profile_report};
use brepl::predict::{simulate_dynamic, HistoryKind, PatternTableSet};
use brepl::trace::{Trace, TraceEvent};
use common::Gen;

const CASES: u64 = 48;

/// Generates a 4000-event trace interleaving 1..=4 sites, each with a
/// behavior class (always-taken / periodic / alternating / biased-random)
/// and its own xorshift stream.
fn gen_trace(case: u64) -> Trace {
    let mut g = Gen::new(0x7AB1E ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let n_specs = g.below(4) as usize + 1;
    let specs: Vec<(u32, u8, u64, u64)> = (0..n_specs)
        .map(|_| {
            (
                g.below(6) as u32,
                g.below(4) as u8,
                g.below(7) + 2,
                g.next(),
            )
        })
        .collect();
    let mut t = Trace::new();
    let mut rngs: Vec<u64> = specs.iter().map(|&(_, _, _, s)| s | 1).collect();
    for step in 0..4000usize {
        let idx = step % specs.len();
        let (site, class, period, _) = specs[idx];
        let r = &mut rngs[idx];
        *r ^= *r << 13;
        *r ^= *r >> 7;
        *r ^= *r << 17;
        let phase = (step / specs.len()) as u64;
        let taken = match class {
            0 => true,
            1 => phase % period != period - 1,
            2 => phase.is_multiple_of(2),
            _ => *r & 7 != 0,
        };
        t.push(TraceEvent {
            site: BranchId(site),
            taken,
        });
    }
    t
}

/// Every predictor's report covers the whole trace.
#[test]
fn reports_cover_all_events() {
    for case in 0..CASES {
        let trace = gen_trace(case);
        let n = trace.len() as u64;
        assert_eq!(
            simulate_dynamic(&mut LastDirection::new(), &trace).total(),
            n
        );
        assert_eq!(
            simulate_dynamic(&mut SaturatingCounters::new(2), &trace).total(),
            n
        );
        assert_eq!(
            simulate_dynamic(&mut TwoLevel::paper_4k(), &trace).total(),
            n
        );
        assert_eq!(profile_report(&trace).total(), n);
        assert_eq!(loop_report(&trace, 5).total(), n);
    }
}

/// Profile prediction is optimal among per-site constant predictions,
/// so any history scheme's *ideal* table can only match or beat it.
#[test]
fn history_never_beats_by_less_than_profile() {
    for case in 0..CASES {
        let trace = gen_trace(case);
        let profile = profile_report(&trace);
        for bits in [1u32, 3, 6, 9] {
            let local = loop_report(&trace, bits);
            assert!(
                local.mispredictions() <= profile.mispredictions(),
                "case {case} bits={bits}: {} > {}",
                local.mispredictions(),
                profile.mispredictions()
            );
        }
    }
}

/// Longer ideal local history is monotonically at least as good.
#[test]
fn longer_history_monotone() {
    for case in 0..CASES {
        let trace = gen_trace(case);
        let mut prev = u64::MAX;
        for bits in 1..=9u32 {
            let w = loop_report(&trace, bits).mispredictions();
            assert!(w <= prev, "case {case} bits={bits}");
            prev = w;
        }
    }
}

/// The best-of combination is at least as good as either input.
#[test]
fn combine_best_dominates() {
    for case in 0..CASES {
        let trace = gen_trace(case);
        let a = loop_report(&trace, 2);
        let b = loop_report(&trace, 7);
        let c = combine_best(&a, &b);
        assert!(c.mispredictions() <= a.mispredictions(), "case {case}");
        assert!(c.mispredictions() <= b.mispredictions(), "case {case}");
        assert_eq!(c.total(), a.total(), "case {case}");
    }
}

/// Pattern-table suffix aggregation: the counts of the two refinements
/// of a suffix sum to the counts of the suffix itself.
#[test]
fn suffix_refinement_partitions() {
    for case in 0..CASES {
        let trace = gen_trace(case);
        let pts = PatternTableSet::build(&trace, HistoryKind::Local, 6);
        for (_, table) in pts.iter_sites() {
            for len in 0..5u32 {
                for suffix in 0..(1u32 << len) {
                    let whole = table.suffix_counts(suffix, len);
                    let zero = table.suffix_counts(suffix, len + 1);
                    let one = table.suffix_counts(suffix | 1 << len, len + 1);
                    assert_eq!(whole.taken, zero.taken + one.taken, "case {case}");
                    assert_eq!(
                        whole.not_taken,
                        zero.not_taken + one.not_taken,
                        "case {case}"
                    );
                }
            }
        }
    }
}

/// Saturating counters of any width track a constant stream perfectly
/// after warmup.
#[test]
fn counters_lock_onto_constant_streams() {
    for bits in 1u32..6 {
        for taken in [false, true] {
            let trace: Trace = (0..200)
                .map(|_| TraceEvent {
                    site: BranchId(0),
                    taken,
                })
                .collect();
            let report = simulate_dynamic(&mut SaturatingCounters::new(bits), &trace);
            // At most 2^(bits-1) warmup misses.
            assert!(
                report.mispredictions() <= 1 << bits.saturating_sub(1),
                "bits={bits} taken={taken}"
            );
        }
    }
}

/// Fill rate is within [0, 100].
#[test]
fn fill_rate_bounds() {
    for case in 0..CASES {
        let trace = gen_trace(case);
        for bits in 1..=9u32 {
            let f = PatternTableSet::build(&trace, HistoryKind::Local, bits).fill_rate_percent();
            assert!((0.0..=100.0).contains(&f), "case {case} bits={bits}");
        }
    }
}
