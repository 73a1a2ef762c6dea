//! Table 1: misprediction rates of the paper's eight strategies across the
//! eight benchmark programs, plus static/executed/improved branch counts.

use brepl_analysis::classify_module;
use brepl_bench::{print_header, print_row, print_row_counts, profile_suite, scale_from_env};
use brepl_predict::dynamic::{LastDirection, SaturatingCounters, TwoLevel};
use brepl_predict::semistatic::{combine_best, profile_report_from_stats};
use brepl_predict::stat::proof_guided::ProofGuided;
use brepl_predict::{evaluate_static, simulate_dynamic, HistoryKind, PatternTableSet};

fn main() {
    let suite = profile_suite(scale_from_env());
    print_header("Table 1: misprediction rates in percent");

    let mut rows: Vec<(&str, Vec<f64>)> = vec![
        ("last direction", vec![]),
        ("2 bit counter", vec![]),
        ("two level 4K bit", vec![]),
        ("profile", vec![]),
        ("1 bit correlation", vec![]),
        ("1 bit loop", vec![]),
        ("9 bit loop", vec![]),
        ("loop-correlation", vec![]),
        ("static (no profile)", vec![]),
    ];
    let mut static_branches = Vec::new();
    let mut executed_branches = Vec::new();
    let mut improved = Vec::new();
    let mut ipm = Vec::new();

    for p in &suite {
        let t = &p.trace;
        let stats = t.stats();
        rows[0]
            .1
            .push(simulate_dynamic(&mut LastDirection::new(), t).misprediction_percent());
        rows[1]
            .1
            .push(simulate_dynamic(&mut SaturatingCounters::new(2), t).misprediction_percent());
        rows[2]
            .1
            .push(simulate_dynamic(&mut TwoLevel::paper_4k(), t).misprediction_percent());
        let profile = profile_report_from_stats(&stats);
        rows[3].1.push(profile.misprediction_percent());
        let corr1 = PatternTableSet::build(t, HistoryKind::Global, 1).report();
        rows[4].1.push(corr1.misprediction_percent());
        // The 1-bit loop row aggregates from the 9-bit local tables
        // instead of re-walking the trace.
        let local9 = PatternTableSet::build(t, HistoryKind::Local, 9);
        rows[5]
            .1
            .push(local9.aggregated(1).report().misprediction_percent());
        let loop9 = local9.report();
        rows[6].1.push(loop9.misprediction_percent());
        let lc = combine_best(&corr1, &loop9);
        rows[7].1.push(lc.misprediction_percent());
        // Fisher & Freudenberger's preferred measure: average executed
        // instructions per mispredicted branch, for the best semi-static row.
        ipm.push(lc.instructions_per_misprediction(p.steps));
        // No-profile baseline: SCCP/interval proofs plus Ball–Larus-style
        // heuristics, never consulting the trace. Every profile-informed
        // row above should beat it — that gap is the price of going
        // profile-free.
        let cls = classify_module(&p.workload.module);
        let pg = ProofGuided::analyze(&p.workload.module, &cls.proved_sites());
        rows[8]
            .1
            .push(evaluate_static(pg.prediction(), t).misprediction_percent());

        static_branches.push(p.workload.module.branch_count() as u64);
        executed_branches.push(stats.executed_sites() as u64);
        improved.push(lc.improved_sites_vs(&profile) as u64);
    }

    for (label, values) in &rows {
        print_row(label, values);
    }
    print_row("insns/mispred (l-c)", &ipm);
    println!();
    print_row_counts("static branches", &static_branches);
    print_row_counts("executed branches", &executed_branches);
    print_row_counts("improved branches", &improved);

    // The paper's qualitative claims, checked on the spot.
    let avg = |i: usize| -> f64 { rows[i].1.iter().sum::<f64>() / rows[i].1.len() as f64 };
    println!();
    println!(
        "averages: two-level {:.2}%  profile {:.2}%  loop-correlation {:.2}%  static {:.2}%",
        avg(2),
        avg(3),
        avg(7),
        avg(8)
    );
    println!(
        "loop-correlation recovers {:.0}% of the profile->ideal gap on average",
        100.0 * (avg(3) - avg(7)) / avg(3).max(1e-9)
    );
}
