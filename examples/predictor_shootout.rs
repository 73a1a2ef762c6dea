//! Predictor shootout: run every prediction strategy of the paper's §2–§3
//! over one benchmark trace and print a Table-1-style column.
//!
//! Run with `cargo run --release --example predictor_shootout [workload]`.

use brepl::predict::dynamic::{LastDirection, SaturatingCounters, TwoLevel};
use brepl::predict::semistatic::{
    correlation_report, loop_correlation_report, loop_report, profile_report,
};
use brepl::predict::stat::ball_larus::BallLarus;
use brepl::predict::stat::smith;
use brepl::predict::{evaluate_static, simulate_dynamic};
use brepl::workloads::{workload_by_name, Scale};

fn main() {
    let name = std::env::args().nth(1).unwrap_or_else(|| "compress".into());
    let Some(w) = workload_by_name(&name, Scale::Small) else {
        eprintln!(
            "unknown workload {name:?}; try abalone, c-compiler, compress, ghostview, \
             predict, prolog, scheduler or doduc"
        );
        std::process::exit(1);
    };
    println!("profiling {} — {}", w.name, w.description);
    let outcome = w.run().expect("workload runs");
    let trace = outcome.trace;
    println!(
        "{} branch events over {} static sites\n",
        trace.len(),
        trace.stats().executed_sites()
    );

    // Static strategies.
    let mut rows: Vec<(String, f64)> = vec![(
        "always taken (static)".into(),
        evaluate_static(&smith::always_taken(), &trace).misprediction_percent(),
    )];
    rows.push((
        "BTFN (static)".into(),
        evaluate_static(&smith::backward_taken(&w.module), &trace).misprediction_percent(),
    ));
    rows.push((
        "opcode (static)".into(),
        evaluate_static(&smith::opcode_based(&w.module), &trace).misprediction_percent(),
    ));
    rows.push((
        "Ball-Larus (static)".into(),
        evaluate_static(BallLarus::analyze(&w.module).prediction(), &trace).misprediction_percent(),
    ));

    // Dynamic strategies.
    rows.push((
        "last direction (dynamic)".into(),
        simulate_dynamic(&mut LastDirection::new(), &trace).misprediction_percent(),
    ));
    rows.push((
        "2bit counter (dynamic)".into(),
        simulate_dynamic(&mut SaturatingCounters::new(2), &trace).misprediction_percent(),
    ));
    rows.push((
        "two-level 4K bit (dynamic)".into(),
        simulate_dynamic(&mut TwoLevel::paper_4k(), &trace).misprediction_percent(),
    ));

    // Semi-static strategies.
    rows.push((
        "profile (semi-static)".into(),
        profile_report(&trace).misprediction_percent(),
    ));
    rows.push((
        "1 bit correlation".into(),
        correlation_report(&trace, 1).misprediction_percent(),
    ));
    rows.push((
        "1 bit loop".into(),
        loop_report(&trace, 1).misprediction_percent(),
    ));
    rows.push((
        "9 bit loop".into(),
        loop_report(&trace, 9).misprediction_percent(),
    ));
    rows.push((
        "loop-correlation".into(),
        loop_correlation_report(&trace).misprediction_percent(),
    ));

    let width = rows.iter().map(|(n, _)| n.len()).max().unwrap_or(0);
    for (name, pct) in rows {
        println!("{name:width$}  {pct:6.2}%");
    }
}
