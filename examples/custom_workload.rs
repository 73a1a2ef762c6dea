//! Custom workload: parse a program from the textual IR format, run the
//! pipeline on it, and show the misprediction-versus-code-size curve —
//! the per-program view of the paper's Figures 6–13.
//!
//! Run with `cargo run --example custom_workload`.

use brepl::core::greedy::greedy_curve;
use brepl::core::BranchMachine;
use brepl::ir::parse_module;
use brepl::pipeline::{run_pipeline, PipelineConfig};
use brepl::sim::{Machine, RunConfig};

/// A program with three different branch personalities: a period-3
/// intra-loop branch, a fixed-trip-count exit branch, and a final branch
/// correlated with an earlier one.
const SOURCE: &str = "
func @main(0) regs=12 entry=b0 {
b0:
  r0 = const 0        ; i
  r1 = const 0        ; acc
  jmp b1
b1:
  r2 = rem r0, 3
  r3 = eq r2, 2
  br r3, b2, b3       ; period-3 intra-loop branch
b2:
  r1 = add r1, 7
  jmp b4
b3:
  r1 = add r1, 1
  jmp b4
b4:
  r0 = add r0, 1
  r4 = lt r0, 600
  br r4, b1, b5       ; counted exit branch
b5:
  r5 = rem r1, 2
  r6 = eq r5, 0
  br r6, b6, b7       ; depends on acc parity
b6:
  jmp b8
b7:
  jmp b8
b8:
  r7 = eq r5, 0
  br r7, b9, b10      ; perfectly correlated with the b5 branch
b9:
  out(r1)
  ret r1
b10:
  r8 = sub 0, r1
  out(r8)
  ret r8
}
";

fn main() {
    let module = parse_module(SOURCE).expect("source parses");
    module.verify().expect("source verifies");

    let result =
        run_pipeline(&module, &[], &[], PipelineConfig::default()).expect("pipeline succeeds");
    println!(
        "profile {:.2}% -> replicated {:.2}% at {:.2}x size",
        result.profile_misprediction_percent,
        result.replicated_misprediction_percent,
        result.size_growth
    );
    for choice in result.selection.choices() {
        println!(
            "  {}: {:?} -> {} states, {} -> {} misses",
            choice.site,
            choice.class,
            choice.chosen.as_ref().map_or(1, BranchMachine::states),
            choice.profile_misses,
            choice.chosen_misses
        );
    }

    // The greedy curve (misprediction vs code size), Figures 6-13 style.
    let trace = Machine::new(&module, RunConfig::default())
        .unwrap()
        .run("main", &[])
        .expect("runs")
        .trace;
    let curve = greedy_curve(&module, &trace, 6);
    println!("\nmisprediction vs code size:");
    for p in &curve.points {
        println!(
            "  {:5.2}x  {:6.2}%  ({} machines)",
            p.size_factor, p.misprediction_percent, p.machines_enabled
        );
    }
}
