//! Differential testing of the static misprediction bound: the bound the
//! cost model derives by folding the profiling trace through the
//! replicated control flow must never undercut what the simulator
//! measures, and it must agree *exactly*, site by site, with the shipped
//! program's own counted misses — the replay is a faithful abstract
//! execution, not an estimate.

use brepl::core::machine::MachineState;
use brepl::core::replicate::{apply_plan, BranchMachine, ReplicationPlan};
use brepl::core::{HistPattern, StateMachine};
use brepl::ir::{BranchId, FunctionBuilder, Module, Operand};
use brepl::pipeline::{run_pipeline, PipelineConfig};
use brepl::sim::{Machine, RunConfig};
use brepl::workloads::{all_workloads, Scale};
use brepl_analysis::static_cost;
use brepl_bench::fuzz::replay_differential;

#[test]
fn static_bound_never_undercuts_the_simulator_on_any_workload() {
    for w in all_workloads(Scale::Small) {
        let r = run_pipeline(&w.module, &w.args, &w.input, PipelineConfig::default())
            .unwrap_or_else(|e| panic!("{}: pipeline failed: {e}", w.name));
        let mut machine = Machine::new(&w.module, RunConfig::default()).unwrap();
        machine.set_input(w.input.clone());
        let trace = machine.run("main", &w.args).unwrap().trace;
        let report = static_cost(
            &r.program.module,
            &r.program.provenance,
            &r.program.predictions,
            &trace,
            "main",
        )
        .unwrap_or_else(|e| panic!("{}: cost replay failed: {e}", w.name));
        assert!(
            report.bound_percent() + 1e-9 >= r.replicated_misprediction_percent,
            "{}: static bound {:.4}% undercuts simulated {:.4}%",
            w.name,
            report.bound_percent(),
            r.replicated_misprediction_percent
        );
        replay_differential(&w.module, &w.args, &w.input, &r.program)
            .unwrap_or_else(|e| panic!("{}: replay is not exact: {e}", w.name));
    }
}

/// The Figure-1 demo: a 16-iteration loop whose branch alternates, tamed
/// by a two-state flip-flop.
fn demo_module() -> Module {
    let mut b = FunctionBuilder::new("main", 0);
    let i = b.reg();
    let acc = b.reg();
    b.const_int(i, 0);
    b.const_int(acc, 0);
    let head = b.new_block();
    let arm2 = b.new_block();
    let arm3 = b.new_block();
    let latch = b.new_block();
    let exit = b.new_block();
    b.jmp(head);
    b.switch_to(head);
    let r = b.reg();
    b.rem(r, i.into(), Operand::imm(2));
    let c = b.eq(r.into(), Operand::imm(0));
    b.br(c, arm2, arm3);
    b.switch_to(arm2);
    b.add(acc, acc.into(), Operand::imm(1));
    b.jmp(latch);
    b.switch_to(arm3);
    b.mul(acc, acc.into(), Operand::imm(2));
    b.jmp(latch);
    b.switch_to(latch);
    b.add(i, i.into(), Operand::imm(1));
    let more = b.lt(i.into(), Operand::imm(16));
    b.br(more, head, exit);
    b.switch_to(exit);
    b.out(acc.into());
    b.ret(Some(acc.into()));
    let mut m = Module::new();
    m.push_function(b.finish());
    m
}

fn flip_flop() -> StateMachine {
    StateMachine::from_states(
        vec![
            MachineState {
                pattern: HistPattern::parse("0").unwrap(),
                predict: true,
                on_taken: 1,
                on_not_taken: 0,
            },
            MachineState {
                pattern: HistPattern::parse("1").unwrap(),
                predict: false,
                on_taken: 1,
                on_not_taken: 0,
            },
        ],
        0,
    )
}

#[test]
fn static_bound_is_exact_on_the_demo_cfg() {
    let m = demo_module();
    let trace = Machine::new(&m, RunConfig::default())
        .unwrap()
        .run("main", &[])
        .unwrap()
        .trace;
    let mut plan = ReplicationPlan::new();
    plan.assign(BranchId(0), BranchMachine::Loop(flip_flop()));
    let program = apply_plan(&m, &plan, &trace.stats()).unwrap();

    let report = static_cost(
        &program.module,
        &program.provenance,
        &program.predictions,
        &trace,
        "main",
    )
    .unwrap();

    // Ground truth: run the replicated module and score its pins against
    // the branch outcomes it actually produces.
    let replicated_trace = Machine::new(&program.module, RunConfig::default())
        .unwrap()
        .run("main", &[])
        .unwrap()
        .trace;
    let simulated: u64 = replicated_trace
        .iter()
        .filter(|ev| program.predictions.get(ev.site) != ev.taken)
        .count() as u64;

    assert_eq!(report.total_events, trace.len() as u64);
    assert_eq!(
        report.total_bound(),
        simulated,
        "the replay must agree with the simulator event for event"
    );
    // The flip-flop kills the alternation: only the warm-up and loop-exit
    // events can miss.
    assert!(
        report.total_bound() <= 2,
        "demo bound unexpectedly large: {}",
        report.total_bound()
    );
}
