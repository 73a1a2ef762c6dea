//! Shared helpers for the integration tests: a deterministic random
//! program generator producing terminating, branch-rich modules.
//!
//! The implementation lives in `brepl_workloads::synth` so the fuzz
//! harness binaries can use it too; this module just re-exports it.

// Each integration-test binary includes this module but uses only part
// of it.
#![allow(unused_imports)]

pub use brepl_workloads::synth::{random_loop_module, Gen};

use brepl::pipeline::PipelineConfig;
use brepl_analysis::{
    check_history, check_history_cached, validate_replication, validate_replication_cached,
    GateCache, HistorySpec,
};
use brepl_core::{apply_plan, select_strategies, ReplicatedProgram, Selection};
use brepl_ir::{BranchId, FunctionBuilder, Module, Operand, Value};
use brepl_trace::TraceStats;
use brepl_workloads::kmp;
use brepl_workloads::synth::{gate_tape, input_gate_module, GatePattern};
use brepl_workloads::Workload;

/// Three adaptive-run scenarios covering the patch kinds, by name: a
/// swap-drift recovery, a machine demotion, and a flapping distribution
/// that ends in rollback + quarantine.
#[allow(dead_code)]
pub fn drift_scenarios() -> Vec<(&'static str, Module, Vec<Vec<Value>>)> {
    let n = 1500;
    let swap = vec![
        kmp::biased_text(n, 7, 1, 4),
        kmp::biased_text(n, 8, 3, 4),
        kmp::biased_text(n, 9, 3, 4),
    ];
    let demote = vec![
        gate_tape(n, GatePattern::Alternating),
        gate_tape(n, GatePattern::Constant(1)),
        gate_tape(n, GatePattern::Constant(1)),
    ];
    let flap: Vec<_> = (0..8u64)
        .map(|k| {
            let (num, den) = if k % 2 == 0 { (1, 4) } else { (3, 4) };
            // 2000 symbols: enough detector windows per segment that the
            // flip-flopping reliably reaches the quarantine threshold.
            kmp::biased_text(2000, 100 + k, num, den)
        })
        .collect();
    vec![
        ("kmp-swap", kmp::drift_module(), swap),
        ("gate-demote", input_gate_module(), demote),
        ("kmp-flap", kmp::drift_module(), flap),
    ]
}

/// The shapes of brbench's `drift-adapt` scenarios at seed 0, with
/// `segments` segments of `symbols` symbols each: `kmp-swap` (text bias
/// 1/4 for segments 0–2, then 3/4), `gate-cycle` (the input gate
/// alternating for two segments, then constant for two, and so on) and
/// `kmp-stable` (bias 1/2 throughout).
#[allow(dead_code)]
pub fn bench_drift_scenarios(
    segments: usize,
    symbols: usize,
) -> Vec<(&'static str, Module, Vec<Vec<Value>>)> {
    let text_seed = |scenario: u64, k: usize| scenario * 1000 + k as u64;
    let swap = (0..segments)
        .map(|k| {
            let num = if k < 3 { 1 } else { 3 };
            kmp::biased_text(symbols, text_seed(1, k), num, 4)
        })
        .collect();
    let cycle = (0..segments)
        .map(|k| {
            let pattern = if (k / 2) % 2 == 0 {
                GatePattern::Alternating
            } else {
                GatePattern::Constant(1)
            };
            gate_tape(symbols, pattern)
        })
        .collect();
    let stable = (0..segments)
        .map(|k| kmp::biased_text(symbols, text_seed(3, k), 1, 2))
        .collect();
    vec![
        ("kmp-swap", kmp::drift_module(), swap),
        ("gate-cycle", input_gate_module(), cycle),
        ("kmp-stable", kmp::drift_module(), stable),
    ]
}

/// An alternating machine-worthy branch (site 0), a proved-always-taken
/// guard (site 1) and a loop back edge (site 2): the shape on which the
/// trace and static-profile chaos forges fire proper instead of falling
/// back to trace truncation.
#[allow(dead_code)]
pub fn guarded_alternation_module() -> Module {
    let mut b = FunctionBuilder::new("main", 0);
    let i = b.reg();
    let acc = b.reg();
    b.const_int(i, 0);
    b.const_int(acc, 0);
    let head = b.new_block();
    let even = b.new_block();
    let odd = b.new_block();
    let guard_t = b.new_block();
    let latch = b.new_block();
    let exit = b.new_block();
    b.jmp(head);
    b.switch_to(head);
    let r = b.reg();
    b.rem(r, i.into(), Operand::imm(2));
    let c = b.eq(r.into(), Operand::imm(0));
    b.br(c, even, odd); // site 0: alternating — ships a machine
    b.switch_to(even);
    b.add(acc, acc.into(), Operand::imm(3));
    b.jmp(latch);
    b.switch_to(odd);
    b.add(acc, acc.into(), Operand::imm(5));
    b.jmp(latch);
    b.switch_to(latch);
    let one = b.reg();
    b.const_int(one, 1);
    let g = b.gt(one.into(), Operand::imm(0));
    b.br(g, guard_t, exit); // site 1: proved always-taken
    b.switch_to(guard_t);
    b.add(i, i.into(), Operand::imm(1));
    let c2 = b.lt(i.into(), Operand::imm(200));
    b.br(c2, head, exit); // site 2: loop back edge
    b.switch_to(exit);
    b.out(acc.into());
    b.ret(Some(acc.into()));
    let mut m = Module::new();
    m.push_function(b.finish());
    m.renumber_branches();
    m
}

/// The full plan of the gate-cache differential on `w`: its profiling
/// counts, its selection at the pipeline's default machine size, and
/// every site that selection replicates.
#[allow(dead_code)]
pub fn full_plan(w: &Workload) -> (TraceStats, Selection, Vec<BranchId>) {
    let trace = w.run().expect("workload runs").trace;
    let selection = select_strategies(&w.module, &trace, PipelineConfig::default().max_states);
    let sites = selection.to_plan().assignments.keys().copied().collect();
    (trace.stats(), selection, sites)
}

/// One replication round over `sites`, built as the pipeline driver
/// builds it: the replicated program and the plan's machine tables.
#[allow(dead_code)]
pub fn replicate_round(
    module: &Module,
    stats: &TraceStats,
    selection: &Selection,
    sites: &[BranchId],
) -> (ReplicatedProgram, HistorySpec) {
    let plan = selection.to_plan_filtered(|s| sites.contains(&s));
    let program = apply_plan(module, &plan, stats).expect("a sub-plan replicates");
    (program, plan.history_spec())
}

/// Checks one round against the reference gates: the cached translation
/// validator and history checker, sharing `cache` across rounds as the
/// pipeline driver does, must return exactly the diagnostics of
/// [`validate_replication`] and [`check_history`] from scratch.
#[allow(dead_code)]
pub fn assert_cached_gates_match(
    module: &Module,
    program: &ReplicatedProgram,
    spec: &HistorySpec,
    cache: &mut GateCache,
    ctx: &str,
) {
    let p = program;
    assert_eq!(
        validate_replication_cached(module, &p.module, &p.replica_map, &p.predictions, cache),
        validate_replication(module, &p.module, &p.replica_map, &p.predictions),
        "{ctx}: validator"
    );
    assert_eq!(
        check_history_cached(&p.module, &p.provenance, spec, &p.predictions, cache),
        check_history(&p.module, &p.provenance, spec, &p.predictions),
        "{ctx}: history checker"
    );
}
