//! The four benchmark workloads: their inputs, generated from the seed,
//! and the real pipeline entry points that ship them.

use std::collections::BTreeSet;

use brepl::pipeline::{
    run_pipeline, run_pipeline_adaptive, run_pipeline_static, AdaptiveConfig, PipelineConfig,
};
use brepl_core::{PatchKind, PatchOutcome, ReplicatedProgram};
use brepl_ir::{BranchId, Module, Value};
use brepl_workloads::synth::{gate_tape, input_gate_module, random_loop_module, GatePattern};
use brepl_workloads::{kmp, workload_with_seed, Scale};

/// A benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// The eight paper programs at full scale through `run_pipeline`.
    PaperFull,
    /// Fresh random loop CFGs through `run_pipeline`.
    SynthCfgs,
    /// The eight paper programs through `run_pipeline_static`.
    PaperStatic,
    /// Drift scenarios through `run_pipeline_adaptive`.
    DriftAdapt,
}

impl Kind {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Kind; 4] = [
        Kind::PaperFull,
        Kind::SynthCfgs,
        Kind::PaperStatic,
        Kind::DriftAdapt,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::PaperFull => "paper-full",
            Kind::SynthCfgs => "synth-cfgs",
            Kind::PaperStatic => "paper-static",
            Kind::DriftAdapt => "drift-adapt",
        }
    }

    /// Looks a workload up by its command-line name.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// The paper's eight programs, in the paper's column order.
pub const PAPER_PROGRAMS: [&str; 8] = [
    "abalone",
    "c-compiler",
    "compress",
    "ghostview",
    "predict",
    "prolog",
    "scheduler",
    "doduc",
];

/// Random loop modules per `synth-cfgs` sample.
pub const SYNTH_MODULES: usize = 1000;
/// Segments per drift scenario.
pub const DRIFT_SEGMENTS: usize = 12;
/// Input symbols per drift segment.
pub const DRIFT_SYMBOLS: usize = 100_000;

/// One program of a pipeline workload.
#[derive(Clone, Debug)]
pub struct Program {
    /// Display name.
    pub name: String,
    /// The program.
    pub module: Module,
    /// Entry-function arguments.
    pub args: Vec<Value>,
    /// Input tape.
    pub input: Vec<Value>,
}

/// One drift scenario of `drift-adapt`.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// Display name.
    pub name: &'static str,
    /// The program.
    pub module: Module,
    /// The segmented input tape (segment 0 plans, the rest may drift).
    pub segments: Vec<Vec<Value>>,
}

/// A workload's generated inputs.
#[derive(Clone, Debug)]
pub enum Inputs {
    /// Programs shipped by `run_pipeline` or `run_pipeline_static`.
    Programs(Vec<Program>),
    /// Scenarios shipped by `run_pipeline_adaptive`.
    Scenarios(Vec<Scenario>),
}

impl Inputs {
    /// Display names, in shipping order.
    pub fn names(&self) -> Vec<String> {
        match self {
            Inputs::Programs(ps) => ps.iter().map(|p| p.name.clone()).collect(),
            Inputs::Scenarios(ss) => ss.iter().map(|s| s.name.to_string()).collect(),
        }
    }

    /// The programs, in shipping order.
    pub fn modules(&self) -> Vec<&Module> {
        match self {
            Inputs::Programs(ps) => ps.iter().map(|p| &p.module).collect(),
            Inputs::Scenarios(ss) => ss.iter().map(|s| &s.module).collect(),
        }
    }
}

/// Builds `kind`'s inputs from `seed`; the same seed gives the same inputs.
pub fn inputs(kind: Kind, seed: u64) -> Inputs {
    match kind {
        Kind::PaperFull | Kind::PaperStatic => Inputs::Programs(paper_programs(seed, Scale::Full)),
        Kind::SynthCfgs => Inputs::Programs(synth_programs(seed, SYNTH_MODULES)),
        Kind::DriftAdapt => Inputs::Scenarios(drift_scenarios(seed, DRIFT_SEGMENTS, DRIFT_SYMBOLS)),
    }
}

/// The paper programs at `scale` with the dataset of `seed`.
pub fn paper_programs(seed: u64, scale: Scale) -> Vec<Program> {
    PAPER_PROGRAMS
        .iter()
        .map(|&name| {
            let w = workload_with_seed(name, scale, seed).expect("paper program names are known");
            Program {
                name: name.to_string(),
                module: w.module,
                args: w.args,
                input: w.input,
            }
        })
        .collect()
}

/// `count` random loop modules: 2–24 diamonds, 200–1400 iterations.
pub fn synth_programs(seed: u64, count: usize) -> Vec<Program> {
    (0..count)
        .map(|i| {
            let module_seed = seed.wrapping_mul(1_000_003).wrapping_add(i as u64);
            Program {
                name: format!("synth-{i}"),
                module: random_loop_module(module_seed, 2 + i % 23, 200 + (i % 9) as i64 * 150),
                args: Vec::new(),
                input: Vec::new(),
            }
        })
        .collect()
}

/// The three drift scenarios, `segments` segments of `symbols` symbols:
///
/// * `kmp-swap`: text bias 1/4 for segments 0–2, then 3/4;
/// * `gate-cycle`: the input gate alternating for two segments, then
///   constant for two, and so on;
/// * `kmp-stable`: a control with bias 1/2 throughout.
pub fn drift_scenarios(seed: u64, segments: usize, symbols: usize) -> Vec<Scenario> {
    let text_seed = |scenario: u64, k: usize| {
        seed.wrapping_mul(1_000_003)
            .wrapping_add(scenario * 1000 + k as u64)
    };
    vec![
        Scenario {
            name: "kmp-swap",
            module: kmp::drift_module(),
            segments: (0..segments)
                .map(|k| {
                    let num = if k < 3 { 1 } else { 3 };
                    kmp::biased_text(symbols, text_seed(1, k), num, 4)
                })
                .collect(),
        },
        Scenario {
            name: "gate-cycle",
            module: input_gate_module(),
            segments: (0..segments)
                .map(|k| {
                    let pattern = if (k / 2) % 2 == 0 {
                        GatePattern::Alternating
                    } else {
                        GatePattern::Constant(1)
                    };
                    gate_tape(symbols, pattern)
                })
                .collect(),
        },
        Scenario {
            name: "kmp-stable",
            module: kmp::drift_module(),
            segments: (0..segments)
                .map(|k| kmp::biased_text(symbols, text_seed(3, k), 1, 2))
                .collect(),
        },
    ]
}

/// What shipping one program produced, reduced to what the replay must
/// reproduce exactly.
#[derive(Clone, Debug, PartialEq)]
pub struct ShipOutcome {
    /// Sites shipped machine-controlled.
    pub enabled: BTreeSet<BranchId>,
    /// Pipelines: the replicated program's measured misprediction.
    /// Adaptive runs: the event-weighted misprediction over all segments.
    pub misprediction_pct: f64,
    /// Realized code-size growth of the shipped program.
    pub size_growth: f64,
    /// `Module::fingerprint` of the shipped program.
    pub fingerprint: (u64, u64),
    /// Adaptive runs: the patch log as (site, kind, final outcome).
    pub patches: Vec<(BranchId, PatchKind, PatchOutcome)>,
    /// Adaptive runs: per-segment (events, misprediction %).
    pub segments: Vec<(u64, f64)>,
}

/// A shipped program and its outcome.
#[derive(Clone, Debug)]
pub struct Shipped {
    /// The program as shipped (after every surviving patch).
    pub program: ReplicatedProgram,
    /// The comparable outcome.
    pub outcome: ShipOutcome,
}

/// Event-weighted misprediction over segments of (events, percent).
pub fn weighted_pct(segments: &[(u64, f64)]) -> f64 {
    let events: u64 = segments.iter().map(|&(e, _)| e).sum();
    if events == 0 {
        return 0.0;
    }
    let misses: f64 = segments.iter().map(|&(e, pct)| e as f64 * pct).sum();
    misses / events as f64
}

/// Ships one program through the workload's real entry point.
///
/// # Errors
///
/// The pipeline's error, rendered.
pub fn ship_program(kind: Kind, p: &Program) -> Result<Shipped, String> {
    let entry = if kind == Kind::PaperStatic {
        run_pipeline_static
    } else {
        run_pipeline
    };
    let r = entry(&p.module, &p.args, &p.input, PipelineConfig::default())
        .map_err(|e| format!("{}: {e}", p.name))?;
    let outcome = ShipOutcome {
        enabled: r.replicated_sites,
        misprediction_pct: r.replicated_misprediction_percent,
        size_growth: r.size_growth,
        fingerprint: r.program.module.fingerprint(),
        patches: Vec::new(),
        segments: Vec::new(),
    };
    Ok(Shipped {
        program: r.program,
        outcome,
    })
}

/// Ships one drift scenario through `run_pipeline_adaptive`.
///
/// # Errors
///
/// The pipeline's error, rendered.
pub fn ship_scenario(s: &Scenario) -> Result<Shipped, String> {
    let r = run_pipeline_adaptive(&s.module, &[], &s.segments, AdaptiveConfig::default())
        .map_err(|e| format!("{}: {e}", s.name))?;
    let segments: Vec<(u64, f64)> = r
        .segments
        .iter()
        .map(|m| (m.events, m.misprediction_percent))
        .collect();
    let outcome = ShipOutcome {
        enabled: r.enabled_sites,
        misprediction_pct: weighted_pct(&segments),
        size_growth: r.program.size_growth(&s.module),
        fingerprint: r.program.module.fingerprint(),
        patches: r
            .patch_log
            .iter()
            .map(|p| (p.site, p.kind, p.outcome))
            .collect(),
        segments,
    };
    Ok(Shipped {
        program: r.program,
        outcome,
    })
}

/// Ships program or scenario `i` of `inputs` through its real entry point.
///
/// # Errors
///
/// The pipeline's error, rendered.
pub fn ship(kind: Kind, inputs: &Inputs, i: usize) -> Result<Shipped, String> {
    match inputs {
        Inputs::Programs(ps) => ship_program(kind, &ps[i]),
        Inputs::Scenarios(ss) => ship_scenario(&ss[i]),
    }
}

/// Ships every program or scenario of `inputs`, serially, in order.
pub fn ship_all(kind: Kind, inputs: &Inputs) -> Vec<Result<Shipped, String>> {
    match inputs {
        Inputs::Programs(ps) => ps.iter().map(|p| ship_program(kind, p)).collect(),
        Inputs::Scenarios(ss) => ss.iter().map(ship_scenario).collect(),
    }
}
