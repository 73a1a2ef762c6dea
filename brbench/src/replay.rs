//! The traced run: each pipeline entry point replayed phase by phase
//! through its public layer calls, one span per call.
//!
//! The replay mirrors the current driver in `brepl::pipeline` call for
//! call on the path every benchmark input takes: default configuration,
//! no gate firing, no size backoff. Where a gate does fire, the replay
//! stops with an error (and counts the diagnostics in
//! `gate.error_diags`) instead of re-implementing quarantine, because
//! that error means the workload no longer measures the path it was
//! chosen for. [`crate::workload::ship_all`] runs the real entry points;
//! the traced run compares both outcome for outcome, so a replay that
//! drifts from the driver fails loudly instead of timing the wrong thing.

use std::collections::{BTreeSet, HashMap};

use brepl::pipeline::{AdaptiveConfig, PipelineConfig};
use brepl_analysis::{
    check_history_cached, classification_diags, classify_module, estimate_profile,
    prediction_proof_diags, static_profile_diags, validate_replication_cached, AnalysisDiag,
    GateCache, LintConfig,
};
use brepl_core::greedy::greedy_curve_from_selection;
use brepl_core::{
    apply_plan, check_equivalence_outcomes, memo, select_strategies_classified,
    synthesize_profile_trace, ReplicatedProgram, Respec, Selection,
};
use brepl_ir::{BranchId, Module, Term, Value};
use brepl_predict::{evaluate_static, StaticPrediction};
use brepl_sim::{Machine, Outcome, RunConfig};
use brepl_trace::Trace;

use crate::spans::Tracer;
use crate::workload::{weighted_pct, Inputs, Kind, Program, Scenario, ShipOutcome, Shipped};

/// Runs `module` once, inside a span named `name`; counts the run and its
/// steps.
fn traced_run(
    t: &mut Tracer,
    name: &'static str,
    module: &Module,
    run: RunConfig,
    args: &[Value],
    input: &[Value],
) -> Result<(Outcome, Vec<Value>), String> {
    let r = t.span(name, || {
        let mut m = Machine::new(module, run)?;
        m.set_input(input.to_vec());
        let outcome = m.run("main", args)?;
        Ok::<_, brepl_sim::RunError>((outcome, m.output().to_vec()))
    });
    let (outcome, output) = r.map_err(|e| format!("program run failed: {e}"))?;
    t.count("sim.runs", 1);
    t.count("sim.steps", outcome.steps);
    Ok((outcome, output))
}

/// Splits gate output like the driver does; any error-severity
/// diagnostic ends the replay.
fn gate(
    t: &mut Tracer,
    lint: &LintConfig,
    gate: &str,
    diags: Vec<AnalysisDiag>,
) -> Result<(), String> {
    let (errors, _warnings) = lint.partition(diags);
    if errors.is_empty() {
        return Ok(());
    }
    t.count("gate.error_diags", errors.len() as u64);
    Err(format!(
        "{gate} gate fired {} error diagnostic(s) ({:?}); the replay covers only the \
         quarantine-free path",
        errors.len(),
        errors[0].code
    ))
}

/// What the planning part of a pipeline run shipped.
struct Planned {
    program: ReplicatedProgram,
    selection: Selection,
    enabled: BTreeSet<BranchId>,
    misprediction_pct: f64,
}

/// The driver's refinement drop rule: keep a machine only while it is
/// strictly better than profile prediction on the re-measured run.
fn refine_should_drop(realized: u64, profile_misses: u64) -> bool {
    (profile_misses > 0 && realized >= profile_misses) || (profile_misses == 0 && realized > 0)
}

/// Replays `run_pipeline_profiled` on an existing profiling outcome.
fn replay_profiled(
    t: &mut Tracer,
    module: &Module,
    args: &[Value],
    input: &[Value],
    profile: &Outcome,
    profile_output: &[Value],
    config: PipelineConfig,
) -> Result<Planned, String> {
    let stats = t.span("trace.stats", || profile.trace.stats());
    let cls = t.span("analysis.classify", || classify_module(module));
    let static_profile = t.span("analysis.estimate", || estimate_profile(module, &cls));

    let (selection, skips) = t.span("core.select", || {
        select_strategies_classified(module, &profile.trace, config.max_states, Some(&cls))
    });
    t.count("core.select_sites", selection.choices().len() as u64);
    t.count("core.select_planner_skips", skips as u64);
    let budget = config
        .max_size_growth
        .ok_or("the replay follows the default size budget")?;
    let mut enabled: BTreeSet<BranchId> = t.span("core.greedy", || {
        greedy_curve_from_selection(module, &selection, profile.trace.len() as u64)
            .sites_within_budget(budget)
            .into_iter()
            .collect()
    });

    let diags = t.span("gate.classify", || {
        classification_diags(module, &cls, &stats)
    });
    gate(t, &config.lint, "classify", diags)?;
    let diags = t.span("gate.estimate", || {
        static_profile_diags(module, &cls, &static_profile, &stats)
    });
    gate(t, &config.lint, "estimate", diags)?;

    let mut cache = GateCache::new();
    let (program, report, measured, measured_output) = loop {
        t.count("pipeline.rounds", 1);
        let (plan, program) = t.span("core.apply_plan", || {
            let plan = selection.to_plan_filtered(|site| enabled.contains(&site));
            let program = apply_plan(module, &plan, &stats);
            (plan, program)
        });
        let program = program.map_err(|e| format!("replication failed: {e}"))?;

        let diags = t.span("gate.validate", || {
            validate_replication_cached(
                module,
                &program.module,
                &program.replica_map,
                &program.predictions,
                &mut cache,
            )
        });
        gate(t, &config.lint, "validation", diags)?;
        let diags = t.span("gate.history", || {
            check_history_cached(
                &program.module,
                &program.provenance,
                &plan.history_spec(),
                &program.predictions,
                &mut cache,
            )
        });
        gate(t, &config.lint, "history", diags)?;

        let (measured, measured_output) =
            traced_run(t, "sim.measure", &program.module, config.run, args, input)?;
        let report = t.span("predict.evaluate", || {
            evaluate_static(&program.predictions, &measured.trace)
        });
        if !config.refine {
            break (program, report, measured, measured_output);
        }
        let mut folded: HashMap<BranchId, u64> = HashMap::new();
        for (site, _, wrong) in report.iter_sites() {
            *folded.entry(program.provenance[site.index()]).or_default() += wrong;
        }
        let mut dropped = false;
        for choice in selection.choices() {
            if !enabled.contains(&choice.site) {
                continue;
            }
            let realized = folded.get(&choice.site).copied().unwrap_or(0);
            if refine_should_drop(realized, choice.profile_misses) {
                enabled.remove(&choice.site);
                dropped = true;
            }
        }
        if !dropped {
            break (program, report, measured, measured_output);
        }
    };
    t.count("gate.cache_hits", cache.hits() as u64);

    // BR016: unpinned replicas keep their original site's profile
    // majority, which must agree with every direction proof.
    let diags = t.span("gate.proof", || {
        let mut folded = StaticPrediction::with_default(true);
        let mut checked: BTreeSet<BranchId> = BTreeSet::new();
        for (fid, func) in program.module.iter_functions() {
            let fmap = &program.replica_map.functions[fid.index()];
            for (bid, block) in func.iter_blocks() {
                let Term::Br { site, .. } = block.term else {
                    continue;
                };
                if fmap.machine_predictions[bid.index()].is_some() {
                    continue;
                }
                let orig = program.provenance[site.index()];
                if stats.site(orig).total() == 0 {
                    continue;
                }
                folded.set(orig, program.predictions.get(site));
                checked.insert(orig);
            }
        }
        let sites: Vec<BranchId> = checked.into_iter().collect();
        prediction_proof_diags(module, &cls, &folded, &sites)
    });
    gate(t, &config.lint, "proof", diags)?;

    if config.dynamic_backstop {
        t.span("core.backstop", || {
            check_equivalence_outcomes(
                &program,
                profile,
                profile_output,
                &measured,
                &measured_output,
            )
        })
        .map_err(|e| format!("equivalence check failed: {e}"))?;
    }
    Ok(Planned {
        misprediction_pct: report.misprediction_percent(),
        program,
        selection,
        enabled,
    })
}

fn pipeline_shipped(module: &Module, planned: Planned) -> Shipped {
    let outcome = ShipOutcome {
        enabled: planned.enabled,
        misprediction_pct: planned.misprediction_pct,
        size_growth: planned.program.size_growth(module),
        fingerprint: planned.program.module.fingerprint(),
        patches: Vec::new(),
        segments: Vec::new(),
    };
    Shipped {
        program: planned.program,
        outcome,
    }
}

/// Replays `run_pipeline` (`kind` other than `PaperStatic`) or
/// `run_pipeline_static` (`PaperStatic`) on one program.
///
/// # Errors
///
/// A failed run, replication or gate, rendered.
pub fn replay_program(t: &mut Tracer, kind: Kind, p: &Program) -> Result<Shipped, String> {
    let config = PipelineConfig::default();
    let planned = if kind == Kind::PaperStatic {
        let cls = t.span("analysis.classify", || classify_module(&p.module));
        let profile = t.span("analysis.estimate", || estimate_profile(&p.module, &cls));
        let trace = t.span("core.synthesize", || synthesize_profile_trace(&profile));
        let synthetic = Outcome {
            result: None,
            trace,
            steps: 0,
        };
        let config = PipelineConfig {
            refine: false,
            dynamic_backstop: false,
            ..config
        };
        replay_profiled(t, &p.module, &p.args, &p.input, &synthetic, &[], config)?
    } else {
        let (profile, output) =
            traced_run(t, "sim.profile", &p.module, config.run, &p.args, &p.input)?;
        replay_profiled(t, &p.module, &p.args, &p.input, &profile, &output, config)?
    };
    Ok(pipeline_shipped(&p.module, planned))
}

/// Replays `run_pipeline_adaptive` on one drift scenario.
///
/// # Errors
///
/// A failed run, replication, gate or equivalence check, rendered.
pub fn replay_scenario(t: &mut Tracer, s: &Scenario) -> Result<Shipped, String> {
    let config = AdaptiveConfig::default();
    let run = config.pipeline.run;
    let module = &s.module;
    let (profile, profile_output) = traced_run(t, "sim.profile", module, run, &[], &s.segments[0])?;
    let plan_stats = t.span("trace.stats", || profile.trace.stats());
    let plan = replay_profiled(
        t,
        module,
        &[],
        &s.segments[0],
        &profile,
        &profile_output,
        config.pipeline,
    )?;
    let proved = t.span("analysis.classify", || {
        classify_module(module).proved_sites()
    });
    let mut respec = t
        .span("respec.plan", || {
            Respec::new(
                module,
                &plan.selection,
                &plan.enabled,
                &plan_stats,
                &proved,
                config.respec,
            )
        })
        .map_err(|e| format!("replication failed: {e}"))?;

    let input: Vec<Value> = s.segments.iter().flatten().cloned().collect();
    let bounds: Vec<usize> = s
        .segments
        .iter()
        .scan(0, |acc, seg| {
            *acc += seg.len();
            Some(*acc)
        })
        .collect();
    let (reference, reference_output) =
        traced_run(t, "respec.reference", module, run, &[], &input)?;

    let mut segments = Vec::with_capacity(s.segments.len());
    for k in 0..s.segments.len() {
        let r = t.span("respec.segment_run", || {
            let mut m = Machine::new(&respec.program().module, run)?;
            m.set_input(input.clone());
            let (outcome, marks) = m.run_segmented("main", &[], &bounds)?;
            Ok::<_, brepl_sim::RunError>((outcome, marks, m.output().to_vec()))
        });
        let (outcome, marks, output) = r.map_err(|e| format!("program run failed: {e}"))?;
        t.count("sim.runs", 1);
        t.count("sim.steps", outcome.steps);
        if config.pipeline.dynamic_backstop {
            t.span("respec.backstop", || {
                check_equivalence_outcomes(
                    respec.program(),
                    &reference,
                    &reference_output,
                    &outcome,
                    &output,
                )
            })
            .map_err(|e| format!("equivalence check failed: {e}"))?;
        }
        let (events, pct) = t.span("respec.observe", || {
            let start = if k == 0 { 0 } else { marks[k - 1] };
            let end = if k + 1 == s.segments.len() {
                outcome.trace.len()
            } else {
                marks[k]
            };
            let mut slice = Trace::with_capacity(end - start);
            let mut misses = 0u64;
            for ev in outcome.trace.iter().skip(start).take(end - start) {
                if respec.program().predictions.get(ev.site) != ev.taken {
                    misses += 1;
                }
                slice.push(ev);
            }
            let events = slice.len() as u64;
            let pct = if events == 0 {
                0.0
            } else {
                100.0 * misses as f64 / events as f64
            };
            respec.observe(k, &slice);
            (events, pct)
        });
        t.count("respec.segment_events", events);
        segments.push((events, pct));
    }

    let diags = t.span("respec.revalidate", || respec.revalidate());
    gate(t, &config.pipeline.lint, "re-validation", diags)?;
    t.count("respec.gate_cache_hits", respec.gate_cache_hits() as u64);
    let enabled = respec.enabled_sites().clone();
    let (program, log, _diags) = respec.into_parts();
    let patches: Vec<_> = log.iter().map(|p| (p.site, p.kind, p.outcome)).collect();
    for &(_, _, outcome) in &patches {
        match outcome {
            brepl_core::PatchOutcome::Verified => t.count("respec.patches_verified", 1),
            brepl_core::PatchOutcome::RolledBack => t.count("respec.patches_rolled_back", 1),
            _ => {}
        }
    }
    let outcome = ShipOutcome {
        enabled,
        misprediction_pct: weighted_pct(&segments),
        size_growth: program.size_growth(module),
        fingerprint: program.module.fingerprint(),
        patches,
        segments,
    };
    Ok(Shipped { program, outcome })
}

/// Replays every program or scenario of `inputs`, serially, in order,
/// recording the shipped instruction count and the memo hit counters.
pub fn replay_all(t: &mut Tracer, kind: Kind, inputs: &Inputs) -> Vec<Result<Shipped, String>> {
    let results: Vec<Result<Shipped, String>> = match inputs {
        Inputs::Programs(ps) => ps
            .iter()
            .enumerate()
            .map(|(i, p)| {
                t.set_program(i);
                replay_program(t, kind, p)
            })
            .collect(),
        Inputs::Scenarios(ss) => ss
            .iter()
            .enumerate()
            .map(|(i, s)| {
                t.set_program(i);
                replay_scenario(t, s)
            })
            .collect(),
    };
    for s in results.iter().flatten() {
        t.count("core.shipped_insts", s.program.module.size_units() as u64);
    }
    t.count("core.memo_search_hits", memo::stats().1);
    t.count("core.memo_selection_hits", memo::selection_stats().1);
    results
}

/// The trace each program's selection plans from: the profiling run
/// (the first segment for drift scenarios), or the synthesized static
/// profile for `paper-static`.
///
/// # Errors
///
/// A failed profiling run, rendered.
pub fn planning_traces(kind: Kind, inputs: &Inputs) -> Result<Vec<Trace>, String> {
    let run = PipelineConfig::default().run;
    let profile = |module: &Module, args: &[Value], input: &[Value]| {
        let mut m = Machine::new(module, run).map_err(|e| e.to_string())?;
        m.set_input(input.to_vec());
        m.run("main", args)
            .map(|o| o.trace)
            .map_err(|e| e.to_string())
    };
    match inputs {
        Inputs::Programs(ps) => ps
            .iter()
            .map(|p| {
                if kind == Kind::PaperStatic {
                    let cls = classify_module(&p.module);
                    Ok(synthesize_profile_trace(&estimate_profile(&p.module, &cls)))
                } else {
                    profile(&p.module, &p.args, &p.input)
                }
            })
            .collect(),
        Inputs::Scenarios(ss) => ss
            .iter()
            .map(|s| profile(&s.module, &[], &s.segments[0]))
            .collect(),
    }
}
