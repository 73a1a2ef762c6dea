//! The differential fuzz oracles, defined once: the `fuzz` bin sweeps
//! them for thousands of release-mode iterations, and the tier-1 test
//! `tests/fuzz_pipeline.rs` runs a bounded slice of each.
//!
//! A case is the module `random_loop_module(seed, diamonds, trip)`
//! (`brepl_workloads::synth`). Every oracle returns `Err` describing the
//! failure, a panic anywhere inside included (`panicked: <message>`), and
//! [`shrink`] reduces a failing case to a minimal `(diamonds, trip)`.

use std::any::Any;
use std::collections::{BTreeMap, HashMap};
use std::panic::{catch_unwind, UnwindSafe};

use brepl::pipeline::{run_pipeline, PipelineConfig};
use brepl_analysis::{
    classification_diags, classify_module, estimate_profile, static_cost, static_profile_diags,
    DiagCode, Severity,
};
use brepl_cfg::{Cfg, ClassifiedBranches, DomTree, LoopForest, PredecessorPaths};
use brepl_core::correlated::profile_paths;
use brepl_core::{ProfileFold, ReplicatedProgram};
use brepl_ir::{BranchId, Module, Value};
use brepl_predict::StaticPrediction;
use brepl_sim::{Machine, Outcome, RunConfig};
use brepl_trace::{packed_site_streams, EventSink, SegmentFold, TraceStats};
use brepl_workloads::synth::random_loop_module;

/// Pipeline oracle: the full pipeline under `config`, with every gate and
/// the dynamic backstop armed, so success implies execution equivalence
/// between the original and the shipped program. Quarantine may fire in
/// default mode; a strict run that returns quarantined sites fails. Both
/// programs then pass [`sink_differential`] and [`profile_differential`],
/// and the shipped one [`replay_differential`].
pub fn pipeline_case(
    seed: u64,
    diamonds: usize,
    trip: i64,
    config: PipelineConfig,
) -> Result<(), String> {
    caught(move || {
        let m = random_loop_module(seed, diamonds, trip);
        let result =
            run_pipeline(&m, &[], &[], config).map_err(|e| format!("pipeline error: {e}"))?;
        if config.strict && !result.quarantined.is_empty() {
            return Err("strict run returned quarantined sites".to_string());
        }
        sink_differential(&m, &[], &[]).map_err(|e| format!("original: {e}"))?;
        sink_differential(&result.program.module, &[], &[]).map_err(|e| format!("shipped: {e}"))?;
        profile_differential(&m, &[], &[], config.max_states)
            .map_err(|e| format!("original: {e}"))?;
        profile_differential(&result.program.module, &[], &[], config.max_states)
            .map_err(|e| format!("shipped: {e}"))?;
        replay_differential(&m, &[], &[], &result.program)
    })
}

/// Exact-replay oracle: [`static_cost`], folding the original module's
/// trace through the shipped program, must charge every original site
/// exactly the executions and misses that the shipped program's own run
/// counts at its replicas against their pinned predictions, folded back
/// through provenance.
///
/// # Errors
///
/// A failed replay or the first site whose counts differ, described; a
/// trap in either run.
pub fn replay_differential(
    original: &Module,
    args: &[Value],
    input: &[Value],
    program: &ReplicatedProgram,
) -> Result<(), String> {
    let trace = machine(original, input)?
        .run("main", args)
        .map_err(|e| format!("original run: {e}"))?
        .trace;
    let report = static_cost(
        &program.module,
        &program.provenance,
        &program.predictions,
        &trace,
        "main",
    )
    .map_err(|e| format!("cost replay: {e}"))?;
    let shipped = machine(&program.module, input)?
        .run_with("main", args, &[], TraceStats::default())
        .map_err(|e| format!("shipped run: {e}"))?
        .sink;
    let mut counted: BTreeMap<BranchId, (u64, u64)> = BTreeMap::new();
    for (site, c) in shipped.iter_executed() {
        let origin = program
            .provenance
            .get(site.index())
            .copied()
            .unwrap_or(site);
        let misses = if program.predictions.get(site) {
            c.not_taken
        } else {
            c.taken
        };
        let entry = counted.entry(origin).or_default();
        entry.0 += c.total();
        entry.1 += misses;
    }
    let replayed: BTreeMap<BranchId, (u64, u64)> = report
        .sites
        .iter()
        .map(|s| (s.site, (s.executions, s.bound)))
        .collect();
    if counted == replayed {
        return Ok(());
    }
    let site = counted
        .keys()
        .chain(replayed.keys())
        .find(|s| counted.get(s) != replayed.get(s))
        .expect("the maps differ at some site");
    Err(format!(
        "site {site}: replay charges (executions, misses) {:?}, the shipped run counts {:?}",
        replayed.get(site),
        counted.get(site)
    ))
}

/// Event-sink oracle: a run that counts its branches per site
/// (`Machine::run_with` into a `TraceStats`) must be the run that records
/// them — the same result, steps and output tape, and counts equal to
/// `trace.stats()` of the recorded trace — unsegmented and segmented
/// alike, with the segmented run's marks equal between the two sinks and
/// its outcome equal to the plain `run()`. The segmented run then passes
/// [`fold_differential`] under a provenance that groups the sites as
/// replicas in threes and twos.
///
/// # Errors
///
/// The first difference, described; a trap in any run.
pub fn sink_differential(module: &Module, args: &[Value], input: &[Value]) -> Result<(), String> {
    let mut m = machine(module, input)?;
    let recorded = m.run("main", args).map_err(|e| format!("run: {e}"))?;
    let recorded_output = m.output().to_vec();
    let want = recorded.trace.stats();
    // Bounds at the tape's start, middle and past its end: the last is
    // never reached and must be padded with the final event count.
    let bounds = [0, input.len() / 2, input.len() + 1];
    for bounds in [&[][..], &bounds[..]] {
        let mut m = machine(module, input)?;
        let counted = m
            .run_with("main", args, bounds, TraceStats::default())
            .map_err(|e| format!("counting run: {e}"))?;
        if counted.result != recorded.result || counted.steps != recorded.steps {
            return Err(format!(
                "counting run returned {:?} in {} steps, recording run {:?} in {}",
                counted.result, counted.steps, recorded.result, recorded.steps
            ));
        }
        if m.output() != recorded_output {
            return Err("counting run wrote a different output tape".to_string());
        }
        if counted.sink != want {
            return Err("per-site counts differ from trace.stats()".to_string());
        }
        let mut m = machine(module, input)?;
        let (segmented, marks) = m
            .run_segmented("main", args, bounds)
            .map_err(|e| format!("segmented run: {e}"))?;
        if segmented != recorded {
            return Err("segmented run differs from run()".to_string());
        }
        if marks != counted.marks {
            return Err(format!(
                "segment marks differ: recording {marks:?}, counting {:?}",
                counted.marks
            ));
        }
        if marks.len() != bounds.len()
            || marks.windows(2).any(|w| w[0] > w[1])
            || marks.last().is_some_and(|&end| end > recorded.trace.len())
        {
            return Err(format!("malformed marks {marks:?} for bounds {bounds:?}"));
        }
        if bounds.is_empty() {
            continue;
        }
        // Replicas in groups of three and two: two- and one-bit ordinals.
        let sites = module.branch_count();
        let provenance: Vec<BranchId> = (0..sites)
            .map(|s| BranchId::from_index(s * 2 / 5))
            .collect();
        let mut odd_taken = StaticPrediction::with_default(false);
        for s in (1..sites).step_by(2) {
            odd_taken.set(BranchId::from_index(s), true);
        }
        let recording = (&segmented, &marks[..], recorded_output.as_slice());
        check_fold(
            module,
            &provenance,
            &odd_taken,
            args,
            input,
            bounds,
            recording,
        )?;
    }
    Ok(())
}

/// Segment-fold oracle: a run into a [`SegmentFold`] under `provenance`
/// must be the run that records its trace, sliced at its marks the way
/// the adaptive driver reads segments (segment `k` is
/// `marks[k-1]..marks[k]`, and the last one runs to the end of the trace,
/// drain events included). Per segment and original site: the same
/// outcomes in the same order, the same replica for every event, and the
/// same misses against `predictions`; per segment, the same per-replica
/// counts. The whole run: the same result, steps, output tape and marks,
/// and counts equal to `trace.stats()`.
///
/// # Errors
///
/// The first difference, described; a trap in either run.
pub fn fold_differential(
    module: &Module,
    provenance: &[BranchId],
    predictions: &StaticPrediction,
    args: &[Value],
    input: &[Value],
    bounds: &[usize],
) -> Result<(), String> {
    let mut m = machine(module, input)?;
    let (recorded, marks) = m
        .run_segmented("main", args, bounds)
        .map_err(|e| format!("recording run: {e}"))?;
    let recording = (&recorded, &marks[..], m.output());
    check_fold(
        module,
        provenance,
        predictions,
        args,
        input,
        bounds,
        recording,
    )
}

/// Profile-fold oracle: a profiling run folded as it runs
/// ([`ProfileFold`], for machines of at most `max_states` states) must be
/// observationally the recording run — same result, steps and output
/// tape — and what it folded must equal what selection would compute
/// from the recorded trace: `trace.stats()` (table length included),
/// `packed_site_streams`, and `profile_paths` over every branch's
/// predecessor paths, enumerated here from a fresh analysis of each
/// function.
///
/// # Errors
///
/// The first difference, described; a trap in either run.
pub fn profile_differential(
    module: &Module,
    args: &[Value],
    input: &[Value],
    max_states: usize,
) -> Result<(), String> {
    let mut m = machine(module, input)?;
    let recorded = m
        .run("main", args)
        .map_err(|e| format!("recording run: {e}"))?;
    let recorded_output = m.output().to_vec();
    let mut m = machine(module, input)?;
    let folded = m
        .run_with("main", args, &[], ProfileFold::new(module, max_states))
        .map_err(|e| format!("folding run: {e}"))?;
    if folded.result != recorded.result || folded.steps != recorded.steps {
        return Err(format!(
            "folding run returned {:?} in {} steps, recording run {:?} in {}",
            folded.result, folded.steps, recorded.result, recorded.steps
        ));
    }
    if m.output() != recorded_output {
        return Err("folding run wrote a different output tape".to_string());
    }
    let (fold, trace) = (&folded.sink, &recorded.trace);
    let stats = trace.stats();
    if *fold.counts() != stats || fold.events() != trace.len() {
        return Err("per-site counts differ from trace.stats()".to_string());
    }
    let streams = packed_site_streams(trace, &stats);
    if let Some(site) = (0..streams.len().max(fold.streams().len()))
        .find(|&i| fold.streams().get(i) != streams.get(i))
    {
        return Err(format!(
            "s{site}: outcome stream differs from packed_site_streams ({} sites folded, {} recorded)",
            fold.streams().len(),
            streams.len()
        ));
    }
    let mut candidates = HashMap::new();
    for (_, func) in module.iter_functions() {
        let cfg = Cfg::new(func);
        let forest = LoopForest::new(&cfg, &DomTree::new(&cfg));
        for info in ClassifiedBranches::analyze(func, &forest).branches() {
            let paths = PredecessorPaths::enumerate(func, &cfg, info.block, max_states - 1);
            candidates.insert(info.site, paths.paths);
        }
    }
    let mut want: Vec<_> = profile_paths(trace, &candidates).into_iter().collect();
    want.sort_by_key(|(site, _)| *site);
    for (site, profile) in &want {
        let Some(got) = fold.path_profile(*site) else {
            return Err(format!("s{}: the fold has no path profile", site.0));
        };
        if got != profile {
            return Err(format!(
                "s{}: path profile differs from profile_paths (total {} vs {})",
                site.0,
                got.total(),
                profile.total()
            ));
        }
    }
    Ok(())
}

/// A segmented recording run: its outcome, marks and output tape.
type Recording<'a> = (&'a Outcome, &'a [usize], &'a [Value]);

/// [`fold_differential`] against an already recorded run.
fn check_fold(
    module: &Module,
    provenance: &[BranchId],
    predictions: &StaticPrediction,
    args: &[Value],
    input: &[Value],
    bounds: &[usize],
    (recorded, marks, recorded_output): Recording<'_>,
) -> Result<(), String> {
    let mut m = machine(module, input)?;
    let folded = m
        .run_with(
            "main",
            args,
            bounds,
            SegmentFold::new(provenance, bounds.len()),
        )
        .map_err(|e| format!("folding run: {e}"))?;
    if folded.result != recorded.result || folded.steps != recorded.steps {
        return Err(format!(
            "folding run returned {:?} in {} steps, recording run {:?} in {}",
            folded.result, folded.steps, recorded.result, recorded.steps
        ));
    }
    if m.output() != recorded_output {
        return Err("folding run wrote a different output tape".to_string());
    }
    if folded.marks != marks {
        return Err(format!(
            "segment marks differ: recording {marks:?}, folding {:?}",
            folded.marks
        ));
    }
    if *folded.sink.counts() != recorded.trace.stats() {
        return Err("whole-run counts differ from trace.stats()".to_string());
    }
    let pins: Vec<bool> = (0..provenance.len())
        .map(|s| predictions.get(BranchId::from_index(s)))
        .collect();
    let segments = bounds.len().max(1);
    for k in 0..segments {
        let start = if k == 0 { 0 } else { marks[k - 1] };
        let end = if k + 1 == segments {
            recorded.trace.len()
        } else {
            marks[k]
        };
        let seg = folded.sink.segment(k);
        let mut want: Vec<Vec<(BranchId, bool)>> = vec![Vec::new(); seg.sites.len()];
        let mut counts = TraceStats::default();
        for ev in recorded.trace.iter().skip(start).take(end - start) {
            want[provenance[ev.site.index()].index()].push((ev.site, ev.taken));
            counts.record(ev.site, ev.taken);
        }
        if seg.events() != (end - start) as u64 || seg.stats() != counts {
            return Err(format!(
                "segment {k}: the fold holds {} events, the slice {}, or their per-replica counts differ",
                seg.events(),
                end - start
            ));
        }
        for (orig, (stream, want)) in seg.sites.iter().zip(&want).enumerate() {
            let same_order = stream.taken.len() == want.len()
                && want.iter().enumerate().all(|(i, &(site, taken))| {
                    seg.replica(orig, i) == site && stream.taken.get(i) == taken
                });
            if !same_order {
                return Err(format!(
                    "segment {k}, original site {orig}: the fold's (replica, outcome) \
                     order differs from the sliced trace's"
                ));
            }
            let want_misses = want
                .iter()
                .filter(|&&(site, taken)| pins[site.index()] != taken)
                .count() as u64;
            let got_misses = seg.misses(orig, |r| predictions.get(r)).count_taken();
            if got_misses != want_misses {
                return Err(format!(
                    "segment {k}, original site {orig}: {got_misses} misses folded, \
                     {want_misses} in the slice"
                ));
            }
        }
    }
    Ok(())
}

/// Classification-soundness oracle: a direction verdict contradicted by
/// the simulated trace is an analysis bug. Every proved-monostatic
/// verdict must match the honest trace event by event, nothing proved
/// unreachable may execute, and the classification gate (exact
/// `BoundedBias` rationals included) must pass with zero error-severity
/// diagnostics.
pub fn classify_case(seed: u64, diamonds: usize, trip: i64) -> Result<(), String> {
    caught(move || {
        let m = random_loop_module(seed, diamonds, trip);
        let cls = classify_module(&m);
        let run = honest_run(&m)?;
        for ev in run.trace.iter() {
            if let Some(sc) = cls.by_site(ev.site) {
                if !sc.reachable {
                    return Err(format!("site {} proved unreachable but executed", ev.site));
                }
                if let Some(dir) = sc.class.proved_direction() {
                    if ev.taken != dir {
                        return Err(format!(
                            "site {} proved {} but the trace went the other way",
                            ev.site,
                            if dir { "always-taken" } else { "never-taken" },
                        ));
                    }
                }
            }
        }
        let diags = classification_diags(&m, &cls, &run.trace.stats());
        let errors: Vec<String> = diags
            .iter()
            .filter(|d| d.severity() == Severity::Error)
            .map(|d| d.render(&m))
            .collect();
        if !errors.is_empty() {
            return Err(format!(
                "honest trace fails the gate: {}",
                errors.join("; ")
            ));
        }
        Ok(())
    })
}

/// Estimator-totality oracle: the static profile estimator must be a
/// total function of the module — never panic, never emit a NaN,
/// infinite or negative site frequency, block frequency or edge
/// probability, keep every bias probability in `[0, 1]`, and satisfy its
/// own flow-conservation invariant — and its drift gate must stay silent
/// on honest data: the estimate judged against the module's simulated
/// trace fires no `BR019`/`BR020`/`BR021`. `BR022` fail-closed reports
/// are the contract on pathological flow, so the oracle tolerates them.
pub fn estimate_case(seed: u64, diamonds: usize, trip: i64) -> Result<(), String> {
    caught(move || {
        let m = random_loop_module(seed, diamonds, trip);
        let cls = classify_module(&m);
        let profile = estimate_profile(&m, &cls);
        for s in &profile.sites {
            if !s.freq.is_finite() || s.freq < 0.0 {
                return Err(format!("site {} has bogus frequency {}", s.site, s.freq));
            }
            let p = s.bias.prob();
            if !(0.0..=1.0).contains(&p) {
                return Err(format!(
                    "site {} bias probability {p} outside [0,1]",
                    s.site
                ));
            }
        }
        for (f, fp) in profile.funcs.iter().enumerate() {
            for freqs in [&fp.bfreq, &fp.prob] {
                if let Some(bad) = freqs.iter().find(|v| !v.is_finite() || **v < 0.0) {
                    return Err(format!("function {f} carries bogus value {bad}"));
                }
            }
        }
        if let Some((f, b, err)) = profile.check_conservation(&m).first() {
            return Err(format!("conservation violated at {f}/{b} by {err}"));
        }
        let run = honest_run(&m)?;
        let diags = static_profile_diags(&m, &cls, &profile, &run.trace.stats());
        let false_alarms: Vec<String> = diags
            .iter()
            .filter(|d| {
                matches!(
                    d.code,
                    DiagCode::EstimateDriftConflict
                        | DiagCode::EstimateUnreachableMass
                        | DiagCode::EstimateConservationViolation
                )
            })
            .map(|d| d.render(&m))
            .collect();
        if !false_alarms.is_empty() {
            return Err(format!(
                "honest trace fires the drift gate: {}",
                false_alarms.join("; ")
            ));
        }
        Ok(())
    })
}

/// Greedily shrinks a case that fails `case` while the failure persists:
/// `diamonds` first (structure), then halving `trip` (work). Returns the
/// minimal `(diamonds, trip)`.
pub fn shrink(
    diamonds: usize,
    trip: i64,
    case: impl Fn(usize, i64) -> Result<(), String>,
) -> (usize, i64) {
    let (mut d, mut t) = (diamonds, trip);
    loop {
        if d > 0 && case(d - 1, t).is_err() {
            d -= 1;
        } else if t > 1 && case(d, t / 2).is_err() {
            t /= 2;
        } else {
            return (d, t);
        }
    }
}

/// The message of a caught panic payload.
fn panic_text(payload: &(dyn Any + Send)) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
        .unwrap_or_else(|| "<non-string payload>".to_string())
}

/// Runs one oracle body, reporting a panic as a failure.
fn caught(body: impl FnOnce() -> Result<(), String> + UnwindSafe) -> Result<(), String> {
    catch_unwind(body).unwrap_or_else(|payload| Err(format!("panicked: {}", panic_text(&*payload))))
}

/// A fresh interpreter for `module` with `input` on its tape.
fn machine<'m>(module: &'m Module, input: &[Value]) -> Result<Machine<'m>, String> {
    let mut m = Machine::new(module, RunConfig::default()).map_err(|e| e.to_string())?;
    m.set_input(input.to_vec());
    Ok(m)
}

/// The module's own run on empty arguments and input: the honest trace
/// the analyses are judged against.
fn honest_run(m: &Module) -> Result<Outcome, String> {
    Machine::new(m, RunConfig::default())
        .map_err(|e| format!("machine init: {e}"))?
        .run("main", &[])
        .map_err(|e| format!("run: {e}"))
}
