//! Sink differential: the pipeline's re-measure, static-measure and
//! drift-reference runs count branches per site instead of recording a
//! trace, so a counting run must be observationally the recording run —
//! same result, steps and output tape, counts equal to `trace.stats()`,
//! and unchanged segment marks. The oracle is
//! `brepl_bench::fuzz::sink_differential`, shared with the fuzz pipeline
//! case; here it covers every small paper program, original and shipped,
//! and a sweep of random loop CFGs.
//!
//! The adaptive driver's segment runs fold their events per segment and
//! original site as they run (`SegmentFold`), so a folding run must be
//! the recording run sliced at its marks: `fuzz::fold_differential`, on
//! every drift scenario and on shipped random loop CFGs. They read the
//! caller's segments in place, so such a run must be the run over the
//! concatenated tape split at the segments' ends:
//! `fuzz::segments_differential`.
//!
//! The profiling run folds its counts, outcome streams and path profiles
//! as it runs (`ProfileFold`), so it must equal what selection computes
//! from the recorded trace (`fuzz::profile_differential`), and selection
//! from the fold must equal selection from the trace.

mod common;

use brepl::core::{select_strategies_classified, select_strategies_folded, ProfileFold};
use brepl::pipeline::{run_pipeline, PipelineConfig};
use brepl::sim::{Machine, RunConfig};
use brepl::workloads::synth::random_loop_module;
use brepl::workloads::{all_workloads, workload_by_name, Scale};
use brepl_analysis::classify_module;
use brepl_bench::fuzz::{
    fold_differential, profile_differential, segments_differential, sink_differential,
};
use brepl_ir::{BranchId, Module, Value};
use brepl_predict::StaticPrediction;
use brepl_trace::{EventSink, TraceStats};

#[test]
fn counting_runs_equal_recording_runs_on_every_workload() {
    for w in all_workloads(Scale::Small) {
        sink_differential(&w.module, &w.args, &w.input)
            .unwrap_or_else(|e| panic!("{} original: {e}", w.name));
        let shipped = run_pipeline(&w.module, &w.args, &w.input, PipelineConfig::default())
            .unwrap_or_else(|e| panic!("{}: pipeline failed: {e}", w.name))
            .program;
        sink_differential(&shipped.module, &w.args, &w.input)
            .unwrap_or_else(|e| panic!("{} shipped: {e}", w.name));
    }
}

#[test]
fn counting_runs_equal_recording_runs_on_random_cfgs() {
    for seed in 0..40u64 {
        let m = random_loop_module(seed, (seed % 6) as usize, 15 + (seed % 5) as i64 * 20);
        sink_differential(&m, &[], &[]).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
    }
}

/// Every drift scenario's shipped program, and the original under the
/// identity provenance, over the full tape and over one cut halfway into
/// the last segment: that segment ends with the tape, the program drains
/// after it, and the last bound's mark is padded.
#[test]
fn segment_fold_equals_sliced_trace_on_every_drift_scenario() {
    for (name, module, segments) in common::drift_scenarios() {
        let shipped = run_pipeline(&module, &[], &segments[0], PipelineConfig::default())
            .unwrap_or_else(|e| panic!("{name}: pipeline failed: {e}"))
            .program;
        let identity: Vec<BranchId> = (0..module.branch_count())
            .map(BranchId::from_index)
            .collect();
        let input = segments.concat();
        let bounds: Vec<usize> = segments
            .iter()
            .scan(0, |acc, seg| {
                *acc += seg.len();
                Some(*acc)
            })
            .collect();
        let last = segments.last().map_or(0, Vec::len);
        let cut = &input[..input.len() - last / 2];
        for tape in [&input[..], cut] {
            fold_differential(
                &shipped.module,
                &shipped.provenance,
                &shipped.predictions,
                &[],
                tape,
                &bounds,
            )
            .unwrap_or_else(|e| panic!("{name} shipped, {} symbols: {e}", tape.len()));
            fold_differential(
                &module,
                &identity,
                &StaticPrediction::with_default(true),
                &[],
                tape,
                &bounds,
            )
            .unwrap_or_else(|e| panic!("{name} original, {} symbols: {e}", tape.len()));
        }
    }
}

/// The adaptive driver reads the caller's segments in place: a run over
/// them must be `run_segmented` over their concatenation (result, steps,
/// output, marks and fold), and a last bound moved past the tape must
/// only pad the last mark (`fuzz::segments_differential`). On every drift
/// scenario and brbench's three scenario shapes at small size, shipped,
/// for each bounds form. Both drift programs drain the tape until they
/// read the `-1` sentinel, so the last segment's end is marked at that
/// read, not padded.
#[test]
fn segments_read_in_place_equal_the_split_tape_on_every_drift_scenario() {
    let scenarios = common::drift_scenarios()
        .into_iter()
        .chain(common::bench_drift_scenarios(12, 400));
    for (name, module, segments) in scenarios {
        let shipped = run_pipeline(&module, &[], &segments[0], PipelineConfig::default())
            .unwrap_or_else(|e| panic!("{name}: pipeline failed: {e}"))
            .program;
        // The last segment's end is marked at the sentinel read, before
        // the program's last branch: not padded.
        let mut m = Machine::new(&shipped.module, RunConfig::default()).expect("machine");
        m.borrow_segments(&segments);
        let run = m.run_with("main", &[], &[], TraceStats::default());
        let run = run.unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(
            run.marks.last() < Some(&run.sink.events()),
            "{name}: the last segment's end is padded, {:?}",
            run.marks
        );
        let mut empty_first = segments.clone();
        empty_first.insert(0, Vec::new());
        let mut empty_middle = segments.clone();
        empty_middle.insert(segments.len() / 2, Vec::new());
        for (form, segments) in [
            ("the scenario's segments, read to the sentinel", segments),
            ("an empty first segment", empty_first),
            ("an empty middle segment", empty_middle),
        ] {
            segments_differential(
                &shipped.module,
                &shipped.provenance,
                &shipped.predictions,
                &[],
                &segments,
            )
            .unwrap_or_else(|e| panic!("{name}, {form}: {e}"));
        }
    }
}

/// Shipped random loop CFGs read no input, so every mark is padded and
/// all events fold into the first of three segments.
#[test]
fn segment_fold_equals_sliced_trace_on_shipped_random_cfgs() {
    for seed in 0..20u64 {
        let m = random_loop_module(seed, 2 + (seed % 5) as usize, 40 + (seed % 4) as i64 * 30);
        let shipped = run_pipeline(&m, &[], &[], PipelineConfig::default())
            .unwrap_or_else(|e| panic!("seed {seed}: pipeline failed: {e}"))
            .program;
        fold_differential(
            &shipped.module,
            &shipped.provenance,
            &shipped.predictions,
            &[],
            &[],
            &[0, 0, 1],
        )
        .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
    }
}

/// The selection budget the pipeline plans with by default.
const MAX_STATES: usize = 4;

/// Selection from a folding run of `module` equals selection from the
/// recorded trace of the same run, fast path included.
fn assert_folded_selection_equals_recorded(
    module: &Module,
    args: &[Value],
    input: &[Value],
    what: &str,
) {
    let machine = || {
        let mut m = Machine::new(module, RunConfig::default()).expect("machine");
        m.set_input(input.to_vec());
        m
    };
    let trace = machine().run("main", args).expect("recording run").trace;
    let fold = machine()
        .run_with("main", args, &[], ProfileFold::new(module, MAX_STATES))
        .expect("folding run")
        .sink;
    let cls = classify_module(module);
    assert_eq!(
        select_strategies_folded(&fold, Some(&cls)),
        select_strategies_classified(module, &trace, MAX_STATES, Some(&cls)),
        "{what}: selection from the fold differs from selection from the trace"
    );
}

#[test]
fn profile_fold_equals_recording_run_on_every_workload() {
    let mut workloads = all_workloads(Scale::Small);
    workloads.push(workload_by_name("kmp", Scale::Small).expect("kmp exists"));
    for w in workloads {
        profile_differential(&w.module, &w.args, &w.input, MAX_STATES)
            .unwrap_or_else(|e| panic!("{} original: {e}", w.name));
        let shipped = run_pipeline(&w.module, &w.args, &w.input, PipelineConfig::default())
            .unwrap_or_else(|e| panic!("{}: pipeline failed: {e}", w.name))
            .program;
        profile_differential(&shipped.module, &w.args, &w.input, MAX_STATES)
            .unwrap_or_else(|e| panic!("{} shipped: {e}", w.name));
        assert_folded_selection_equals_recorded(&w.module, &w.args, &w.input, w.name);
    }
}

#[test]
fn profile_fold_equals_recording_run_on_random_cfgs() {
    for seed in 0..40u64 {
        let m = random_loop_module(seed, (seed % 6) as usize, 15 + (seed % 5) as i64 * 20);
        profile_differential(&m, &[], &[], MAX_STATES)
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        assert_folded_selection_equals_recorded(&m, &[], &[], &format!("seed {seed}"));
    }
}
