//! Sink differential: the pipeline's re-measure, static-measure and
//! drift-reference runs count branches per site instead of recording a
//! trace, so a counting run must be observationally the recording run —
//! same result, steps and output tape, counts equal to `trace.stats()`,
//! and unchanged segment marks. The oracle is
//! `brepl_bench::fuzz::sink_differential`, shared with the fuzz pipeline
//! case; here it covers every small paper program, original and shipped,
//! and a sweep of random loop CFGs.

use brepl::pipeline::{run_pipeline, PipelineConfig};
use brepl::workloads::synth::random_loop_module;
use brepl::workloads::{all_workloads, Scale};
use brepl_bench::fuzz::sink_differential;

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
