//! Shape-regression tests: the qualitative relationships the paper argues
//! for must hold on the suite, whatever the absolute numbers do. These are
//! the guarantees EXPERIMENTS.md reports.

use brepl::predict::dynamic::{LastDirection, SaturatingCounters, TwoLevel};
use brepl::predict::semistatic::{combine_best, correlation_report, loop_report, profile_report};
use brepl::predict::{simulate_dynamic, HistoryKind, PatternTableSet};
use brepl::trace::Trace;
use brepl::workloads::synth::{random_loop_module, Gen};
use brepl::workloads::{all_workloads, Scale};

fn suite_traces() -> Vec<(&'static str, Trace)> {
    all_workloads(Scale::Small)
        .into_iter()
        .map(|w| {
            let t = w.run().expect("workload runs").trace;
            (w.name, t)
        })
        .collect()
}

#[test]
fn paper_orderings_hold_per_program() {
    for (name, t) in suite_traces() {
        let profile = profile_report(&t).mispredictions();
        let corr1 = correlation_report(&t, 1).mispredictions();
        let loop1 = loop_report(&t, 1).mispredictions();
        let loop9 = loop_report(&t, 9).mispredictions();
        let lc = combine_best(&correlation_report(&t, 1), &loop_report(&t, 9)).mispredictions();

        // Ideal history tables refine profile prediction.
        assert!(
            corr1 <= profile,
            "{name}: corr1 {corr1} > profile {profile}"
        );
        assert!(
            loop1 <= profile,
            "{name}: loop1 {loop1} > profile {profile}"
        );
        assert!(loop9 <= loop1, "{name}: loop9 {loop9} > loop1 {loop1}");
        // The combination dominates both components.
        assert!(lc <= corr1 && lc <= loop9, "{name}: combination not best");
    }
}

#[test]
fn counters_beat_last_direction_on_average() {
    let traces = suite_traces();
    let mut last = 0.0;
    let mut counter = 0.0;
    for (_, t) in &traces {
        last += simulate_dynamic(&mut LastDirection::new(), t).misprediction_percent();
        counter += simulate_dynamic(&mut SaturatingCounters::new(2), t).misprediction_percent();
    }
    assert!(
        counter < last,
        "2-bit counters should beat last-direction: {counter:.2} vs {last:.2}"
    );
}

#[test]
fn history_schemes_reach_dynamic_territory() {
    // The paper's core quantitative claim: semi-static prediction with
    // history "comparable to dynamic branch prediction schemes". Averaged
    // over the suite, loop-correlation must land at or below the two-level
    // predictor's rate plus a small slack, and clearly below profile.
    let traces = suite_traces();
    let mut two_level = 0.0;
    let mut profile = 0.0;
    let mut lc = 0.0;
    for (_, t) in &traces {
        two_level += simulate_dynamic(&mut TwoLevel::paper_4k(), t).misprediction_percent();
        profile += profile_report(t).misprediction_percent();
        lc += combine_best(&correlation_report(t, 1), &loop_report(t, 9)).misprediction_percent();
    }
    let n = traces.len() as f64;
    let (two_level, profile, lc) = (two_level / n, profile / n, lc / n);
    assert!(
        lc <= two_level + 1.0,
        "loop-correlation {lc:.2}% should be comparable to two-level {two_level:.2}%"
    );
    assert!(
        lc < profile * 0.8,
        "loop-correlation {lc:.2}% should clearly beat profile {profile:.2}%"
    );
}

/// Asserts the 9-bit local pattern tables fold into every shorter loop
/// table exactly (`table1` and `table2` read the short ones this way).
fn assert_loop_tables_aggregate(t: &Trace, name: &str) {
    let local9 = PatternTableSet::build(t, HistoryKind::Local, 9);
    for bits in 1..=9u32 {
        assert_eq!(
            local9.aggregated(bits).report(),
            loop_report(t, bits),
            "{name}: {bits}-bit loop report"
        );
    }
}

/// Loop tables aggregate exactly on every small workload's profiling trace.
#[test]
fn loop_tables_aggregate_exactly_on_all_small_workloads() {
    for (name, t) in &suite_traces() {
        assert_loop_tables_aggregate(t, name);
    }
}

/// Loop tables aggregate exactly on random loop programs whose nested
/// diamonds and trip counts the handwritten suite does not cover.
#[test]
fn loop_tables_aggregate_exactly_on_fuzz_modules() {
    let mut g = Gen::new(0x00F0_5EDA_11A1_u64);
    for i in 0..12u64 {
        let seed = g.next();
        let diamonds = (i % 4 + 1) as usize;
        let trip = 30 + (g.below(50) as i64);
        let m = random_loop_module(seed, diamonds, trip);
        let run = brepl::sim::Machine::new(&m, brepl::sim::RunConfig::default())
            .expect("machine constructs")
            .run("main", &[])
            .expect("fuzz module runs clean");
        assert_loop_tables_aggregate(&run.trace, &format!("fuzz seed={seed}"));
    }
}

#[test]
fn replicated_modules_round_trip_textually() {
    use brepl::ir::parse_module;
    use brepl::pipeline::{run_pipeline, PipelineConfig};

    let w = brepl::workloads::workload_by_name("doduc", Scale::Small).unwrap();
    let r = run_pipeline(&w.module, &w.args, &w.input, PipelineConfig::default()).unwrap();
    let text = r.program.module.to_string();
    let parsed = parse_module(&text).expect("replicated program parses back");
    assert_eq!(parsed, r.program.module);
}
