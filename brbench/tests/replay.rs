//! The traced replay must reproduce the real entry points outcome for
//! outcome; small inputs keep this fast in debug builds.

use brepl_benchmark::replay::{replay_program, replay_scenario};
use brepl_benchmark::spans::Tracer;
use brepl_benchmark::workload::{
    drift_scenarios, paper_programs, ship_program, ship_scenario, synth_programs, Kind, Program,
};
use brepl_workloads::Scale;

fn assert_replay_matches(kind: Kind, programs: &[Program]) {
    for p in programs {
        let mut t = Tracer::new();
        let replayed = replay_program(&mut t, kind, p)
            .unwrap_or_else(|e| panic!("{}: replay failed: {e}", p.name));
        let real =
            ship_program(kind, p).unwrap_or_else(|e| panic!("{}: pipeline failed: {e}", p.name));
        assert_eq!(replayed.outcome, real.outcome, "{}", p.name);
        assert_eq!(t.counter("gate.error_diags"), 0, "{}", p.name);
        assert!(t.seconds(&["core.apply_plan"]) > 0.0, "{}", p.name);
    }
}

fn small_paper_programs() -> Vec<Program> {
    paper_programs(0, Scale::Small)
        .into_iter()
        .filter(|p| p.name == "c-compiler" || p.name == "doduc")
        .collect()
}

#[test]
fn paper_programs_replay_like_run_pipeline() {
    assert_replay_matches(Kind::PaperFull, &small_paper_programs());
}

#[test]
fn paper_programs_replay_like_run_pipeline_static() {
    assert_replay_matches(Kind::PaperStatic, &small_paper_programs());
}

#[test]
fn synth_modules_replay_like_run_pipeline() {
    assert_replay_matches(Kind::SynthCfgs, &synth_programs(0, 50));
}

#[test]
fn drift_scenarios_replay_like_run_pipeline_adaptive() {
    for s in drift_scenarios(0, 3, 2_000) {
        let mut t = Tracer::new();
        let replayed = replay_scenario(&mut t, &s)
            .unwrap_or_else(|e| panic!("{}: replay failed: {e}", s.name));
        let real = ship_scenario(&s).unwrap_or_else(|e| panic!("{}: pipeline failed: {e}", s.name));
        assert_eq!(replayed.outcome, real.outcome, "{}", s.name);
        assert_eq!(replayed.outcome.segments.len(), 3, "{}", s.name);
        assert_eq!(t.counter("gate.error_diags"), 0, "{}", s.name);
        assert!(t.counter("respec.segment_events") > 0, "{}", s.name);
    }
}
