//! End-to-end tests for the runtime re-specialization layer
//! ([`brepl::pipeline::run_pipeline_adaptive`]): drift recovery within
//! 10% of a from-scratch re-plan, demotion and re-inflation of machine
//! sites, proof-gated rollback, flapping-site quarantine (`BR024`), and
//! the driver's run reuse against one fresh run per segment.

mod common;

use brepl::core::{PatchKind, PatchOutcome, PatchRecord, Respec, RespecConfig};
use brepl::ir::{BranchId, Module, Value};
use brepl::pipeline::{run_pipeline, run_pipeline_adaptive, AdaptiveConfig, PipelineConfig};
use brepl::sim::Machine;
use brepl::trace::Trace;
use brepl::workloads::kmp;
use brepl::workloads::synth::{gate_tape, input_gate_module, GatePattern};
use brepl_analysis::{classify_module, DiagCode};

const N: usize = 2000;

/// The interpreter runs the observe loop owes a patch log: the first
/// segment's, plus one after each transaction that changed the module
/// (a `Demote` or `Reinflate` commit) and one after each such rollback,
/// which restores an older module. `SwapPin` touches only predictions,
/// so the run before it still stands.
fn expected_segment_runs(log: &[PatchRecord]) -> usize {
    let module_changing = || {
        log.iter()
            .filter(|rec| !matches!(rec.kind, PatchKind::SwapPin { .. }))
    };
    let commits: std::collections::BTreeSet<usize> =
        module_changing().map(|rec| rec.segment).collect();
    let rollbacks: std::collections::BTreeSet<usize> = module_changing()
        .filter(|rec| rec.outcome == PatchOutcome::RolledBack)
        .map(|rec| rec.segment)
        .collect();
    1 + commits.len() + rollbacks.len()
}

/// kmp over text whose bias flips from P('a')=¼ to ¾ after planning.
/// The closed forms say: before drift ≈ ⅔·¼ = 16.7% misprediction,
/// after drift unpatched ≈ 50% (three pins stale), after the swap
/// patches ≈ 16.7% again.
fn kmp_swap_segments() -> Vec<Vec<brepl::ir::Value>> {
    vec![
        kmp::biased_text(N, 7, 1, 4),
        kmp::biased_text(N, 8, 3, 4),
        kmp::biased_text(N, 9, 3, 4),
    ]
}

#[test]
fn kmp_swap_drift_recovers_within_ten_percent_of_replan() {
    let module = kmp::drift_module();
    let segments = kmp_swap_segments();
    let r = run_pipeline_adaptive(&module, &[], &segments, AdaptiveConfig::default()).unwrap();

    // The drift segment ran on stale pins: misprediction roughly
    // triples (16.7% → ~50%) before the patch lands.
    let before = r.segments[0].misprediction_percent;
    let drifted = r.segments[1].misprediction_percent;
    let patched = r.segments[2].misprediction_percent;
    assert!(before < 20.0, "pre-drift {before:.2}%");
    assert!(drifted > 2.0 * before, "unpatched drift {drifted:.2}%");
    assert!(patched < 20.0, "patched {patched:.2}%");
    // Swaps change only predictions: one run serves every segment, and
    // the patched segment's misprediction still falls.
    assert_eq!(r.segment_runs, 1);

    // Swap patches committed at the drift segment and verified on the
    // next; nothing rolled back, nothing quarantined.
    assert!(!r.patch_log.is_empty());
    for rec in &r.patch_log {
        assert!(matches!(rec.kind, PatchKind::SwapPin { .. }), "{rec:?}");
        assert_eq!(rec.outcome, PatchOutcome::Verified, "{rec:?}");
        assert_eq!(rec.segment, 1, "{rec:?}");
    }
    assert!(r.respec_diags.is_empty(), "{:?}", r.respec_diags);
    assert!(r.quarantined_sites.is_empty());

    // Acceptance bar: the patched program is within 10% *relative* of a
    // full from-scratch re-plan on the post-drift distribution.
    let replan = run_pipeline(
        &module,
        &[],
        &kmp::biased_text(N, 9, 3, 4),
        PipelineConfig::default(),
    )
    .unwrap();
    let target = replan.replicated_misprediction_percent;
    assert!(
        patched <= target * 1.10 + 1e-9,
        "patched {patched:.2}% vs re-plan {target:.2}%"
    );
}

#[test]
fn stable_distribution_never_patches() {
    let module = kmp::drift_module();
    let segments = vec![
        kmp::biased_text(N, 3, 1, 2),
        kmp::biased_text(N, 4, 1, 2),
        kmp::biased_text(N, 5, 1, 2),
    ];
    let r = run_pipeline_adaptive(&module, &[], &segments, AdaptiveConfig::default()).unwrap();
    assert!(r.patch_log.is_empty(), "{:?}", r.patch_log);
    assert!(r.respec_diags.is_empty());
    assert_eq!(r.segment_runs, 1);
    // Misprediction stays flat across segments.
    for s in &r.segments {
        assert!(
            (s.misprediction_percent - r.segments[0].misprediction_percent).abs() < 5.0,
            "segment {} at {:.2}%",
            s.segment,
            s.misprediction_percent
        );
    }
}

/// The gate workload plans on an alternating tape (site 1 is a perfect
/// 2-state flip-flop, so a machine ships), then the tape goes constant:
/// the machine stops predicting and the patcher demotes the site to its
/// new profile majority.
#[test]
fn machine_site_demotes_when_its_pattern_dies() {
    let module = input_gate_module();
    let segments = vec![
        gate_tape(N, GatePattern::Alternating),
        gate_tape(N, GatePattern::Constant(1)),
        gate_tape(N, GatePattern::Constant(1)),
    ];
    let r = run_pipeline_adaptive(&module, &[], &segments, AdaptiveConfig::default()).unwrap();
    let site = brepl::ir::BranchId(1);
    assert!(
        r.plan.replicated_sites.contains(&site),
        "the alternating plan must ship a machine on the gate site: {:?}",
        r.plan.replicated_sites
    );
    let demote = r
        .patch_log
        .iter()
        .find(|rec| matches!(rec.kind, PatchKind::Demote { .. }))
        .unwrap_or_else(|| panic!("no demotion in {:?}", r.patch_log));
    assert_eq!(demote.site, site);
    assert_eq!(demote.outcome, PatchOutcome::Verified, "{demote:?}");
    assert!(r.demoted_sites.contains(&site));
    assert!(!r.enabled_sites.contains(&site));
    // The demotion rewrote the module: the next segment re-runs.
    assert_eq!(r.segment_runs, expected_segment_runs(&r.patch_log));
    assert_eq!(r.segment_runs, 2);
    // The demoted pin (constant taken) predicts the constant tape
    // perfectly.
    let last = r.segments.last().unwrap();
    assert!(last.misprediction_percent < 5.0, "{last:?}");
}

/// Demote, then the drift reverses: the patcher re-inflates the
/// previously demoted machine once the observed rate returns to the
/// planning-time rate.
#[test]
fn demoted_machine_reinflates_when_drift_reverses() {
    let module = input_gate_module();
    let segments = vec![
        gate_tape(N, GatePattern::Alternating),
        gate_tape(N, GatePattern::Constant(1)),
        gate_tape(N, GatePattern::Constant(1)),
        gate_tape(N, GatePattern::Alternating),
        gate_tape(N, GatePattern::Alternating),
    ];
    let r = run_pipeline_adaptive(&module, &[], &segments, AdaptiveConfig::default()).unwrap();
    let site = brepl::ir::BranchId(1);
    let reinflate = r
        .patch_log
        .iter()
        .find(|rec| rec.kind == PatchKind::Reinflate)
        .unwrap_or_else(|| panic!("no re-inflation in {:?}", r.patch_log));
    assert_eq!(reinflate.site, site);
    assert_eq!(reinflate.outcome, PatchOutcome::Verified, "{reinflate:?}");
    // The machine is back in control and predicting the alternation.
    assert!(r.enabled_sites.contains(&site));
    assert!(!r.demoted_sites.contains(&site));
    assert_eq!(r.segment_runs, expected_segment_runs(&r.patch_log));
    let last = r.segments.last().unwrap();
    assert!(last.misprediction_percent < 5.0, "{last:?}");
}

/// A distribution that flips every segment: each committed patch fails
/// its verification window (the next segment flipped back), rolls back
/// byte-identically, and after `max_failures` rollbacks the site is
/// quarantined with `BR024` — exponential backoff caps the re-patch
/// attempts well below the number of drifting segments.
#[test]
fn flapping_site_is_quarantined_after_backoff() {
    let module = kmp::drift_module();
    let mut segments = Vec::new();
    for k in 0..8u64 {
        let (num, den) = if k % 2 == 0 { (1, 4) } else { (3, 4) };
        segments.push(kmp::biased_text(N, 100 + k, num, den));
    }
    let r = run_pipeline_adaptive(&module, &[], &segments, AdaptiveConfig::default()).unwrap();

    // Every committed patch was rolled back; none survived.
    let rolled: Vec<_> = r
        .patch_log
        .iter()
        .filter(|rec| rec.outcome == PatchOutcome::RolledBack)
        .collect();
    assert!(!rolled.is_empty(), "{:?}", r.patch_log);
    assert!(
        !r.patch_log
            .iter()
            .any(|rec| rec.outcome == PatchOutcome::Verified),
        "{:?}",
        r.patch_log
    );

    // BR023 fired for the rollbacks, BR024 for the flapping quarantine.
    let codes: Vec<_> = r.respec_diags.iter().map(|d| d.code).collect();
    assert!(codes.contains(&DiagCode::PatchRejected), "{codes:?}");
    assert!(codes.contains(&DiagCode::FlappingSite), "{codes:?}");
    assert!(!r.quarantined_sites.is_empty());

    // Backoff caps the attempts: with 7 post-plan segments and
    // max_failures = 2, at most 2 transactions ever committed.
    let commit_segments: std::collections::BTreeSet<usize> =
        rolled.iter().map(|rec| rec.segment).collect();
    assert!(commit_segments.len() <= 2, "{commit_segments:?}");
    assert_eq!(r.segment_runs, expected_segment_runs(&r.patch_log));

    // The final program is byte-identical to the never-patched plan:
    // every patch rolled back.
    let baseline = run_pipeline_adaptive(
        &module,
        &[],
        &segments[..1], // plan only, no drift segments
        AdaptiveConfig::default(),
    )
    .unwrap();
    assert_eq!(
        r.program.module.fingerprint(),
        baseline.program.module.fingerprint()
    );
}

/// One observed segment: its branch events and misprediction percent.
type SegmentRow = (u64, f64);

/// `run_pipeline_adaptive` through the public [`Respec`] API, with one
/// fresh interpreter run of the current program per segment: the driver
/// reuses a run while the shipped module is unchanged. Each segment's
/// misses count against the predictions current when it is observed, so
/// a `SwapPin` committed on a reused run still shows in the next segment.
fn adaptive_fresh_runs(
    module: &Module,
    segments: &[Vec<Value>],
) -> (Vec<SegmentRow>, Vec<PatchRecord>) {
    let config = AdaptiveConfig::default();
    let run = config.pipeline.run;
    let plan = run_pipeline(module, &[], &segments[0], config.pipeline).unwrap();
    let mut profiler = Machine::new(module, run).unwrap();
    profiler.set_input(segments[0].clone());
    let plan_stats = profiler.run("main", &[]).unwrap().trace.stats();
    let proved = classify_module(module).proved_sites();
    let mut respec = Respec::new(
        module,
        &plan.selection,
        &plan.replicated_sites,
        &plan_stats,
        &proved,
        RespecConfig,
    )
    .unwrap();

    let input: Vec<Value> = segments.iter().flatten().cloned().collect();
    let bounds: Vec<usize> = segments
        .iter()
        .scan(0, |acc, seg| {
            *acc += seg.len();
            Some(*acc)
        })
        .collect();
    let mut rows = Vec::with_capacity(segments.len());
    for k in 0..segments.len() {
        let mut m = Machine::new(&respec.program().module, run).unwrap();
        m.set_input(input.clone());
        let (outcome, marks) = m.run_segmented("main", &[], &bounds).unwrap();
        let start = if k == 0 { 0 } else { marks[k - 1] };
        let end = if k + 1 == segments.len() {
            outcome.trace.len()
        } else {
            marks[k]
        };
        let predictions = &respec.program().predictions;
        let mut slice = Trace::with_capacity(end - start);
        let mut misses = 0u64;
        for ev in outcome.trace.iter().skip(start).take(end - start) {
            misses += u64::from(predictions.get(ev.site) != ev.taken);
            slice.push(ev);
        }
        let events = slice.len() as u64;
        let pct = if events == 0 {
            0.0
        } else {
            100.0 * misses as f64 / events as f64
        };
        respec.observe(k, &slice);
        rows.push((events, pct));
    }
    let (_, log, _) = respec.into_parts();
    (rows, log)
}

/// The (site, kind, segment, outcome) of every patch-log entry.
fn log_key(log: &[PatchRecord]) -> Vec<(BranchId, PatchKind, usize, PatchOutcome)> {
    log.iter()
        .map(|rec| (rec.site, rec.kind, rec.segment, rec.outcome))
        .collect()
}

/// The driver's run reuse is invisible: on every drift scenario, one
/// fresh run per segment yields the same per-segment events and
/// misprediction (to the bit) and the same patch log.
#[test]
fn run_reuse_matches_fresh_runs_on_every_drift_scenario() {
    for (name, module, segments) in common::drift_scenarios() {
        let driver =
            run_pipeline_adaptive(&module, &[], &segments, AdaptiveConfig::default()).unwrap();
        let (rows, log) = adaptive_fresh_runs(&module, &segments);
        assert_eq!(driver.segments.len(), rows.len(), "{name}");
        for (seg, &(events, pct)) in driver.segments.iter().zip(&rows) {
            assert_eq!(seg.events, events, "{name} segment {}", seg.segment);
            assert_eq!(
                seg.misprediction_percent.to_bits(),
                pct.to_bits(),
                "{name} segment {}: {} vs {pct}",
                seg.segment,
                seg.misprediction_percent
            );
        }
        assert_eq!(log_key(&driver.patch_log), log_key(&log), "{name}");
        assert!(
            driver.segment_runs < segments.len(),
            "{name}: the driver reused no run ({} runs)",
            driver.segment_runs
        );
    }
}
