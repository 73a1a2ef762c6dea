//! End-to-end proof of the degradation paths (feature `chaos`): every
//! fault-injection point, activated on every workload, must be caught by
//! a gate and quarantined in default mode — yielding a shipped program
//! that re-validates clean — and must hard-fail with a typed error in
//! strict mode. Runs only with `cargo test --features chaos`.
#![cfg(feature = "chaos")]

mod common;

use brepl::core::chaos::{ChaosConfig, ChaosPoint};
use brepl::pipeline::{run_pipeline, PipelineConfig, PipelineError, QuarantinedSite};
use brepl::workloads::{all_workloads, Scale, Workload};
use brepl_analysis::{check_history, validate_replication, Severity};

/// Runs `w` with `point` armed, scanning a few seeds until the injection
/// actually fires (candidate mutations are verified-effective, so the
/// first seed almost always works; the scan absorbs workloads where a
/// particular victim has nothing to corrupt). Panics if no seed fires.
fn run_with_point(
    w: &Workload,
    point: ChaosPoint,
    strict: bool,
) -> Result<(u64, brepl::pipeline::PipelineResult), (u64, PipelineError)> {
    for seed in 0..8u64 {
        let config = PipelineConfig {
            strict,
            chaos: Some(ChaosConfig { seed, point }),
            ..PipelineConfig::default()
        };
        match run_pipeline(&w.module, &w.args, &w.input, config) {
            Ok(result) => {
                if result.chaos_injection.is_some() {
                    return Ok((seed, result));
                }
                // Injection did not fire under this seed; try the next.
            }
            Err(e) => return Err((seed, e)),
        }
    }
    panic!(
        "{}: no seed in 0..8 made point {point} fire — the degradation path is unproven",
        w.name
    );
}

/// Default mode: the fault is quarantined, the victim named, and the
/// shipped program passes both static gates when re-checked from scratch.
#[test]
fn every_point_quarantines_and_revalidates_on_every_workload() {
    for w in all_workloads(Scale::Small) {
        for point in ChaosPoint::ALL {
            let (seed, result) = run_with_point(&w, point, false).unwrap_or_else(|(seed, e)| {
                panic!(
                    "{} / {point} (seed {seed}): default mode must not error: {e}",
                    w.name
                )
            });
            let injection = result.chaos_injection.as_ref().unwrap();
            assert_eq!(injection.point, point);
            let victim = injection.victim;
            assert!(
                result
                    .quarantined
                    .iter()
                    .any(|q: &QuarantinedSite| q.site == victim),
                "{} / {point} (seed {seed}): victim {victim} not quarantined; quarantined={:?}",
                w.name,
                result.quarantined
            );
            assert!(
                !result.replicated_sites.contains(&victim),
                "{} / {point}: quarantined victim still shipped",
                w.name
            );
            // Clean re-validation of the *shipped* program, from scratch:
            // zero error-severity diagnostics from either gate.
            let p = &result.program;
            let diags = validate_replication(&w.module, &p.module, &p.replica_map, &p.predictions);
            assert!(
                diags.iter().all(|d| d.severity() != Severity::Error),
                "{} / {point} (seed {seed}): shipped program fails validation: {diags:?}",
                w.name
            );
            // The history gate needs the shipped plan's tables; the
            // pipeline re-proved it on the final round (gates were on and
            // the run returned Ok), so here just re-check the empty-spec
            // invariant holds for quarantined sites.
            let spec = brepl_analysis::HistorySpec::new();
            let hdiags = check_history(&p.module, &p.provenance, &spec, &p.predictions);
            assert!(
                hdiags.iter().all(|d| d.severity() != Severity::Error),
                "{} / {point}: empty-spec history check errored: {hdiags:?}",
                w.name
            );
            assert!(
                p.module.verify().is_ok(),
                "{} / {point}: shipped module invalid",
                w.name
            );
            // Every quarantine record names a reason.
            for q in &result.quarantined {
                assert!(!q.reason.is_empty());
            }
        }
    }
}

/// Strict mode: the same faults abort with a typed error — never a panic,
/// never a silently shipped program.
#[test]
fn every_point_hard_fails_in_strict_mode() {
    for w in all_workloads(Scale::Small) {
        for point in ChaosPoint::ALL {
            match run_with_point(&w, point, true) {
                Err((seed, e)) => {
                    let typed = matches!(
                        e,
                        PipelineError::Validation(_)
                            | PipelineError::History(_)
                            | PipelineError::Trace(_)
                            | PipelineError::Replicate(_)
                    );
                    assert!(
                        typed,
                        "{} / {point} (seed {seed}): strict failure has the wrong type: {e}",
                        w.name
                    );
                }
                Ok((seed, result)) => panic!(
                    "{} / {point} (seed {seed}): strict mode returned Ok with injection {:?}",
                    w.name, result.chaos_injection
                ),
            }
        }
    }
}

/// The forge point proper (not its truncation fallback): a module with a
/// proved-monostatic guard and a machine-worthy alternating branch. The
/// forged event contradicts the proof, so the classification gate fires
/// `BR013` naming the guard — while the witness validator and history
/// checker (`BR001`–`BR012`) stay blind, because the forged trace judges
/// the gate but never steers replication.
#[test]
fn forged_profile_fires_br013_while_other_gates_stay_blind() {
    use brepl_analysis::DiagCode;

    let m = common::guarded_alternation_module();
    let chaos = Some(ChaosConfig {
        seed: 0,
        point: ChaosPoint::ForgeTraceEvent,
    });
    let result = run_pipeline(
        &m,
        &[],
        &[],
        PipelineConfig {
            chaos,
            ..PipelineConfig::default()
        },
    )
    .unwrap();
    let inj = result.chaos_injection.as_ref().expect("forge must fire");
    assert!(
        inj.description.contains("flipped trace event"),
        "expected the forge proper, got the fallback: {}",
        inj.description
    );
    // BR013 at the proved victim, attributed by the classify gate…
    let q = result
        .quarantined
        .iter()
        .find(|q| q.site == inj.victim)
        .expect("forged victim must be quarantined");
    assert_eq!(q.gate.name(), "classify");
    assert!(
        q.codes.contains(&DiagCode::ProfileProofConflict),
        "victim codes: {:?}",
        q.codes
    );
    // …and the classify gate *alone*: BR001–BR012 saw a clean program.
    assert!(
        result
            .quarantined
            .iter()
            .all(|q| q.gate.name() == "classify"),
        "other gates fired: {:?}",
        result.quarantined
    );
    // The untrusted profile shipped nothing.
    assert!(result.replicated_sites.is_empty());

    // Strict mode: the same forge is a hard trace error naming BR013.
    match run_pipeline(
        &m,
        &[],
        &[],
        PipelineConfig {
            strict: true,
            chaos,
            ..PipelineConfig::default()
        },
    ) {
        Err(PipelineError::Trace(msg)) => assert!(msg.contains("BR013"), "{msg}"),
        other => panic!("strict forge must be a trace error, got {other:?}"),
    }
}

/// The static-profile forge proper (not its truncation fallback): the
/// chaos engine overwrites one proof-promoted exact estimate with a
/// rational that contradicts the measured counts, leaving the trace,
/// module, witness and machine tables all honest. Only the
/// estimate-vs-measured drift gate sees the profile, so `BR019` must
/// catch the forgery at the victim — and `BR001`–`BR018` must all stay
/// blind, proving the drift gate adds real detection surface instead of
/// re-flagging what the older gates already catch.
#[test]
fn forged_static_profile_fires_br019_while_br001_to_br018_stay_blind() {
    use brepl_analysis::DiagCode;

    // Same shape as the BR013 forge test: the guard (site 1) carries the
    // exact estimate the forge can contradict.
    let m = common::guarded_alternation_module();
    let chaos = Some(ChaosConfig {
        seed: 0,
        point: ChaosPoint::ForgeStaticProfile,
    });
    let result = run_pipeline(
        &m,
        &[],
        &[],
        PipelineConfig {
            chaos,
            ..PipelineConfig::default()
        },
    )
    .unwrap();
    let inj = result.chaos_injection.as_ref().expect("forge must fire");
    assert!(
        inj.description.contains("overwrote site"),
        "expected the estimate forge proper, got the fallback: {}",
        inj.description
    );
    // BR019 at the forged victim, attributed by the drift gate alone…
    let q = result
        .quarantined
        .iter()
        .find(|q| q.site == inj.victim)
        .expect("forged victim must be quarantined");
    assert_eq!(q.gate.name(), "estimate");
    assert_eq!(
        q.codes,
        vec![DiagCode::EstimateDriftConflict],
        "BR019 and only BR019 condemns the victim"
    );
    // …and nothing else fired: the trace, witness and machine tables
    // were honest, so BR001–BR018 saw a clean program.
    assert!(
        result
            .quarantined
            .iter()
            .all(|q| q.gate.name() == "estimate"),
        "other gates fired: {:?}",
        result.quarantined
    );
    // Per-site quarantine: the honest alternating machine still ships.
    assert!(
        !result.replicated_sites.contains(&inj.victim),
        "forged victim shipped"
    );

    // Strict mode: the same forgery is a hard trace error naming BR019.
    match run_pipeline(
        &m,
        &[],
        &[],
        PipelineConfig {
            strict: true,
            chaos,
            ..PipelineConfig::default()
        },
    ) {
        Err(PipelineError::Trace(msg)) => assert!(msg.contains("BR019"), "{msg}"),
        other => panic!("strict estimate forge must be a trace error, got {other:?}"),
    }
}

/// The gate cache stays invisible on corrupted rounds: for each point
/// that fires inside a round, the full plan's round-1 program (or its
/// machine tables) is corrupted as the pipeline's chaos seam corrupts it,
/// and round 2 drops the victim. Both rounds must get exactly the
/// from-scratch diagnostics of the reference translation validator and
/// history checker, through one cache shared across the rounds.
#[test]
fn gate_cache_matches_reference_on_corrupted_rounds() {
    use brepl::core::chaos::ChaosEngine;
    use brepl_analysis::GateCache;

    let in_round = [
        ChaosPoint::CorruptMachineTable,
        ChaosPoint::RetargetReplicaEdge,
        ChaosPoint::DropWitnessChain,
        ChaosPoint::FlipPinnedPrediction,
    ];
    let mut hits = 0;
    for w in all_workloads(Scale::Small) {
        let (stats, selection, sites) = common::full_plan(&w);
        for point in in_round {
            let fired = (0..8u64).any(|seed| {
                let ctx = format!("{} / {point} (seed {seed})", w.name);
                let (mut program, mut spec) =
                    common::replicate_round(&w.module, &stats, &selection, &sites);
                let mut engine = ChaosEngine::new(ChaosConfig { seed, point });
                engine.pin_victim(&sites);
                engine.corrupt_program(&w.module, &mut program);
                engine.corrupt_spec(&program, &mut spec);
                let Some(victim) = engine.injection().map(|i| i.victim) else {
                    return false;
                };
                let mut cache = GateCache::new();
                let ctx1 = format!("{ctx} round 1");
                common::assert_cached_gates_match(&w.module, &program, &spec, &mut cache, &ctx1);
                let rest: Vec<_> = sites.iter().copied().filter(|&s| s != victim).collect();
                let (program, spec) = common::replicate_round(&w.module, &stats, &selection, &rest);
                let ctx2 = format!("{ctx} round 2");
                common::assert_cached_gates_match(&w.module, &program, &spec, &mut cache, &ctx2);
                hits += cache.hits();
                true
            });
            assert!(fired, "{} / {point}: no seed in 0..8 fired", w.name);
        }
    }
    assert!(hits > 0, "no round reused a cached gate result");
}

/// S3: quarantine is deterministic across thread counts — serial and
/// parallel runs of a chaos-faulted pipeline produce the identical
/// quarantined set and bit-identical shipped program.
#[test]
fn quarantine_is_deterministic_across_thread_counts() {
    let w = brepl::workloads::workload_by_name("predict", Scale::Small).unwrap();
    let run_at = |threads: &str| {
        // The engine reads BREPL_THREADS per par_map call; results are
        // index-merged so any value must give bit-identical output.
        std::env::set_var("BREPL_THREADS", threads);
        let config = PipelineConfig {
            chaos: Some(ChaosConfig {
                seed: 3,
                point: ChaosPoint::RetargetReplicaEdge,
            }),
            ..PipelineConfig::default()
        };
        let r = run_pipeline(&w.module, &w.args, &w.input, config).unwrap();
        std::env::remove_var("BREPL_THREADS");
        r
    };
    let serial = run_at("1");
    let parallel = run_at("4");
    assert_eq!(serial.quarantined, parallel.quarantined);
    assert_eq!(serial.replicated_sites, parallel.replicated_sites);
    assert_eq!(serial.program.module, parallel.program.module);
    assert_eq!(
        serial.program.provenance, parallel.program.provenance,
        "provenance must not depend on scheduling"
    );
    assert_eq!(
        serial.replicated_misprediction_percent,
        parallel.replicated_misprediction_percent
    );
    // The injection itself is part of the determinism contract.
    let (a, b) = (
        serial
            .chaos_injection
            .as_ref()
            .map(|i| (i.point, i.victim, i.description.clone())),
        parallel
            .chaos_injection
            .as_ref()
            .map(|i| (i.point, i.victim, i.description.clone())),
    );
    assert_eq!(a, b);
}

/// The inject-drift point proper: the engine forges the patcher's view
/// of one post-planning segment of a *stable* distribution, provoking a
/// spurious patch that the BR001–BR012 re-proof rightly accepts (the
/// patched program is well-formed) — only the verification window on
/// the next honest segment can tell the drift never happened. It must
/// roll the transaction back byte-identically and fire `BR023`, while
/// every other gate stays blind.
#[test]
fn inject_drift_is_caught_by_the_verification_window_alone() {
    use brepl::core::PatchOutcome;
    use brepl::pipeline::{run_pipeline_adaptive, AdaptiveConfig};
    use brepl::workloads::kmp;
    use brepl_analysis::DiagCode;

    let module = kmp::drift_module();
    // A stable ¾-bias tape: the forged drift is the only drift.
    let segments: Vec<_> = (0..3u64)
        .map(|k| kmp::biased_text(2000, 40 + k, 3, 4))
        .collect();
    let honest = run_pipeline_adaptive(&module, &[], &segments, AdaptiveConfig::default()).unwrap();
    assert!(honest.patch_log.is_empty(), "{:?}", honest.patch_log);

    let mut config = AdaptiveConfig::default();
    config.pipeline.chaos = Some(ChaosConfig {
        seed: 0,
        point: ChaosPoint::InjectDrift,
    });
    let r = run_pipeline_adaptive(&module, &[], &segments, config).unwrap();
    let inj = r.chaos_injection.as_ref().expect("inject-drift must fire");
    assert_eq!(inj.point, ChaosPoint::InjectDrift);
    assert!(
        inj.description.contains("forged input-distribution shift"),
        "{}",
        inj.description
    );

    // The spurious patch committed off the forged counters and rolled
    // back on the next honest segment; nothing survived.
    assert!(
        r.patch_log
            .iter()
            .any(|rec| rec.outcome == PatchOutcome::RolledBack),
        "{:?}",
        r.patch_log
    );
    assert!(
        !r.patch_log
            .iter()
            .any(|rec| rec.outcome == PatchOutcome::Verified),
        "{:?}",
        r.patch_log
    );

    // BR023 and only BR023: the planning gates saw exactly what the
    // honest run saw, and the final from-scratch re-validation passed
    // (the run returned Ok with the gates on).
    assert!(!r.respec_diags.is_empty());
    assert!(
        r.respec_diags
            .iter()
            .all(|d| d.code == DiagCode::PatchRejected),
        "{:?}",
        r.respec_diags
    );
    assert_eq!(r.plan.quarantined, honest.plan.quarantined);

    // Rollback restored the byte-identical pre-patch program.
    assert_eq!(
        r.program.module.fingerprint(),
        honest.program.module.fingerprint()
    );
    assert_eq!(r.program.predictions, honest.program.predictions);
}

/// The corrupt-patch point proper: a legitimate drift patch commits —
/// the BR001–BR012 re-proof ran on honest bits — and the engine then
/// flips the committed pins post-gate. The shipped bits lie; only the
/// per-member verification window is left to notice the corrupted
/// member's miss rate failed to improve, roll the whole transaction
/// back, and fire `BR023`.
#[test]
fn corrupt_patch_is_caught_by_the_verification_window_alone() {
    use brepl::core::PatchOutcome;
    use brepl::pipeline::{run_pipeline_adaptive, AdaptiveConfig};
    use brepl::workloads::kmp;
    use brepl_analysis::DiagCode;

    let module = kmp::drift_module();
    // The kmp swap scenario: bias flips ¼ → ¾ after planning, so a
    // genuine swap transaction commits at segment 1.
    let segments = vec![
        kmp::biased_text(2000, 7, 1, 4),
        kmp::biased_text(2000, 8, 3, 4),
        kmp::biased_text(2000, 9, 3, 4),
    ];
    let honest = run_pipeline_adaptive(&module, &[], &segments, AdaptiveConfig::default()).unwrap();
    assert!(
        honest
            .patch_log
            .iter()
            .all(|rec| rec.outcome == PatchOutcome::Verified),
        "the honest swaps must survive: {:?}",
        honest.patch_log
    );

    let mut config = AdaptiveConfig::default();
    config.pipeline.chaos = Some(ChaosConfig {
        seed: 0,
        point: ChaosPoint::CorruptPatch,
    });
    let r = run_pipeline_adaptive(&module, &[], &segments, config).unwrap();
    let inj = r.chaos_injection.as_ref().expect("corrupt-patch must fire");
    assert_eq!(inj.point, ChaosPoint::CorruptPatch);
    assert!(
        inj.description.contains("after the re-proof accepted it"),
        "{}",
        inj.description
    );

    // The same transaction that verified clean in the honest run now
    // rolls back wholesale: the corrupted member cannot hide behind its
    // siblings under per-member verification.
    assert!(
        r.patch_log
            .iter()
            .any(|rec| rec.outcome == PatchOutcome::RolledBack && rec.site == inj.victim),
        "{:?}",
        r.patch_log
    );
    assert!(
        !r.patch_log
            .iter()
            .any(|rec| rec.outcome == PatchOutcome::Verified),
        "{:?}",
        r.patch_log
    );
    let codes: Vec<_> = r.respec_diags.iter().map(|d| d.code).collect();
    assert!(codes.contains(&DiagCode::PatchRejected), "{codes:?}");
    assert!(
        !codes.contains(&DiagCode::FlappingSite),
        "one rollback is not flapping: {codes:?}"
    );
    assert_eq!(r.plan.quarantined, honest.plan.quarantined);

    // Rollback restored the byte-identical never-patched plan (backoff
    // then blocks a re-patch within the remaining segments).
    let baseline =
        run_pipeline_adaptive(&module, &[], &segments[..1], AdaptiveConfig::default()).unwrap();
    assert_eq!(
        r.program.module.fingerprint(),
        baseline.program.module.fingerprint()
    );
}
