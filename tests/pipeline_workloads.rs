//! End-to-end pipeline runs over the whole benchmark suite: the paper's
//! workflow must hold on every program — semantics preserved, replicated
//! prediction no worse than profile, size growth within the configured
//! budget's ballpark.

use brepl::pipeline::{run_pipeline, run_pipeline_static, PipelineConfig};
use brepl::workloads::{all_workloads, workload_by_name, Scale};

#[test]
fn pipeline_improves_or_holds_every_workload() {
    for w in all_workloads(Scale::Small) {
        let result = run_pipeline(&w.module, &w.args, &w.input, PipelineConfig::default())
            .unwrap_or_else(|e| panic!("{}: pipeline failed: {e}", w.name));
        assert!(
            result.replicated_misprediction_percent <= result.profile_misprediction_percent + 1e-9,
            "{}: replicated {:.3}% worse than profile {:.3}%",
            w.name,
            result.replicated_misprediction_percent,
            result.profile_misprediction_percent
        );
        assert!(
            result.size_growth >= 1.0,
            "{}: size shrank ({:.2})",
            w.name,
            result.size_growth
        );
        assert!(
            result.program.module.verify().is_ok(),
            "{}: replicated module invalid",
            w.name
        );
        // Both static gates ran (witness validation and the history
        // checker); the suite is warning-clean, so anything here is a
        // regression — e.g. a dead store creeping back into a workload.
        assert!(
            result.warnings.is_empty(),
            "{}: unexpected gate warnings: {:?}",
            w.name,
            result.warnings
        );
    }
}

#[test]
fn pipeline_gains_are_substantial_where_promised() {
    // doduc's convergence loop and predict's periodic branches must show
    // clear wins, the suite's bellwethers for the paper's headline.
    let check = |name: &str, min_relative_gain: f64| {
        let w = brepl::workloads::workload_by_name(name, Scale::Small).unwrap();
        let r = run_pipeline(&w.module, &w.args, &w.input, PipelineConfig::default()).unwrap();
        let gain = (r.profile_misprediction_percent - r.replicated_misprediction_percent)
            / r.profile_misprediction_percent.max(1e-9);
        assert!(
            gain >= min_relative_gain,
            "{name}: gain {gain:.2} below {min_relative_gain}"
        );
    };
    check("doduc", 0.5);
    check("predict", 0.3);
    check("ghostview", 0.15);
}

#[test]
fn unlimited_budget_reaches_selection_promise() {
    let w = brepl::workloads::workload_by_name("doduc", Scale::Small).unwrap();
    let config = PipelineConfig {
        max_size_growth: None,
        ..PipelineConfig::default()
    };
    let r = run_pipeline(&w.module, &w.args, &w.input, config).unwrap();
    // Without a budget, the realized result lands near the selection's
    // promise (refinement may drop a few non-transferring machines).
    assert!(
        r.replicated_misprediction_percent <= r.selected_misprediction_percent + 3.0,
        "realized {:.2}% far from promised {:.2}%",
        r.replicated_misprediction_percent,
        r.selected_misprediction_percent
    );
}

/// The planner fast-path is pure: selecting without the classification
/// (no proved-site search skip) and with it yields the identical
/// selection on every workload — the skip changes how a Profile choice
/// is *reached*, never what ships. (The select-level unit test proves the
/// same on a module where the skip fires.)
#[test]
fn no_classify_switch_ships_bit_identical_programs() {
    use brepl::core::select_strategies_classified;
    use brepl_analysis::classify_module;

    let max_states = PipelineConfig::default().max_states;
    for w in all_workloads(Scale::Small) {
        let trace = w.run().unwrap().trace;
        let cls = classify_module(&w.module);
        assert!(
            cls.converged(),
            "{}: classification fixpoint diverged",
            w.name
        );
        let (off, off_skips) = select_strategies_classified(&w.module, &trace, max_states, None);
        let (on, _) = select_strategies_classified(&w.module, &trace, max_states, Some(&cls));
        assert_eq!(off, on, "{}", w.name);
        assert_eq!(
            off_skips, 0,
            "{}: the skip ran without a classification",
            w.name
        );
    }
}

/// The `kmp` workload exists to pin the stack against real math: for
/// the pattern `ab` over uniform i.i.d. binary text every rate has a
/// closed form. The measured profile misprediction must sit at the
/// analytic 1/3 floor, and the static estimator must reproduce the
/// counted scan loop's bias as the *exact* rational `n/(n+1)` — not a
/// float near it — matching the measured counts digit for digit.
#[test]
fn kmp_closed_forms_hold_through_pipeline_and_estimator() {
    use brepl_analysis::{classify_module, estimate_profile, BiasEstimate};
    use brepl_ir::BranchId;

    let w = workload_by_name("kmp", Scale::Small).unwrap();
    let r = run_pipeline(&w.module, &w.args, &w.input, PipelineConfig::default()).unwrap();
    assert!(
        (r.profile_misprediction_percent / 100.0 - 1.0 / 3.0).abs() < 0.02,
        "kmp profile misprediction {:.2}% off the analytic 1/3 floor",
        r.profile_misprediction_percent
    );

    let cls = classify_module(&w.module);
    let profile = estimate_profile(&w.module, &cls);
    assert!(profile.converged(), "kmp frequency propagation diverged");
    assert!(
        profile.check_conservation(&w.module).is_empty(),
        "kmp flow conservation violated"
    );
    let scan = profile.by_site(BranchId(0)).expect("scan loop estimated");
    match scan.bias {
        BiasEstimate::Exact { num, den } => {
            assert_eq!(den, num + 1, "scan loop bias must be n/(n+1)");
            // The estimate matches the measured counts exactly: the
            // loop runs n times and exits once.
            let measured = w.run().unwrap();
            let stats = measured.trace.stats();
            let s0 = stats.site(BranchId(0));
            assert_eq!(s0.taken, num, "estimated n disagrees with measured n");
            assert_eq!(s0.not_taken, 1);
        }
        BiasEstimate::Heuristic(p) => panic!("scan loop bias not proof-backed (got {p})"),
    }
    // The data branches are input-dependent: heuristic-only, never
    // promoted, and therefore outside the BR019 drift gate by design.
    for k in 1..=3u32 {
        let est = profile.by_site(BranchId(k)).expect("data site estimated");
        assert!(!est.bias.is_exact(), "site {k} wrongly claims a proof");
    }
}

/// The acceptance bar for profile-free planning: every workload in the
/// suite ships through [`run_pipeline_static`] with **zero profiling
/// runs** — planned purely from the synthesized static profile — and
/// the shipped program still clears the full `BR001`–`BR018` gate
/// stack, with the after-the-fact measurement confirming semantics.
#[test]
fn static_planning_ships_every_workload_without_profiling() {
    for w in all_workloads(Scale::Small) {
        let r = run_pipeline_static(&w.module, &w.args, &w.input, PipelineConfig::default())
            .unwrap_or_else(|e| panic!("{}: static pipeline failed: {e}", w.name));
        assert!(r.static_planned, "{}", w.name);
        assert!(
            r.estimate.converged,
            "{}: frequency propagation diverged",
            w.name
        );
        assert!(
            r.quarantined.is_empty(),
            "{}: gates quarantined {:?} on an honest static plan",
            w.name,
            r.quarantined
        );
        assert!(
            r.program.module.verify().is_ok(),
            "{}: statically-planned module invalid",
            w.name
        );
        // The re-measure run is real even though the plan was synthetic.
        assert!(
            r.replicated_misprediction_percent.is_finite()
                && (0.0..=100.0).contains(&r.replicated_misprediction_percent),
            "{}: bogus measured misprediction {}",
            w.name,
            r.replicated_misprediction_percent
        );
        // An empty static plan can shrink a module slightly (apply_plan
        // normalization), so the profiled path's `>= 1.0` bound relaxes
        // to "sane" here.
        assert!(
            r.size_growth > 0.9,
            "{}: size_growth {}",
            w.name,
            r.size_growth
        );
    }
}

#[test]
fn provenance_is_complete_and_consistent() {
    for w in all_workloads(Scale::Small).into_iter().take(3) {
        let r = run_pipeline(&w.module, &w.args, &w.input, PipelineConfig::default()).unwrap();
        assert_eq!(
            r.program.provenance.len(),
            r.program.module.branch_count(),
            "{}",
            w.name
        );
        let original_branches = w.module.branch_count();
        for orig in &r.program.provenance {
            assert!(
                orig.index() < original_branches,
                "{}: provenance {orig} out of range",
                w.name
            );
        }
    }
}
