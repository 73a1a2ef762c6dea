//! Behaviour contract for the pipeline driver: every observable of a
//! pipeline run — shipped sites, misprediction rates down to the float
//! bits, size growth, quarantine and backoff records, warning codes, the
//! classification/estimate summaries and the shipped module fingerprint —
//! rendered as text and compared against the committed files under
//! `tests/golden/`.
//!
//! Covered: `run_pipeline` under five configurations and
//! `run_pipeline_static`, on every small-scale workload plus `kmp`;
//! `run_pipeline_adaptive` on a swap-drift, a demotion and a flapping
//! scenario; and, with `--features chaos`, every workload × chaos point ×
//! {default, strict} cell at its first firing seed.
//!
//! On a mismatch the actual rendering is written under
//! `target/golden_pipeline/` and the failure names that path; inspect it
//! with `diff` against the committed file. A deliberate behaviour change
//! replaces the committed file with that rendering.

mod common;

use std::fmt::Write as _;
use std::path::PathBuf;

use brepl::pipeline::{
    run_pipeline, run_pipeline_adaptive, run_pipeline_static, AdaptiveConfig, AdaptiveResult,
    PipelineConfig, PipelineError, PipelineResult,
};
use brepl::workloads::{all_workloads, workload_by_name, Scale, Workload};

/// The small-scale suite plus the closed-form `kmp` workload.
fn workloads() -> Vec<Workload> {
    let mut ws = all_workloads(Scale::Small);
    ws.push(workload_by_name("kmp", Scale::Small).expect("kmp exists"));
    ws
}

fn bits(x: f64) -> String {
    format!("{:016x}", x.to_bits())
}

fn render_result(out: &mut String, r: &PipelineResult) {
    let sites: Vec<String> = r.replicated_sites.iter().map(|s| s.to_string()).collect();
    writeln!(out, "  events {}", r.trace_events).unwrap();
    writeln!(
        out,
        "  profile% {} replicated% {} selected% {}",
        bits(r.profile_misprediction_percent),
        bits(r.replicated_misprediction_percent),
        bits(r.selected_misprediction_percent)
    )
    .unwrap();
    writeln!(out, "  growth {}", bits(r.size_growth)).unwrap();
    writeln!(out, "  replicated [{}]", sites.join(" ")).unwrap();
    for q in &r.quarantined {
        let codes: Vec<&str> = q.codes.iter().map(|c| c.as_str()).collect();
        writeln!(
            out,
            "  quarantined {} gate={} round={} codes=[{}] reason={}",
            q.site,
            q.gate,
            q.round,
            codes.join(" "),
            q.reason
        )
        .unwrap();
    }
    for b in &r.size_backoffs {
        writeln!(
            out,
            "  backoff {} {}->{} round={}",
            b.site, b.from_states, b.to_states, b.round
        )
        .unwrap();
    }
    for d in &r.warnings {
        let site = d.site.map_or("-".to_string(), |s| s.to_string());
        writeln!(
            out,
            "  warning {} site={site} {}",
            d.code.as_str(),
            d.message
        )
        .unwrap();
    }
    let c = &r.classification;
    writeln!(
        out,
        "  classification proved={} bounded={} dependent={} skips={} converged={}",
        c.proved, c.bounded, c.dependent, c.planner_skips, c.converged
    )
    .unwrap();
    let e = &r.estimate;
    writeln!(
        out,
        "  estimate exact={} heuristic={} converged={}",
        e.exact_sites, e.heuristic_sites, e.converged
    )
    .unwrap();
    writeln!(out, "  static_planned {}", r.static_planned).unwrap();
    let (a, b) = r.program.module.fingerprint();
    writeln!(out, "  fingerprint {a:016x}{b:016x}").unwrap();
}

fn render_outcome(out: &mut String, outcome: &Result<PipelineResult, PipelineError>) {
    match outcome {
        Ok(r) => render_result(out, r),
        Err(e) => writeln!(out, "  error {e}").unwrap(),
    }
}

/// Compares `actual` with `tests/golden/<name>.txt`; on a mismatch writes
/// `actual` under `target/golden_pipeline/` and panics naming it.
fn check_golden(name: &str, actual: &str) {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let golden = root.join("tests/golden").join(format!("{name}.txt"));
    let expected = std::fs::read_to_string(&golden).unwrap_or_default();
    if expected == actual {
        return;
    }
    let dir = root.join("target/golden_pipeline");
    std::fs::create_dir_all(&dir).expect("create target/golden_pipeline");
    let written = dir.join(format!("{name}.txt"));
    std::fs::write(&written, actual).expect("write actual rendering");
    let line = expected
        .lines()
        .zip(actual.lines())
        .position(|(e, a)| e != a)
        .unwrap_or_else(|| expected.lines().count().min(actual.lines().count()));
    panic!(
        "{} differs from the golden rendering (first difference at line {}); \
         actual output written to {}",
        golden.display(),
        line + 1,
        written.display()
    );
}

#[test]
fn pipeline_runs_match_golden() {
    let configs: [(&str, PipelineConfig); 5] = [
        ("default", PipelineConfig::default()),
        (
            "strict",
            PipelineConfig {
                strict: true,
                ..PipelineConfig::default()
            },
        ),
        (
            "no-refine",
            PipelineConfig {
                refine: false,
                ..PipelineConfig::default()
            },
        ),
        (
            "no-size-budget",
            PipelineConfig {
                max_size_growth: None,
                ..PipelineConfig::default()
            },
        ),
        (
            "realized-growth-1.05",
            PipelineConfig {
                max_realized_growth: Some(1.05),
                ..PipelineConfig::default()
            },
        ),
    ];
    let mut out = String::new();
    for w in workloads() {
        for (label, config) in configs {
            writeln!(out, "run_pipeline {} {label}", w.name).unwrap();
            render_outcome(
                &mut out,
                &run_pipeline(&w.module, &w.args, &w.input, config),
            );
        }
        writeln!(out, "run_pipeline_static {} default", w.name).unwrap();
        render_outcome(
            &mut out,
            &run_pipeline_static(&w.module, &w.args, &w.input, PipelineConfig::default()),
        );
    }
    check_golden("pipeline", &out);
}

fn render_adaptive(out: &mut String, r: &AdaptiveResult) {
    render_result(out, &r.plan);
    for rec in &r.patch_log {
        writeln!(
            out,
            "  patch {} {:?} segment={} {:?} {}",
            rec.site, rec.kind, rec.segment, rec.outcome, rec.detail
        )
        .unwrap();
    }
    for m in &r.segments {
        writeln!(
            out,
            "  segment {} events={} miss%={} patches={}",
            m.segment,
            m.events,
            bits(m.misprediction_percent),
            m.patches.len()
        )
        .unwrap();
    }
    let set = |s: &mut dyn Iterator<Item = &brepl_ir::BranchId>| {
        s.map(|b| b.to_string()).collect::<Vec<_>>().join(" ")
    };
    writeln!(out, "  enabled [{}]", set(&mut r.enabled_sites.iter())).unwrap();
    writeln!(out, "  demoted [{}]", set(&mut r.demoted_sites.iter())).unwrap();
    writeln!(
        out,
        "  quarantined-sites [{}]",
        set(&mut r.quarantined_sites.iter())
    )
    .unwrap();
    let codes: Vec<&str> = r.respec_diags.iter().map(|d| d.code.as_str()).collect();
    writeln!(out, "  respec-codes [{}]", codes.join(" ")).unwrap();
    let (a, b) = r.program.module.fingerprint();
    writeln!(out, "  final-fingerprint {a:016x}{b:016x}").unwrap();
}

#[test]
fn adaptive_runs_match_golden() {
    let mut out = String::new();
    for (name, module, segments) in common::drift_scenarios() {
        writeln!(out, "run_pipeline_adaptive {name}").unwrap();
        match run_pipeline_adaptive(&module, &[], &segments, AdaptiveConfig::default()) {
            Ok(r) => render_adaptive(&mut out, &r),
            Err(e) => writeln!(out, "  error {e}").unwrap(),
        }
    }
    check_golden("adaptive", &out);
}

#[cfg(feature = "chaos")]
#[test]
fn chaos_matrix_matches_golden() {
    use brepl::core::chaos::{ChaosConfig, ChaosPoint};

    let mut cases: Vec<(
        &str,
        brepl_ir::Module,
        Vec<brepl_ir::Value>,
        Vec<brepl_ir::Value>,
    )> = workloads()
        .into_iter()
        .map(|w| (w.name, w.module, w.args, w.input))
        .collect();
    cases.push((
        "guarded-alternation",
        common::guarded_alternation_module(),
        vec![],
        vec![],
    ));
    let mut out = String::new();
    for (name, module, args, input) in &cases {
        for point in ChaosPoint::ALL {
            for strict in [false, true] {
                let mode = if strict { "strict" } else { "default" };
                writeln!(out, "chaos {name} {point} {mode}").unwrap();
                let mut fired = false;
                for seed in 0..8u64 {
                    let config = PipelineConfig {
                        strict,
                        chaos: Some(ChaosConfig { seed, point }),
                        ..PipelineConfig::default()
                    };
                    let outcome = run_pipeline(module, args, input, config);
                    let injection = match &outcome {
                        Ok(r) => match &r.chaos_injection {
                            Some(inj) => Some(inj),
                            None => continue,
                        },
                        Err(_) => None,
                    };
                    writeln!(out, "  seed {seed}").unwrap();
                    if let Some(inj) = injection {
                        writeln!(
                            out,
                            "  injection {} victim={} {}",
                            inj.point, inj.victim, inj.description
                        )
                        .unwrap();
                    }
                    render_outcome(&mut out, &outcome);
                    fired = true;
                    break;
                }
                if !fired {
                    writeln!(out, "  never fired").unwrap();
                }
            }
        }
    }
    // The adaptive-layer points proper, on the drift scenarios.
    for (name, module, segments) in common::drift_scenarios() {
        for point in [ChaosPoint::InjectDrift, ChaosPoint::CorruptPatch] {
            writeln!(out, "chaos-adaptive {name} {point}").unwrap();
            let mut config = AdaptiveConfig::default();
            config.pipeline.chaos = Some(ChaosConfig { seed: 0, point });
            match run_pipeline_adaptive(&module, &[], &segments, config) {
                Ok(r) => {
                    if let Some(inj) = &r.chaos_injection {
                        writeln!(
                            out,
                            "  injection {} victim={} {}",
                            inj.point, inj.victim, inj.description
                        )
                        .unwrap();
                    }
                    render_adaptive(&mut out, &r);
                }
                Err(e) => writeln!(out, "  error {e}").unwrap(),
            }
        }
    }
    check_golden("chaos", &out);
}
