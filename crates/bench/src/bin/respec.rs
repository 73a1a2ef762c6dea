//! `respec` — drift-recovery scenarios for the runtime re-specialization
//! layer ([`brepl::pipeline::run_pipeline_adaptive`]).
//!
//! Runs five scenarios that cover every patch kind plus a stable
//! control, and prints one row per scenario: misprediction at plan time,
//! on the first post-drift segment *before* any patch lands, and on the
//! final segment after the surviving patches — next to the misprediction
//! of a full from-scratch re-plan on the post-drift distribution (the
//! bar the patched program is held to), the patch-log outcome counts and
//! the interpreter runs the observe loop made (`runs`: one, plus one
//! after each commit or rollback that changed the module).
//!
//! | scenario | drift | expected recovery |
//! |----------|-------|-------------------|
//! | `kmp-swap` | text bias ¼ → ¾ | pin swaps on the stale sites |
//! | `kmp-reverse` | text bias ¾ → ¼ | the same swaps, other direction |
//! | `gate-demote` | alternating tape goes constant | machine demoted to a pin |
//! | `gate-reinflate` | …and the alternation returns | demoted machine re-inflated |
//! | `kmp-stable` | none (control) | zero patches, flat misprediction |
//!
//! Exits non-zero when any acceptance bar fails: a drift scenario whose
//! patched misprediction is not within 10% relative (plus half a point
//! absolute slack) of the re-plan, a patch log with rollbacks or
//! unresolved commits on honest drift, any `BR023`/`BR024` diagnostic or
//! quarantined site, or a control run that patched anything. The output
//! carries no timing, so it is golden-tested; the adaptive layer's cost
//! is brbench's `drift-adapt` `ship_s` and `sim.measure_s`.
//!
//! With `--json` the same data is emitted as one machine-readable JSON
//! document on stdout; the document is always re-parsed and
//! schema-checked in-process before the bin exits, so CI gets the schema
//! gate for free in either mode.

use brepl::pipeline::{run_pipeline, run_pipeline_adaptive, AdaptiveConfig, PipelineConfig};
use brepl_bench::{json, json_flag, scale_from_env, scale_name};
use brepl_core::{memo, PatchOutcome};
use brepl_ir::{Module, Value};
use brepl_workloads::kmp;
use brepl_workloads::synth::{gate_tape, input_gate_module, GatePattern};
use brepl_workloads::Scale;

/// One drift scenario: a module, a segmented tape (segment 0 plans, the
/// rest drift), and a fresh tape from the *final* segment's distribution
/// for the from-scratch re-plan baseline.
struct Scenario {
    name: &'static str,
    module: Module,
    segments: Vec<Vec<Value>>,
    replan_input: Vec<Value>,
    /// Control scenarios expect an empty patch log; drift scenarios
    /// expect at least one verified patch.
    expect_patches: bool,
}

fn scenarios(scale: Scale) -> Vec<Scenario> {
    let n = if scale == Scale::Full { 40_000 } else { 2_000 };
    vec![
        Scenario {
            name: "kmp-swap",
            module: kmp::drift_module(),
            segments: vec![
                kmp::biased_text(n, 7, 1, 4),
                kmp::biased_text(n, 8, 3, 4),
                kmp::biased_text(n, 9, 3, 4),
            ],
            replan_input: kmp::biased_text(n, 19, 3, 4),
            expect_patches: true,
        },
        Scenario {
            name: "kmp-reverse",
            module: kmp::drift_module(),
            segments: vec![
                kmp::biased_text(n, 27, 3, 4),
                kmp::biased_text(n, 28, 1, 4),
                kmp::biased_text(n, 29, 1, 4),
            ],
            replan_input: kmp::biased_text(n, 39, 1, 4),
            expect_patches: true,
        },
        Scenario {
            name: "gate-demote",
            module: input_gate_module(),
            segments: vec![
                gate_tape(n, GatePattern::Alternating),
                gate_tape(n, GatePattern::Constant(1)),
                gate_tape(n, GatePattern::Constant(1)),
            ],
            replan_input: gate_tape(n, GatePattern::Constant(1)),
            expect_patches: true,
        },
        Scenario {
            name: "gate-reinflate",
            module: input_gate_module(),
            segments: vec![
                gate_tape(n, GatePattern::Alternating),
                gate_tape(n, GatePattern::Constant(1)),
                gate_tape(n, GatePattern::Constant(1)),
                gate_tape(n, GatePattern::Alternating),
                gate_tape(n, GatePattern::Alternating),
            ],
            replan_input: gate_tape(n, GatePattern::Alternating),
            expect_patches: true,
        },
        Scenario {
            name: "kmp-stable",
            module: kmp::drift_module(),
            segments: vec![
                kmp::biased_text(n, 3, 1, 2),
                kmp::biased_text(n, 4, 1, 2),
                kmp::biased_text(n, 5, 1, 2),
            ],
            replan_input: kmp::biased_text(n, 15, 1, 2),
            expect_patches: false,
        },
    ]
}

/// One scenario's measured row.
struct Row {
    name: &'static str,
    plan_pct: f64,
    drifted_pct: f64,
    patched_pct: f64,
    replan_pct: f64,
    verified: usize,
    rolled_back: usize,
    rejected: usize,
    unresolved: usize,
    diags: usize,
    quarantined: usize,
    gate_cache_hits: usize,
    segment_runs: usize,
    ok: bool,
    why: String,
}

fn run_scenario(s: &Scenario) -> Result<Row, String> {
    memo::clear();
    let r = run_pipeline_adaptive(&s.module, &[], &s.segments, AdaptiveConfig::default())
        .map_err(|e| format!("{}: adaptive pipeline failed: {e}", s.name))?;
    memo::clear();
    let replan = run_pipeline(&s.module, &[], &s.replan_input, PipelineConfig::default())
        .map_err(|e| format!("{}: re-plan baseline failed: {e}", s.name))?;

    let plan_pct = r.segments.first().map_or(0.0, |m| m.misprediction_percent);
    let drifted_pct = r
        .segments
        .get(1)
        .map_or(plan_pct, |m| m.misprediction_percent);
    let patched_pct = r
        .segments
        .last()
        .map_or(plan_pct, |m| m.misprediction_percent);
    let replan_pct = replan.replicated_misprediction_percent;

    let count = |o: PatchOutcome| r.patch_log.iter().filter(|p| p.outcome == o).count();
    let verified = count(PatchOutcome::Verified);
    let rolled_back = count(PatchOutcome::RolledBack);
    let rejected = count(PatchOutcome::RejectedByGate) + count(PatchOutcome::RejectedByPolicy);
    let unresolved = count(PatchOutcome::Committed);

    // Acceptance bars. Honest drift must land within 10% relative of
    // the from-scratch re-plan (half a point of absolute slack keeps
    // near-zero targets meaningful), every commit must resolve, and the
    // respec layer must finish with a clean bill: no rollbacks, no
    // diagnostics, no quarantine. The control must not patch at all.
    let mut why = String::new();
    let fail = |msg: String, why: &mut String| {
        if !why.is_empty() {
            why.push_str("; ");
        }
        why.push_str(&msg);
    };
    if s.expect_patches {
        if verified == 0 {
            fail("no patch survived verification".to_string(), &mut why);
        }
        if patched_pct > replan_pct * 1.10 + 0.5 {
            fail(
                format!("patched {patched_pct:.2}% not within 10% of re-plan {replan_pct:.2}%"),
                &mut why,
            );
        }
    } else if !r.patch_log.is_empty() {
        fail(
            format!("control run patched {} time(s)", r.patch_log.len()),
            &mut why,
        );
    }
    if rolled_back + rejected + unresolved > 0 {
        fail(
            format!(
                "patch log not clean: {rolled_back} rolled back, {rejected} rejected, \
                 {unresolved} unresolved"
            ),
            &mut why,
        );
    }
    if !r.respec_diags.is_empty() {
        fail(
            format!("{} respec diagnostic(s)", r.respec_diags.len()),
            &mut why,
        );
    }
    if !r.quarantined_sites.is_empty() {
        fail(
            format!("{} quarantined site(s)", r.quarantined_sites.len()),
            &mut why,
        );
    }

    Ok(Row {
        name: s.name,
        plan_pct,
        drifted_pct,
        patched_pct,
        replan_pct,
        verified,
        rolled_back,
        rejected,
        unresolved,
        diags: r.respec_diags.len(),
        quarantined: r.quarantined_sites.len(),
        gate_cache_hits: r.gate_cache_hits,
        segment_runs: r.segment_runs,
        ok: why.is_empty(),
        why,
    })
}

/// Validates the emitted document's schema; the bin gates its own
/// output so CI needs no external JSON tooling.
fn check_schema(doc: &str) -> Result<(), String> {
    let parsed = json::parse(doc).map_err(|(at, msg)| format!("byte {at}: {msg}"))?;
    for key in ["tool", "scale", "ok", "scenarios"] {
        if parsed.get(key).is_none() {
            return Err(format!("missing top-level key {key:?}"));
        }
    }
    let scenarios = parsed
        .get("scenarios")
        .and_then(|s| s.as_arr())
        .ok_or("scenarios is not an array")?;
    if scenarios.is_empty() {
        return Err("scenarios is empty".to_string());
    }
    for (i, s) in scenarios.iter().enumerate() {
        for key in [
            "name",
            "plan_pct",
            "drifted_pct",
            "patched_pct",
            "replan_pct",
            "verified",
            "rolled_back",
            "segment_runs",
            "ok",
        ] {
            if s.get(key).is_none() {
                return Err(format!("scenario {i}: missing key {key:?}"));
            }
        }
    }
    Ok(())
}

fn main() {
    let json_mode = json_flag("respec");
    let scale = scale_from_env();

    let mut rows = Vec::new();
    let mut failed = false;
    for s in scenarios(scale) {
        match run_scenario(&s) {
            Ok(row) => {
                failed |= !row.ok;
                rows.push(row);
            }
            Err(msg) => {
                eprintln!("respec: {msg}");
                failed = true;
            }
        }
    }

    let scenario_json: Vec<String> = rows
        .iter()
        .map(|r| {
            json::Obj::new()
                .str("name", r.name)
                .num("plan_pct", r.plan_pct)
                .num("drifted_pct", r.drifted_pct)
                .num("patched_pct", r.patched_pct)
                .num("replan_pct", r.replan_pct)
                .int("verified", r.verified as u64)
                .int("rolled_back", r.rolled_back as u64)
                .int("rejected", r.rejected as u64)
                .int("unresolved", r.unresolved as u64)
                .int("diags", r.diags as u64)
                .int("quarantined", r.quarantined as u64)
                .int("gate_cache_hits", r.gate_cache_hits as u64)
                .int("segment_runs", r.segment_runs as u64)
                .bool("ok", r.ok)
                .str("why", &r.why)
                .build()
        })
        .collect();
    let doc = json::Obj::new()
        .str("tool", "respec")
        .str("scale", scale_name(scale))
        .bool("ok", !failed)
        .raw("scenarios", &json::array(&scenario_json))
        .build();

    if let Err(msg) = check_schema(&doc) {
        eprintln!("respec: emitted JSON fails its own schema: {msg}");
        std::process::exit(1);
    }

    if json_mode {
        println!("{doc}");
    } else {
        println!(
            "{:<15} {:>8} {:>9} {:>9} {:>9} {:>4} {:>5} {:>6} {:>5}  status",
            "scenario", "plan %", "drift %", "patch %", "replan %", "ok'd", "roll", "cache", "runs"
        );
        println!("{}", "-".repeat(90));
        for r in &rows {
            println!(
                "{:<15} {:>8.3} {:>9.3} {:>9.3} {:>9.3} {:>4} {:>5} {:>6} {:>5}  {}",
                r.name,
                r.plan_pct,
                r.drifted_pct,
                r.patched_pct,
                r.replan_pct,
                r.verified,
                r.rolled_back,
                r.gate_cache_hits,
                r.segment_runs,
                if r.ok { "ok" } else { &r.why }
            );
        }
        println!("{}", "-".repeat(90));
        if failed {
            println!("FAIL: a drift scenario missed its acceptance bar");
        } else {
            println!(
                "OK: every drift recovers within 10% of a from-scratch re-plan, \
                 the control never patches"
            );
        }
    }
    if failed {
        std::process::exit(1);
    }
}
