//! Witness-independent static checking over the whole suite: replicates
//! every workload with the default pipeline settings, then
//!
//! * re-proves the history encoding with [`brepl_analysis::check_history`]
//!   (product of the replicated CFG with each planned machine's transition
//!   table — the replica-map witness is never consulted), and
//! * computes the static misprediction bound with
//!   [`brepl_analysis::static_cost`] (folding the profiling trace through
//!   the replicated control flow) next to the simulator-measured rate.
//!
//! Prints one row per workload (machine-controlled sites, static bound vs.
//! simulated misprediction, size growth, error/warning counts, checker wall
//! time) and exits non-zero on any error-severity diagnostic
//! (BR009/BR010/BR012), any cost-replay failure, or a bound below the
//! simulated rate — the CI gate behind the witness validator.
//!
//! With `--json` the same data is emitted as one machine-readable JSON
//! document on stdout (stable schema shared with `validate --json`),
//! including any per-site quarantine records the pipeline produced.

use std::time::Instant;

use brepl::pipeline::{run_pipeline, PipelineConfig};
use brepl_analysis::{check_history, count_by_severity, static_cost};
use brepl_bench::{json, quarantine_json, scale_from_env};
use brepl_sim::{Machine, RunConfig};
use brepl_workloads::all_workloads;

fn main() {
    let json_mode = std::env::args().any(|a| a == "--json");
    let scale = scale_from_env();
    if !json_mode {
        println!(
            "{:<12} {:>6} {:>9} {:>9} {:>8} {:>7} {:>6} {:>10}",
            "program", "sites", "bound %", "sim %", "growth", "errors", "warns", "check µs"
        );
        println!("{}", "-".repeat(75));
    }

    let mut total_errors = 0usize;
    let mut failed = false;
    let mut rows: Vec<String> = Vec::new();
    let fail_row = |rows: &mut Vec<String>, name: &str, kind: &str, msg: String| {
        if json_mode {
            rows.push(json::Obj::new().str("name", name).str(kind, &msg).build());
        } else {
            println!(
                "{name:<12} {}: {msg}",
                kind.to_uppercase().replace('_', " ")
            );
        }
    };
    for w in all_workloads(scale) {
        // Both static gates run inside the pipeline too; strict mode turns
        // any gate that fires there into a typed pipeline error (a failed
        // row), and the timing below measures one extra checker pass over
        // the shipped program.
        let config = PipelineConfig {
            strict: true,
            dynamic_backstop: false,
            ..PipelineConfig::default()
        };
        let r = match run_pipeline(&w.module, &w.args, &w.input, config) {
            Ok(r) => r,
            Err(e) => {
                fail_row(&mut rows, w.name, "pipeline_error", format!("{e}"));
                failed = true;
                continue;
            }
        };

        // The spec comes from the shipped plan — the transform's input.
        let plan = r
            .selection
            .to_plan_filtered(|site| r.replicated_sites.contains(&site));
        let spec = plan.history_spec();

        let start = Instant::now();
        let diags = check_history(
            &r.program.module,
            &r.program.provenance,
            &spec,
            &r.program.predictions,
        );
        let micros = start.elapsed().as_micros();
        let (errors, warnings) = count_by_severity(&diags);
        total_errors += errors;

        // Profile the original once more for the cost fold.
        let mut machine = Machine::new(&w.module, RunConfig::default()).unwrap();
        machine.set_input(w.input.clone());
        let trace = match machine.run("main", &w.args) {
            Ok(outcome) => outcome.trace,
            Err(e) => {
                fail_row(&mut rows, w.name, "profile_error", format!("{e}"));
                failed = true;
                continue;
            }
        };
        let report = match static_cost(
            &w.module,
            &r.program.module,
            &r.program.provenance,
            &r.program.predictions,
            &trace,
            "main",
        ) {
            Ok(report) => report,
            Err(e) => {
                fail_row(&mut rows, w.name, "cost_replay_error", format!("{e}"));
                failed = true;
                continue;
            }
        };

        let bound = report.bound_percent();
        let simulated = r.replicated_misprediction_percent;
        let bound_violated = bound + 1e-9 < simulated;
        if bound_violated {
            failed = true;
            if !json_mode {
                println!(
                    "{:<12} BOUND VIOLATED: static {bound:.4}% < simulated {simulated:.4}%",
                    w.name
                );
            }
        }
        if json_mode {
            let rendered: Vec<String> = diags.iter().map(|d| d.render(&r.program.module)).collect();
            let quarantined: Vec<String> = r.quarantined.iter().map(quarantine_json).collect();
            rows.push(
                json::Obj::new()
                    .str("name", w.name)
                    .int("sites", spec.len() as u64)
                    .num("bound_percent", bound)
                    .num("simulated_percent", simulated)
                    .bool("bound_violated", bound_violated)
                    .num("growth", r.size_growth)
                    .int("errors", errors as u64)
                    .int("warnings", warnings as u64)
                    .int("check_us", micros as u64)
                    .raw("diags", &json::string_array(&rendered))
                    .raw("quarantined", &json::array(&quarantined))
                    .build(),
            );
        } else {
            println!(
                "{:<12} {:>6} {:>8.3}% {:>8.3}% {:>7.2}x {:>7} {:>6} {:>10}",
                w.name,
                spec.len(),
                bound,
                simulated,
                r.size_growth,
                errors,
                warnings,
                micros
            );
            for d in &diags {
                println!("    {}", d.render(&r.program.module));
            }
        }
    }

    let ok = !failed && total_errors == 0;
    if json_mode {
        println!(
            "{}",
            json::Obj::new()
                .str("tool", "staticcheck")
                .str(
                    "scale",
                    if scale == brepl_workloads::Scale::Full {
                        "full"
                    } else {
                        "small"
                    }
                )
                .bool("ok", ok)
                .int("total_errors", total_errors as u64)
                .raw("workloads", &json::array(&rows))
                .build()
        );
    } else {
        println!("{}", "-".repeat(75));
    }
    if !ok {
        if !json_mode {
            println!("FAIL: {total_errors} error-severity diagnostics");
        }
        std::process::exit(1);
    }
    if !json_mode {
        println!("OK: every workload passes witness-independent history checking");
    }
}
