//! Static translation validation over the whole suite: replicates every
//! workload with the default pipeline settings, then checks the simulation
//! relation between original and replicated module with
//! [`brepl_analysis::validate_replication`] and runs the warning lints.
//!
//! Prints one row per workload (blocks checked, error/warning counts,
//! validator wall time) and exits non-zero if any workload produces an
//! error-severity diagnostic — the CI gate for the replicator.
//!
//! With `--json` the same data is emitted as one machine-readable JSON
//! document on stdout (stable schema shared with `staticcheck --json`),
//! including any per-site quarantine records the pipeline produced.

use std::time::Instant;

use brepl::pipeline::{run_pipeline, PipelineConfig};
use brepl_analysis::{count_by_severity, lint_module, validate_replication};
use brepl_bench::{json, quarantine_json, scale_from_env};
use brepl_workloads::all_workloads;

fn main() {
    let json_mode = std::env::args().any(|a| a == "--json");
    let scale = scale_from_env();
    if !json_mode {
        println!(
            "{:<12} {:>8} {:>8} {:>8} {:>8} {:>12}",
            "program", "blocks", "growth", "errors", "warns", "validate µs"
        );
        println!("{}", "-".repeat(62));
    }

    let mut total_errors = 0usize;
    let mut failed = false;
    let mut rows: Vec<String> = Vec::new();
    for w in all_workloads(scale) {
        // Validation runs inside the pipeline too; strict mode turns any
        // gate that fires there into a typed pipeline error (a failed
        // row), and the timing below measures one extra validator pass
        // over the shipped program.
        let config = PipelineConfig {
            strict: true,
            dynamic_backstop: false,
            ..PipelineConfig::default()
        };
        let r = match run_pipeline(&w.module, &w.args, &w.input, config) {
            Ok(r) => r,
            Err(e) => {
                if json_mode {
                    rows.push(
                        json::Obj::new()
                            .str("name", w.name)
                            .str("pipeline_error", &format!("{e}"))
                            .build(),
                    );
                } else {
                    println!("{:<12} PIPELINE FAILED: {e}", w.name);
                }
                failed = true;
                continue;
            }
        };

        let start = Instant::now();
        let mut diags = validate_replication(
            &w.module,
            &r.program.module,
            &r.program.replica_map,
            &r.program.predictions,
        );
        let micros = start.elapsed().as_micros();
        diags.extend(lint_module(&r.program.module));

        let (errors, warnings) = count_by_severity(&diags);
        total_errors += errors;
        let blocks: usize = r
            .program
            .module
            .iter_functions()
            .map(|(_, f)| f.blocks.len())
            .sum();
        if json_mode {
            let rendered: Vec<String> = diags.iter().map(|d| d.render(&r.program.module)).collect();
            let quarantined: Vec<String> = r.quarantined.iter().map(quarantine_json).collect();
            rows.push(
                json::Obj::new()
                    .str("name", w.name)
                    .int("blocks", blocks as u64)
                    .num("growth", r.size_growth)
                    .int("errors", errors as u64)
                    .int("warnings", warnings as u64)
                    .int("validate_us", micros as u64)
                    .raw("diags", &json::string_array(&rendered))
                    .raw("quarantined", &json::array(&quarantined))
                    .build(),
            );
        } else {
            println!(
                "{:<12} {:>8} {:>7.2}x {:>8} {:>8} {:>12}",
                w.name, blocks, r.size_growth, errors, warnings, micros
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
                .str("tool", "validate")
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
        println!("{}", "-".repeat(62));
    }
    if !ok {
        if !json_mode {
            println!("FAIL: {total_errors} error-severity diagnostics");
        }
        std::process::exit(1);
    }
    if !json_mode {
        println!("OK: every workload passes static translation validation");
    }
}
