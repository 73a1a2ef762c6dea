//! Full chaos matrix (requires `--features chaos`): every workload ×
//! every fault-injection point × both modes.
//!
//! For each cell the bin scans a few seeds until the injection fires, then
//! checks the degradation contract:
//!
//! * **default mode** — the run returns `Ok`, the victim site is named in
//!   `PipelineResult::quarantined` and absent from `replicated_sites`, and
//!   the *shipped* program re-validates clean from scratch (zero
//!   error-severity diagnostics from the witness validator);
//! * **strict mode** — the run aborts with a typed `PipelineError`
//!   (never a panic, never a silently shipped program).
//!
//! Prints one row per cell, or one JSON document with `--json`, and exits
//! non-zero if any cell violates the contract.

use brepl::core::chaos::{ChaosConfig, ChaosPoint};
use brepl::pipeline::{
    run_pipeline, PipelineConfig, PipelineError, PipelineResult, QuarantinedSite,
};
use brepl_analysis::{validate_replication, Severity};
use brepl_bench::{json, json_flag, scale_from_env};
use brepl_workloads::{all_workloads, Workload};

/// Seeds scanned per cell until the injection fires. Candidate mutations
/// are verified-effective, so the first seed almost always works; the scan
/// absorbs workloads where a particular victim has nothing to corrupt.
const SEED_SCAN: u64 = 8;

struct Cell {
    workload: &'static str,
    point: ChaosPoint,
    strict: bool,
    seed: Option<u64>,
    outcome: String,
    quarantined: Vec<String>,
    ok: bool,
}

/// Renders one pipeline quarantine record as JSON:
/// `{"site":"b12","gate":"validation","codes":["BR006"],"reason":"…","round":1}`.
fn quarantine_json(q: &QuarantinedSite) -> String {
    let codes: Vec<String> = q.codes.iter().map(|c| format!("{c}")).collect();
    json::Obj::new()
        .str("site", &format!("{}", q.site))
        .str("gate", q.gate.name())
        .raw("codes", &json::string_array(&codes))
        .str("reason", &q.reason)
        .int("round", q.round as u64)
        .build()
}

/// Runs one cell; panics inside the pipeline are caught and reported as
/// contract violations.
fn run_cell(w: &Workload, point: ChaosPoint, strict: bool) -> Cell {
    let mut cell = Cell {
        workload: w.name,
        point,
        strict,
        seed: None,
        outcome: String::new(),
        quarantined: Vec::new(),
        ok: false,
    };
    for seed in 0..SEED_SCAN {
        let config = PipelineConfig {
            strict,
            chaos: Some(ChaosConfig { seed, point }),
            ..PipelineConfig::default()
        };
        let run = std::panic::catch_unwind(|| run_pipeline(&w.module, &w.args, &w.input, config));
        match run {
            Err(_) => {
                cell.seed = Some(seed);
                cell.outcome = "PANIC".to_string();
                return cell;
            }
            Ok(Ok(result)) => {
                if result.chaos_injection.is_none() {
                    continue; // injection did not fire; try the next seed
                }
                cell.seed = Some(seed);
                if strict {
                    cell.outcome = "strict run returned Ok after injection".to_string();
                } else {
                    (cell.ok, cell.outcome) = check_default(w, &result);
                    cell.quarantined = result.quarantined.iter().map(quarantine_json).collect();
                }
                return cell;
            }
            Ok(Err(e)) => {
                cell.seed = Some(seed);
                if strict {
                    let typed = matches!(
                        e,
                        PipelineError::Validation(_)
                            | PipelineError::History(_)
                            | PipelineError::Trace(_)
                            | PipelineError::Replicate(_)
                    );
                    cell.ok = typed;
                    cell.outcome = if typed {
                        format!("typed abort: {}", error_kind(&e))
                    } else {
                        format!("wrong error type: {e}")
                    };
                } else {
                    cell.outcome = format!("default mode errored: {e}");
                }
                return cell;
            }
        }
    }
    cell.outcome = format!("injection never fired in seeds 0..{SEED_SCAN}");
    cell
}

/// Default-mode contract: victim quarantined, not shipped, and the shipped
/// program re-validates clean from scratch.
fn check_default(w: &Workload, result: &PipelineResult) -> (bool, String) {
    let injection = result.chaos_injection.as_ref().unwrap();
    let victim = injection.victim;
    if !result.quarantined.iter().any(|q| q.site == victim) {
        return (false, format!("victim {victim} not quarantined"));
    }
    if result.replicated_sites.contains(&victim) {
        return (false, format!("quarantined victim {victim} still shipped"));
    }
    let p = &result.program;
    let diags = validate_replication(&w.module, &p.module, &p.replica_map, &p.predictions);
    let errors = diags
        .iter()
        .filter(|d| d.severity() == Severity::Error)
        .count();
    if errors > 0 {
        return (
            false,
            format!("shipped program fails re-validation ({errors} errors)"),
        );
    }
    if p.module.verify().is_err() {
        return (false, "shipped module fails IR verification".to_string());
    }
    (
        true,
        format!(
            "quarantined {victim} ({}), shipped program re-validates clean",
            injection.description
        ),
    )
}

fn error_kind(e: &PipelineError) -> &'static str {
    match e {
        PipelineError::Validation(_) => "validation",
        PipelineError::History(_) => "history",
        PipelineError::Trace(_) => "trace",
        PipelineError::Replicate(_) => "replicate",
        _ => "other",
    }
}

fn main() {
    let json_mode = json_flag("chaos");
    let scale = scale_from_env();
    let workloads = all_workloads(scale);

    if !json_mode {
        println!(
            "{:<12} {:<24} {:<8} {:>4}  outcome",
            "program", "point", "mode", "seed"
        );
        println!("{}", "-".repeat(100));
    }

    let mut cells: Vec<Cell> = Vec::new();
    for w in &workloads {
        for point in ChaosPoint::ALL {
            for strict in [false, true] {
                let cell = run_cell(w, point, strict);
                if !json_mode {
                    println!(
                        "{:<12} {:<24} {:<8} {:>4}  {}{}",
                        cell.workload,
                        format!("{point}"),
                        if strict { "strict" } else { "default" },
                        cell.seed.map_or("-".to_string(), |s| s.to_string()),
                        if cell.ok { "" } else { "VIOLATION: " },
                        cell.outcome
                    );
                }
                cells.push(cell);
            }
        }
    }

    let violations = cells.iter().filter(|c| !c.ok).count();
    let ok = violations == 0;
    if json_mode {
        let rendered: Vec<String> = cells
            .iter()
            .map(|c| {
                let mut o = json::Obj::new()
                    .str("workload", c.workload)
                    .str("point", &format!("{}", c.point))
                    .str("mode", if c.strict { "strict" } else { "default" })
                    .bool("ok", c.ok)
                    .str("outcome", &c.outcome)
                    .raw("quarantined", &json::array(&c.quarantined));
                if let Some(seed) = c.seed {
                    o = o.int("seed", seed);
                }
                o.build()
            })
            .collect();
        println!(
            "{}",
            json::Obj::new()
                .str("tool", "chaos")
                .int("cells", cells.len() as u64)
                .int("violations", violations as u64)
                .bool("ok", ok)
                .raw("results", &json::array(&rendered))
                .build()
        );
    } else {
        println!("{}", "-".repeat(100));
        if ok {
            println!(
                "OK: {} cells (workload × point × mode) — every fault caught, \
                 quarantined in default mode, typed abort in strict mode",
                cells.len()
            );
        } else {
            println!("FAIL: {violations} contract violation(s)");
        }
    }
    if !ok {
        std::process::exit(1);
    }
}
