//! # brepl-bench — the experiment harness
//!
//! One binary per table/figure of the paper, plus the suite-wide checks
//! CI runs:
//!
//! | binary | reproduces / checks |
//! |--------|---------------------|
//! | `table1` | Table 1 — misprediction of 8 strategies × 8 programs plus branch counts |
//! | `table2` | Table 2 — pattern-table fill rates, 1..9 history bits |
//! | `table3` | Table 3 — loop / loop-exit branches under state machines |
//! | `table4` | Table 4 — correlated branches under path machines |
//! | `table5` | Table 5 — best achievable misprediction, 2..10 states |
//! | `figures` | Figures 6–13 — misprediction vs code size per program |
//! | `headline` | the abstract's claim: misprediction nearly halved at ~1.3x size |
//! | `crossdata` | cross-dataset sensitivity: train on one input, evaluate on another |
//! | `ablation` | refinement, size budget and machine states varied one at a time |
//! | `gates` | the four gate families (`BR001`–`BR022`) over every program, profile- and static-planned |
//! | `fuzz` | differential fuzzing of random loop CFGs through the whole pipeline |
//! | `respec` | drift-recovery scenarios for runtime re-specialization |
//!
//! Scale selection: set `BREPL_SCALE=full` for the paper-sized runs
//! (millions of branches; use `--release`); the default `small` finishes
//! in seconds even in debug builds. Any other value is an error.
//!
//! Performance is measured by the separate `brbench` package at the
//! repository root, not here.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fuzz;
pub mod json;

use brepl_trace::Trace;
use brepl_workloads::{all_workloads, Scale, Workload};

/// Parses a `BREPL_SCALE` value: unset is `small`, `small` and `full`
/// name their scale, and anything else is an error naming the allowed
/// values.
fn parse_scale(value: Option<&str>) -> Result<Scale, String> {
    match value {
        None | Some("small") => Ok(Scale::Small),
        Some("full") => Ok(Scale::Full),
        Some(other) => Err(format!(
            "BREPL_SCALE={other:?} is not a scale; use `small` (the default) or `full`"
        )),
    }
}

/// The `BREPL_SCALE` value naming `scale`, as the `--json` documents
/// record it.
pub fn scale_name(scale: Scale) -> &'static str {
    match scale {
        Scale::Small => "small",
        Scale::Full => "full",
    }
}

/// Reads the scale from `BREPL_SCALE` (unset or `small` is
/// [`Scale::Small`], `full` is [`Scale::Full`]), exiting with status 2 on
/// any other value instead of silently running the small scale.
pub fn scale_from_env() -> Scale {
    let value = std::env::var_os("BREPL_SCALE").map(|v| v.to_string_lossy().into_owned());
    parse_scale(value.as_deref()).unwrap_or_else(|msg| {
        eprintln!("error: {msg}");
        std::process::exit(2);
    })
}

/// Parses a bin's command-line arguments (without the program name)
/// when `--json` is the only flag it takes: no arguments is text mode,
/// `--json` is JSON mode, and anything else is an error naming the
/// argument.
fn parse_json_flag<S: AsRef<str>>(args: &[S]) -> Result<bool, String> {
    let mut json = false;
    for arg in args.iter().map(AsRef::as_ref) {
        match arg {
            "--json" => json = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(json)
}

/// Reads `--json` from the process arguments, for a bin whose only flag
/// it is, printing the usage of `bin` and exiting with status 2 on
/// anything else.
pub fn json_flag(bin: &str) -> bool {
    let args: Vec<String> = std::env::args().skip(1).collect();
    parse_json_flag(&args).unwrap_or_else(|msg| {
        eprintln!("error: {msg}\nusage: {bin} [--json]");
        std::process::exit(2);
    })
}

/// A workload together with its profiling trace.
pub struct ProfiledWorkload {
    /// The workload.
    pub workload: Workload,
    /// Its branch trace.
    pub trace: Trace,
    /// Instructions executed during profiling (for the Fisher-Freudenberger
    /// instructions-per-misprediction metric).
    pub steps: u64,
}

/// Runs the whole suite once and keeps the traces, reporting a failed
/// workload as a typed error instead of unwinding out of a worker.
///
/// The eight programs profile independently, so the runs fan out over
/// [`brepl_core::engine`] workers (`BREPL_THREADS` overrides the count);
/// results come back in suite order, bit-identical to a serial run. On
/// failure the error names every workload that did not run.
fn try_profile_suite(scale: Scale) -> Result<Vec<ProfiledWorkload>, String> {
    let workloads = all_workloads(scale);
    let profiled = brepl_core::par_map(&workloads, |workload| {
        workload
            .run()
            .map(|outcome| (outcome.trace, outcome.steps))
            .map_err(|e| format!("{} failed: {e}", workload.name))
    });
    let failures: Vec<&String> = profiled.iter().filter_map(|r| r.as_ref().err()).collect();
    if !failures.is_empty() {
        let mut msg = String::from("workload profiling failed: ");
        for (i, f) in failures.iter().enumerate() {
            if i > 0 {
                msg.push_str("; ");
            }
            msg.push_str(f);
        }
        return Err(msg);
    }
    Ok(workloads
        .into_iter()
        .zip(profiled)
        .map(|(workload, r)| {
            let (trace, steps) = r.expect("failures handled above");
            ProfiledWorkload {
                workload,
                trace,
                steps,
            }
        })
        .collect())
}

/// Runs the whole suite once and keeps the traces, exiting the process
/// cleanly on failure — the entry the table/figure bins use so a bad
/// workload prints one error line instead of aborting mid-table with a
/// backtrace.
pub fn profile_suite(scale: Scale) -> Vec<ProfiledWorkload> {
    try_profile_suite(scale).unwrap_or_else(|msg| {
        eprintln!("error: {msg}");
        std::process::exit(1);
    })
}

/// Short column headers in the paper's order.
pub const COLUMNS: [&str; 8] = [
    "abalone", "c-comp", "compress", "ghostv", "predict", "prolog", "schedul", "doduc",
];

/// Prints a row of percentages under the standard column layout.
pub fn print_row(label: &str, values: &[f64]) {
    print!("{label:<24}");
    for v in values {
        print!(" {v:>8.2}");
    }
    println!();
}

/// Prints a row of integers under the standard column layout.
pub fn print_row_counts(label: &str, values: &[u64]) {
    print!("{label:<24}");
    for v in values {
        print!(" {v:>8}");
    }
    println!();
}

/// Prints the table header.
pub fn print_header(title: &str) {
    println!("{title}");
    print!("{:<24}", "");
    for c in COLUMNS {
        print!(" {c:>8}");
    }
    println!();
    println!("{}", "-".repeat(24 + 9 * COLUMNS.len()));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_scale_accepts_small_and_full_only() {
        assert_eq!(parse_scale(None), Ok(Scale::Small));
        assert_eq!(parse_scale(Some("small")), Ok(Scale::Small));
        assert_eq!(parse_scale(Some("full")), Ok(Scale::Full));
        for scale in [Scale::Small, Scale::Full] {
            assert_eq!(parse_scale(Some(scale_name(scale))), Ok(scale));
        }
        for bad in ["", "Full", "FULL", "large", "full "] {
            let err = parse_scale(Some(bad)).expect_err(bad);
            assert!(err.contains("`small`") && err.contains("`full`"), "{err}");
        }
    }

    #[test]
    fn parse_json_flag_accepts_only_json() {
        assert_eq!(parse_json_flag::<&str>(&[]), Ok(false));
        assert_eq!(parse_json_flag(&["--json"]), Ok(true));
        for bad in [&["--jsno"][..], &["json"], &["--json", "-v"], &[""]] {
            let err = parse_json_flag(bad).expect_err("rejected");
            assert!(err.contains("unknown argument"), "{err}");
        }
    }
}
