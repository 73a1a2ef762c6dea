//! The four gate families over the paper's eight programs plus the
//! closed-form `kmp` calibration workload, in one deterministic report.
//!
//! Each program is profiled once, classified and estimated once
//! ([`brepl_analysis::classify_module`], [`brepl_analysis::estimate_profile`]),
//! and shipped twice with `strict: true`: planned from the profile
//! (`run_pipeline`) and planned from the static estimate alone
//! (`run_pipeline_static`). Strict mode turns any gate error into a
//! failed row instead of a quarantine. The verdicts and warnings come from
//! the pipeline result, plus the lints of the shipped program; the static
//! misprediction bound folds the profiling trace through the shipped
//! program ([`brepl_analysis::static_cost`]).
//!
//! Four sections follow, one per gate family:
//!
//! * **validation** (`BR001`–`BR008` and the lints): blocks, growth;
//! * **history** (`BR009`–`BR012`): machine sites, static bound vs.
//!   simulated misprediction, growth;
//! * **classification** (`BR013`–`BR018`): proved / exactly-biased /
//!   profile-dependent sites and planner skips;
//! * **estimate** (`BR019`–`BR022`): exact / heuristic sites, mean
//!   absolute bias error over the compared sites, and the measured
//!   misprediction of the profile-planned vs. the static-planned program.
//!
//! The run fails (exit 1) on a pipeline error on either path, a failed
//! profiling run, a cost-replay error, a bound below the simulated rate,
//! an unconverged classification or propagation, a conservation
//! violation, or an error-severity diagnostic. With `--json` the same
//! rows are one `{"tool":"gates",…}` document.

use brepl::pipeline::{
    run_pipeline, run_pipeline_static, ClassificationSummary, EstimateSummary, PipelineConfig,
};
use brepl_analysis::{
    bias_error, classify_module, estimate_profile, lint_module, static_cost, DiagCode, Severity,
};
use brepl_bench::{json, json_flag, scale_from_env, scale_name};
use brepl_workloads::{all_workloads, workload_by_name, Workload};

/// Rendered diagnostics of one gate family.
#[derive(Default)]
struct Diags {
    rendered: Vec<String>,
    errors: usize,
}

impl Diags {
    fn warnings(&self) -> usize {
        self.rendered.len() - self.errors
    }
}

/// One program's numbers across the four gate families.
struct Row {
    blocks: usize,
    growth: f64,
    sites: usize,
    bound_pct: f64,
    sim_pct: f64,
    cls: ClassificationSummary,
    est: EstimateSummary,
    conserved: bool,
    bias_err: f64,
    compared: usize,
    static_pct: f64,
    static_sites: usize,
    /// Per family, in [`SECTIONS`] order.
    diags: [Diags; 4],
}

/// The last code of each family but the estimate's, in [`SECTIONS`]
/// order.
const FAMILY_ENDS: [DiagCode; 3] = [
    DiagCode::InvalidReplicaMap,
    DiagCode::ProductFixpointFailure,
    DiagCode::ConstantConditionBranch,
];

impl Row {
    /// The verdicts that fail the run although the row was computed.
    fn problems(&self) -> Vec<String> {
        let mut out = Vec::new();
        if self.bound_pct + 1e-9 < self.sim_pct {
            out.push(format!(
                "bound violated: static {:.4}% < simulated {:.4}%",
                self.bound_pct, self.sim_pct
            ));
        }
        if !self.cls.converged {
            out.push("classification fixpoint did not converge".into());
        }
        if !self.est.converged {
            out.push("frequency propagation diverged".into());
        }
        if !self.conserved {
            out.push("flow conservation violated".into());
        }
        let errors: usize = self.diags.iter().map(|d| d.errors).sum();
        if errors > 0 {
            out.push(format!("{errors} error-severity diagnostic(s)"));
        }
        out
    }
}

/// Profiles, analyses and ships one program; any error ends its row.
fn gate(w: &Workload) -> Result<Row, String> {
    let strict = || PipelineConfig {
        strict: true,
        ..PipelineConfig::default()
    };
    let trace = w.run().map_err(|e| format!("profile run: {e}"))?.trace;
    let cls = classify_module(&w.module);
    let profile = estimate_profile(&w.module, &cls);
    let r = run_pipeline(&w.module, &w.args, &w.input, strict())
        .map_err(|e| format!("pipeline: {e}"))?;
    let planned = run_pipeline_static(&w.module, &w.args, &w.input, strict())
        .map_err(|e| format!("static pipeline: {e}"))?;
    let shipped = &r.program;
    let cost = static_cost(
        &shipped.module,
        &shipped.provenance,
        &shipped.predictions,
        &trace,
        "main",
    )
    .map_err(|e| format!("cost replay: {e}"))?;

    let mut diags: [Diags; 4] = Default::default();
    for d in r.warnings.iter().chain(&lint_module(&shipped.module)) {
        let family = FAMILY_ENDS.iter().filter(|&&end| d.code > end).count();
        // Round gates (validation, history) point into the shipped
        // program, the others into the original.
        let module = [&shipped.module, &shipped.module, &w.module, &w.module][family];
        diags[family].errors += usize::from(d.severity() == Severity::Error);
        diags[family].rendered.push(d.render(module));
    }
    let (bias_err, compared) = bias_error(&profile, &trace.stats());
    let blocks = shipped.module.iter_functions().map(|(_, f)| f.blocks.len());
    Ok(Row {
        blocks: blocks.sum(),
        growth: r.size_growth,
        // Machine-controlled sites of the shipped plan: the history
        // checker's subjects.
        sites: r
            .selection
            .to_plan_filtered(|site| r.replicated_sites.contains(&site))
            .history_spec()
            .len(),
        bound_pct: cost.bound_percent(),
        sim_pct: r.replicated_misprediction_percent,
        cls: r.classification,
        est: r.estimate,
        conserved: profile.check_conservation(&w.module).is_empty(),
        bias_err,
        compared,
        static_pct: planned.replicated_misprediction_percent,
        static_sites: planned.replicated_sites.len(),
        diags,
    })
}

/// One value of a section.
enum Val {
    Count(usize),
    /// A float with its text precision and unit suffix.
    Real(f64, usize, &'static str),
    Flag(bool),
}

use Val::{Count, Flag, Real};

/// One column of a section: its text header and width (width 0: JSON
/// only), its JSON key, and its value.
struct Col(&'static str, usize, &'static str, fn(&Row) -> Val);

struct Section {
    title: &'static str,
    key: &'static str,
    cols: &'static [Col],
}

const SECTIONS: [Section; 4] = [
    Section {
        title: "validation (BR001-BR008, lints)",
        key: "validation",
        cols: &[
            Col("blocks", 8, "blocks", |r| Count(r.blocks)),
            Col("growth", 8, "growth", |r| Real(r.growth, 2, "x")),
            Col("errors", 8, "errors", |r| Count(r.diags[0].errors)),
            Col("warns", 8, "warnings", |r| Count(r.diags[0].warnings())),
        ],
    },
    Section {
        title: "history (BR009-BR012)",
        key: "history",
        cols: &[
            Col("sites", 6, "sites", |r| Count(r.sites)),
            Col("bound %", 9, "bound_percent", |r| Real(r.bound_pct, 3, "%")),
            Col("sim %", 9, "simulated_percent", |r| Real(r.sim_pct, 3, "%")),
            Col("growth", 8, "growth", |r| Real(r.growth, 2, "x")),
            Col("errors", 7, "errors", |r| Count(r.diags[1].errors)),
            Col("warns", 6, "warnings", |r| Count(r.diags[1].warnings())),
        ],
    },
    Section {
        title: "classification (BR013-BR018)",
        key: "classification",
        cols: &[
            Col("proved", 6, "sites_proved", |r| Count(r.cls.proved)),
            Col("biased", 6, "sites_biased", |r| Count(r.cls.bounded)),
            Col("dep", 6, "sites_dependent", |r| Count(r.cls.dependent)),
            Col("skip", 5, "planner_skips", |r| Count(r.cls.planner_skips)),
            Col("", 0, "converged", |r| Flag(r.cls.converged)),
            Col("errors", 6, "errors", |r| Count(r.diags[2].errors)),
            Col("warns", 5, "warnings", |r| Count(r.diags[2].warnings())),
        ],
    },
    Section {
        title: "estimate (BR019-BR022)",
        key: "estimate",
        cols: &[
            Col("exact", 5, "sites_exact", |r| Count(r.est.exact_sites)),
            Col("heur", 5, "sites_heuristic", |r| {
                Count(r.est.heuristic_sites)
            }),
            Col("", 0, "converged", |r| Flag(r.est.converged)),
            Col("", 0, "conserved", |r| Flag(r.conserved)),
            Col("bias err", 9, "bias_mean_abs_error", |r| {
                Real(r.bias_err, 4, "")
            }),
            Col("sites", 6, "sites_compared", |r| Count(r.compared)),
            Col("profile %", 10, "profile_planned_mispredict_pct", |r| {
                Real(r.sim_pct, 3, "")
            }),
            Col("static %", 10, "static_planned_mispredict_pct", |r| {
                Real(r.static_pct, 3, "")
            }),
            Col("", 0, "static_replicated_sites", |r| Count(r.static_sites)),
            Col("", 0, "errors", |r| Count(r.diags[3].errors)),
            Col("", 0, "warnings", |r| Count(r.diags[3].warnings())),
        ],
    },
];

/// Prints each section: its title, header, a line per program (or its
/// failure) with the family's diagnostics beneath, and a rule.
fn print_text(results: &[(&str, Result<Row, String>)]) {
    for (family, section) in SECTIONS.iter().enumerate() {
        let text_cols = || section.cols.iter().filter(|c| c.1 > 0);
        let mut header = format!("{:<12}", "program");
        for Col(head, width, ..) in text_cols() {
            header += &format!(" {head:>width$}");
        }
        let rule = "-".repeat(header.len());
        println!("{}\n{header}\n{rule}", section.title);
        for (name, result) in results {
            let row = match result {
                Ok(row) => row,
                Err(msg) => {
                    println!("{name:<12} FAILED: {msg}");
                    continue;
                }
            };
            let mut line = format!("{name:<12}");
            for Col(_, width, _, value) in text_cols() {
                line += &match value(row) {
                    Count(n) => format!(" {n:>width$}"),
                    Real(x, prec, unit) => {
                        format!(" {x:>w$.prec$}{unit}", w = width - unit.len())
                    }
                    Flag(b) => format!(" {b:>width$}"),
                };
            }
            println!("{line}");
            for d in &row.diags[family].rendered {
                println!("    {d}");
            }
        }
        println!("{rule}\n");
    }
}

fn row_json(name: &str, result: &Result<Row, String>) -> String {
    let row = match result {
        Ok(row) => row,
        Err(msg) => return json::Obj::new().str("name", name).str("error", msg).build(),
    };
    let mut obj = json::Obj::new().str("name", name);
    for (family, section) in SECTIONS.iter().enumerate() {
        let mut fields = json::Obj::new();
        for Col(_, _, key, value) in section.cols {
            fields = match value(row) {
                Count(n) => fields.int(key, n as u64),
                Real(x, ..) => fields.num(key, x),
                Flag(b) => fields.bool(key, b),
            };
        }
        let diags = json::string_array(&row.diags[family].rendered);
        obj = obj.raw(section.key, &fields.raw("diags", &diags).build());
    }
    obj.build()
}

fn main() {
    let json_mode = json_flag("gates");
    let scale = scale_from_env();
    // The paper's eight programs plus the closed-form calibration
    // workload, which is deliberately outside `all_workloads`.
    let mut suite = all_workloads(scale);
    suite.push(workload_by_name("kmp", scale).expect("kmp workload exists"));
    let results: Vec<(&str, Result<Row, String>)> = suite
        .iter()
        .map(|w| w.name)
        .zip(brepl_core::par_map(&suite, gate))
        .collect();

    let mut failures = Vec::new();
    for (name, result) in &results {
        match result {
            Ok(row) => failures.extend(row.problems().iter().map(|p| format!("{name}: {p}"))),
            Err(msg) => failures.push(format!("{name}: {msg}")),
        }
    }
    let ok = failures.is_empty();
    if json_mode {
        let rows: Vec<String> = results.iter().map(|(n, r)| row_json(n, r)).collect();
        println!(
            "{}",
            json::Obj::new()
                .str("tool", "gates")
                .str("scale", scale_name(scale))
                .bool("ok", ok)
                .raw("failures", &json::string_array(&failures))
                .raw("programs", &json::array(&rows))
                .build()
        );
    } else {
        print_text(&results);
        if ok {
            println!(
                "OK: every program passes all four gate families and ships from the \
                 static profile"
            );
        }
        for f in &failures {
            println!("FAIL: {f}");
        }
    }
    if !ok {
        std::process::exit(1);
    }
}
