//! # brepl-workloads — the benchmark suite, written in the brepl IR
//!
//! The paper evaluates eight programs (abalone, a C compiler front end,
//! compress, ghostview, its own predict tool, a Prolog interpreter, an
//! instruction scheduler, and the SPEC floating-point code doduc). Those
//! binaries and datasets are unavailable, so — per the substitution rule in
//! DESIGN.md — this crate implements behaviorally analogous programs *in
//! the IR itself*: real algorithms of the same genre, whose branch
//! behavior exhibits the same phenomena the paper exploits (biased
//! branches, periodic intra-loop branches, iteration-count-regular exit
//! branches, and branches correlated with earlier branches).
//!
//! | name | genre | core algorithm |
//! |------|-------|----------------|
//! | `abalone` | game tree search | negamax with alpha-beta over a pile game |
//! | `c-compiler` | compiler front end | lexer + recursive-descent parser + constant folding |
//! | `compress` | data compression | LZW with a hash-table dictionary |
//! | `ghostview` | rendering | vector-drawing interpreter rasterizing into a framebuffer |
//! | `predict` | profiling tool | branch-trace analyzer simulating 2-bit counters |
//! | `prolog` | logic programming | unification + depth-first resolution with backtracking |
//! | `scheduler` | compiler back end | list scheduler over dependence DAGs |
//! | `doduc` | numeric (FP) | Jacobi relaxation + particle stepping kernels |
//!
//! Beyond the paper's eight, [`workload_by_name`] also serves `kmp` — a
//! Morris–Pratt matcher over random binary text whose branch rates have
//! closed forms, used to validate the static profile estimator against
//! real math. It is deliberately excluded from [`all_workloads`] so the
//! Table 1 reproduction stays exactly the paper's suite.
//!
//! ```
//! use brepl_workloads::{all_workloads, Scale};
//! let suite = all_workloads(Scale::Small);
//! assert_eq!(suite.len(), 8);
//! let compress = suite.iter().find(|w| w.name == "compress").unwrap();
//! let outcome = compress.run().unwrap();
//! assert!(outcome.trace.len() > 1_000);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod abalone;
mod c_compiler;
mod compress;
mod doduc;
mod ghostview;
pub mod kmp;
mod predict_tool;
mod prolog;
mod scheduler;
pub mod synth;
pub(crate) mod util;

use brepl_ir::{Module, Value};
use brepl_sim::{Machine, Outcome, RunConfig, RunError};

/// How much work a workload performs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Scale {
    /// Tens of thousands of branches — fast enough for debug-mode tests.
    Small,
    /// Millions of branches — the scale used by the benchmark harness.
    Full,
}

/// A ready-to-run benchmark program.
#[derive(Clone, Debug)]
pub struct Workload {
    /// The benchmark name, matching the paper's Table 1 column.
    pub name: &'static str,
    /// One-line description.
    pub description: &'static str,
    /// The program.
    pub module: Module,
    /// Entry-function arguments.
    pub args: Vec<Value>,
    /// Input tape consumed by the `in()` intrinsic.
    pub input: Vec<Value>,
}

impl Workload {
    /// Runs the workload and returns the outcome (result, trace, steps).
    ///
    /// # Errors
    ///
    /// Propagates any [`RunError`] — the suite is expected to run clean, so
    /// tests treat an error as failure.
    pub fn run(&self) -> Result<Outcome, RunError> {
        let mut machine = Machine::new(&self.module, RunConfig::default())?;
        machine.set_input(self.input.clone());
        machine.run("main", &self.args)
    }

    /// Runs and returns the output tape alongside the outcome.
    ///
    /// # Errors
    ///
    /// Propagates any [`RunError`].
    pub fn run_with_output(&self) -> Result<(Outcome, Vec<Value>), RunError> {
        let mut machine = Machine::new(&self.module, RunConfig::default())?;
        machine.set_input(self.input.clone());
        let outcome = machine.run("main", &self.args)?;
        Ok((outcome, machine.output().to_vec()))
    }
}

/// Builds the full eight-program suite at the given scale.
pub fn all_workloads(scale: Scale) -> Vec<Workload> {
    vec![
        abalone::build(scale),
        c_compiler::build(scale),
        compress::build(scale),
        ghostview::build(scale),
        predict_tool::build(scale),
        prolog::build(scale),
        scheduler::build(scale),
        doduc::build(scale),
    ]
}

/// Builds one workload by name.
pub fn workload_by_name(name: &str, scale: Scale) -> Option<Workload> {
    workload_with_seed(name, scale, 0)
}

/// Builds one workload with an alternate input dataset — seed 0 is the
/// reference dataset used everywhere else; other seeds generate inputs of
/// the same shape but different content, for Fisher–Freudenberger style
/// cross-dataset studies (the paper's "further work").
pub fn workload_with_seed(name: &str, scale: Scale, seed: u64) -> Option<Workload> {
    let w = match name {
        "abalone" => abalone::build_seeded(scale, seed),
        "c-compiler" => c_compiler::build_seeded(scale, seed),
        "compress" => compress::build_seeded(scale, seed),
        "ghostview" => ghostview::build_seeded(scale, seed),
        "kmp" => kmp::build_seeded(scale, seed),
        "predict" => predict_tool::build_seeded(scale, seed),
        "prolog" => prolog::build_seeded(scale, seed),
        "scheduler" => scheduler::build_seeded(scale, seed),
        "doduc" => doduc::build_seeded(scale, seed),
        _ => return None,
    };
    Some(w)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_workload_verifies_and_runs() {
        for w in all_workloads(Scale::Small) {
            let verified = w.module.verify().map_err(|e| format!("{}: {e}", w.name));
            verified.expect("workload module verifies");
            let outcome = w
                .run()
                .map_err(|e| format!("{} failed to run: {e}", w.name));
            let outcome = outcome.expect("workload runs");
            assert!(
                outcome.trace.len() > 1_000,
                "{} produced only {} branches",
                w.name,
                outcome.trace.len()
            );
        }
    }

    #[test]
    fn workloads_are_deterministic() {
        for w in all_workloads(Scale::Small) {
            let a = w.run().unwrap();
            let b = w.run().unwrap();
            assert_eq!(a.result, b.result, "{}", w.name);
            assert_eq!(a.trace.len(), b.trace.len(), "{}", w.name);
        }
    }

    #[test]
    fn lookup_by_name() {
        assert!(workload_by_name("compress", Scale::Small).is_some());
        assert!(workload_by_name("nope", Scale::Small).is_none());
    }

    #[test]
    fn full_scale_is_larger() {
        let small = workload_by_name("compress", Scale::Small).unwrap();
        let full = workload_by_name("compress", Scale::Full).unwrap();
        assert!(full.input.len() > small.input.len());
    }
}
