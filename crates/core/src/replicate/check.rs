//! Dynamic semantic-equivalence checking between an original module and
//! its replicated version: replication must change *where* branches live,
//! not what the program does.
//!
//! This is the *backstop* behind the static translation validator
//! ([`brepl_analysis::validate_replication`]), which proves the simulation
//! relation on every block without executing anything. One concrete run
//! here still catches whatever a wrong witness map could hide.

use std::fmt;

use brepl_ir::{BranchId, Module, Value};
use brepl_sim::{Machine, Outcome, Run, RunConfig, RunError};
use brepl_trace::{SiteCounts, TraceStats};

use super::ReplicatedProgram;

/// An observed difference between original and replicated program.
#[derive(Clone, Debug, PartialEq)]
pub enum EquivalenceError {
    /// One of the runs trapped.
    Trap(String),
    /// Return values differ.
    ResultMismatch {
        /// Original program's result.
        original: Option<Value>,
        /// Replicated program's result.
        replicated: Option<Value>,
    },
    /// Output tapes differ.
    OutputMismatch,
    /// The replicated program executed *more* instructions — replication
    /// only relocates instructions, and the post-replication jump
    /// threading can only remove executed jumps, never add work.
    StepMismatch {
        /// Original step count.
        original: u64,
        /// Replicated step count.
        replicated: u64,
    },
    /// The per-original-site branch outcome counts differ (checked through
    /// the provenance map).
    BranchHistogramMismatch,
}

impl fmt::Display for EquivalenceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EquivalenceError::Trap(e) => write!(f, "a run trapped: {e}"),
            EquivalenceError::ResultMismatch {
                original,
                replicated,
            } => write!(f, "results differ: {original:?} vs {replicated:?}"),
            EquivalenceError::OutputMismatch => write!(f, "output tapes differ"),
            EquivalenceError::StepMismatch {
                original,
                replicated,
            } => write!(f, "step counts differ: {original} vs {replicated}"),
            EquivalenceError::BranchHistogramMismatch => {
                write!(f, "per-site branch histograms differ")
            }
        }
    }
}

impl std::error::Error for EquivalenceError {}

/// Runs both programs on the same input and verifies result, output tape
/// and the per-original-site branch histogram all match, and that the
/// replicated program executes no more instructions than the original.
/// Both runs only count their branches per site, as the pipeline's
/// measuring runs do; no trace is recorded.
///
/// # Errors
///
/// Returns the first [`EquivalenceError`] found.
pub fn check_equivalence(
    original: &Module,
    replicated: &ReplicatedProgram,
    entry: &str,
    args: &[Value],
    input: &[Value],
) -> Result<(), EquivalenceError> {
    let run = |module: &Module| -> Result<_, RunError> {
        let mut m = Machine::new(module, RunConfig::default())?;
        m.set_input(input.to_vec());
        let run = m.run_with(entry, args, &[], TraceStats::default())?;
        Ok((run, m.into_output()))
    };
    let (a, a_out) = run(original).map_err(|e| EquivalenceError::Trap(e.to_string()))?;
    let (b, b_out) = run(&replicated.module).map_err(|e| EquivalenceError::Trap(e.to_string()))?;
    check_equivalence_counts(
        replicated,
        RunCounts::of(&a, &a.sink, &a_out),
        RunCounts::of(&b, &b.sink, &b_out),
    )
}

/// What the backstop compares of one run: its result, step count,
/// per-site branch counts and output tape. A run that only counted its
/// branches ([`brepl_sim::Machine::run_with`] into a [`TraceStats`])
/// carries everything needed; no trace is read.
#[derive(Clone, Copy, Debug)]
pub struct RunCounts<'a> {
    /// The entry function's return value.
    pub result: Option<Value>,
    /// Instructions executed.
    pub steps: u64,
    /// Per-site taken/not-taken counts of the run's branches.
    pub counts: &'a TraceStats,
    /// The values the run wrote with `out()`.
    pub output: &'a [Value],
}

impl<'a> RunCounts<'a> {
    /// The observables of `run`, given its per-site `counts` (its own
    /// sink for a counting run) and its output tape.
    pub fn of<S>(run: &Run<S>, counts: &'a TraceStats, output: &'a [Value]) -> Self {
        RunCounts {
            result: run.result,
            steps: run.steps,
            counts,
            output,
        }
    }
}

/// [`check_equivalence`] on already-measured runs.
///
/// Callers that have just executed both programs (the pipeline profiles
/// the original and re-measures every replicated candidate anyway) pass
/// the outcomes and output tapes here instead of paying two more
/// full-length simulations — execution is deterministic, so the verdict
/// is identical either way. The traces are read only for their per-site
/// counts; this is [`check_equivalence_counts`] on `trace.stats()`.
///
/// # Errors
///
/// Returns the first [`EquivalenceError`] found.
pub fn check_equivalence_outcomes(
    replicated: &ReplicatedProgram,
    original_outcome: &Outcome,
    original_output: &[Value],
    replicated_outcome: &Outcome,
    replicated_output: &[Value],
) -> Result<(), EquivalenceError> {
    let (a, b) = (original_outcome, replicated_outcome);
    let (a_counts, b_counts) = (a.trace.stats(), b.trace.stats());
    check_equivalence_counts(
        replicated,
        RunCounts {
            result: a.result,
            steps: a.steps,
            counts: &a_counts,
            output: original_output,
        },
        RunCounts {
            result: b.result,
            steps: b.steps,
            counts: &b_counts,
            output: replicated_output,
        },
    )
}

/// The backstop's one comparison: equal results, equal output tapes, no
/// more steps on the replicated side, and equal per-original-site
/// taken/not-taken histograms, the replicated side folded through
/// `provenance`.
///
/// # Errors
///
/// Returns the first [`EquivalenceError`] found, in that order.
pub fn check_equivalence_counts(
    replicated: &ReplicatedProgram,
    original: RunCounts<'_>,
    replicated_run: RunCounts<'_>,
) -> Result<(), EquivalenceError> {
    let (a, b) = (original, replicated_run);
    if a.result != b.result {
        return Err(EquivalenceError::ResultMismatch {
            original: a.result,
            replicated: b.result,
        });
    }
    if a.output != b.output {
        return Err(EquivalenceError::OutputMismatch);
    }
    if b.steps > a.steps {
        return Err(EquivalenceError::StepMismatch {
            original: a.steps,
            replicated: b.steps,
        });
    }
    if !histograms_match(a.counts, b.counts, &replicated.provenance) {
        return Err(EquivalenceError::BranchHistogramMismatch);
    }
    Ok(())
}

/// Compares per-original-site `(taken, not-taken)` histograms, the
/// replicated side folded through `provenance` into a dense per-site
/// table — one step per executed site, not per event.
fn histograms_match(
    original: &TraceStats,
    replicated: &TraceStats,
    provenance: &[BranchId],
) -> bool {
    let n_sites = provenance.iter().map(|p| p.index() + 1).max().unwrap_or(0);
    let mut folded = vec![SiteCounts::default(); n_sites];
    for (site, c) in replicated.iter_executed() {
        let Some(orig) = provenance.get(site.index()) else {
            // A replicated site outside the provenance map cannot have an
            // original counterpart; the histograms cannot match.
            return false;
        };
        let f = &mut folded[orig.index()];
        f.taken += c.taken;
        f.not_taken += c.not_taken;
    }
    // Equal at every site: where the original executed, and where the
    // folded replica did.
    original
        .iter_executed()
        .all(|(site, c)| folded.get(site.index()) == Some(&c))
        && folded
            .iter()
            .enumerate()
            .all(|(i, c)| c.total() == 0 || original.site(BranchId::from_index(i)) == *c)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replicate::{apply_plan, ReplicationPlan};
    use brepl_ir::{FunctionBuilder, Operand};

    fn loop_module(step: i64) -> Module {
        let mut b = FunctionBuilder::new("main", 1);
        let n = b.param(0);
        let i = b.reg();
        b.const_int(i, 0);
        let head = b.new_block();
        let body = b.new_block();
        let exit = b.new_block();
        b.jmp(head);
        b.switch_to(head);
        let c = b.lt(i.into(), n.into());
        b.br(c, body, exit);
        b.switch_to(body);
        b.add(i, i.into(), Operand::imm(step));
        b.jmp(head);
        b.switch_to(exit);
        b.out(i.into());
        b.ret(Some(i.into()));
        let mut m = Module::new();
        m.push_function(b.finish());
        m
    }

    /// A loop of `n` iterations with an inner diamond taken on even `i`:
    /// two branch sites with different histograms (the loop head is taken
    /// `n` times, the diamond `n / 2`).
    fn diamond_module() -> Module {
        let mut b = FunctionBuilder::new("main", 1);
        let n = b.param(0);
        let i = b.reg();
        b.const_int(i, 0);
        let head = b.new_block();
        let body = b.new_block();
        let even = b.new_block();
        let latch = b.new_block();
        let exit = b.new_block();
        b.jmp(head);
        b.switch_to(head);
        let c = b.lt(i.into(), n.into());
        b.br(c, body, exit);
        b.switch_to(body);
        let r = b.reg();
        b.bin(brepl_ir::BinOp::And, r, i.into(), Operand::imm(1));
        let z = b.eq(r.into(), Operand::imm(0));
        b.br(z, even, latch);
        b.switch_to(even);
        b.jmp(latch);
        b.switch_to(latch);
        b.add(i, i.into(), Operand::imm(1));
        b.jmp(head);
        b.switch_to(exit);
        b.out(i.into());
        b.ret(Some(i.into()));
        let mut m = Module::new();
        m.push_function(b.finish());
        m
    }

    /// The identity replication of `m` (an empty plan).
    fn identity(m: &Module, args: &[Value]) -> ReplicatedProgram {
        let trace = Machine::new(m, RunConfig::default())
            .unwrap()
            .run("main", args)
            .unwrap()
            .trace;
        apply_plan(m, &ReplicationPlan::new(), &trace.stats()).unwrap()
    }

    /// The backstop verdict on `original` vs `program`, through both entry
    /// points: the recorded-trace wrapper and the counts check fed by
    /// counting runs. Asserts they agree.
    fn verdict(
        original: &Module,
        program: &ReplicatedProgram,
        args: &[Value],
    ) -> Result<(), EquivalenceError> {
        let recorded = |module: &Module| {
            let mut m = Machine::new(module, RunConfig::default()).unwrap();
            let outcome = m.run("main", args).unwrap();
            (outcome, m.output().to_vec())
        };
        let counted = |module: &Module| {
            let mut m = Machine::new(module, RunConfig::default()).unwrap();
            let run = m
                .run_with("main", args, &[], TraceStats::default())
                .unwrap();
            (run, m.output().to_vec())
        };
        let ((a, a_out), (b, b_out)) = (recorded(original), recorded(&program.module));
        let via_outcomes = check_equivalence_outcomes(program, &a, &a_out, &b, &b_out);
        let ((a, a_out), (b, b_out)) = (counted(original), counted(&program.module));
        let via_counts = check_equivalence_counts(
            program,
            RunCounts::of(&a, &a.sink, &a_out),
            RunCounts::of(&b, &b.sink, &b_out),
        );
        assert_eq!(via_outcomes, via_counts, "the two entry points disagree");
        via_counts
    }

    #[test]
    fn detects_output_mismatch() {
        // Same result and steps, different output tape: the replicated
        // module writes a constant where the original writes `i`.
        let m = loop_module(1);
        let mut program = identity(&m, &[Value::Int(10)]);
        let fid = program.module.function_by_name("main").unwrap();
        let exit = &mut program.module.function_mut(fid).blocks[3];
        let Some(brepl_ir::Inst::Intrin { args, .. }) = exit.insts.last_mut() else {
            panic!("the exit block ends with out(i)");
        };
        args[0] = Operand::imm(99);
        assert_eq!(
            verdict(&m, &program, &[Value::Int(10)]),
            Err(EquivalenceError::OutputMismatch)
        );
    }

    #[test]
    fn detects_branch_histogram_mismatch() {
        // Swapping the provenance of two sites with different histograms
        // leaves result, output and steps untouched; only the folded
        // per-site counts differ.
        let m = diamond_module();
        let args = [Value::Int(10)];
        let mut program = identity(&m, &args);
        assert_eq!(verdict(&m, &program, &args), Ok(()));
        program.provenance.swap(0, 1);
        assert_eq!(
            verdict(&m, &program, &args),
            Err(EquivalenceError::BranchHistogramMismatch)
        );
        // A replicated site with no provenance entry cannot match either.
        let mut program = identity(&m, &args);
        program.provenance.truncate(1);
        assert_eq!(
            verdict(&m, &program, &args),
            Err(EquivalenceError::BranchHistogramMismatch)
        );
    }

    #[test]
    fn identical_modules_are_equivalent() {
        let m = loop_module(1);
        let trace = brepl_sim::Machine::new(&m, brepl_sim::RunConfig::default())
            .unwrap()
            .run("main", &[Value::Int(10)])
            .unwrap()
            .trace;
        let program = apply_plan(&m, &ReplicationPlan::new(), &trace.stats()).unwrap();
        check_equivalence(&m, &program, "main", &[Value::Int(10)], &[]).unwrap();
    }

    #[test]
    fn detects_result_mismatch() {
        let m = loop_module(1);
        let other = loop_module(3);
        let trace = brepl_sim::Machine::new(&m, brepl_sim::RunConfig::default())
            .unwrap()
            .run("main", &[Value::Int(10)])
            .unwrap()
            .trace;
        let mut program = apply_plan(&m, &ReplicationPlan::new(), &trace.stats()).unwrap();
        program.module = other;
        // step=3 overshoots to 12 instead of 10.
        let err = check_equivalence(&m, &program, "main", &[Value::Int(10)], &[]).unwrap_err();
        assert!(matches!(err, EquivalenceError::ResultMismatch { .. }));
    }

    #[test]
    fn detects_extra_work() {
        // A module doing strictly more steps with identical observables.
        let m = loop_module(1);
        let mut padded = loop_module(1);
        // Inject a harmless extra instruction into the loop body.
        let fid = padded.function_by_name("main").unwrap();
        let f = padded.function_mut(fid);
        let spare = brepl_ir::Reg(f.n_regs);
        f.n_regs += 1;
        f.blocks[2].insts.push(brepl_ir::Inst::Copy {
            dst: spare,
            src: brepl_ir::Operand::imm(0),
        });
        let trace = brepl_sim::Machine::new(&m, brepl_sim::RunConfig::default())
            .unwrap()
            .run("main", &[Value::Int(10)])
            .unwrap()
            .trace;
        let mut program = apply_plan(&m, &ReplicationPlan::new(), &trace.stats()).unwrap();
        program.module = padded;
        let err = check_equivalence(&m, &program, "main", &[Value::Int(10)], &[]).unwrap_err();
        assert!(matches!(err, EquivalenceError::StepMismatch { .. }));
    }
}
