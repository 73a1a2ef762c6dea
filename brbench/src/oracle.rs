//! The independent correctness oracle behind `failed_frac`.
//!
//! A shipped program passes when the tree-walking [`ReferenceMachine`] —
//! the interpreter the pipeline itself never uses — gives it the same
//! result and output tape as it gives the original program on the same
//! input. The same reference run also yields the shipped program's branch
//! events and mispredictions, measured with the shipped static
//! predictions, which is where `mispredict_pct` comes from.

use brepl_core::ReplicatedProgram;
use brepl_ir::{Module, Value};
use brepl_predict::evaluate_static;
use brepl_sim::{ReferenceMachine, RunConfig, RunError};

/// The shipped program's measured run under the reference interpreter.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Checked {
    /// Branch events.
    pub events: u64,
    /// Events the shipped static predictions got wrong.
    pub misses: u64,
}

/// Heap words the oracle tries first. The reference interpreter fills its
/// whole heap up front, and most programs never leave the first few
/// thousand words, so a small heap saves filling the default one twice
/// per program. A program that does need more is re-run with the default.
const SMALL_HEAP_WORDS: usize = 1 << 16;

type RefRun = (Option<Value>, Vec<Value>, brepl_trace::Trace);

/// Runs `module` under the reference interpreter with `heap_words` of
/// heap; returns the result, the output tape and the outcome's trace.
fn reference_run(
    module: &Module,
    args: &[Value],
    input: &[Value],
    heap_words: usize,
) -> Result<RefRun, RunError> {
    let config = RunConfig {
        heap_words,
        ..RunConfig::default()
    };
    let mut m = ReferenceMachine::new(module, config)?;
    m.set_input(input.to_vec());
    let outcome = m.run("main", args)?;
    Ok((outcome.result, m.output().to_vec(), outcome.trace))
}

/// Checks `shipped` against `original` on `args`/`input`.
///
/// # Errors
///
/// Describes the first difference: a trap in either run, a different
/// result, or a different output tape.
pub fn check(
    original: &Module,
    shipped: &ReplicatedProgram,
    args: &[Value],
    input: &[Value],
) -> Result<Checked, String> {
    let heap_bound = |e: &RunError| {
        matches!(
            e,
            RunError::BadAddress(_) | RunError::OutOfMemory | RunError::GlobalsExceedHeap { .. }
        )
    };
    let (heap_words, original_run) = match reference_run(original, args, input, SMALL_HEAP_WORDS) {
        Err(e) if heap_bound(&e) => {
            let default = RunConfig::default().heap_words;
            (default, reference_run(original, args, input, default))
        }
        r => (SMALL_HEAP_WORDS, r),
    };
    let (want_result, want_output, _) = original_run.map_err(|e| format!("original traps: {e}"))?;
    let (result, output, trace) = reference_run(&shipped.module, args, input, heap_words)
        .map_err(|e| format!("shipped traps: {e}"))?;
    if result != want_result {
        return Err(format!(
            "result differs: shipped {result:?}, original {want_result:?}"
        ));
    }
    if output != want_output {
        let at = output
            .iter()
            .zip(&want_output)
            .position(|(a, b)| a != b)
            .unwrap_or(output.len().min(want_output.len()));
        return Err(format!(
            "output tape differs at index {at} (shipped {} values, original {})",
            output.len(),
            want_output.len()
        ));
    }
    let report = evaluate_static(&shipped.predictions, &trace);
    Ok(Checked {
        events: report.total(),
        misses: report.mispredictions(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use brepl::pipeline::{run_pipeline, PipelineConfig};
    use brepl_ir::{Inst, Intrinsic, Operand};
    use brepl_workloads::synth::random_loop_module;

    fn shipped() -> (Module, ReplicatedProgram) {
        let module = random_loop_module(7, 4, 300);
        let r = run_pipeline(&module, &[], &[], PipelineConfig::default()).expect("pipeline");
        (module, r.program)
    }

    #[test]
    fn honest_shipped_program_passes() {
        let (module, program) = shipped();
        let checked = check(&module, &program, &[], &[]).expect("honest program passes");
        assert!(checked.events > 0);
        assert!(checked.misses <= checked.events);
    }

    #[test]
    fn changed_out_operand_is_a_failure() {
        let (module, mut program) = shipped();
        let fid = program
            .module
            .function_by_name("main")
            .expect("entry function");
        let mut mutated = false;
        'find: for block in &mut program.module.function_mut(fid).blocks {
            for inst in &mut block.insts {
                if let Inst::Intrin {
                    which: Intrinsic::Out,
                    args,
                    ..
                } = inst
                {
                    args[0] = Operand::imm(-12345);
                    mutated = true;
                    break 'find;
                }
            }
        }
        assert!(mutated, "the shipped module writes output");
        let err = check(&module, &program, &[], &[]).expect_err("a changed output must fail");
        assert!(err.contains("output tape differs"), "{err}");
    }
}
