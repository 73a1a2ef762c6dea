//! The parallel selection engine must be *bit-identical* to the serial
//! path: `select_strategies_with_threads(.., 1)` and the same call with
//! several workers must produce exactly equal [`Selection`]s — same
//! choices, same machines, same tie-breaking — for any module and any
//! state budget. The engine merges per-site results in site order and the
//! search memo caches exactly what recomputation would produce, so the
//! schedule cannot leak into the output.

mod common;

use brepl::core::{select_strategies, select_strategies_with_threads};
use brepl::sim::{Machine, RunConfig};
use common::Gen;

#[test]
fn parallel_selection_is_bit_identical_to_serial() {
    for case in 0..10u64 {
        let mut g = Gen::new(0xB17 ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let seed = g.next();
        let diamonds = g.below(4) as usize + 1;
        let trip = g.below(120) as i64 + 8;
        let module = common::random_loop_module(seed, diamonds, trip);
        let trace = Machine::new(&module, RunConfig::default())
            .unwrap()
            .run("main", &[])
            .expect("terminates")
            .trace;
        for max_states in [2usize, 4, 6] {
            let serial = select_strategies_with_threads(&module, &trace, max_states, 1);
            for threads in [2usize, 4, 8] {
                // Empty the memo so the parallel call re-runs the search
                // instead of trivially returning the serial run's cached
                // whole-selection entry.
                brepl::core::memo::clear();
                let parallel = select_strategies_with_threads(&module, &trace, max_states, threads);
                assert_eq!(
                    serial, parallel,
                    "case {case}, max_states {max_states}, {threads} threads"
                );
            }
        }
    }
}

/// The memo must also be invisible: a cold and a warm run of the same
/// selection are equal.
#[test]
fn memo_hits_do_not_change_results() {
    let mut g = Gen::new(0x3E30);
    let module = common::random_loop_module(g.next(), 3, 64);
    let trace = Machine::new(&module, RunConfig::default())
        .unwrap()
        .run("main", &[])
        .expect("terminates")
        .trace;
    let cold = select_strategies(&module, &trace, 4);
    let warm = select_strategies(&module, &trace, 4);
    assert_eq!(cold, warm);
    // Sweeping other budgets around it must not disturb the answer either.
    for n in 2..=6usize {
        let _ = select_strategies(&module, &trace, n);
    }
    assert_eq!(select_strategies(&module, &trace, 4), cold);
}

/// The suite-level fan-out of whole pipelines must be bit-identical to a
/// serial loop: same selections, same shipped modules, same predictions,
/// same enabled sites — for every worker count.
#[test]
fn pipeline_suite_is_bit_identical_serial_vs_parallel() {
    use brepl::pipeline::{run_pipeline, PipelineConfig};

    let mut g = Gen::new(0x5017E);
    let modules: Vec<_> = (0..4usize)
        .map(|i| common::random_loop_module(g.next(), (i % 3) + 1, 40 + 10 * i as i64))
        .collect();
    let suite = |threads: usize| {
        brepl::core::par_map_with(threads, &modules, |m| {
            run_pipeline(m, &[], &[], PipelineConfig::default())
        })
    };

    let serial = suite(1);
    brepl::core::memo::clear();
    let parallel = suite(4);
    assert_eq!(serial.len(), parallel.len());
    for (i, (s, p)) in serial.iter().zip(&parallel).enumerate() {
        let (s, p) = match (s, p) {
            (Ok(s), Ok(p)) => (s, p),
            _ => panic!("job {i}: both modes must succeed on these modules"),
        };
        assert_eq!(s.selection, p.selection, "job {i}: selections differ");
        assert_eq!(
            s.replicated_sites, p.replicated_sites,
            "job {i}: enabled sites differ"
        );
        assert_eq!(s.trace_events, p.trace_events, "job {i}");
        assert_eq!(
            s.program.module, p.program.module,
            "job {i}: shipped modules differ"
        );
        assert_eq!(
            s.program.predictions, p.program.predictions,
            "job {i}: predictions differ"
        );
        assert_eq!(
            s.replicated_misprediction_percent.to_bits(),
            p.replicated_misprediction_percent.to_bits(),
            "job {i}: realized misprediction differs"
        );
    }
}

/// The adaptive suite fan-out must be bit-identical too — and the bar is
/// higher than for the plain pipeline, because each job's *patch
/// sequence* (detect → commit → verify/rollback decisions across
/// segments) also has to come out event-for-event identical, not just
/// the final module. Three scenario shapes cover the patch kinds: a
/// swap-drift recovery, a machine demotion, and a flapping distribution
/// that ends in rollback + quarantine.
#[test]
fn adaptive_suite_is_bit_identical_serial_vs_parallel() {
    use brepl::pipeline::{run_pipeline_adaptive, AdaptiveConfig};

    let jobs = common::drift_scenarios();
    let suite = |threads: usize| {
        brepl::core::par_map_with(threads, &jobs, |(_, module, segments)| {
            run_pipeline_adaptive(module, &[], segments, AdaptiveConfig::default())
        })
    };

    let serial = suite(1);
    for threads in [2usize, 4] {
        brepl::core::memo::clear();
        let parallel = suite(threads);
        assert_eq!(serial.len(), parallel.len());
        for (i, (s, p)) in serial.iter().zip(&parallel).enumerate() {
            let (s, p) = match (s, p) {
                (Ok(s), Ok(p)) => (s, p),
                _ => panic!("job {i}: both modes must succeed on these scenarios"),
            };
            // The patch sequence is the observable of the adaptive layer:
            // identical records in identical order.
            assert_eq!(s.patch_log, p.patch_log, "job {i}: patch sequences differ");
            assert_eq!(s.enabled_sites, p.enabled_sites, "job {i}");
            assert_eq!(s.demoted_sites, p.demoted_sites, "job {i}");
            assert_eq!(s.quarantined_sites, p.quarantined_sites, "job {i}");
            assert_eq!(s.segment_runs, p.segment_runs, "job {i}");
            // Bit-identical shipped artifacts.
            assert_eq!(
                s.program.module, p.program.module,
                "job {i}: final modules differ"
            );
            assert_eq!(
                s.program.predictions, p.program.predictions,
                "job {i}: predictions differ"
            );
            assert_eq!(s.program.provenance, p.program.provenance, "job {i}");
            // Per-segment measurements down to the float bits.
            assert_eq!(s.segments.len(), p.segments.len(), "job {i}");
            for (a, b) in s.segments.iter().zip(&p.segments) {
                assert_eq!(a.events, b.events, "job {i} segment {}", a.segment);
                assert_eq!(
                    a.misprediction_percent.to_bits(),
                    b.misprediction_percent.to_bits(),
                    "job {i} segment {}",
                    a.segment
                );
            }
        }
    }

    // The flapping job's backoff must have capped its attempts no matter
    // the thread count: every commit rolled back, quarantine engaged.
    let flap_result = serial[2].as_ref().unwrap();
    assert!(!flap_result.quarantined_sites.is_empty());
    assert!(
        !flap_result
            .patch_log
            .iter()
            .any(|r| r.outcome == brepl::core::PatchOutcome::Verified),
        "{:?}",
        flap_result.patch_log
    );
}
