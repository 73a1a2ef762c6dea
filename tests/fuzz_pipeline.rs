//! Differential fuzz harness: deterministic random programs through the
//! full pipeline, asserting no panic and execution equivalence, plus the
//! classification-soundness and estimator-totality oracles; and a
//! totality fuzz of the trace codec.
//!
//! The oracles live in `brepl_bench::fuzz`, shared with the release-mode
//! `fuzz` bin, which sweeps them for thousands of iterations; these tests
//! keep a bounded slice of each in `cargo test`. Failures shrink
//! automatically to a minimal `(seed, diamonds, trip)` triple printed in
//! the panic message — regenerate the failing module with
//! `brepl_workloads::synth::random_loop_module(seed, diamonds, trip)`.

use std::ops::Range;

use brepl::pipeline::PipelineConfig;
use brepl::trace::{Trace, TraceEvent};
use brepl::workloads::synth::Gen;
use brepl_bench::fuzz::{classify_case, estimate_case, pipeline_case, shrink};
use brepl_ir::BranchId;

/// Runs `case` on every seed in `seeds`, each at the `(diamonds, trip)`
/// that `shape` gives it; the first failure is shrunk and reported as
/// `what` with its minimal repro.
fn sweep(
    what: &str,
    seeds: Range<u64>,
    shape: impl Fn(u64) -> (usize, i64),
    case: impl Fn(u64, usize, i64) -> Result<(), String>,
) {
    for seed in seeds {
        let (diamonds, trip) = shape(seed);
        if let Err(e) = case(seed, diamonds, trip) {
            let (d, t) = shrink(diamonds, trip, |d, t| case(seed, d, t));
            panic!(
                "{what}, minimal repro: seed={seed} diamonds={d} trip={t} \
                 (random_loop_module(seed, diamonds, trip)); original failure: {e}"
            );
        }
    }
}

/// Tier-1 slice of the differential fuzz: 100 deterministic cases with
/// the default config (every gate + the dynamic backstop armed).
#[test]
fn fuzz_pipeline_default_config() {
    let config = PipelineConfig::default();
    sweep(
        "fuzz failure",
        0..100,
        |seed| ((seed % 5) as usize, 20 + (seed % 7) as i64 * 20),
        |seed, d, t| pipeline_case(seed, d, t, config),
    );
}

/// The degraded configurations must be equally panic-free: strict mode,
/// refinement off, and a tight realized-growth budget forcing backoff.
#[test]
fn fuzz_pipeline_config_variants() {
    let variants = [
        PipelineConfig {
            strict: true,
            ..PipelineConfig::default()
        },
        PipelineConfig {
            refine: false,
            ..PipelineConfig::default()
        },
        PipelineConfig {
            max_realized_growth: Some(1.2),
            ..PipelineConfig::default()
        },
    ];
    for (v, config) in variants.into_iter().enumerate() {
        sweep(
            &format!("variant {v}: fuzz failure"),
            0..12,
            |seed| ((seed % 4) as usize, 25 + (seed % 5) as i64 * 15),
            |seed, d, t| pipeline_case(seed, d, t, config),
        );
    }
}

/// The `(diamonds, trip)` shape of the analysis-oracle slices.
fn analysis_shape(seed: u64) -> (usize, i64) {
    ((seed % 5) as usize, 10 + (seed % 9) as i64 * 17)
}

/// Tier-1 slice of the classification-soundness fuzz.
#[test]
fn fuzz_classification_is_sound() {
    sweep(
        "classification unsound",
        0..150,
        analysis_shape,
        classify_case,
    );
}

/// Tier-1 slice of the estimator-totality fuzz.
#[test]
fn fuzz_estimator_is_total_and_gate_silent_when_honest() {
    sweep("estimator broken", 0..150, analysis_shape, estimate_case);
}

/// Codec totality fuzz: random traces round-trip exactly; byte mutations,
/// truncations and garbage always decode to `Ok` or a typed error — a
/// panic anywhere fails the test by unwinding.
#[test]
fn fuzz_trace_codec_total() {
    let mut g = Gen::new(0xC0DEC);
    for case in 0..200u64 {
        let len = g.below(400) as usize + 1;
        let sites = g.below(60) + 1;
        let mut t = Trace::new();
        for _ in 0..len {
            t.push(TraceEvent {
                site: BranchId(g.below(sites) as u32),
                taken: g.below(2) == 1,
            });
        }
        let bytes = t.to_bytes();
        assert_eq!(
            Trace::from_bytes(&bytes).unwrap(),
            t,
            "case {case}: round-trip mismatch"
        );
        // Single-byte mutation at a random offset.
        let mut mutated = bytes.clone();
        let at = g.below(mutated.len() as u64) as usize;
        mutated[at] ^= (g.below(255) + 1) as u8;
        let _ = Trace::from_bytes(&mutated);
        // Random truncation.
        let cut = g.below(bytes.len() as u64) as usize;
        let _ = Trace::from_bytes(&bytes[..cut]);
        // Pure garbage of random length.
        let glen = g.below(64) as usize;
        let garbage: Vec<u8> = (0..glen).map(|_| g.next() as u8).collect();
        let _ = Trace::from_bytes(&garbage);
    }
}
