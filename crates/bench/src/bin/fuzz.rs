//! Release-scale differential fuzzing of the pipeline: deterministic
//! random loop programs through `run_pipeline` with every gate and the
//! dynamic backstop armed, asserting no panic and execution equivalence,
//! plus the classification-soundness and estimator-totality oracles on
//! every iteration.
//!
//! The oracles live in `brepl_bench::fuzz`; the tier-1 test
//! `tests/fuzz_pipeline.rs` runs a bounded slice of the same ones. This
//! bin runs thousands of iterations in release mode and is what the
//! ≥1000-iteration acceptance run and the CI fuzz smoke use.
//!
//! Usage: `fuzz [--iters N] [--seed0 S] [--json]`
//!
//! Iteration `i` uses seed `seed0 + i`; the config cycles deterministically
//! through four variants (default, refine-off, strict, tight growth
//! budget), so any failure is reproducible from `(seed, variant)` alone.
//! Failures shrink automatically to a minimal `(seed, diamonds, trip)`
//! recipe for `brepl_workloads::synth::random_loop_module` and the bin
//! exits non-zero.

use std::time::Instant;

use brepl::pipeline::PipelineConfig;
use brepl_bench::fuzz::{classify_case, estimate_case, pipeline_case, shrink};
use brepl_bench::json;

/// The deterministic config cycle (index = seed % 4), plus the
/// classification-soundness and estimator-totality oracles that run on
/// *every* iteration and report under the last two names.
const VARIANT_NAMES: [&str; 6] = [
    "default",
    "refine-off",
    "strict",
    "growth-budget-1.2",
    "classify-oracle",
    "estimate-oracle",
];

fn variant_config(idx: usize) -> PipelineConfig {
    match idx {
        1 => PipelineConfig {
            refine: false,
            ..PipelineConfig::default()
        },
        2 => PipelineConfig {
            strict: true,
            ..PipelineConfig::default()
        },
        3 => PipelineConfig {
            max_realized_growth: Some(1.2),
            ..PipelineConfig::default()
        },
        _ => PipelineConfig::default(),
    }
}

/// One oracle at one iteration's seed, as a function of `(diamonds, trip)`.
type Case<'a> = &'a dyn Fn(usize, i64) -> Result<(), String>;

struct Failure {
    seed: u64,
    variant: usize,
    diamonds: usize,
    trip: i64,
    shrunk_diamonds: usize,
    shrunk_trip: i64,
    error: String,
}

/// Parsed command line: `(iters, seed0, json)`, defaulting to 1000
/// iterations from seed 0. `None` on an unknown argument or a missing or
/// non-numeric flag value.
fn parse_args<S: AsRef<str>>(args: &[S]) -> Option<(u64, u64, bool)> {
    let (mut iters, mut seed0, mut json) = (1000, 0, false);
    let mut it = args.iter().map(AsRef::as_ref);
    while let Some(arg) = it.next() {
        match arg {
            "--iters" => iters = it.next()?.parse().ok()?,
            "--seed0" => seed0 = it.next()?.parse().ok()?,
            "--json" => json = true,
            _ => return None,
        }
    }
    Some((iters, seed0, json))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((iters, seed0, json_mode)) = parse_args(&args) else {
        eprintln!("usage: fuzz [--iters N] [--seed0 S] [--json]");
        std::process::exit(2);
    };

    let start = Instant::now();
    let mut failures: Vec<Failure> = Vec::new();
    for i in 0..iters {
        let seed = seed0 + i;
        let variant = (seed % 4) as usize;
        let config = variant_config(variant);
        let diamonds = (seed % 5) as usize;
        let trip = 20 + (seed % 7) as i64 * 20;
        // The classification-soundness and estimator-totality oracles
        // ride along on every iteration: the pipeline's non-strict gates
        // quarantine rather than error, so an unsound verdict needs its
        // own check, and the always-on estimator would poison every run.
        let oracles: [(usize, &str, Case); 3] = [
            (variant, "fuzz failure", &|d, t| {
                pipeline_case(seed, d, t, config)
            }),
            (4, "classification unsound", &|d, t| {
                classify_case(seed, d, t)
            }),
            (5, "estimator broken", &|d, t| estimate_case(seed, d, t)),
        ];
        for (variant, what, case) in oracles {
            let Err(error) = case(diamonds, trip) else {
                continue;
            };
            let (sd, st) = shrink(diamonds, trip, case);
            if !json_mode {
                let config_name = match variant {
                    0..=3 => format!(" variant={}", VARIANT_NAMES[variant]),
                    _ => String::new(),
                };
                eprintln!(
                    "{what}, minimal repro: seed={seed} diamonds={sd} trip={st}{config_name} \
                     (random_loop_module(seed, diamonds, trip)); original failure: {error}"
                );
            }
            failures.push(Failure {
                seed,
                variant,
                diamonds,
                trip,
                shrunk_diamonds: sd,
                shrunk_trip: st,
                error,
            });
        }
        if !json_mode && (i + 1) % 200 == 0 {
            eprintln!(
                "  {}/{iters} iterations, {} failure(s), {:.1}s",
                i + 1,
                failures.len(),
                start.elapsed().as_secs_f64()
            );
        }
    }

    let elapsed = start.elapsed().as_secs_f64();
    let ok = failures.is_empty();
    if json_mode {
        let rendered: Vec<String> = failures
            .iter()
            .map(|f| {
                json::Obj::new()
                    .int("seed", f.seed)
                    .str("variant", VARIANT_NAMES[f.variant])
                    .int("diamonds", f.diamonds as u64)
                    .int("trip", f.trip as u64)
                    .int("shrunk_diamonds", f.shrunk_diamonds as u64)
                    .int("shrunk_trip", f.shrunk_trip as u64)
                    .str("error", &f.error)
                    .build()
            })
            .collect();
        println!(
            "{}",
            json::Obj::new()
                .str("tool", "fuzz")
                .int("iters", iters)
                .int("seed0", seed0)
                .bool("ok", ok)
                .int("failures", failures.len() as u64)
                .num("elapsed_s", elapsed)
                .raw("failure_details", &json::array(&rendered))
                .build()
        );
    } else if ok {
        println!(
            "OK: {iters} fuzz iterations (seed0={seed0}, variants cycled \
             default/refine-off/strict/growth-budget), no panics, no pipeline \
             errors, execution equivalence held — {elapsed:.1}s"
        );
    } else {
        println!(
            "FAIL: {} of {iters} iterations failed ({elapsed:.1}s)",
            failures.len()
        );
    }
    if !ok {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::parse_args;

    #[test]
    fn parse_args_accepts_flags_and_rejects_anything_malformed() {
        assert_eq!(parse_args::<&str>(&[]), Some((1000, 0, false)));
        let all = ["--iters", "200", "--seed0", "7", "--json"];
        assert_eq!(parse_args(&all), Some((200, 7, true)));
        let bad: [&[&str]; 5] = [
            &["--iters"],
            &["--iters", "2OO"],
            &["--seed0", "-1"],
            &["--iter", "200"],
            &["200"],
        ];
        for args in bad {
            assert_eq!(parse_args(args), None, "{args:?}");
        }
    }
}
