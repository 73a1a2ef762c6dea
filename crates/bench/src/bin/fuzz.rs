//! Release-scale differential fuzzing of the pipeline: deterministic
//! random loop programs through `run_pipeline` with every gate and the
//! dynamic backstop armed, asserting no panic and execution equivalence.
//!
//! The tier-1 test `tests/fuzz_pipeline.rs` runs a bounded slice of this
//! harness; this bin runs thousands of iterations in release mode and is
//! what the ≥1000-iteration acceptance run and the CI fuzz smoke use.
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

use brepl::pipeline::{run_pipeline, PipelineConfig};
use brepl_bench::json;
use brepl_workloads::synth::random_loop_module;

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

/// One fuzz case; `Err` describes the failure (panic text or typed error).
/// Success with the default/strict configs implies execution equivalence —
/// the dynamic backstop replayed original vs. replicated and they agreed.
fn pipeline_case(
    seed: u64,
    diamonds: usize,
    trip: i64,
    config: PipelineConfig,
) -> Result<(), String> {
    let outcome = std::panic::catch_unwind(|| {
        let m = random_loop_module(seed, diamonds, trip);
        run_pipeline(&m, &[], &[], config)
    });
    match outcome {
        Err(payload) => Err(format!("panicked: {}", panic_text(&payload))),
        Ok(Err(e)) => Err(format!("pipeline error: {e}")),
        Ok(Ok(result)) => {
            if config.strict && !result.quarantined.is_empty() {
                Err("strict run returned quarantined sites".to_string())
            } else {
                Ok(())
            }
        }
    }
}

/// Classification-soundness oracle (variant name `classify-oracle`): the
/// same check as the tier-1 `fuzz_classification_is_sound` test, at
/// release scale — a proved verdict contradicted by the module's honest
/// simulated trace, an executed site proved unreachable, or any
/// error-severity diagnostic from the gate on an honest trace is an
/// analysis bug.
fn classify_case(seed: u64, diamonds: usize, trip: i64) -> Result<(), String> {
    let outcome = std::panic::catch_unwind(|| {
        let m = random_loop_module(seed, diamonds, trip);
        let cls = brepl_analysis::classify_module(&m);
        let run = brepl_sim::Machine::new(&m, brepl_sim::RunConfig::default())
            .map_err(|e| format!("machine init: {e}"))?
            .run("main", &[])
            .map_err(|e| format!("run: {e}"))?;
        for ev in run.trace.iter() {
            if let Some(sc) = cls.by_site(ev.site) {
                if !sc.reachable {
                    return Err(format!("site {} proved unreachable but executed", ev.site));
                }
                if let Some(dir) = sc.class.proved_direction() {
                    if ev.taken != dir {
                        return Err(format!(
                            "site {} proved {} but the trace went the other way",
                            ev.site,
                            if dir { "always-taken" } else { "never-taken" },
                        ));
                    }
                }
            }
        }
        let diags = brepl_analysis::classification_diags(&m, &cls, &run.trace.stats());
        let errors: Vec<String> = diags
            .iter()
            .filter(|d| d.severity() == brepl_analysis::Severity::Error)
            .map(|d| d.render(&m))
            .collect();
        if !errors.is_empty() {
            return Err(format!(
                "honest trace fails the gate: {}",
                errors.join("; ")
            ));
        }
        Ok(())
    });
    match outcome {
        Err(payload) => Err(format!("panicked: {}", panic_text(&payload))),
        Ok(r) => r,
    }
}

/// Estimator-totality oracle (variant name `estimate-oracle`): the same
/// check as the tier-1 `fuzz_estimator_is_total_and_gate_silent_when_honest`
/// test, at release scale — the static profile estimator must never
/// panic, never emit a non-finite or negative frequency, always satisfy
/// its own flow-conservation invariant, and its drift gate
/// (`BR019`/`BR020`/`BR021`) must stay silent against the module's
/// honest trace. `BR022` fail-closed reports are the contract on
/// pathological flow and are tolerated.
fn estimate_case(seed: u64, diamonds: usize, trip: i64) -> Result<(), String> {
    use brepl_analysis::DiagCode;
    let outcome = std::panic::catch_unwind(|| {
        let m = random_loop_module(seed, diamonds, trip);
        let cls = brepl_analysis::classify_module(&m);
        let profile = brepl_analysis::estimate_profile(&m, &cls);
        for s in &profile.sites {
            if !s.freq.is_finite() || s.freq < 0.0 {
                return Err(format!("site {} has bogus frequency {}", s.site, s.freq));
            }
            let p = s.bias.prob();
            if !(0.0..=1.0).contains(&p) {
                return Err(format!(
                    "site {} bias probability {p} outside [0,1]",
                    s.site
                ));
            }
        }
        if let Some((f, b, err)) = profile.check_conservation(&m).first() {
            return Err(format!("conservation violated at {f}/{b} by {err}"));
        }
        let run = brepl_sim::Machine::new(&m, brepl_sim::RunConfig::default())
            .map_err(|e| format!("machine init: {e}"))?
            .run("main", &[])
            .map_err(|e| format!("run: {e}"))?;
        let diags = brepl_analysis::static_profile_diags(&m, &cls, &profile, &run.trace.stats());
        let false_alarms: Vec<String> = diags
            .iter()
            .filter(|d| {
                matches!(
                    d.code,
                    DiagCode::EstimateDriftConflict
                        | DiagCode::EstimateUnreachableMass
                        | DiagCode::EstimateConservationViolation
                )
            })
            .map(|d| d.render(&m))
            .collect();
        if !false_alarms.is_empty() {
            return Err(format!(
                "honest trace fires the drift gate: {}",
                false_alarms.join("; ")
            ));
        }
        Ok(())
    });
    match outcome {
        Err(payload) => Err(format!("panicked: {}", panic_text(&payload))),
        Ok(r) => r,
    }
}

fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
        .unwrap_or_else(|| "<non-string payload>".to_string())
}

/// Greedily shrinks a failing case, reducing `diamonds` first (structure),
/// then halving `trip` (work), while the failure persists.
fn shrink(seed: u64, diamonds: usize, trip: i64, config: PipelineConfig) -> (usize, i64) {
    let (mut d, mut t) = (diamonds, trip);
    loop {
        if d > 0 && pipeline_case(seed, d - 1, t, config).is_err() {
            d -= 1;
        } else if t > 1 && pipeline_case(seed, d, t / 2, config).is_err() {
            t /= 2;
        } else {
            break;
        }
    }
    (d, t)
}

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
        if let Err(error) = pipeline_case(seed, diamonds, trip, config) {
            let (sd, st) = shrink(seed, diamonds, trip, config);
            if !json_mode {
                eprintln!(
                    "fuzz failure, minimal repro: seed={seed} diamonds={sd} trip={st} \
                     variant={} (random_loop_module(seed, diamonds, trip)); \
                     original failure: {error}",
                    VARIANT_NAMES[variant]
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
        // The classification-soundness oracle rides along on every
        // iteration — the pipeline's non-strict gate quarantines rather
        // than errors, so an unsound verdict needs its own check.
        if let Err(error) = classify_case(seed, diamonds, trip) {
            let (mut sd, mut st) = (diamonds, trip);
            loop {
                if sd > 0 && classify_case(seed, sd - 1, st).is_err() {
                    sd -= 1;
                } else if st > 1 && classify_case(seed, sd, st / 2).is_err() {
                    st /= 2;
                } else {
                    break;
                }
            }
            if !json_mode {
                eprintln!(
                    "classification unsound, minimal repro: seed={seed} diamonds={sd} \
                     trip={st} (random_loop_module(seed, diamonds, trip)); \
                     original failure: {error}"
                );
            }
            failures.push(Failure {
                seed,
                variant: 4,
                diamonds,
                trip,
                shrunk_diamonds: sd,
                shrunk_trip: st,
                error,
            });
        }
        // The estimator-totality oracle also rides along on every
        // iteration: the estimator is always-on in the pipeline, so a
        // panic or a drift-gate false alarm would poison every run.
        if let Err(error) = estimate_case(seed, diamonds, trip) {
            let (mut sd, mut st) = (diamonds, trip);
            loop {
                if sd > 0 && estimate_case(seed, sd - 1, st).is_err() {
                    sd -= 1;
                } else if st > 1 && estimate_case(seed, sd, st / 2).is_err() {
                    st /= 2;
                } else {
                    break;
                }
            }
            if !json_mode {
                eprintln!(
                    "estimator broken, minimal repro: seed={seed} diamonds={sd} \
                     trip={st} (random_loop_module(seed, diamonds, trip)); \
                     original failure: {error}"
                );
            }
            failures.push(Failure {
                seed,
                variant: 5,
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
