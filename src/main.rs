//! `brepl` — command-line driver for the code-replication pipeline.
//!
//! ```text
//! brepl run <file.bir> [args...]          execute a textual-IR program
//! brepl profile <file.bir> [args...]      per-branch profile statistics
//! brepl replicate <file.bir> [options]    run the pipeline, print/emit result
//!     --states N        machine state budget (default 4)
//!     --budget X        code size budget factor (default 3.0; 0 = unlimited)
//!     --output PATH     write the replicated program (textual IR)
//! brepl shootout <file.bir> [args...]     compare all predictors on one run
//! brepl dot <file.bir> <function>         CFG as Graphviz dot
//! ```
//!
//! Integer program arguments are passed to `main`; the input tape can be
//! supplied with `--input v1,v2,...`.

use std::process::ExitCode;

use brepl::cfg::function_to_dot;
use brepl::core::BranchMachine;
use brepl::ir::{parse_module, Module, Value};
use brepl::pipeline::{run_pipeline, PipelineConfig};
use brepl::predict::dynamic::{Gshare, LastDirection, SaturatingCounters, TwoLevel};
use brepl::predict::semistatic::{loop_correlation_report, profile_report};
use brepl::predict::simulate_dynamic;
use brepl::sim::{Machine, RunConfig};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!();
            eprintln!("usage: brepl <run|profile|replicate|shootout|dot> <file.bir> [...]");
            ExitCode::FAILURE
        }
    }
}

fn dispatch(args: &[String]) -> Result<(), String> {
    let cmd = args.first().ok_or("missing subcommand")?;
    let rest = &args[1..];
    match cmd.as_str() {
        "run" => cmd_run(rest),
        "profile" => cmd_profile(rest),
        "replicate" => cmd_replicate(rest),
        "shootout" => cmd_shootout(rest),
        "dot" => cmd_dot(rest),
        other => Err(format!("unknown subcommand {other:?}")),
    }
}

struct Loaded {
    module: Module,
    args: Vec<Value>,
    input: Vec<Value>,
}

/// Reads, parses and verifies the textual-IR program at `path`.
fn read_module(path: &str) -> Result<Module, String> {
    let src = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let module = parse_module(&src).map_err(|e| format!("{path}: {e}"))?;
    module.verify().map_err(|e| format!("{path}: {e}"))?;
    Ok(module)
}

/// Loads `<file> [intarg...] [--input v1,v2,...]`.
fn load(args: &[String]) -> Result<Loaded, String> {
    let path = args.first().ok_or("missing input file")?;
    let module = read_module(path)?;

    let mut call_args = Vec::new();
    let mut input = Vec::new();
    let mut i = 1;
    while i < args.len() {
        if args[i] == "--input" {
            i += 1;
            let list = args.get(i).ok_or("--input needs a value list")?;
            for tok in list.split(',') {
                let v: i64 = tok
                    .trim()
                    .parse()
                    .map_err(|_| format!("bad input value {tok:?}"))?;
                input.push(Value::Int(v));
            }
        } else if let Ok(v) = args[i].parse::<i64>() {
            call_args.push(Value::Int(v));
        } else {
            return Err(format!("unexpected argument {:?}", args[i]));
        }
        i += 1;
    }
    Ok(Loaded {
        module,
        args: call_args,
        input,
    })
}

fn cmd_run(args: &[String]) -> Result<(), String> {
    let l = load(args)?;
    let mut m = Machine::new(&l.module, RunConfig::default()).map_err(|e| e.to_string())?;
    m.set_input(l.input.clone());
    let outcome = m.run("main", &l.args).map_err(|e| e.to_string())?;
    for v in m.output() {
        println!("{v}");
    }
    println!(
        "-- result: {:?}, {} instructions, {} branch events",
        outcome.result,
        outcome.steps,
        outcome.trace.len()
    );
    Ok(())
}

fn cmd_profile(args: &[String]) -> Result<(), String> {
    let l = load(args)?;
    let mut m = Machine::new(&l.module, RunConfig::default()).map_err(|e| e.to_string())?;
    m.set_input(l.input.clone());
    let outcome = m.run("main", &l.args).map_err(|e| e.to_string())?;
    let stats = outcome.trace.stats();
    println!(
        "{:<8} {:>12} {:>12} {:>10} {:>8}",
        "site", "taken", "not-taken", "majority", "miss%"
    );
    for (site, c) in stats.iter_executed() {
        println!(
            "{:<8} {:>12} {:>12} {:>10} {:>7.2}%",
            site.to_string(),
            c.taken,
            c.not_taken,
            if c.majority() { "taken" } else { "not" },
            100.0 * c.minority_count() as f64 / c.total() as f64
        );
    }
    println!(
        "-- {} events, profile misprediction {:.2}%",
        outcome.trace.len(),
        stats.profile_misprediction_percent()
    );
    Ok(())
}

fn cmd_replicate(args: &[String]) -> Result<(), String> {
    // Split off options.
    let mut states = 4usize;
    let mut budget = Some(3.0f64);
    let mut output: Option<String> = None;
    let mut positional = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--states" => {
                i += 1;
                states = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .filter(|n| (2..=10).contains(n))
                    .ok_or("--states needs a number in 2..=10")?;
            }
            "--budget" => {
                i += 1;
                let b: f64 = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .filter(|b: &f64| b.is_finite())
                    .ok_or("--budget needs a finite number")?;
                budget = if b <= 0.0 { None } else { Some(b) };
            }
            "--output" => {
                i += 1;
                output = Some(args.get(i).ok_or("--output needs a path")?.clone());
            }
            _ => positional.push(args[i].clone()),
        }
        i += 1;
    }
    let l = load(&positional)?;
    let config = PipelineConfig {
        max_states: states,
        max_size_growth: budget,
        ..PipelineConfig::default()
    };
    let result = run_pipeline(&l.module, &l.args, &l.input, config).map_err(|e| e.to_string())?;
    println!(
        "profile {:.2}% -> replicated {:.2}% at {:.2}x size ({} branches replicated)",
        result.profile_misprediction_percent,
        result.replicated_misprediction_percent,
        result.size_growth,
        result.replicated_sites.len()
    );
    for c in result.selection.choices() {
        if result.replicated_sites.contains(&c.site) {
            println!(
                "  {}: {:?}, {} states, {} -> {} misses",
                c.site,
                c.class,
                c.chosen.as_ref().map_or(1, BranchMachine::states),
                c.profile_misses,
                c.chosen_misses
            );
        }
    }
    if let Some(path) = output {
        std::fs::write(&path, result.program.module.to_string())
            .map_err(|e| format!("writing {path}: {e}"))?;
        println!("wrote replicated program to {path}");
    }
    Ok(())
}

fn cmd_shootout(args: &[String]) -> Result<(), String> {
    let l = load(args)?;
    let mut m = Machine::new(&l.module, RunConfig::default()).map_err(|e| e.to_string())?;
    m.set_input(l.input.clone());
    let trace = m.run("main", &l.args).map_err(|e| e.to_string())?.trace;
    let rows: Vec<(&str, f64)> = vec![
        (
            "last direction",
            simulate_dynamic(&mut LastDirection::new(), &trace).misprediction_percent(),
        ),
        (
            "2bit counter",
            simulate_dynamic(&mut SaturatingCounters::new(2), &trace).misprediction_percent(),
        ),
        (
            "two-level 4K",
            simulate_dynamic(&mut TwoLevel::paper_4k(), &trace).misprediction_percent(),
        ),
        (
            "gshare 12",
            simulate_dynamic(&mut Gshare::new(12), &trace).misprediction_percent(),
        ),
        ("profile", profile_report(&trace).misprediction_percent()),
        (
            "loop-correlation",
            loop_correlation_report(&trace).misprediction_percent(),
        ),
    ];
    for (name, pct) in rows {
        println!("{name:<18} {pct:>6.2}%");
    }
    Ok(())
}

fn cmd_dot(args: &[String]) -> Result<(), String> {
    let path = args.first().ok_or("missing input file")?;
    let fname = args.get(1).ok_or("missing function name")?;
    let module = read_module(path)?;
    let fid = module
        .function_by_name(fname)
        .ok_or_else(|| format!("no function named {fname:?}"))?;
    print!("{}", function_to_dot(module.function(fid)));
    Ok(())
}
