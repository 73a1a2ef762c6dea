//! `brbench` — runs one benchmark workload, or compares two sets of runs.
//!
//! ```text
//! brbench [run|trace] --workload NAME --seed N [--seconds N] [--trace 0|1] [--spans FILE]
//! brbench compare A B
//! ```
//!
//! `run` (the default, `--trace 0`) times the real entry points with
//! tracing off and prints the end-to-end metrics. `trace` (`--trace 1`)
//! replays the entry points phase by phase with a span per layer call and
//! prints the per-layer metrics. Both print a table, then one record line
//! with every sample, then the result line
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}` last.

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use brepl::pipeline::PipelineConfig;
use brepl_bench::json;
use brepl_benchmark::alloc::{self, CountingAlloc};
use brepl_benchmark::calibrate;
use brepl_benchmark::compare::{self, MetricSamples, Record};
use brepl_benchmark::oracle;
use brepl_benchmark::replay::{planning_traces, replay_all};
use brepl_benchmark::spans::Tracer;
use brepl_benchmark::stats::Summary;
use brepl_benchmark::workload::{self, Inputs, Kind, ShipOutcome, Shipped};
use brepl_core::memo;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const USAGE: &str = "usage: brbench [run|trace] --workload NAME --seed N [--seconds N] \
                     [--trace 0|1] [--spans FILE]\n       brbench compare A B";

/// Worker threads every workload is pinned to (the reference host's CPU count).
const THREADS: &str = "2";
/// Timed set-up samples per run, after one discarded warm-up sample;
/// `setup_s` is their median.
const SETUP_SAMPLES: usize = 7;
/// Timed samples an untraced run takes even past `--seconds`.
const MIN_SAMPLES: usize = 3;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
    spans: Option<String>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut rest = args;
    let mut trace = false;
    match rest.first().map(String::as_str) {
        Some("run") => rest = &rest[1..],
        Some("trace") => {
            trace = true;
            rest = &rest[1..];
        }
        _ => {}
    }
    let (mut kind, mut seed, mut seconds, mut spans) = (None, None, 20u64, None);
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .cloned()
        };
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                kind = Some(Kind::parse(&v).ok_or_else(|| format!("unknown workload {v:?}"))?);
            }
            "--seed" => {
                let v = value()?;
                seed = Some(v.parse().map_err(|_| format!("bad --seed {v:?}"))?);
            }
            "--seconds" => {
                let v = value()?;
                seconds = v
                    .parse()
                    .ok()
                    .filter(|s| (1..=600).contains(s))
                    .ok_or_else(|| format!("--seconds must be 1..=600, got {v:?}"))?;
            }
            "--trace" => match value()?.as_str() {
                "0" => {}
                "1" => trace = true,
                v => return Err(format!("--trace must be 0 or 1, got {v:?}")),
            },
            "--spans" => spans = Some(value()?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
        spans,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return compare_cmd(&args[1..]);
    }
    let args = match parse_args(&args) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("brbench: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Measure the default configuration at the pinned thread count,
    // whatever the calling environment says.
    std::env::set_var("BREPL_THREADS", THREADS);
    for var in ["BREPL_NO_CLASSIFY", "BREPL_NO_INCREMENTAL", "BREPL_NO_MEMO"] {
        std::env::remove_var(var);
    }
    let result = if args.trace {
        alloc::start_counting();
        trace_mode(&args)
    } else {
        run_mode(&args)
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("brbench: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// Programs shipped in one timed slice: enough that the calibration
/// around each slice costs only a few percent of the run.
fn slice_programs(kind: Kind) -> usize {
    match kind {
        Kind::PaperFull | Kind::PaperStatic | Kind::DriftAdapt => 1,
        Kind::SynthCfgs => 50,
    }
}

/// Input builds per set-up sample: about 0.1 s of building on the
/// reference host, long enough to time steadily.
fn setup_builds(kind: Kind) -> usize {
    match kind {
        Kind::PaperFull | Kind::PaperStatic | Kind::DriftAdapt => 6,
        Kind::SynthCfgs => 16,
    }
}

/// Builds the inputs; returns them and the seconds per build of each
/// timed set-up sample, at the reference speed. Each build is dropped
/// before the next starts, so every build after the first sees the same
/// heap, and the work is the same in every run.
fn setup(kind: Kind, seed: u64) -> (Inputs, Vec<f64>) {
    let builds = setup_builds(kind);
    let mut times = Vec::new();
    let mut before = calibrate::unit();
    for sample in 0..=SETUP_SAMPLES {
        let t = Instant::now();
        for _ in 0..builds {
            drop(std::hint::black_box(workload::inputs(kind, seed)));
        }
        let secs = t.elapsed().as_secs_f64() / builds as f64;
        let after = calibrate::unit();
        // Sample 0 warms the heap and is discarded.
        if sample > 0 {
            times.push(calibrate::at_reference_speed(secs, before, after));
        }
        before = after;
    }
    (workload::inputs(kind, seed), times)
}

/// True once `min` samples are in and another typical sample would run
/// past the time budget.
fn enough(start: Instant, budget: Duration, times: &[f64], min: usize) -> bool {
    times.len() >= min
        && start.elapsed().as_secs_f64() + Summary::of(times).median > budget.as_secs_f64()
}

/// Per-program failure messages (first failure wins).
struct Failures(Vec<Option<String>>);

impl Failures {
    fn new(n: usize) -> Failures {
        Failures(vec![None; n])
    }

    fn record(&mut self, i: usize, msg: String) {
        self.0[i].get_or_insert(msg);
    }

    fn count(&self) -> usize {
        self.0.iter().flatten().count()
    }

    fn report(&self, names: &[String]) {
        for (name, msg) in names.iter().zip(&self.0) {
            if let Some(msg) = msg {
                eprintln!("brbench: FAILED {name}: {msg}");
            }
        }
    }
}

type Outcomes = Vec<Result<ShipOutcome, String>>;

/// Records pipeline errors, and outcomes that differ from the first
/// sample's (shipping is deterministic, so any difference is a bug).
fn check_sample(
    first: &mut Option<Outcomes>,
    shipped: &[Result<Shipped, String>],
    failures: &mut Failures,
) {
    let outcomes: Outcomes = shipped
        .iter()
        .map(|r| r.as_ref().map(|s| s.outcome.clone()).map_err(Clone::clone))
        .collect();
    for (i, r) in outcomes.iter().enumerate() {
        if let Err(e) = r {
            failures.record(i, e.clone());
        }
    }
    match first {
        None => *first = Some(outcomes),
        Some(first) => {
            for (i, (a, b)) in first.iter().zip(&outcomes).enumerate() {
                if a != b {
                    failures.record(i, "outcome differs between samples".to_string());
                }
            }
        }
    }
}

/// Runs the reference-interpreter oracle over every shipped program
/// (untimed, two programs at a time) and returns the event-weighted
/// misprediction of the shipped programs on their measured runs.
fn check_shipped(
    inputs: &Inputs,
    shipped: &[Result<Shipped, String>],
    failures: &mut Failures,
) -> f64 {
    let indices: Vec<usize> = (0..shipped.len()).collect();
    let checked = brepl_core::par_map_with(2, &indices, |&i| {
        let s = shipped[i].as_ref().ok()?;
        Some(match inputs {
            Inputs::Programs(ps) => {
                let p = &ps[i];
                oracle::check(&p.module, &s.program, &p.args, &p.input)
            }
            Inputs::Scenarios(ss) => {
                let input: Vec<_> = ss[i].segments.concat();
                oracle::check(&ss[i].module, &s.program, &[], &input)
            }
        })
    });
    let (mut events, mut misses) = (0.0f64, 0.0f64);
    for (i, c) in checked.into_iter().enumerate() {
        let Some(c) = c else { continue };
        let c = match c {
            Ok(c) => c,
            Err(e) => {
                failures.record(i, format!("reference oracle: {e}"));
                continue;
            }
        };
        let outcome = &shipped[i]
            .as_ref()
            .expect("checked programs shipped")
            .outcome;
        if let Inputs::Programs(_) = inputs {
            let reference_pct = 100.0 * c.misses as f64 / c.events.max(1) as f64;
            if (reference_pct - outcome.misprediction_pct).abs() > 1e-9 {
                failures.record(
                    i,
                    format!(
                        "reference run mispredicts {reference_pct}%, the pipeline reported {}%",
                        outcome.misprediction_pct
                    ),
                );
                continue;
            }
            events += c.events as f64;
            misses += c.misses as f64;
        } else {
            for &(e, pct) in &outcome.segments {
                events += e as f64;
                misses += e as f64 * pct / 100.0;
            }
        }
    }
    if events == 0.0 {
        0.0
    } else {
        100.0 * misses / events
    }
}

/// Mean realized size growth of the programs that shipped.
fn mean_size_growth(shipped: &[Result<Shipped, String>]) -> f64 {
    let growth: Vec<f64> = shipped
        .iter()
        .flatten()
        .map(|s| s.outcome.size_growth)
        .collect();
    growth.iter().sum::<f64>() / growth.len().max(1) as f64
}

/// Peak resident set size of this process so far, in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// The run's metrics, in print order.
#[derive(Default)]
struct Metrics(Vec<(&'static str, MetricSamples)>);

impl Metrics {
    fn push(&mut self, name: &'static str, unit: &str, exact: bool, samples: Vec<f64>) {
        let unit = unit.to_string();
        self.0.push((
            name,
            MetricSamples {
                unit,
                exact,
                samples,
            },
        ));
    }

    /// Prints the table, the record line and the result line.
    fn emit(self, args: &Args, names: &[String], failures: &Failures) {
        let mode = if args.trace { "trace" } else { "run" };
        println!(
            "brbench {mode}: workload={} seed={} threads={THREADS} programs={} failed={} \
             failed_frac={}",
            args.kind.name(),
            args.seed,
            names.len(),
            failures.count(),
            failures.count() as f64 / names.len().max(1) as f64
        );
        let mut result = json::Obj::new();
        for (name, m) in &self.0 {
            let s = Summary::of(&m.samples);
            let tag = if m.exact { " (exact)" } else { "" };
            println!(
                "  {name:<28} {:>16.6} {:<10} [{:.6}, {:.6}] n={}{tag}",
                s.median, m.unit, s.q1, s.q3, s.n
            );
            let value = json::Obj::new()
                .num("value", s.median)
                .str("unit", &m.unit)
                .build();
            result = result.raw(name, &value);
        }
        failures.report(names);
        let record = Record {
            workload: args.kind.name().to_string(),
            seed: args.seed,
            mode: mode.to_string(),
            metrics: self
                .0
                .into_iter()
                .map(|(name, m)| (name.to_string(), m))
                .collect(),
        };
        println!("{}", record.to_json());
        println!(
            "{}",
            json::Obj::new()
                .bool("correct", failures.count() == 0)
                .int("attempted", names.len() as u64)
                .int("failed", failures.count() as u64)
                .raw("metrics", &result.build())
                .build()
        );
    }
}

/// The untraced run: end-to-end metrics.
fn run_mode(args: &Args) -> Result<(), String> {
    let (inputs, setup_times) = setup(args.kind, args.seed);
    let names = inputs.names();
    let mut failures = Failures::new(names.len());

    // The warm-up ships the workload once in a fresh process, as a user
    // would. Its peak is read before the timed samples, whose number
    // depends on the host's speed and whose heap grows from one to the
    // next.
    memo::clear();
    drop(workload::ship_all(args.kind, &inputs));
    let peak_rss = peak_rss_mb()?;

    // Each sample ships every program once, in slices with a calibration
    // unit before each and after the last. `ship_s` sums each slice's
    // fastest time at the reference speed: load from other tenants only
    // ever adds time, and what the calibration does not take out differs
    // from sample to sample, so the minimum is the steadiest estimate of
    // the work's own cost.
    let n = names.len();
    let per_slice = slice_programs(args.kind);
    let mut fastest = vec![f64::INFINITY; n.div_ceil(per_slice)];
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let (mut sample_times, mut units) = (Vec::new(), Vec::new());
    let mut first = None;
    let last = loop {
        memo::clear();
        let sample = Instant::now();
        let mut shipped = Vec::with_capacity(n);
        let mut before = calibrate::unit();
        for (k, best) in fastest.iter_mut().enumerate() {
            let t = Instant::now();
            for i in k * per_slice..n.min((k + 1) * per_slice) {
                shipped.push(workload::ship(args.kind, &inputs, i));
            }
            let secs = t.elapsed().as_secs_f64();
            let after = calibrate::unit();
            *best = best.min(calibrate::at_reference_speed(secs, before, after));
            units.push(before);
            before = after;
        }
        sample_times.push(sample.elapsed().as_secs_f64());
        check_sample(&mut first, &shipped, &mut failures);
        if enough(start, budget, &sample_times, MIN_SAMPLES) {
            break shipped;
        }
    };
    let mispredict = check_shipped(&inputs, &last, &mut failures);

    let (s, u) = (Summary::of(&sample_times), Summary::of(&units));
    println!(
        "raw wall per sample: median {:.6} s [{:.6}, {:.6}] n={}; calibration unit: \
         median {:.6} s [{:.6}, {:.6}], reference {}",
        s.median,
        s.q1,
        s.q3,
        s.n,
        u.median,
        u.q1,
        u.q3,
        calibrate::REFERENCE_S
    );
    let mut m = Metrics::default();
    m.push("setup_s", "s", false, setup_times);
    m.push("ship_s", "s", false, vec![fastest.iter().sum()]);
    m.push("mispredict_pct", "%", true, vec![mispredict]);
    m.push("size_growth", "x", true, vec![mean_size_growth(&last)]);
    m.push("peak_rss_mb", "MiB", false, vec![peak_rss]);
    m.emit(args, &names, &failures);
    Ok(())
}

/// Spans summed into each per-layer self-time metric.
const LAYER_TIMES: [(&str, &[&str]); 14] = [
    ("sim.run_s", &SIM_SPANS),
    ("sim.measure_s", &["sim.measure", "respec.segment_run"]),
    ("trace.stats_s", &["trace.stats"]),
    ("predict.evaluate_s", &["predict.evaluate"]),
    ("analysis.classify_s", &["analysis.classify"]),
    ("analysis.estimate_s", &["analysis.estimate"]),
    ("gate.classify_s", &["gate.classify"]),
    ("gate.estimate_s", &["gate.estimate"]),
    ("gate.validate_s", &["gate.validate"]),
    ("gate.history_s", &["gate.history"]),
    ("gate.proof_s", &["gate.proof"]),
    ("core.select_s", &["core.select"]),
    ("core.greedy_s", &["core.greedy"]),
    ("core.apply_plan_s", &["core.apply_plan"]),
];

/// Every interpreter run.
const SIM_SPANS: [&str; 4] = [
    "sim.profile",
    "sim.measure",
    "respec.reference",
    "respec.segment_run",
];

/// Exact work counters the replay records.
const COUNTERS: [&str; 13] = [
    "sim.runs",
    "sim.steps",
    "core.select_sites",
    "core.select_planner_skips",
    "core.memo_selection_hits",
    "core.shipped_insts",
    "pipeline.rounds",
    "gate.cache_hits",
    "gate.error_diags",
    "respec.segment_events",
    "respec.patches_verified",
    "respec.patches_rolled_back",
    "respec.gate_cache_hits",
];

/// The traced run: per-layer metrics, the replay-vs-driver check and the
/// thread-scaling probe.
fn trace_mode(args: &Args) -> Result<(), String> {
    let inputs = workload::inputs(args.kind, args.seed);
    let names = inputs.names();
    let mut failures = Failures::new(names.len());

    memo::clear();
    drop(workload::ship_all(args.kind, &inputs));

    // Each sample is a pair: the traced replay, then the real entry points
    // on the same inputs, untraced. The real run is the baseline for the
    // tracing overhead, and the outcome the replay must match.
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let (mut tracers, mut walls, mut real_walls, mut pairs) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut first = None;
    let real = loop {
        memo::clear();
        let mut t = Tracer::new();
        let t0 = Instant::now();
        let replayed = replay_all(&mut t, args.kind, &inputs);
        walls.push(t0.elapsed().as_secs_f64());
        tracers.push(t);
        check_sample(&mut first, &replayed, &mut failures);

        memo::clear();
        let t1 = Instant::now();
        let real = workload::ship_all(args.kind, &inputs);
        real_walls.push(t1.elapsed().as_secs_f64());
        pairs.push(t0.elapsed().as_secs_f64());
        for (i, (r, d)) in replayed.iter().zip(&real).enumerate() {
            match (r, d) {
                (Ok(r), Ok(d)) if r.outcome == d.outcome => {}
                (Ok(r), Ok(d)) => failures.record(
                    i,
                    format!(
                        "replay differs from the driver: replay {:?}, driver {:?}",
                        r.outcome, d.outcome
                    ),
                ),
                (Err(e), _) | (_, Err(e)) => failures.record(i, e.clone()),
            }
        }
        if enough(start, budget, &pairs, 1) {
            break real;
        }
    };

    // Thread scaling of the cold selection search.
    let traces = planning_traces(args.kind, &inputs)?;
    let max_states = PipelineConfig::default().max_states;
    let (mut serial, mut parallel) = (0.0, 0.0);
    for (module, trace) in inputs.modules().into_iter().zip(&traces) {
        for (threads, total) in [(1, &mut serial), (2, &mut parallel)] {
            memo::clear();
            let t = Instant::now();
            std::hint::black_box(brepl_core::select_strategies_with_threads(
                module, trace, max_states, threads,
            ));
            *total += t.elapsed().as_secs_f64();
        }
    }

    check_shipped(&inputs, &real, &mut failures);

    if let Some(path) = &args.spans {
        let text: String = tracers
            .iter()
            .enumerate()
            .map(|(i, t)| t.to_json_lines(i, &names))
            .collect();
        std::fs::write(path, text).map_err(|e| format!("cannot write {path}: {e}"))?;
    }

    let per_sample = |f: &dyn Fn(&Tracer) -> f64| -> Vec<f64> { tracers.iter().map(f).collect() };
    let mut m = Metrics::default();
    for (name, spans) in LAYER_TIMES {
        m.push(name, "s", false, per_sample(&|t| t.seconds(spans)));
    }
    for name in COUNTERS {
        m.push(name, "count", true, per_sample(&|t| t.counter(name) as f64));
    }
    m.push(
        "core.memo_search_hits",
        "count",
        false,
        per_sample(&|t| t.counter("core.memo_search_hits") as f64),
    );
    m.push(
        "sim.allocs",
        "count",
        false,
        per_sample(&|t| t.allocs(&SIM_SPANS) as f64),
    );
    m.push(
        "core.select_allocs",
        "count",
        false,
        per_sample(&|t| t.allocs(&["core.select"]) as f64),
    );
    m.push(
        "core.apply_plan_allocs",
        "count",
        false,
        per_sample(&|t| t.allocs(&["core.apply_plan"]) as f64),
    );
    m.push(
        "sim.msteps_per_s",
        "Msteps/s",
        false,
        per_sample(&|t| t.counter("sim.steps") as f64 / t.seconds(&SIM_SPANS) / 1e6),
    );
    m.push(
        "core.select_speedup_2t",
        "ratio",
        false,
        vec![serial / parallel],
    );
    // Coverage is taken against the traced wall of the same sample, not the
    // paired untraced run: two runs of identical work differ by up to ±10%
    // on a shared host, which would swamp the few percent of glue the spans
    // miss. The replay-vs-driver check and `tracing.overhead_pct` tie the
    // replay to the real entry points.
    let coverage = tracers.iter().zip(&walls);
    m.push(
        "tracing.coverage_pct",
        "%",
        false,
        coverage.map(|(t, w)| 100.0 * t.covered() / w).collect(),
    );
    let overhead = walls.iter().zip(&real_walls);
    m.push(
        "tracing.overhead_pct",
        "%",
        false,
        overhead.map(|(w, r)| 100.0 * w / r).collect(),
    );

    print_layer_table(&tracers, &walls);
    m.emit(args, &names, &failures);
    Ok(())
}

/// Median self time of every span name, with its share of the median
/// traced wall time.
fn print_layer_table(tracers: &[Tracer], walls: &[f64]) {
    let mut by_name: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for t in tracers {
        for (name, secs) in t.by_name() {
            by_name.entry(name).or_default().push(secs);
        }
    }
    let wall = Summary::of(walls).median;
    println!(
        "layer self time (median of {} traced samples):",
        walls.len()
    );
    for (name, secs) in by_name {
        let s = Summary::of(&secs).median;
        println!("  {name:<22} {s:>12.6} s {:>6.2}%", 100.0 * s / wall);
    }
}

/// `brbench compare A B`: A and B are files or directories of captured
/// run output; the bounds come from `BENCHMARK.json`.
fn compare_cmd(paths: &[String]) -> ExitCode {
    const BENCHMARK: &str = "BENCHMARK.json";
    if paths.len() != 2 {
        eprintln!("brbench: compare needs two sets\n{USAGE}");
        return ExitCode::from(2);
    }
    let read_set = |path: &str| -> Result<Vec<Record>, String> {
        let meta = std::fs::metadata(path).map_err(|e| format!("{path}: {e}"))?;
        let mut files = Vec::new();
        if meta.is_dir() {
            for entry in std::fs::read_dir(path).map_err(|e| format!("{path}: {e}"))? {
                files.push(entry.map_err(|e| format!("{path}: {e}"))?.path());
            }
            files.sort();
        } else {
            files.push(path.into());
        }
        let mut records = Vec::new();
        for f in files {
            let text = std::fs::read_to_string(&f).map_err(|e| format!("{}: {e}", f.display()))?;
            records.extend(compare::records_in(&text));
        }
        if records.is_empty() {
            return Err(format!("{path}: no brbench records"));
        }
        Ok(records)
    };
    let loaded = (|| {
        let bounds = std::fs::read_to_string(BENCHMARK)
            .map_err(|e| format!("{BENCHMARK}: {e}"))
            .and_then(|text| compare::bounds(&text).map_err(|e| format!("{BENCHMARK}: {e}")))?;
        Ok::<_, String>((read_set(&paths[0])?, read_set(&paths[1])?, bounds))
    })();
    let (a, b, bounds) = match loaded {
        Ok(v) => v,
        Err(msg) => {
            eprintln!("brbench: {msg}");
            return ExitCode::from(2);
        }
    };
    let (report, all_ok) = compare::compare(&a, &b, &bounds);
    print!("{report}");
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
