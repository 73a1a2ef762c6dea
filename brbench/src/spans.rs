//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from outside the library, around each public layer
//! call the replay makes (see [`crate::replay`]). Every span is a leaf
//! whose parent is the program being shipped, so a layer's self time is
//! simply the sum of its spans' durations.

use std::collections::BTreeMap;
use std::time::Instant;

use brepl_bench::json;

use crate::alloc;

/// One timed layer call.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer call name, e.g. `core.select`.
    pub name: &'static str,
    /// Index of the program (or drift scenario) the call worked for.
    pub program: usize,
    /// Start, in seconds since the tracer was created.
    pub start: f64,
    /// End, in seconds since the tracer was created.
    pub end: f64,
    /// Allocations made during the call (0 unless counting is on).
    pub allocs: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn seconds(&self) -> f64 {
        self.end - self.start
    }
}

/// Collects spans and exact work counters for one traced sample.
pub struct Tracer {
    origin: Instant,
    program: usize,
    spans: Vec<Span>,
    counters: BTreeMap<&'static str, u64>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            program: 0,
            spans: Vec::new(),
            counters: BTreeMap::new(),
        }
    }

    /// Attributes the following spans to program `index`.
    pub fn set_program(&mut self, index: usize) {
        self.program = index;
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let a0 = alloc::allocations();
        let start = self.origin.elapsed().as_secs_f64();
        let r = f();
        let end = self.origin.elapsed().as_secs_f64();
        self.spans.push(Span {
            name,
            program: self.program,
            start,
            end,
            allocs: alloc::allocations() - a0,
        });
        r
    }

    /// Adds `n` to the counter `name`.
    pub fn count(&mut self, name: &'static str, n: u64) {
        *self.counters.entry(name).or_default() += n;
    }

    /// The counter `name` (0 if never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Self seconds summed over the spans named in `names`.
    pub fn seconds(&self, names: &[&str]) -> f64 {
        self.spans
            .iter()
            .filter(|s| names.contains(&s.name))
            .map(Span::seconds)
            .sum()
    }

    /// Allocations summed over the spans named in `names`.
    pub fn allocs(&self, names: &[&str]) -> u64 {
        self.spans
            .iter()
            .filter(|s| names.contains(&s.name))
            .map(|s| s.allocs)
            .sum()
    }

    /// Self seconds of every span name, in name order.
    pub fn by_name(&self) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for s in &self.spans {
            *out.entry(s.name).or_default() += s.seconds();
        }
        out
    }

    /// Total seconds covered by spans.
    pub fn covered(&self) -> f64 {
        self.spans.iter().map(Span::seconds).sum()
    }

    /// The spans as JSON lines, each tagged with `sample`.
    pub fn to_json_lines(&self, sample: usize, programs: &[String]) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let program = programs.get(s.program).map_or("", String::as_str);
            let line = json::Obj::new()
                .int("sample", sample as u64)
                .str("name", s.name)
                .str("program", program)
                .num("start_s", s.start)
                .num("end_s", s.end)
                .int("allocs", s.allocs)
                .build();
            out.push_str(&line);
            out.push('\n');
        }
        out
    }
}
