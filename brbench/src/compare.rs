//! Result records and `brbench compare`.
//!
//! Every run prints one record line (all samples of every metric) before
//! the final result line. `compare` pools the records of two sets by
//! workload and judges each metric against the bounds in
//! `BENCHMARK.json`.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

use brepl_bench::json::{self, Json};

use crate::stats::Summary;

/// Marks a record line among a run's output lines.
const RECORD_TAG: &str = "brbench-record/1";

/// One metric's samples within a run.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricSamples {
    /// Unit, as in `BENCHMARK.json`.
    pub unit: String,
    /// Deterministic for a fixed seed: any difference is a change, not
    /// noise.
    pub exact: bool,
    /// Every sample, in measurement order.
    pub samples: Vec<f64>,
}

/// Everything one run measured.
#[derive(Clone, Debug, PartialEq)]
pub struct Record {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// `run` or `trace`.
    pub mode: String,
    /// Metrics by name.
    pub metrics: BTreeMap<String, MetricSamples>,
}

impl Record {
    /// The record as one JSON line.
    pub fn to_json(&self) -> String {
        let mut metrics = json::Obj::new();
        for (name, m) in &self.metrics {
            let s = Summary::of(&m.samples);
            let samples: Vec<String> = m.samples.iter().map(|v| format!("{v}")).collect();
            metrics = metrics.raw(
                name,
                &json::Obj::new()
                    .str("unit", &m.unit)
                    .bool("exact", m.exact)
                    .num("median", s.median)
                    .num("q1", s.q1)
                    .num("q3", s.q3)
                    .int("n", s.n as u64)
                    .raw("samples", &json::array(&samples))
                    .build(),
            );
        }
        json::Obj::new()
            .str("brbench", RECORD_TAG)
            .str("workload", &self.workload)
            .int("seed", self.seed)
            .str("mode", &self.mode)
            .raw("metrics", &metrics.build())
            .build()
    }

    /// Parses a record line; `None` for any other line.
    pub fn parse(line: &str) -> Option<Record> {
        let doc = json::parse(line.trim()).ok()?;
        if doc.get("brbench")?.as_str()? != RECORD_TAG {
            return None;
        }
        let Json::Obj(fields) = doc.get("metrics")? else {
            return None;
        };
        let mut metrics = BTreeMap::new();
        for (name, m) in fields {
            let samples: Option<Vec<f64>> = m
                .get("samples")?
                .as_arr()?
                .iter()
                .map(Json::as_num)
                .collect();
            metrics.insert(
                name.clone(),
                MetricSamples {
                    unit: m.get("unit")?.as_str()?.to_string(),
                    exact: matches!(m.get("exact"), Some(Json::Bool(true))),
                    samples: samples.filter(|s| !s.is_empty())?,
                },
            );
        }
        Some(Record {
            workload: doc.get("workload")?.as_str()?.to_string(),
            seed: doc.get("seed")?.as_num()? as u64,
            mode: doc.get("mode")?.as_str()?.to_string(),
            metrics,
        })
    }
}

/// Which direction of change is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

/// An end-to-end metric's regression bound from `BENCHMARK.json`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Bound {
    /// Share of the baseline median the metric may worsen by.
    pub share: f64,
    /// Improvement direction.
    pub better: Better,
}

/// Reads the end-to-end bounds out of a `BENCHMARK.json` document.
///
/// # Errors
///
/// Describes the first malformed entry.
pub fn bounds(benchmark_json: &str) -> Result<BTreeMap<String, Bound>, String> {
    let doc = json::parse(benchmark_json).map_err(|(at, msg)| format!("byte {at}: {msg}"))?;
    let metrics = doc
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("no end_to_end array")?;
    let mut out = BTreeMap::new();
    for m in metrics {
        let name = m
            .get("name")
            .and_then(Json::as_str)
            .ok_or("metric without a name")?;
        let share = m
            .get("bound")
            .and_then(Json::as_num)
            .ok_or_else(|| format!("{name}: no bound"))?;
        let better = match m.get("better").and_then(Json::as_str) {
            Some("lower") => Better::Lower,
            Some("higher") => Better::Higher,
            _ => return Err(format!("{name}: better must be \"lower\" or \"higher\"")),
        };
        out.insert(name.to_string(), Bound { share, better });
    }
    Ok(out)
}

/// The judgement on one metric of one workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound (or an exact metric that did not change).
    Ok,
    /// Worse than the baseline by more than the bound.
    Worse,
    /// The interquartile ranges are wider than the bound: no call.
    Unresolved,
    /// An exact metric differs.
    Changed,
    /// A per-layer timing: reported, not judged.
    Info,
}

impl Verdict {
    /// Printed name.
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
            Verdict::Changed => "changed",
            Verdict::Info => "-",
        }
    }
}

/// Judges set `b` against baseline set `a`.
pub fn verdict(a: &[f64], b: &[f64], exact: bool, bound: Option<Bound>) -> Verdict {
    if exact {
        let distinct = |v: &[f64]| {
            let mut v = v.to_vec();
            v.sort_by(f64::total_cmp);
            v.dedup();
            v
        };
        return if distinct(a) == distinct(b) {
            Verdict::Ok
        } else {
            Verdict::Changed
        };
    }
    let Some(bound) = bound else {
        return Verdict::Info;
    };
    let (sa, sb) = (Summary::of(a), Summary::of(b));
    if sa.median == 0.0 {
        return Verdict::Unresolved;
    }
    let spread = (sa.q3 - sa.q1).max(sb.q3 - sb.q1) / sa.median.abs();
    let delta = (sb.median - sa.median) / sa.median.abs();
    let worse_by = match bound.better {
        Better::Lower => delta,
        Better::Higher => -delta,
    };
    if spread > bound.share {
        Verdict::Unresolved
    } else if worse_by > bound.share {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

/// Every record found in `text` (the captured output of one or more runs).
pub fn records_in(text: &str) -> Vec<Record> {
    text.lines().filter_map(Record::parse).collect()
}

/// Compares two sets of records; returns the report and whether every
/// judged metric came out `ok`.
pub fn compare(a: &[Record], b: &[Record], bounds: &BTreeMap<String, Bound>) -> (String, bool) {
    type Pooled = BTreeMap<String, BTreeMap<String, (bool, Vec<f64>)>>;
    let pool = |records: &[Record]| {
        let mut out: Pooled = BTreeMap::new();
        for r in records {
            let w = out.entry(r.workload.clone()).or_default();
            for (name, m) in &r.metrics {
                let e = w.entry(name.clone()).or_insert((m.exact, Vec::new()));
                e.1.extend_from_slice(&m.samples);
            }
        }
        out
    };
    let (pa, pb) = (pool(a), pool(b));
    let mut out = String::new();
    let mut all_ok = true;
    let _ = writeln!(
        out,
        "{:<13} {:<28} {:>30} {:>30} {:>9}  verdict",
        "workload", "metric", "A median [q1, q3] n", "B median [q1, q3] n", "delta"
    );
    for (workload, ma) in &pa {
        let Some(mb) = pb.get(workload) else {
            let _ = writeln!(out, "{workload:<13} (missing from set B)");
            all_ok = false;
            continue;
        };
        let names: BTreeSet<&String> = ma.keys().chain(mb.keys()).collect();
        for name in names {
            let bound = bounds.get(name).copied();
            let (Some((exact, sa)), Some((_, sb))) = (ma.get(name), mb.get(name)) else {
                // A judged metric that one set lacks fails the comparison.
                let (set, exact) = match ma.get(name) {
                    Some((exact, _)) => ("B", *exact),
                    None => ("A", mb[name].0),
                };
                if exact || bound.is_some() {
                    let _ = writeln!(out, "{workload:<13} {name:<28} (missing from set {set})");
                    all_ok = false;
                }
                continue;
            };
            let v = verdict(sa, sb, *exact, bound);
            all_ok &= matches!(v, Verdict::Ok | Verdict::Info);
            let (qa, qb) = (Summary::of(sa), Summary::of(sb));
            let delta = if qa.median == 0.0 {
                0.0
            } else {
                100.0 * (qb.median - qa.median) / qa.median.abs()
            };
            let cell = |s: Summary| format!("{:.6} [{:.6}, {:.6}] {}", s.median, s.q1, s.q3, s.n);
            let _ = writeln!(
                out,
                "{workload:<13} {name:<28} {:>30} {:>30} {:>+8.2}%  {}",
                cell(qa),
                cell(qb),
                delta,
                v.name()
            );
        }
    }
    for workload in pb.keys().filter(|w| !pa.contains_key(*w)) {
        let _ = writeln!(out, "{workload:<13} (missing from set A)");
        all_ok = false;
    }
    (out, all_ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    const LOWER_10: Option<Bound> = Some(Bound {
        share: 0.10,
        better: Better::Lower,
    });

    #[test]
    fn verdicts_follow_the_bound() {
        let a = [1.00, 1.01, 0.99, 1.00, 1.02];
        assert_eq!(
            verdict(&a, &[1.05, 1.04, 1.06], false, LOWER_10),
            Verdict::Ok
        );
        assert_eq!(
            verdict(&a, &[1.20, 1.21, 1.19], false, LOWER_10),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&a, &[0.70, 0.71, 0.69], false, LOWER_10),
            Verdict::Ok
        );
        assert_eq!(
            verdict(&a, &[0.5, 1.0, 1.5, 2.0], false, LOWER_10),
            Verdict::Unresolved
        );
        let higher = Some(Bound {
            share: 0.10,
            better: Better::Higher,
        });
        assert_eq!(
            verdict(&a, &[0.80, 0.81, 0.79], false, higher),
            Verdict::Worse
        );
        assert_eq!(verdict(&a, &[9.0], false, None), Verdict::Info);
    }

    #[test]
    fn exact_metrics_change_on_any_difference() {
        assert_eq!(verdict(&[19.0], &[19.0, 19.0], true, None), Verdict::Ok);
        assert_eq!(verdict(&[19.0], &[18.0], true, LOWER_10), Verdict::Changed);
    }

    fn record(metrics: &[(&str, bool, &[f64])]) -> Record {
        let metrics = metrics
            .iter()
            .map(|&(name, exact, samples)| {
                let m = MetricSamples {
                    unit: "s".to_string(),
                    exact,
                    samples: samples.to_vec(),
                };
                (name.to_string(), m)
            })
            .collect();
        Record {
            workload: "paper-full".to_string(),
            seed: 3,
            mode: "run".to_string(),
            metrics,
        }
    }

    #[test]
    fn a_judged_metric_missing_from_either_set_fails() {
        let bounds = BTreeMap::from([("ship_s".to_string(), LOWER_10.unwrap())]);
        let full = vec![record(&[
            ("ship_s", false, &[1.0]),
            ("sim.runs", true, &[19.0]),
            ("core.select_s", false, &[0.5]),
        ])];
        assert!(compare(&full, &full, &bounds).1);
        let without = |name: &str| {
            let mut set = full.clone();
            set[0].metrics.remove(name);
            set
        };
        for judged in ["ship_s", "sim.runs"] {
            let (report, ok) = compare(&full, &without(judged), &bounds);
            assert!(!ok && report.contains("missing from set B"), "{report}");
            let (report, ok) = compare(&without(judged), &full, &bounds);
            assert!(!ok && report.contains("missing from set A"), "{report}");
        }
        assert!(compare(&full, &without("core.select_s"), &bounds).1);
    }

    #[test]
    fn records_round_trip() {
        let r = record(&[("ship_s", false, &[4.5, 4.25, 4.75])]);
        let text = format!("some table line\n{}\n{{\"correct\":true}}\n", r.to_json());
        assert_eq!(records_in(&text), vec![r]);
    }
}
