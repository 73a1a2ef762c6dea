//! Evaluation harnesses: replay a trace against a dynamic predictor or a
//! fixed per-site prediction.

use std::collections::HashMap;

use brepl_ir::BranchId;
use brepl_trace::{Trace, TraceStats};

use crate::report::Report;

/// An online (run-time) branch predictor.
///
/// The simulator calls [`predict`](Self::predict) before revealing the
/// outcome and [`update`](Self::update) afterwards, exactly like the
/// fetch/resolve split in hardware.
pub trait DynamicPredictor {
    /// Predicts the direction of the next execution of `site`.
    fn predict(&mut self, site: BranchId) -> bool;
    /// Informs the predictor of the actual outcome.
    fn update(&mut self, site: BranchId, taken: bool);
    /// A short display name ("2bit", "two-level 4K", ...).
    fn name(&self) -> &'static str;
}

/// Replays `trace` against `predictor` and reports mispredictions.
///
/// The predictor is stateful, so this is inherently sequential; the pass
/// still works off the packed event words directly and batches the
/// misprediction accounting into pre-sized per-site arrays.
pub fn simulate_dynamic<P: DynamicPredictor + ?Sized>(predictor: &mut P, trace: &Trace) -> Report {
    let n_sites = trace.max_site().map_or(0, |s| s.index() + 1);
    let mut counts = vec![(0u64, 0u64); n_sites];
    for &p in trace.packed() {
        let site = BranchId(p >> 1);
        let taken = p & 1 == 1;
        let guess = predictor.predict(site);
        let c = &mut counts[site.index()];
        c.0 += 1;
        c.1 += u64::from(guess != taken);
        predictor.update(site, taken);
    }
    Report::from_counts(counts)
}

/// A fixed, per-site prediction — the output shape of every static and
/// semi-static strategy that does not use history.
///
/// Sites absent from the map fall back to `default` (the usual choice is
/// `true`, i.e. predict taken, matching Smith's baseline).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StaticPrediction {
    predictions: HashMap<BranchId, bool>,
    /// Prediction for sites with no entry.
    pub default: bool,
}

impl StaticPrediction {
    /// An empty prediction set that predicts `default` everywhere.
    pub fn with_default(default: bool) -> Self {
        StaticPrediction {
            predictions: HashMap::new(),
            default,
        }
    }

    /// Sets the prediction for one site.
    pub fn set(&mut self, site: BranchId, taken: bool) {
        self.predictions.insert(site, taken);
    }

    /// The prediction for `site`.
    pub fn get(&self, site: BranchId) -> bool {
        self.predictions.get(&site).copied().unwrap_or(self.default)
    }

    /// Iterates over the explicit `(site, prediction)` entries, in no
    /// particular order.
    pub fn iter(&self) -> impl Iterator<Item = (BranchId, bool)> + '_ {
        self.predictions.iter().map(|(&s, &p)| (s, p))
    }

    /// Number of explicit entries.
    pub fn len(&self) -> usize {
        self.predictions.len()
    }

    /// True when no explicit entries exist.
    pub fn is_empty(&self) -> bool {
        self.predictions.is_empty()
    }
}

impl FromIterator<(BranchId, bool)> for StaticPrediction {
    fn from_iter<I: IntoIterator<Item = (BranchId, bool)>>(iter: I) -> Self {
        StaticPrediction {
            predictions: iter.into_iter().collect(),
            default: true,
        }
    }
}

/// Scores a fixed per-site prediction against a trace: its per-site
/// counts ([`Trace::stats`]) through [`evaluate_static_counts`].
pub fn evaluate_static(prediction: &StaticPrediction, trace: &Trace) -> Report {
    evaluate_static_counts(prediction, &trace.stats())
}

/// Scores a fixed per-site prediction against per-site taken/not-taken
/// counts: a site predicted taken mispredicts its not-taken count and
/// vice versa. A fixed prediction needs nothing else of a run, so this is
/// the whole scorer — [`evaluate_static`] included — and a run that only
/// counted its branches ([`brepl_trace::EventSink`]) is scored exactly
/// like one that recorded them.
pub fn evaluate_static_counts(prediction: &StaticPrediction, counts: &TraceStats) -> Report {
    let mut per_site = vec![(0u64, 0u64); counts.site_count()];
    for (site, c) in counts.iter_executed() {
        let wrong = if prediction.get(site) {
            c.not_taken
        } else {
            c.taken
        };
        per_site[site.index()] = (c.total(), wrong);
    }
    Report::from_counts(per_site)
}

#[cfg(test)]
mod tests {
    use super::*;
    use brepl_trace::TraceEvent;

    struct AlwaysTaken;
    impl DynamicPredictor for AlwaysTaken {
        fn predict(&mut self, _: BranchId) -> bool {
            true
        }
        fn update(&mut self, _: BranchId, _: bool) {}
        fn name(&self) -> &'static str {
            "always-taken"
        }
    }

    fn alternating(n: usize) -> Trace {
        (0..n)
            .map(|i| TraceEvent {
                site: BranchId(0),
                taken: i % 2 == 0,
            })
            .collect()
    }

    #[test]
    fn always_taken_on_alternating_is_half_wrong() {
        let r = simulate_dynamic(&mut AlwaysTaken, &alternating(100));
        assert_eq!(r.mispredictions(), 50);
        assert_eq!(AlwaysTaken.name(), "always-taken");
    }

    #[test]
    fn static_prediction_lookup_and_eval() {
        let mut p = StaticPrediction::with_default(true);
        assert!(p.is_empty());
        p.set(BranchId(0), false);
        assert_eq!(p.len(), 1);
        assert!(!p.get(BranchId(0)));
        assert!(p.get(BranchId(9)));
        let r = evaluate_static(&p, &alternating(10));
        // Predicting not-taken on alternating: wrong on even indices.
        assert_eq!(r.mispredictions(), 5);
    }

    #[test]
    fn from_iter_collects() {
        let p: StaticPrediction = vec![(BranchId(1), false)].into_iter().collect();
        assert!(!p.get(BranchId(1)));
        assert!(p.get(BranchId(2)));
    }
}
