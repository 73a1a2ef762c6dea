//! Plain profile prediction (McFarling & Hennessy 1986): predict every
//! branch to its most frequent direction.

use brepl_trace::{Trace, TraceStats};

use crate::eval::StaticPrediction;
use crate::report::Report;

/// Builds the per-site majority-direction prediction from profile
/// statistics.
pub fn profile_prediction(stats: &TraceStats) -> StaticPrediction {
    let mut p = StaticPrediction::with_default(true);
    for (site, counts) in stats.iter_executed() {
        p.set(site, counts.majority());
    }
    p
}

/// The profile-prediction report for a trace in closed form: every site
/// mispredicts exactly its minority count.
pub fn profile_report(trace: &Trace) -> Report {
    profile_report_from_stats(&trace.stats())
}

/// [`profile_report`] from already-computed statistics — the closed form
/// needs nothing but the per-site counts, so callers that hold a
/// [`TraceStats`] (such as `table1`) skip the trace walk entirely.
pub fn profile_report_from_stats(stats: &TraceStats) -> Report {
    let mut r = Report::new();
    for (site, counts) in stats.iter_executed() {
        r.record_bulk(site, counts.total(), counts.minority_count());
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::evaluate_static;
    use brepl_ir::BranchId;
    use brepl_trace::TraceEvent;

    fn biased_trace() -> Trace {
        let mut t = Trace::new();
        for i in 0..100 {
            t.push(TraceEvent {
                site: BranchId(0),
                taken: i % 10 != 0, // 90% taken
            });
            t.push(TraceEvent {
                site: BranchId(1),
                taken: i % 4 == 0, // 25% taken
            });
        }
        t
    }

    #[test]
    fn majority_directions_selected() {
        let t = biased_trace();
        let p = profile_prediction(&t.stats());
        assert!(p.get(BranchId(0)));
        assert!(!p.get(BranchId(1)));
    }

    #[test]
    fn closed_form_matches_replay() {
        let t = biased_trace();
        let closed = profile_report(&t);
        let replayed = evaluate_static(&profile_prediction(&t.stats()), &t);
        assert_eq!(closed.mispredictions(), replayed.mispredictions());
        assert_eq!(closed.total(), replayed.total());
        // 10 + 25 wrong out of 200.
        assert_eq!(closed.mispredictions(), 35);
    }
}
