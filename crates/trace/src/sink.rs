//! Event sinks: what a run does with each executed conditional branch.
//!
//! The simulator hands every branch event to one sink, chosen per run.
//! A [`Trace`] records the events in order, for consumers that read the
//! sequence itself (the trace codec, the chaos engine's trace forges); a
//! [`TraceStats`] only counts them per site, for consumers that read
//! nothing else (misprediction scoring, the dynamic backstop's
//! histograms). Counting into a `TraceStats` gives exactly
//! `trace.stats()` of the recorded run, in memory proportional to the
//! number of sites instead of events. A
//! [`SegmentFold`](crate::SegmentFold) splits the events by segment and
//! by original site as they arrive, for the drift observer, in a few
//! bits per event; `brepl_core::ProfileFold` folds a profiling run into
//! the counts, per-site streams and path profiles that selection reads,
//! so the pipeline records no trace.

use brepl_ir::BranchId;

use crate::stats::TraceStats;
use crate::trace::{Trace, TraceEvent};

/// A consumer of branch events, fed in execution order.
pub trait EventSink {
    /// Takes one executed conditional branch.
    fn record(&mut self, site: BranchId, taken: bool);

    /// Number of events taken so far.
    fn events(&self) -> usize;

    /// Called when a segmented run reaches its next segment bound (see
    /// `brepl_sim::Machine::run_with`): the events after it belong to the
    /// next segment. Sinks that do not split by segment ignore it.
    #[inline]
    fn mark(&mut self) {}
}

impl EventSink for Trace {
    #[inline]
    fn record(&mut self, site: BranchId, taken: bool) {
        self.push(TraceEvent { site, taken });
    }

    #[inline]
    fn events(&self) -> usize {
        self.len()
    }
}

impl EventSink for TraceStats {
    #[inline]
    fn record(&mut self, site: BranchId, taken: bool) {
        self.count(site, taken);
    }

    #[inline]
    fn events(&self) -> usize {
        self.total_events() as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counting_equals_recording_then_stats() {
        let events = [(3u32, true), (0, false), (3, false), (7, true), (0, false)];
        let mut trace = Trace::new();
        let mut counts = TraceStats::default();
        for &(site, taken) in &events {
            trace.record(BranchId(site), taken);
            counts.record(BranchId(site), taken);
            assert_eq!(trace.events(), counts.events());
        }
        assert_eq!(counts, trace.stats());
        assert_eq!(TraceStats::default(), Trace::new().stats());
    }
}
