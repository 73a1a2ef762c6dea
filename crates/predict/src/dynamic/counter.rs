//! Saturating up/down counters (Smith 1981). A branch predicts taken when
//! its counter sits in the upper half of the value range; the counter
//! saturates at both ends. Smith found two bits best, which the paper
//! adopts as its "2 bit counter" comparison row.

use brepl_ir::BranchId;

use crate::eval::DynamicPredictor;

/// Per-branch n-bit saturating counter predictor with an unbounded
/// (per-site) table.
#[derive(Clone, Debug)]
pub struct SaturatingCounters {
    max: u8,
    threshold: u8,
    initial: u8,
    counters: Vec<u8>,
    name: &'static str,
}

impl SaturatingCounters {
    /// Creates a predictor with `bits`-wide counters, initialized to the
    /// weakly-taken state.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= bits <= 8`.
    pub fn new(bits: u32) -> Self {
        assert!((1..=8).contains(&bits), "counter bits must be in 1..=8");
        let max = ((1u16 << bits) - 1) as u8;
        let threshold = (1u16 << (bits - 1)) as u8;
        SaturatingCounters {
            max,
            threshold,
            initial: threshold, // weakly taken
            counters: Vec::new(),
            name: match bits {
                1 => "1bit counter",
                2 => "2bit counter",
                3 => "3bit counter",
                _ => "nbit counter",
            },
        }
    }

    fn counter(&mut self, site: BranchId) -> &mut u8 {
        let i = site.index();
        if i >= self.counters.len() {
            let init = self.initial;
            self.counters.resize(i + 1, init);
        }
        &mut self.counters[i]
    }
}

impl DynamicPredictor for SaturatingCounters {
    fn predict(&mut self, site: BranchId) -> bool {
        let threshold = self.threshold;
        *self.counter(site) >= threshold
    }

    fn update(&mut self, site: BranchId, taken: bool) {
        let max = self.max;
        let c = self.counter(site);
        if taken {
            if *c < max {
                *c += 1;
            }
        } else if *c > 0 {
            *c -= 1;
        }
    }

    fn name(&self) -> &'static str {
        self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::simulate_dynamic;
    use brepl_trace::{Trace, TraceEvent};

    fn trace_of(dirs: impl IntoIterator<Item = bool>) -> Trace {
        dirs.into_iter()
            .map(|taken| TraceEvent {
                site: BranchId(0),
                taken,
            })
            .collect()
    }

    #[test]
    fn saturates_at_both_ends() {
        let mut p = SaturatingCounters::new(2);
        for _ in 0..10 {
            p.update(BranchId(0), false);
        }
        assert!(!p.predict(BranchId(0)));
        // One taken outcome must not flip a saturated not-taken counter.
        p.update(BranchId(0), true);
        assert!(!p.predict(BranchId(0)));
        p.update(BranchId(0), true);
        assert!(p.predict(BranchId(0)));
    }

    #[test]
    fn two_bit_beats_last_direction_on_loop_exits() {
        // Loop that runs 10 iterations then exits, repeatedly: the single
        // not-taken exit should cost the 2-bit counter one miss, not two.
        let dirs: Vec<bool> = (0..1100).map(|i| i % 11 != 10).collect();
        let trace = trace_of(dirs.clone());
        let two_bit = simulate_dynamic(&mut SaturatingCounters::new(2), &trace);
        let last = simulate_dynamic(&mut crate::dynamic::LastDirection::new(), &trace_of(dirs));
        assert!(two_bit.mispredictions() < last.mispredictions());
        assert_eq!(SaturatingCounters::new(2).name(), "2bit counter");
    }

    #[test]
    fn one_bit_counter_equals_last_direction_after_warmup() {
        let dirs: Vec<bool> = (0..500).map(|i| (i / 7) % 2 == 0).collect();
        let one_bit = simulate_dynamic(&mut SaturatingCounters::new(1), &trace_of(dirs.clone()));
        let last = simulate_dynamic(&mut crate::dynamic::LastDirection::new(), &trace_of(dirs));
        let diff = (one_bit.mispredictions() as i64 - last.mispredictions() as i64).unsigned_abs();
        assert!(diff <= 1, "only cold-start may differ, got {diff}");
    }

    #[test]
    #[should_panic(expected = "counter bits")]
    fn zero_bits_rejected() {
        let _ = SaturatingCounters::new(0);
    }
}
