//! A later landmark of the dynamic-prediction line the paper engages
//! with: McFarling's *gshare* (global history XOR branch address). It
//! postdates Yeh–Patt and gives the reproduction a stronger dynamic
//! baseline to compare the semi-static schemes against.

use brepl_ir::BranchId;

use crate::eval::DynamicPredictor;

/// McFarling's gshare: a single table of 2-bit counters indexed by
/// `history XOR hash(site)`.
#[derive(Clone, Debug)]
pub struct Gshare {
    history_bits: u32,
    history: u32,
    counters: Vec<u8>,
}

impl Gshare {
    /// Creates a gshare predictor with `2^history_bits` counters.
    ///
    /// # Panics
    ///
    /// Panics unless `2 <= history_bits <= 20`.
    pub fn new(history_bits: u32) -> Self {
        assert!(
            (2..=20).contains(&history_bits),
            "history bits must be in 2..=20"
        );
        Gshare {
            history_bits,
            history: 0,
            counters: vec![1; 1 << history_bits],
        }
    }

    fn index(&self, site: BranchId) -> usize {
        let mask = (1u32 << self.history_bits) - 1;
        let hashed = (site.0 as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) as u32;
        ((self.history ^ hashed) & mask) as usize
    }
}

impl DynamicPredictor for Gshare {
    fn predict(&mut self, site: BranchId) -> bool {
        self.counters[self.index(site)] >= 2
    }

    fn update(&mut self, site: BranchId, taken: bool) {
        let i = self.index(site);
        let c = &mut self.counters[i];
        if taken {
            if *c < 3 {
                *c += 1;
            }
        } else if *c > 0 {
            *c -= 1;
        }
        let mask = (1u32 << self.history_bits) - 1;
        self.history = (self.history << 1 | u32::from(taken)) & mask;
    }

    fn name(&self) -> &'static str {
        "gshare"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::simulate_dynamic;
    use brepl_trace::{Trace, TraceEvent};

    fn trace_of(dirs: impl IntoIterator<Item = (u32, bool)>) -> Trace {
        dirs.into_iter()
            .map(|(site, taken)| TraceEvent {
                site: BranchId(site),
                taken,
            })
            .collect()
    }

    #[test]
    fn gshare_learns_periodic_patterns() {
        let dirs: Vec<(u32, bool)> = (0..4000).map(|i| (0, i % 5 != 4)).collect();
        let r = simulate_dynamic(&mut Gshare::new(10), &trace_of(dirs));
        assert!(r.misprediction_percent() < 1.0);
    }

    #[test]
    fn gshare_separates_branches_by_hash() {
        // Two branches with opposite constant behavior.
        let dirs: Vec<(u32, bool)> = (0..4000).map(|i| (i % 2, i % 2 == 0)).collect();
        let r = simulate_dynamic(&mut Gshare::new(12), &trace_of(dirs));
        assert!(r.misprediction_percent() < 5.0);
    }

    #[test]
    #[should_panic(expected = "history bits")]
    fn gshare_rejects_tiny_history() {
        let _ = Gshare::new(1);
    }
}
