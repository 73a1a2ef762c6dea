//! Two-level adaptive predictors (Yeh & Patt 1992/1993, Pan/So/Rahmeh
//! 1992).
//!
//! The first level is a table of *history registers* recording recent
//! branch outcomes; the second is a table of *pattern tables* of two-bit
//! counters indexed by the history value. Yeh & Patt studied all nine
//! combinations of {global, per-set, per-address} history registers with
//! {global, per-set, per-address} pattern tables; [`TwoLevel`] implements
//! the full family, with finite tables and the aliasing that entails, the
//! way hardware would.

use brepl_ir::BranchId;

use crate::eval::DynamicPredictor;

/// First-level (history register) arrangement.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum RegisterArrangement {
    /// One global register (GA*).
    Global,
    /// A set of registers selected by hashing the branch address (SA*).
    PerSet {
        /// Number of registers.
        sets: usize,
    },
    /// A large per-address table of registers, still finite (PA*).
    PerAddress {
        /// Number of table entries.
        entries: usize,
    },
}

/// Second-level (pattern table) arrangement.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PatternArrangement {
    /// One pattern table shared by all branches (*Ag).
    Global,
    /// One pattern table per set of branches (*As).
    PerSet {
        /// Number of pattern tables.
        sets: usize,
    },
    /// One pattern table per address-table entry (*Ap).
    PerAddress {
        /// Number of pattern tables.
        entries: usize,
    },
}

/// A configurable two-level adaptive predictor.
#[derive(Clone, Debug)]
pub struct TwoLevel {
    history_bits: u32,
    registers: RegisterArrangement,
    patterns: PatternArrangement,
    /// History registers.
    hist: Vec<u32>,
    /// Two-bit counters, `tables × 2^history_bits`, row-major.
    counters: Vec<u8>,
    name: &'static str,
}

fn hash_site(site: BranchId, buckets: usize) -> usize {
    // Multiplicative hashing; buckets need not be a power of two.
    (site.0 as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) as usize % buckets.max(1)
}

impl TwoLevel {
    /// Creates a two-level predictor.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= history_bits <= 20` and all table sizes are
    /// non-zero.
    pub fn new(
        registers: RegisterArrangement,
        history_bits: u32,
        patterns: PatternArrangement,
    ) -> Self {
        assert!(
            (1..=20).contains(&history_bits),
            "history bits must be in 1..=20"
        );
        let register_count = match registers {
            RegisterArrangement::Global => 1,
            RegisterArrangement::PerSet { sets } => sets,
            RegisterArrangement::PerAddress { entries } => entries,
        };
        let pattern_tables = match patterns {
            PatternArrangement::Global => 1,
            PatternArrangement::PerSet { sets } => sets,
            PatternArrangement::PerAddress { entries } => entries,
        };
        assert!(register_count > 0 && pattern_tables > 0, "empty tables");
        let rows = 1usize << history_bits;
        TwoLevel {
            history_bits,
            registers,
            patterns,
            hist: vec![0; register_count],
            counters: vec![1; pattern_tables * rows], // weakly not-taken
            name: "two-level",
        }
    }

    /// The paper's comparison configuration: "a 1K entry 9 bit history
    /// register and a 1K entry pattern table with 2 bit counters" — 4K bits
    /// of pattern-table state (1024 × 2-bit counters via 9 history bits
    /// plus one address bit folded into the index) and per-address history
    /// registers.
    pub fn paper_4k() -> Self {
        let mut p = TwoLevel::new(
            RegisterArrangement::PerAddress { entries: 1024 },
            9,
            PatternArrangement::PerSet { sets: 2 },
        );
        p.name = "two level 4K bit";
        p
    }

    /// History length in bits.
    pub fn history_bits(&self) -> u32 {
        self.history_bits
    }

    fn register_index(&self, site: BranchId) -> usize {
        match self.registers {
            RegisterArrangement::Global => 0,
            RegisterArrangement::PerSet { sets } => hash_site(site, sets),
            RegisterArrangement::PerAddress { entries } => hash_site(site, entries),
        }
    }

    fn counter_index(&self, site: BranchId) -> usize {
        let table = match self.patterns {
            PatternArrangement::Global => 0,
            PatternArrangement::PerSet { sets } => hash_site(site, sets),
            PatternArrangement::PerAddress { entries } => hash_site(site, entries),
        };
        let history = self.hist[self.register_index(site)] as usize;
        table * (1usize << self.history_bits) + history
    }
}

impl DynamicPredictor for TwoLevel {
    fn predict(&mut self, site: BranchId) -> bool {
        self.counters[self.counter_index(site)] >= 2
    }

    fn update(&mut self, site: BranchId, taken: bool) {
        let ci = self.counter_index(site);
        let c = &mut self.counters[ci];
        if taken {
            if *c < 3 {
                *c += 1;
            }
        } else if *c > 0 {
            *c -= 1;
        }
        let ri = self.register_index(site);
        let mask = (1u32 << self.history_bits) - 1;
        self.hist[ri] = (self.hist[ri] << 1 | u32::from(taken)) & mask;
    }

    fn name(&self) -> &'static str {
        self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dynamic::SaturatingCounters;
    use crate::eval::simulate_dynamic;
    use brepl_trace::{Trace, TraceEvent};

    fn site_trace(site: u32, dirs: impl IntoIterator<Item = bool>) -> Trace {
        dirs.into_iter()
            .map(|taken| TraceEvent {
                site: BranchId(site),
                taken,
            })
            .collect()
    }

    #[test]
    fn learns_periodic_patterns_that_defeat_counters() {
        // Period-3 pattern: taken taken not-taken. 2-bit counters sit just
        // below/above threshold and miss the not-taken every time; a
        // two-level predictor with >= 3 history bits learns it exactly.
        let dirs: Vec<bool> = (0..3000).map(|i| i % 3 != 2).collect();
        let trace = site_trace(0, dirs);
        let counters = simulate_dynamic(&mut SaturatingCounters::new(2), &trace);
        let mut tl = TwoLevel::new(
            RegisterArrangement::PerAddress { entries: 64 },
            6,
            PatternArrangement::PerAddress { entries: 64 },
        );
        let two_level = simulate_dynamic(&mut tl, &trace);
        assert!(two_level.mispredictions() * 4 < counters.mispredictions());
        assert!(two_level.misprediction_percent() < 1.0);
    }

    #[test]
    fn global_history_exploits_cross_branch_correlation() {
        // Branch 1 copies branch 0's outcome. A global-history predictor
        // sees branch 0's outcome in the register when predicting branch 1.
        let mut trace = Trace::new();
        let mut x = 1u64;
        for _ in 0..5000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let d = x >> 40 & 1 == 1;
            trace.push(TraceEvent {
                site: BranchId(0),
                taken: d,
            });
            trace.push(TraceEvent {
                site: BranchId(1),
                taken: d,
            });
        }
        let mut gag = TwoLevel::new(
            RegisterArrangement::Global,
            4,
            PatternArrangement::PerAddress { entries: 16 },
        );
        let correlated = simulate_dynamic(&mut gag, &trace);
        let (_, wrong1) = correlated.site(BranchId(1));
        assert!(
            (wrong1 as f64) < 0.02 * 5000.0,
            "correlated branch should be nearly free: {wrong1}"
        );
        // Purely local history sees a random stream for each branch.
        let mut pap = TwoLevel::new(
            RegisterArrangement::PerAddress { entries: 16 },
            4,
            PatternArrangement::PerAddress { entries: 16 },
        );
        let local = simulate_dynamic(&mut pap, &trace);
        let (_, lw1) = local.site(BranchId(1));
        assert!(lw1 > wrong1 * 10);
    }

    #[test]
    fn paper_config_cost() {
        let p = TwoLevel::paper_4k();
        // 1024 registers of 9 bits; 2 sets × 512 rows of 2-bit counters.
        assert_eq!(p.hist.len(), 1024);
        assert_eq!(p.counters.len(), 2 * (1 << 9));
        assert_eq!(p.history_bits(), 9);
        assert_eq!(TwoLevel::paper_4k().name(), "two level 4K bit");
    }

    #[test]
    fn aliasing_degrades_tiny_tables() {
        // 64 branches, each with a fixed pseudo-random direction, executed
        // round-robin. Per-branch state learns each one perfectly; a single
        // shared history register sees an aperiodic period-64 stream that a
        // 2-bit history cannot capture.
        let mut trace = Trace::new();
        for i in 0..20_000u32 {
            let site = i % 64;
            let taken = site.wrapping_mul(2654435761) >> 28 & 1 == 1;
            trace.push(TraceEvent {
                site: BranchId(site),
                taken,
            });
        }
        let mut tiny = TwoLevel::new(
            RegisterArrangement::PerAddress { entries: 1 },
            2,
            PatternArrangement::Global,
        );
        let mut roomy = TwoLevel::new(
            RegisterArrangement::PerAddress { entries: 1024 },
            2,
            PatternArrangement::PerAddress { entries: 1024 },
        );
        let tiny_r = simulate_dynamic(&mut tiny, &trace);
        let roomy_r = simulate_dynamic(&mut roomy, &trace);
        assert!(roomy_r.mispredictions() < tiny_r.mispredictions());
    }

    #[test]
    fn all_nine_combinations_run() {
        let regs = [
            RegisterArrangement::Global,
            RegisterArrangement::PerSet { sets: 4 },
            RegisterArrangement::PerAddress { entries: 64 },
        ];
        let pats = [
            PatternArrangement::Global,
            PatternArrangement::PerSet { sets: 4 },
            PatternArrangement::PerAddress { entries: 64 },
        ];
        let dirs: Vec<bool> = (0..200).map(|i| i % 5 != 0).collect();
        let trace = site_trace(3, dirs);
        for r in regs {
            for p in pats {
                let mut tl = TwoLevel::new(r, 4, p);
                let report = simulate_dynamic(&mut tl, &trace);
                assert_eq!(report.total(), 200);
            }
        }
    }

    #[test]
    #[should_panic(expected = "history bits")]
    fn zero_history_rejected() {
        let _ = TwoLevel::new(RegisterArrangement::Global, 0, PatternArrangement::Global);
    }
}
