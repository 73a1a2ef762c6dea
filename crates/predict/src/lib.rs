//! # brepl-predict — the branch predictor zoo
//!
//! Implements every prediction strategy the paper compares in §2–§3:
//!
//! * **Static** (no profile): Smith's heuristics ([`stat::smith`]), the
//!   Ball–Larus heuristic chain ([`stat::ball_larus`]), and the
//!   proof-guided loop/default chain ([`stat::proof_guided`]) that lets a
//!   caller pin directions proved by static analysis.
//! * **Dynamic** (run-time state): last-direction, n-bit saturating
//!   counters, and the full family of Yeh–Patt two-level adaptive
//!   predictors including the paper's 4K-bit configuration
//!   ([`dynamic`]).
//! * **Semi-static** (profile-driven): plain profile prediction, and the
//!   history-pattern-table schemes — *k*-bit global-history correlation and
//!   *k*-bit local-history loop prediction plus their per-branch best-of
//!   combination ([`semistatic`], [`PatternTableSet`]).
//!
//! Everything is evaluated against a [`brepl_trace::Trace`] and reports a
//! [`Report`] with total and per-site misprediction counts.
//!
//! ```
//! use brepl_ir::BranchId;
//! use brepl_trace::{Trace, TraceEvent};
//! use brepl_predict::dynamic::SaturatingCounters;
//! use brepl_predict::simulate_dynamic;
//!
//! // A strongly biased branch: the 2-bit counter nails it after warmup.
//! let trace: Trace = (0..1000)
//!     .map(|i| TraceEvent { site: BranchId(0), taken: i % 50 != 0 })
//!     .collect();
//! let report = simulate_dynamic(&mut SaturatingCounters::new(2), &trace);
//! assert!(report.misprediction_percent() < 5.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dynamic;
pub mod semistatic;
pub mod stat;

mod eval;
mod pattern;
mod report;

pub use eval::{
    evaluate_static, evaluate_static_counts, simulate_dynamic, DynamicPredictor, StaticPrediction,
};
pub use pattern::{HistoryKind, PatternTable, PatternTableSet, SuffixAggregate};
pub use report::Report;
