//! # brepl-core — the primary contribution of the paper
//!
//! Implements Krall's technique end to end:
//!
//! 1. **State machines** over branch history patterns
//!    ([`machine::StateMachine`], [`pattern::HistPattern`]);
//! 2. **Searches** for the best machine per branch class: exhaustive
//!    intra-loop search over complete suffix antichains
//!    ([`intra_loop::IntraLoopSearch`]), loop-exit chains and oscillators
//!    ([`loop_exit`]), and greedy correlated-path selection
//!    ([`correlated`]);
//! 3. **Per-branch strategy selection** capped at a state budget
//!    ([`select::select_strategies`], Table 5), from a profiling run
//!    folded as it runs ([`profile::ProfileFold`]);
//! 4. **Greedy state addition** under the paper's size model
//!    ([`greedy::greedy_curve`], Figures 6–13);
//! 5. **Code replication**: loop replication with product state spaces and
//!    correlated tail duplication, with semantic-equivalence checking
//!    ([`replicate`]).
//!
//! The full pipeline — profile, select, replicate, re-measure — lives in
//! the root `brepl` crate.
#![forbid(unsafe_code)]
#![warn(missing_docs)]

#[cfg(feature = "chaos")]
pub mod chaos;
pub mod correlated;
pub mod engine;
pub mod greedy;
pub mod intra_loop;
pub mod joint;
pub mod loop_exit;
pub mod machine;
pub mod memo;
pub mod pattern;
pub mod profile;
pub mod replicate;
pub mod respec;
pub mod select;

pub use engine::{par_map, par_map_with, thread_count};
pub use greedy::{greedy_curve, CurvePoint, GreedyCurve};
pub use intra_loop::{IntraLoopSearch, SearchResult};
pub use joint::{allocate_joint_states, BranchCurve, JointAllocation};
pub use machine::{MachineState, StateMachine};
pub use pattern::{HistPattern, ParsePatternError};
pub use profile::ProfileFold;
pub use replicate::{
    apply_plan, check_equivalence, check_equivalence_counts, check_equivalence_outcomes,
    BranchMachine, ReplicatedProgram, ReplicationPlan, RunCounts,
};
pub use respec::{PatchKind, PatchOutcome, PatchRecord, Respec, RespecConfig};
pub use select::{
    select_strategies, select_strategies_classified, select_strategies_folded,
    select_strategies_with_threads, synthesize_profile_trace, Selection, StrategyChoice,
};
