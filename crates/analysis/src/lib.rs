//! # brepl-analysis — dataflow analyses and static translation validation
//!
//! Code replication (Krall, PLDI 1994) rewrites whole loop nests so branch
//! history is encoded in the program counter. This crate provides the
//! static machinery to trust that rewrite — and to reason about the IR in
//! general:
//!
//! * a **worklist dataflow solver** ([`solve`]) for gen/kill bit-vector
//!   problems ([`GenKill`]) over [`brepl_cfg::Cfg`] graphs, forward or
//!   backward, with a union or intersection meet;
//! * concrete analyses for the non-SSA register IR: [`liveness`] and
//!   [`use_before_def`] (block reachability is
//!   [`brepl_cfg::Cfg::reachable`]);
//! * a **translation validator** ([`validate_replication`]) that checks a
//!   simulation relation between an original module and its replicated
//!   form, using the [`ReplicaMap`] witness the replicator emits;
//! * a **witness-independent history checker** ([`check_history`]) that
//!   re-proves the encoding by abstract interpretation over the product of
//!   the replicated CFG with each branch machine's transition table
//!   ([`solve_site_product`]) — its trust base deliberately excludes the
//!   `ReplicaMap`, so a transform bug that corrupts code and witness
//!   consistently still gets caught;
//! * a **static cost model** ([`static_cost`]) folding the profiling trace
//!   through the replicated control flow for per-site misprediction
//!   bounds;
//! * a diagnostics layer ([`AnalysisDiag`]) with stable codes `BR001`
//!   through `BR024`, each with one severity ([`DiagCode::severity`]),
//!   and [`lint_module`] for the warning-severity lints.
//!
//! ```
//! use brepl_analysis::{validate_replication, ReplicaMap};
//! use brepl_ir::{FunctionBuilder, Module};
//! use brepl_predict::StaticPrediction;
//!
//! let mut b = FunctionBuilder::new("main", 0);
//! b.ret(None);
//! let mut m = Module::new();
//! m.push_function(b.finish());
//!
//! // A module trivially simulates itself under the identity witness.
//! let map = ReplicaMap::identity(&m);
//! let predictions = StaticPrediction::with_default(true);
//! assert!(validate_replication(&m, &m, &map, &predictions).is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bitset;
mod classify;
mod const_prop;
mod cost;
mod diag;
mod freq;
mod gate_cache;
mod history;
mod interval;
mod lint;
mod liveness;
mod product;
mod replica_map;
mod solver;
mod uninit;
mod validate;

pub use bitset::BitSet;
pub use classify::{
    classification_diags, classify_module, prediction_proof_diags, Classification, DirectionClass,
    SiteClass,
};
pub use const_prop::{AbsVal, ConstProp, Env, FuncValues};
pub use cost::{static_cost, CostError, CostReport, SiteCost};
pub use diag::{has_errors, AnalysisDiag, DiagCode, LintConfig, Severity};
pub use freq::{
    bias_error, estimate_profile, static_profile_diags, BiasEstimate, FuncProfile, SiteEstimate,
    StaticProfile, CONSERVATION_EPS,
};
pub use gate_cache::{check_history_cached, validate_replication_cached, GateCache};
pub use history::check_history;
pub use interval::Interval;
pub use lint::lint_module;
pub use liveness::{liveness, term_uses, Liveness};
pub use product::{
    solve_site_product, HistorySpec, MachineTable, ProductSolution, TableState, MAX_PRODUCT_NODES,
};
pub use replica_map::{ReplicaFuncMap, ReplicaMap};
pub use solver::{
    default_solve_budget, solve, DataflowSolution, Direction, GenKill, Meet, SolveStats,
};
pub use uninit::{use_before_def, UseBeforeDef};
pub use validate::validate_replication;
