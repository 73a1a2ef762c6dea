//! The end-to-end pipeline: profile → select machines → replicate →
//! verify → re-measure. This is the workflow an optimizing compiler would
//! run between profiling and code generation.
//!
//! Replication is an *optimization*: a site whose replication fails a
//! static gate is **quarantined** — dropped from the plan, recorded in
//! [`PipelineResult::quarantined`], and the pipeline re-applies and
//! re-validates with the remaining sites — rather than aborting the whole
//! workload. [`PipelineConfig::strict`] restores the hard abort for CI
//! use. See DESIGN.md §7 "Degradation modes".
//!
//! Every entry point runs one driver over one ordered list of static
//! gates, and one function turns any gate's diagnostics into quarantine
//! records or a hard error (DESIGN.md §7 has the gate table).

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::error::Error;
use std::fmt;

use brepl_analysis::{
    check_history_cached, classification_diags, classify_module, estimate_profile,
    prediction_proof_diags, static_profile_diags, validate_replication_cached, AnalysisDiag,
    Classification, DiagCode, GateCache, HistorySpec, LintConfig, StaticProfile,
};
use brepl_core::replicate::ReplicateError;
use brepl_core::{
    apply_plan, check_equivalence_counts, select_strategies_folded, synthesize_profile_trace,
    BranchMachine, PatchRecord, ProfileFold, ReplicatedProgram, Respec, RunCounts, Selection,
};
use brepl_ir::{BranchId, Module, Value};
use brepl_predict::{evaluate_static_counts, StaticPrediction};
use brepl_sim::{Machine, Run, RunConfig, RunError};
use brepl_trace::{EventSink, Segment, SegmentFold, Trace, TraceStats};

#[cfg(feature = "chaos")]
use brepl_core::chaos::{ChaosEngine, ChaosPoint, Injection};
#[cfg(feature = "chaos")]
use brepl_core::PatchOutcome;

/// Pipeline tuning knobs. Every run checks the whole gate list; these
/// shape the plan, the verdicts and the re-measure.
#[derive(Clone, Copy, Debug)]
pub struct PipelineConfig {
    /// Maximum states per branch machine (the paper explores 2..=10).
    pub max_states: usize,
    /// Interpreter limits for both profiling and verification runs.
    pub run: RunConfig,
    /// The split of every gate's diagnostics into errors and warnings:
    /// each code at its one severity ([`brepl_analysis::DiagCode::severity`]).
    /// It has no settings.
    pub lint: LintConfig,
    /// When true (default), additionally compare the original's profiling
    /// run against the shipped program's re-measure run — results, output
    /// tapes, step counts and per-original-site branch histograms — a
    /// single dynamic backstop behind the static validator, which covers
    /// every round. Both runs happen anyway (and under [`Self::run`], the
    /// same configuration), so the backstop costs no extra simulation:
    /// the profiling run's per-site counts are the planner's, and the
    /// re-measure run only counts its branches per site instead of
    /// recording a trace ([`brepl_core::check_equivalence_counts`]).
    pub dynamic_backstop: bool,
    /// Estimated code-size budget (growth factor). Branches are enabled in
    /// greedy benefit-per-size order until the estimate exceeds the budget
    /// — the paper's "cost function will calculate whether the increase in
    /// code size is worth the gain". `None` replicates every improving
    /// branch.
    pub max_size_growth: Option<f64>,
    /// *Realized* code-size budget with backoff (default `None` = off).
    /// Unlike [`Self::max_size_growth`], which gates on the selection-time
    /// *estimate*, this cap is checked against the actual replicated
    /// module each round; while exceeded, the pipeline halves the state
    /// count of the largest enabled machine (recorded in
    /// [`PipelineResult::size_backoffs`]) and finally drops the site
    /// (gate [`QuarantineGate::SizeBudget`]) — so adversarial profiles
    /// terminate at bounded size instead of blowing up.
    pub max_realized_growth: Option<f64>,
    /// When true (default), re-measure the replicated program and *drop*
    /// machines whose realized prediction is no better than profile (the
    /// trace-suffix profile of correlated machines is an approximation of
    /// the CFG-path replica, so a few machines can fail to transfer);
    /// replication is then redone with the pruned plan.
    pub refine: bool,
    /// When true, any gate failure aborts with a typed [`PipelineError`]
    /// — today's pre-quarantine behavior, for CI runs where a firing gate
    /// means a replicator bug to investigate, not a site to ship without.
    /// Default `false`: degrade gracefully via per-site quarantine.
    pub strict: bool,
    /// Deterministic fault injection (test harness; feature `chaos`).
    /// `Some(config)` arms exactly one injection point for this run; the
    /// injected fault and the quarantine it provoked are recorded in
    /// [`PipelineResult::chaos_injection`] / `quarantined`.
    #[cfg(feature = "chaos")]
    pub chaos: Option<brepl_core::chaos::ChaosConfig>,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            max_states: 4,
            run: RunConfig::default(),
            lint: LintConfig,
            dynamic_backstop: true,
            max_size_growth: Some(3.0),
            max_realized_growth: None,
            refine: true,
            strict: false,
            #[cfg(feature = "chaos")]
            chaos: None,
        }
    }
}

/// Pipeline failure.
#[derive(Debug)]
pub enum PipelineError {
    /// A program run trapped.
    Run(RunError),
    /// The replication transform failed.
    Replicate(ReplicateError),
    /// The static translation validator rejected the replicated program
    /// (rendered error-severity diagnostics, `; `-joined).
    Validation(String),
    /// The witness-independent history checker rejected the replicated
    /// program (rendered error-severity diagnostics, `; `-joined).
    History(String),
    /// The dynamic backstop found a divergence between the programs.
    Equivalence(String),
    /// The profiling trace failed an integrity check (e.g. it no longer
    /// decodes after mid-stream truncation).
    Trace(String),
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::Run(e) => write!(f, "program run failed: {e}"),
            PipelineError::Replicate(e) => write!(f, "replication failed: {e}"),
            PipelineError::Validation(e) => write!(f, "static validation failed: {e}"),
            PipelineError::History(e) => write!(f, "history check failed: {e}"),
            PipelineError::Equivalence(e) => write!(f, "equivalence check failed: {e}"),
            PipelineError::Trace(e) => write!(f, "profiling trace rejected: {e}"),
        }
    }
}

impl Error for PipelineError {}

impl From<RunError> for PipelineError {
    fn from(e: RunError) -> Self {
        PipelineError::Run(e)
    }
}

impl From<ReplicateError> for PipelineError {
    fn from(e: ReplicateError) -> Self {
        PipelineError::Replicate(e)
    }
}

/// Which gate removed a site from the plan.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum QuarantineGate {
    /// The static translation validator
    /// ([`brepl_analysis::validate_replication`]).
    Validation,
    /// The witness-independent history checker
    /// ([`brepl_analysis::check_history`]).
    History,
    /// The replication transform itself refused the site.
    Replicate,
    /// The profiling trace failed integrity checking.
    Profile,
    /// The realized code-growth budget
    /// ([`PipelineConfig::max_realized_growth`]) was exhausted.
    SizeBudget,
    /// The static direction classification contradicted the profile
    /// (codes `BR013`–`BR017`).
    Classify,
    /// The estimate-vs-measured drift gate fired (codes `BR019`–`BR022`).
    Estimate,
}

impl QuarantineGate {
    /// Stable lowercase name (JSON output, logs).
    pub fn name(self) -> &'static str {
        match self {
            QuarantineGate::Validation => "validation",
            QuarantineGate::History => "history",
            QuarantineGate::Replicate => "replicate",
            QuarantineGate::Profile => "profile",
            QuarantineGate::SizeBudget => "size-budget",
            QuarantineGate::Classify => "classify",
            QuarantineGate::Estimate => "estimate",
        }
    }
}

impl fmt::Display for QuarantineGate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One site the pipeline dropped instead of aborting, and why.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QuarantinedSite {
    /// The original-module branch site.
    pub site: BranchId,
    /// The gate that rejected it.
    pub gate: QuarantineGate,
    /// Offending diagnostic codes (sorted, deduplicated; empty for
    /// non-diagnostic gates like [`QuarantineGate::SizeBudget`]).
    pub codes: Vec<DiagCode>,
    /// Rendered explanation (first few diagnostics, or the gate's own
    /// message).
    pub reason: String,
    /// Which replication round (1-based) dropped the site.
    pub round: usize,
}

/// One growth-budget backoff step: a machine shrunk (or dropped, when
/// `to_states == 0`) because the realized module exceeded
/// [`PipelineConfig::max_realized_growth`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SizeBackoff {
    /// The site whose machine was shrunk.
    pub site: BranchId,
    /// State count before the step.
    pub from_states: usize,
    /// State count after the step (`0` = the site was dropped).
    pub to_states: usize,
    /// Which replication round (1-based) took the step.
    pub round: usize,
}

/// Summary of the static direction classification
/// ([`brepl_analysis::classify_module`]: SCCP over an interval domain
/// plus trip-count proofs) that every run computes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ClassificationSummary {
    /// Sites whose direction is proved (always- or never-taken).
    pub proved: usize,
    /// Sites with an exact trip-count bias proof.
    pub bounded: usize,
    /// Sites left profile-dependent.
    pub dependent: usize,
    /// Proved sites the planner skipped the machine search for (their
    /// unanimous profile makes the Profile choice unbeatable).
    pub planner_skips: usize,
    /// Whether every function's classification fixpoint converged
    /// (`false` ⇒ a `BR017` fired for each unconverged function).
    pub converged: bool,
}

/// Summary of the static profile estimation
/// ([`brepl_analysis::estimate_profile`]) that every run computes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EstimateSummary {
    /// Sites whose bias estimate is proof-backed exact.
    pub exact_sites: usize,
    /// Sites carrying heuristic-only estimates.
    pub heuristic_sites: usize,
    /// Whether every function's frequency propagation converged
    /// (`false` ⇒ a `BR022` fired for each unconverged function).
    pub converged: bool,
}

/// Everything the pipeline produced.
#[derive(Debug)]
pub struct PipelineResult {
    /// Misprediction (%) of plain profile prediction on the original
    /// program.
    pub profile_misprediction_percent: f64,
    /// Misprediction (%) of static per-site prediction on the replicated
    /// program.
    pub replicated_misprediction_percent: f64,
    /// Misprediction (%) the selection promised on the profiling run
    /// (ignoring replication mechanics); close to the replicated number.
    pub selected_misprediction_percent: f64,
    /// Code size growth factor.
    pub size_growth: f64,
    /// Branch events of the plan's profile: the events the profiling run
    /// folded, or the synthesized trace's length for a static plan.
    pub trace_events: u64,
    /// The per-branch strategy selection.
    pub selection: Selection,
    /// The sites whose machines actually shipped: enabled by the size
    /// budget and kept by every refinement round.
    pub replicated_sites: BTreeSet<BranchId>,
    /// Sites dropped by a gate instead of aborting the pipeline
    /// (empty under [`PipelineConfig::strict`], which aborts instead, and
    /// on clean runs).
    pub quarantined: Vec<QuarantinedSite>,
    /// Growth-budget backoff steps taken
    /// ([`PipelineConfig::max_realized_growth`]).
    pub size_backoffs: Vec<SizeBackoff>,
    /// Warning-severity diagnostics of the static gates: the last
    /// round's witness validator and
    /// history checker first, then the classification gate (e.g. `BR018`
    /// constant-condition notes), the estimate gate and the proof
    /// post-check. Error-severity diagnostics quarantine or abort instead
    /// of landing here.
    pub warnings: Vec<AnalysisDiag>,
    /// Summary of the static direction classification.
    pub classification: ClassificationSummary,
    /// Summary of the static profile estimation.
    pub estimate: EstimateSummary,
    /// True when the pipeline was planned from a synthesized static
    /// profile ([`run_pipeline_static`]) instead of a profiling run.
    pub static_planned: bool,
    /// The fault the armed chaos engine injected, if it fired
    /// (feature `chaos`; see [`PipelineConfig::chaos`]).
    #[cfg(feature = "chaos")]
    pub chaos_injection: Option<brepl_core::chaos::Injection>,
    /// The replicated program with predictions and provenance.
    pub program: ReplicatedProgram,
}

/// Runs the whole pipeline on `module` with entry function `main`.
///
/// Gate failures quarantine the offending sites and re-replicate without
/// them (see [`PipelineResult::quarantined`]); under
/// [`PipelineConfig::strict`] they abort instead.
///
/// # Errors
///
/// Returns a [`PipelineError`] if any run traps, the dynamic backstop
/// finds a divergence, a gate fires with *nothing left to quarantine*
/// (errors on an empty plan would be a validator bug), or — in strict
/// mode — any gate fires at all.
pub fn run_pipeline(
    module: &Module,
    args: &[Value],
    input: &[Value],
    config: PipelineConfig,
) -> Result<PipelineResult, PipelineError> {
    drive(module, args, input, PlanSource::Measured, config).map(|(result, ..)| result)
}

/// [`run_pipeline`] with **zero profiling runs**: plans replication from
/// a synthesized static profile instead of a measured trace.
///
/// The module is classified, a [`brepl_analysis::StaticProfile`] is
/// estimated (proof-promoted exact biases plus Ball–Larus heuristics,
/// Wu–Larus frequency propagation), and the expected trace is
/// synthesized from it ([`synthesize_profile_trace`]) — whole periods of
/// each site's bias rational, budget-scaled by estimated frequency. That
/// synthetic trace then drives the same driver as a profiling run: the
/// same selection, the same `apply_plan`, and the full gate list
/// re-proves the shipped program exactly as it would a profile-planned
/// one. `args`/`input` are used only for the **after-the-fact
/// measurement** run of the shipped program —
/// [`PipelineResult::replicated_misprediction_percent`] is real, while
/// `profile_misprediction_percent` and `trace_events` describe the
/// synthetic plan input.
///
/// Two knobs differ from the profiled path, necessarily: `refine` is off
/// (refinement compares the re-measure against the synthetic plan, which
/// would punish honest estimate error, not transfer failure) and the
/// dynamic backstop is off (there is no profiling run to compare
/// against). Everything else — including strictness and the size
/// budgets — applies unchanged.
///
/// # Errors
///
/// As [`run_pipeline`].
pub fn run_pipeline_static(
    module: &Module,
    args: &[Value],
    input: &[Value],
    config: PipelineConfig,
) -> Result<PipelineResult, PipelineError> {
    drive(module, args, input, PlanSource::Static, config).map(|(result, ..)| result)
}

/// Where the driver's plan comes from.
#[derive(Clone, Copy)]
enum PlanSource {
    /// A profiling run of the original module on the run's own inputs,
    /// folded as it runs; the dynamic backstop holds the shipped program
    /// to it.
    Measured,
    /// The trace synthesized from the static profile: no profiling run,
    /// so no refinement and no dynamic backstop.
    Static,
}

/// When in a run a gate checks.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Stage {
    /// Once, before the first replication round (recorded as round 0).
    Plan,
    /// Every replication round, against that round's program.
    Round,
    /// Once, against the program that ships.
    Shipped,
}

/// How a gate's error diagnostics become verdicts, after the strict-mode
/// abort every policy shares.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Policy {
    /// Any error condemns the plan: each diagnostic-named site gets its
    /// own codes, whether or not it is enabled, and every other enabled
    /// site gets the whole batch's codes.
    CondemnPlan,
    /// Site-attributed diagnostics quarantine their sites; any siteless
    /// diagnostic condemns the remaining enabled sites with the siteless
    /// codes.
    SitesThenSiteless,
    /// Diagnostics naming enabled sites quarantine those sites; with no
    /// attributable site every enabled site goes. Errors against an empty
    /// plan cannot come from replication and are hard errors.
    /// Mis-attributions self-correct: the next round re-checks.
    EnabledSitesOrAll,
    /// Any error is a hard error, in every mode.
    Hard,
}

/// One entry of the ordered gate list.
struct Gate {
    stage: Stage,
    /// The gate its quarantine records name.
    name: QuarantineGate,
    /// Its strict-mode (and hard) error.
    error: fn(String) -> PipelineError,
    policy: Policy,
    /// The diagnostics the gate checks, reusing the run's cached results
    /// for whatever the check reads unchanged since an earlier round.
    check: fn(&Subject<'_>, &mut GateCache) -> Vec<AnalysisDiag>,
}

/// Everything a gate may read.
#[derive(Clone, Copy)]
struct Subject<'a> {
    /// The original module, its classification and static profile.
    module: &'a Module,
    cls: &'a Classification,
    profile: &'a StaticProfile,
    /// Per-site counts of the planning trace.
    stats: &'a TraceStats,
    /// The replicated program (round and shipped stages) and the round
    /// plan's machine tables (round stage).
    program: Option<&'a ReplicatedProgram>,
    spec: Option<&'a HistorySpec>,
}

impl<'a> Subject<'a> {
    fn program(&self) -> &'a ReplicatedProgram {
        self.program
            .expect("round and shipped gates check a replicated program")
    }
}

/// The pipeline's static gates, in the order the driver walks them. The
/// first gate of a stage that fires ends the stage: the estimate gate is
/// skipped once classification condemned the plan, and the history
/// checker does not re-check a round the validator rejected.
const GATES: [Gate; 5] = [
    // Profile vs proof (BR013–BR018): the original module's SCCP/interval
    // classification against raw trace counts — a trust base disjoint
    // from both the replica-map witness and the machine tables. A
    // conflict means the trace or the analysis is lying, so neither may
    // steer replication: the baseline ships.
    Gate {
        stage: Stage::Plan,
        name: QuarantineGate::Classify,
        error: PipelineError::Trace,
        policy: Policy::CondemnPlan,
        check: |s, _| classification_diags(s.module, s.cls, s.stats),
    },
    // Estimate vs measured (BR019–BR022): the static profile against the
    // trace and its own invariants. BR019/BR020 name exactly the sites
    // whose measured behavior the static view cannot explain; a siteless
    // BR021/BR022 condemns the estimate as a whole.
    Gate {
        stage: Stage::Plan,
        name: QuarantineGate::Estimate,
        error: PipelineError::Trace,
        policy: Policy::SitesThenSiteless,
        check: |s, _| static_profile_diags(s.module, s.cls, s.profile, s.stats),
    },
    // Translation validation (BR001–BR008): the simulation relation
    // against the replica-map witness, no execution required.
    Gate {
        stage: Stage::Round,
        name: QuarantineGate::Validation,
        error: PipelineError::Validation,
        policy: Policy::EnabledSitesOrAll,
        check: |s, cache| {
            let p = s.program();
            validate_replication_cached(s.module, &p.module, &p.replica_map, &p.predictions, cache)
        },
    },
    // History (BR009–BR012): the product of the replicated CFG with each
    // planned machine's transition table; never reads the witness.
    Gate {
        stage: Stage::Round,
        name: QuarantineGate::History,
        error: PipelineError::History,
        policy: Policy::EnabledSitesOrAll,
        check: |s, cache| {
            let (p, spec) = (
                s.program(),
                s.spec.expect("round gates see the round's tables"),
            );
            check_history_cached(&p.module, &p.provenance, spec, &p.predictions, cache)
        },
    },
    // Proof vs prediction (BR016): every replica *not* pinned by a
    // machine state carries its original site's profile-majority
    // prediction, which must agree with any direction proof for that
    // site (an honest profile's majority always does). Firing means an
    // analysis or replication bug with no site left to quarantine.
    Gate {
        stage: Stage::Shipped,
        name: QuarantineGate::Classify,
        error: PipelineError::Trace,
        policy: Policy::Hard,
        check: |s, _| {
            let program = s.program();
            let mut folded = StaticPrediction::with_default(true);
            let mut checked: BTreeSet<BranchId> = BTreeSet::new();
            for (fid, func) in program.module.iter_functions() {
                let fmap = &program.replica_map.functions[fid.index()];
                for (bid, block) in func.iter_blocks() {
                    let brepl_ir::Term::Br { site, .. } = block.term else {
                        continue;
                    };
                    if fmap.machine_predictions[bid.index()].is_some() {
                        continue;
                    }
                    let orig = program.provenance[site.index()];
                    if s.stats.site(orig).total() == 0 {
                        continue;
                    }
                    folded.set(orig, program.predictions.get(site));
                    checked.insert(orig);
                }
            }
            let sites: Vec<BranchId> = checked.into_iter().collect();
            prediction_proof_diags(s.module, s.cls, &folded, &sites)
        },
    },
];

/// The plan's enabled sites and the record of every site dropped from it.
struct Ledger {
    strict: bool,
    enabled: BTreeSet<BranchId>,
    quarantined: Vec<QuarantinedSite>,
}

impl Ledger {
    /// A ledger over `enabled`. With nothing enabled, any error from an
    /// enabled-sites gate is that gate's hard error.
    fn new(config: &PipelineConfig, enabled: BTreeSet<BranchId>) -> Self {
        Ledger {
            strict: config.strict,
            enabled,
            quarantined: Vec::new(),
        }
    }

    /// Drops `site` from the plan, recording why.
    fn quarantine(
        &mut self,
        site: BranchId,
        gate: QuarantineGate,
        codes: Vec<DiagCode>,
        reason: String,
        round: usize,
    ) {
        self.enabled.remove(&site);
        self.quarantined.push(QuarantinedSite {
            site,
            gate,
            codes,
            reason,
            round,
        });
    }

    /// Drops every enabled site for one shared reason: the unreplicated
    /// baseline ships.
    fn condemn_all(
        &mut self,
        gate: QuarantineGate,
        codes: &[DiagCode],
        reason: &str,
        round: usize,
    ) {
        for site in std::mem::take(&mut self.enabled) {
            self.quarantine(site, gate, codes.to_vec(), reason.to_string(), round);
        }
    }

    /// Runs the gates of `stage` in list order, stopping at the first
    /// that fires. Returns their warnings and whether one fired.
    fn run_stage(
        &mut self,
        stage: Stage,
        subject: &Subject<'_>,
        round: usize,
        cache: &mut GateCache,
    ) -> Result<(Vec<AnalysisDiag>, bool), PipelineError> {
        // Round gates check the replicated program, so their diagnostics
        // point into it; the others point into the original.
        let rendered_in = match stage {
            Stage::Round => &subject.program().module,
            Stage::Plan | Stage::Shipped => subject.module,
        };
        let mut warnings = Vec::new();
        for gate in GATES.iter().filter(|g| g.stage == stage) {
            let diags = (gate.check)(subject, cache);
            let (warns, fired) = self.judge(gate, diags, round, rendered_in)?;
            warnings.extend(warns);
            if fired {
                return Ok((warnings, true));
            }
        }
        Ok((warnings, false))
    }

    /// The one place a gate's diagnostics become a verdict: severity
    /// partition, strict (or hard) abort, then quarantine records with
    /// sorted, deduplicated codes and capped rendered reasons, as the
    /// gate's policy directs. Returns the warnings and whether the gate
    /// fired.
    fn judge(
        &mut self,
        gate: &Gate,
        diags: Vec<AnalysisDiag>,
        round: usize,
        rendered_in: &Module,
    ) -> Result<(Vec<AnalysisDiag>, bool), PipelineError> {
        let (errors, warnings) = LintConfig.partition(diags);
        if errors.is_empty() {
            return Ok((warnings, false));
        }
        let hard = match gate.policy {
            Policy::Hard => true,
            Policy::EnabledSitesOrAll => self.enabled.is_empty(),
            Policy::CondemnPlan | Policy::SitesThenSiteless => false,
        };
        if self.strict || hard {
            let rendered: Vec<String> = errors.iter().map(|d| d.render(rendered_in)).collect();
            return Err((gate.error)(rendered.join("; ")));
        }
        let enabled_only = gate.policy == Policy::EnabledSitesOrAll;
        let mut by_site: BTreeMap<BranchId, Vec<AnalysisDiag>> = BTreeMap::new();
        for d in &errors {
            if let Some(site) = d.site.filter(|s| !enabled_only || self.enabled.contains(s)) {
                by_site.entry(site).or_default().push(d.clone());
            }
        }
        let condemning: Vec<AnalysisDiag> = match gate.policy {
            Policy::CondemnPlan => errors,
            Policy::SitesThenSiteless => errors.into_iter().filter(|d| d.site.is_none()).collect(),
            _ if by_site.is_empty() => errors,
            _ => Vec::new(),
        };
        for (site, diags) in by_site {
            let reason = render_capped(&diags, rendered_in);
            self.quarantine(site, gate.name, codes_of(&diags), reason, round);
        }
        if !condemning.is_empty() {
            let reason = render_capped(&condemning, rendered_in);
            self.condemn_all(gate.name, &codes_of(&condemning), &reason, round);
        }
        Ok((warnings, true))
    }
}

/// The driver behind every entry point: plan from `source`, walk the
/// gate list, replicate and re-measure until a round passes. Returns the
/// result, the module's classification and the plan's per-site counts.
fn drive(
    module: &Module,
    args: &[Value],
    input: &[Value],
    source: PlanSource,
    config: PipelineConfig,
) -> Result<(PipelineResult, Classification, TraceStats), PipelineError> {
    // 1. Static analyses of the *original* module, once: SCCP over
    // intervals plus trip-count proofs, and the static profile estimated
    // from them (proofs promoted to exact rationals, Ball–Larus
    // heuristics, Wu–Larus propagation). The gates and the planner
    // fast-path consume both; a static plan source synthesizes its trace
    // from the estimate.
    let cls = classify_module(module);
    let mut static_profile = estimate_profile(module, &cls);

    // The plan's profile, folded per site as it arrives: the profiling
    // run's events, or the synthesized trace's. Nothing is recorded but
    // the synthesized trace, unless an armed chaos engine needs the
    // profiling trace to attack.
    let mut chaos = Chaos::new(&config);
    let profiled = match source {
        PlanSource::Measured => Some(chaos.profile(module, args, input, &config)?),
        PlanSource::Static => None,
    };
    let synthetic;
    let (fold, measured) = match &profiled {
        Some((run, output)) => (&run.sink, Some((run, output.as_slice()))),
        None => {
            let trace = synthesize_profile_trace(&static_profile);
            synthetic = ProfileFold::of_trace(module, config.max_states, &trace);
            chaos.keep(trace);
            (&synthetic, None)
        }
    };
    let stats = fold.counts();

    // 2. Select per-branch machines — proved-monostatic sites with a
    // unanimous profile skip the machine search, with a bit-identical
    // result — then apply the size budget by taking branches in greedy
    // benefit-per-size order.
    let (selection, planner_skips) = select_strategies_folded(fold, Some(&cls));
    let enabled: BTreeSet<BranchId> = match config.max_size_growth {
        None => selection
            .choices()
            .iter()
            .filter(|c| c.benefit() > 0)
            .map(|c| c.site)
            .collect(),
        Some(budget) => {
            let curve = brepl_core::greedy::greedy_curve_from_selection(
                module,
                &selection,
                fold.events() as u64,
            );
            curve.sites_within_budget(budget).into_iter().collect()
        }
    };
    let mut ledger = Ledger::new(&config, enabled);
    let mut size_backoffs: Vec<SizeBackoff> = Vec::new();
    // Machines shrunk by the growth backoff, replacing the selection's
    // choice for their site in every later round.
    let mut overrides: BTreeMap<BranchId, BranchMachine> = BTreeMap::new();

    // 3. Round-0 gates, judging the (possibly chaos-forged) trace counts.
    let forged = chaos.before_plan(&cls, &mut static_profile, stats, &mut ledger)?;
    let planning = Subject {
        module,
        cls: &cls,
        profile: &static_profile,
        stats: forged.as_ref().unwrap_or(stats),
        program: None,
        spec: None,
    };
    // One gate cache per run: results carry over between rounds
    // (identical diagnostics; functions and sites untouched by a round's
    // drops are not re-proved).
    let mut cache = GateCache::new();
    let (plan_warnings, _) = ledger.run_stage(Stage::Plan, &planning, 0, &mut cache)?;

    // 4. Replicate, gate, measure — quarantining or backing off on
    // failure. Every retry strictly shrinks (site count, or the state
    // count of some machine), so the loop terminates.
    let refine = config.refine && measured.is_some();
    let mut round = 0usize;
    let (program, report, round_warnings, remeasured) = loop {
        round += 1;
        let mut plan = selection.to_plan_filtered(|site| ledger.enabled.contains(&site));
        for (&site, m) in &overrides {
            if ledger.enabled.contains(&site) {
                plan.assign(site, m.clone());
            }
        }
        let mut program = match apply_plan(module, &plan, stats) {
            Ok(p) => p,
            Err(e) => {
                if config.strict || ledger.enabled.is_empty() {
                    return Err(e.into());
                }
                // Quarantine the named site; an opaque transform error
                // degrades coarsely to the unreplicated baseline.
                let gate = QuarantineGate::Replicate;
                match e {
                    ReplicateError::UnknownBranch(s) | ReplicateError::NotInLoop(s)
                        if ledger.enabled.contains(&s) =>
                    {
                        let reason = format!("replication transform refused the site: {e}");
                        ledger.quarantine(s, gate, Vec::new(), reason, round);
                    }
                    other => {
                        let reason = format!("replication transform failed: {other}");
                        ledger.condemn_all(gate, &[], &reason, round);
                    }
                }
                continue;
            }
        };

        // Realized-growth budget: shrink the largest machine (halving its
        // states) while over budget; drop the site once it cannot shrink.
        if let Some(budget) = config.max_realized_growth {
            let growth = program.size_growth(module);
            if growth > budget && !ledger.enabled.is_empty() {
                let (site, states) = plan
                    .assignments
                    .iter()
                    .filter(|(s, _)| ledger.enabled.contains(*s))
                    .map(|(&s, m)| (s, m.states()))
                    .max_by_key(|&(s, st)| (st, std::cmp::Reverse(s)))
                    .expect("enabled sites all have plan entries");
                let to_states = if states > 2 { (states / 2).max(2) } else { 0 };
                size_backoffs.push(SizeBackoff {
                    site,
                    from_states: states,
                    to_states,
                    round,
                });
                if to_states > 0 {
                    let shrunk = match &plan.assignments[&site] {
                        BranchMachine::Loop(m) => BranchMachine::Loop(m.shrunk(to_states)),
                        BranchMachine::Correlated(c) => {
                            let mut c = c.clone();
                            c.paths.truncate(to_states - 1);
                            BranchMachine::Correlated(c)
                        }
                    };
                    overrides.insert(site, shrunk);
                } else {
                    overrides.remove(&site);
                    let reason = format!(
                        "realized growth {growth:.2}x exceeds budget {budget:.2}x with no states left to shed"
                    );
                    ledger.quarantine(site, QuarantineGate::SizeBudget, Vec::new(), reason, round);
                }
                continue;
            }
        }

        let mut spec = plan.history_spec();
        chaos.in_round(module, &mut program, &mut spec, &ledger.enabled);
        let subject = Subject {
            program: Some(&program),
            spec: Some(&spec),
            ..planning
        };
        let (warnings, fired) = ledger.run_stage(Stage::Round, &subject, round, &mut cache)?;
        if fired {
            continue;
        }
        // The re-measure is read only per site — the score, the fold and
        // the backstop's histograms — so it counts instead of recording.
        let (counted, output2) = run_once(
            &program.module,
            args,
            input,
            config.run,
            TraceStats::default(),
        )?;
        let report = evaluate_static_counts(&program.predictions, &counted.sink);
        if !refine {
            break (program, report, warnings, (counted, output2));
        }
        // Fold replicated-site mispredictions back to original sites.
        let mut folded: HashMap<BranchId, u64> = HashMap::new();
        for (site, _, wrong) in report.iter_sites() {
            *folded.entry(program.provenance[site.index()]).or_default() += wrong;
        }
        let drops: Vec<BranchId> = selection
            .choices()
            .iter()
            .filter(|c| ledger.enabled.contains(&c.site))
            .filter(|c| {
                let realized = folded.get(&c.site).copied().unwrap_or(0);
                refine_should_drop(realized, c.profile_misses)
            })
            .map(|c| c.site)
            .collect();
        if drops.is_empty() {
            break (program, report, warnings, (counted, output2));
        }
        for site in drops {
            ledger.enabled.remove(&site);
        }
    };

    // 5. The shipped-program gate, against the honest trace counts.
    let shipped = Subject {
        stats,
        program: Some(&program),
        ..planning
    };
    let (proof_warnings, _) = ledger.run_stage(Stage::Shipped, &shipped, round, &mut cache)?;

    // 6. Backstop behind the static gates: compare the profiling run of
    // the original against the final re-measure run of the shipped
    // program — both already executed and both already counted per site,
    // so the check walks two per-site tables, not two traces.
    if let (Some((profile, output)), true) = (measured, config.dynamic_backstop) {
        let (counted, output2) = &remeasured;
        check_equivalence_counts(
            &program,
            RunCounts::of(profile, stats, output),
            RunCounts::of(counted, &counted.sink, output2),
        )
        .map_err(|e| PipelineError::Equivalence(e.to_string()))?;
    }

    let mut warnings = round_warnings;
    warnings.extend(plan_warnings);
    warnings.extend(proof_warnings);
    let (proved, bounded, dependent) = cls.counts();
    let (exact_sites, heuristic_sites) = static_profile.counts();
    let result = PipelineResult {
        profile_misprediction_percent: stats.profile_misprediction_percent(),
        replicated_misprediction_percent: report.misprediction_percent(),
        selected_misprediction_percent: selection.misprediction_percent(),
        size_growth: program.size_growth(module),
        trace_events: fold.events() as u64,
        selection,
        replicated_sites: ledger.enabled,
        quarantined: ledger.quarantined,
        size_backoffs,
        warnings,
        classification: ClassificationSummary {
            proved,
            bounded,
            dependent,
            planner_skips,
            converged: cls.converged(),
        },
        estimate: EstimateSummary {
            exact_sites,
            heuristic_sites,
            converged: static_profile.converged(),
        },
        static_planned: measured.is_none(),
        #[cfg(feature = "chaos")]
        chaos_injection: chaos.into_injection(),
        program,
    };
    Ok((result, cls, stats.clone()))
}

/// Configuration of [`run_pipeline_adaptive`]: the planning pipeline's.
#[derive(Clone, Copy, Debug, Default)]
pub struct AdaptiveConfig {
    /// Planning-time pipeline configuration (profiling on the first
    /// segment, full gate list). Under the `chaos` feature, the
    /// `inject-drift` and `corrupt-patch` points are stripped from the
    /// planning run — they attack the adaptive layer, and an honest plan
    /// is their precondition; every other point passes through unchanged.
    pub pipeline: PipelineConfig,
    /// The re-specialization layer's configuration. It has no settings:
    /// the detector window, CUSUM slack and threshold, verification
    /// floor, failure cap and re-inflation slack are constants of
    /// [`brepl_core::Respec`].
    pub respec: brepl_core::RespecConfig,
}

/// One observed segment of an adaptive run.
#[derive(Clone, Debug)]
pub struct SegmentMeasure {
    /// Segment index (`0` = the planning segment).
    pub segment: usize,
    /// Branch events the segment drove through the shipped program.
    pub events: u64,
    /// Measured misprediction (%) of the program that ran the segment —
    /// measured *before* any patch this segment's observation produced,
    /// so a drift segment shows the stale pins' real cost.
    pub misprediction_percent: f64,
    /// Patch records appended or resolved by observing this segment.
    pub patches: Vec<PatchRecord>,
}

/// Everything [`run_pipeline_adaptive`] produced.
#[derive(Debug)]
pub struct AdaptiveResult {
    /// The planning-time pipeline result (profiled on segment 0).
    pub plan: PipelineResult,
    /// Per-segment measurements, in segment order.
    pub segments: Vec<SegmentMeasure>,
    /// The full patch log, oldest first, final outcomes filled in.
    pub patch_log: Vec<PatchRecord>,
    /// `BR023`/`BR024` diagnostics from the re-specialization layer.
    pub respec_diags: Vec<AnalysisDiag>,
    /// Sites still machine-controlled after the last segment.
    pub enabled_sites: BTreeSet<BranchId>,
    /// Sites demoted to their profile-majority single version.
    pub demoted_sites: BTreeSet<BranchId>,
    /// Sites quarantined from further patching (flapping).
    pub quarantined_sites: Vec<BranchId>,
    /// Incremental-gate cache hits the patch gating scored.
    pub gate_cache_hits: usize,
    /// Interpreter runs of the shipped program in the observe loop: one,
    /// plus one per segment whose module differs from the last run's.
    pub segment_runs: usize,
    /// The fault the adaptive-layer chaos engine injected, if it fired
    /// (`inject-drift` / `corrupt-patch`; plan-time points record into
    /// [`PipelineResult::chaos_injection`] instead).
    #[cfg(feature = "chaos")]
    pub chaos_injection: Option<brepl_core::chaos::Injection>,
    /// The finally shipped program, after every surviving patch.
    pub program: ReplicatedProgram,
}

/// The adaptive pipeline: plan on the first input segment, ship, then
/// keep the shipped program alive across the remaining segments —
/// detecting input-distribution drift online and hot-patching the
/// program with proof-gated minimal patches instead of re-planning.
///
/// Segment 0 is the planning segment: it drives the ordinary profiled
/// pipeline ([`run_pipeline`]) end to end, gate list included.
/// The shipped program is then wrapped in [`brepl_core::Respec`] and run
/// over the full concatenated tape (execution is deterministic, so each
/// run's prefix is exactly what already shipped) into a
/// [`SegmentFold`], which splits the events at the segment marks and per
/// original site as they run; segment `k` is measured against the
/// current predictions and fed to the patcher. A
/// run is reused for as long as the shipped module is unchanged (a
/// `SwapPin` patch touches only predictions, which never steer
/// execution); a commit or rollback that rewrites the module re-runs it,
/// and [`AdaptiveResult::segment_runs`] counts those runs. Every
/// candidate patch re-proves under `BR001`–`BR012` before commit,
/// survives one verification window or rolls back byte-identically, and
/// the final program re-proves once more from scratch before this
/// function returns.
///
/// # Panics
///
/// Panics if `segments` is empty — there is nothing to plan on.
///
/// # Errors
///
/// As [`run_pipeline`], plus a [`PipelineError::Validation`] if the
/// final from-scratch re-proof of the patched program fails (a patch
/// that gated clean but ships dirty is a re-specializer bug).
pub fn run_pipeline_adaptive(
    module: &Module,
    args: &[Value],
    segments: &[Vec<Value>],
    config: AdaptiveConfig,
) -> Result<AdaptiveResult, PipelineError> {
    assert!(
        !segments.is_empty(),
        "adaptive runs need at least one segment"
    );
    let run = config.pipeline.run;
    // 1. Plan on the first segment, exactly like the plain pipeline. Of
    // the profiling run only its per-site counts outlive the plan.
    let (plan_config, mut chaos) = Chaos::adaptive(config.pipeline);
    let (plan, cls, plan_stats) = drive(
        module,
        args,
        &segments[0],
        PlanSource::Measured,
        plan_config,
    )?;

    // 2. Statically proved directions: the patcher must never override
    // them, no matter what the observed counters claim.
    let proved = cls.proved_sites();
    chaos.arm(module, &plan_stats, &proved);

    // 3. Wrap the shipped plan in the re-specialization layer.
    let mut respec = Respec::new(
        module,
        &plan.selection,
        &plan.replicated_sites,
        &plan_stats,
        &proved,
        config.respec,
    )?;

    // 4. Reference run: the *original* module over the full tape — the
    // dynamic-equivalence baseline every segment run is held to. The
    // backstop reads it only per site, so it counts instead of recording.
    // The tape exists once, at its exact length; every run borrows it.
    let input: Vec<Value> = segments.concat();
    let bounds: Vec<usize> = segments
        .iter()
        .scan(0, |acc, seg| {
            *acc += seg.len();
            Some(*acc)
        })
        .collect();
    let mut m1 = Machine::new(module, run)?;
    m1.borrow_input(&input);
    let reference = m1.run_with("main", args, &[], TraceStats::default())?;
    // The tape grew by doubling; only its length is read.
    let mut ref_output = m1.into_output();
    ref_output.shrink_to_fit();

    // 5. Observe segment by segment: run the current program into a
    // `SegmentFold`, which splits the events at the segment marks and
    // per original site as they run, then measure segment k and feed it
    // to the patcher. Execution is deterministic and its events do not
    // read `predictions`, so the last run stands until a commit, a
    // rollback or a chaos edit changes the module; misses count against
    // the predictions current when each segment is observed.
    let mut measures = Vec::with_capacity(segments.len());
    let mut last: Option<(Module, Run<SegmentFold>, Vec<Value>)> = None;
    let mut segment_runs = 0;
    for k in 0..segments.len() {
        if last
            .as_ref()
            .is_none_or(|(ran, ..)| *ran != respec.program().module)
        {
            // Drop the stale run first: never two runs' folds and output
            // tapes alive.
            drop(last.take());
            let module = respec.program().module.clone();
            let fold = SegmentFold::new(&respec.program().provenance, segments.len());
            let mut m2 = Machine::new(&module, run)?;
            m2.borrow_input(&input);
            // The backstop holds the output to the reference's anyway.
            m2.reserve_output(ref_output.len());
            let ran = m2.run_with("main", args, &bounds, fold)?;
            let output = m2.into_output();
            segment_runs += 1;
            last = Some((module, ran, output));
        }
        let (_, ran, output2) = last.as_ref().expect("a run is cached");
        if config.pipeline.dynamic_backstop {
            check_equivalence_counts(
                respec.program(),
                RunCounts::of(&reference, &reference.sink, &ref_output),
                RunCounts::of(ran, ran.sink.counts(), output2),
            )
            .map_err(|e| PipelineError::Equivalence(e.to_string()))?;
        }
        let seg = ran.sink.segment(k);
        let misses =
            evaluate_static_counts(&respec.program().predictions, &seg.stats()).mispredictions();
        let events = seg.events();
        let pct = if events == 0 {
            0.0
        } else {
            100.0 * misses as f64 / events as f64
        };
        measures.push(SegmentMeasure {
            segment: k,
            events,
            misprediction_percent: pct,
            patches: chaos.observe(&mut respec, k, seg),
        });
    }

    // 6. Final acceptance: the shipped program — after every surviving
    // patch — must re-prove clean under BR001–BR012, from scratch, no
    // cache in the loop; against an empty plan any error is the
    // validation gate's hard error.
    let validation = GATES
        .iter()
        .find(|g| g.name == QuarantineGate::Validation)
        .expect("the gate list has a translation validator");
    let (diags, patched) = (respec.revalidate(), &respec.program().module);
    Ledger::new(&config.pipeline, BTreeSet::new()).judge(validation, diags, 0, patched)?;

    let enabled_sites = respec.enabled_sites().clone();
    let demoted_sites = respec.demoted_sites().clone();
    let quarantined_sites = respec.quarantined_sites();
    let gate_cache_hits = respec.gate_cache_hits();
    let (program, patch_log, respec_diags) = respec.into_parts();
    Ok(AdaptiveResult {
        plan,
        segments: measures,
        patch_log,
        respec_diags,
        enabled_sites,
        demoted_sites,
        quarantined_sites,
        gate_cache_hits,
        segment_runs,
        #[cfg(feature = "chaos")]
        chaos_injection: chaos.into_injection(),
        program,
    })
}

/// Runs `main` of `module` once on `args`/`input` into `sink`, returning
/// the run and the output tape. The machine borrows the input tape.
fn run_once<'m, S: EventSink>(
    module: &'m Module,
    args: &[Value],
    input: &'m [Value],
    run: RunConfig,
    sink: S,
) -> Result<(Run<S>, Vec<Value>), PipelineError> {
    let mut machine = Machine::new(module, run)?;
    machine.borrow_input(input);
    let ran = machine.run_with("main", args, &[], sink)?;
    Ok((ran, machine.into_output()))
}

/// Sorted, deduplicated codes of a diagnostic batch.
fn codes_of(diags: &[AnalysisDiag]) -> Vec<DiagCode> {
    let mut codes: Vec<DiagCode> = diags.iter().map(|d| d.code).collect();
    codes.sort_unstable();
    codes.dedup();
    codes
}

/// Renders at most three diagnostics (quarantine reasons stay readable).
fn render_capped(diags: &[AnalysisDiag], module: &Module) -> String {
    let mut s = diags
        .iter()
        .take(3)
        .map(|d| d.render(module))
        .collect::<Vec<_>>()
        .join("; ");
    if diags.len() > 3 {
        s.push_str(&format!("; … and {} more", diags.len() - 3));
    }
    s
}

/// The refinement drop rule: a machine is kept only while it is *strictly
/// better* than plain profile prediction on the re-measured run.
///
/// Intended rule, stated explicitly (the original expression leaned on
/// `&&`/`||` precedence): drop when the realized machine is no better than
/// profile —
///
/// * `profile_misses > 0`: drop when `realized >= profile_misses` (equal
///   realized misses mean the replication bought nothing and only costs
///   code size);
/// * `profile_misses == 0`: profile is already perfect, so keep the
///   machine only while it is also perfect — drop when `realized > 0`.
fn refine_should_drop(realized: u64, profile_misses: u64) -> bool {
    (profile_misses > 0 && realized >= profile_misses) || (profile_misses == 0 && realized > 0)
}

/// The chaos seams: the profiling run, before the round-0 gates, inside
/// each round before validation and history, and around each adaptive
/// observation. Without the `chaos` feature there is no engine, and every
/// seam is a no-op.
#[derive(Default)]
struct Chaos {
    /// The run's armed engine, if any.
    #[cfg(feature = "chaos")]
    engine: Option<ChaosEngine>,
    /// The plan's profile as a trace, kept only for an armed engine: the
    /// trace forges attack it.
    #[cfg(feature = "chaos")]
    trace: Option<Trace>,
    /// Sites the adaptive layer may patch (set by `arm`).
    #[cfg(feature = "chaos")]
    patchable: Vec<BranchId>,
}

#[cfg_attr(not(feature = "chaos"), allow(unused_variables))]
impl Chaos {
    fn new(config: &PipelineConfig) -> Self {
        Chaos {
            #[cfg(feature = "chaos")]
            engine: config.chaos.map(ChaosEngine::new),
            #[cfg(feature = "chaos")]
            trace: None,
            #[cfg(feature = "chaos")]
            patchable: Vec::new(),
        }
    }

    /// The profiling run of `module`, folded as it runs. An armed engine
    /// records the trace instead, keeps it, and folds it afterwards.
    fn profile(
        &mut self,
        module: &Module,
        args: &[Value],
        input: &[Value],
        config: &PipelineConfig,
    ) -> Result<(Run<ProfileFold>, Vec<Value>), PipelineError> {
        #[cfg(feature = "chaos")]
        if self.engine.is_some() {
            let (recorded, output) = run_once(module, args, input, config.run, Trace::new())?;
            let fold = ProfileFold::of_trace(module, config.max_states, &recorded.sink);
            let run = Run {
                result: recorded.result,
                sink: fold,
                steps: recorded.steps,
                marks: recorded.marks,
            };
            self.trace = Some(recorded.sink);
            return Ok((run, output));
        }
        let fold = ProfileFold::new(module, config.max_states);
        run_once(module, args, input, config.run, fold)
    }

    /// Keeps the synthesized plan trace for an armed engine.
    fn keep(&mut self, trace: Trace) {
        #[cfg(feature = "chaos")]
        if self.engine.is_some() {
            self.trace = Some(trace);
        }
    }

    /// Splits an adaptive run's configuration: `inject-drift` and
    /// `corrupt-patch` attack the adaptive layer, so they are held back
    /// from the planning run — the plan must stay honest for the attack
    /// to even be visible.
    fn adaptive(config: PipelineConfig) -> (PipelineConfig, Self) {
        #[cfg(feature = "chaos")]
        if config
            .chaos
            .is_some_and(|c| matches!(c.point, ChaosPoint::InjectDrift | ChaosPoint::CorruptPatch))
        {
            return (
                PipelineConfig {
                    chaos: None,
                    ..config
                },
                Chaos::new(&config),
            );
        }
        (config, Chaos::default())
    }

    /// Before the round-0 gates. ForgeTraceEvent fires first, before the
    /// victim is pinned from the enabled set: it flips one event at a
    /// proved-monostatic site (pinning that site as the victim), so the
    /// classification gate must catch the contradiction — BR013 — while
    /// the witness and history gates stay blind (the forged trace never
    /// steers replication). ForgeStaticProfile also fires before victim
    /// pinning: it perturbs one exact estimate in the profile the drift
    /// gate judges — BR019 must catch it while BR001–BR018 stay blind.
    /// TruncateTrace fires last, against the profiling trace: the data is
    /// then untrustworthy for replication, so the baseline ships.
    ///
    /// Returns the forged trace's counts, for the plan gates to judge.
    fn before_plan(
        &mut self,
        cls: &Classification,
        profile: &mut StaticProfile,
        stats: &TraceStats,
        ledger: &mut Ledger,
    ) -> Result<Option<TraceStats>, PipelineError> {
        #[cfg(feature = "chaos")]
        if let Some(eng) = &mut self.engine {
            let trace = self
                .trace
                .as_ref()
                .expect("an armed engine keeps the plan's trace");
            let forged = eng
                .forge_trace(trace, &cls.proved_sites())
                .map(|t| t.stats());
            eng.forge_static_profile(profile, stats);
            let candidates: Vec<BranchId> = ledger.enabled.iter().copied().collect();
            eng.pin_victim(&candidates);
            if let Some(err) = eng.corrupt_trace(trace) {
                if ledger.strict {
                    return Err(PipelineError::Trace(format!(
                        "trace truncated mid-event, decode fails with {err:?}"
                    )));
                }
                let reason = format!("profiling trace truncated mid-event: {err:?}");
                ledger.condemn_all(QuarantineGate::Profile, &[], &reason, 0);
            }
            return Ok(forged);
        }
        Ok(None)
    }

    /// Inside a round, before validation and history: corrupts the
    /// replicated artifacts while the victim is still planned (the engine
    /// fires at most once per run).
    fn in_round(
        &mut self,
        module: &Module,
        program: &mut ReplicatedProgram,
        spec: &mut HistorySpec,
        enabled: &BTreeSet<BranchId>,
    ) {
        #[cfg(feature = "chaos")]
        if let Some(eng) = &mut self.engine {
            if eng.victim().is_some_and(|v| enabled.contains(&v)) {
                eng.corrupt_program(module, program);
                eng.corrupt_spec(program, spec);
            }
        }
    }

    /// Records the sites the patcher may patch: executed while planning
    /// and not statically proved.
    fn arm(&mut self, module: &Module, stats: &TraceStats, proved: &[(BranchId, bool)]) {
        #[cfg(feature = "chaos")]
        {
            self.patchable = (0..module.branch_count())
                .map(BranchId::from_index)
                .filter(|&s| stats.site(s).total() > 0 && !proved.iter().any(|&(p, _)| p == s))
                .collect();
        }
    }

    /// Feeds segment `k` to the patcher. InjectDrift forges the patcher's
    /// view of a post-planning segment (the measurement already read the
    /// honest segment, and the execution itself is never touched);
    /// CorruptPatch then flips a patch the gate just accepted — the
    /// verification window is the only defense left.
    fn observe(&mut self, respec: &mut Respec<'_>, k: usize, seg: Segment<'_>) -> Vec<PatchRecord> {
        #[cfg(feature = "chaos")]
        if let Some(eng) = &mut self.engine {
            let forged = match k {
                0 => None,
                _ => eng.inject_drift(seg, &self.patchable),
            };
            let seg = forged
                .as_deref()
                .map_or(seg, |sites| Segment { sites, ..seg });
            let patches = respec.observe_segment(k, seg);
            if let Some(r) = patches
                .iter()
                .find(|r| r.outcome == PatchOutcome::Committed)
            {
                eng.corrupt_patch(respec.program_mut(), r.site);
            }
            return patches;
        }
        respec.observe_segment(k, seg)
    }

    #[cfg(feature = "chaos")]
    fn into_injection(self) -> Option<Injection> {
        self.engine.and_then(ChaosEngine::into_injection)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use brepl_ir::{FunctionBuilder, Operand};
    use brepl_predict::evaluate_static;

    fn alternating_module() -> Module {
        let mut b = FunctionBuilder::new("main", 0);
        let i = b.reg();
        let acc = b.reg();
        b.const_int(i, 0);
        b.const_int(acc, 0);
        let head = b.new_block();
        let even = b.new_block();
        let odd = b.new_block();
        let latch = b.new_block();
        let exit = b.new_block();
        b.jmp(head);
        b.switch_to(head);
        let r = b.reg();
        b.rem(r, i.into(), Operand::imm(2));
        let c = b.eq(r.into(), Operand::imm(0));
        b.br(c, even, odd);
        b.switch_to(even);
        b.add(acc, acc.into(), Operand::imm(3));
        b.jmp(latch);
        b.switch_to(odd);
        b.add(acc, acc.into(), Operand::imm(5));
        b.jmp(latch);
        b.switch_to(latch);
        b.add(i, i.into(), Operand::imm(1));
        let c2 = b.lt(i.into(), Operand::imm(300));
        b.br(c2, head, exit);
        b.switch_to(exit);
        b.out(acc.into());
        b.ret(Some(acc.into()));
        let mut m = Module::new();
        m.push_function(b.finish());
        m
    }

    #[test]
    fn pipeline_halves_misprediction_on_alternation() {
        let m = alternating_module();
        let result = run_pipeline(&m, &[], &[], PipelineConfig::default()).unwrap();
        // Profile: the alternating branch costs ~25% of all events.
        assert!(result.profile_misprediction_percent > 20.0);
        // Replication: near zero.
        assert!(result.replicated_misprediction_percent < 1.0);
        assert!(result.size_growth > 1.0 && result.size_growth < 4.0);
        assert_eq!(result.trace_events, 600);
        // A clean run quarantines nothing and takes no backoff step.
        assert!(result.quarantined.is_empty());
        assert!(result.size_backoffs.is_empty());
    }

    /// The refine rule must drop a branch whose realized machine exactly
    /// matches profile (`realized == profile_misses`): such a machine buys
    /// nothing and only costs code size. This pins the intended semantics
    /// of the old precedence-reliant expression
    /// `a >= b && b > 0 || a > b`.
    #[test]
    fn refine_drops_machines_no_better_than_profile() {
        // realized == profile_misses > 0: no better than profile -> drop.
        assert!(refine_should_drop(5, 5));
        // Strictly worse than profile -> drop.
        assert!(refine_should_drop(6, 5));
        // Strictly better than profile -> keep.
        assert!(!refine_should_drop(4, 5));
        assert!(!refine_should_drop(0, 5));
        // Profile is perfect: keep only a perfect machine.
        assert!(!refine_should_drop(0, 0));
        assert!(refine_should_drop(1, 0));
    }

    /// End-to-end: a machine whose re-measured misses equal its profile
    /// misses is pruned by the refinement loop, never shipped.
    #[test]
    fn shipped_machines_strictly_beat_profile() {
        let m = alternating_module();
        let result = run_pipeline(&m, &[], &[], PipelineConfig::default()).unwrap();
        let mut folded: HashMap<brepl_ir::BranchId, u64> = HashMap::new();
        // Re-measure the shipped program and fold misses to original sites.
        let outcome = Machine::new(&result.program.module, RunConfig::default())
            .unwrap()
            .run("main", &[])
            .unwrap();
        let report = evaluate_static(&result.program.predictions, &outcome.trace);
        for (site, _, wrong) in report.iter_sites() {
            *folded
                .entry(result.program.provenance[site.index()])
                .or_default() += wrong;
        }
        for choice in result.selection.choices() {
            if !result.replicated_sites.contains(&choice.site) {
                continue;
            }
            let realized = folded.get(&choice.site).copied().unwrap_or(0);
            // The site's machine shipped: it must have survived
            // refinement, i.e. be strictly better than profile.
            assert!(
                !refine_should_drop(realized, choice.profile_misses),
                "site {} shipped with realized {} vs profile {}",
                choice.site,
                realized,
                choice.profile_misses
            );
        }
        assert!(
            !result.replicated_sites.is_empty(),
            "the alternating branch should ship a machine"
        );
    }

    /// Static planning ships a replicated program with zero profiling
    /// runs, passes every gate, and still re-measures for real.
    #[test]
    fn static_planning_ships_without_profiling() {
        let m = alternating_module();
        let r = run_pipeline_static(&m, &[], &[], PipelineConfig::default()).unwrap();
        assert!(r.static_planned);
        assert!(r.estimate.converged);
        assert!(r.estimate.exact_sites + r.estimate.heuristic_sites >= 2);
        assert!(r.quarantined.is_empty(), "{:?}", r.quarantined);
        assert!(r.trace_events > 0, "the synthetic plan input has events");
        // The after-the-fact measurement is a real simulator run.
        assert!(r.replicated_misprediction_percent.is_finite());
        // Strict mode agrees: nothing fires on the honest estimate.
        let strict = run_pipeline_static(
            &m,
            &[],
            &[],
            PipelineConfig {
                strict: true,
                ..PipelineConfig::default()
            },
        )
        .unwrap();
        assert_eq!(strict.replicated_sites, r.replicated_sites);
    }

    /// The always-on estimator summarizes itself on profiled runs and
    /// the drift gate stays silent on honest traces.
    #[test]
    fn estimator_is_always_on_and_silent_when_honest() {
        let m = alternating_module();
        let r = run_pipeline(&m, &[], &[], PipelineConfig::default()).unwrap();
        assert!(r.estimate.converged);
        assert!(r.estimate.exact_sites + r.estimate.heuristic_sites >= 2);
        assert!(!r.static_planned);
        assert!(
            !r.quarantined
                .iter()
                .any(|q| q.gate == QuarantineGate::Estimate),
            "honest trace must not drift: {:?}",
            r.quarantined
        );
    }

    /// The dynamic backstop is the one verification a run can skip; the
    /// static gates always run, so the shipped program is the same
    /// either way.
    #[test]
    fn verification_can_be_disabled() {
        let m = alternating_module();
        let checked = run_pipeline(&m, &[], &[], PipelineConfig::default()).unwrap();
        let config = PipelineConfig {
            dynamic_backstop: false,
            ..PipelineConfig::default()
        };
        let unchecked = run_pipeline(&m, &[], &[], config).unwrap();
        assert_eq!(unchecked.replicated_sites, checked.replicated_sites);
        assert_eq!(unchecked.program.module, checked.program.module);
    }

    #[test]
    fn validation_passes_and_collects_only_warnings() {
        let m = alternating_module();
        let result = run_pipeline(&m, &[], &[], PipelineConfig::default()).unwrap();
        // run_pipeline returned Ok, so no error-severity diagnostics; what
        // was collected must all be warnings.
        for d in &result.warnings {
            assert_eq!(d.severity(), brepl_analysis::Severity::Warning, "{d}");
        }
    }

    /// Strict mode must not change a clean run's numbers: same shipped
    /// sites, same misprediction, no quarantine either way.
    #[test]
    fn strict_mode_is_identical_on_clean_runs() {
        let m = alternating_module();
        let relaxed = run_pipeline(&m, &[], &[], PipelineConfig::default()).unwrap();
        let strict = run_pipeline(
            &m,
            &[],
            &[],
            PipelineConfig {
                strict: true,
                ..PipelineConfig::default()
            },
        )
        .unwrap();
        assert_eq!(relaxed.replicated_sites, strict.replicated_sites);
        assert_eq!(
            relaxed.replicated_misprediction_percent,
            strict.replicated_misprediction_percent
        );
        assert!(strict.quarantined.is_empty());
    }

    /// The realized-growth budget backs off machine sizes (recording each
    /// step) until the shipped module fits, and the result still passes
    /// every gate.
    #[test]
    fn realized_growth_budget_backs_off_and_ships_within_budget() {
        let m = alternating_module();
        let budget = 1.05;
        let result = run_pipeline(
            &m,
            &[],
            &[],
            PipelineConfig {
                max_realized_growth: Some(budget),
                ..PipelineConfig::default()
            },
        )
        .unwrap();
        assert!(
            result.size_growth <= budget,
            "shipped growth {} exceeds budget {budget}",
            result.size_growth
        );
        // The default run replicates (growth > 1.05 per the test above),
        // so the budget must have forced at least one backoff step.
        assert!(
            !result.size_backoffs.is_empty() || !result.quarantined.is_empty(),
            "a 1.05x budget cannot be met without backing off"
        );
        for q in &result.quarantined {
            assert_eq!(q.gate, QuarantineGate::SizeBudget);
        }
        // Shrink steps must strictly reduce state counts.
        for b in &result.size_backoffs {
            assert!(b.to_states < b.from_states, "{b:?}");
        }
    }

    /// A generous realized budget changes nothing: no backoff, identical
    /// shipped sites.
    #[test]
    fn generous_realized_budget_is_a_no_op() {
        let m = alternating_module();
        let base = run_pipeline(&m, &[], &[], PipelineConfig::default()).unwrap();
        let capped = run_pipeline(
            &m,
            &[],
            &[],
            PipelineConfig {
                max_realized_growth: Some(100.0),
                ..PipelineConfig::default()
            },
        )
        .unwrap();
        assert!(capped.size_backoffs.is_empty());
        assert_eq!(base.replicated_sites, capped.replicated_sites);
        assert_eq!(base.size_growth, capped.size_growth);
    }
}
