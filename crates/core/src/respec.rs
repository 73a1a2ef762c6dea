//! Runtime re-specialization: online drift detection and proof-gated
//! hot re-patching of a shipped replicated program.
//!
//! The planner fixes every replica's pinned direction from one profiling
//! run. When the input distribution later shifts, those pins go stale —
//! the drift gate (`BR019`) can *report* the shift, but until this layer
//! the only repair was a full re-plan. [`Respec`] instead watches the
//! shipped program segment by segment and applies **minimal patches**:
//!
//! * **swap** — re-pin the profile-majority replicas of a site whose
//!   observed majority flipped (no CFG change, only `StaticPrediction`);
//! * **demote** — collapse a machine-controlled site whose machine
//!   stopped predicting back to its profile-majority single version;
//! * **re-inflate** — restore a previously demoted site's machine when
//!   the drift reverses.
//!
//! Detection follows the planning-time expectation two ways, mirroring
//! the estimate drift gate: sites with a statically *proved* direction
//! reuse the BR019 exact-rational comparison (a proved direction that
//! drifts means corrupt observation, never a patch — the proof wins and
//! the refusal is reported as `BR023`); heuristic sites run a CUSUM-style
//! windowed test over the per-site counter feed
//! ([`brepl_trace::windowed_counts`]) on both the taken rate *and* — for
//! machine-controlled sites — the machine's realized miss rate, so a
//! pattern shift that leaves the marginal rate untouched still trips the
//! detector.
//!
//! Every candidate patch is re-proved by the full BR001–BR012 gate stack
//! before commit, through the incremental [`GateCache`] so only dirtied
//! functions and sites pay ([`brepl_analysis::validate_replication_cached`]
//! and [`brepl_analysis::check_history_cached`] over one cache). A
//! committed patch then has one **verification window**: if the next
//! observed segment does not improve the patched sites' measured miss
//! rate by 0.02, the whole patch transaction is rolled back to the
//! byte-identical pre-patch program. Failed patches put their sites on
//! exponential backoff (`2^failures` segments); at the second failure
//! the site is quarantined from further patching and `BR024`
//! (flapping-site) is emitted. Patches commit one transaction at
//! a time — while one awaits verification no new patch is proposed — so
//! rollback is always a whole-program restore, never a partial undo.

use std::collections::{BTreeMap, BTreeSet};

use brepl_analysis::{
    check_history, check_history_cached, has_errors, validate_replication,
    validate_replication_cached, AnalysisDiag, DiagCode, GateCache, Severity,
};
use brepl_ir::{BranchId, Loc, Module};
use brepl_trace::{
    windowed_counts, EventSink, PackedStream, Segment, SegmentFold, SiteCounts, Trace, TraceStats,
};

use crate::replicate::{
    apply_plan, BranchMachine, ReplicateError, ReplicatedProgram, ReplicationPlan,
};
use crate::select::Selection;

/// Outcomes per CUSUM window (per site).
const WINDOW: usize = 256;
/// CUSUM slack `k`: per-window deviation below this is absorbed.
const CUSUM_SLACK: f64 = 0.08;
/// CUSUM threshold `h`: accumulated deviation above this fires.
const CUSUM_THRESHOLD: f64 = 0.75;
/// Minimum absolute miss-rate improvement a committed patch must show in
/// its verification window to survive.
const MIN_IMPROVEMENT: f64 = 0.02;
/// Failed patches (gate rejection or rollback) before a site is
/// quarantined and `BR024` fires.
const MAX_FAILURES: u32 = 2;
/// How close (absolute taken-rate distance) a demoted site must return to
/// its planning-time rate to be re-inflated rather than merely re-pinned.
const REINFLATE_SLACK: f64 = 0.1;

/// The re-specialization layer's configuration. It has no settings: the
/// detector and verification parameters are the constants above.
#[derive(Clone, Copy, Debug, Default)]
pub struct RespecConfig;

/// The kind of a minimal patch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PatchKind {
    /// Re-pin a profile site's replicas to the observed majority.
    SwapPin {
        /// The direction pinned before the patch.
        from: bool,
        /// The observed-majority direction pinned by the patch.
        to: bool,
    },
    /// Collapse a machine-controlled site to its profile-majority single
    /// version.
    Demote {
        /// The observed-majority direction the single version pins.
        to: bool,
    },
    /// Restore a previously demoted site's machine.
    Reinflate,
}

/// What became of a patch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PatchOutcome {
    /// Committed and awaiting its verification window.
    Committed,
    /// Committed and confirmed by its verification window.
    Verified,
    /// Committed, failed verification, rolled back byte-identically.
    RolledBack,
    /// Rejected by the BR001–BR012 re-proof; never shipped.
    RejectedByGate,
    /// Refused by policy (e.g. drift against a statically proved
    /// direction); never shipped.
    RejectedByPolicy,
}

/// One entry of the patch log.
#[derive(Clone, Debug, PartialEq)]
pub struct PatchRecord {
    /// The original-module branch site.
    pub site: BranchId,
    /// What the patch does.
    pub kind: PatchKind,
    /// The observed segment that triggered it.
    pub segment: usize,
    /// Current status (updated in place when verification resolves).
    pub outcome: PatchOutcome,
    /// Human-readable specifics.
    pub detail: String,
}

/// Per-site drift-detector and backoff state.
#[derive(Clone, Debug)]
struct SiteState {
    /// Statically proved direction, if any: such a site is never patched.
    proved: Option<bool>,
    /// The currently expected taken rate (planning rate, updated to the
    /// accepted observed rate when a patch at this site commits).
    expect_rate: f64,
    /// The planning-time taken rate (re-inflation target).
    plan_rate: f64,
    /// The currently expected miss rate under the shipped strategy.
    expect_miss: f64,
    /// CUSUM accumulators: taken-rate up, taken-rate down, miss-rate up.
    s_pos: f64,
    s_neg: f64,
    s_miss: f64,
    /// Patch failures so far (gate rejections + rollbacks).
    failures: u32,
    /// No patch proposals before this segment index.
    blocked_until: usize,
    /// Permanently excluded from patching (BR024 fired).
    quarantined: bool,
}

/// Snapshot taken before a patch transaction commits, for rollback.
struct Snapshot {
    program: ReplicatedProgram,
    enabled: BTreeSet<BranchId>,
    demoted: BTreeSet<BranchId>,
    overrides: BTreeMap<BranchId, SiteCounts>,
    expects: BTreeMap<BranchId, (f64, f64)>,
}

/// A committed patch transaction awaiting its verification window.
struct PendingVerify {
    /// Member sites with their patch-log indices and their own
    /// pre-patch miss rates in the drift segment — the per-member bar
    /// the verification window holds each one to.
    members: Vec<(BranchId, usize, f64)>,
    snapshot: Snapshot,
}

/// One site's observation for a segment: the outcome stream and the
/// shipped program's miss stream, both in that site's own order.
struct Folded<'a> {
    taken: &'a PackedStream,
    miss: PackedStream,
}

impl Folded<'_> {
    fn counts(&self) -> SiteCounts {
        let taken = self.taken.count_taken();
        SiteCounts {
            taken,
            not_taken: self.taken.len() as u64 - taken,
        }
    }
}

/// The drift-adaptive runtime layer for one shipped program.
///
/// Feed it one observed segment at a time via [`Respec::observe_segment`]
/// (a segment of a [`SegmentFold`] run) or [`Respec::observe`] (a trace);
/// read the (possibly re-patched) program back via [`Respec::program`]
/// between segments. See the module docs for the full state machine.
pub struct Respec<'m> {
    module: &'m Module,
    program: ReplicatedProgram,
    /// The planned machine for every machine-selected site, enabled or
    /// currently demoted.
    base: BTreeMap<BranchId, BranchMachine>,
    /// Sites currently shipped machine-controlled.
    enabled: BTreeSet<BranchId>,
    /// Sites planned machine-controlled but currently demoted.
    demoted: BTreeSet<BranchId>,
    /// Planning-time per-site counts, indexed by original site.
    plan_counts: Vec<SiteCounts>,
    /// Accepted observed counts (from committed patches), overriding
    /// `plan_counts` when the program is rebuilt.
    overrides: BTreeMap<BranchId, SiteCounts>,
    sites: BTreeMap<BranchId, SiteState>,
    pending: Option<PendingVerify>,
    cache: GateCache,
    diags: Vec<AnalysisDiag>,
    log: Vec<PatchRecord>,
}

impl<'m> Respec<'m> {
    /// Ships `selection` (restricted to `shipped` machine sites) over
    /// `module` and wraps the result in the adaptive layer.
    ///
    /// `plan_stats` are the planning-run per-site counts (the drift
    /// baseline), `proved` the statically proved directions (from
    /// [`brepl_analysis::Classification::proved_sites`]) that must never
    /// be patched against.
    ///
    /// # Errors
    ///
    /// Propagates [`ReplicateError`] from the initial plan application.
    pub fn new(
        module: &'m Module,
        selection: &Selection,
        shipped: &BTreeSet<BranchId>,
        plan_stats: &TraceStats,
        proved: &[(BranchId, bool)],
        _config: RespecConfig,
    ) -> Result<Respec<'m>, ReplicateError> {
        let plan = selection.to_plan_filtered(|site| shipped.contains(&site));
        let base = plan.assignments.clone();
        let enabled: BTreeSet<BranchId> = base.keys().copied().collect();
        let plan_counts: Vec<SiteCounts> = (0..module.branch_count())
            .map(|i| plan_stats.site(BranchId::from_index(i)))
            .collect();
        let program = apply_plan(module, &plan, plan_stats)?;

        let proved_map: BTreeMap<BranchId, bool> = proved.iter().copied().collect();
        let mut sites = BTreeMap::new();
        for (i, counts) in plan_counts.iter().enumerate() {
            if counts.total() == 0 {
                continue;
            }
            let site = BranchId::from_index(i);
            let rate = counts.taken as f64 / counts.total() as f64;
            // Expected miss rate under the shipped strategy: the chosen
            // machine's profiling miss rate where one shipped, otherwise
            // the profile-majority minority rate.
            let choice = selection.choices().iter().find(|c| c.site == site);
            let miss = match choice {
                Some(c) if enabled.contains(&site) && c.executions > 0 => {
                    c.chosen_misses as f64 / c.executions as f64
                }
                _ => counts.minority_count() as f64 / counts.total() as f64,
            };
            sites.insert(
                site,
                SiteState {
                    proved: proved_map.get(&site).copied(),
                    expect_rate: rate,
                    plan_rate: rate,
                    expect_miss: miss,
                    s_pos: 0.0,
                    s_neg: 0.0,
                    s_miss: 0.0,
                    failures: 0,
                    blocked_until: 0,
                    quarantined: false,
                },
            );
        }

        Ok(Respec {
            module,
            program,
            base,
            enabled,
            demoted: BTreeSet::new(),
            plan_counts,
            overrides: BTreeMap::new(),
            sites,
            pending: None,
            cache: GateCache::new(),
            diags: Vec::new(),
            log: Vec::new(),
        })
    }

    /// The currently shipped program.
    pub fn program(&self) -> &ReplicatedProgram {
        &self.program
    }

    /// Mutable access to the shipped program — exists solely so the chaos
    /// harness can corrupt a committed patch *post-gate*; honest callers
    /// never need it.
    pub fn program_mut(&mut self) -> &mut ReplicatedProgram {
        &mut self.program
    }

    /// Sites currently machine-controlled.
    pub fn enabled_sites(&self) -> &BTreeSet<BranchId> {
        &self.enabled
    }

    /// Sites currently demoted to their profile-majority single version.
    pub fn demoted_sites(&self) -> &BTreeSet<BranchId> {
        &self.demoted
    }

    /// Sites quarantined from further patching.
    pub fn quarantined_sites(&self) -> Vec<BranchId> {
        self.sites
            .iter()
            .filter(|(_, st)| st.quarantined)
            .map(|(&s, _)| s)
            .collect()
    }

    /// Incremental-gate cache hits so far.
    pub fn gate_cache_hits(&self) -> usize {
        self.cache.hits()
    }

    /// From-scratch re-proof of the *currently shipped* program under the
    /// full BR001–BR012 gate stack — the translation validator plus the
    /// witness-independent history checker, with no cache in the loop.
    /// Every committed patch must leave this clean; callers run it once
    /// after the last segment as the final acceptance check.
    pub fn revalidate(&self) -> Vec<AnalysisDiag> {
        let spec = self.current_plan().history_spec();
        let mut diags = validate_replication(
            self.module,
            &self.program.module,
            &self.program.replica_map,
            &self.program.predictions,
        );
        diags.extend(check_history(
            &self.program.module,
            &self.program.provenance,
            &spec,
            &self.program.predictions,
        ));
        diags
    }

    /// Consumes the layer, returning the final program, patch log and
    /// diagnostics.
    pub fn into_parts(self) -> (ReplicatedProgram, Vec<PatchRecord>, Vec<AnalysisDiag>) {
        (self.program, self.log, self.diags)
    }

    /// The replication plan over the currently enabled sites.
    fn current_plan(&self) -> ReplicationPlan {
        let mut plan = ReplicationPlan::new();
        for (&site, machine) in &self.base {
            if self.enabled.contains(&site) {
                plan.assign(site, machine.clone());
            }
        }
        plan
    }

    /// Planning counts with every accepted override applied — the stats
    /// the program is rebuilt from, so committed swaps survive rebuilds.
    fn current_stats(&self) -> TraceStats {
        let mut counts = self.plan_counts.clone();
        for (&site, &c) in &self.overrides {
            if site.index() < counts.len() {
                counts[site.index()] = c;
            }
        }
        TraceStats::from_counts(counts)
    }

    fn snapshot(&self) -> Snapshot {
        Snapshot {
            program: self.program.clone(),
            enabled: self.enabled.clone(),
            demoted: self.demoted.clone(),
            overrides: self.overrides.clone(),
            expects: self
                .sites
                .iter()
                .map(|(&s, st)| (s, (st.expect_rate, st.expect_miss)))
                .collect(),
        }
    }

    fn restore(&mut self, snap: Snapshot) {
        self.program = snap.program;
        self.enabled = snap.enabled;
        self.demoted = snap.demoted;
        self.overrides = snap.overrides;
        for (site, (rate, miss)) in snap.expects {
            if let Some(st) = self.sites.get_mut(&site) {
                st.expect_rate = rate;
                st.expect_miss = miss;
            }
        }
    }

    /// The diagnostic location for an original-module site.
    fn site_loc(&self, site: BranchId) -> Loc {
        self.module
            .locate_branch(site)
            .map_or(Loc::function(brepl_ir::FuncId(0)), |(f, b)| Loc::term(f, b))
    }

    /// Registers a patch failure at `site`: exponential backoff, and
    /// quarantine + BR024 at the failure cap.
    fn register_failure(&mut self, site: BranchId, segment: usize) {
        let loc = self.site_loc(site);
        let Some(st) = self.sites.get_mut(&site) else {
            return;
        };
        st.failures += 1;
        st.blocked_until = segment + (1usize << st.failures.min(16));
        st.s_pos = 0.0;
        st.s_neg = 0.0;
        st.s_miss = 0.0;
        if st.failures >= MAX_FAILURES && !st.quarantined {
            st.quarantined = true;
            let failures = st.failures;
            self.diags.push(
                AnalysisDiag::new(
                    DiagCode::FlappingSite,
                    loc,
                    format!(
                        "site drifted and failed {failures} patches — the input \
                         distribution is oscillating faster than the adaptation \
                         window; quarantining from further re-patching"
                    ),
                )
                .with_site(site),
            );
        }
    }

    /// Observes one trace segment produced by the *current* program:
    /// [`Self::observe_segment`] on the segment fed through a one-segment
    /// [`SegmentFold`] under the program's provenance (a site the
    /// provenance does not cover stands for itself).
    ///
    /// `segment` indices must be strictly increasing across calls.
    pub fn observe(&mut self, segment: usize, seg: &Trace) -> Vec<PatchRecord> {
        let mut provenance = self.program.provenance.clone();
        let sites = seg.max_site().map_or(0, |s| s.index() + 1);
        provenance.extend((provenance.len()..sites).map(BranchId::from_index));
        let mut fold = SegmentFold::new(&provenance, 1);
        for ev in seg.iter() {
            fold.record(ev.site, ev.taken);
        }
        self.observe_segment(segment, fold.segment(0))
    }

    /// Observes one segment of a run of the *current* program, folded per
    /// original site, and applies at most one patch transaction. Misses
    /// count against the predictions current now, so a segment of a run
    /// made before a prediction-only patch reads as if run after it.
    /// Returns the records appended or resolved this call (resolved
    /// records are re-emitted with their final outcome).
    ///
    /// `segment` indices must be strictly increasing across calls.
    pub fn observe_segment(&mut self, segment: usize, seg: Segment<'_>) -> Vec<PatchRecord> {
        let predictions = &self.program.predictions;
        let folded: BTreeMap<BranchId, Folded> = seg
            .sites
            .iter()
            .enumerate()
            .filter(|(_, s)| !s.taken.is_empty())
            .map(|(orig, s)| {
                let miss = seg.misses(orig, |r| predictions.get(r));
                (
                    BranchId::from_index(orig),
                    Folded {
                        taken: &s.taken,
                        miss,
                    },
                )
            })
            .collect();
        let mut touched: Vec<usize> = Vec::new();
        self.verify_pending(segment, &folded, &mut touched);
        self.check_proved(segment, &folded, &mut touched);
        if self.pending.is_none() {
            let proposals = self.detect(segment, &folded);
            if !proposals.is_empty() {
                self.apply_transaction(segment, proposals, &folded, &mut touched);
            }
        }
        touched.sort_unstable();
        touched.dedup();
        touched.into_iter().map(|i| self.log[i].clone()).collect()
    }

    /// Resolves the pending verification window, if any. The window
    /// resolves on the first segment in which any member site executed;
    /// each member that executed must beat its *own* pre-patch miss
    /// rate by `MIN_IMPROVEMENT`, and members that did not execute pass
    /// trivially. One failing member rolls the whole transaction back:
    /// per-member verification means a regressing (or corrupted) pin
    /// cannot hide behind its siblings' improvements in a pooled rate.
    fn verify_pending(
        &mut self,
        segment: usize,
        folded: &BTreeMap<BranchId, Folded<'_>>,
        touched: &mut Vec<usize>,
    ) {
        let Some(pending) = self.pending.take() else {
            return;
        };
        let mut any_events = false;
        let mut verdicts = Vec::with_capacity(pending.members.len());
        for &(site, idx, pre) in &pending.members {
            let (events, misses) = folded
                .get(&site)
                .map(|f| (f.taken.len() as u64, f.miss.count_taken()))
                .unwrap_or((0, 0));
            any_events |= events > 0;
            let rate = misses as f64 / events.max(1) as f64;
            let pass = events == 0 || rate <= pre - MIN_IMPROVEMENT;
            verdicts.push((site, idx, pre, rate, events, pass));
        }
        if !any_events {
            // The member sites did not execute this segment; the window
            // stays open.
            self.pending = Some(pending);
            return;
        }
        if verdicts.iter().all(|&(.., pass)| pass) {
            for &(site, idx, ..) in &verdicts {
                self.log[idx].outcome = PatchOutcome::Verified;
                touched.push(idx);
                if let Some(st) = self.sites.get_mut(&site) {
                    st.failures = 0;
                }
            }
            return;
        }
        // Verification failed: byte-identical rollback, then backoff.
        self.restore(pending.snapshot);
        for (site, idx, pre, rate, events, pass) in verdicts {
            self.log[idx].outcome = PatchOutcome::RolledBack;
            touched.push(idx);
            let why = if !pass {
                format!(
                    "measured miss rate {rate:.4} did not improve on \
                     pre-patch {pre:.4} by {MIN_IMPROVEMENT}"
                )
            } else if events == 0 {
                "a sibling member of the transaction regressed (this site \
                 did not execute in the window)"
                    .to_string()
            } else {
                "a sibling member of the transaction regressed".to_string()
            };
            self.diags.push(
                AnalysisDiag::new(
                    DiagCode::PatchRejected,
                    self.site_loc(site),
                    format!(
                        "patch failed its verification window: {why}; \
                         rolled back to the pre-patch program"
                    ),
                )
                .with_site(site),
            );
            self.register_failure(site, segment);
        }
    }

    /// The BR019-style exact comparison: a site with a statically proved
    /// direction whose observed segment contradicts the proof is refused
    /// patching outright — the proof outranks any counter.
    fn check_proved(
        &mut self,
        segment: usize,
        folded: &BTreeMap<BranchId, Folded<'_>>,
        touched: &mut Vec<usize>,
    ) {
        let contradicted: Vec<(BranchId, bool, SiteCounts)> = self
            .sites
            .iter()
            .filter(|(_, st)| !st.quarantined)
            .filter_map(|(&site, st)| {
                let dir = st.proved?;
                let counts = folded.get(&site)?.counts();
                let impossible = if dir { counts.not_taken } else { counts.taken };
                (impossible > 0).then_some((site, dir, counts))
            })
            .collect();
        for (site, dir, counts) in contradicted {
            let loc = self.site_loc(site);
            let (taken, not_taken) = (counts.taken, counts.not_taken);
            self.diags.push(
                AnalysisDiag::new(
                    DiagCode::PatchRejected,
                    loc,
                    format!(
                        "observed {taken} taken / {not_taken} not-taken events \
                         contradict the statically proved {} direction — the \
                         observation stream is corrupt or stale; refusing to \
                         patch against a proof",
                        if dir { "always-taken" } else { "never-taken" },
                    ),
                )
                .with_site(site),
            );
            self.log.push(PatchRecord {
                site,
                kind: PatchKind::SwapPin {
                    from: dir,
                    to: !dir,
                },
                segment,
                outcome: PatchOutcome::RejectedByPolicy,
                detail: "drift contradicts a statically proved direction".to_string(),
            });
            touched.push(self.log.len() - 1);
            if let Some(st) = self.sites.get_mut(&site) {
                st.quarantined = true;
            }
        }
    }

    /// Runs the windowed CUSUM detectors and returns patch proposals in
    /// deterministic site order.
    fn detect(
        &mut self,
        segment: usize,
        folded: &BTreeMap<BranchId, Folded<'_>>,
    ) -> Vec<(BranchId, PatchKind, SiteCounts, f64)> {
        let min_window = WINDOW / 2;
        let mut proposals = Vec::new();
        for (&site, f) in folded {
            // Phase 1: advance the CUSUM accumulators under the mutable
            // per-site borrow and decide whether a detector fired.
            let (plan_rate, expect_miss) = {
                let Some(st) = self.sites.get_mut(&site) else {
                    continue;
                };
                if st.quarantined || st.proved.is_some() || segment < st.blocked_until {
                    continue;
                }
                let mut drift = false;
                for w in windowed_counts(f.taken, WINDOW) {
                    if (w.total() as usize) < min_window {
                        continue;
                    }
                    let x = w.taken as f64 / w.total() as f64;
                    st.s_pos = (st.s_pos + x - st.expect_rate - CUSUM_SLACK).max(0.0);
                    st.s_neg = (st.s_neg + st.expect_rate - x - CUSUM_SLACK).max(0.0);
                    if st.s_pos > CUSUM_THRESHOLD || st.s_neg > CUSUM_THRESHOLD {
                        drift = true;
                    }
                }
                for w in windowed_counts(&f.miss, WINDOW) {
                    if (w.total() as usize) < min_window {
                        continue;
                    }
                    let m = w.taken as f64 / w.total() as f64;
                    st.s_miss = (st.s_miss + m - st.expect_miss - CUSUM_SLACK).max(0.0);
                    if st.s_miss > CUSUM_THRESHOLD {
                        drift = true;
                    }
                }
                if !drift {
                    continue;
                }
                st.s_pos = 0.0;
                st.s_neg = 0.0;
                st.s_miss = 0.0;
                (st.plan_rate, st.expect_miss)
            };

            // Phase 2: the borrow is released; classify the drift.
            let counts = f.counts();
            let seg_rate = counts.taken as f64 / counts.total().max(1) as f64;
            let miss_rate = f.miss.count_taken() as f64 / f.miss.len().max(1) as f64;
            let kind = if self.enabled.contains(&site) {
                // A machine-controlled site is demoted only when the
                // machine itself stopped predicting. The marginal taken
                // rate can drift arbitrarily while the history pattern
                // the machine encodes still holds (miss rate intact) —
                // a history-driven predictor does not care about the
                // marginal. Just move the expectations so the detector
                // re-arms on the new distribution.
                if miss_rate <= expect_miss + CUSUM_SLACK {
                    if let Some(st) = self.sites.get_mut(&site) {
                        st.expect_rate = seg_rate;
                        st.expect_miss = miss_rate;
                    }
                    continue;
                }
                PatchKind::Demote {
                    to: counts.majority(),
                }
            } else if self.demoted.contains(&site)
                && (seg_rate - plan_rate).abs() <= REINFLATE_SLACK
            {
                PatchKind::Reinflate
            } else {
                // Profile-pinned site (plain or demoted): follow the
                // observed majority. A drift that does not flip the
                // majority needs no patch — just move the expectation.
                let to = counts.majority();
                let from = self.current_pin(site).unwrap_or(to);
                if from == to {
                    if let Some(st) = self.sites.get_mut(&site) {
                        st.expect_rate = seg_rate;
                        st.expect_miss =
                            counts.minority_count() as f64 / counts.total().max(1) as f64;
                    }
                    continue;
                }
                PatchKind::SwapPin { from, to }
            };
            proposals.push((site, kind, counts, miss_rate));
        }
        proposals
    }

    /// The direction currently pinned on `site`'s profile replicas, from
    /// any one of its non-machine-pinned replicas.
    fn current_pin(&self, site: BranchId) -> Option<bool> {
        self.program
            .provenance
            .iter()
            .enumerate()
            .find(|&(_, &orig)| orig == site)
            .map(|(ns, _)| self.program.predictions.get(BranchId::from_index(ns)))
    }

    /// Applies one patch transaction: snapshot, rebuild, re-prove under
    /// BR001–BR012, commit or reject.
    fn apply_transaction(
        &mut self,
        segment: usize,
        proposals: Vec<(BranchId, PatchKind, SiteCounts, f64)>,
        folded: &BTreeMap<BranchId, Folded<'_>>,
        touched: &mut Vec<usize>,
    ) {
        let snapshot = self.snapshot();

        // Per-member pre-patch miss rates: the bar each member must
        // clear in its verification window.
        let pre_rates: BTreeMap<BranchId, f64> = proposals
            .iter()
            .map(|&(site, _, _, _)| {
                let rate = folded
                    .get(&site)
                    .map(|f| f.miss.count_taken() as f64 / (f.taken.len() as f64).max(1.0))
                    .unwrap_or(0.0);
                (site, rate)
            })
            .collect();

        // Mutate the layer state, then rebuild deterministically.
        for &(site, kind, counts, _) in &proposals {
            match kind {
                PatchKind::SwapPin { .. } => {
                    self.overrides.insert(site, counts);
                }
                PatchKind::Demote { .. } => {
                    self.enabled.remove(&site);
                    self.demoted.insert(site);
                    self.overrides.insert(site, counts);
                }
                PatchKind::Reinflate => {
                    self.demoted.remove(&site);
                    self.enabled.insert(site);
                    self.overrides.remove(&site);
                }
            }
        }
        let plan = self.current_plan();
        let stats = self.current_stats();
        let rebuilt = match apply_plan(self.module, &plan, &stats) {
            Ok(p) => p,
            Err(e) => {
                self.reject(
                    segment,
                    &proposals,
                    &format!("patch application failed: {e}"),
                );
                self.restore(snapshot);
                let start = self.log.len() - proposals.len();
                touched.extend(start..self.log.len());
                return;
            }
        };

        // Re-prove the candidate under the full static gate stack via the
        // incremental cache: only functions/sites the patch dirtied pay.
        let mut gate_diags = validate_replication_cached(
            self.module,
            &rebuilt.module,
            &rebuilt.replica_map,
            &rebuilt.predictions,
            &mut self.cache,
        );
        gate_diags.extend(check_history_cached(
            &rebuilt.module,
            &rebuilt.provenance,
            &plan.history_spec(),
            &rebuilt.predictions,
            &mut self.cache,
        ));
        if has_errors(&gate_diags) {
            let first = gate_diags
                .iter()
                .find(|d| d.severity() == Severity::Error)
                .map(|d| d.render(&rebuilt.module))
                .unwrap_or_default();
            self.reject(
                segment,
                &proposals,
                &format!("BR001-BR012 re-proof failed: {first}"),
            );
            self.restore(snapshot);
            let start = self.log.len() - proposals.len();
            touched.extend(start..self.log.len());
            for &(site, _, _, _) in &proposals {
                self.register_failure(site, segment);
            }
            return;
        }

        // Commit: ship the rebuilt program, open the verification window.
        self.program = rebuilt;
        let mut members = Vec::with_capacity(proposals.len());
        for (site, kind, counts, miss_rate) in proposals {
            let detail = format!(
                "observed {} taken / {} not-taken (miss rate {miss_rate:.4}) in segment {segment}",
                counts.taken, counts.not_taken
            );
            self.log.push(PatchRecord {
                site,
                kind,
                segment,
                outcome: PatchOutcome::Committed,
                detail,
            });
            let idx = self.log.len() - 1;
            touched.push(idx);
            members.push((site, idx, pre_rates.get(&site).copied().unwrap_or(0.0)));
            if let Some(st) = self.sites.get_mut(&site) {
                match kind {
                    PatchKind::Reinflate => {
                        st.expect_rate = st.plan_rate;
                        // The machine is back: expect its planning miss
                        // rate again (approximated by zero until the next
                        // committed patch refines it — the verification
                        // window is the real arbiter).
                        st.expect_miss = 0.0;
                    }
                    _ => {
                        let total = counts.total().max(1) as f64;
                        st.expect_rate = counts.taken as f64 / total;
                        st.expect_miss = counts.minority_count() as f64 / total;
                    }
                }
            }
        }
        self.pending = Some(PendingVerify { members, snapshot });
    }

    /// Logs a gate rejection for every member of a failed transaction.
    fn reject(
        &mut self,
        segment: usize,
        proposals: &[(BranchId, PatchKind, SiteCounts, f64)],
        why: &str,
    ) {
        for &(site, kind, _, _) in proposals {
            self.diags.push(
                AnalysisDiag::new(
                    DiagCode::PatchRejected,
                    self.site_loc(site),
                    format!("patch rejected before commit: {why}"),
                )
                .with_site(site),
            );
            self.log.push(PatchRecord {
                site,
                kind,
                segment,
                outcome: PatchOutcome::RejectedByGate,
                detail: why.to_string(),
            });
        }
    }
}
