//! Deterministic fault injection (feature `chaos`).
//!
//! Test-harness machinery for proving the pipeline's degradation paths:
//! each [`ChaosPoint`] names one way a replication artifact can be
//! corrupted — a machine table entry, a replica edge, a witness chain, a
//! shipped prediction, or the profiling trace — and a [`ChaosEngine`]
//! applies exactly one such fault per pipeline run, at a victim site
//! chosen by an xorshift-seeded RNG. Every injection is replayable from
//! `(seed, point)` alone.
//!
//! Injections are **verified**: a candidate mutation is kept only if the
//! real gate (the translation validator or the history checker) actually
//! flags it; ineffective candidates are reverted and the next one tried,
//! in a deterministic seed-rotated order. This guarantees a recorded
//! [`Injection`] corresponds to a fault the pipeline *must* react to —
//! either by quarantining the victim site (default mode) or by aborting
//! with a typed error (strict mode) — never to a silent no-op.
//!
//! Never enable this feature in production builds; it exists so the
//! quarantine machinery in `brepl::pipeline` is exercised end-to-end
//! instead of trusted on faith.

use brepl_analysis::{
    check_history, validate_replication, AnalysisDiag, HistorySpec, Severity, TableState,
};
use brepl_ir::{BlockId, BranchId, FuncId, Module, Term};
use brepl_trace::{Segment, SiteStream, Trace, TraceError};

use crate::replicate::ReplicatedProgram;

/// A named fault-injection point.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ChaosPoint {
    /// Corrupt an entry of the victim's machine transition table in the
    /// [`HistorySpec`] handed to the history checker (or fabricate a
    /// table for a site the spec does not cover).
    CorruptMachineTable,
    /// Swap the taken/not-taken targets of one replica copy of the
    /// victim's branch in the replicated module.
    RetargetReplicaEdge,
    /// Corrupt the witness origin chain of a replica block descending
    /// from the victim's branch (duplicate its head, truncate it, or
    /// clear it outright).
    DropWitnessChain,
    /// Flip the shipped static prediction of a machine-pinned replica of
    /// the victim's branch.
    FlipPinnedPrediction,
    /// Truncate the serialized profiling trace mid-event so it no longer
    /// decodes.
    TruncateTrace,
    /// Flip one trace event at a branch the static classifier proved
    /// monostatic, so the profile contradicts the proof (`BR013`). When
    /// the module has no proved-and-executed site, falls back to the
    /// [`ChaosPoint::TruncateTrace`] corruption so the point still fires
    /// on every workload.
    ForgeTraceEvent,
    /// Perturb the exact bias estimate of one executed site in the
    /// [`brepl_analysis::StaticProfile`] the drift gate judges, so the
    /// honest measured trace contradicts the stored estimate (`BR019`).
    /// The trace, module, witness and machine tables are all untouched —
    /// `BR001`–`BR018` must stay blind; only the estimate drift gate can
    /// catch it. When the module has no exact-and-executed estimate,
    /// falls back to the [`ChaosPoint::TruncateTrace`] corruption so the
    /// point still fires on every workload.
    ForgeStaticProfile,
    /// Swap an observed segment's input distribution mid-trace at a
    /// deterministic boundary (the segment midpoint), by flipping the
    /// victim site's outcomes from that boundary on. Targets the
    /// re-specialization layer: the forged drift provokes a patch the
    /// *next* honest segment must fail to verify, forcing a rollback and
    /// `BR023` — while `BR001`–`BR022` stay blind (the module, witness,
    /// tables and planning trace are all honest). In the plain
    /// (non-adaptive) pipeline this point falls back to the
    /// [`ChaosPoint::TruncateTrace`] corruption so the chaos matrix still
    /// fires on every workload.
    InjectDrift,
    /// Flip a committed re-specialization patch's pinned direction
    /// *after* the BR001–BR012 re-proof accepted it — the gate is honest,
    /// the shipped bits are not. Only the respec verification window can
    /// catch this (measured misprediction fails to improve → rollback +
    /// `BR023`). In the plain pipeline this point falls back to the
    /// [`ChaosPoint::TruncateTrace`] corruption so the chaos matrix still
    /// fires on every workload.
    CorruptPatch,
}

impl ChaosPoint {
    /// Every injection point, in a stable order.
    pub const ALL: [ChaosPoint; 9] = [
        ChaosPoint::CorruptMachineTable,
        ChaosPoint::RetargetReplicaEdge,
        ChaosPoint::DropWitnessChain,
        ChaosPoint::FlipPinnedPrediction,
        ChaosPoint::TruncateTrace,
        ChaosPoint::ForgeTraceEvent,
        ChaosPoint::ForgeStaticProfile,
        ChaosPoint::InjectDrift,
        ChaosPoint::CorruptPatch,
    ];

    /// Stable kebab-case name (CLI flags, JSON output).
    pub fn name(self) -> &'static str {
        match self {
            ChaosPoint::CorruptMachineTable => "corrupt-machine-table",
            ChaosPoint::RetargetReplicaEdge => "retarget-replica-edge",
            ChaosPoint::DropWitnessChain => "drop-witness-chain",
            ChaosPoint::FlipPinnedPrediction => "flip-pinned-prediction",
            ChaosPoint::TruncateTrace => "truncate-trace",
            ChaosPoint::ForgeTraceEvent => "forge-trace-event",
            ChaosPoint::ForgeStaticProfile => "forge-static-profile",
            ChaosPoint::InjectDrift => "inject-drift",
            ChaosPoint::CorruptPatch => "corrupt-patch",
        }
    }

    /// Parses [`Self::name`] back; `None` for unknown strings.
    pub fn parse(s: &str) -> Option<ChaosPoint> {
        Self::ALL.into_iter().find(|p| p.name() == s)
    }
}

impl std::fmt::Display for ChaosPoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Which fault to inject and the seed making the run replayable.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChaosConfig {
    /// Seeds victim choice and all candidate ordering.
    pub seed: u64,
    /// The single injection point activated for the run.
    pub point: ChaosPoint,
}

/// The xorshift64* generator used everywhere in this crate's test
/// tooling: cheap, deterministic, and good enough for fault placement.
#[derive(Clone, Debug)]
pub struct ChaosRng(u64);

impl ChaosRng {
    /// Seeds the generator; the OR keeps the state non-zero.
    pub fn new(seed: u64) -> Self {
        ChaosRng(seed | 0x1234_5678)
    }

    /// Next raw 64-bit value.
    fn next_u64(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform-ish index below `n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// A fault that was actually injected (and verified effective).
#[derive(Clone, Debug)]
pub struct Injection {
    /// The activated point.
    pub point: ChaosPoint,
    /// The original-module branch site the fault targets — the site the
    /// pipeline is expected to quarantine.
    pub victim: BranchId,
    /// Human-readable account of the exact mutation, for logs and JSON.
    pub description: String,
}

/// Per-pipeline-run injection state: pins one victim, fires at most one
/// fault, and remembers what it did.
#[derive(Debug)]
pub struct ChaosEngine {
    config: ChaosConfig,
    rng: ChaosRng,
    victim: Option<BranchId>,
    injection: Option<Injection>,
}

impl ChaosEngine {
    /// A fresh engine for one pipeline run.
    pub fn new(config: ChaosConfig) -> Self {
        ChaosEngine {
            rng: ChaosRng::new(config.seed),
            config,
            victim: None,
            injection: None,
        }
    }

    /// The configured injection point.
    pub fn point(&self) -> ChaosPoint {
        self.config.point
    }

    /// The pinned victim site, once [`Self::pin_victim`] has run.
    pub fn victim(&self) -> Option<BranchId> {
        self.victim
    }

    /// The fault injected so far, if any.
    pub fn injection(&self) -> Option<&Injection> {
        self.injection.as_ref()
    }

    /// Consumes the engine, yielding the recorded injection.
    pub fn into_injection(self) -> Option<Injection> {
        self.injection
    }

    /// Pins the victim site on first call (seed-chosen from `candidates`,
    /// which must be in a deterministic order); later calls return the
    /// pinned site unchanged.
    pub fn pin_victim(&mut self, candidates: &[BranchId]) -> Option<BranchId> {
        if self.victim.is_none() && !candidates.is_empty() {
            self.victim = Some(candidates[self.rng.below(candidates.len())]);
        }
        self.victim
    }

    fn record(&mut self, victim: BranchId, description: String) {
        self.injection = Some(Injection {
            point: self.config.point,
            victim,
            description,
        });
    }

    /// [`ChaosPoint::TruncateTrace`]: serializes `trace`, cuts the byte
    /// stream mid-event, and returns the decode error the cut produces.
    /// Returns `None` when this point is not active or already fired.
    pub fn corrupt_trace(&mut self, trace: &Trace) -> Option<TraceError> {
        // ForgeTraceEvent and ForgeStaticProfile reach here only as
        // their documented fallback, after the forge found no candidate
        // to contradict. InjectDrift and CorruptPatch land here whenever
        // the run is not adaptive (no re-specialization layer to attack).
        if !matches!(
            self.config.point,
            ChaosPoint::TruncateTrace
                | ChaosPoint::ForgeTraceEvent
                | ChaosPoint::ForgeStaticProfile
                | ChaosPoint::InjectDrift
                | ChaosPoint::CorruptPatch
        ) || self.injection.is_some()
            || trace.is_empty()
        {
            return None;
        }
        let victim = self.victim?;
        let bytes = trace.to_bytes();
        // Cut past the 5-byte header so the failure is a mid-stream
        // truncation, not a missing magic; rotate deterministically until
        // a cut actually breaks decoding (any proper prefix should).
        let lo = 6.min(bytes.len() - 1);
        let span = bytes.len() - lo;
        let start = self.rng.below(span);
        for k in 0..span {
            let cut = lo + (start + k) % span;
            if let Err(e) = Trace::from_bytes(&bytes[..cut]) {
                self.record(
                    victim,
                    format!(
                        "truncated serialized trace at byte {cut}/{}: decode fails with {e:?}",
                        bytes.len()
                    ),
                );
                return Some(e);
            }
        }
        None
    }

    /// [`ChaosPoint::ForgeTraceEvent`]: flips one event of `trace` at a
    /// site the classifier proved monostatic (`proved` is the
    /// `(site, direction)` list from `classify_module`), pinning that
    /// site as the victim. The flipped event contradicts the proof by
    /// construction, so the profile-vs-proof gate (`BR013`) *must* fire —
    /// the injection is effective without a separate verification pass.
    ///
    /// Returns the forged trace (the input is never mutated), or `None`
    /// when the point is inactive, already fired, or no proved site has
    /// any event — in which case the pipeline falls back to
    /// [`Self::corrupt_trace`].
    pub fn forge_trace(&mut self, trace: &Trace, proved: &[(BranchId, bool)]) -> Option<Trace> {
        if self.config.point != ChaosPoint::ForgeTraceEvent || self.injection.is_some() {
            return None;
        }
        // Events that currently agree with a proof: flipping one creates
        // an impossible direction.
        let cands: Vec<usize> = trace
            .iter()
            .enumerate()
            .filter(|(_, ev)| proved.iter().any(|&(s, d)| s == ev.site && d == ev.taken))
            .map(|(i, _)| i)
            .collect();
        if cands.is_empty() {
            return None;
        }
        let at = cands[self.rng.below(cands.len())];
        let mut forged = Trace::with_capacity(trace.len());
        let mut victim = None;
        for (i, mut ev) in trace.iter().enumerate() {
            if i == at {
                ev.taken = !ev.taken;
                victim = Some(ev.site);
            }
            forged.push(ev);
        }
        let victim = victim?;
        self.victim = Some(victim);
        self.record(
            victim,
            format!(
                "flipped trace event {at}/{} at proved-monostatic site {victim}",
                trace.len()
            ),
        );
        Some(forged)
    }

    /// [`ChaosPoint::ForgeStaticProfile`]: overwrites the exact bias
    /// estimate of one *executed* site in `profile` with a rational the
    /// measured counts cannot satisfy, pinning that site as the victim.
    /// The forged rational is chosen so the contradiction holds for any
    /// event count (`taken > 0` vs `0/1`, `taken == 0` vs `1/1`), so the
    /// estimate drift gate (`BR019`) *must* fire — the injection is
    /// effective without a separate verification pass. Nothing else is
    /// touched: the trace, module, witness and machine tables all stay
    /// honest, so `BR001`–`BR018` stay blind.
    ///
    /// Returns `false` when the point is inactive, already fired, or no
    /// site has both an exact estimate and trace events — in which case
    /// the pipeline falls back to [`Self::corrupt_trace`].
    pub fn forge_static_profile(
        &mut self,
        profile: &mut brepl_analysis::StaticProfile,
        stats: &brepl_trace::TraceStats,
    ) -> bool {
        use brepl_analysis::BiasEstimate;
        if self.config.point != ChaosPoint::ForgeStaticProfile || self.injection.is_some() {
            return false;
        }
        let cands: Vec<usize> = profile
            .sites
            .iter()
            .enumerate()
            .filter(|(_, s)| s.bias.is_exact() && stats.site(s.site).total() > 0)
            .map(|(i, _)| i)
            .collect();
        if cands.is_empty() {
            return false;
        }
        let at = cands[self.rng.below(cands.len())];
        let entry = &mut profile.sites[at];
        let old = entry.bias;
        let taken = stats.site(entry.site).taken;
        entry.bias = if taken > 0 {
            BiasEstimate::Exact { num: 0, den: 1 }
        } else {
            BiasEstimate::Exact { num: 1, den: 1 }
        };
        let victim = entry.site;
        self.victim = Some(victim);
        self.record(
            victim,
            format!(
                "overwrote site {victim}'s exact estimate {old:?} with {:?} against {taken} measured takens",
                profile.sites[at].bias
            ),
        );
        true
    }

    /// [`ChaosPoint::InjectDrift`]: forges an observed segment so the
    /// victim site's outcomes flip from one quarter into its event stream
    /// — early enough that the whole-segment majority flips too, so the
    /// detector both fires *and* proposes a patch. `patchable` lists the
    /// original sites the re-specialization layer may patch
    /// (deterministic order); `seg` is already folded per original site,
    /// the only order the flip reads. The forged drift provokes a
    /// spurious patch the next *honest* segment must fail to verify,
    /// forcing a rollback and `BR023` — module, witness, tables and
    /// planning trace all stay honest, so `BR001`–`BR022` stay blind.
    ///
    /// Returns the forged per-site streams, to stand in for
    /// [`Segment::sites`] (the input is never mutated), or `None` when the
    /// point is inactive, already fired, or no patchable site has at
    /// least two events in the segment — in which case the adaptive
    /// driver leaves the segment honest.
    pub fn inject_drift(
        &mut self,
        seg: Segment<'_>,
        patchable: &[BranchId],
    ) -> Option<Vec<SiteStream>> {
        if self.config.point != ChaosPoint::InjectDrift || self.injection.is_some() {
            return None;
        }
        let events = |site: BranchId| seg.sites.get(site.index()).map_or(0, |s| s.taken.len());
        // A site needs events on both sides of the boundary for the flip
        // to read as a mid-segment distribution shift.
        let cands: Vec<BranchId> = patchable
            .iter()
            .copied()
            .filter(|&s| events(s) >= 2)
            .collect();
        let victim = self.pin_victim(&cands)?;
        let total = events(victim);
        let mut forged = seg.sites.to_vec();
        let stream = &mut forged[victim.index()].taken;
        *stream = stream
            .iter()
            .enumerate()
            .map(|(nth, taken)| taken ^ (nth >= total / 4))
            .collect();
        let flipped = total - total / 4;
        self.record(
            victim,
            format!(
                "flipped {flipped}/{total} observed outcomes of site {victim} from one quarter \
                 into the segment onward (forged input-distribution shift)"
            ),
        );
        Some(forged)
    }

    /// [`ChaosPoint::CorruptPatch`]: flips the pinned direction of the
    /// victim site's plain (non-machine-pinned) replicas in `program`,
    /// to be called *after* the BR001–BR012 re-proof accepted a patch on
    /// `site` — the gate ran on honest bits, the shipped bits lie. Only
    /// the respec verification window can catch this: measured
    /// misprediction fails to improve, the transaction rolls back to the
    /// byte-identical pre-patch snapshot, and `BR023` fires.
    ///
    /// Returns `false` when the point is inactive, already fired, or the
    /// site has no plain-pinned replica (a re-inflated machine site only
    /// carries witness-checked machine pins, which this point refuses to
    /// touch — flipping one would wake `BR006`).
    pub fn corrupt_patch(&mut self, program: &mut ReplicatedProgram, site: BranchId) -> bool {
        if self.config.point != ChaosPoint::CorruptPatch || self.injection.is_some() {
            return false;
        }
        let mut plain: Vec<(BranchId, bool)> = Vec::new();
        for (fid, f) in program.module.iter_functions() {
            let fmap = &program.replica_map.functions[fid.index()];
            for (bid, block) in f.iter_blocks() {
                if let Some(ns) = block.term.branch_site() {
                    if fmap.machine_predictions[bid.index()].is_none()
                        && program.provenance.get(ns.index()) == Some(&site)
                    {
                        plain.push((ns, program.predictions.get(ns)));
                    }
                }
            }
        }
        if plain.is_empty() {
            return false;
        }
        for &(ns, dir) in &plain {
            program.predictions.set(ns, !dir);
        }
        self.victim = Some(site);
        self.record(
            site,
            format!(
                "flipped the committed patch's pinned direction on {} plain replica(s) of site \
                 {site} after the re-proof accepted it",
                plain.len()
            ),
        );
        true
    }

    /// Program-level injections ([`ChaosPoint::FlipPinnedPrediction`],
    /// [`ChaosPoint::RetargetReplicaEdge`],
    /// [`ChaosPoint::DropWitnessChain`]): mutates `program` in place and
    /// returns whether a verified-effective fault was injected.
    pub fn corrupt_program(&mut self, original: &Module, program: &mut ReplicatedProgram) -> bool {
        if self.injection.is_some() {
            return false;
        }
        let Some(victim) = self.victim else {
            return false;
        };
        match self.config.point {
            ChaosPoint::FlipPinnedPrediction => self.flip_pinned(victim, program),
            ChaosPoint::RetargetReplicaEdge => self.retarget_edge(victim, original, program),
            ChaosPoint::DropWitnessChain => self.drop_chain(victim, original, program),
            _ => false,
        }
    }

    fn flip_pinned(&mut self, victim: BranchId, program: &mut ReplicatedProgram) -> bool {
        // Replica copies of the victim's branch that carry a machine pin:
        // flipping the shipped prediction of one contradicts the witness
        // (BR006) unconditionally.
        let mut pinned: Vec<(BranchId, bool)> = Vec::new();
        for (fid, f) in program.module.iter_functions() {
            let fmap = &program.replica_map.functions[fid.index()];
            for (bid, block) in f.iter_blocks() {
                if let (Some(dir), Some(ns)) = (
                    fmap.machine_predictions[bid.index()],
                    block.term.branch_site(),
                ) {
                    if program.provenance.get(ns.index()) == Some(&victim) {
                        pinned.push((ns, dir));
                    }
                }
            }
        }
        if pinned.is_empty() {
            return false;
        }
        let (ns, dir) = pinned[self.rng.below(pinned.len())];
        program.predictions.set(ns, !dir);
        self.record(
            victim,
            format!(
                "flipped shipped prediction of replica site {ns} (victim {victim}) from {dir} to {}",
                !dir
            ),
        );
        true
    }

    fn retarget_edge(
        &mut self,
        victim: BranchId,
        original: &Module,
        program: &mut ReplicatedProgram,
    ) -> bool {
        // Replica copies of the victim's branch; swapping a copy's edge
        // targets breaks the edge projection (BR004) — verified below.
        let mut cands: Vec<(FuncId, BlockId)> = Vec::new();
        for (fid, f) in program.module.iter_functions() {
            for (bid, block) in f.iter_blocks() {
                if let Some(ns) = block.term.branch_site() {
                    if program.provenance.get(ns.index()) == Some(&victim) {
                        cands.push((fid, bid));
                    }
                }
            }
        }
        if cands.is_empty() {
            return false;
        }
        let start = self.rng.below(cands.len());
        for k in 0..cands.len() {
            let (fid, bid) = cands[(start + k) % cands.len()];
            swap_branch_targets(&mut program.module, fid, bid);
            let diags = validate_replication(
                original,
                &program.module,
                &program.replica_map,
                &program.predictions,
            );
            if has_error_at(&diags, victim) {
                self.record(
                    victim,
                    format!(
                        "swapped branch targets of replica block {fid}:{bid} (victim {victim})"
                    ),
                );
                return true;
            }
            swap_branch_targets(&mut program.module, fid, bid); // revert: benign
        }
        false
    }

    fn drop_chain(
        &mut self,
        victim: BranchId,
        original: &Module,
        program: &mut ReplicatedProgram,
    ) -> bool {
        // Replica blocks whose witness chain ends at the victim's branch
        // block: corrupting the chain breaks the simulation relation the
        // validator re-checks (BR004/BR005/BR008) — verified below.
        let mut cands: Vec<(FuncId, BlockId)> = Vec::new();
        for (fid, f) in program.module.iter_functions() {
            let ofunc = original.function(fid);
            let fmap = &program.replica_map.functions[fid.index()];
            for (bid, _) in f.iter_blocks() {
                let site = fmap.origins[bid.index()]
                    .last()
                    .and_then(|&o| ofunc.block(o).term.branch_site());
                if site == Some(victim) {
                    cands.push((fid, bid));
                }
            }
        }
        if cands.is_empty() {
            return false;
        }
        let start = self.rng.below(cands.len());
        for k in 0..cands.len() {
            let (fid, bid) = cands[(start + k) % cands.len()];
            for kind in ["duplicate-head", "truncate-to-head", "clear"] {
                let chain = &mut program.replica_map.functions[fid.index()].origins[bid.index()];
                let saved = chain.clone();
                match kind {
                    "duplicate-head" => chain.insert(0, saved[0]),
                    "truncate-to-head" if saved.len() > 1 => chain.truncate(1),
                    "truncate-to-head" => continue,
                    _ => chain.clear(),
                }
                let diags = validate_replication(
                    original,
                    &program.module,
                    &program.replica_map,
                    &program.predictions,
                );
                // A cleared chain is a shape error (BR008) the validator
                // cannot attribute to a site; any error counts for it.
                let effective = if kind == "clear" {
                    has_any_error(&diags)
                } else {
                    has_error_at(&diags, victim)
                };
                if effective {
                    self.record(
                        victim,
                        format!(
                            "{kind} on witness chain of replica block {fid}:{bid} (victim {victim})"
                        ),
                    );
                    return true;
                }
                program.replica_map.functions[fid.index()].origins[bid.index()] = saved;
            }
        }
        false
    }

    /// [`ChaosPoint::CorruptMachineTable`]: mutates the victim's
    /// transition table in `spec` (or fabricates one if the spec does not
    /// cover the victim), verified effective against the history checker.
    pub fn corrupt_spec(&mut self, program: &ReplicatedProgram, spec: &mut HistorySpec) -> bool {
        if self.config.point != ChaosPoint::CorruptMachineTable || self.injection.is_some() {
            return false;
        }
        let Some(victim) = self.victim else {
            return false;
        };
        let verify = |spec: &HistorySpec| {
            let diags = check_history(
                &program.module,
                &program.provenance,
                spec,
                &program.predictions,
            );
            has_error_at(&diags, victim)
        };
        if let Some(table) = spec.machines.get(&victim).cloned() {
            let n = table.states.len();
            let start = self.rng.below(n.max(1));
            for k in 0..n {
                let state = (start + k) % n;
                for kind in ["flip-predict", "swap-successors"] {
                    let mut mutated = table.clone();
                    match kind {
                        "flip-predict" => {
                            mutated.states[state].predict = !mutated.states[state].predict;
                        }
                        _ => {
                            let s = &mut mutated.states[state];
                            std::mem::swap(&mut s.on_taken, &mut s.on_not_taken);
                        }
                    }
                    if mutated == table {
                        continue;
                    }
                    spec.machines.insert(victim, mutated);
                    if verify(spec) {
                        self.record(
                            victim,
                            format!("{kind} on state {state} of site {victim}'s machine table"),
                        );
                        return true;
                    }
                    spec.machines.insert(victim, table.clone());
                }
            }
            false
        } else {
            // The victim's machine is not in the spec (correlated-path
            // machines have no loop table): fabricate an alternating
            // 2-state table the code cannot possibly implement.
            let bogus = brepl_analysis::MachineTable {
                states: vec![
                    TableState {
                        predict: true,
                        on_taken: 1,
                        on_not_taken: 0,
                    },
                    TableState {
                        predict: false,
                        on_taken: 0,
                        on_not_taken: 1,
                    },
                ],
                initial: 0,
            };
            spec.machines.insert(victim, bogus);
            if verify(spec) {
                self.record(
                    victim,
                    format!("fabricated a bogus 2-state table for uncovered site {victim}"),
                );
                true
            } else {
                spec.machines.remove(&victim);
                false
            }
        }
    }
}

fn swap_branch_targets(module: &mut Module, fid: FuncId, bid: BlockId) {
    if let Term::Br { then_, else_, .. } = &mut module.function_mut(fid).blocks[bid.index()].term {
        std::mem::swap(then_, else_);
    }
}

fn has_error_at(diags: &[AnalysisDiag], victim: BranchId) -> bool {
    diags
        .iter()
        .any(|d| d.severity() == Severity::Error && d.site == Some(victim))
}

fn has_any_error(diags: &[AnalysisDiag]) -> bool {
    diags.iter().any(|d| d.severity() == Severity::Error)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_names_round_trip() {
        for p in ChaosPoint::ALL {
            assert_eq!(ChaosPoint::parse(p.name()), Some(p));
        }
        assert_eq!(ChaosPoint::parse("no-such-point"), None);
    }

    #[test]
    fn rng_is_deterministic_and_nonzero_seeded() {
        let a: Vec<u64> = {
            let mut r = ChaosRng::new(0);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = ChaosRng::new(0);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        assert!(a.iter().any(|&x| x != 0));
    }

    #[test]
    fn victim_is_pinned_once() {
        let mut e = ChaosEngine::new(ChaosConfig {
            seed: 7,
            point: ChaosPoint::FlipPinnedPrediction,
        });
        let cands: Vec<BranchId> = (0..5).map(BranchId).collect();
        let first = e.pin_victim(&cands).unwrap();
        // Later calls (even with different candidates) keep the pin.
        assert_eq!(e.pin_victim(&cands[..1]), Some(first));
        assert_eq!(e.victim(), Some(first));
    }

    #[test]
    fn inject_drift_flips_the_victim_from_a_quarter_onward() {
        use brepl_trace::{EventSink, SegmentFold};
        // Run sites 0 and 2 are replicas of original 0, sites 1 and 4 of
        // original 1; original 3 (run site 5) executes once, too few to
        // read as a shift.
        let provenance: Vec<BranchId> = [0u32, 1, 0, 2, 1, 3].map(BranchId).to_vec();
        let mut fold = SegmentFold::new(&provenance, 1);
        for i in 0..301u32 {
            let site = [0u32, 1, 2, 4, 0, 3, 2, 1][(i % 8) as usize];
            fold.record(BranchId(site), (i * 7 + i / 5) % 3 == 0);
        }
        fold.record(BranchId(5), true);
        let seg = fold.segment(0);
        let patchable: Vec<BranchId> = (0..4).map(BranchId).collect();
        // Victims and counts read from the trace-based forge this one
        // replaced, on the same 302 events.
        for (seed, victim, flipped, total, taken_after) in [
            (0, 0, 114, 151, 144),
            (1, 1, 85, 113, 141),
            (3, 2, 28, 37, 126),
        ] {
            let mut e = ChaosEngine::new(ChaosConfig {
                seed,
                point: ChaosPoint::InjectDrift,
            });
            let forged = e
                .inject_drift(seg, &patchable)
                .expect("a victim has events");
            let inj = e.injection().expect("the forge is recorded");
            assert_eq!(inj.victim, BranchId(victim), "seed {seed}");
            assert!(
                inj.description
                    .starts_with(&format!("flipped {flipped}/{total} observed outcomes")),
                "seed {seed}: {}",
                inj.description
            );
            let taken: u64 = forged.iter().map(|s| s.taken.count_taken()).sum();
            assert_eq!(taken, taken_after, "seed {seed}");
            for (orig, (f, honest)) in forged.iter().zip(seg.sites).enumerate() {
                assert_eq!(f.replica, honest.replica);
                let flips: Vec<bool> = f
                    .taken
                    .iter()
                    .zip(honest.taken.iter())
                    .map(|(a, b)| a != b)
                    .collect();
                let want: Vec<bool> = (0..flips.len())
                    .map(|nth| orig == victim as usize && nth >= total / 4)
                    .collect();
                assert_eq!(flips, want, "seed {seed} site {orig}");
            }
            // One fault per run.
            assert!(e.inject_drift(seg, &patchable).is_none());
        }
    }

    #[test]
    fn truncated_trace_fails_to_decode() {
        use brepl_trace::TraceEvent;
        let mut t = Trace::new();
        for i in 0..100u32 {
            t.push(TraceEvent {
                site: BranchId(i % 7),
                taken: i % 3 == 0,
            });
        }
        let mut e = ChaosEngine::new(ChaosConfig {
            seed: 42,
            point: ChaosPoint::TruncateTrace,
        });
        e.pin_victim(&[BranchId(0)]);
        let err = e.corrupt_trace(&t).expect("a cut must break decoding");
        let _ = err; // typed error, not a panic
        assert!(e.injection().is_some());
        // Second call is a no-op: one fault per run.
        assert!(e.corrupt_trace(&t).is_none());
    }
}
