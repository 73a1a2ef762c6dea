//! Diagnostics: stable codes, severities and locations for everything the
//! lints and the translation validator report.

use std::fmt;

use brepl_ir::{BranchId, Loc, Module};

/// How serious a diagnostic is.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Suspicious but semantics-preserving; reported, never fatal.
    Warning,
    /// The simulation relation is broken — the transformed program must not
    /// ship.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// The stable diagnostic codes. Codes are append-only: meanings never
/// change, retired codes are never reused.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DiagCode {
    /// `BR001` — a replica block is unreachable from its function entry.
    UnreachableReplica,
    /// `BR002` — an instruction writes a register no later execution reads.
    DeadStore,
    /// `BR003` — a register is read on some path before any write.
    UseBeforeDef,
    /// `BR004` — a replica CFG edge does not project to an original edge.
    OrphanReplicaEdge,
    /// `BR005` — a replica block's instruction stream differs from its
    /// origin chain.
    InstStreamMismatch,
    /// `BR006` — a statically predicted direction contradicts the branch-
    /// machine state the replica encodes.
    PredictionMismatch,
    /// `BR007` — a register live into a replica block is not live into its
    /// origin.
    LiveInMismatch,
    /// `BR008` — the replica map itself is malformed (wrong shape, dangling
    /// ids).
    InvalidReplicaMap,
    /// `BR009` — a replica branch is reachable under a machine state whose
    /// predicted direction differs from the branch's pinned static
    /// prediction: the history encoding is violated.
    HistoryPredictionViolation,
    /// `BR010` — a replica branch is reachable under machine states with
    /// *conflicting* predictions: the region is under-replicated (two
    /// machine states share one copy).
    HistoryConflict,
    /// `BR011` — a machine state under which no replica branch is ever
    /// reachable: the state's code copies are wasted size (or were never
    /// emitted).
    UnreachableMachineState,
    /// `BR012` — the product fixpoint could not be computed: the machine
    /// table is malformed, the product exploded past its cap, or a
    /// machine-controlled site has no replica branch at all.
    ProductFixpointFailure,
    /// `BR013` — the profiling trace records an event contradicting a
    /// direction *proved* by abstract interpretation (e.g. a taken event on
    /// a branch proved never-taken): the trace is corrupt or stale.
    ProfileProofConflict,
    /// `BR014` — the profiled taken-rate of a branch falls outside the
    /// statically proved bias band (beyond tolerance): the trace disagrees
    /// with a trip-count proof.
    ProfileBiasConflict,
    /// `BR015` — the profiling trace records events at a branch site the
    /// static analysis proves unreachable: the trace cannot have come from
    /// this module.
    ProfileEventOnUnreachable,
    /// `BR016` — a shipped static prediction pins the direction opposite to
    /// a statically proved one on a profile-trusted site.
    PredictionProofConflict,
    /// `BR017` — the classification fixpoint did not converge within
    /// budget; verdicts for the affected function are withheld (fail
    /// closed).
    ClassifyFixpointFailure,
    /// `BR018` — a branch condition is a compile-time constant: the branch
    /// is decidable without replication and is likely vestigial.
    ConstantConditionBranch,
    /// `BR019` — the measured taken-count of a branch contradicts the
    /// static profile's *exact* bias estimate (a proof-backed rational):
    /// either the trace is corrupt or the stored estimate was tampered
    /// with. Heuristic estimates are never checked this way — their drift
    /// is reported as data, not as a diagnostic.
    EstimateDriftConflict,
    /// `BR020` — the static profile assigns positive expected frequency to
    /// a branch site the direction analysis proves unreachable.
    EstimateUnreachableMass,
    /// `BR021` — a block of the static profile violates flow conservation
    /// (in-mass differs from its block frequency beyond tolerance): the
    /// profile did not come from an honest propagation.
    EstimateConservationViolation,
    /// `BR022` — the frequency-propagation fixpoint blew its metered
    /// budget or hit irreducible control flow; estimates for the affected
    /// function are withheld (fail closed).
    EstimateFixpointFailure,
    /// `BR023` — a runtime re-specialization patch was rejected: it failed
    /// the BR001–BR012 re-proof before commit, contradicted a statically
    /// proved direction, or was rolled back after failing to improve
    /// measured misprediction within its verification window.
    PatchRejected,
    /// `BR024` — a site's patches keep reversing or failing verification
    /// (the input distribution is oscillating faster than the adaptation
    /// window); the site is quarantined from further re-patching.
    FlappingSite,
}

impl DiagCode {
    /// The stable code string (`BR001`, ...).
    pub fn as_str(self) -> &'static str {
        match self {
            DiagCode::UnreachableReplica => "BR001",
            DiagCode::DeadStore => "BR002",
            DiagCode::UseBeforeDef => "BR003",
            DiagCode::OrphanReplicaEdge => "BR004",
            DiagCode::InstStreamMismatch => "BR005",
            DiagCode::PredictionMismatch => "BR006",
            DiagCode::LiveInMismatch => "BR007",
            DiagCode::InvalidReplicaMap => "BR008",
            DiagCode::HistoryPredictionViolation => "BR009",
            DiagCode::HistoryConflict => "BR010",
            DiagCode::UnreachableMachineState => "BR011",
            DiagCode::ProductFixpointFailure => "BR012",
            DiagCode::ProfileProofConflict => "BR013",
            DiagCode::ProfileBiasConflict => "BR014",
            DiagCode::ProfileEventOnUnreachable => "BR015",
            DiagCode::PredictionProofConflict => "BR016",
            DiagCode::ClassifyFixpointFailure => "BR017",
            DiagCode::ConstantConditionBranch => "BR018",
            DiagCode::EstimateDriftConflict => "BR019",
            DiagCode::EstimateUnreachableMass => "BR020",
            DiagCode::EstimateConservationViolation => "BR021",
            DiagCode::EstimateFixpointFailure => "BR022",
            DiagCode::PatchRejected => "BR023",
            DiagCode::FlappingSite => "BR024",
        }
    }

    /// A short hyphenated name, as used in documentation.
    pub fn title(self) -> &'static str {
        match self {
            DiagCode::UnreachableReplica => "unreachable-replica",
            DiagCode::DeadStore => "dead-store",
            DiagCode::UseBeforeDef => "use-before-def",
            DiagCode::OrphanReplicaEdge => "orphan-replica-edge",
            DiagCode::InstStreamMismatch => "inst-stream-mismatch",
            DiagCode::PredictionMismatch => "prediction-mismatch",
            DiagCode::LiveInMismatch => "live-in-mismatch",
            DiagCode::InvalidReplicaMap => "invalid-replica-map",
            DiagCode::HistoryPredictionViolation => "history-prediction-violation",
            DiagCode::HistoryConflict => "history-conflict",
            DiagCode::UnreachableMachineState => "unreachable-machine-state",
            DiagCode::ProductFixpointFailure => "product-fixpoint-failure",
            DiagCode::ProfileProofConflict => "profile-proof-conflict",
            DiagCode::ProfileBiasConflict => "profile-bias-conflict",
            DiagCode::ProfileEventOnUnreachable => "profile-event-on-unreachable",
            DiagCode::PredictionProofConflict => "prediction-proof-conflict",
            DiagCode::ClassifyFixpointFailure => "classify-fixpoint-failure",
            DiagCode::ConstantConditionBranch => "constant-condition-branch",
            DiagCode::EstimateDriftConflict => "estimate-drift-conflict",
            DiagCode::EstimateUnreachableMass => "estimate-unreachable-mass",
            DiagCode::EstimateConservationViolation => "estimate-conservation-violation",
            DiagCode::EstimateFixpointFailure => "estimate-fixpoint-failure",
            DiagCode::PatchRejected => "patch-rejected",
            DiagCode::FlappingSite => "flapping-site",
        }
    }

    /// Every code, in `BR001..` order.
    pub const ALL: [DiagCode; 24] = [
        DiagCode::UnreachableReplica,
        DiagCode::DeadStore,
        DiagCode::UseBeforeDef,
        DiagCode::OrphanReplicaEdge,
        DiagCode::InstStreamMismatch,
        DiagCode::PredictionMismatch,
        DiagCode::LiveInMismatch,
        DiagCode::InvalidReplicaMap,
        DiagCode::HistoryPredictionViolation,
        DiagCode::HistoryConflict,
        DiagCode::UnreachableMachineState,
        DiagCode::ProductFixpointFailure,
        DiagCode::ProfileProofConflict,
        DiagCode::ProfileBiasConflict,
        DiagCode::ProfileEventOnUnreachable,
        DiagCode::PredictionProofConflict,
        DiagCode::ClassifyFixpointFailure,
        DiagCode::ConstantConditionBranch,
        DiagCode::EstimateDriftConflict,
        DiagCode::EstimateUnreachableMass,
        DiagCode::EstimateConservationViolation,
        DiagCode::EstimateFixpointFailure,
        DiagCode::PatchRejected,
        DiagCode::FlappingSite,
    ];

    /// The severity of every diagnostic carrying this code; no setting
    /// changes it. The warning codes describe suspicious-but-sound
    /// situations (the simulator zero-initializes registers,
    /// unreachable/dead code cannot execute, an unreached machine state
    /// only wastes size); the rest break the simulation relation or the
    /// history encoding.
    pub fn severity(self) -> Severity {
        match self {
            DiagCode::UnreachableReplica
            | DiagCode::DeadStore
            | DiagCode::UseBeforeDef
            | DiagCode::UnreachableMachineState
            | DiagCode::ConstantConditionBranch
            | DiagCode::FlappingSite => Severity::Warning,
            DiagCode::OrphanReplicaEdge
            | DiagCode::InstStreamMismatch
            | DiagCode::PredictionMismatch
            | DiagCode::LiveInMismatch
            | DiagCode::InvalidReplicaMap
            | DiagCode::HistoryPredictionViolation
            | DiagCode::HistoryConflict
            | DiagCode::ProductFixpointFailure
            | DiagCode::ProfileProofConflict
            | DiagCode::ProfileBiasConflict
            | DiagCode::ProfileEventOnUnreachable
            | DiagCode::PredictionProofConflict
            | DiagCode::ClassifyFixpointFailure
            | DiagCode::EstimateDriftConflict
            | DiagCode::EstimateUnreachableMass
            | DiagCode::EstimateConservationViolation
            | DiagCode::EstimateFixpointFailure
            | DiagCode::PatchRejected => Severity::Error,
        }
    }
}

impl fmt::Display for DiagCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({})", self.as_str(), self.title())
    }
}

/// One finding from a lint or the translation validator.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AnalysisDiag {
    /// The stable code.
    pub code: DiagCode,
    /// Where in the (replicated) module the finding points.
    pub loc: Loc,
    /// A human-readable explanation with the specifics.
    pub message: String,
    /// The *original* branch site the finding is attributable to, when the
    /// emitting analysis knows it (the history checker always does). Used
    /// by the pipeline's per-site quarantine to drop exactly the offending
    /// replication site instead of aborting the whole plan.
    pub site: Option<BranchId>,
}

impl AnalysisDiag {
    /// Builds a diagnostic (not attributed to any site; see
    /// [`AnalysisDiag::with_site`]).
    pub fn new(code: DiagCode, loc: Loc, message: impl Into<String>) -> Self {
        AnalysisDiag {
            code,
            loc,
            message: message.into(),
            site: None,
        }
    }

    /// Attributes the diagnostic to an original branch site (builder
    /// style).
    #[must_use]
    pub fn with_site(mut self, site: BranchId) -> Self {
        self.site = Some(site);
        self
    }

    /// The severity, derived from the code.
    pub fn severity(&self) -> Severity {
        self.code.severity()
    }

    /// Renders the diagnostic with the function *name* resolved against
    /// `module` (the module the location points into).
    pub fn render(&self, module: &Module) -> String {
        format!(
            "{}[{}] {}: {}",
            self.severity(),
            self.code.as_str(),
            module.describe_loc(&self.loc),
            self.message
        )
    }
}

impl fmt::Display for AnalysisDiag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}] {}: {}",
            self.severity(),
            self.code.as_str(),
            self.loc,
            self.message
        )
    }
}

/// The split of gate output into errors and warnings, by each code's one
/// severity ([`DiagCode::severity`]). It has no settings: every gate
/// verdict, the pipeline's and the re-specializer's patch re-proof alike,
/// follows the same split.
#[derive(Clone, Copy, Debug, Default)]
pub struct LintConfig;

impl LintConfig {
    /// Splits `diags` into `(errors, warnings)`, keeping their order.
    pub fn partition(&self, diags: Vec<AnalysisDiag>) -> (Vec<AnalysisDiag>, Vec<AnalysisDiag>) {
        diags
            .into_iter()
            .partition(|d| d.severity() == Severity::Error)
    }
}

/// True when any diagnostic has error severity.
pub fn has_errors(diags: &[AnalysisDiag]) -> bool {
    diags.iter().any(|d| d.severity() == Severity::Error)
}

#[cfg(test)]
mod tests {
    use super::*;
    use brepl_ir::{BlockId, FuncId};

    #[test]
    fn codes_are_stable() {
        assert_eq!(DiagCode::UnreachableReplica.as_str(), "BR001");
        assert_eq!(DiagCode::DeadStore.as_str(), "BR002");
        assert_eq!(DiagCode::UseBeforeDef.as_str(), "BR003");
        assert_eq!(DiagCode::OrphanReplicaEdge.as_str(), "BR004");
        assert_eq!(DiagCode::InstStreamMismatch.as_str(), "BR005");
        assert_eq!(DiagCode::PredictionMismatch.as_str(), "BR006");
        assert_eq!(DiagCode::LiveInMismatch.as_str(), "BR007");
        assert_eq!(DiagCode::InvalidReplicaMap.as_str(), "BR008");
        assert_eq!(DiagCode::HistoryPredictionViolation.as_str(), "BR009");
        assert_eq!(DiagCode::HistoryConflict.as_str(), "BR010");
        assert_eq!(DiagCode::UnreachableMachineState.as_str(), "BR011");
        assert_eq!(DiagCode::ProductFixpointFailure.as_str(), "BR012");
        assert_eq!(DiagCode::ProfileProofConflict.as_str(), "BR013");
        assert_eq!(DiagCode::ProfileBiasConflict.as_str(), "BR014");
        assert_eq!(DiagCode::ProfileEventOnUnreachable.as_str(), "BR015");
        assert_eq!(DiagCode::PredictionProofConflict.as_str(), "BR016");
        assert_eq!(DiagCode::ClassifyFixpointFailure.as_str(), "BR017");
        assert_eq!(DiagCode::ConstantConditionBranch.as_str(), "BR018");
        assert_eq!(DiagCode::EstimateDriftConflict.as_str(), "BR019");
        assert_eq!(DiagCode::EstimateUnreachableMass.as_str(), "BR020");
        assert_eq!(DiagCode::EstimateConservationViolation.as_str(), "BR021");
        assert_eq!(DiagCode::EstimateFixpointFailure.as_str(), "BR022");
        assert_eq!(DiagCode::PatchRejected.as_str(), "BR023");
        assert_eq!(DiagCode::FlappingSite.as_str(), "BR024");
        // The ALL order is the BR-number order.
        for (i, c) in DiagCode::ALL.iter().enumerate() {
            assert_eq!(c.as_str(), format!("BR{:03}", i + 1));
        }
    }

    #[test]
    fn severity_split() {
        assert_eq!(DiagCode::UnreachableReplica.severity(), Severity::Warning);
        assert_eq!(DiagCode::DeadStore.severity(), Severity::Warning);
        assert_eq!(DiagCode::UseBeforeDef.severity(), Severity::Warning);
        assert_eq!(DiagCode::OrphanReplicaEdge.severity(), Severity::Error);
        assert_eq!(DiagCode::InstStreamMismatch.severity(), Severity::Error);
        assert_eq!(DiagCode::PredictionMismatch.severity(), Severity::Error);
        assert_eq!(DiagCode::LiveInMismatch.severity(), Severity::Error);
        assert_eq!(DiagCode::InvalidReplicaMap.severity(), Severity::Error);
        assert_eq!(
            DiagCode::HistoryPredictionViolation.severity(),
            Severity::Error
        );
        assert_eq!(DiagCode::HistoryConflict.severity(), Severity::Error);
        assert_eq!(
            DiagCode::UnreachableMachineState.severity(),
            Severity::Warning
        );
        assert_eq!(DiagCode::ProductFixpointFailure.severity(), Severity::Error);
        // The profile-vs-proof gate (BR013-BR017) is a corruption detector:
        // every conflict code defaults to error. Only the vestigial-branch
        // lint is advisory.
        assert_eq!(DiagCode::ProfileProofConflict.severity(), Severity::Error);
        assert_eq!(DiagCode::ProfileBiasConflict.severity(), Severity::Error);
        assert_eq!(
            DiagCode::ProfileEventOnUnreachable.severity(),
            Severity::Error
        );
        assert_eq!(
            DiagCode::PredictionProofConflict.severity(),
            Severity::Error
        );
        assert_eq!(
            DiagCode::ClassifyFixpointFailure.severity(),
            Severity::Error
        );
        assert_eq!(
            DiagCode::ConstantConditionBranch.severity(),
            Severity::Warning
        );
        // The estimate drift gate (BR019-BR022) is a corruption detector
        // like the classification gate: every code defaults to error.
        assert_eq!(DiagCode::EstimateDriftConflict.severity(), Severity::Error);
        assert_eq!(
            DiagCode::EstimateUnreachableMass.severity(),
            Severity::Error
        );
        assert_eq!(
            DiagCode::EstimateConservationViolation.severity(),
            Severity::Error
        );
        assert_eq!(
            DiagCode::EstimateFixpointFailure.severity(),
            Severity::Error
        );
        // Re-specialization: a rejected/rolled-back patch is an error (the
        // patch never ships), while a flapping site is advisory — the
        // shipped program is still the last gate-clean one.
        assert_eq!(DiagCode::PatchRejected.severity(), Severity::Error);
        assert_eq!(DiagCode::FlappingSite.severity(), Severity::Warning);
    }

    #[test]
    fn display_and_error_detection() {
        let warn = AnalysisDiag::new(
            DiagCode::DeadStore,
            Loc::inst(FuncId(0), BlockId(1), 2),
            "r3 is never read",
        );
        assert_eq!(
            warn.to_string(),
            "warning[BR002] f0:b1:i2: r3 is never read"
        );
        assert!(!has_errors(std::slice::from_ref(&warn)));
        let err = AnalysisDiag::new(
            DiagCode::OrphanReplicaEdge,
            Loc::term(FuncId(0), BlockId(1)),
            "edge b1 -> b9 has no original counterpart",
        );
        assert!(has_errors(&[warn, err]));
    }
}
