//! Static misprediction bound of a replication.
//!
//! The history fixpoint of [`crate::solve_site_product`] tells us *which*
//! machine states reach each replica; folding the profiled branch
//! frequencies through the same product tells us *how often* each pinned
//! prediction is wrong. [`static_cost`] performs that fold by replaying the
//! profiling trace through the replicated control flow: the trace fixes the
//! outcome of every conditional branch, so the walk deterministically
//! traverses exactly the product path the training run would, charging a
//! miss wherever the pinned prediction at the replica branch disagrees with
//! the recorded outcome.
//!
//! Because the fold is exact over the training trace, the computed bound
//! equals the simulator-measured misprediction count on the same input,
//! site by site — the test suite and the fuzz oracles check that equality,
//! and the `gates` bench binary enforces `bound >= simulated`. Like
//! [`crate::check_history`], the replay never touches the replica-map
//! witness: it needs only the shipped module, branch provenance, the pinned
//! [`StaticPrediction`] and the profiling [`Trace`].

use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;

use brepl_ir::{BlockId, BranchId, FuncId, Inst, Module, Term};
use brepl_predict::StaticPrediction;
use brepl_trace::Trace;

/// Instruction/terminator steps allowed between two branch events before
/// the replay declares the module corrupt (an event-free infinite loop can
/// only arise from a broken transform, never from a trace-faithful one).
const MAX_STEPS_BETWEEN_EVENTS: u64 = 1_000_000;

/// The static misprediction bound for one original branch site.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SiteCost {
    /// The original (pre-replication) branch site.
    pub site: BranchId,
    /// How many times the site executed in the profiling trace.
    pub executions: u64,
    /// Upper bound on mispredictions the pinned predictions incur at this
    /// site over the profiling trace.
    pub bound: u64,
}

/// The static cost of a replication over one profiling trace.
#[derive(Clone, Debug, PartialEq)]
pub struct CostReport {
    /// Per original-site bounds, in site order.
    pub sites: Vec<SiteCost>,
    /// Total branch events replayed.
    pub total_events: u64,
}

impl CostReport {
    /// Total misprediction bound across all sites.
    pub fn total_bound(&self) -> u64 {
        self.sites.iter().map(|s| s.bound).sum()
    }

    /// The bound as a percentage of executed branches.
    pub fn bound_percent(&self) -> f64 {
        if self.total_events == 0 {
            0.0
        } else {
            100.0 * self.total_bound() as f64 / self.total_events as f64
        }
    }
}

/// Why a replay-based cost fold could not complete. Every variant means
/// the replicated module and the profiling trace disagree structurally —
/// itself a validation finding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CostError {
    /// The entry function does not exist in the replicated module.
    UnknownEntry(String),
    /// A `Call` targets a function that does not exist.
    UnknownCallee(String),
    /// The replay reached a conditional branch but the trace had no more
    /// events.
    TraceExhausted {
        /// Original site of the branch the replay was about to resolve.
        at_site: BranchId,
    },
    /// The replay finished but trace events remain — the replicated module
    /// executes fewer branches than the original did.
    TraceLeftover {
        /// Number of unconsumed events.
        remaining: usize,
    },
    /// A replica branch's provenance disagrees with the next trace event.
    SiteMismatch {
        /// Original site the replica claims to descend from.
        expected: BranchId,
        /// Site the trace recorded at this point.
        found: BranchId,
    },
    /// Too many steps without consuming an event: an event-free loop.
    Runaway,
}

impl fmt::Display for CostError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CostError::UnknownEntry(name) => write!(f, "entry function `{name}` not found"),
            CostError::UnknownCallee(name) => write!(f, "call to unknown function `{name}`"),
            CostError::TraceExhausted { at_site } => write!(
                f,
                "trace exhausted: replay reached a branch of site {at_site} with no event left"
            ),
            CostError::TraceLeftover { remaining } => write!(
                f,
                "replay returned from entry with {remaining} trace events unconsumed"
            ),
            CostError::SiteMismatch { expected, found } => write!(
                f,
                "replay diverged: replica of site {expected} met a trace event for site {found}"
            ),
            CostError::Runaway => write!(
                f,
                "replay took {MAX_STEPS_BETWEEN_EVENTS} steps without reaching a branch"
            ),
        }
    }
}

impl Error for CostError {}

/// Folds the profiling `trace` through the replicated control flow,
/// returning per-site misprediction bounds.
///
/// `replicated` must carry dense branch sites (post-renumbering) with
/// `provenance` mapping them back to the original sites the `trace` was
/// recorded against; `predictions` are the pinned per-replica directions.
/// The replay starts at `entry` and follows the trace's branch outcomes,
/// so it needs no operand values: direct calls push a return frame, `Ret`
/// pops it, and every conditional branch consumes the next trace event.
///
/// # Errors
///
/// Returns a [`CostError`] when the trace and the replicated module
/// disagree structurally — which, for a trace recorded from the original
/// module, means the replication changed observable branching behavior.
pub fn static_cost(
    replicated: &Module,
    provenance: &[BranchId],
    predictions: &StaticPrediction,
    trace: &Trace,
    entry: &str,
) -> Result<CostReport, CostError> {
    let entry_fid = replicated
        .function_by_name(entry)
        .ok_or_else(|| CostError::UnknownEntry(entry.to_string()))?;

    let mut counts: BTreeMap<BranchId, (u64, u64)> = BTreeMap::new();
    let mut events = trace.iter();
    let mut consumed = 0u64;

    let mut frames: Vec<(FuncId, BlockId, usize)> = Vec::new();
    let mut fid = entry_fid;
    let mut bid = replicated.function(fid).entry;
    let mut ii = 0usize;
    let mut steps_since_event = 0u64;

    'run: loop {
        steps_since_event += 1;
        if steps_since_event > MAX_STEPS_BETWEEN_EVENTS {
            return Err(CostError::Runaway);
        }
        let block = replicated.function(fid).block(bid);
        if let Some(inst) = block.insts.get(ii) {
            if let Inst::Call { callee, .. } = inst {
                let target = replicated
                    .function_by_name(callee)
                    .ok_or_else(|| CostError::UnknownCallee(callee.clone()))?;
                frames.push((fid, bid, ii + 1));
                fid = target;
                bid = replicated.function(fid).entry;
                ii = 0;
            } else {
                ii += 1;
            }
            continue;
        }
        match block.term {
            Term::Jmp { target } => {
                bid = target;
                ii = 0;
            }
            Term::Br {
                site, then_, else_, ..
            } => {
                let origin = provenance.get(site.index()).copied().unwrap_or(site);
                let Some(ev) = events.next() else {
                    return Err(CostError::TraceExhausted { at_site: origin });
                };
                if ev.site != origin {
                    return Err(CostError::SiteMismatch {
                        expected: origin,
                        found: ev.site,
                    });
                }
                consumed += 1;
                steps_since_event = 0;
                let entry = counts.entry(origin).or_insert((0, 0));
                entry.0 += 1;
                if predictions.get(site) != ev.taken {
                    entry.1 += 1;
                }
                bid = if ev.taken { then_ } else { else_ };
                ii = 0;
            }
            Term::Ret { .. } => match frames.pop() {
                Some((rf, rb, ri)) => {
                    fid = rf;
                    bid = rb;
                    ii = ri;
                }
                None => break 'run,
            },
        }
    }

    let remaining = trace.len() - consumed as usize;
    if remaining != 0 {
        return Err(CostError::TraceLeftover { remaining });
    }

    Ok(CostReport {
        sites: counts
            .into_iter()
            .map(|(site, (executions, bound))| SiteCost {
                site,
                executions,
                bound,
            })
            .collect(),
        total_events: consumed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use brepl_ir::{FunctionBuilder, Operand};
    use brepl_trace::TraceEvent;

    /// `for i in 0..4 { }` with branch site 0: events T,T,T,N.
    fn counted_loop() -> Module {
        let mut b = FunctionBuilder::new("main", 0);
        let i = b.reg();
        b.const_int(i, 0);
        let head = b.new_block();
        let body = b.new_block();
        let exit = b.new_block();
        b.jmp(head);
        b.switch_to(head);
        let c = b.lt(i.into(), Operand::imm(4));
        b.br(c, body, exit);
        b.switch_to(body);
        b.add(i, i.into(), Operand::imm(1));
        b.jmp(head);
        b.switch_to(exit);
        b.ret(None);
        let mut m = Module::new();
        m.push_function(b.finish());
        m.renumber_branches();
        m
    }

    fn loop_trace() -> Trace {
        let mut t = Trace::new();
        for taken in [true, true, true, true, false] {
            t.push(TraceEvent {
                site: BranchId(0),
                taken,
            });
        }
        t
    }

    #[test]
    fn unreplicated_replay_counts_minority() {
        let m = counted_loop();
        let provenance: Vec<BranchId> = vec![BranchId(0)];
        let mut p = StaticPrediction::with_default(true);
        p.set(BranchId(0), true);
        let report = static_cost(&m, &provenance, &p, &loop_trace(), "main").expect("replay ok");
        assert_eq!(report.total_events, 5);
        assert_eq!(report.total_bound(), 1); // only the exit mispredicts
        assert_eq!(report.sites.len(), 1);
        assert_eq!(report.sites[0].executions, 5);
        assert!((report.bound_percent() - 20.0).abs() < 1e-9);
    }

    /// `main` calls `count`, the counted loop of [`counted_loop`]; in both
    /// functions block 0 is a dead `ret` and the entry is block 1.
    fn entries_past_block_zero() -> Module {
        let mut b = FunctionBuilder::new("count", 0);
        b.ret(None);
        let start = b.new_block();
        let head = b.new_block();
        let body = b.new_block();
        let exit = b.new_block();
        b.switch_to(start);
        let i = b.reg();
        b.const_int(i, 0);
        b.jmp(head);
        b.switch_to(head);
        let c = b.lt(i.into(), Operand::imm(4));
        b.br(c, body, exit);
        b.switch_to(body);
        b.add(i, i.into(), Operand::imm(1));
        b.jmp(head);
        b.switch_to(exit);
        b.ret(None);
        let mut count = b.finish();
        count.entry = start;

        let mut b = FunctionBuilder::new("main", 0);
        b.ret(None);
        let start = b.new_block();
        b.switch_to(start);
        b.call(None, "count", Vec::new());
        b.ret(None);
        let mut main = b.finish();
        main.entry = start;

        let mut m = Module::new();
        m.push_function(main);
        m.push_function(count);
        m.renumber_branches();
        m
    }

    #[test]
    fn replay_enters_functions_at_their_entry_block() {
        let m = entries_past_block_zero();
        let p = StaticPrediction::with_default(true);
        let report = static_cost(&m, &[BranchId(0)], &p, &loop_trace(), "main")
            .expect("replay follows the entry blocks");
        assert_eq!(report.total_events, 5);
        assert_eq!(report.total_bound(), 1);
    }

    #[test]
    fn trace_mismatches_are_reported() {
        let m = counted_loop();
        let provenance = vec![BranchId(0)];
        let p = StaticPrediction::with_default(true);

        let short: Trace = loop_trace().iter().take(3).collect();
        assert_eq!(
            static_cost(&m, &provenance, &p, &short, "main"),
            Err(CostError::TraceExhausted {
                at_site: BranchId(0)
            })
        );

        let mut long = loop_trace();
        long.push(TraceEvent {
            site: BranchId(0),
            taken: false,
        });
        assert_eq!(
            static_cost(&m, &provenance, &p, &long, "main"),
            Err(CostError::TraceLeftover { remaining: 1 })
        );

        let mut wrong_site = Trace::new();
        wrong_site.push(TraceEvent {
            site: BranchId(9),
            taken: true,
        });
        assert_eq!(
            static_cost(&m, &provenance, &p, &wrong_site, "main"),
            Err(CostError::SiteMismatch {
                expected: BranchId(0),
                found: BranchId(9),
            })
        );

        assert_eq!(
            static_cost(&m, &provenance, &p, &loop_trace(), "nope"),
            Err(CostError::UnknownEntry("nope".into()))
        );
    }

    #[test]
    fn event_free_loop_is_runaway_not_hang() {
        // main: b0 -> b1 -> b1 (jmp self) — no branches, never returns.
        let mut b = FunctionBuilder::new("main", 0);
        let spin = b.new_block();
        b.jmp(spin);
        b.switch_to(spin);
        b.jmp(spin);
        let mut m = Module::new();
        m.push_function(b.finish());
        let p = StaticPrediction::with_default(true);
        assert_eq!(
            static_cost(&m, &[], &p, &Trace::new(), "main"),
            Err(CostError::Runaway)
        );
    }
}
