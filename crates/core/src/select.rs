//! Per-branch strategy selection (§5 of the paper): "the best available
//! strategy for each branch is chosen" among profile prediction, an
//! intra-loop machine, a loop-exit machine and a correlated machine, all
//! capped at a given number of states.

use std::cell::LazyCell;
use std::collections::{HashMap, HashSet};

use brepl_analysis::{BiasEstimate, Classification, DirectionClass, StaticProfile};
use brepl_cfg::BranchClass;
use brepl_ir::{BlockId, BranchId, FuncId, Module};
use brepl_predict::PatternTable;
use brepl_trace::{PackedStream, SiteCounts, Trace, TraceEvent, TraceStats};

use crate::correlated::PathProfile;
use crate::engine;
use crate::intra_loop::IntraLoopSearch;
use crate::loop_exit::{exit_machine_menu, TABLE_BITS};
use crate::machine::StateMachine;
use crate::memo::{self, LoopSearchOutcome, SizeMenu};
use crate::profile::ProfileFold;
use crate::replicate::{BranchMachine, ReplicationPlan};

/// Selection result for one branch.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StrategyChoice {
    /// The branch.
    pub site: BranchId,
    /// Its loop class.
    pub class: BranchClass,
    /// The winning machine; `None` is plain profile prediction (one
    /// state, no replication).
    pub chosen: Option<BranchMachine>,
    /// Profiled executions.
    pub executions: u64,
    /// Mispredictions under plain profile prediction.
    pub profile_misses: u64,
    /// Mispredictions under the chosen strategy (on the profiling run).
    pub chosen_misses: u64,
}

impl StrategyChoice {
    /// Mispredictions this choice removes relative to profile prediction.
    pub fn benefit(&self) -> u64 {
        self.profile_misses - self.chosen_misses
    }
}

/// The per-branch selection over a whole module.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Selection {
    choices: Vec<StrategyChoice>,
    total_events: u64,
}

impl Selection {
    /// Per-branch choices, in site order.
    pub fn choices(&self) -> &[StrategyChoice] {
        &self.choices
    }

    /// Total trace events covered.
    pub fn total_events(&self) -> u64 {
        self.total_events
    }

    /// Aggregate mispredictions of the selection.
    pub fn total_misses(&self) -> u64 {
        self.choices.iter().map(|c| c.chosen_misses).sum()
    }

    /// Aggregate mispredictions of plain profile prediction.
    pub fn profile_misses(&self) -> u64 {
        self.choices.iter().map(|c| c.profile_misses).sum()
    }

    /// Selection misprediction rate in percent.
    pub fn misprediction_percent(&self) -> f64 {
        if self.total_events == 0 {
            0.0
        } else {
            100.0 * self.total_misses() as f64 / self.total_events as f64
        }
    }

    /// Converts the non-profile choices into a replication plan.
    pub fn to_plan(&self) -> ReplicationPlan {
        self.to_plan_filtered(|_| true)
    }

    /// Like [`Selection::to_plan`], restricted to branches accepted by the
    /// filter — used by size-budgeted pipelines that only replicate the
    /// best benefit-per-size branches.
    pub fn to_plan_filtered(
        &self,
        mut keep: impl FnMut(brepl_ir::BranchId) -> bool,
    ) -> ReplicationPlan {
        let mut plan = ReplicationPlan::new();
        for c in &self.choices {
            if !keep(c.site) {
                continue;
            }
            if let Some(m) = &c.chosen {
                plan.assign(c.site, m.clone());
            }
        }
        plan
    }
}

/// Selects the best strategy for every executed branch of `module` with at
/// most `max_states` states per machine.
///
/// Fans the per-branch search out over [`engine::thread_count`] workers;
/// the result is bit-identical to the serial path (see
/// [`select_strategies_with_threads`]).
///
/// # Panics
///
/// Panics unless `2 <= max_states <= 10`.
pub fn select_strategies(module: &Module, trace: &Trace, max_states: usize) -> Selection {
    select_strategies_with_threads(module, trace, max_states, engine::thread_count())
}

/// [`select_strategies`] with an explicit worker count (`1` = serial).
///
/// Each branch's candidate search is independent: the workers read only
/// shared immutable analysis state, and results are merged back in
/// `BranchId` order, so the `Selection` is **bit-identical** for every
/// thread count. Two memo tiers make repeats cheap (see [`crate::memo`]):
/// the whole selection is cached on `(module fingerprint, trace
/// fingerprint, max_states)` — so a bin re-selecting over inputs it
/// already solved is one hash lookup — and on a whole-selection miss, the
/// trace is folded through a [`ProfileFold`] and each branch's
/// loop-machine search is cached on its class and outcome-stream
/// fingerprint.
///
/// # Panics
///
/// Panics unless `2 <= max_states <= 10`.
pub fn select_strategies_with_threads(
    module: &Module,
    trace: &Trace,
    max_states: usize,
    threads: usize,
) -> Selection {
    assert!(
        (2..=10).contains(&max_states),
        "max_states must be in 2..=10"
    );
    let cached = memo::lookup_or_compute_selection(
        module.fingerprint(),
        trace.fingerprint(),
        max_states,
        || {
            let fold = ProfileFold::of_trace(module, max_states, trace);
            select_uncached(&fold, threads, &HashSet::new())
        },
    );
    (*cached).clone()
}

/// [`select_strategies`] with a classification-driven planner fast-path.
///
/// Sites the static layer proved monostatic whose profile is *unanimous*
/// (`minority_count() == 0`) are assigned plain profile prediction
/// without running the machine search: profile prediction already has
/// zero misses on them, no machine can do strictly better, and
/// the per-site search only switches strategy on a strict improvement — so
/// the skipped choice is **bit-identical** to the searched one. Returns
/// the selection plus the number of sites the fast-path handled.
///
/// With `classification` absent (or no site qualifying) this is exactly
/// [`select_strategies`], including the whole-selection memo: because the
/// output is bit-identical either way, both paths share one memo entry.
///
/// # Panics
///
/// Panics unless `2 <= max_states <= 10`.
pub fn select_strategies_classified(
    module: &Module,
    trace: &Trace,
    max_states: usize,
    classification: Option<&Classification>,
) -> (Selection, usize) {
    assert!(
        (2..=10).contains(&max_states),
        "max_states must be in 2..=10"
    );
    // One fold serves the fast path and the search, and a whole-selection
    // hit without a classification needs none.
    let fold = LazyCell::new(|| ProfileFold::of_trace(module, max_states, trace));
    let skip = classification.map_or_else(HashSet::new, |cls| fast_path_sites(fold.counts(), cls));
    let cached = memo::lookup_or_compute_selection(
        module.fingerprint(),
        trace.fingerprint(),
        max_states,
        || select_uncached(&fold, engine::thread_count(), &skip),
    );
    ((*cached).clone(), skip.len())
}

/// [`select_strategies_classified`] on a profiling run folded as it ran:
/// the module and the state budget are the fold's. Bit-identical to the
/// trace-taking form on the recorded run, without the whole-selection
/// memo, which would need the trace's fingerprint.
pub fn select_strategies_folded(
    fold: &ProfileFold,
    classification: Option<&Classification>,
) -> (Selection, usize) {
    let skip = classification.map_or_else(HashSet::new, |cls| fast_path_sites(fold.counts(), cls));
    let selection = select_uncached(fold, engine::thread_count(), &skip);
    (selection, skip.len())
}

/// Synthetic-trace event budget for estimate-driven planning. Large
/// enough that per-site shares survive rounding, small enough that the
/// zero-profiling path stays cheap.
const SYNTH_EVENT_BUDGET: f64 = 65536.0;

/// Approximates `p` by the small-denominator rational `num/den`
/// (`den <= max_den`) closest to it, preferring the smallest such
/// denominator on ties — heuristic biases become short periodic
/// patterns instead of long irregular streams.
fn approx_rational(p: f64, max_den: u64) -> (u64, u64) {
    let mut best = (1u64, 2u64);
    let mut best_err = f64::INFINITY;
    for den in 1..=max_den {
        let num = (p * den as f64).round().clamp(0.0, den as f64) as u64;
        let err = (p - num as f64 / den as f64).abs();
        if err + 1e-12 < best_err {
            best_err = err;
            best = (num, den);
        }
    }
    best
}

/// Synthesizes the expected profiling trace from a [`StaticProfile`] —
/// the zero-profiling planning input.
///
/// Each estimated site gets a contiguous stream whose length is its
/// share of a fixed event budget (proportional to estimated frequency)
/// rounded to **whole periods** of its bias rational: an exact
/// `num/den` site emits `num` takens then `den - num` not-takens per
/// period — the observable pattern of a counted loop — so the
/// synthetic trace satisfies every promoted proof *exactly* and the
/// BR013/BR014 gates accept it for the same reason they accept an
/// honest measured trace. Heuristic biases are first approximated by
/// the closest rational with denominator at most 8.
///
/// Sites in unconverged functions carry zero estimated frequency and
/// are omitted — fail-closed estimation also fails closed here.
pub fn synthesize_profile_trace(profile: &StaticProfile) -> Trace {
    let mut trace = Trace::new();
    let total: f64 = profile.sites.iter().map(|s| s.freq.max(0.0)).sum();
    if total <= 0.0 {
        return trace;
    }
    for s in &profile.sites {
        if s.freq <= 0.0 {
            continue;
        }
        let share = ((s.freq / total) * SYNTH_EVENT_BUDGET).round() as u64;
        let (num, den) = match s.bias {
            BiasEstimate::Exact { num, den } => (num, den.max(1)),
            BiasEstimate::Heuristic(p) => approx_rational(p, 8),
        };
        let periods = (share / den).max(1);
        for _ in 0..periods {
            for k in 0..den {
                trace.push(TraceEvent {
                    site: s.site,
                    taken: k < num,
                });
            }
        }
    }
    trace
}

/// The fast-path candidates: executed sites proved monostatic whose
/// profile is unanimous. Unanimity (not the proof) is what licenses the
/// skip — `profile_misses == 0` makes the Profile choice unbeatable — so
/// even a proof contradicted by a (forged) trace never changes the
/// selection, only the BR013 gate's verdict.
fn fast_path_sites(stats: &TraceStats, cls: &Classification) -> HashSet<BranchId> {
    let mut skip = HashSet::new();
    for sc in &cls.sites {
        if !matches!(sc.class, DirectionClass::ProvedMonostatic(_)) {
            continue;
        }
        let counts = stats.site(sc.site);
        if counts.total() > 0 && counts.minority_count() == 0 {
            skip.insert(sc.site);
        }
    }
    skip
}

/// The selection search proper — everything below the whole-selection
/// memo. Pure in the fold (module, profile and `max_states`); `threads`
/// only changes wall-clock, and `skip` (sites with a unanimous profile,
/// per [`fast_path_sites`]) only changes how the Profile choice for those
/// sites is *reached*, never what it is.
fn select_uncached(fold: &ProfileFold, threads: usize, skip: &HashSet<BranchId>) -> Selection {
    let max_states = fold.max_states();
    let search = IntraLoopSearch::new(max_states, TABLE_BITS);
    let stats = fold.counts();
    // Each site's pattern table is built from its outcome stream, and
    // machine candidates are scored on it word-at-a-time.
    let outcomes = fold.streams();
    let no_outcomes = PackedStream::new();

    // The executed branches of the module, in site order.
    let sites: Vec<(BranchId, BranchClass)> = (0..stats.site_count())
        .map(BranchId::from_index)
        .filter(|&site| stats.site(site).total() > 0)
        .filter_map(|site| fold.shape(site).map(|shape| (site, shape.class)))
        .collect();

    // Fan out: one pure search per branch over shared read-only state.
    let per_site: Vec<(StrategyChoice, Option<SizeMenu>)> =
        engine::par_map_with(threads, &sites, |&(site, class)| {
            if skip.contains(&site) {
                // Fast path: the site's choice is synthesized without a
                // search, and a Profile choice never enters the joint
                // rebalancing.
                let counts = stats.site(site);
                debug_assert_eq!(counts.minority_count(), 0, "fast path needs unanimity");
                return (
                    StrategyChoice {
                        site,
                        class,
                        chosen: None,
                        executions: counts.total(),
                        profile_misses: counts.minority_count(),
                        chosen_misses: counts.minority_count(),
                    },
                    None,
                );
            }
            search_site(
                site,
                class,
                stats.site(site),
                outcomes.get(site.index()).unwrap_or(&no_outcomes),
                fold.path_profile(site),
                &search,
                max_states,
            )
        });

    // Merge in site order (par_map preserves input order).
    let mut choices = Vec::with_capacity(per_site.len());
    let mut menus: HashMap<BranchId, SizeMenu> = HashMap::new();
    for (choice, menu) in per_site {
        if let Some(menu) = menu {
            menus.insert(choice.site, menu);
        }
        choices.push(choice);
    }

    rebalance_same_loop_machines(&mut choices, &menus, |site| {
        fold.shape(site).and_then(|shape| shape.innermost_loop)
    });

    Selection {
        choices,
        total_events: stats.total_events(),
    }
}

/// The per-branch unit of work: searches every applicable strategy family
/// for one branch and returns its choice plus (when a loop machine won)
/// the per-size menu for §6 joint rebalancing.
///
/// Pure with respect to its inputs — safe to run on any engine worker.
#[allow(clippy::too_many_arguments)]
fn search_site(
    site: BranchId,
    class: BranchClass,
    counts: SiteCounts,
    outcomes: &PackedStream,
    path_profile: Option<&PathProfile>,
    search: &IntraLoopSearch,
    max_states: usize,
) -> (StrategyChoice, Option<SizeMenu>) {
    let profile_misses = counts.minority_count();
    let mut best_misses = profile_misses;
    let mut best = None;
    let mut menu: Option<SizeMenu> = None;

    if !matches!(class, BranchClass::NonLoop) {
        // The loop-machine search depends only on (class, outcome stream,
        // budget) — memoize it process-wide. The site's pattern table is a
        // function of its stream, built inside the search on a miss.
        let outcome = memo::lookup_or_compute(
            class,
            memo::fingerprint_packed(outcomes),
            max_states,
            || loop_search(class, outcomes, search, max_states),
        );
        if let Some((machine, misses)) = &outcome.best {
            if *misses < best_misses {
                best_misses = *misses;
                best = Some(BranchMachine::Loop(machine.clone()));
                menu = Some(outcome.menu.clone());
            }
        }
    }

    if let Some(p) = path_profile {
        // Guard against path overfitting: demand each path pay for
        // itself with at least ~0.5% of the branch's executions.
        let min_gain = (counts.total() / 200).max(2);
        let r = p.select_with_threshold(max_states, min_gain);
        if r.mispredictions() < best_misses && r.machine.states() > 1 {
            best_misses = r.mispredictions();
            best = Some(BranchMachine::Correlated(r.machine));
            menu = None;
        }
    }

    (
        StrategyChoice {
            site,
            class,
            chosen: best,
            executions: counts.total(),
            profile_misses,
            chosen_misses: best_misses,
        },
        menu,
    )
}

/// The memoized kernel: finds the best intra-loop or loop-exit machine for
/// one `(outcome stream, budget)` input, plus the best machine per exact
/// size. `best` is populated only when a machine strictly beats the
/// profile baseline of the same outcome stream.
fn loop_search(
    class: BranchClass,
    outcomes: &PackedStream,
    search: &IntraLoopSearch,
    max_states: usize,
) -> LoopSearchOutcome {
    // Profile baseline, derived from the same stream the memo key hashes.
    let taken = outcomes.count_taken();
    let not_taken = outcomes.len() as u64 - taken;
    let profile_misses = taken.min(not_taken);

    let mut best: Option<(StateMachine, u64)> = None;
    let mut best_misses = profile_misses;
    let mut menu: SizeMenu = vec![None; max_states + 1];
    match class {
        BranchClass::IntraLoop => {
            // Rank candidates by partition score (the paper's
            // bookkeeping), then judge the winners by *simulation*
            // on the real outcome stream — that is what the
            // replicated code will actually do. All surviving
            // candidates share one packed pass over the stream.
            let table = PatternTable::from_outcomes(outcomes.iter(), TABLE_BITS);
            let results: Vec<_> = search.search(&table).into_iter().flatten().collect();
            let machines: Vec<StateMachine> = results.iter().map(|r| r.machine.clone()).collect();
            let scores = crate::machine::simulate_packed_many(&machines, outcomes);
            for (r, (correct, total)) in results.into_iter().zip(scores) {
                let misses = total - correct;
                let n = r.machine.len();
                if misses < best_misses {
                    best_misses = misses;
                    best = Some((r.machine.clone(), misses));
                }
                match &menu[n] {
                    Some((_, m)) if *m <= misses => {}
                    _ => menu[n] = Some((r.machine, misses)),
                }
            }
        }
        BranchClass::LoopExit => {
            // One shared pass over all budgets: entry `n - 2` is the best
            // machine under budget `n`, and both polarity tables and the
            // per-shape simulations happen once, not once per n.
            for r in exit_machine_menu(max_states, outcomes) {
                let misses = r.total - r.correct;
                let sz = r.machine.len();
                if misses < best_misses {
                    best_misses = misses;
                    best = Some((r.machine.clone(), misses));
                }
                match &menu[sz] {
                    Some((_, m)) if *m <= misses => {}
                    _ => menu[sz] = Some((r.machine, misses)),
                }
            }
        }
        BranchClass::NonLoop => {}
    }
    LoopSearchOutcome { best, menu }
}

/// The paper's §6 joint search, applied where it matters: when several
/// branches of the *same* loop won machines, their sizes multiply the
/// loop's replication factor. Re-allocate each branch's machine size with
/// the exact joint search of [`crate::joint::allocate_joint_states`] (a
/// dynamic program over the remaining budget, where the paper proposed
/// branch-and-bound) so the product stays within [`crate::replicate::MAX_PRODUCT_STATES`] at the
/// smallest total misprediction (choosing independently and shedding later
/// is strictly worse).
fn rebalance_same_loop_machines(
    choices: &mut [StrategyChoice],
    menus: &HashMap<BranchId, Vec<Option<(StateMachine, u64)>>>,
    loop_of: impl Fn(BranchId) -> Option<(FuncId, BlockId)>,
) {
    use crate::joint::{allocate_joint_states, BranchCurve};
    use crate::replicate::MAX_PRODUCT_STATES;

    // Group machine-winning choices by loop.
    let mut groups: HashMap<(FuncId, BlockId), Vec<usize>> = HashMap::new();
    for (idx, c) in choices.iter().enumerate() {
        if !matches!(c.chosen, Some(BranchMachine::Loop(_))) {
            continue;
        }
        let Some(key) = loop_of(c.site) else {
            continue;
        };
        groups.entry(key).or_default().push(idx);
    }

    for idxs in groups.into_values() {
        if idxs.len() < 2 {
            continue; // nothing to balance
        }
        let product: usize = idxs
            .iter()
            .map(|&i| choices[i].chosen.as_ref().map_or(1, BranchMachine::states))
            .product();
        if product <= MAX_PRODUCT_STATES {
            continue; // independent choices already fit
        }
        // Build curves: index 0 = profile, missing sizes = effectively
        // forbidden.
        const FORBIDDEN: u64 = u64::MAX / 4;
        let curves: Vec<BranchCurve> = idxs
            .iter()
            .map(|&i| {
                let c = &choices[i];
                let menu = &menus[&c.site];
                let mut misses = vec![c.profile_misses];
                for entry in menu.iter().skip(2) {
                    misses.push(entry.as_ref().map_or(FORBIDDEN, |(_, m)| *m));
                }
                // Insert the (unused) 1-state slot placeholder for n=2's
                // position shift: misses[n-1] must be size-n cost, so size
                // 2 sits at index 1 — handled by starting the skip at 2 and
                // pushing in order.
                BranchCurve {
                    site: c.site,
                    misses,
                }
            })
            .collect();
        let allocation = allocate_joint_states(&curves, MAX_PRODUCT_STATES as u64);
        for (&idx, &(site, n)) in idxs.iter().zip(&allocation.states) {
            debug_assert_eq!(choices[idx].site, site);
            if n <= 1 {
                choices[idx].chosen = None;
                choices[idx].chosen_misses = choices[idx].profile_misses;
            } else {
                let menu = &menus[&site];
                // Curve index n-1 corresponds to menu entry n (sizes are
                // offset by the missing 1-state machine slot).
                let (machine, misses) = menu[n]
                    .as_ref()
                    .expect("allocation only picks available sizes")
                    .clone();
                choices[idx].chosen = Some(BranchMachine::Loop(machine));
                choices[idx].chosen_misses = misses;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use brepl_ir::{FunctionBuilder, Operand, Value};
    use brepl_sim::{Machine as Sim, RunConfig};

    /// A module with an alternating intra-loop branch, a fixed-count exit
    /// branch and a correlated pair outside loops.
    fn rich_module() -> Module {
        let mut b = FunctionBuilder::new("main", 1);
        let n = b.param(0);
        let i = b.reg();
        b.const_int(i, 0);
        let head = b.new_block();
        let even = b.new_block();
        let odd = b.new_block();
        let latch = b.new_block();
        let after = b.new_block();
        let j1 = b.new_block();
        let j2 = b.new_block();
        let join = b.new_block();
        let yes = b.new_block();
        let no = b.new_block();
        b.jmp(head);
        b.switch_to(head);
        let r = b.reg();
        b.rem(r, i.into(), Operand::imm(2));
        let c = b.eq(r.into(), Operand::imm(0));
        b.br(c, even, odd); // intra-loop, alternating
        b.switch_to(even);
        b.jmp(latch);
        b.switch_to(odd);
        b.jmp(latch);
        b.switch_to(latch);
        b.add(i, i.into(), Operand::imm(1));
        let c2 = b.lt(i.into(), n.into());
        b.br(c2, head, after); // loop exit
        b.switch_to(after);
        let c3 = b.gt(n.into(), Operand::imm(10));
        b.br(c3, j1, j2); // first of a correlated pair
        b.switch_to(j1);
        b.jmp(join);
        b.switch_to(j2);
        b.jmp(join);
        b.switch_to(join);
        let c4 = b.gt(n.into(), Operand::imm(10));
        b.br(c4, yes, no); // copies c3: perfectly correlated
        b.switch_to(yes);
        b.ret(Some(Operand::imm(1)));
        b.switch_to(no);
        b.ret(Some(Operand::imm(0)));
        let mut m = Module::new();
        m.push_function(b.finish());
        m
    }

    fn trace_of(m: &Module, n: i64) -> Trace {
        Sim::new(m, RunConfig::default())
            .unwrap()
            .run("main", &[Value::Int(n)])
            .unwrap()
            .trace
    }

    #[test]
    fn selection_beats_profile() {
        let m = rich_module();
        let t = trace_of(&m, 100);
        let sel = select_strategies(&m, &t, 4);
        assert!(sel.total_misses() < sel.profile_misses());
        assert!(sel.choices().iter().any(|c| c.benefit() > 0));
        assert!(sel.misprediction_percent() < 5.0);
    }

    #[test]
    fn alternating_branch_gets_loop_machine() {
        let m = rich_module();
        let t = trace_of(&m, 100);
        let sel = select_strategies(&m, &t, 4);
        let alt = sel
            .choices()
            .iter()
            .find(|c| c.site == BranchId(0))
            .unwrap();
        assert_eq!(alt.class, BranchClass::IntraLoop);
        assert!(matches!(alt.chosen, Some(BranchMachine::Loop(_))));
        assert_eq!(alt.chosen_misses, 0);
        assert!(alt.profile_misses >= 49);
    }

    #[test]
    fn correlated_branch_gets_path_machine() {
        let m = rich_module();
        // Run on several inputs so the correlated branch is not constant.
        let mut t = Trace::new();
        for n in [5i64, 15, 8, 20, 3, 30, 11, 9] {
            t.extend(trace_of(&m, n).iter());
        }
        let sel = select_strategies(&m, &t, 3);
        let corr = sel
            .choices()
            .iter()
            .find(|c| c.site == BranchId(3))
            .unwrap();
        assert_eq!(corr.class, BranchClass::NonLoop);
        assert!(matches!(corr.chosen, Some(BranchMachine::Correlated(_))));
        assert_eq!(corr.chosen_misses, 0, "the copier is fully correlated");
    }

    #[test]
    fn plan_round_trips_through_replication() {
        let m = rich_module();
        let t = trace_of(&m, 100);
        let sel = select_strategies(&m, &t, 4);
        let plan = sel.to_plan();
        assert!(!plan.is_empty());
        let program = crate::replicate::apply_plan(&m, &plan, &t.stats()).unwrap();
        crate::replicate::check_equivalence(&m, &program, "main", &[Value::Int(100)], &[]).unwrap();
    }

    /// A loop whose body holds several period-7 branches: independently
    /// each wants a large machine, and the product overflows the cap, so
    /// the §6 joint rebalancing must kick in.
    #[test]
    fn same_loop_machines_are_jointly_rebalanced() {
        let mut b = FunctionBuilder::new("main", 1);
        let n = b.param(0);
        let i = b.reg();
        let acc = b.reg();
        b.const_int(i, 0);
        b.const_int(acc, 0);
        let head = b.new_block();
        let exit = b.new_block();
        b.jmp(head);
        b.switch_to(head);
        let loop_test = b.lt(i.into(), n.into());
        let mut body = b.new_block();
        b.br(loop_test, body, exit);
        for k in 0..4u32 {
            b.switch_to(body);
            let r = b.reg();
            b.rem(r, i.into(), Operand::imm(7));
            let c = b.eq(r.into(), Operand::imm(i64::from(k)));
            let t = b.new_block();
            let e = b.new_block();
            let j = b.new_block();
            b.br(c, t, e);
            b.switch_to(t);
            b.add(acc, acc.into(), Operand::imm(1));
            b.jmp(j);
            b.switch_to(e);
            b.add(acc, acc.into(), Operand::imm(2));
            b.jmp(j);
            body = j;
        }
        b.switch_to(body);
        b.add(i, i.into(), Operand::imm(1));
        b.jmp(head);
        b.switch_to(exit);
        b.out(acc.into());
        b.ret(Some(acc.into()));
        let mut m = Module::new();
        m.push_function(b.finish());

        let t = trace_of(&m, 700);
        let sel = select_strategies(&m, &t, 8);
        // All loop-machine products must respect the replication cap.
        let product: usize = sel
            .choices()
            .iter()
            .filter_map(|c| match &c.chosen {
                Some(m @ BranchMachine::Loop(_)) => Some(m.states()),
                _ => None,
            })
            .product();
        assert!(
            product <= crate::replicate::MAX_PRODUCT_STATES,
            "rebalanced product {product} exceeds cap"
        );
        // The rebalanced selection still beats plain profile decisively:
        // period-7 branches are fully predictable with enough states.
        assert!(sel.total_misses() * 2 < sel.profile_misses());
        // And the plan applies without shedding, preserving semantics.
        let plan = sel.to_plan();
        let program = crate::replicate::apply_plan(&m, &plan, &t.stats()).unwrap();
        crate::replicate::check_equivalence(&m, &program, "main", &[Value::Int(700)], &[]).unwrap();
    }

    #[test]
    fn repeated_selection_is_a_memo_hit_and_identical() {
        let m = rich_module();
        let t = trace_of(&m, 90);
        let first = select_strategies(&m, &t, 5);
        let (_, hits_before) = memo::selection_stats();
        let second = select_strategies(&m, &t, 5);
        let (_, hits_after) = memo::selection_stats();
        assert_eq!(first, second, "cache hits must be bit-identical");
        assert!(
            hits_after > hits_before,
            "the repeat selection must come from the whole-selection memo"
        );
        // A different budget is a different key, not a stale hit.
        let third = select_strategies(&m, &t, 2);
        assert!(third.total_misses() >= first.total_misses());
    }

    /// A loop with a constant-true guard (provably monostatic, unanimous
    /// in any trace) next to a real loop-exit branch: the classified fast
    /// path must skip exactly the guard and produce a selection
    /// bit-identical to the full search.
    #[test]
    fn classified_fast_path_is_bit_identical_and_counts_skips() {
        let mut b = FunctionBuilder::new("main", 1);
        let n = b.param(0);
        let i = b.reg();
        b.const_int(i, 0);
        let head = b.new_block();
        let body = b.new_block();
        let g_t = b.new_block();
        let latch = b.new_block();
        let exit = b.new_block();
        b.jmp(head);
        b.switch_to(head);
        let c = b.lt(i.into(), n.into());
        b.br(c, body, exit); // site 0: loop exit, genuinely searched
        b.switch_to(body);
        let one = b.reg();
        b.const_int(one, 1);
        let g = b.gt(one.into(), Operand::imm(0));
        b.br(g, g_t, latch); // site 1: constant-true guard, proved
        b.switch_to(g_t);
        b.jmp(latch);
        b.switch_to(latch);
        b.add(i, i.into(), Operand::imm(1));
        b.jmp(head);
        b.switch_to(exit);
        b.ret(None);
        let mut m = Module::new();
        m.push_function(b.finish());
        m.renumber_branches();

        let t = trace_of(&m, 50);
        let cls = brepl_analysis::classify_module(&m);
        let stats = t.stats();
        let skip = fast_path_sites(&stats, &cls);
        assert_eq!(skip.len(), 1);
        assert!(skip.contains(&BranchId(1)));

        // Call below the memo so both paths genuinely run the search.
        let fold = ProfileFold::of_trace(&m, 4, &t);
        let plain = select_uncached(&fold, 1, &HashSet::new());
        let fast = select_uncached(&fold, 1, &skip);
        assert_eq!(plain, fast, "fast path must be bit-identical");

        let (via_api, skips) = select_strategies_classified(&m, &t, 4, Some(&cls));
        assert_eq!(via_api, plain);
        assert_eq!(skips, 1);
        assert_eq!(
            select_strategies_folded(&fold, Some(&cls)),
            (plain.clone(), 1)
        );
        // Without a classification the API degrades to plain selection.
        let (no_cls, no_skips) = select_strategies_classified(&m, &t, 4, None);
        assert_eq!(no_cls, plain);
        assert_eq!(no_skips, 0);
    }

    /// The synthetic trace of a counted loop satisfies every promoted
    /// proof exactly, and estimate-driven selection plans from it with
    /// zero simulator runs.
    #[test]
    fn synthetic_trace_satisfies_exact_rationals() {
        let mut b = FunctionBuilder::new("main", 0);
        let i = b.reg();
        b.const_int(i, 0);
        let head = b.new_block();
        let body = b.new_block();
        let g_t = b.new_block();
        let latch = b.new_block();
        let exit = b.new_block();
        b.jmp(head);
        b.switch_to(head);
        let c = b.lt(i.into(), Operand::imm(50));
        b.br(c, body, exit); // site 0: exact 50/51
        b.switch_to(body);
        let one = b.reg();
        b.const_int(one, 1);
        let g = b.gt(one.into(), Operand::imm(0));
        b.br(g, g_t, latch); // site 1: proved always-taken
        b.switch_to(g_t);
        b.jmp(latch);
        b.switch_to(latch);
        b.add(i, i.into(), Operand::imm(1));
        b.jmp(head);
        b.switch_to(exit);
        b.ret(None);
        let mut m = Module::new();
        m.push_function(b.finish());
        m.renumber_branches();

        let cls = brepl_analysis::classify_module(&m);
        let profile = brepl_analysis::estimate_profile(&m, &cls);
        assert!(profile.converged());

        let t = synthesize_profile_trace(&profile);
        assert!(!t.is_empty());
        let stats = t.stats();
        // Every exact estimate is reproduced as an exact rational.
        for s in &profile.sites {
            if let brepl_analysis::BiasEstimate::Exact { num, den } = s.bias {
                let counts = stats.site(s.site);
                assert!(counts.total() > 0);
                assert_eq!(
                    u128::from(counts.taken) * u128::from(den),
                    u128::from(counts.total()) * u128::from(num),
                    "site {:?} synthetic stream violates {num}/{den}",
                    s.site
                );
            }
        }

        // Estimate-driven selection runs end to end on the synthetic
        // trace and its plan applies to the module.
        let (sel, skips) = select_strategies_classified(&m, &t, 4, Some(&cls));
        assert_eq!(sel.total_events(), t.len() as u64);
        assert!(skips >= 1, "the proved guard takes the fast path");
        let program = crate::replicate::apply_plan(&m, &sel.to_plan(), &stats).unwrap();
        assert!(program.module.branch_count() >= m.branch_count());
    }

    #[test]
    fn rational_approximation_is_close_and_small() {
        for &(p, want) in &[
            (0.5, (1, 2)),
            (0.88, (7, 8)),
            (0.62, (5, 8)),
            (0.99, (1, 1)),
            (0.01, (0, 1)),
        ] {
            let got = approx_rational(p, 8);
            assert_eq!(got, want, "p = {p}");
            assert!((p - got.0 as f64 / got.1 as f64).abs() <= 0.07);
        }
    }

    #[test]
    fn more_states_never_hurt() {
        let m = rich_module();
        let t = trace_of(&m, 64);
        let mut prev = u64::MAX;
        for n in 2..=6 {
            let sel = select_strategies(&m, &t, n);
            assert!(sel.total_misses() <= prev);
            prev = sel.total_misses();
        }
    }
}
