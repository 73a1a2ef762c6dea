//! The profiling run folded as it runs.
//!
//! Selection never reads the profile as a sequence. It reads three
//! things: per-branch counts, each branch's own outcome stream (a loop
//! branch's pattern table is built from it) and, for correlated machines,
//! per-path counts. A [`ProfileFold`] is the event sink that builds all
//! three while the profiling run executes, so no branch trace is kept:
//! the counts equal `trace.stats()` of the recorded run, the streams equal
//! [`brepl_trace::packed_site_streams`] and the path profiles equal
//! [`crate::correlated::profile_paths`] over the same candidates.
//!
//! The candidate paths do not depend on the run. The constructor analyses
//! every function once (CFG, dominators, loops, branch classes) and
//! enumerates each branch's predecessor paths, and selection reads those
//! instead of rebuilding them.

use brepl_cfg::{BranchClass, Cfg, ClassifiedBranches, DomTree, LoopForest, PredecessorPaths};
use brepl_ir::{BlockId, BranchId, FuncId, Module};
use brepl_trace::{EventSink, PackedStream, Trace, TraceStats};

use crate::correlated::{PathFold, PathProfile};

/// What selection needs to know about a branch besides its profile.
#[derive(Clone, Copy, Debug)]
pub(crate) struct SiteShape {
    /// Its loop class.
    pub(crate) class: BranchClass,
    /// Its innermost loop, as (function, header), for the joint
    /// rebalancing of same-loop machines.
    pub(crate) innermost_loop: Option<(FuncId, BlockId)>,
}

/// The event sink of a profiling run: per-site counts, per-site outcome
/// streams and per-site path profiles, folded as the events arrive.
#[derive(Clone, Debug)]
pub struct ProfileFold {
    max_states: usize,
    /// Site → its shape, for every branch of the module.
    shapes: Vec<Option<SiteShape>>,
    counts: TraceStats,
    /// Site → its outcomes in order; covers at least every counted site.
    streams: Vec<PackedStream>,
    paths: PathFold,
}

impl ProfileFold {
    /// A fold for runs of `module`, profiling the decision paths that
    /// selection considers for machines of at most `max_states` states
    /// ("a maximum path length of n for an n state machine").
    ///
    /// # Panics
    ///
    /// Panics unless `2 <= max_states <= 10`.
    pub fn new(module: &Module, max_states: usize) -> Self {
        assert!(
            (2..=10).contains(&max_states),
            "max_states must be in 2..=10"
        );
        let n_sites = module.branch_count();
        let mut shapes: Vec<Option<SiteShape>> = vec![None; n_sites];
        let mut candidates = Vec::with_capacity(n_sites);
        for (fid, func) in module.iter_functions() {
            let cfg = Cfg::new(func);
            let dom = DomTree::new(&cfg);
            let forest = LoopForest::new(&cfg, &dom);
            let classes = ClassifiedBranches::analyze(func, &forest);
            for info in classes.branches() {
                let i = info.site.index();
                if i >= shapes.len() {
                    shapes.resize(i + 1, None);
                }
                shapes[i] = Some(SiteShape {
                    class: info.class,
                    innermost_loop: info.innermost_loop.map(|l| (fid, forest.get(l).header)),
                });
                let paths = PredecessorPaths::enumerate(func, &cfg, info.block, max_states - 1);
                candidates.push((info.site, paths.paths));
            }
        }
        let paths = PathFold::new(candidates.iter().map(|(s, p)| (*s, p.as_slice())));
        ProfileFold {
            max_states,
            streams: vec![PackedStream::new(); shapes.len()],
            shapes,
            counts: TraceStats::default(),
            paths,
        }
    }

    /// The fold of a recorded run of `module`: [`Self::new`] fed every
    /// event of `trace` in order.
    pub fn of_trace(module: &Module, max_states: usize, trace: &Trace) -> Self {
        let mut fold = ProfileFold::new(module, max_states);
        for ev in trace.iter() {
            fold.record(ev.site, ev.taken);
        }
        fold
    }

    /// The state budget the candidate paths were enumerated for.
    pub fn max_states(&self) -> usize {
        self.max_states
    }

    /// Per-site counts, equal to `trace.stats()` of the recorded run.
    pub fn counts(&self) -> &TraceStats {
        &self.counts
    }

    /// Site `i`'s outcomes at index `i`, for `i` up to the highest counted
    /// site: equal to `packed_site_streams` of the recorded run.
    pub fn streams(&self) -> &[PackedStream] {
        &self.streams[..self.counts.site_count()]
    }

    /// The path profile of `site` over its candidate paths, for every
    /// branch of the module (executed or not).
    pub fn path_profile(&self, site: BranchId) -> Option<&PathProfile> {
        self.paths.profile(site)
    }

    /// The class and innermost loop of `site`, if it is a branch of the
    /// module.
    pub(crate) fn shape(&self, site: BranchId) -> Option<SiteShape> {
        self.shapes.get(site.index()).copied().flatten()
    }

    /// Out of line: only a site outside the module lands here.
    #[cold]
    fn grow(&mut self, n_sites: usize) {
        self.streams.resize(n_sites, PackedStream::new());
    }
}

impl EventSink for ProfileFold {
    #[inline]
    fn record(&mut self, site: BranchId, taken: bool) {
        self.counts.record(site, taken);
        let i = site.index();
        if i >= self.streams.len() {
            self.grow(i + 1);
        }
        self.streams[i].push(taken);
        self.paths.record(site, taken);
    }

    #[inline]
    fn events(&self) -> usize {
        self.counts.events()
    }
}
