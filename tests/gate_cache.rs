//! The pipeline re-proves every round through one gate cache per run;
//! the cache must be invisible in verdicts. Every replicated program a
//! round sequence produces — the full plan, then one site fewer per round
//! until none is left — gets exactly the from-scratch diagnostics of the
//! reference translation validator and history checker.

mod common;

use brepl::workloads::{all_workloads, Scale};
use brepl_analysis::GateCache;

#[test]
fn cached_gates_match_reference_on_every_round() {
    let mut hits = 0;
    for w in all_workloads(Scale::Small) {
        let (stats, selection, mut sites) = common::full_plan(&w);
        let mut cache = GateCache::new();
        for round in 1.. {
            let (program, spec) = common::replicate_round(&w.module, &stats, &selection, &sites);
            let ctx = format!("{} round {round} ({} sites)", w.name, sites.len());
            common::assert_cached_gates_match(&w.module, &program, &spec, &mut cache, &ctx);
            if sites.is_empty() {
                break;
            }
            sites.remove(0);
        }
        hits += cache.hits();
    }
    assert!(hits > 0, "no round reused a cached gate result");
}
