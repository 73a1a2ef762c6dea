//! Table 3: misprediction of loop branches when the full pattern table is
//! replaced by an n-state machine. The paper groups a k-bit history with a
//! (k+1)-state machine to show how little accuracy the compaction loses;
//! intra-loop and loop-exit branches are reported separately.

use std::collections::HashSet;

use brepl_bench::{print_header, print_row, profile_suite, scale_from_env, ProfiledWorkload};
use brepl_cfg::{BranchClass, Cfg, ClassifiedBranches, DomTree, LoopForest};
use brepl_core::intra_loop::IntraLoopSearch;
use brepl_core::loop_exit::exit_machine_menu;
use brepl_ir::BranchId;
use brepl_predict::{HistoryKind, PatternTable, PatternTableSet};
use brepl_trace::{packed_site_streams, PackedStream};

struct Classified {
    intra: HashSet<BranchId>,
    exit: HashSet<BranchId>,
}

fn classify(p: &ProfiledWorkload) -> Classified {
    let mut intra = HashSet::new();
    let mut exit = HashSet::new();
    for (_, func) in p.workload.module.iter_functions() {
        let cfg = Cfg::new(func);
        let dom = DomTree::new(&cfg);
        let forest = LoopForest::new(&cfg, &dom);
        for info in ClassifiedBranches::analyze(func, &forest).branches() {
            match info.class {
                BranchClass::IntraLoop => {
                    intra.insert(info.site);
                }
                BranchClass::LoopExit => {
                    exit.insert(info.site);
                }
                BranchClass::NonLoop => {}
            }
        }
    }
    Classified { intra, exit }
}

/// Misprediction % of the ideal k-bit local pattern table over a site set.
fn ideal_pct(trace: &brepl_trace::Trace, bits: u32, sites: &HashSet<BranchId>) -> f64 {
    let report = PatternTableSet::build(trace, HistoryKind::Local, bits).report();
    let (mut total, mut wrong) = (0u64, 0u64);
    for (site, t, w) in report.iter_sites() {
        if sites.contains(&site) {
            total += t;
            wrong += w;
        }
    }
    if total == 0 {
        0.0
    } else {
        100.0 * wrong as f64 / total as f64
    }
}

/// The outcome stream of `site`, if it executed.
fn executed(streams: &[PackedStream], site: BranchId) -> Option<&PackedStream> {
    streams.get(site.index()).filter(|s| !s.is_empty())
}

fn main() {
    let suite = profile_suite(scale_from_env());
    let classified: Vec<Classified> = suite.iter().map(classify).collect();

    // Outcome streams per site, per program; each site's tables are
    // built from its stream.
    let streams: Vec<Vec<PackedStream>> = suite
        .iter()
        .map(|p| packed_site_streams(&p.trace, &p.trace.stats()))
        .collect();

    let search = IntraLoopSearch::new(10, 9);
    // Per-program, per-n results for intra machines: run the search once
    // per site and read out every n.
    let intra_by_n: Vec<Vec<f64>> = suite
        .iter()
        .zip(&classified)
        .zip(&streams)
        .map(|((_, c), streams)| {
            let mut totals = [0u64; 11];
            let mut wrongs = [0u64; 11];
            for &site in &c.intra {
                let Some(outs) = executed(streams, site) else {
                    continue;
                };
                let per_n = search.search(&PatternTable::from_outcomes(outs.iter(), 9));
                for n in 2..=10 {
                    if let Some(r) = &per_n[n] {
                        totals[n] += r.total;
                        wrongs[n] += r.mispredictions();
                    }
                }
            }
            (2..=10)
                .map(|n| {
                    if totals[n] == 0 {
                        0.0
                    } else {
                        100.0 * wrongs[n] as f64 / totals[n] as f64
                    }
                })
                .collect()
        })
        .collect();

    let exit_by_n: Vec<Vec<f64>> = suite
        .iter()
        .zip(&classified)
        .zip(&streams)
        .map(|((_, c), streams)| {
            // One shared menu per site: entry n-2 is the best exit machine
            // under budget n.
            let mut totals = [0u64; 11];
            let mut wrongs = [0u64; 11];
            for &site in &c.exit {
                let Some(outs) = executed(streams, site) else {
                    continue;
                };
                for (r, n) in exit_machine_menu(10, outs).into_iter().zip(2..=10) {
                    totals[n] += r.total;
                    wrongs[n] += r.total - r.correct;
                }
            }
            (2..=10)
                .map(|n| {
                    if totals[n] == 0 {
                        0.0
                    } else {
                        100.0 * wrongs[n] as f64 / totals[n] as f64
                    }
                })
                .collect()
        })
        .collect();

    print_header("Table 3: misprediction of loop and loop-exit branches in percent");
    // Profile baselines per class.
    let profile_of = |class_idx: usize| -> (Vec<f64>, Vec<f64>) {
        let _ = class_idx;
        let mut intra = Vec::new();
        let mut exit = Vec::new();
        for (p, c) in suite.iter().zip(&classified) {
            let stats = p.trace.stats();
            let pct = |set: &HashSet<BranchId>| {
                let (mut t, mut w) = (0u64, 0u64);
                for (site, counts) in stats.iter_executed() {
                    if set.contains(&site) {
                        t += counts.total();
                        w += counts.minority_count();
                    }
                }
                if t == 0 {
                    0.0
                } else {
                    100.0 * w as f64 / t as f64
                }
            };
            intra.push(pct(&c.intra));
            exit.push(pct(&c.exit));
        }
        (intra, exit)
    };
    let (prof_intra, prof_exit) = profile_of(0);
    print_row("profile (intra)", &prof_intra);
    print_row("profile (exit)", &prof_exit);
    println!();

    for k in 1..=9u32 {
        let intra_ideal: Vec<f64> = suite
            .iter()
            .zip(&classified)
            .map(|(p, c)| ideal_pct(&p.trace, k, &c.intra))
            .collect();
        print_row(&format!("{k} bit ideal (intra)"), &intra_ideal);
        if k >= 1 && (k as usize) < 10 {
            let n = k as usize + 1;
            let row: Vec<f64> = intra_by_n.iter().map(|v| v[n - 2]).collect();
            print_row(&format!("{n} states (intra)"), &row);
            let row: Vec<f64> = exit_by_n.iter().map(|v| v[n - 2]).collect();
            print_row(&format!("{n} states (exit)"), &row);
        }
        println!();
    }
}
