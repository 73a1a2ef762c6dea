//! `apply_plan` pinned bit for bit: the replicated module, its provenance,
//! its prediction table and its replica map (origin chains and machine
//! pins) on every small workload, `kmp` and 40 random loop modules, under
//! both the full selection and the plan the default pipeline ships.
//!
//! Block numbering follows the order in which the transform processes its
//! worklists, so a refactor of the replicator's bookkeeping that keeps
//! every output must keep these literals. They were recorded once and
//! must not move unless a change means to alter what replication ships.

mod common;

use brepl::cfg::{Cfg, DomTree, LoopForest};
use brepl::core::{apply_plan, select_strategies, BranchMachine, ReplicatedProgram};
use brepl::ir::{Lanes, Module};
use brepl::pipeline::{run_pipeline, PipelineConfig};
use brepl::sim::{Machine, RunConfig};
use brepl::workloads::{all_workloads, workload_by_name, Scale};
use common::Gen;

/// The four pinned digests of one replicated program: module
/// fingerprint, provenance, predictions and replica map.
type Digest = [(u64, u64); 4];

fn digest(p: &ReplicatedProgram) -> Digest {
    let mut prov = Lanes::new();
    for site in &p.provenance {
        prov.mix(u64::from(site.0));
    }
    let mut preds = Lanes::new();
    preds.mix(u64::from(p.predictions.default));
    for i in 0..p.module.branch_count() {
        preds.mix(u64::from(p.predictions.get(brepl::ir::BranchId(i as u32))));
    }
    let mut map = Lanes::new();
    for f in &p.replica_map.functions {
        map.mix(f.origins.len() as u64);
        for chain in &f.origins {
            map.mix(chain.len() as u64);
            for b in chain {
                map.mix(u64::from(b.0));
            }
        }
        for pin in &f.machine_predictions {
            map.mix(match pin {
                None => 2,
                Some(p) => u64::from(*p),
            });
        }
    }
    [
        p.module.fingerprint(),
        prov.finish(),
        preds.finish(),
        map.finish(),
    ]
}

/// Correlated sites of `plan` whose block lies in the innermost loop of
/// some loop-machine site of the same function. Loop replication copies
/// such a block once per machine state, so its path machine must reach
/// every copy.
fn correlated_inside_replicated_loops(
    module: &Module,
    plan: &brepl::core::ReplicationPlan,
) -> usize {
    let mut count = 0;
    for (&site, machine) in &plan.assignments {
        let BranchMachine::Correlated(_) = machine else {
            continue;
        };
        let (fid, bid) = module.locate_branch(site).expect("planned site exists");
        let func = module.function(fid);
        let cfg = Cfg::new(func);
        let dom = DomTree::new(&cfg);
        let forest = LoopForest::new(&cfg, &dom);
        let inside = plan.assignments.iter().any(|(&other, m)| {
            let BranchMachine::Loop(_) = m else {
                return false;
            };
            let (ofid, obid) = module.locate_branch(other).expect("planned site exists");
            ofid == fid
                && forest
                    .innermost(obid)
                    .is_some_and(|l| forest.get(l).contains(bid))
        });
        count += usize::from(inside);
    }
    count
}

/// Both plans of one program: the full selection at the default machine
/// size, and the plan the default pipeline ships. Returns their digests
/// and how many correlated sites each plan puts inside a replicated loop.
fn replicate_both(
    module: &Module,
    args: &[brepl::ir::Value],
    input: &[brepl::ir::Value],
) -> ([Digest; 2], usize) {
    let config = PipelineConfig::default();
    let mut machine = Machine::new(module, RunConfig::default()).expect("module loads");
    machine.set_input(input.to_vec());
    let trace = machine.run("main", args).expect("program runs").trace;
    let stats = trace.stats();

    let full = select_strategies(module, &trace, config.max_states).to_plan();
    let full_program = apply_plan(module, &full, &stats).expect("full plan replicates");

    let shipped = run_pipeline(module, args, input, config).expect("pipeline runs");
    let plan = shipped
        .selection
        .to_plan_filtered(|s| shipped.replicated_sites.contains(&s));
    let program = apply_plan(module, &plan, &stats).expect("shipped plan replicates");
    assert_eq!(
        program.module.fingerprint(),
        shipped.program.module.fingerprint(),
        "the pipeline ships apply_plan's module"
    );
    let inside = correlated_inside_replicated_loops(module, &full)
        + correlated_inside_replicated_loops(module, &plan);
    ([digest(&full_program), digest(&program)], inside)
}

fn fold(acc: &mut [Lanes; 4], d: &Digest) {
    for (lanes, &(a, b)) in acc.iter_mut().zip(d) {
        lanes.mix(a);
        lanes.mix(b);
    }
}

#[test]
fn apply_plan_outputs_are_pinned() {
    let mut workloads = all_workloads(Scale::Small);
    workloads.push(workload_by_name("kmp", Scale::Small).expect("kmp exists"));

    let mut got: Vec<(String, [Digest; 2])> = Vec::new();
    let mut inside = 0usize;
    for w in &workloads {
        let (digests, n) = replicate_both(&w.module, &w.args, &w.input);
        inside += n;
        got.push((w.name.to_string(), digests));
    }

    // Forty random loop modules, folded into one digest per plan.
    let mut random = [
        [Lanes::new(), Lanes::new(), Lanes::new(), Lanes::new()],
        [Lanes::new(), Lanes::new(), Lanes::new(), Lanes::new()],
    ];
    let mut g = Gen::new(0xA991);
    for _ in 0..40 {
        let seed = g.next();
        let diamonds = 1 + g.below(4) as usize;
        let trip = 8 + g.below(112) as i64;
        let module = common::random_loop_module(seed, diamonds, trip);
        let (digests, n) = replicate_both(&module, &[], &[]);
        inside += n;
        fold(&mut random[0], &digests[0]);
        fold(&mut random[1], &digests[1]);
    }
    let [full, shipped] = random.map(|acc| acc.map(Lanes::finish));
    got.push(("random x40".to_string(), [full, shipped]));

    assert!(
        inside > 0,
        "no case plans a correlated branch inside a replicated loop"
    );

    #[rustfmt::skip]
    let expected: &[(&str, [Digest; 2])] = &[
        ("abalone", [[(0x9ce09dead4402a1f, 0x5e52f040b7e999e9), (0xde9cc5afabf6d5ab, 0xf29fdfdc49f71446), (0x5d4250904c0eaf6c, 0x5a8d0b1b6ff4ea32), (0x815b8f654f6ae274, 0x612db9c4bbadce82)], [(0x270c046299a07b30, 0xa401e0c548ea9525), (0x421d516f15cc0f5a, 0xca3dc6fd4135a0c6), (0xcb41e010eab2221d, 0xaba3fb8aa76c17b2), (0xae5328dae99cfd85, 0x86a2736e14e59936)]]),
        ("c-compiler", [[(0xccc03ed147750966, 0x96c16af61b55f344), (0x7fd9d0d5fcae1a7b, 0x1fd9e62432b22106), (0x7fd73ee9ad1dfa72, 0xebbf1718ce69fc72), (0x2c91c0e2bdbd9cd6, 0xb44ed6787ed1b426)], [(0xa894415c3242cc58, 0xec3f4737abcc3336), (0x35535be94ca007b9, 0xda97189e17993386), (0x8d68fcad07a36608, 0x7fd3f3d4262c1bf2), (0xbe759abdb98253ae, 0x31bfd497d8dd6d32)]]),
        ("compress", [[(0x0bc4764846a7816f, 0x595930e8df547712), (0xf4c274fb9f7c586e, 0x97c44392262c1bf2), (0x5261f5a5b2d83baf, 0x457ab825176ffdf6), (0x40127beccb50ea48, 0xd31add3f8d5f3ae2)], [(0x0bc4764846a7816f, 0x595930e8df547712), (0xf4c274fb9f7c586e, 0x97c44392262c1bf2), (0x5261f5a5b2d83baf, 0x457ab825176ffdf6), (0x40127beccb50ea48, 0xd31add3f8d5f3ae2)]]),
        ("ghostview", [[(0x3f4d16e246b4c145, 0x89d2ab82fb963f0c), (0x6fdc49eede48a882, 0x428bdd0cfd7ddb52), (0x47b54ef9a0d9a28d, 0xb4fd7d1a0d204216), (0x6f73d9f1bea06548, 0x6e5b8c07b5af6e56)], [(0xb0a6188565fa9bfa, 0xfb65228b5584a44e), (0xd5e1a3c296a23266, 0x4e30c2ad08a45e46), (0x51b96db82dd6c9d2, 0x648d22869ac06832), (0xd975baccfc9fce73, 0xd99ada87a4bdfcf6)]]),
        ("predict", [[(0x783aafb13101b3e9, 0xf384f5271b156d84), (0x45fbc6328efecfda, 0x4889721a8bd2f226), (0x43b87be93d01b787, 0xca9aa8191d1331d2), (0xf1e5076ad8a98e7c, 0x9ca43f5612242676)], [(0x5ff6b952d18b8e36, 0x6ac5dd48cf274240), (0x3b33ca6e8d8f26c6, 0x7fbc3df589066a96), (0xaae6e6f905676fee, 0xcf3c6f34b519ca22), (0x9f4f362d4c8246bc, 0x0b1eafc2086cbe72)]]),
        ("prolog", [[(0xa17320968406adc6, 0x6f275324283ed1f2), (0x9a4bb02fafd071cd, 0xa058a3d832b22106), (0xc6820a152c73ce4a, 0x59884440ce69fc72), (0xaa574d280ba0c0f2, 0x11d61553a1a4bf36)], [(0x537e9343f6ccbc2f, 0x2af6bf2442f658a0), (0xdfd2af34bb02b9ba, 0xc0f189d01e1cf476), (0x7425b59b98bf296c, 0x135a71a56794d5c2), (0x014a5db8d7e2f7d9, 0xf6cb0cd87079dc42)]]),
        ("scheduler", [[(0xa354c7a9bc38f452, 0xd2c1e6746e90aecc), (0xbb2e927cafdff9d0, 0xe1a10591a01ce8d6), (0x96642663bdcc9b76, 0x4f7250430d8288e2), (0xd3648a4396385f49, 0xbd783a783fb83956)], [(0xa354c7a9bc38f452, 0xd2c1e6746e90aecc), (0xbb2e927cafdff9d0, 0xe1a10591a01ce8d6), (0x96642663bdcc9b76, 0x4f7250430d8288e2), (0xd3648a4396385f49, 0xbd783a783fb83956)]]),
        ("doduc", [[(0x2a856cf6c58764b7, 0x22965cb1e5c0c9f7), (0x7abe419e5dc77236, 0xc36dd457d978f916), (0xe112f604caf96cea, 0x70d21bfd59701da2), (0x3a69f911bd579fab, 0x1188cdd0817967c2)], [(0x2a856cf6c58764b7, 0x22965cb1e5c0c9f7), (0x7abe419e5dc77236, 0xc36dd457d978f916), (0xe112f604caf96cea, 0x70d21bfd59701da2), (0x3a69f911bd579fab, 0x1188cdd0817967c2)]]),
        ("kmp", [[(0xc2ccf6b97156fdbb, 0x500450ff43248b40), (0x2418b5c65a16e7ac, 0xcd48bee9847a53d2), (0xc38993ae285ad9b2, 0xe020b2e38c91f396), (0xc7ed9457a8a461e4, 0x2f4f724ec824afd6)], [(0x72ab0076cc59a8d5, 0xc40a20b769f676ee), (0xab06e9719970b72d, 0xd6f2cd9e59701da2), (0x94eb1c68720ba9d3, 0x0dff1ab6cb7ea606), (0x169898f0ec845d9e, 0xa1d2545ab8fcab66)]]),
        ("random x40", [[(0xf043c176faf25ac8, 0x891c98fd518efff2), (0x94b6b3e0656d0837, 0xd60a406f96a67ff7), (0x2ff450122ebea513, 0x628fab254fa51128), (0x00b49c9ebdfc01db, 0x141b3a7a0171c83a)], [(0x52632b981e503ddf, 0xbb22ebe364ffbd28), (0x248a6a61f0a9bbca, 0xb9ee63f4e4a31723), (0x60c4f7a8c259a104, 0xf30ca0ac6c09ed8e), (0x6c8e12e81eb42b6d, 0x682ca6540eb1d188)]]),
    ];
    assert_eq!(got.len(), expected.len(), "one row per case");
    for ((name, digests), (want_name, want)) in got.iter().zip(expected) {
        assert_eq!(name, want_name);
        assert_eq!(digests, want, "{name}: [full selection, shipped plan]");
    }
}
