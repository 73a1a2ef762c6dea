//! The search memo must be invisible in results: a selection that reuses
//! cached per-branch searches equals the one computed from an empty memo.
//!
//! This lives in its own test binary because it reads the process-wide
//! hit counter: a concurrent `memo::clear()` from another test would
//! reset it mid-assertion.

mod common;

use brepl::core::{memo, select_strategies};
use brepl::ir::{FunctionBuilder, Module};
use brepl::sim::{Machine, RunConfig};
use common::Gen;

fn profile(module: &Module) -> brepl::trace::Trace {
    Machine::new(module, RunConfig::default())
        .unwrap()
        .run("main", &[])
        .expect("terminates")
        .trace
}

#[test]
fn per_branch_memo_hits_do_not_change_selection() {
    let mut g = Gen::new(0x3E31);
    let first = common::random_loop_module(g.next(), 3, 64);
    // The same branches behind a different module fingerprint: an extra,
    // never-called function misses the whole-selection tier while every
    // branch keeps its class and outcome stream.
    let mut second = first.clone();
    let mut unused = FunctionBuilder::new("unused", 0);
    unused.ret(None);
    second.push_function(unused.finish());
    assert_ne!(first.fingerprint(), second.fingerprint());
    let trace = profile(&second);

    memo::clear();
    let _ = select_strategies(&first, &profile(&first), 4);
    let before = memo::stats().1;
    let warm = select_strategies(&second, &trace, 4);
    let warm_hits = memo::stats().1 - before;

    memo::clear();
    let cold = select_strategies(&second, &trace, 4);
    let cold_hits = memo::stats().1;
    assert!(
        warm_hits > cold_hits,
        "the warm selection must reuse the first module's searches \
         ({warm_hits} hits warm, {cold_hits} cold)"
    );
    assert_eq!(warm, cold);
}

/// Every memo key is built from these fingerprints, so their values are
/// part of the memo's contract: the literals below were recorded once and
/// must not move when the hashing code is reorganized.
#[test]
fn fingerprints_are_pinned() {
    use brepl::trace::{packed_site_streams, PackedStream, Trace, TraceStats};

    let mut got = vec![
        Trace::new().fingerprint(),
        memo::fingerprint_packed(&PackedStream::new()),
    ];
    let mut g = Gen::new(0xF1A9);
    for _ in 0..3 {
        let module = common::random_loop_module(g.next(), 3, 64);
        let trace = profile(&module);
        let stats = TraceStats::from_trace(&trace);
        let (site, _) = stats
            .iter_executed()
            .max_by_key(|&(s, c)| (c.minority_count(), s.index()))
            .expect("a branch runs");
        let streams = packed_site_streams(&trace, &stats);
        got.push(module.fingerprint());
        let main = module.function_by_name("main").expect("main");
        got.push(module.function(main).fingerprint());
        got.push(trace.fingerprint());
        got.push(memo::fingerprint_packed(&streams[site.index()]));
    }
    assert_eq!(got, PINNED);
}

const PINNED: [(u64, u64); 14] = [
    // The empty trace and the empty outcome stream.
    (0xaf63bd4c8601b7df, 0xc146d09c2b62fae6),
    (0xaf63bd4c8601b7df, 0xc146d09c2b62fae6),
    // Seed 1: module, main, trace, one site's outcome stream.
    (0xef4b83065e66e515, 0x457d847c533a239e),
    (0x60c44e372d623084, 0x743da82c0257eeae),
    (0x78055596d45f7a44, 0xb974c824b4a93c9d),
    (0x9b1886f19fdb2f2d, 0xed9395f4564f4912),
    // Seed 2: module, main, trace, one site's outcome stream.
    (0x4af2aa1b484a4cd6, 0x981e95825973ba2e),
    (0xa2155324f1e06113, 0xa107e1207627263e),
    (0xc7350f9a29b30c84, 0x14fb7f64ff3152a2),
    (0x31996fff1d94c509, 0x005fe87ab73f441e),
    // Seed 3: module, main, trace, one site's outcome stream.
    (0x5e4e30dbb4bff131, 0xb8ba01161b7ed2c6),
    (0xb0e98fc1259268dc, 0xafa386f6b79cbc56),
    (0x256f368474c05718, 0x59f7c04f7cfca782),
    (0x59b4c63e1e9ef89d, 0x5d73527fa6e5e0a2),
];
