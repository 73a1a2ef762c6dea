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
    // branch keeps its class, table and outcome stream.
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
