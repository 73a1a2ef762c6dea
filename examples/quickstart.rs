//! Quickstart: build a tiny program with an alternating branch, run the
//! full profile → replicate pipeline, and print the before/after numbers.
//!
//! Run with `cargo run --example quickstart`.

use brepl::ir::{FunctionBuilder, Module, Operand};
use brepl::pipeline::{run_pipeline, PipelineConfig};

fn main() {
    // for i in 0..1000 { if i % 2 == 0 { a += 3 } else { a += 5 } }
    let mut b = FunctionBuilder::new("main", 0);
    let i = b.reg();
    let acc = b.reg();
    b.const_int(i, 0);
    b.const_int(acc, 0);
    let head = b.new_block();
    let even = b.new_block();
    let odd = b.new_block();
    let latch = b.new_block();
    let exit = b.new_block();
    b.jmp(head);
    b.switch_to(head);
    let r = b.reg();
    b.rem(r, i.into(), Operand::imm(2));
    let c = b.eq(r.into(), Operand::imm(0));
    b.br(c, even, odd);
    b.switch_to(even);
    b.add(acc, acc.into(), Operand::imm(3));
    b.jmp(latch);
    b.switch_to(odd);
    b.add(acc, acc.into(), Operand::imm(5));
    b.jmp(latch);
    b.switch_to(latch);
    b.add(i, i.into(), Operand::imm(1));
    let more = b.lt(i.into(), Operand::imm(1000));
    b.br(more, head, exit);
    b.switch_to(exit);
    b.out(acc.into());
    b.ret(Some(acc.into()));

    let mut module = Module::new();
    module.push_function(b.finish());
    module.verify().expect("valid module");

    let result =
        run_pipeline(&module, &[], &[], PipelineConfig::default()).expect("pipeline succeeds");

    println!("branch events profiled : {}", result.trace_events);
    println!(
        "profile misprediction  : {:.2}%",
        result.profile_misprediction_percent
    );
    println!(
        "after replication      : {:.2}%",
        result.replicated_misprediction_percent
    );
    println!("code size growth       : {:.2}x", result.size_growth);
    println!("branches replicated    : {}", result.replicated_sites.len());
    println!();
    println!("replicated program:\n{}", result.program.module);
}
