//! Quickstart: build a block, schedule it, extract features, and ask a
//! filter whether scheduling was worth it.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use schedfilter::prelude::*;

fn main() {
    // A block with classic load-use stalls and independent filler: the
    // kind of block the paper's filters learn to send to the scheduler.
    let mut block = BasicBlock::new(0);
    block.push(Inst::new(Opcode::Lwz).def(Reg::gpr(10)).use_(Reg::gpr(3)).mem(MemRef::slot(MemSpace::Heap, 0)));
    block.push(Inst::new(Opcode::Add).def(Reg::gpr(11)).use_(Reg::gpr(10)).use_(Reg::gpr(10)));
    block.push(Inst::new(Opcode::Lwz).def(Reg::gpr(12)).use_(Reg::gpr(3)).mem(MemRef::slot(MemSpace::Heap, 8)));
    block.push(Inst::new(Opcode::Add).def(Reg::gpr(13)).use_(Reg::gpr(12)).use_(Reg::gpr(11)));
    block.push(Inst::new(Opcode::Add).def(Reg::gpr(4)).use_(Reg::gpr(5)).use_(Reg::gpr(6)));
    block.push(Inst::new(Opcode::Add).def(Reg::gpr(7)).use_(Reg::gpr(8)).use_(Reg::gpr(8)));
    block.push(Inst::new(Opcode::Xor).def(Reg::gpr(9)).use_(Reg::gpr(5)).use_(Reg::gpr(8)));

    println!("original block:\n{block}");

    // The PowerPC 7410 model from the paper's experiments.
    let machine = MachineConfig::ppc7410();

    // Schedule with the paper's CPS list scheduler.
    let scheduler = ListScheduler::new(&machine);
    let outcome = scheduler.schedule_block(&block);
    println!(
        "estimated cycles: {} -> {} ({:+.1}%)",
        outcome.cycles_before,
        outcome.cycles_after,
        -100.0 * outcome.improvement()
    );
    println!("scheduled block:\n{}", outcome.apply(&block));

    // The Table 1 features the filter sees (one cheap pass, no DAG).
    let features = FeatureVector::extract(&block);
    println!("features: {features}");

    // A trivial hand-written filter, built straight into the engine that
    // deploys every filter; learned filters come from
    // `examples/train_filter.rs` and lower into the same engine.
    let filter = CompiledFilter::size_threshold(5);
    let verdict = if filter.decide(features.as_slice()) { "schedule it" } else { "skip it" };
    println!("{} filter says: {verdict}", filter.name());

    // The detailed simulator standing in for real hardware.
    let hw = PipelineSim::new(&machine);
    println!("detailed-simulator cycles: {} -> {}", hw.block_cycles(&block), hw.block_cycles(&outcome.apply(&block)));
}
