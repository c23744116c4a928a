//! Superblock scheduling — the paper's deferred extension (§3.1):
//! merge profile-hot fall-through chains into straight-line traces and
//! let the scheduler speculate pure computation across the side exits.
//!
//! ```text
//! cargo run --release --example superblocks [-- <scale>]
//! ```

use schedfilter::ir::form_superblocks;
use schedfilter::jit::superblock_gain;
use schedfilter::prelude::*;

fn main() {
    let scale: f64 = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(0.1);
    let machine = MachineConfig::ppc7410();
    let suite = Suite::fp(scale);

    println!("superblock vs local scheduling on the FP suite (scale {scale}):\n");
    println!(
        "{:<10} {:>8} {:>12} {:>12} {:>12} {:>8}",
        "benchmark", "traces", "unsched", "local", "superblock", "extra"
    );
    for bench in suite.benchmarks() {
        let g = superblock_gain(bench.program(), &machine, 70);
        println!(
            "{:<10} {:>8} {:>12} {:>12} {:>12} {:>7.2}%",
            bench.name(),
            g.merged_traces,
            g.unscheduled,
            g.local,
            g.superblock,
            100.0 * g.extra_improvement(),
        );
    }

    // Show one concrete trace being formed and scheduled.
    let program = suite.benchmarks()[0].program();
    let method = program
        .methods()
        .iter()
        .max_by_key(|m| form_superblocks(m, 70).into_iter().map(|sb| sb.width()).max().unwrap_or(0))
        .expect("suite has methods");
    let sbs = form_superblocks(method, 70);
    let widest = sbs.iter().max_by_key(|sb| sb.width()).expect("method has traces");
    println!(
        "\nwidest trace in {}: {} blocks, {} instructions, exec weight {}",
        method.name(),
        widest.width(),
        widest.insts.len(),
        widest.exec_count,
    );
    let scheduler = ListScheduler::new(&machine);
    let local = scheduler.schedule_insts(&widest.insts);
    let speculative = scheduler.schedule_superblock(&widest.insts);
    println!(
        "estimated cycles: unscheduled {}, local-barrier schedule {}, speculative schedule {}",
        local.cycles_before, local.cycles_after, speculative.cycles_after,
    );

    // The scope axis: run the whole trace→label→train pipeline per
    // formed trace instead of per block, on the same corpus.
    let programs: Vec<Program> = suite.benchmarks().iter().map(|b| b.program().clone()).collect();
    let run = Experiment::new(machine.clone()).with_scope(ScopeKind::Superblock(70)).run(programs);
    let merged = run.all_traces().iter().filter(|r| r.features.get(FeatureKind::TraceWidth) > 1.0).count();
    println!(
        "\nsuperblock-scope pipeline: {} trace records ({} merged), filter {}",
        run.all_traces().len(),
        merged,
        run.loocv_filters(0)[0].1.name(),
    );
    println!("\nThe paper reports superblocks add only 1-2% over local scheduling — the");
    println!("filter question (whether to schedule at all) matters more than trace scope.");
    println!("`repro superblock` compares both scopes on every registry machine.");
}
