//! Integration coverage of the extension APIs (superblocks, adaptive
//! compilation, speculative scheduling) through the facade crate.

use schedfilter::deps::DepGraph;
use schedfilter::ir::form_superblocks;
use schedfilter::jit::{app_cycles, superblock_gain, CompileSession};
use schedfilter::prelude::*;

#[test]
fn speculative_graphs_are_weaker_than_normal_graphs() {
    // Every speculative edge set is a subset of the normal one: any
    // legal normal schedule is also a legal speculative schedule.
    let suite = Suite::fp(0.02);
    let mut checked = 0;
    for bench in suite.benchmarks() {
        for (_, block) in bench.program().iter_blocks().take(100) {
            let normal = DepGraph::build(block.insts());
            let spec = DepGraph::build_speculative(block.insts());
            for i in 0..normal.len() {
                for s in spec.succs(i) {
                    assert!(normal.has_edge(i, s), "speculative edge {i}->{s} missing from the normal graph");
                }
            }
            checked += 1;
        }
    }
    assert!(checked >= 100);
}

#[test]
fn superblock_pipeline_end_to_end() {
    let machine = MachineConfig::ppc7410();
    let suite = Suite::fp(0.03);
    let program = suite.benchmarks()[1].program();

    // Formation covers every block exactly once per method.
    for method in program.methods() {
        let sbs = form_superblocks(method, 70);
        let covered: usize = sbs.iter().map(|sb| sb.width()).sum();
        assert_eq!(covered, method.blocks().len());
        let mut ids: Vec<u32> = sbs.iter().flat_map(|sb| sb.block_ids.iter().copied()).collect();
        ids.sort_unstable();
        let mut expect: Vec<u32> = method.blocks().iter().map(|b| b.id().0).collect();
        expect.sort_unstable();
        assert_eq!(ids, expect, "superblocks partition the method");
    }

    let g = superblock_gain(program, &machine, 70);
    assert!(g.superblock <= g.local && g.local <= g.unscheduled);
}

#[test]
fn adaptive_jit_with_filter_is_cheapest_configuration() {
    let machine = MachineConfig::ppc7410();
    let suite = Suite::specjvm98(0.04);
    let program = suite.benchmarks()[0].program();
    let session = CompileSession::new(&machine);

    let (_, full) = session.compile(program, &CompiledFilter::always(), 1);
    let (_, hot_ls) = session.compile_adaptive(program, &CompiledFilter::always(), 100);
    let filter = CompiledFilter::size_threshold(8);
    let (compiled, hot_ln) = session.compile_adaptive(program, &filter, 100);

    assert!(hot_ls.scheduled_blocks < full.scheduled_blocks);
    assert!(hot_ln.scheduled_blocks <= hot_ls.scheduled_blocks);
    assert!(app_cycles(&compiled, &machine) <= app_cycles(program, &machine));
    compiled.validate().expect("adaptive output validates");
}

#[test]
fn speculative_scheduling_wins_in_aggregate() {
    // Greedy scheduling with extra freedom can lose on an individual
    // trace (superblock_gain clamps those), but per trace it can never
    // be worse than the unscheduled order, and across the corpus it must
    // come out ahead of barrier-respecting scheduling.
    let machine = MachineConfig::ppc7410();
    let suite = Suite::fp(0.02);
    let scheduler = ListScheduler::new(&machine);
    let mut local_total = 0u64;
    let mut spec_total = 0u64;
    for bench in suite.benchmarks().iter().take(2) {
        for method in bench.program().methods().iter().take(30) {
            for sb in form_superblocks(method, 70) {
                let local = scheduler.schedule_insts(&sb.insts);
                let spec = scheduler.schedule_superblock(&sb.insts);
                assert!(spec.cycles_after <= spec.cycles_before, "guard must hold");
                local_total += local.cycles_after;
                spec_total += spec.cycles_after;
            }
        }
    }
    assert!(spec_total <= local_total, "speculation should win in aggregate: {spec_total} vs {local_total}");
}
