//! Property tests pinning the scheduler's incremental ready-list
//! bookkeeping to the dependence graph's declarative
//! [`DepGraph::ready`]: replaying any schedule the list scheduler emits
//! while maintaining `remaining_preds` counters exactly as the
//! scheduler does must, at every step, agree with `ready(&mask)`
//! recomputed from scratch — on random instruction sequences, for every
//! machine in the registry.

#[path = "../../ir/tests/support/arb.rs"]
mod arb;

use arb::arb_block;
use proptest::prelude::*;
use wts_deps::DepGraph;
use wts_machine::registry;
use wts_sched::{ListScheduler, SchedulePolicy};

/// Replays `order`, maintaining the scheduler's incremental bookkeeping
/// (`remaining_preds` counters + an unordered ready list), and checks it
/// against `DepGraph::ready` recomputed from the scheduled mask at every
/// step. Returns an error description on the first disagreement.
fn check_replay(graph: &DepGraph, order: &[usize]) -> Result<(), String> {
    let n = graph.len();
    let mut scheduled = vec![false; n];
    let mut remaining_preds: Vec<usize> = (0..n).map(|i| graph.preds(i).len()).collect();
    let mut ready: Vec<usize> = (0..n).filter(|&i| remaining_preds[i] == 0).collect();

    for (step, &chosen) in order.iter().enumerate() {
        let mut incremental = ready.clone();
        incremental.sort_unstable();
        let declarative = graph.ready(&scheduled);
        if incremental != declarative {
            return Err(format!("step {step}: incremental {incremental:?} != declarative {declarative:?}"));
        }
        let Some(pos) = ready.iter().position(|&i| i == chosen) else {
            return Err(format!("step {step}: scheduler chose {chosen} which is not ready"));
        };
        ready.swap_remove(pos);
        scheduled[chosen] = true;
        for s in graph.succs(chosen) {
            remaining_preds[s] -= 1;
            if remaining_preds[s] == 0 {
                ready.push(s);
            }
        }
    }
    if !graph.ready(&scheduled).is_empty() {
        return Err("instructions still ready after a complete schedule".into());
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn ready_agrees_with_incremental_bookkeeping_on_every_machine(insts in arb_block(12)) {
        let graph = DepGraph::build(&insts);
        for machine in registry() {
            for policy in [SchedulePolicy::CriticalPath, SchedulePolicy::EarliestStart, SchedulePolicy::Random(17)] {
                let out = ListScheduler::with_policy(&machine, policy).schedule_insts(&insts);
                if let Err(e) = check_replay(&graph, &out.order) {
                    prop_assert!(false, "{} / {policy}: {e}", machine.name());
                }
            }
        }
    }

    #[test]
    fn superblock_schedules_replay_against_the_speculative_graph(insts in arb_block(12)) {
        let graph = DepGraph::build_speculative(&insts);
        for machine in registry() {
            let out = ListScheduler::new(&machine).schedule_superblock(&insts);
            if let Err(e) = check_replay(&graph, &out.order) {
                prop_assert!(false, "{}: {e}", machine.name());
            }
        }
    }
}
