//! Property-based tests for the list scheduler: every schedule is a
//! dependence-respecting permutation that the cost model rates no worse
//! than the original order, for every policy.

#[path = "../../ir/tests/support/arb.rs"]
mod arb;

use arb::arb_block;
use proptest::prelude::*;
use wts_deps::DepGraph;
use wts_ir::Inst;
use wts_machine::{registry, CostModel, MachineConfig};
use wts_sched::{verify_schedule, ListScheduler, SchedScratch, ScheduleOutcome, SchedulePolicy};

fn policies() -> Vec<SchedulePolicy> {
    vec![
        SchedulePolicy::CriticalPath,
        SchedulePolicy::EarliestStart,
        SchedulePolicy::CriticalPathOnly,
        SchedulePolicy::Random(99),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn schedules_are_legal_permutations(insts in arb_block(14)) {
        let m = MachineConfig::ppc7410();
        for policy in policies() {
            let out = ListScheduler::with_policy(&m, policy).schedule_insts(&insts);
            prop_assert!(
                verify_schedule(&DepGraph::build(&insts), &out.order).is_empty(),
                "{}: illegal schedule {:?}",
                policy,
                out.order
            );
        }
    }

    #[test]
    fn cps_never_degrades_the_estimate(insts in arb_block(14)) {
        let m = MachineConfig::ppc7410();
        let out = ListScheduler::new(&m).schedule_insts(&insts);
        prop_assert!(out.cycles_after <= out.cycles_before);
        // And the reported costs are truthful.
        let cm = CostModel::new(&m);
        prop_assert_eq!(out.cycles_before, cm.sequence_cycles(&insts));
        let scheduled: Vec<Inst> = out.order.iter().map(|&i| insts[i]).collect();
        prop_assert_eq!(out.cycles_after, cm.sequence_cycles(&scheduled));
    }

    #[test]
    fn schedule_cannot_beat_dependence_height(insts in arb_block(14)) {
        let m = MachineConfig::ppc7410();
        let cm = CostModel::new(&m);
        let out = ListScheduler::new(&m).schedule_insts(&insts);
        prop_assert!(out.cycles_after >= cm.dependence_height(&insts));
    }

    #[test]
    fn terminator_stays_terminal(insts in arb_block(12)) {
        prop_assume!(insts.last().is_some_and(|i| i.opcode().is_terminator()));
        let m = MachineConfig::ppc7410();
        for policy in policies() {
            let out = ListScheduler::with_policy(&m, policy).schedule_insts(&insts);
            prop_assert_eq!(*out.order.last().unwrap(), insts.len() - 1, "{}", policy);
        }
    }

    #[test]
    fn scheduling_is_idempotent_for_cps(insts in arb_block(14)) {
        // Re-scheduling an already-scheduled block must not change cost.
        let m = MachineConfig::ppc7410();
        let s = ListScheduler::new(&m);
        let once = s.schedule_insts(&insts);
        let scheduled: Vec<Inst> = once.order.iter().map(|&i| insts[i]).collect();
        let twice = s.schedule_insts(&scheduled);
        prop_assert_eq!(twice.cycles_after, once.cycles_after);
    }

    #[test]
    fn cps_at_least_matches_random(insts in arb_block(14)) {
        let m = MachineConfig::ppc7410();
        let cps = ListScheduler::new(&m).schedule_insts(&insts);
        let rand = ListScheduler::with_policy(&m, SchedulePolicy::Random(3)).schedule_insts(&insts);
        prop_assert!(cps.cycles_after <= rand.cycles_after.max(cps.cycles_before));
    }

    /// The allocation-free entry points are the hot path; they must be
    /// outcome-identical to the one-shot API on every registry machine
    /// and every policy — including `Random`, whose ready-queue draws
    /// would expose any divergence in graph slice order or scratch reuse.
    #[test]
    fn scratch_path_equals_one_shot_everywhere(blocks in prop::collection::vec(arb_block(12), 1..4), seed in 0u64..u64::MAX) {
        for m in registry() {
            for policy in [
                SchedulePolicy::CriticalPath,
                SchedulePolicy::EarliestStart,
                SchedulePolicy::CriticalPathOnly,
                SchedulePolicy::Random(seed),
            ] {
                let s = ListScheduler::with_policy(&m, policy);
                // One scratch/outcome pair survives the whole sequence,
                // so any state leaking between schedules diverges here.
                let mut scratch = SchedScratch::new(&m);
                let mut out = ScheduleOutcome::default();
                for insts in &blocks {
                    s.schedule_insts_into(insts, &mut scratch, &mut out);
                    prop_assert_eq!(&out, &s.schedule_insts(insts), "{} block path diverged", policy);
                    s.schedule_superblock_into(insts, &mut scratch, &mut out);
                    prop_assert_eq!(&out, &s.schedule_superblock(insts), "{} superblock path diverged", policy);
                }
            }
        }
    }
}
