//! Property-based tests for the list scheduler: every schedule is a
//! dependence-respecting permutation that the cost model rates no worse
//! than the original order, for every policy.

use proptest::prelude::*;
use wts_deps::DepGraph;
use wts_ir::{Hazards, Inst, MemRef, MemSpace, Opcode, Reg};
use wts_machine::{registry, CostModel, MachineConfig};
use wts_sched::{verify_schedule, ListScheduler, SchedScratch, ScheduleOutcome, SchedulePolicy};

/// Blocks mixing ALU/memory/hazard/control instructions; a terminator, if
/// generated, is forced to the end (as the IR requires).
fn arb_block(max: usize) -> impl Strategy<Value = Vec<Inst>> {
    let body = prop::collection::vec(
        (0u8..8, 0u16..6, 0u16..6, 0u32..3, prop::bool::ANY).prop_map(|(kind, a, b, slot, pei)| match kind {
            0 | 1 => Inst::new(Opcode::Add).def(Reg::gpr(a + 10)).use_(Reg::gpr(b)).use_(Reg::gpr(a)),
            2 => Inst::new(Opcode::Fmul).def(Reg::fpr(a + 1)).use_(Reg::fpr(b)).use_(Reg::fpr(a)),
            3 => {
                let mut i = Inst::new(Opcode::Lwz)
                    .def(Reg::gpr(a + 10))
                    .use_(Reg::gpr(b))
                    .mem(MemRef::slot(MemSpace::Heap, slot));
                if pei {
                    i = i.hazard(Hazards::PEI);
                }
                i
            }
            4 => Inst::new(Opcode::Stw).use_(Reg::gpr(a)).use_(Reg::gpr(b)).mem(MemRef::slot(MemSpace::Heap, slot)),
            5 => Inst::new(Opcode::Divw).def(Reg::gpr(a + 10)).use_(Reg::gpr(b)).use_(Reg::gpr(a)),
            6 => Inst::new(Opcode::Bl).def(Reg::lr()).hazard(Hazards::GC_POINT),
            _ => Inst::new(Opcode::YieldPoint).hazard(Hazards::YIELD | Hazards::GC_POINT),
        }),
        0..max,
    );
    (body, prop::option::of(prop::sample::select(vec![Opcode::B, Opcode::Bc, Opcode::Blr]))).prop_map(
        |(mut insts, term)| {
            if let Some(t) = term {
                let mut inst = Inst::new(t);
                if t == Opcode::Bc {
                    inst = inst.use_(Reg::cr(0));
                }
                if t == Opcode::Blr {
                    inst = inst.use_(Reg::lr());
                }
                insts.push(inst);
            }
            insts
        },
    )
}

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
