//! Property-based tests for the two simulators: bounds, monotonicity,
//! order sensitivity, and a long-lived issue state that must never leak
//! one block's state into the next.

#[path = "../../ir/tests/support/arb.rs"]
mod arb;

use arb::{arb_block, leak_probes};
use proptest::prelude::*;
use wts_ir::{Inst, Opcode, Reg};
use wts_machine::{CostModel, IssueState, MachineConfig, PipelineSim};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// One long-lived issue state replays block after block and must
    /// agree with a fresh cost model every time, both through `replay`
    /// and through `reset` plus issue-by-issue commits, where every
    /// `earliest_issue` query must equal the cycle `issue` then commits.
    #[test]
    fn reset_state_replays_like_fresh(blocks in prop::collection::vec(arb_block(12), 1..6)) {
        let m = MachineConfig::ppc7410();
        let cm = CostModel::new(&m);
        let mut st = IssueState::new(&m);
        for insts in leak_probes().iter().chain(&blocks) {
            let fresh = cm.sequence_cycles(insts);
            prop_assert_eq!(st.replay(insts), fresh, "no state may leak through reset");
            st.reset();
            for inst in insts {
                let e = st.earliest_issue(inst);
                prop_assert_eq!(st.issue(inst), e);
            }
            prop_assert_eq!(st.completion_time(), fresh);
        }
    }

    #[test]
    fn cost_is_at_least_dependence_height(insts in arb_block(16)) {
        let m = MachineConfig::ppc7410();
        let cm = CostModel::new(&m);
        let h = cm.dependence_height(&insts);
        prop_assert!(cm.sequence_cycles(&insts) >= h);
        prop_assert!(PipelineSim::new(&m).sequence_cycles(&insts) >= h);
    }

    #[test]
    fn cost_is_at_most_serial_sum(insts in arb_block(16)) {
        // No schedule can be slower than "one instruction at a time,
        // each waiting for everything before it to complete".
        let m = MachineConfig::ppc7410();
        let serial: u64 = insts.iter().map(|i| m.latency(i.opcode()) as u64).sum();
        prop_assert!(CostModel::new(&m).sequence_cycles(&insts) <= serial.max(1) * 2,
            "in-order cost wildly exceeds serial sum");
        prop_assert!(PipelineSim::new(&m).sequence_cycles(&insts) <= serial.max(1) * 2);
    }

    #[test]
    fn adding_an_instruction_never_speeds_the_block_up(insts in arb_block(12)) {
        prop_assume!(!insts.is_empty());
        let m = MachineConfig::ppc7410();
        let cm = CostModel::new(&m);
        let full = cm.sequence_cycles(&insts);
        let prefix = cm.sequence_cycles(&insts[..insts.len() - 1]);
        prop_assert!(full >= prefix, "{full} < {prefix}");
    }

    #[test]
    fn identical_independent_ops_are_order_invariant(n in 1usize..10, seed in 0u64..100) {
        // n adds over disjoint registers: any permutation costs the same.
        let m = MachineConfig::ppc7410();
        let insts: Vec<Inst> = (0..u16::try_from(n).unwrap())
            .map(|i| Inst::new(Opcode::Add).def(Reg::gpr(10 + i)).use_(Reg::gpr(1)).use_(Reg::gpr(2)))
            .collect();
        let mut shuffled = insts.clone();
        let mut s = seed + 1;
        for i in (1..shuffled.len()).rev() {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
            shuffled.swap(i, (s >> 33) as usize % (i + 1));
        }
        let cm = CostModel::new(&m);
        prop_assert_eq!(cm.sequence_cycles(&insts), cm.sequence_cycles(&shuffled));
    }

    #[test]
    fn pipeline_window_one_matches_in_order(insts in arb_block(12)) {
        let m = MachineConfig::simple_scalar();
        prop_assert_eq!(
            PipelineSim::new(&m).sequence_cycles(&insts),
            CostModel::new(&m).sequence_cycles(&insts)
        );
    }

    #[test]
    fn wider_window_never_hurts(insts in arb_block(14)) {
        // ppc7410 (window 8) vs the same machine fully in-order.
        let wide = MachineConfig::ppc7410();
        let ooo = PipelineSim::new(&wide).sequence_cycles(&insts);
        let inorder = CostModel::new(&wide).sequence_cycles(&insts);
        prop_assert!(ooo <= inorder, "window made things slower: {ooo} > {inorder}");
    }

    #[test]
    fn simulators_are_deterministic(insts in arb_block(14)) {
        let m = MachineConfig::ppc7410();
        let cm = CostModel::new(&m);
        let ps = PipelineSim::new(&m);
        prop_assert_eq!(cm.sequence_cycles(&insts), cm.sequence_cycles(&insts));
        prop_assert_eq!(ps.sequence_cycles(&insts), ps.sequence_cycles(&insts));
    }
}
