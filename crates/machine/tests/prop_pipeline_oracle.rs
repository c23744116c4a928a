//! The warm, event-driven [`PipelineSim`] against the cycle-by-cycle
//! simulator it replaced, as an executable oracle.
//!
//! The simulator moved from a per-call dependence scan over
//! `Vec<Vec<u32>>` predecessor lists and `HashMap<Reg, _>` register state,
//! stepping the clock one cycle at a time, to flat CSR predecessor arrays
//! and a dense register table in per-thread scratch, with a clock that
//! jumps over cycles in which nothing can issue. This suite keeps the old
//! scan and issue loop verbatim and checks the new simulator against it
//! cycle for cycle: on generated bodies that mix aliasing memory
//! accesses, serializing instructions, calls and branches, non-pipelined
//! divides (the long stalls the clock jumps over) and condition and
//! special registers, on every registry machine and on every window
//! depth from 1 to 32; and with one thread's scratch reused across blocks
//! of shrinking length, where stale predecessor, register or completion
//! state from a longer block would show.
//!
//! The old loop is kept verbatim but for its load rule. It used to clear
//! every pending load at any store, so a store could issue ahead of an
//! earlier load of its slot when a store to another slot sat between
//! them. The simulator now takes its ordering from the one dependence
//! scan it shares with the scheduler's graph, where a store retires only
//! the pending loads it covers, and the oracle's loop applies the same
//! rule.

#[path = "../../ir/tests/support/arb.rs"]
mod arb;

use arb::{arb_block, is_serializing, leak_probes};
use proptest::prelude::*;
use std::collections::HashMap;
use wts_ir::{Inst, Opcode, Reg, UnitClass};
use wts_machine::{FunctionalUnit, MachineConfig, PipelineSim};

/// Dependence edges precomputed from program order.
#[derive(Debug, Default, Clone)]
struct SimDeps {
    /// Predecessors whose *completion* must precede our issue.
    completion: Vec<Vec<u32>>,
    /// Predecessors whose *issue* must precede-or-equal our issue.
    issue: Vec<Vec<u32>>,
}

fn scan_deps(insts: &[Inst]) -> SimDeps {
    let n = insts.len();
    let mut deps = SimDeps { completion: vec![Vec::new(); n], issue: vec![Vec::new(); n] };
    let mut last_def: HashMap<Reg, u32> = HashMap::new();
    let mut uses_since_def: HashMap<Reg, Vec<u32>> = HashMap::new();
    let mut stores: Vec<u32> = Vec::new();
    let mut loads_since_store: Vec<u32> = Vec::new();
    let mut last_barrier: Option<u32> = None;
    let mut since_barrier: Vec<u32> = Vec::new();

    for (idx, inst) in insts.iter().enumerate() {
        let i = u32::try_from(idx).expect("simulated blocks are far below u32::MAX insts");
        let op = inst.opcode();
        // True data dependences.
        for u in inst.uses() {
            if let Some(&d) = last_def.get(u) {
                deps.completion[idx].push(d);
            }
            uses_since_def.entry(*u).or_default().push(i);
        }
        // Output and anti dependences on registers.
        for d in inst.defs() {
            if let Some(&p) = last_def.get(d) {
                deps.issue[idx].push(p);
            }
            if let Some(readers) = uses_since_def.get(d) {
                for &r in readers {
                    if r != i {
                        deps.issue[idx].push(r);
                    }
                }
            }
        }
        // Memory ordering.
        if let Some(m) = inst.mem_ref() {
            for &s in &stores {
                let sm = insts[s as usize].mem_ref().expect("stores carry mem refs");
                if m.may_alias(sm) {
                    deps.completion[idx].push(s);
                }
            }
            if op.is_store() {
                for &l in &loads_since_store {
                    let lm = insts[l as usize].mem_ref().expect("loads carry mem refs");
                    if m.may_alias(lm) {
                        deps.issue[idx].push(l);
                    }
                }
            }
        }
        // Serializing instructions.
        if let Some(b) = last_barrier {
            deps.completion[idx].push(b);
        }
        if is_serializing(op) {
            for &p in &since_barrier {
                deps.completion[idx].push(p);
            }
            last_barrier = Some(i);
            since_barrier.clear();
        } else {
            since_barrier.push(i);
        }
        // Update write state last.
        for d in inst.defs() {
            last_def.insert(*d, i);
            uses_since_def.insert(*d, Vec::new());
        }
        if op.is_store() {
            stores.push(i);
            // A store retires only the pending loads it covers.
            let m = inst.mem_ref().expect("stores carry mem refs");
            loads_since_store.retain(|&l| !m.covers(insts[l as usize].mem_ref().expect("loads carry mem refs")));
        } else if op.is_load() {
            loads_since_store.push(i);
        }
    }
    deps
}

/// The cycle-by-cycle issue loop (the dead fetch-bandwidth local
/// dropped).
fn oracle_cycles(machine: &MachineConfig, insts: &[Inst]) -> u64 {
    let n = insts.len();
    if n == 0 {
        return 0;
    }
    let deps = scan_deps(insts);
    let lat = machine.latencies();
    let window = machine.window();

    let mut issue: Vec<Option<u64>> = vec![None; n];
    let mut done: Vec<u64> = vec![0; n];
    let mut unit_free = [0u64; FunctionalUnit::COUNT];
    let mut oldest = 0usize; // first unissued instruction
    let mut cycle: u64 = 0;
    let mut max_done: u64 = 0;

    // Cap runaway loops: every instruction must issue within a bounded
    // horizon (sum of all latencies plus the block length is a safe
    // over-estimate).
    let horizon: u64 = insts.iter().map(|i| lat.latency(i.opcode()) as u64).sum::<u64>() + n as u64 + 64;

    while oldest < n {
        assert!(cycle <= horizon, "pipeline simulator failed to make progress");
        let mut nonbranch_budget = machine.issue_width();
        let mut branch_budget = machine.branch_width();
        // The selector may look `window` instructions past the oldest
        // unissued one; issuing the oldest slides the window within
        // the same cycle (in-order front end, OoO selection).
        let mut progress = true;
        while progress && (nonbranch_budget > 0 || branch_budget > 0) && oldest < n {
            progress = false;
            let limit = (oldest + window).min(n);
            for i in oldest..limit {
                if issue[i].is_some() {
                    continue;
                }
                let op = insts[i].opcode();
                let is_branch_unit = op.unit_class() == UnitClass::Branch;
                let budget = if is_branch_unit { &mut branch_budget } else { &mut nonbranch_budget };
                if *budget == 0 {
                    continue;
                }
                let ready =
                    deps.completion[i].iter().all(|&p| issue[p as usize].is_some() && done[p as usize] <= cycle)
                        && deps.issue[i].iter().all(|&p| issue[p as usize].is_some());
                if !ready {
                    continue;
                }
                let units = machine.units_for(op.unit_class());
                let Some(u) = units.iter().find(|u| unit_free[u.index()] <= cycle) else {
                    continue;
                };
                issue[i] = Some(cycle);
                done[i] = cycle + lat.latency(op) as u64;
                max_done = max_done.max(done[i]);
                unit_free[u.index()] = cycle + lat.unit_occupancy(op) as u64;
                *budget -= 1;
                progress = true;
            }
            while oldest < n && issue[oldest].is_some() {
                oldest += 1;
            }
        }
        cycle += 1;
    }
    max_done
}

/// `machine` with its out-of-order window replaced by `window`.
fn with_window(machine: &MachineConfig, window: usize) -> MachineConfig {
    let units = UnitClass::ALL.map(|class| (class, machine.units_for(class)));
    MachineConfig::new(
        format!("{}-w{window}", machine.name()),
        machine.issue_width(),
        machine.branch_width(),
        window,
        machine.latencies().clone(),
        units,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Every registry machine, as registered and re-windowed to a
    /// generated depth, simulates every generated body exactly like the
    /// cycle-by-cycle loop.
    #[test]
    fn event_driven_sim_matches_the_cycle_by_cycle_loop(insts in arb_block(40), window in 1usize..=32) {
        for machine in wts_machine::registry() {
            for m in [with_window(&machine, window), machine] {
                prop_assert_eq!(
                    PipelineSim::new(&m).sequence_cycles(&insts),
                    oracle_cycles(&m, &insts),
                    "{} window {}", m.name(), m.window()
                );
            }
        }
    }

    /// One thread's scratch replays the leak probes and then generated
    /// blocks of shrinking length, and every block still costs what a
    /// fresh cycle-by-cycle simulation says.
    #[test]
    fn reused_scratch_replays_shrinking_blocks_exactly(mut blocks in prop::collection::vec(arb_block(40), 1..6)) {
        blocks.sort_by_key(|b| std::cmp::Reverse(b.len()));
        for machine in wts_machine::registry() {
            let sim = PipelineSim::new(&machine);
            for insts in leak_probes().iter().chain(&blocks) {
                prop_assert_eq!(sim.sequence_cycles(insts), oracle_cycles(&machine, insts), "{}", machine.name());
            }
        }
    }
}

/// Long non-pipelined chains: the stalls the event-driven clock skips
/// span dozens of cycles, and contention for the one divider must still
/// land every divide on the same cycle as stepping would.
#[test]
fn divider_contention_matches_across_windows() {
    let mut insts = Vec::new();
    for k in 0..6u16 {
        insts.push(Inst::new(Opcode::Fdiv).def(Reg::fpr(k)).use_(Reg::fpr(k + 10)).use_(Reg::fpr(k + 11)));
        insts.push(Inst::new(Opcode::Divw).def(Reg::gpr(k)).use_(Reg::gpr(k + 10)).use_(Reg::gpr(k + 11)));
        insts.push(Inst::new(Opcode::Fadd).def(Reg::fpr(k + 20)).use_(Reg::fpr(k)).use_(Reg::fpr(k)));
    }
    for machine in wts_machine::registry() {
        for window in 1..=32 {
            let m = with_window(&machine, window);
            assert_eq!(PipelineSim::new(&m).sequence_cycles(&insts), oracle_cycles(&m, &insts), "{}", m.name());
        }
    }
}
