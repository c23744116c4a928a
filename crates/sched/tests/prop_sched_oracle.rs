//! The table-driven issue model and the incremental list scheduler
//! against the versions they replaced, as an executable oracle.
//!
//! The in-order issue model moved from re-deriving each opcode's unit
//! class, kind, latency and occupancy on every query, and searching for a
//! slot one cycle at a time from the last issue, to one timing-table row
//! per opcode and a closed-form slot. The list scheduler moved from
//! re-querying every ready candidate's earliest issue cycle on every pick
//! to caching each candidate's data-ready cycle and refreshing it only
//! when an issue can have moved it. This suite keeps the old issue state
//! (its `find_slot` loop and `last_issue` field) and the old `select` /
//! `key` loop verbatim and checks the new code against them: equal
//! [`ScheduleOutcome`]s on every registry machine (plus one whose branch
//! width binds) under all four policies, through the block and
//! superblock `*_into` entry points with one scratch reused across
//! blocks of shrinking length; equal `replay` costs; every
//! `earliest_issue` answer equal to the cycle `issue` then commits; and
//! the cache rule on its own terms: at every select of both caching
//! policies, every ready candidate's cached data-ready cycle equals a
//! fresh one.

#[path = "../../ir/tests/support/arb.rs"]
mod arb;

use arb::{arb_block, is_serializing};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::cmp::Reverse;
use wts_deps::{critical_paths, DepGraph};
use wts_ir::{Inst, MemRef, Opcode, Reg, RegTable, UnitClass};
use wts_machine::{FunctionalUnit, IssueState, MachineConfig};
use wts_sched::{ListScheduler, SchedScratch, ScheduleOutcome, SchedulePolicy};

/// The issue state as it was: per-query opcode derivations and a
/// step-by-one slot search from the last issue cycle.
struct OldIssueState<'m> {
    machine: &'m MachineConfig,
    reg_ready: RegTable<u64>,
    unit_free: [u64; FunctionalUnit::COUNT],
    store_done: Vec<(MemRef, u64)>,
    load_issued: Vec<(MemRef, u64)>,
    barrier_floor: u64,
    max_completion: u64,
    last_issue: u64,
    cur_cycle: u64,
    nonbranch_in_cycle: u32,
    branch_in_cycle: u32,
}

impl<'m> OldIssueState<'m> {
    fn new(machine: &'m MachineConfig) -> OldIssueState<'m> {
        OldIssueState {
            machine,
            reg_ready: RegTable::new(),
            unit_free: [0; FunctionalUnit::COUNT],
            store_done: Vec::new(),
            load_issued: Vec::new(),
            barrier_floor: 0,
            max_completion: 0,
            last_issue: 0,
            cur_cycle: 0,
            nonbranch_in_cycle: 0,
            branch_in_cycle: 0,
        }
    }

    fn replay(machine: &'m MachineConfig, insts: &[Inst]) -> u64 {
        let mut st = OldIssueState::new(machine);
        for inst in insts {
            st.issue(inst);
        }
        st.max_completion
    }

    fn ready_cycle(&self, inst: &Inst) -> u64 {
        let mut ready = self.barrier_floor;
        for &u in inst.uses() {
            if let Some(t) = self.reg_ready.get(u) {
                ready = ready.max(t);
            }
        }
        let op = inst.opcode();
        if let Some(m) = inst.mem_ref() {
            for &(w, done) in &self.store_done {
                if m.may_alias(w) {
                    ready = ready.max(done);
                }
            }
            if op.is_store() {
                for &(r, issued) in &self.load_issued {
                    if m.may_alias(r) {
                        ready = ready.max(issued);
                    }
                }
            }
        }
        if is_serializing(op) {
            ready = ready.max(self.max_completion);
        }
        ready
    }

    fn find_slot(&self, inst: &Inst) -> (u64, FunctionalUnit) {
        let op = inst.opcode();
        let is_branch_unit = op.unit_class() == UnitClass::Branch;
        let units = self.machine.units_for(op.unit_class());
        let mut c = self.ready_cycle(inst).max(self.last_issue);
        loop {
            let width_ok = if c > self.cur_cycle {
                true
            } else if is_branch_unit {
                self.branch_in_cycle < self.machine.branch_width()
            } else {
                self.nonbranch_in_cycle < self.machine.issue_width()
            };
            if width_ok {
                if let Some(u) = units.iter().find(|u| self.unit_free[u.index()] <= c) {
                    return (c, u);
                }
            }
            c += 1;
        }
    }

    fn earliest_issue(&self, inst: &Inst) -> u64 {
        self.find_slot(inst).0
    }

    fn issue(&mut self, inst: &Inst) -> u64 {
        let op = inst.opcode();
        let (c, unit) = self.find_slot(inst);
        if c > self.cur_cycle {
            self.cur_cycle = c;
            self.nonbranch_in_cycle = 0;
            self.branch_in_cycle = 0;
        }
        if op.unit_class() == UnitClass::Branch {
            self.branch_in_cycle += 1;
        } else {
            self.nonbranch_in_cycle += 1;
        }
        let lat = self.machine.latencies().latency(op) as u64;
        let occupancy = self.machine.latencies().unit_occupancy(op) as u64;
        self.unit_free[unit.index()] = c + occupancy;
        self.last_issue = c;
        let done = c + lat;
        self.max_completion = self.max_completion.max(done);
        for &d in inst.defs() {
            self.reg_ready.set(d, done);
        }
        if let Some(m) = inst.mem_ref() {
            if op.is_store() {
                self.store_done.push((m, done));
                self.load_issued.clear();
            } else {
                self.load_issued.push((m, c));
            }
        }
        if is_serializing(op) {
            self.barrier_floor = done;
        }
        c
    }
}

/// The random policy's xorshift64*, as the scheduler seeds and draws it.
struct XorShift64(u64);

impl XorShift64 {
    fn pick(&mut self, n: usize) -> usize {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        usize::try_from(x.wrapping_mul(0x2545_F491_4F6C_DD1D) % n as u64).expect("residue mod a usize fits usize")
    }
}

/// The scheduler as it was: every pick re-derives every ready
/// candidate's earliest issue cycle, and the winner is issued by a fresh
/// slot search.
fn old_schedule(machine: &MachineConfig, policy: SchedulePolicy, insts: &[Inst], speculative: bool) -> ScheduleOutcome {
    let n = insts.len();
    let cycles_before = OldIssueState::replay(machine, insts);
    if n <= 1 {
        return ScheduleOutcome { order: (0..n).collect(), cycles_before, cycles_after: cycles_before };
    }
    let graph = if speculative { DepGraph::build_speculative(insts) } else { DepGraph::build(insts) };
    let cp = critical_paths(&graph, insts, machine);
    let seed = match policy {
        SchedulePolicy::Random(seed) => seed,
        _ => 0x9E37_79B9_7F4A_7C15,
    };
    let mut rng = XorShift64(seed.max(1));
    let mut remaining: Vec<usize> = (0..n).map(|i| graph.preds(i).len()).collect();
    let mut ready: Vec<usize> = (0..n).filter(|&i| remaining[i] == 0).collect();
    let mut state = OldIssueState::new(machine);
    let key = |i: usize, state: &OldIssueState<'_>| {
        let start = match policy {
            SchedulePolicy::CriticalPathOnly => 0,
            _ => state.earliest_issue(&insts[i]),
        };
        let prio = match policy {
            SchedulePolicy::EarliestStart => 0,
            _ => cp[i],
        };
        (start, Reverse(prio), i)
    };
    let mut order = Vec::with_capacity(n);
    while !ready.is_empty() {
        let pos = match policy {
            SchedulePolicy::Random(_) => rng.pick(ready.len()),
            _ => {
                let mut best = 0;
                let mut best_key = key(ready[0], &state);
                for (k, &ki) in ready.iter().enumerate().skip(1) {
                    let key = key(ki, &state);
                    if key < best_key {
                        best = k;
                        best_key = key;
                    }
                }
                best
            }
        };
        let chosen = ready.swap_remove(pos);
        state.issue(&insts[chosen]);
        order.push(chosen);
        for s in graph.succs(chosen) {
            remaining[s] -= 1;
            if remaining[s] == 0 {
                ready.push(s);
            }
        }
    }
    let cycles_after = state.max_completion;
    if cycles_after > cycles_before {
        return ScheduleOutcome { order: (0..n).collect(), cycles_before, cycles_after: cycles_before };
    }
    ScheduleOutcome { order, cycles_before, cycles_after }
}

const POLICIES: [SchedulePolicy; 4] = [
    SchedulePolicy::CriticalPath,
    SchedulePolicy::EarliestStart,
    SchedulePolicy::CriticalPathOnly,
    SchedulePolicy::Random(7),
];

/// The registry, plus a machine with two units that take branches and a
/// branch width of one, so the branch half of the width check binds.
fn machines() -> Vec<MachineConfig> {
    let mut all = wts_machine::registry();
    all.push(
        MachineConfig::builder("two-branch-units")
            .issue_width(3)
            .units(UnitClass::Branch, &[FunctionalUnit::Bru, FunctionalUnit::Su])
            .units(UnitClass::SimpleInt, &[FunctionalUnit::Iu1, FunctionalUnit::Iu2])
            .build(),
    );
    all
}

/// Every entry point, policy and machine agrees with the old scheduler
/// on `blocks`, scheduled in order through one reused scratch.
fn check_blocks(blocks: &[Vec<Inst>]) -> Result<(), TestCaseError> {
    for machine in machines() {
        for policy in POLICIES {
            let s = ListScheduler::with_policy(&machine, policy);
            let mut scratch = SchedScratch::new(&machine);
            let mut out = ScheduleOutcome::default();
            for insts in blocks {
                s.schedule_insts_into(insts, &mut scratch, &mut out);
                prop_assert_eq!(
                    &out,
                    &old_schedule(&machine, policy, insts, false),
                    "{} {} block",
                    machine.name(),
                    policy
                );
                s.schedule_superblock_into(insts, &mut scratch, &mut out);
                prop_assert_eq!(
                    &out,
                    &old_schedule(&machine, policy, insts, true),
                    "{} {} superblock",
                    machine.name(),
                    policy
                );
            }
        }
    }
    Ok(())
}

/// Replays the list scheduler's loop over the real dependence graph and
/// issue state under the cache rule: a ready candidate's data-ready cycle
/// is cached when it enters the ready list and recomputed only when the
/// issued instruction or the candidate is serializing. At every select,
/// each cached cycle must equal a fresh [`IssueState::data_ready`]. The
/// replay picks by the scheduler's key, so its outcome must equal the
/// scheduler's: the selects checked are the ones the scheduler made.
fn check_cache_rule(
    machine: &MachineConfig,
    policy: SchedulePolicy,
    insts: &[Inst],
    speculative: bool,
) -> Result<(), TestCaseError> {
    let n = insts.len();
    let graph = if speculative { DepGraph::build_speculative(insts) } else { DepGraph::build(insts) };
    let cp = critical_paths(&graph, insts, machine);
    let serializing = |i: usize| is_serializing(insts[i].opcode());
    let mut state = IssueState::new(machine);
    let mut remaining: Vec<usize> = (0..n).map(|i| graph.preds(i).len()).collect();
    let mut ready: Vec<(usize, u64)> =
        (0..n).filter(|&i| remaining[i] == 0).map(|i| (i, state.data_ready(&insts[i]))).collect();
    let mut order = Vec::with_capacity(n);
    while !ready.is_empty() {
        for &(x, cached) in &ready {
            prop_assert_eq!(
                cached,
                state.data_ready(&insts[x]),
                "{} {} speculative={}: stale cycle of {} ({:?}) after {:?}",
                machine.name(),
                policy,
                speculative,
                x,
                insts[x],
                order
            );
        }
        let key = |&(i, cached): &(usize, u64)| {
            let prio = if policy == SchedulePolicy::EarliestStart { 0 } else { cp[i] };
            (state.slot_from(&insts[i], cached), Reverse(prio), i)
        };
        let pos = (0..ready.len()).min_by_key(|&k| key(&ready[k])).expect("ready is not empty");
        let (chosen, _) = ready.swap_remove(pos);
        state.issue(&insts[chosen]);
        for (x, cached) in &mut ready {
            if serializing(chosen) || serializing(*x) {
                *cached = state.data_ready(&insts[*x]);
            }
        }
        order.push(chosen);
        for s in graph.succs(chosen) {
            remaining[s] -= 1;
            if remaining[s] == 0 {
                ready.push((s, state.data_ready(&insts[s])));
            }
        }
    }
    let before = IssueState::new(machine).replay(insts);
    let after = state.completion_time();
    let replayed = if after > before || n <= 1 {
        ScheduleOutcome { order: (0..n).collect(), cycles_before: before, cycles_after: before }
    } else {
        ScheduleOutcome { order, cycles_before: before, cycles_after: after }
    };
    let s = ListScheduler::with_policy(machine, policy);
    let scheduled = if speculative { s.schedule_superblock(insts) } else { s.schedule_insts(insts) };
    prop_assert_eq!(scheduled, replayed, "{} {} speculative={}", machine.name(), policy, speculative);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    /// Every schedule equals the old scheduler's, outcome for outcome.
    #[test]
    fn incremental_scheduler_matches_the_old_select_loop(insts in arb_block(36)) {
        check_blocks(std::slice::from_ref(&insts))?;
    }

    /// One scratch schedules generated blocks of shrinking length, and
    /// no cached cycle, graph or ready state leaks from a longer block.
    #[test]
    fn reused_scratch_schedules_shrinking_blocks_exactly(mut blocks in prop::collection::vec(arb_block(36), 1..5)) {
        blocks.sort_by_key(|b| Reverse(b.len()));
        check_blocks(&blocks)?;
    }

    /// Replaying a sequence costs what the old issue state says, every
    /// `earliest_issue` answer is the cycle `issue` commits, and both
    /// equal the old model's cycle for that instruction.
    #[test]
    fn closed_form_slot_matches_the_step_by_one_search(insts in arb_block(48)) {
        for machine in machines() {
            let mut new = IssueState::new(&machine);
            let mut old = OldIssueState::new(&machine);
            for (k, inst) in insts.iter().enumerate() {
                let predicted = new.earliest_issue(inst);
                let committed = new.issue(inst);
                prop_assert_eq!(predicted, committed, "{} inst {}", machine.name(), k);
                prop_assert_eq!(committed, old.issue(inst), "{} inst {}", machine.name(), k);
                prop_assert_eq!(new.completion_time(), old.max_completion);
            }
            prop_assert_eq!(new.replay(&insts), OldIssueState::replay(&machine, &insts), "{}", machine.name());
        }
    }

    /// The cache rule on its own terms, at every select of both caching
    /// policies, on every machine and in both scopes.
    #[test]
    fn every_cached_data_ready_cycle_is_fresh_at_every_select(insts in arb_block(24)) {
        for machine in machines() {
            for policy in [SchedulePolicy::CriticalPath, SchedulePolicy::EarliestStart] {
                for speculative in [false, true] {
                    check_cache_rule(&machine, policy, &insts, speculative)?;
                }
            }
        }
    }
}

/// Long non-pipelined chains: the closed-form slot jumps straight to the
/// cycle the one divider frees up, which the old search reached one
/// cycle at a time.
#[test]
fn divider_contention_matches_the_old_search() {
    let mut insts = Vec::new();
    for k in 0..6u16 {
        insts.push(Inst::new(Opcode::Fdiv).def(Reg::fpr(k)).use_(Reg::fpr(k + 10)).use_(Reg::fpr(k + 11)));
        insts.push(Inst::new(Opcode::Divw).def(Reg::gpr(k)).use_(Reg::gpr(k + 10)).use_(Reg::gpr(k + 11)));
        insts.push(Inst::new(Opcode::Fadd).def(Reg::fpr(k + 20)).use_(Reg::fpr(k)).use_(Reg::fpr(k)));
        insts.push(Inst::new(Opcode::Add).def(Reg::gpr(k + 20)).use_(Reg::gpr(30)).use_(Reg::gpr(31)));
    }
    for machine in machines() {
        assert_eq!(IssueState::new(&machine).replay(&insts), OldIssueState::replay(&machine, &insts));
    }
    let blocks = [insts.clone(), insts[..9].to_vec(), insts[..3].to_vec()];
    check_blocks(&blocks).expect("schedules match the old scheduler");
}
