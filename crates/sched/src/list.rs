//! The CPS list scheduler.

use crate::policy::XorShift64;
use crate::{SchedScratch, ScheduleOutcome, SchedulePolicy};
use wts_deps::critical_paths_into;
use wts_ir::{BasicBlock, Inst};
use wts_machine::{IssueState, MachineConfig};

/// List scheduler over basic blocks.
///
/// The scheduler consults the same in-order cost estimator used for
/// labeling (via [`IssueState`]) to determine when each candidate could
/// start, exactly as the paper's scheduler consults its block timing
/// simulator while making decisions (§2.2, footnote 3).
///
/// The policies that key on the start cycle (`CriticalPath` and
/// `EarliestStart`) cache each ready instruction's data-ready cycle
/// ([`IssueState::data_ready`]): it is computed once when the
/// instruction enters the ready list, and each pick's key is the cheap
/// slot search from it ([`IssueState::slot_from`]). After an issue of
/// `I`, a candidate `X`'s cached cycle is recomputed only when
/// [`IssueState::moves_ready`] holds: `I` defines a register `X` uses,
/// `I` is a store and `X` accesses memory, or either is serializing.
/// Those are exactly the inputs the data-ready cycle reads, so the cache
/// never holds a stale value, whatever the dependence graph does or does
/// not order. The winner is committed at the slot its key already found
/// ([`IssueState::issue_at`]). `CriticalPathOnly` and `Random` never read
/// a start cycle and issue through [`IssueState::issue`].
#[derive(Debug, Clone)]
pub struct ListScheduler<'m> {
    machine: &'m MachineConfig,
    policy: SchedulePolicy,
}

impl<'m> ListScheduler<'m> {
    /// A CPS list scheduler for the given machine.
    pub fn new(machine: &'m MachineConfig) -> ListScheduler<'m> {
        ListScheduler { machine, policy: SchedulePolicy::CriticalPath }
    }

    /// A scheduler with an explicit selection policy.
    pub fn with_policy(machine: &'m MachineConfig, policy: SchedulePolicy) -> ListScheduler<'m> {
        ListScheduler { machine, policy }
    }

    /// The machine this scheduler targets.
    pub fn machine(&self) -> &MachineConfig {
        self.machine
    }

    /// The selection policy.
    pub fn policy(&self) -> SchedulePolicy {
        self.policy
    }

    /// Schedules a block, returning the chosen order and the estimated
    /// cycle counts before and after.
    pub fn schedule_block(&self, block: &BasicBlock) -> ScheduleOutcome {
        self.schedule_insts(block.insts())
    }

    /// Schedules an explicit instruction sequence.
    pub fn schedule_insts(&self, insts: &[Inst]) -> ScheduleOutcome {
        self.one_shot(insts, false)
    }

    /// Schedules a *superblock*: a straight-line trace whose internal
    /// branches are side exits. Pure register computation may move across
    /// those exits (speculation with compensation, per Fisher's trace
    /// scheduling), which is what gives superblocks their edge over
    /// per-block scheduling (paper §3.1).
    pub fn schedule_superblock(&self, insts: &[Inst]) -> ScheduleOutcome {
        self.one_shot(insts, true)
    }

    /// Schedules a block into caller-provided buffers; see
    /// [`ListScheduler::schedule_insts_into`].
    pub fn schedule_block_into(&self, block: &BasicBlock, scratch: &mut SchedScratch<'m>, out: &mut ScheduleOutcome) {
        self.schedule_insts_into(block.insts(), scratch, out);
    }

    /// Schedules an instruction sequence into caller-provided buffers:
    /// the scratch's and outcome's allocations are reused, so batch
    /// callers schedule block after block with zero steady-state heap
    /// allocation. Produces bit-identical outcomes to
    /// [`ListScheduler::schedule_insts`].
    pub fn schedule_insts_into(&self, insts: &[Inst], scratch: &mut SchedScratch<'m>, out: &mut ScheduleOutcome) {
        self.schedule_core(insts, false, scratch, out);
    }

    /// Superblock counterpart of [`ListScheduler::schedule_insts_into`]
    /// (speculative dependence graph; see
    /// [`ListScheduler::schedule_superblock`]).
    pub fn schedule_superblock_into(&self, insts: &[Inst], scratch: &mut SchedScratch<'m>, out: &mut ScheduleOutcome) {
        self.schedule_core(insts, true, scratch, out);
    }

    fn one_shot(&self, insts: &[Inst], speculative: bool) -> ScheduleOutcome {
        let mut scratch = SchedScratch::new(self.machine);
        let mut out = ScheduleOutcome::default();
        self.schedule_core(insts, speculative, &mut scratch, &mut out);
        out
    }

    fn schedule_core(
        &self,
        insts: &[Inst],
        speculative: bool,
        scratch: &mut SchedScratch<'m>,
        out: &mut ScheduleOutcome,
    ) {
        debug_assert!(std::ptr::eq(self.machine, scratch.machine), "scratch was created for a different machine");
        let n = insts.len();
        let cycles_before = scratch.before_state.replay(insts);
        out.order.clear();
        out.cycles_before = cycles_before;
        if n <= 1 {
            out.order.extend(0..n);
            out.cycles_after = cycles_before;
            scratch.last_edges = 0;
            return;
        }

        scratch.builder.build_into(insts, speculative, &mut scratch.graph);
        scratch.last_edges = scratch.builder.last_edge_count();
        critical_paths_into(&scratch.graph, insts, self.machine, &mut scratch.cp);
        // The scheduler owns its rng unconditionally: every entry point
        // (blocks, explicit slices, superblocks) threads the same state,
        // so no path can reach the random policy without one. The
        // deterministic policies simply never draw from it.
        let mut rng = XorShift64::new(self.rng_seed());

        scratch.remaining_preds.clear();
        scratch
            .remaining_preds
            .extend((0..n).map(|i| u32::try_from(scratch.graph.preds(i).len()).expect("pred lists fit u32")));
        scratch.ready.clear();
        scratch.ready.extend((0..n).filter(|&i| scratch.remaining_preds[i] == 0));
        scratch.state.reset();
        // The policies whose key reads the start cycle cache each ready
        // instruction's data-ready cycle.
        let cached = matches!(self.policy, SchedulePolicy::CriticalPath | SchedulePolicy::EarliestStart);
        let state = &mut scratch.state;
        let data_ready = &mut scratch.data_ready;
        data_ready.clear();
        data_ready.resize(n, 0);
        if cached {
            for &i in &scratch.ready {
                data_ready[i] = state.data_ready(&insts[i]);
            }
        }

        while let Some((pos, slot)) = self.select(&scratch.ready, &scratch.cp, data_ready, state, insts, &mut rng) {
            let chosen = scratch.ready.swap_remove(pos);
            let inst = &insts[chosen];
            if cached {
                state.issue_at(inst, slot);
                for &x in &scratch.ready {
                    if state.moves_ready(inst, &insts[x]) {
                        data_ready[x] = state.data_ready(&insts[x]);
                    }
                }
            } else {
                state.issue(inst);
            }
            out.order.push(chosen);
            for &(s, _) in scratch.graph.succs(chosen) {
                let s = s as usize;
                scratch.remaining_preds[s] -= 1;
                if scratch.remaining_preds[s] == 0 {
                    scratch.ready.push(s);
                    if cached {
                        data_ready[s] = state.data_ready(&insts[s]);
                    }
                }
            }
        }
        debug_assert_eq!(out.order.len(), n, "scheduler must place every instruction");

        // The running state issued every instruction in the chosen order,
        // so its completion time *is* the new order's cost — no clone and
        // re-simulate pass (this is the hottest loop in trace collection).
        let cycles_after = scratch.state.completion_time();
        if cycles_after > cycles_before {
            // Greedy list scheduling is not optimal; when the estimator
            // rates the new order worse, keep the original (the estimate
            // is free — it was needed for the comparison anyway).
            out.order.clear();
            out.order.extend(0..n);
            out.cycles_after = cycles_before;
            return;
        }
        out.cycles_after = cycles_after;
    }

    /// Convenience: schedule and apply in one step.
    pub fn reschedule(&self, block: &BasicBlock) -> BasicBlock {
        self.schedule_block(block).apply(block)
    }

    /// The seed of the rng this scheduler owns: the random policy's
    /// seed, or a fixed constant the deterministic policies never draw
    /// from. (The old design threaded an `Option<XorShift64>` and
    /// `expect`ed it inside `select`, which panicked on any call path
    /// that reached the random policy without wiring an rng through.)
    fn rng_seed(&self) -> u64 {
        match self.policy {
            SchedulePolicy::Random(seed) => seed,
            _ => 0x9E37_79B9_7F4A_7C15,
        }
    }

    /// Picks the index *within `ready`* of the next instruction, with the
    /// cycle it issues in when the policy keys on it (zero otherwise).
    fn select(
        &self,
        ready: &[usize],
        cp: &[u64],
        data_ready: &[u64],
        state: &IssueState<'_>,
        insts: &[Inst],
        rng: &mut XorShift64,
    ) -> Option<(usize, u64)> {
        if ready.is_empty() {
            return None;
        }
        let pick = match self.policy {
            SchedulePolicy::Random(_) => (rng.pick(ready.len()), 0),
            SchedulePolicy::CriticalPath | SchedulePolicy::EarliestStart | SchedulePolicy::CriticalPathOnly => {
                let key = |i: usize| self.key(i, cp, data_ready, state, insts);
                let mut best = 0;
                let mut best_key = key(ready[0]);
                for (k, &ki) in ready.iter().enumerate().skip(1) {
                    let key = key(ki);
                    if key < best_key {
                        best = k;
                        best_key = key;
                    }
                }
                (best, best_key.0)
            }
        };
        Some(pick)
    }

    /// The one selection key every deterministic policy minimizes:
    /// `(earliest start, Reverse(critical path), original index)`.
    ///
    /// `CriticalPath` uses all three components; `EarliestStart` ignores
    /// the critical path; `CriticalPathOnly` ignores the start time. The
    /// critical path is kept as `Reverse<u64>` — latency-weighted paths
    /// are `u64` and a negated `as i64` cast would wrap on pathological
    /// blocks, inverting the priority. The start is the slot search from
    /// the cached data-ready cycle.
    fn key(
        &self,
        i: usize,
        cp: &[u64],
        data_ready: &[u64],
        state: &IssueState<'_>,
        insts: &[Inst],
    ) -> (u64, std::cmp::Reverse<u64>, usize) {
        let start = match self.policy {
            SchedulePolicy::CriticalPathOnly => 0,
            _ => state.slot_from(&insts[i], data_ready[i]),
        };
        let prio = match self.policy {
            SchedulePolicy::EarliestStart => 0,
            _ => cp[i],
        };
        (start, std::cmp::Reverse(prio), i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify_schedule;
    use wts_ir::{MemRef, MemSpace, Opcode, Reg};

    fn machine() -> MachineConfig {
        MachineConfig::ppc7410()
    }

    fn load(def: u16, slot: u32) -> Inst {
        Inst::new(Opcode::Lwz).def(Reg::gpr(def)).use_(Reg::gpr(30)).mem(MemRef::slot(MemSpace::Heap, slot))
    }

    fn add(def: u16, a: u16, b: u16) -> Inst {
        Inst::new(Opcode::Add).def(Reg::gpr(def)).use_(Reg::gpr(a)).use_(Reg::gpr(b))
    }

    #[test]
    fn empty_and_singleton_blocks() {
        let m = machine();
        let s = ListScheduler::new(&m);
        let out = s.schedule_insts(&[]);
        assert!(out.order.is_empty());
        let out = s.schedule_insts(&[add(1, 2, 3)]);
        assert_eq!(out.order, vec![0]);
        assert_eq!(out.cycles_before, out.cycles_after);
    }

    #[test]
    fn hides_load_latency() {
        let m = machine();
        let s = ListScheduler::new(&m);
        // load; immediate use; independent filler.
        let insts = vec![load(1, 0), add(2, 1, 1), add(3, 8, 8), add(4, 9, 9)];
        let out = s.schedule_insts(&insts);
        assert!(out.cycles_after < out.cycles_before, "filler should hide the load stall");
        assert!(verify_schedule(&insts, &out.order).is_ok());
        // The dependent add must still come after the load.
        let pos = |i: usize| out.order.iter().position(|&x| x == i).unwrap();
        assert!(pos(1) > pos(0));
    }

    #[test]
    fn never_degrades_on_these_cases_and_respects_deps() {
        let m = machine();
        let s = ListScheduler::new(&m);
        let cases: Vec<Vec<Inst>> = vec![
            vec![add(1, 9, 9), add(2, 1, 9), add(3, 2, 9)],
            vec![load(1, 0), load(2, 8), add(3, 1, 2)],
            vec![
                Inst::new(Opcode::Fdiv).def(Reg::fpr(1)).use_(Reg::fpr(2)).use_(Reg::fpr(3)),
                Inst::new(Opcode::Fadd).def(Reg::fpr(4)).use_(Reg::fpr(1)).use_(Reg::fpr(1)),
                add(1, 8, 8),
                add(2, 9, 9),
            ],
        ];
        for insts in cases {
            let out = s.schedule_insts(&insts);
            assert!(verify_schedule(&insts, &out.order).is_ok());
            // A competent scheduler should never pick an order the cost
            // model rates worse than the original.
            assert!(out.cycles_after <= out.cycles_before, "degraded: {insts:?}");
        }
    }

    #[test]
    fn terminator_stays_last() {
        let m = machine();
        let s = ListScheduler::new(&m);
        let insts = vec![add(1, 9, 9), load(2, 0), Inst::new(Opcode::Bc).use_(Reg::cr(0))];
        let out = s.schedule_insts(&insts);
        assert_eq!(*out.order.last().unwrap(), 2);
    }

    #[test]
    fn cps_beats_or_matches_earliest_start_on_cp_case() {
        let m = machine();
        // Two chains: a long FP chain and short int work. CPS should
        // prioritize starting the long chain.
        let insts = vec![
            Inst::new(Opcode::Lfd).def(Reg::fpr(1)).use_(Reg::gpr(1)).mem(MemRef::slot(MemSpace::Heap, 0)),
            Inst::new(Opcode::Fmul).def(Reg::fpr(2)).use_(Reg::fpr(1)).use_(Reg::fpr(1)),
            Inst::new(Opcode::Fadd).def(Reg::fpr(3)).use_(Reg::fpr(2)).use_(Reg::fpr(2)),
            add(2, 8, 8),
            add(3, 9, 9),
            add(4, 10, 10),
        ];
        let cps = ListScheduler::with_policy(&m, SchedulePolicy::CriticalPath).schedule_insts(&insts);
        let es = ListScheduler::with_policy(&m, SchedulePolicy::EarliestStart).schedule_insts(&insts);
        assert!(cps.cycles_after <= es.cycles_after);
    }

    #[test]
    fn tie_breaking_is_consistent_across_policies() {
        let m = machine();
        // Tie-heavy block: six independent single-cycle adds — identical
        // critical paths, identical start times. Every deterministic
        // policy must resolve the ties the same way (lowest original
        // index first), pinning the shared-key behaviour.
        let ties: Vec<Inst> = (0..6u16).map(|i| add(i + 1, 20 + i, 26 + i)).collect();
        for policy in [SchedulePolicy::CriticalPath, SchedulePolicy::EarliestStart, SchedulePolicy::CriticalPathOnly] {
            let out = ListScheduler::with_policy(&m, policy).schedule_insts(&ties);
            assert_eq!(out.order, vec![0, 1, 2, 3, 4, 5], "{policy} must break ties by original index");
        }
        // And when critical paths differ, both cp-aware policies agree on
        // pulling the long chain forward past an equal-start rival.
        let insts = vec![
            add(1, 20, 20),                                                               // short, independent
            Inst::new(Opcode::Fdiv).def(Reg::fpr(1)).use_(Reg::fpr(2)).use_(Reg::fpr(3)), // heads the long chain
            Inst::new(Opcode::Fadd).def(Reg::fpr(4)).use_(Reg::fpr(1)).use_(Reg::fpr(1)),
        ];
        for policy in [SchedulePolicy::CriticalPath, SchedulePolicy::CriticalPathOnly] {
            let out = ListScheduler::with_policy(&m, policy).schedule_insts(&insts);
            let pos = |i: usize| out.order.iter().position(|&x| x == i).unwrap();
            assert!(pos(1) < pos(0), "{policy} must start the critical chain first");
        }
    }

    /// Regression (PR 5): `select` used to `expect` an externally
    /// threaded rng for the random policy and panicked on any entry
    /// point that did not wire one through. The scheduler now owns its
    /// rng seed, so *every* public path — blocks, raw slices,
    /// superblocks, reschedule — serves the random policy without
    /// panicking, deterministically per seed.
    #[test]
    fn random_policy_never_panics_on_any_entry_point() {
        let m = machine();
        let s = ListScheduler::with_policy(&m, SchedulePolicy::Random(3));
        let insts = vec![load(1, 0), add(2, 1, 1), Inst::new(Opcode::Bc).use_(Reg::cr(0)), add(3, 8, 8), add(4, 9, 9)];
        let mut b = BasicBlock::new(0);
        for i in &insts {
            b.push(*i);
        }
        let from_block = s.schedule_block(&b);
        let from_slice = s.schedule_insts(&insts);
        let from_superblock = s.schedule_superblock(&insts);
        let rescheduled = s.reschedule(&b);
        for out in [&from_block, &from_slice] {
            assert!(verify_schedule(&insts, &out.order).is_ok());
        }
        // The superblock order follows the *speculative* graph (it may
        // hoist across the side exit), so check it against that graph.
        assert!(wts_deps::DepGraph::build_speculative(&insts).respects(&from_superblock.order));
        assert_eq!(from_block.order, from_slice.order, "same path, same draws");
        assert_eq!(rescheduled.len(), b.len());
        // Still deterministic per seed across entry points.
        let again = ListScheduler::with_policy(&m, SchedulePolicy::Random(3)).schedule_superblock(&insts);
        assert_eq!(from_superblock.order, again.order);
    }

    #[test]
    fn random_policy_is_deterministic_per_seed() {
        let m = machine();
        let insts = vec![add(1, 9, 9), add(2, 8, 8), add(3, 7, 7), load(4, 0), load(5, 8)];
        let a = ListScheduler::with_policy(&m, SchedulePolicy::Random(11)).schedule_insts(&insts);
        let b = ListScheduler::with_policy(&m, SchedulePolicy::Random(11)).schedule_insts(&insts);
        assert_eq!(a.order, b.order);
        assert!(verify_schedule(&insts, &a.order).is_ok());
    }

    #[test]
    fn schedules_are_permutations_even_with_barriers() {
        let m = machine();
        let s = ListScheduler::new(&m);
        let insts = vec![
            add(1, 9, 9),
            Inst::new(Opcode::Bl).def(Reg::lr()),
            add(2, 8, 8),
            Inst::new(Opcode::YieldPoint).hazard(wts_ir::Hazards::YIELD),
            add(3, 7, 7),
        ];
        let out = s.schedule_insts(&insts);
        assert!(verify_schedule(&insts, &out.order).is_ok());
        let pos = |i: usize| out.order.iter().position(|&x| x == i).unwrap();
        assert!(pos(0) < pos(1) && pos(1) < pos(2) && pos(2) < pos(3) && pos(3) < pos(4));
    }

    #[test]
    fn superblock_scheduling_beats_local_when_exits_block_motion() {
        let m = machine();
        // Trace: [load; use; branch] ++ [independent adds]. Local
        // scheduling cannot hide the load stall (nothing independent in
        // the first block); the speculative superblock can hoist the
        // second block's adds above the side exit.
        let insts = vec![
            load(1, 0),
            add(2, 1, 1),
            Inst::new(Opcode::Bc).use_(Reg::cr(0)),
            add(3, 8, 8),
            add(4, 9, 9),
            add(5, 10, 10),
        ];
        let s = ListScheduler::new(&m);
        let local = s.schedule_insts(&insts);
        let superblock = s.schedule_superblock(&insts);
        assert!(superblock.cycles_after <= local.cycles_after);
        assert!(
            superblock.cycles_after < local.cycles_after,
            "speculation should hide the stall: {} vs {}",
            superblock.cycles_after,
            local.cycles_after
        );
    }

    #[test]
    fn superblock_schedule_respects_speculative_graph() {
        let m = machine();
        let insts = vec![
            Inst::new(Opcode::Stw).use_(Reg::gpr(1)).use_(Reg::gpr(30)).mem(MemRef::slot(MemSpace::Heap, 0)),
            Inst::new(Opcode::Bc).use_(Reg::cr(0)),
            add(3, 8, 8),
        ];
        let out = ListScheduler::new(&m).schedule_superblock(&insts);
        let pos = |i: usize| out.order.iter().position(|&x| x == i).unwrap();
        assert!(pos(0) < pos(1), "store stays above the exit");
    }

    #[test]
    fn scratch_path_matches_one_shot_for_every_policy() {
        let m = machine();
        let blocks: Vec<Vec<Inst>> = vec![
            vec![],
            vec![add(1, 2, 3)],
            vec![load(1, 0), add(2, 1, 1), add(3, 8, 8), add(4, 9, 9)],
            vec![add(1, 9, 9), Inst::new(Opcode::Bl).def(Reg::lr()), add(2, 8, 8)],
            vec![load(1, 0), add(2, 1, 1), Inst::new(Opcode::Bc).use_(Reg::cr(0)), add(3, 8, 8)],
        ];
        for policy in [
            SchedulePolicy::CriticalPath,
            SchedulePolicy::EarliestStart,
            SchedulePolicy::CriticalPathOnly,
            SchedulePolicy::Random(7),
        ] {
            let s = ListScheduler::with_policy(&m, policy);
            // One scratch and one outcome reused across all blocks: no
            // state may leak from one schedule into the next.
            let mut scratch = SchedScratch::new(&m);
            let mut out = ScheduleOutcome::default();
            for insts in &blocks {
                s.schedule_insts_into(insts, &mut scratch, &mut out);
                assert_eq!(out, s.schedule_insts(insts), "{policy} block diverged");
                assert_eq!(
                    scratch.last_edge_count(),
                    if insts.len() <= 1 { 0 } else { wts_deps::DepGraph::build(insts).edge_count() }
                );
                s.schedule_superblock_into(insts, &mut scratch, &mut out);
                assert_eq!(out, s.schedule_superblock(insts), "{policy} superblock diverged");
            }
        }
    }

    #[test]
    fn reschedule_applies_order() {
        let m = machine();
        let s = ListScheduler::new(&m);
        let mut b = BasicBlock::new(3);
        for i in [load(1, 0), add(2, 1, 1), add(3, 8, 8)] {
            b.push(i);
        }
        b.set_exec_count(77);
        let nb = s.reschedule(&b);
        assert_eq!(nb.len(), 3);
        assert_eq!(nb.exec_count(), 77);
        assert_eq!(nb.id(), b.id());
    }
}
