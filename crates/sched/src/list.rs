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
/// Each ready instruction is one record in a contiguous ready list: its
/// index, whether it is serializing, its critical path and, under the
/// policies that key on the start cycle (`CriticalPath` and
/// `EarliestStart`), its cached data-ready cycle
/// ([`IssueState::data_ready`]). The cycle is computed when the
/// instruction enters the ready list, each pick's key is the cheap slot
/// search from it ([`IssueState::slot_from`]), and the winner is committed at
/// the slot its key already found ([`IssueState::issue_at`]).
/// `CriticalPathOnly` and `Random` never read a start cycle and issue
/// through [`IssueState::issue`].
///
/// **The cache rule.** After an issue of `I`, a ready candidate `X`'s
/// cached cycle is recomputed only when `I` or `X` is serializing. The
/// data-ready cycle reads `X`'s registers' ready cycles, the aliasing
/// stores' completions, the barrier floor and, for a serializing `X`,
/// the completion floor; an issue of `I` moves the first when `I`
/// defines a register `X` uses, the second when `I` is a store `X` may
/// alias, the barrier floor when `I` is serializing, and the completion
/// floor always. The first two cannot happen while both are ready: `I`
/// and `X` were ready together, so neither reaches the other in the
/// dependence graph, yet the graph orders every such pair.
///
/// * **Registers.** If `I` precedes `X` in the block, `X`'s use gets a
///   true edge from the last def of the register before it, and that def
///   is `I` or follows `I` through output edges. If `X` precedes `I`,
///   `I`'s def gets an anti edge from every reader since the previous
///   def, and an earlier reader reaches that def through anti and output
///   edges.
/// * **Memory.** A store has an edge to every later access it may alias.
///   A load has an edge to every later store it may alias, unless an
///   intervening store covers the load; then the load reaches that store,
///   and the covering store reaches every later store that aliases the
///   load (covering implies it aliases that store too).
///
/// Register and memory edges are the same in speculative graphs, which
/// relax only barriers. The proof assumes validated IR
/// ([`BasicBlock::validate`]): a memory reference on exactly the loads
/// and stores, since the graph orders no later store after a non-memory
/// instruction that carries one. A debug build checks every cached cycle
/// against a fresh one at every pick.
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

        let graph = &scratch.graph;
        let remaining_preds = &mut scratch.remaining_preds;
        remaining_preds.clear();
        remaining_preds.extend((0..n).map(|i| u32::try_from(graph.preds(i).len()).expect("pred lists fit u32")));
        scratch.state.reset();
        let state = &mut scratch.state;
        // The policies whose key reads the start cycle cache each ready
        // instruction's data-ready cycle.
        let cached = matches!(self.policy, SchedulePolicy::CriticalPath | SchedulePolicy::EarliestStart);
        let cp = &scratch.cp;
        let candidate = |i: usize, state: &IssueState<'_>| Candidate {
            idx: u32::try_from(i).expect("scheduled units fit u32 indices"),
            serializing: insts[i].opcode().is_serializing(),
            cp: cp[i],
            data_ready: if cached { state.data_ready(&insts[i]) } else { 0 },
        };
        let ready = &mut scratch.ready;
        ready.clear();
        ready.extend((0..n).filter(|&i| remaining_preds[i] == 0).map(|i| candidate(i, state)));

        loop {
            debug_assert!(
                !cached || ready.iter().all(|c| c.data_ready == state.data_ready(&insts[c.idx as usize])),
                "a ready candidate's cached data-ready cycle is stale"
            );
            let Some((pos, slot)) = self.select(ready, insts, state, &mut rng) else { break };
            let chosen = ready.swap_remove(pos);
            let chosen_idx = chosen.idx as usize;
            let inst = &insts[chosen_idx];
            if cached {
                state.issue_at(inst, slot);
                // The cache rule (see the type docs): only a serializing
                // issue or candidate can have moved a cached cycle.
                for c in ready.iter_mut().filter(|c| chosen.serializing || c.serializing) {
                    c.data_ready = state.data_ready(&insts[c.idx as usize]);
                }
            } else {
                state.issue(inst);
            }
            out.order.push(chosen_idx);
            for s in graph.succs(chosen_idx) {
                remaining_preds[s] -= 1;
                if remaining_preds[s] == 0 {
                    ready.push(candidate(s, state));
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

    /// Picks the position *within `ready`* of the next instruction, with
    /// the cycle it issues in when the policy keys on it (zero otherwise).
    fn select(
        &self,
        ready: &[Candidate],
        insts: &[Inst],
        state: &IssueState<'_>,
        rng: &mut XorShift64,
    ) -> Option<(usize, u64)> {
        let first = ready.first()?;
        let pick = match self.policy {
            SchedulePolicy::Random(_) => (rng.pick(ready.len()), 0),
            SchedulePolicy::CriticalPath | SchedulePolicy::EarliestStart | SchedulePolicy::CriticalPathOnly => {
                let mut best = 0;
                let mut best_key = self.key(first, insts, state);
                for (k, c) in ready.iter().enumerate().skip(1) {
                    let key = self.key(c, insts, state);
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
    #[inline]
    fn key(&self, c: &Candidate, insts: &[Inst], state: &IssueState<'_>) -> (u64, std::cmp::Reverse<u64>, u32) {
        let start = match self.policy {
            SchedulePolicy::CriticalPathOnly => 0,
            _ => state.slot_from(&insts[c.idx as usize], c.data_ready),
        };
        let prio = match self.policy {
            SchedulePolicy::EarliestStart => 0,
            _ => c.cp,
        };
        (start, std::cmp::Reverse(prio), c.idx)
    }
}

/// One ready instruction: everything a pick reads about it, so `select`
/// scans one contiguous array.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Candidate {
    /// Index in the unit's original order.
    idx: u32,
    /// A sync or call ([`Opcode::is_serializing`](wts_ir::Opcode::is_serializing)):
    /// its issue, or its own cached cycle, is what the cache rule refreshes.
    serializing: bool,
    /// Latency-weighted critical path to the end of the unit.
    cp: u64,
    /// Cached data-ready cycle (the cycle-keyed policies only; zero
    /// otherwise).
    data_ready: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify_schedule;
    use wts_deps::DepGraph;
    use wts_ir::{MemRef, MemSpace, Opcode, Reg};
    use wts_machine::CostModel;

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
        assert!(verify_schedule(&DepGraph::build(&insts), &out.order).is_empty());
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
            assert!(verify_schedule(&DepGraph::build(&insts), &out.order).is_empty());
            // A competent scheduler should never pick an order the cost
            // model rates worse than the original.
            assert!(out.cycles_after <= out.cycles_before, "degraded: {insts:?}");
        }
    }

    #[test]
    fn a_serializing_candidate_waits_for_the_issue_beside_it() {
        // fdiv, sync and add are independent, so all three are ready at
        // once. CPS issues the fdiv first; that moves the sync's
        // data-ready cycle to the fdiv's completion, because a sync waits
        // for everything issued before it. With the sync's cached cycle
        // refreshed, the add, ready at once, goes next and the sync last.
        // A stale cycle would let the sync's longer critical path win the
        // tie at the early slot and issue it before the fdiv completes.
        let m = machine();
        let insts = vec![
            Inst::new(Opcode::Fdiv).def(Reg::fpr(1)).use_(Reg::fpr(2)).use_(Reg::fpr(3)),
            Inst::new(Opcode::Sync),
            add(1, 8, 9),
        ];
        let out = ListScheduler::new(&m).schedule_insts(&insts);
        assert_eq!(out.order, vec![0, 2, 1]);
        let ordered: Vec<Inst> = out.order.iter().map(|&i| insts[i]).collect();
        assert_eq!(out.cycles_after, CostModel::new(&m).sequence_cycles(&ordered), "cycles_after is the order's cost");
        assert!(out.cycles_after < out.cycles_before);
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
    /// superblocks, applied orders — serves the random policy without
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
        let rescheduled = s.schedule_block(&b).apply(&b);
        for out in [&from_block, &from_slice] {
            assert!(verify_schedule(&DepGraph::build(&insts), &out.order).is_empty());
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
        assert!(verify_schedule(&DepGraph::build(&insts), &a.order).is_empty());
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
        assert!(verify_schedule(&DepGraph::build(&insts), &out.order).is_empty());
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
}
