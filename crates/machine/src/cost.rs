//! The cheap in-order block-cost estimator (the paper's "simplified
//! machine simulator") and its incremental issue state.

use crate::{FunctionalUnit, MachineConfig, OpTiming};
use wts_ir::{BasicBlock, Inst, MemRef, RegTable};

/// Incremental in-order machine state: instructions are issued one at a
/// time and the state answers "when could this instruction start, given
/// everything issued so far?".
///
/// This is the engine of both [`CostModel`] (fold a whole sequence) and
/// the list scheduler (query candidates, commit the chosen one), exactly
/// as in the paper where the same estimator is used by the scheduler and
/// for labeling (§2.2, footnote 3).
///
/// Register readiness lives in a dense, epoch-stamped [`RegTable`], so
/// every [`earliest_issue`](IssueState::earliest_issue) query is an array
/// read rather than a hash lookup, and [`reset`](IssueState::reset) is an
/// epoch bump. A long-lived state (one per scheduler scratch) therefore
/// replays block after block with no steady-state allocation.
///
/// Per-opcode facts (latency, unit occupancy, the units that execute it,
/// whether it counts against the branch width, is serializing or is a
/// store) come from the machine's timing table, one row per opcode,
/// resolved once when the machine is built: every query and every issue
/// reads one row.
///
/// The slot search is closed-form. Issue is in order, so an instruction
/// never issues before the current cycle, and its slot is
///
/// 1. `c = max(data_ready, cur_cycle)`;
/// 2. plus one when `c` is the current cycle and that cycle's branch or
///    non-branch width is used up;
/// 3. then `max(c, earliest unit_free among the opcode's units)`,
///
/// on the first of its units, in [`FunctionalUnit::ALL`] order, that is
/// free by then. Steps 1 and 2 together are `max(data_ready, cur_cycle +
/// full)`. A search stepping one cycle at a time from `max(data_ready,
/// last issue)` stops at exactly this cycle, because the last issue cycle
/// always equals the current cycle: every issue moves the current cycle
/// up to its own cycle, and a reset zeroes both. So the state keeps no
/// separate last-issue cycle.
#[derive(Debug, Clone)]
pub struct IssueState<'m> {
    machine: &'m MachineConfig,
    /// Cycle at which each register's latest value is available.
    reg_ready: RegTable<u64>,
    unit_free: [u64; FunctionalUnit::COUNT],
    store_done: Vec<(MemRef, u64)>,
    barrier_floor: u64,
    max_completion: u64,
    /// Cycle of the latest issue, which is also the earliest cycle the
    /// next instruction may issue in.
    cur_cycle: u64,
    nonbranch_in_cycle: u32,
    branch_in_cycle: u32,
}

impl<'m> IssueState<'m> {
    /// A fresh state (cycle 0, all units free).
    pub fn new(machine: &'m MachineConfig) -> IssueState<'m> {
        IssueState {
            machine,
            reg_ready: RegTable::new(),
            unit_free: [0; FunctionalUnit::COUNT],
            store_done: Vec::new(),
            barrier_floor: 0,
            max_completion: 0,
            cur_cycle: 0,
            nonbranch_in_cycle: 0,
            branch_in_cycle: 0,
        }
    }

    /// Completion cycle of the latest-finishing instruction issued so far.
    pub fn completion_time(&self) -> u64 {
        self.max_completion
    }

    /// Rewinds to a fresh state (cycle 0, all units free) without
    /// dropping container capacity: the register table forgets every
    /// entry by an epoch bump, and the memory lists are cleared in place.
    pub fn reset(&mut self) {
        self.reg_ready.clear();
        self.unit_free = [0; FunctionalUnit::COUNT];
        self.store_done.clear();
        self.barrier_floor = 0;
        self.max_completion = 0;
        self.cur_cycle = 0;
        self.nonbranch_in_cycle = 0;
        self.branch_in_cycle = 0;
    }

    /// Resets, then issues every instruction in order; returns the
    /// sequence's completion time. The allocation-free equivalent of
    /// [`CostModel::sequence_cycles`].
    pub fn replay(&mut self, insts: &[Inst]) -> u64 {
        self.reset();
        for inst in insts {
            self.issue(inst);
        }
        self.completion_time()
    }

    /// Cycle when `inst`'s data and ordering constraints are satisfied,
    /// not yet accounting for issue width or functional units.
    ///
    /// It reads register readiness for `inst`'s uses, the aliasing
    /// entries of the store list when `inst` accesses memory, the barrier
    /// floor, and the completion floor when `inst` is serializing. So
    /// issuing `I` can only move it when `I` defines a register `inst`
    /// uses, `I` is a store `inst` may alias, or either is serializing.
    /// The list scheduler caches it for each ready candidate; its dependence
    /// graph orders the first two cases, so only a serializing issue or
    /// candidate refreshes the cache (see `wts-sched`'s `ListScheduler`).
    ///
    /// A store need not wait for earlier loads of its slot here: issue is
    /// in order, so every slot is at or after the current cycle, which is
    /// at or after every earlier load's issue cycle.
    pub fn data_ready(&self, inst: &Inst) -> u64 {
        let row = self.machine.timing(inst.opcode());
        let mut ready = self.barrier_floor;
        for &u in inst.uses() {
            if let Some(t) = self.reg_ready.get(u) {
                ready = ready.max(t);
            }
        }
        if let Some(m) = inst.mem_ref() {
            for &(w, done) in &self.store_done {
                if m.may_alias(w) {
                    ready = ready.max(done);
                }
            }
        }
        if row.serializing {
            ready = ready.max(self.max_completion);
        }
        ready
    }

    /// The closed-form slot search (see the type docs): the cycle at
    /// which an instruction with timing `row` whose data is ready at
    /// `ready` could issue next.
    #[inline]
    fn slot(&self, row: &OpTiming, ready: u64) -> u64 {
        // `max(ready, cur_cycle)`, plus one when that is the current cycle
        // and its width is used up, is `max(ready, cur_cycle + full)`.
        let full = if row.branch {
            self.branch_in_cycle >= self.machine.branch_width()
        } else {
            self.nonbranch_in_cycle >= self.machine.issue_width()
        };
        let mut units = row.units.bits();
        let mut free = u64::MAX;
        while units != 0 {
            free = free.min(self.unit_free[units.trailing_zeros() as usize]);
            units &= units - 1;
        }
        ready.max(self.cur_cycle + u64::from(full)).max(free)
    }

    /// Earliest cycle at which `inst` could issue if it were chosen next,
    /// given that its data is ready at `ready` (a
    /// [`data_ready`](IssueState::data_ready) value still current for
    /// this state).
    #[inline]
    pub fn slot_from(&self, inst: &Inst, ready: u64) -> u64 {
        self.slot(self.machine.timing(inst.opcode()), ready)
    }

    /// Earliest cycle at which `inst` could issue if it were chosen next.
    pub fn earliest_issue(&self, inst: &Inst) -> u64 {
        self.slot_from(inst, self.data_ready(inst))
    }

    /// Issues `inst` as the next instruction; returns its issue cycle.
    pub fn issue(&mut self, inst: &Inst) -> u64 {
        let cycle = self.earliest_issue(inst);
        self.issue_at(inst, cycle);
        cycle
    }

    /// Issues `inst` as the next instruction at cycle `c`, which must be
    /// its [`earliest_issue`](IssueState::earliest_issue) (a caller that
    /// already computed the slot commits it without searching again).
    pub fn issue_at(&mut self, inst: &Inst, c: u64) {
        debug_assert_eq!(c, self.earliest_issue(inst), "issue_at must commit the earliest slot");
        let row = self.machine.timing(inst.opcode());
        if c > self.cur_cycle {
            self.cur_cycle = c;
            self.nonbranch_in_cycle = 0;
            self.branch_in_cycle = 0;
        }
        if row.branch {
            self.branch_in_cycle += 1;
        } else {
            self.nonbranch_in_cycle += 1;
        }
        // The first of the opcode's units free by `c`; the slot search
        // guarantees one.
        let mut units = row.units.bits();
        let unit = loop {
            debug_assert!(units != 0, "the slot has a free unit");
            let u = units.trailing_zeros() as usize;
            if self.unit_free[u] <= c {
                break u;
            }
            units &= units - 1;
        };
        self.unit_free[unit] = c + u64::from(row.occupancy);
        let done = c + u64::from(row.latency);
        self.max_completion = self.max_completion.max(done);
        for &d in inst.defs() {
            self.reg_ready.set(d, done);
        }
        if let Some(m) = inst.mem_ref() {
            if row.store {
                self.store_done.push((m, done));
            }
        }
        if row.serializing {
            self.barrier_floor = done;
        }
    }
}

/// Estimates the cycle count of a basic block executed *in order* on the
/// modelled machine.
///
/// The model tracks per-register value availability, per-unit occupancy,
/// memory ordering between may-aliasing accesses, issue-width limits and
/// serializing instructions (syncs and calls). It deliberately ignores
/// dynamic effects (caches beyond a fixed load latency, branch prediction,
/// out-of-order recovery): the paper argues the estimate "needs only to
/// give a good sense of the difference in timing between two versions of
/// the same block" (§2.2).
///
/// # Examples
///
/// ```
/// use wts_ir::{BasicBlock, Inst, Opcode, Reg};
/// use wts_machine::{CostModel, MachineConfig};
///
/// let m = MachineConfig::ppc7410();
/// let cm = CostModel::new(&m);
/// let mut chain = BasicBlock::new(0);
/// chain.push(Inst::new(Opcode::Fadd).def(Reg::fpr(1)).use_(Reg::fpr(0)).use_(Reg::fpr(0)));
/// chain.push(Inst::new(Opcode::Fadd).def(Reg::fpr(2)).use_(Reg::fpr(1)).use_(Reg::fpr(1)));
/// // The dependent chain pays both latencies.
/// assert!(cm.block_cycles(&chain) >= 8);
/// ```
#[derive(Debug, Clone)]
pub struct CostModel<'m> {
    machine: &'m MachineConfig,
}

impl<'m> CostModel<'m> {
    /// A cost model for the given machine.
    pub fn new(machine: &'m MachineConfig) -> CostModel<'m> {
        CostModel { machine }
    }

    /// The machine being modelled.
    pub fn machine(&self) -> &MachineConfig {
        self.machine
    }

    /// Estimated cycles to execute `block` in its current order.
    pub fn block_cycles(&self, block: &BasicBlock) -> u64 {
        self.sequence_cycles(block.insts())
    }

    /// Estimated cycles for an explicit instruction sequence.
    pub fn sequence_cycles(&self, insts: &[Inst]) -> u64 {
        IssueState::new(self.machine).replay(insts)
    }

    /// A lower bound on any order's cycle count: the length (in latency) of
    /// the longest dependence chain through registers and memory, ignoring
    /// resources.
    ///
    /// Useful as a property-test oracle: no schedule can beat it.
    pub fn dependence_height(&self, insts: &[Inst]) -> u64 {
        let mut def_done: RegTable<u64> = RegTable::new();
        let mut best = 0u64;
        let mut store_done: Vec<(MemRef, u64)> = Vec::new();
        for inst in insts {
            let mut start = 0u64;
            for &u in inst.uses() {
                if let Some(t) = def_done.get(u) {
                    start = start.max(t);
                }
            }
            if let Some(m) = inst.mem_ref() {
                for &(w, done) in &store_done {
                    if m.may_alias(w) {
                        start = start.max(done);
                    }
                }
            }
            let done = start + u64::from(self.machine.latency(inst.opcode()));
            for &d in inst.defs() {
                def_done.set(d, done);
            }
            if inst.opcode().is_store() {
                if let Some(m) = inst.mem_ref() {
                    store_done.push((m, done));
                }
            }
            best = best.max(done);
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wts_ir::{MemSpace, Opcode, Reg};

    fn m() -> MachineConfig {
        MachineConfig::ppc7410()
    }

    fn cycles(insts: Vec<Inst>) -> u64 {
        let m = m();
        CostModel::new(&m).sequence_cycles(&insts)
    }

    #[test]
    fn empty_block_is_free() {
        assert_eq!(cycles(vec![]), 0);
    }

    #[test]
    fn single_add_takes_its_latency() {
        let got = cycles(vec![Inst::new(Opcode::Add).def(Reg::gpr(1)).use_(Reg::gpr(2)).use_(Reg::gpr(3))]);
        assert_eq!(got, 1);
    }

    #[test]
    fn dependent_chain_serializes() {
        // fadd f1<-f0; fadd f2<-f1 : 4 + 4 cycles.
        let got = cycles(vec![
            Inst::new(Opcode::Fadd).def(Reg::fpr(1)).use_(Reg::fpr(0)).use_(Reg::fpr(0)),
            Inst::new(Opcode::Fadd).def(Reg::fpr(2)).use_(Reg::fpr(1)).use_(Reg::fpr(1)),
        ]);
        assert_eq!(got, 8);
    }

    #[test]
    fn independent_ints_dual_issue() {
        // Two independent adds can share a cycle on the two integer units.
        let got = cycles(vec![
            Inst::new(Opcode::Add).def(Reg::gpr(1)).use_(Reg::gpr(5)).use_(Reg::gpr(6)),
            Inst::new(Opcode::Add).def(Reg::gpr(2)).use_(Reg::gpr(7)).use_(Reg::gpr(8)),
        ]);
        assert_eq!(got, 1);
    }

    #[test]
    fn issue_width_limits_triples() {
        // Three independent adds: only two non-branch issues per cycle.
        let got = cycles(vec![
            Inst::new(Opcode::Add).def(Reg::gpr(1)).use_(Reg::gpr(5)).use_(Reg::gpr(6)),
            Inst::new(Opcode::Add).def(Reg::gpr(2)).use_(Reg::gpr(7)).use_(Reg::gpr(8)),
            Inst::new(Opcode::Add).def(Reg::gpr(3)).use_(Reg::gpr(9)).use_(Reg::gpr(10)),
        ]);
        assert_eq!(got, 2);
    }

    #[test]
    fn branch_issues_alongside_ints() {
        let got = cycles(vec![
            Inst::new(Opcode::Add).def(Reg::gpr(1)).use_(Reg::gpr(5)).use_(Reg::gpr(6)),
            Inst::new(Opcode::Add).def(Reg::gpr(2)).use_(Reg::gpr(7)).use_(Reg::gpr(8)),
            Inst::new(Opcode::B),
        ]);
        assert_eq!(got, 1, "2 ints + 1 branch fit in one cycle on the 7410");
    }

    #[test]
    fn complex_int_unit_is_contended() {
        // Two independent multiplies share the single complex-int unit, but
        // it is pipelined: second issues one cycle later.
        let got = cycles(vec![
            Inst::new(Opcode::Mullw).def(Reg::gpr(1)).use_(Reg::gpr(5)).use_(Reg::gpr(6)),
            Inst::new(Opcode::Mullw).def(Reg::gpr(2)).use_(Reg::gpr(7)).use_(Reg::gpr(8)),
        ]);
        assert_eq!(got, 5); // issue at 0 and 1, done at 4 and 5
    }

    #[test]
    fn divide_hogs_its_unit() {
        let lat = m().latency(Opcode::Divw) as u64;
        let got = cycles(vec![
            Inst::new(Opcode::Divw).def(Reg::gpr(1)).use_(Reg::gpr(5)).use_(Reg::gpr(6)),
            Inst::new(Opcode::Divw).def(Reg::gpr(2)).use_(Reg::gpr(7)).use_(Reg::gpr(8)),
        ]);
        assert_eq!(got, 2 * lat, "non-pipelined divides serialize on the unit");
    }

    #[test]
    fn store_load_aliasing_orders_memory() {
        let slot = MemRef::slot(MemSpace::Heap, 0);
        let store_lat = m().latency(Opcode::Stw) as u64;
        let load_lat = m().latency(Opcode::Lwz) as u64;
        let got = cycles(vec![
            Inst::new(Opcode::Stw).use_(Reg::gpr(1)).use_(Reg::gpr(2)).mem(slot),
            Inst::new(Opcode::Lwz).def(Reg::gpr(3)).use_(Reg::gpr(2)).mem(slot),
        ]);
        assert_eq!(got, store_lat + load_lat, "load waits for the aliasing store");
    }

    #[test]
    fn disjoint_slots_do_not_order() {
        let a = MemRef::slot(MemSpace::Stack, 0);
        let b = MemRef::slot(MemSpace::Stack, 8);
        let got = cycles(vec![
            Inst::new(Opcode::Stw).use_(Reg::gpr(1)).use_(Reg::gpr(2)).mem(a),
            Inst::new(Opcode::Lwz).def(Reg::gpr(3)).use_(Reg::gpr(4)).mem(b),
        ]);
        // Single LSU: load issues the next cycle, overlapping the store.
        assert_eq!(got, 1 + m().latency(Opcode::Lwz) as u64);
    }

    #[test]
    fn sync_serializes_everything() {
        let got = cycles(vec![
            Inst::new(Opcode::Fadd).def(Reg::fpr(1)).use_(Reg::fpr(0)).use_(Reg::fpr(0)),
            Inst::new(Opcode::Sync),
            Inst::new(Opcode::Add).def(Reg::gpr(1)).use_(Reg::gpr(5)).use_(Reg::gpr(6)),
        ]);
        let m = m();
        let expect = m.latency(Opcode::Fadd) as u64 + m.latency(Opcode::Sync) as u64 + m.latency(Opcode::Add) as u64;
        assert_eq!(got, expect);
    }

    #[test]
    fn call_is_serializing() {
        let got = cycles(vec![
            Inst::new(Opcode::Lwz).def(Reg::gpr(3)).use_(Reg::gpr(4)).mem(MemRef::unknown(MemSpace::Heap)),
            Inst::new(Opcode::Bl).def(Reg::lr()),
            Inst::new(Opcode::Add).def(Reg::gpr(1)).use_(Reg::gpr(3)).use_(Reg::gpr(3)),
        ]);
        let m = m();
        let expect = m.latency(Opcode::Lwz) as u64 + m.latency(Opcode::Bl) as u64 + m.latency(Opcode::Add) as u64;
        assert_eq!(got, expect);
    }

    #[test]
    fn reordering_independent_work_hides_latency() {
        // Bad order: load; use; unrelated adds — use stalls on the load.
        let slot = MemRef::slot(MemSpace::Heap, 0);
        let bad = vec![
            Inst::new(Opcode::Lwz).def(Reg::gpr(1)).use_(Reg::gpr(9)).mem(slot),
            Inst::new(Opcode::Add).def(Reg::gpr(2)).use_(Reg::gpr(1)).use_(Reg::gpr(1)),
            Inst::new(Opcode::Add).def(Reg::gpr(3)).use_(Reg::gpr(7)).use_(Reg::gpr(8)),
            Inst::new(Opcode::Add).def(Reg::gpr(4)).use_(Reg::gpr(7)).use_(Reg::gpr(8)),
        ];
        let good = vec![bad[0], bad[2], bad[3], bad[1]];
        assert!(cycles(good) < cycles(bad));
    }

    #[test]
    fn dependence_height_is_a_lower_bound() {
        let m = m();
        let cm = CostModel::new(&m);
        let insts = vec![
            Inst::new(Opcode::Lfd).def(Reg::fpr(1)).use_(Reg::gpr(1)).mem(MemRef::slot(MemSpace::Heap, 0)),
            Inst::new(Opcode::Fmul).def(Reg::fpr(2)).use_(Reg::fpr(1)).use_(Reg::fpr(1)),
            Inst::new(Opcode::Fadd).def(Reg::fpr(3)).use_(Reg::fpr(2)).use_(Reg::fpr(2)),
        ];
        let h = cm.dependence_height(&insts);
        assert_eq!(h, (m.latency(Opcode::Lfd) + m.latency(Opcode::Fmul) + m.latency(Opcode::Fadd)) as u64);
        assert!(cm.sequence_cycles(&insts) >= h);
    }

    #[test]
    fn earliest_issue_matches_commit() {
        let mach = m();
        let mut st = IssueState::new(&mach);
        let a = Inst::new(Opcode::Lwz).def(Reg::gpr(1)).use_(Reg::gpr(9)).mem(MemRef::slot(MemSpace::Heap, 0));
        let b = Inst::new(Opcode::Add).def(Reg::gpr(2)).use_(Reg::gpr(1)).use_(Reg::gpr(1));
        let ea = st.earliest_issue(&a);
        assert_eq!(st.issue(&a), ea);
        let eb = st.earliest_issue(&b);
        assert_eq!(eb, mach.latency(Opcode::Lwz) as u64, "consumer waits for the load");
        assert_eq!(st.issue(&b), eb);
        assert_eq!(st.completion_time(), eb + mach.latency(Opcode::Add) as u64);
    }

    #[test]
    fn earliest_issue_is_monotone_across_issues() {
        let mach = m();
        let mut st = IssueState::new(&mach);
        let adds: Vec<Inst> = (0..6u16)
            .map(|i| Inst::new(Opcode::Add).def(Reg::gpr(i + 10)).use_(Reg::gpr(1)).use_(Reg::gpr(2)))
            .collect();
        let mut last = 0;
        for a in &adds {
            let e = st.earliest_issue(a);
            assert!(e >= last);
            last = st.issue(a);
        }
    }
}
