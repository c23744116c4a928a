//! The detailed out-of-order pipeline simulator (hardware stand-in).

use crate::{FunctionalUnit, MachineConfig, OpTiming};
use std::cell::RefCell;
use wts_ir::{BasicBlock, Inst, RegTable};

/// A more detailed simulator than [`CostModel`](crate::CostModel): it
/// models a small out-of-order window (the 7410's limited dynamic
/// scheduling), in-order fetch/retire, per-unit contention and the
/// machine's issue-width rules.
///
/// In the reproduction this plays the role of *the real machine*: the
/// application-running-time figures (Figures 1(b), 2(b), 3(b)) are
/// computed against it, while training labels come from the cheap
/// [`CostModel`](crate::CostModel). Because the window recovers part of
/// the stalls a bad order causes, measured improvements are smaller than
/// predicted ones — the same gap the paper reports between Table 4 and its
/// measured figures.
///
/// # Cost of a query
///
/// Each call runs on warm, hash-free scratch: the dependence scan writes
/// flat CSR predecessor arrays, tracks every register's last def and
/// readers in a dense [`RegTable`] over a shared reader pool, and keeps
/// per-instruction completion cycles in a reused buffer. The scratch is
/// private and per thread, so the simulator stays a `&self`, `Sync`
/// [`CostProvider`](crate::CostProvider) and a steady-state query
/// allocates nothing.
///
/// The clock is event-driven: a cycle that issues nothing jumps straight
/// to the earliest cycle at which an in-window instruction's readiness
/// can change — a blocking predecessor completing or a busy unit freeing.
/// Readiness changes only at those cycles or when something issues, so
/// every result equals the cycle-by-cycle loop's exactly; the
/// `prop_pipeline_oracle` suite checks this against that loop on every
/// registry machine.
///
/// # Examples
///
/// ```
/// use wts_ir::{BasicBlock, Inst, Opcode, Reg};
/// use wts_machine::{MachineConfig, PipelineSim};
///
/// let m = MachineConfig::ppc7410();
/// let mut b = BasicBlock::new(0);
/// b.push(Inst::new(Opcode::Add).def(Reg::gpr(1)).use_(Reg::gpr(2)).use_(Reg::gpr(3)));
/// assert!(PipelineSim::new(&m).block_cycles(&b) >= 1);
/// ```
#[derive(Debug, Clone)]
pub struct PipelineSim<'m> {
    machine: &'m MachineConfig,
}

/// "No instruction" in the scan state, and "not issued yet" in
/// [`SimScratch::done`] (no issued instruction completes at `u64::MAX`).
const NONE: u32 = u32::MAX;
const UNISSUED: u64 = u64::MAX;

/// Per-register scan state: the last def of the register and the head of
/// its list (in [`SimScratch::reader_pool`]) of readers since that def.
#[derive(Clone, Copy, Default)]
struct RegScan {
    def: u32,
    readers: u32,
}

impl RegScan {
    /// A register the current sequence has not touched yet.
    const UNTOUCHED: RegScan = RegScan { def: NONE, readers: NONE };
}

thread_local! {
    /// The simulator's per-thread scratch, warm across every query the
    /// thread makes.
    static SCRATCH: RefCell<SimScratch> = RefCell::new(SimScratch::default());
}

/// Reusable state of one simulation: the dependence scan's CSR output and
/// work lists, and the issue loop's per-instruction constraints and
/// completion cycles.
#[derive(Default)]
struct SimScratch {
    /// Predecessors whose *completion* must precede our issue:
    /// instruction `i`'s are `completion[completion_off[i]..completion_off[i + 1]]`.
    completion_off: Vec<u32>,
    completion: Vec<u32>,
    /// Predecessors whose *issue* must precede-or-equal our issue, laid
    /// out like `completion`.
    issue_off: Vec<u32>,
    issue: Vec<u32>,
    regs: RegTable<RegScan>,
    /// Linked-list pool behind the per-register reader lists:
    /// `(reader index, next pool slot)`.
    reader_pool: Vec<(u32, u32)>,
    stores: Vec<u32>,
    loads_since_store: Vec<u32>,
    since_barrier: Vec<u32>,
    /// What the issue loop reads of each instruction, looked up once.
    slots: Vec<OpTiming>,
    /// Completion cycle of each instruction, [`UNISSUED`] until it issues.
    done: Vec<u64>,
}

fn offset(len: usize) -> u32 {
    u32::try_from(len).expect("dependence lists stay far below u32::MAX entries")
}

impl SimScratch {
    /// The dependence scan: records every instruction's completion and
    /// issue predecessors, in program order.
    fn scan_deps(&mut self, machine: &MachineConfig, insts: &[Inst]) {
        self.completion_off.clear();
        self.completion.clear();
        self.issue_off.clear();
        self.issue.clear();
        self.regs.clear();
        self.reader_pool.clear();
        self.stores.clear();
        self.loads_since_store.clear();
        self.since_barrier.clear();
        self.completion_off.push(0);
        self.issue_off.push(0);
        let mut last_barrier: Option<u32> = None;

        for (idx, inst) in insts.iter().enumerate() {
            let i = u32::try_from(idx).expect("simulated blocks are far below u32::MAX insts");
            let op = inst.opcode();
            // True data dependences.
            for &u in inst.uses() {
                let scan = self.regs.get(u).unwrap_or(RegScan::UNTOUCHED);
                if scan.def != NONE {
                    self.completion.push(scan.def);
                }
                self.reader_pool.push((i, scan.readers));
                self.regs.set(u, RegScan { readers: offset(self.reader_pool.len() - 1), ..scan });
            }
            // Output and anti dependences on registers.
            for &d in inst.defs() {
                let scan = self.regs.get(d).unwrap_or(RegScan::UNTOUCHED);
                if scan.def != NONE {
                    self.issue.push(scan.def);
                }
                let mut cursor = scan.readers;
                while cursor != NONE {
                    let (r, next) = self.reader_pool[cursor as usize];
                    if r != i {
                        self.issue.push(r);
                    }
                    cursor = next;
                }
            }
            // Memory ordering.
            if let Some(m) = inst.mem_ref() {
                for &s in &self.stores {
                    let sm = insts[s as usize].mem_ref().expect("stores carry mem refs");
                    if m.may_alias(sm) {
                        self.completion.push(s);
                    }
                }
                if op.is_store() {
                    for &l in &self.loads_since_store {
                        let lm = insts[l as usize].mem_ref().expect("loads carry mem refs");
                        if m.may_alias(lm) {
                            self.issue.push(l);
                        }
                    }
                }
            }
            // Serializing instructions.
            if let Some(b) = last_barrier {
                self.completion.push(b);
            }
            if machine.timing(op).serializing {
                self.completion.extend_from_slice(&self.since_barrier);
                last_barrier = Some(i);
                self.since_barrier.clear();
            } else {
                self.since_barrier.push(i);
            }
            // Update write state last.
            for &d in inst.defs() {
                self.regs.set(d, RegScan { def: i, readers: NONE });
            }
            if op.is_store() {
                self.stores.push(i);
                self.loads_since_store.clear();
            } else if op.is_load() {
                self.loads_since_store.push(i);
            }
            self.completion_off.push(offset(self.completion.len()));
            self.issue_off.push(offset(self.issue.len()));
        }
    }

    /// Simulates `insts` (non-empty) on `machine`; returns the cycle the
    /// last instruction completes.
    fn simulate(&mut self, machine: &MachineConfig, insts: &[Inst]) -> u64 {
        self.scan_deps(machine, insts);
        let n = insts.len();
        let window = machine.window();
        self.slots.clear();
        self.slots.extend(insts.iter().map(|inst| *machine.timing(inst.opcode())));
        self.done.clear();
        self.done.resize(n, UNISSUED);
        let done = &mut self.done;
        let mut unit_free = [0u64; FunctionalUnit::COUNT];
        let mut oldest = 0usize; // first unissued instruction
        let mut cycle: u64 = 0;
        let mut max_done: u64 = 0;

        // Cap runaway loops: every instruction must issue within a bounded
        // horizon (sum of all latencies plus the block length is a safe
        // over-estimate).
        let length = u64::try_from(n).expect("block length fits u64");
        let horizon: u64 = insts.iter().map(|i| u64::from(machine.latency(i.opcode()))).sum::<u64>() + length + 64;

        while oldest < n {
            assert!(cycle <= horizon, "pipeline simulator failed to make progress");
            let mut nonbranch_budget = machine.issue_width();
            let mut branch_budget = machine.branch_width();
            // The earliest later cycle at which a blocked candidate's
            // readiness can change; only read when this cycle issues
            // nothing, i.e. after one scan over an unchanged window.
            let mut wake = UNISSUED;
            let mut issued_any = false;
            // The selector may look `window` instructions past the oldest
            // unissued one; issuing the oldest slides the window within
            // the same cycle (in-order front end, OoO selection).
            let mut progress = true;
            while progress && (nonbranch_budget > 0 || branch_budget > 0) && oldest < n {
                progress = false;
                let limit = (oldest + window).min(n);
                for i in oldest..limit {
                    if done[i] != UNISSUED {
                        continue;
                    }
                    let slot = self.slots[i];
                    let budget = if slot.branch { &mut branch_budget } else { &mut nonbranch_budget };
                    if *budget == 0 {
                        continue;
                    }
                    // An unissued predecessor reads as completing at
                    // `UNISSUED`, after every cycle.
                    let completion =
                        &self.completion[self.completion_off[i] as usize..self.completion_off[i + 1] as usize];
                    if let Some(&p) = completion.iter().find(|&&p| done[p as usize] > cycle) {
                        wake = wake.min(done[p as usize]);
                        continue;
                    }
                    let issue = &self.issue[self.issue_off[i] as usize..self.issue_off[i + 1] as usize];
                    if issue.iter().any(|&p| done[p as usize] == UNISSUED) {
                        continue;
                    }
                    // The first free capable unit, in index order.
                    let mut free_unit = None;
                    for (u, &free) in unit_free.iter().enumerate() {
                        if slot.units.bits() & (1 << u) != 0 {
                            if free <= cycle {
                                free_unit = Some(u);
                                break;
                            }
                            wake = wake.min(free);
                        }
                    }
                    let Some(u) = free_unit else {
                        continue;
                    };
                    let completes = cycle + u64::from(slot.latency);
                    done[i] = completes;
                    max_done = max_done.max(completes);
                    unit_free[u] = cycle + u64::from(slot.occupancy);
                    *budget -= 1;
                    progress = true;
                }
                issued_any |= progress;
                while oldest < n && done[oldest] != UNISSUED {
                    oldest += 1;
                }
            }
            // A cycle that issued nothing leaves the window and the unit
            // state as they were, so nothing can issue before `wake`; with
            // no wake-up in sight the progress assert fires.
            cycle = if issued_any {
                cycle + 1
            } else if wake == UNISSUED {
                horizon + 1
            } else {
                wake
            };
        }
        max_done
    }
}

impl<'m> PipelineSim<'m> {
    /// A pipeline simulator for the given machine.
    pub fn new(machine: &'m MachineConfig) -> PipelineSim<'m> {
        PipelineSim { machine }
    }

    /// The machine being modelled.
    pub fn machine(&self) -> &MachineConfig {
        self.machine
    }

    /// Simulated cycles to execute `block` in its current order.
    pub fn block_cycles(&self, block: &BasicBlock) -> u64 {
        self.sequence_cycles(block.insts())
    }

    /// Simulated cycles for an explicit instruction sequence.
    pub fn sequence_cycles(&self, insts: &[Inst]) -> u64 {
        if insts.is_empty() {
            return 0;
        }
        SCRATCH.with(|scratch| scratch.borrow_mut().simulate(self.machine, insts))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CostModel;
    use wts_ir::{MemRef, MemSpace, Opcode, Reg};

    fn m() -> MachineConfig {
        MachineConfig::ppc7410()
    }

    fn sim(insts: &[Inst]) -> u64 {
        let mach = m();
        PipelineSim::new(&mach).sequence_cycles(insts)
    }

    fn load(def: u16, slot: u32) -> Inst {
        Inst::new(Opcode::Lwz).def(Reg::gpr(def)).use_(Reg::gpr(30)).mem(MemRef::slot(MemSpace::Heap, slot))
    }

    fn add(def: u16, a: u16, b: u16) -> Inst {
        Inst::new(Opcode::Add).def(Reg::gpr(def)).use_(Reg::gpr(a)).use_(Reg::gpr(b))
    }

    #[test]
    fn empty_sequence_is_free() {
        assert_eq!(sim(&[]), 0);
    }

    #[test]
    fn single_instruction_latency() {
        assert_eq!(sim(&[add(1, 2, 3)]), 1);
        assert_eq!(sim(&[load(1, 0)]), m().latency(Opcode::Lwz) as u64);
    }

    #[test]
    fn window_recovers_bad_order() {
        // use-of-load immediately after load, independent adds after: the
        // OoO window issues the adds while the load completes.
        let bad = [load(1, 0), add(2, 1, 1), add(3, 7, 8), add(4, 7, 8)];
        let mach = m();
        let ooo = PipelineSim::new(&mach).sequence_cycles(&bad);
        let inorder = CostModel::new(&mach).sequence_cycles(&bad);
        assert!(ooo <= inorder, "window must not be slower than in-order");
        assert!(ooo < inorder, "window should hide part of the load stall");
    }

    #[test]
    fn dependences_still_respected() {
        let chain = [
            Inst::new(Opcode::Fadd).def(Reg::fpr(1)).use_(Reg::fpr(0)).use_(Reg::fpr(0)),
            Inst::new(Opcode::Fadd).def(Reg::fpr(2)).use_(Reg::fpr(1)).use_(Reg::fpr(1)),
        ];
        assert_eq!(sim(&chain), 2 * m().latency(Opcode::Fadd) as u64);
    }

    #[test]
    fn aliasing_store_load_ordered() {
        let slot = MemRef::slot(MemSpace::Heap, 4);
        let seq = [
            Inst::new(Opcode::Stw).use_(Reg::gpr(1)).use_(Reg::gpr(2)).mem(slot),
            Inst::new(Opcode::Lwz).def(Reg::gpr(3)).use_(Reg::gpr(2)).mem(slot),
        ];
        let mach = m();
        assert_eq!(sim(&seq), (mach.latency(Opcode::Stw) + mach.latency(Opcode::Lwz)) as u64);
    }

    #[test]
    fn anti_dependence_not_violated() {
        // r1 is read by the add, then overwritten by the load: the load may
        // not complete before... (we model: load issues >= add's issue).
        let seq = [add(2, 1, 1), load(1, 0), add(3, 2, 2)];
        // Sanity: simulation terminates and cost >= dependence height.
        let mach = m();
        let h = CostModel::new(&mach).dependence_height(&seq);
        assert!(sim(&seq) >= h);
    }

    #[test]
    fn window_bounded_by_in_order_cost() {
        // For a purely serial chain, OoO equals in-order.
        let mach = m();
        let chain: Vec<Inst> = (1..6u16)
            .map(|i| Inst::new(Opcode::Mullw).def(Reg::gpr(i)).use_(Reg::gpr(i - 1)).use_(Reg::gpr(i - 1)))
            .collect();
        assert_eq!(PipelineSim::new(&mach).sequence_cycles(&chain), CostModel::new(&mach).sequence_cycles(&chain));
    }

    #[test]
    fn serializing_call_orders_window() {
        let seq = [load(1, 0), Inst::new(Opcode::Bl).def(Reg::lr()), add(2, 7, 8)];
        let mach = m();
        let expect = (mach.latency(Opcode::Lwz) + mach.latency(Opcode::Bl) + mach.latency(Opcode::Add)) as u64;
        assert_eq!(sim(&seq), expect);
    }

    #[test]
    fn window_one_behaves_in_order() {
        let mach = MachineConfig::simple_scalar();
        let seq = [load(1, 0), add(2, 1, 1), add(3, 7, 8), add(4, 7, 8)];
        let ooo = PipelineSim::new(&mach).sequence_cycles(&seq);
        let ino = CostModel::new(&mach).sequence_cycles(&seq);
        assert_eq!(ooo, ino, "window=1 must match the in-order model");
    }

    #[test]
    fn scheduling_still_helps_but_less_than_in_order_predicts() {
        // The key methodological property: improvements measured on the
        // detailed machine are smaller than CostModel predicts.
        let bad = [
            load(1, 0),
            add(2, 1, 1),
            load(3, 8),
            add(4, 3, 3),
            load(5, 16),
            add(6, 5, 5),
            add(7, 20, 21),
            add(8, 22, 23),
        ];
        let good = [bad[0], bad[2], bad[4], bad[6], bad[1], bad[3], bad[7], bad[5]];
        let mach = m();
        let cm = CostModel::new(&mach);
        let ps = PipelineSim::new(&mach);
        let pred_gain = cm.sequence_cycles(&bad) as i64 - cm.sequence_cycles(&good) as i64;
        let meas_gain = ps.sequence_cycles(&bad) as i64 - ps.sequence_cycles(&good) as i64;
        assert!(pred_gain > 0);
        assert!(meas_gain >= 0);
        assert!(meas_gain <= pred_gain, "dynamic hardware recovers part of the stall");
    }
}
