//! The detailed out-of-order pipeline simulator (hardware stand-in).

use crate::{Barrier, DepKind, DepScan, DepSink, FunctionalUnit, MachineConfig, OpTiming};
use std::cell::RefCell;
use wts_ir::{BasicBlock, Inst};

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
/// Each call runs on warm, hash-free scratch. The window is ordered by
/// [`DepScan`], the same scan that builds the scheduler's dependence
/// graph, with serializing instructions as its only barriers. Its edges
/// land, undeduplicated and flagged as completion or issue constraints,
/// in one flat CSR predecessor array, and per-instruction completion
/// cycles live in a reused buffer. The scratch is private and per
/// thread, so a query takes `&self`, the simulator is `Sync`, and a
/// steady-state query allocates nothing.
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

/// "Not issued yet" in [`SimScratch::done`] (no issued instruction
/// completes at `u64::MAX`).
const UNISSUED: u64 = u64::MAX;

thread_local! {
    /// The simulator's per-thread scratch, warm across every query the
    /// thread makes.
    static SCRATCH: RefCell<SimScratch> = RefCell::new(SimScratch::default());
}

/// Reusable state of one simulation: the dependence scan and the
/// predecessor arrays it fills, and the issue loop's per-instruction
/// timing rows and completion cycles.
#[derive(Default)]
struct SimScratch {
    scan: DepScan,
    /// Every instruction's predecessors, CSR-style: instruction `i`'s are
    /// `preds[pred_off[i]..pred_off[i + 1]]`, each flagged `true` when its
    /// *completion* must precede our issue and `false` when only its
    /// *issue* must precede-or-equal ours.
    pred_off: Vec<u32>,
    preds: Vec<(u32, bool)>,
    /// What the issue loop reads of each instruction, looked up once.
    slots: Vec<OpTiming>,
    /// Completion cycle of each instruction, [`UNISSUED`] until it issues.
    done: Vec<u64>,
}

/// The simulator's [`DepSink`]: keeps every edge, without dedup (a
/// completion edge must survive a weaker edge to the same pair), flagged
/// by what it waits for. An instruction waits for a producer's result,
/// an aliasing store's write or a barrier to complete; it need only
/// issue no earlier than an instruction whose operand it overwrites or a
/// load whose slot it stores to.
struct SimSink<'a> {
    slots: &'a [OpTiming],
    pred_off: &'a mut Vec<u32>,
    preds: &'a mut Vec<(u32, bool)>,
}

impl DepSink for SimSink<'_> {
    #[inline]
    fn edge(&mut self, from: u32, _: u32, kind: DepKind) {
        let completes = match kind {
            DepKind::Anti | DepKind::Output => false,
            DepKind::Memory => self.slots[from as usize].store,
            DepKind::True | DepKind::Control | DepKind::Hazard => true,
        };
        self.preds.push((from, completes));
    }

    #[inline]
    fn end_inst(&mut self) {
        self.pred_off.push(u32::try_from(self.preds.len()).expect("predecessor list outgrew u32 offsets"));
    }
}

impl SimScratch {
    /// Simulates `insts` (non-empty) on `machine`; returns the cycle the
    /// last instruction completes.
    fn simulate(&mut self, machine: &MachineConfig, insts: &[Inst]) -> u64 {
        self.slots.clear();
        self.slots.extend(insts.iter().map(|inst| *machine.timing(inst.opcode())));
        self.preds.clear();
        self.pred_off.clear();
        self.pred_off.push(0);
        // Serializing instructions are the only barriers.
        let classify =
            |inst: &Inst| if machine.timing(inst.opcode()).serializing { Barrier::Full } else { Barrier::None };
        let mut sink = SimSink { slots: &self.slots, pred_off: &mut self.pred_off, preds: &mut self.preds };
        self.scan.scan(insts, classify, &mut sink);
        let n = insts.len();
        let window = machine.window();
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
                    // A completion predecessor blocks until it completes,
                    // an issue predecessor while it is unissued (reading
                    // as completing at `UNISSUED`, after every cycle).
                    let preds = &self.preds[self.pred_off[i] as usize..self.pred_off[i + 1] as usize];
                    let until = |completes: bool| if completes { cycle } else { UNISSUED - 1 };
                    if let Some(&(p, _)) = preds.iter().find(|&&(p, completes)| done[p as usize] > until(completes)) {
                        wake = wake.min(done[p as usize]);
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

    /// Regression, shrunk from a `wide4` counterexample of the pipeline
    /// oracle: `lfd [heap+0]; stw [heap+2]; stfd [heap+0]`. The store to
    /// the other slot used to retire the pending load, so the store to its
    /// slot could issue ahead of it, and adding that unrelated store made
    /// the sequence *faster* (38 against 41 cycles on ppc7410, 29 against
    /// 30 on wide4).
    #[test]
    fn a_store_to_another_slot_does_not_let_a_store_pass_a_pending_load() {
        let heap = |slot| MemRef::slot(MemSpace::Heap, slot);
        let with_other_store = [
            Inst::new(Opcode::Fadd).def(Reg::fpr(0)).use_(Reg::fpr(1)).use_(Reg::fpr(0)),
            Inst::new(Opcode::Fadd).def(Reg::fpr(1)).use_(Reg::fpr(0)).use_(Reg::fpr(1)),
            Inst::new(Opcode::Lfd).def(Reg::fpr(1)).use_(Reg::gpr(2)).mem(heap(0)),
            Inst::new(Opcode::Fdiv).def(Reg::fpr(2)).use_(Reg::fpr(3)).use_(Reg::fpr(3)),
            Inst::new(Opcode::Stw).use_(Reg::gpr(2)).use_(Reg::gpr(0)).mem(heap(2)),
            Inst::new(Opcode::Stfd).use_(Reg::fpr(0)).use_(Reg::gpr(1)).mem(heap(0)),
            Inst::new(Opcode::Stw).use_(Reg::gpr(2)).use_(Reg::gpr(0)).mem(heap(0)),
        ];
        let mut without = with_other_store.to_vec();
        without.remove(4);
        for machine in crate::registry() {
            let sim = PipelineSim::new(&machine);
            assert!(
                sim.sequence_cycles(&with_other_store) >= sim.sequence_cycles(&without),
                "{}: an extra store must not speed the block up",
                machine.name()
            );
        }
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
