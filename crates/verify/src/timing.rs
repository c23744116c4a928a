//! Analysis 2: timing legality.
//!
//! [`resimulate`] is an independent re-implementation of the in-order
//! machine model — per-register readiness, memory ordering, serializing
//! instructions, issue/branch width, functional-unit occupancy — written
//! against the *documented* `wts-machine` semantics with none of
//! `IssueState`'s incremental bookkeeping (per-cycle counters become a
//! hash map keyed by cycle, the rolling barrier floor is recomputed, and
//! every issue is materialized as an [`IssueEvent`]).
//! [`check_timing`] verifies a [`ScheduleOutcome`]'s claims against it:
//! the claimed `cycles_before`/`cycles_after` must match the checker's
//! counts, a schedule may never be kept when it rates worse than the
//! original order, and the issue events themselves are audited — no
//! consumer before its producer's latency elapses, no cycle over its
//! issue or branch width, no functional unit holding two instructions at
//! once. Finally both cost models are cross-checked: the cheap
//! [`CostModel`] must agree with the re-simulation exactly, and neither it
//! nor the hardware stand-in [`PipelineSim`] may report a count below the
//! latency-weighted dependence chain, which no machine of any width can
//! beat.

use crate::diag::{Analysis, Diagnostic, UnitCtx};
use std::collections::HashMap;
use wts_ir::{Inst, MemRef, Opcode, Reg, UnitClass};
use wts_machine::{CostModel, FunctionalUnit, MachineConfig, PipelineSim};
use wts_sched::ScheduleOutcome;

/// One instruction issue derived by the re-simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IssueEvent {
    /// Position in the simulated sequence.
    pub slot: usize,
    /// Issue cycle.
    pub cycle: u64,
    /// The functional unit it occupies.
    pub unit: FunctionalUnit,
    /// Cycle its result is available (`cycle + latency`).
    pub done: u64,
}

/// Serializing instructions per the machine model: syncs and calls.
fn is_serializing(op: Opcode) -> bool {
    matches!(op, Opcode::Sync | Opcode::Isync) || op.is_call()
}

/// Re-simulates `insts` in order on `machine`, returning the completion
/// time and the per-instruction issue events.
pub fn resimulate(machine: &MachineConfig, insts: &[Inst]) -> (u64, Vec<IssueEvent>) {
    let lat = machine.latencies();
    let mut reg_done: HashMap<Reg, u64> = HashMap::new();
    let mut store_done: Vec<(MemRef, u64)> = Vec::new();
    let mut load_issued: Vec<(MemRef, u64)> = Vec::new();
    let mut unit_busy_until = [0u64; FunctionalUnit::COUNT];
    let mut issued_in_cycle: HashMap<u64, (u32, u32)> = HashMap::new(); // (branch, nonbranch)
    let mut barrier_floor = 0u64;
    let mut max_done = 0u64;
    let mut last_issue = 0u64;
    let mut events = Vec::with_capacity(insts.len());

    for (slot, inst) in insts.iter().enumerate() {
        let op = inst.opcode();
        let is_branch_unit = op.unit_class() == UnitClass::Branch;

        // Data and ordering readiness.
        let mut ready = barrier_floor;
        for u in inst.uses() {
            if let Some(&t) = reg_done.get(u) {
                ready = ready.max(t);
            }
        }
        if let Some(m) = inst.mem_ref() {
            for &(w, done) in &store_done {
                if m.may_alias(w) {
                    ready = ready.max(done);
                }
            }
            if op.is_store() {
                for &(r, issued) in &load_issued {
                    if m.may_alias(r) {
                        ready = ready.max(issued);
                    }
                }
            }
        }
        if is_serializing(op) {
            ready = ready.max(max_done);
        }

        // First cycle (at or after the previous issue — in-order) with a
        // free width slot and a free unit of the right class.
        let mut c = ready.max(last_issue);
        let unit = loop {
            let (branch, nonbranch) = issued_in_cycle.get(&c).copied().unwrap_or((0, 0));
            let width_ok =
                if is_branch_unit { branch < machine.branch_width() } else { nonbranch < machine.issue_width() };
            if width_ok {
                if let Some(u) = machine.units_for(op.unit_class()).iter().find(|u| unit_busy_until[u.index()] <= c) {
                    break u;
                }
            }
            c += 1;
        };

        // Commit the issue.
        let counts = issued_in_cycle.entry(c).or_insert((0, 0));
        if is_branch_unit {
            counts.0 += 1;
        } else {
            counts.1 += 1;
        }
        let done = c + u64::from(lat.latency(op));
        unit_busy_until[unit.index()] = c + u64::from(lat.unit_occupancy(op));
        last_issue = c;
        max_done = max_done.max(done);
        for &d in inst.defs() {
            reg_done.insert(d, done);
        }
        if let Some(m) = inst.mem_ref() {
            if op.is_store() {
                store_done.push((m, done));
                load_issued.clear();
            } else {
                load_issued.push((m, c));
            }
        }
        if is_serializing(op) {
            barrier_floor = done;
        }
        events.push(IssueEvent { slot, cycle: c, unit, done });
    }
    (max_done, events)
}

/// The latency-weighted dependence-chain lower bound: the longest chain
/// of completions over true register flow and aliasing store ordering.
/// No legal execution on any issue width can finish below it, so any
/// cost model reporting less is broken.
pub(crate) fn dependence_lower_bound(machine: &MachineConfig, insts: &[Inst]) -> u64 {
    let lat = machine.latencies();
    let mut reg_done: HashMap<Reg, u64> = HashMap::new();
    let mut store_chain: Vec<(MemRef, u64)> = Vec::new();
    let mut best = 0u64;
    for inst in insts {
        let op = inst.opcode();
        let mut start = 0u64;
        for u in inst.uses() {
            if let Some(&t) = reg_done.get(u) {
                start = start.max(t);
            }
        }
        if let Some(m) = inst.mem_ref() {
            for &(w, done) in &store_chain {
                if m.may_alias(w) {
                    start = start.max(done);
                }
            }
        }
        let done = start + u64::from(lat.latency(op));
        for &d in inst.defs() {
            reg_done.insert(d, done);
        }
        if let Some(m) = inst.mem_ref() {
            if op.is_store() {
                store_chain.push((m, done));
            }
        }
        best = best.max(done);
    }
    best
}

/// Verifies `outcome`'s timing claims for a unit whose original
/// instructions are `insts`. The order must already be a valid
/// permutation (the schedule-legality walk runs first).
pub(crate) fn check_timing(
    ctx: &UnitCtx,
    machine: &MachineConfig,
    insts: &[Inst],
    outcome: &ScheduleOutcome,
    out: &mut Vec<Diagnostic>,
) {
    let scheduled: Vec<Inst> = outcome.order.iter().map(|&i| insts[i]).collect();

    let (before, _) = resimulate(machine, insts);
    if before != outcome.cycles_before {
        out.push(ctx.error(
            Analysis::Timing,
            format!(
                "claimed {} cycles for the original order but independent re-simulation takes {before}",
                outcome.cycles_before
            ),
        ));
    }
    let (after, events) = resimulate(machine, &scheduled);
    if after != outcome.cycles_after {
        out.push(ctx.error(
            Analysis::Timing,
            format!(
                "claimed {} cycles for the scheduled order but independent re-simulation takes {after}",
                outcome.cycles_after
            ),
        ));
    }
    if outcome.cycles_after > outcome.cycles_before {
        out.push(ctx.error(
            Analysis::Timing,
            format!(
                "kept a schedule rated {} cycles when the original order takes {}: the revert-to-identity guarantee is broken",
                outcome.cycles_after, outcome.cycles_before
            ),
        ));
    }

    audit_events(ctx, machine, &scheduled, &events, out);
    cross_check_providers(ctx, machine, insts, &scheduled, before, after, out);
}

/// Audits derived issue events against the raw machine constraints —
/// independent of how the events were derived.
fn audit_events(
    ctx: &UnitCtx,
    machine: &MachineConfig,
    scheduled: &[Inst],
    events: &[IssueEvent],
    out: &mut Vec<Diagnostic>,
) {
    // No consumer issues before its producer's latency has elapsed.
    let mut producer_done: HashMap<Reg, u64> = HashMap::new();
    for (k, inst) in scheduled.iter().enumerate() {
        for u in inst.uses() {
            if let Some(&done) = producer_done.get(u) {
                if events[k].cycle < done {
                    out.push(ctx.error(
                        Analysis::Timing,
                        format!(
                            "{} at slot {k} issues at cycle {} before its operand is ready at cycle {done}",
                            inst.opcode(),
                            events[k].cycle
                        ),
                    ));
                }
            }
        }
        for &d in inst.defs() {
            producer_done.insert(d, events[k].done);
        }
    }

    // No cycle oversubscribes the issue or branch width.
    let mut per_cycle: HashMap<u64, (u32, u32)> = HashMap::new();
    for (k, inst) in scheduled.iter().enumerate() {
        let counts = per_cycle.entry(events[k].cycle).or_insert((0, 0));
        if inst.opcode().unit_class() == UnitClass::Branch {
            counts.0 += 1;
        } else {
            counts.1 += 1;
        }
    }
    let mut cycles: Vec<_> = per_cycle.into_iter().collect();
    cycles.sort_unstable();
    for (c, (branch, nonbranch)) in cycles {
        if branch > machine.branch_width() {
            out.push(ctx.error(
                Analysis::Timing,
                format!(
                    "cycle {c} issues {branch} branch instructions on a branch width of {}",
                    machine.branch_width()
                ),
            ));
        }
        if nonbranch > machine.issue_width() {
            out.push(ctx.error(
                Analysis::Timing,
                format!(
                    "cycle {c} issues {nonbranch} non-branch instructions on an issue width of {}",
                    machine.issue_width()
                ),
            ));
        }
    }

    // No functional unit holds two instructions at once.
    for unit in FunctionalUnit::ALL {
        let mut on_unit: Vec<(u64, u64)> = events
            .iter()
            .filter(|e| e.unit == unit)
            .map(|e| (e.cycle, u64::from(machine.latencies().unit_occupancy(scheduled[e.slot].opcode()))))
            .collect();
        on_unit.sort_unstable();
        for w in on_unit.windows(2) {
            let (prev_cycle, occupancy) = w[0];
            if w[1].0 < prev_cycle + occupancy {
                out.push(ctx.error(
                    Analysis::Timing,
                    format!(
                        "functional unit {unit:?} is oversubscribed: an instruction issues at cycle {} while the unit is busy until {}",
                        w[1].0,
                        prev_cycle + occupancy
                    ),
                ));
            }
        }
    }
}

/// Cross-checks both cost models — the cheap [`CostModel`] and the
/// hardware stand-in [`PipelineSim`] — against the re-simulation and the
/// dependence-chain lower bound.
fn cross_check_providers(
    ctx: &UnitCtx,
    machine: &MachineConfig,
    insts: &[Inst],
    scheduled: &[Inst],
    before: u64,
    after: u64,
    out: &mut Vec<Diagnostic>,
) {
    let cheap = CostModel::new(machine);
    let cheap = (cheap.sequence_cycles(insts), cheap.sequence_cycles(scheduled));
    // The cheap estimator *is* the in-order model; it must agree with the
    // independent re-simulation cycle for cycle.
    for (order, got, want) in [("original", cheap.0, before), ("scheduled", cheap.1, after)] {
        if got != want {
            out.push(ctx.error(
                Analysis::Timing,
                format!("the cheap provider reports {got} cycles for the {order} order but re-simulation takes {want}"),
            ));
        }
    }
    let sim = PipelineSim::new(machine);
    let pipeline = (sim.sequence_cycles(insts), sim.sequence_cycles(scheduled));
    // No model may beat the latency-weighted dependence chain.
    let bounds = (dependence_lower_bound(machine, insts), dependence_lower_bound(machine, scheduled));
    for (name, (pb, pa)) in [("cheap", cheap), ("pipeline", pipeline)] {
        for (order, got, bound) in [("original", pb, bounds.0), ("scheduled", pa, bounds.1)] {
            if got < bound {
                out.push(ctx.error(
                    Analysis::Timing,
                    format!(
                        "the {name} provider reports {got} cycles for the {order} order, below the dependence-chain lower bound {bound}"
                    ),
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wts_machine::IssueState;

    fn machines() -> Vec<MachineConfig> {
        wts_machine::registry()
    }

    fn mixed_block() -> Vec<Inst> {
        use wts_ir::{MemSpace, Reg};
        vec![
            Inst::new(Opcode::Lwz).def(Reg::gpr(1)).mem(MemRef::slot(MemSpace::Stack, 0)),
            Inst::new(Opcode::Add).def(Reg::gpr(2)).use_(Reg::gpr(1)).use_(Reg::gpr(1)),
            Inst::new(Opcode::Fadd).def(Reg::fpr(1)).use_(Reg::fpr(2)).use_(Reg::fpr(3)),
            Inst::new(Opcode::Stw).use_(Reg::gpr(2)).mem(MemRef::slot(MemSpace::Stack, 0)),
            Inst::new(Opcode::Lwz).def(Reg::gpr(3)).mem(MemRef::unknown(MemSpace::Heap)),
            Inst::new(Opcode::Bl),
            Inst::new(Opcode::Add).def(Reg::gpr(4)).use_(Reg::gpr(3)).use_(Reg::gpr(3)),
            Inst::new(Opcode::Bc),
        ]
    }

    #[test]
    fn resimulation_matches_issue_state_on_every_registry_machine() {
        let insts = mixed_block();
        for machine in machines() {
            let expected = IssueState::new(&machine).replay(&insts);
            let (got, events) = resimulate(&machine, &insts);
            assert_eq!(got, expected, "{}", machine.name());
            assert_eq!(events.len(), insts.len());
        }
    }

    #[test]
    fn resimulation_matches_issue_state_on_pseudorandom_blocks() {
        // Hand-rolled xorshift so the corpus is deterministic without
        // pulling a rng crate in.
        let mut state = 0x1234_5678_9abc_def0u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        use wts_ir::{MemSpace, Reg};
        for machine in machines() {
            for _case in 0..50 {
                let n = (next() % 12 + 1) as usize;
                let mut insts = Vec::with_capacity(n);
                for _ in 0..n {
                    let r = next() % 6;
                    let a = Reg::gpr((next() % 4) as u16);
                    let b = Reg::gpr((next() % 4) as u16);
                    let d = Reg::gpr((next() % 4) as u16);
                    let slot = (next() % 3) as u32;
                    insts.push(match r {
                        0 => Inst::new(Opcode::Add).def(d).use_(a).use_(b),
                        1 => Inst::new(Opcode::Mullw).def(d).use_(a).use_(b),
                        2 => Inst::new(Opcode::Lwz).def(d).mem(MemRef::slot(MemSpace::Stack, slot)),
                        3 => Inst::new(Opcode::Stw).use_(a).mem(MemRef::slot(MemSpace::Stack, slot)),
                        4 => Inst::new(Opcode::Fadd)
                            .def(Reg::fpr((next() % 4) as u16))
                            .use_(Reg::fpr(0))
                            .use_(Reg::fpr(1)),
                        _ => Inst::new(Opcode::Sync),
                    });
                }
                let expected = IssueState::new(&machine).replay(&insts);
                let (got, _) = resimulate(&machine, &insts);
                assert_eq!(got, expected, "{}: {insts:?}", machine.name());
            }
        }
    }

    #[test]
    fn lower_bound_never_exceeds_either_provider() {
        let insts = mixed_block();
        for machine in machines() {
            let bound = dependence_lower_bound(&machine, &insts);
            let cheap = CostModel::new(&machine).sequence_cycles(&insts);
            let pipeline = PipelineSim::new(&machine).sequence_cycles(&insts);
            for (name, cycles) in [("cheap", cheap), ("pipeline", pipeline)] {
                assert!(cycles >= bound, "{} {name}: {cycles} < bound {bound}", machine.name());
            }
        }
    }

    #[test]
    fn a_shrunk_latency_is_caught_as_a_timing_error() {
        // Schedule against a machine whose load latency was shrunk to 1,
        // then verify the outcome's claims against the real ppc7410.
        let insts = mixed_block();
        let real = MachineConfig::ppc7410();
        let shrunk = MachineConfig::builder("ppc7410-shrunk").issue_width(2).window(8).latency(Opcode::Lwz, 1).build();
        let scheduler = wts_sched::ListScheduler::new(&shrunk);
        let outcome = scheduler.schedule_insts(&insts);
        let ctx = UnitCtx::new("ppc7410");
        let mut out = Vec::new();
        check_timing(&ctx, &real, &insts, &outcome, &mut out);
        assert!(
            out.iter().any(|d| d.analysis == Analysis::Timing && d.message.contains("re-simulation takes")),
            "shrunk-latency outcome must fail the real machine's timing check:\n{}",
            crate::render(&out)
        );
    }

    #[test]
    fn a_clean_outcome_draws_no_timing_diagnostics() {
        let insts = mixed_block();
        for machine in machines() {
            let scheduler = wts_sched::ListScheduler::new(&machine);
            let outcome = scheduler.schedule_insts(&insts);
            let ctx = UnitCtx::new(machine.name());
            let mut out = Vec::new();
            check_timing(&ctx, &machine, &insts, &outcome, &mut out);
            assert!(out.is_empty(), "{}:\n{}", machine.name(), crate::render(&out));
        }
    }
}
