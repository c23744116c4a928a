//! Driving the analyses: per-unit verification for the pipeline hooks
//! and whole-program sweeps for `repro verify`.

use crate::deps::check_dependences;
use crate::diag::{Analysis, Diagnostic, Severity, UnitCtx};
use crate::spec::check_speculation;
use crate::timing::check_timing;
use wts_deps::DepGraph;
use wts_features::for_each_scope_unit;
use wts_ir::{Inst, Program, ScopeKind};
use wts_machine::MachineConfig;
use wts_sched::{verify_schedule, ListScheduler, SchedScratch, ScheduleOutcome, SchedulePolicy, VerifyError};

/// Verifies one scheduling unit end to end: the dependence graph against
/// the oracle, the order against the graph, the timing claims against
/// the re-simulation, and (for speculative traces) speculation safety.
///
/// This is the entry point wts-core's debug-build hook calls on every
/// unit the pipeline schedules. An empty vector means the unit is clean.
pub fn verify_unit(
    machine: &MachineConfig,
    insts: &[Inst],
    speculative: bool,
    outcome: &ScheduleOutcome,
) -> Vec<Diagnostic> {
    let ctx = UnitCtx::new(machine.name());
    verify_unit_in(&ctx, machine, insts, speculative, outcome)
}

/// [`verify_unit`] with an explicit location context (program sweeps).
pub(crate) fn verify_unit_in(
    ctx: &UnitCtx,
    machine: &MachineConfig,
    insts: &[Inst],
    speculative: bool,
    outcome: &ScheduleOutcome,
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let graph = if speculative { DepGraph::build_speculative(insts) } else { DepGraph::build(insts) };
    check_dependences(ctx, insts, speculative, &graph, &mut out);

    // Schedule legality reuses the shared permutation walk, against the
    // same (possibly speculative) graph the scheduler used.
    let order_errors = verify_schedule(&graph, &outcome.order);
    let order_ok = order_errors.is_empty();
    let perm_ok = !order_errors
        .iter()
        .any(|e| matches!(e, VerifyError::LengthMismatch { .. } | VerifyError::NotAPermutation { .. }));
    for e in order_errors {
        out.push(ctx.error(Analysis::Timing, e.to_string()));
    }

    // Timing claims need a fully legal order; speculation safety is an
    // independent pairwise check and only needs a valid permutation (a
    // hoisted store is both a dependence violation *and* a speculation
    // finding).
    if order_ok {
        check_timing(ctx, machine, insts, outcome, &mut out);
    }
    if speculative && perm_ok {
        check_speculation(ctx, insts, &outcome.order, &mut out);
    }
    out
}

/// What a whole-program sweep found.
#[derive(Debug, Clone)]
pub struct VerifyReport {
    /// The machine verified against.
    pub machine: String,
    /// Scheduling units examined.
    pub units: usize,
    /// Units whose schedule actually changed the order.
    pub changed: usize,
    /// Everything the analyses reported.
    pub diagnostics: Vec<Diagnostic>,
}

impl VerifyReport {
    /// True when no analysis reported anything.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Diagnostics attributed to one analysis.
    pub fn count(&self, analysis: Analysis) -> usize {
        self.diagnostics.iter().filter(|d| d.analysis == analysis).count()
    }

    /// Error-severity diagnostics.
    pub fn errors(&self) -> usize {
        self.diagnostics.iter().filter(|d| d.severity == Severity::Error).count()
    }

    /// Folds another report over the same machine into this one.
    pub fn merge(&mut self, other: VerifyReport) {
        debug_assert_eq!(self.machine, other.machine);
        self.units += other.units;
        self.changed += other.changed;
        self.diagnostics.extend(other.diagnostics);
    }
}

/// Runs the full checker over every scheduling unit of `program`:
/// structural validation per block, then dependence/timing/speculation
/// verification of the schedule each unit gets under `policy` and
/// `scope` on `machine`.
pub fn verify_program(
    program: &Program,
    machine: &MachineConfig,
    policy: SchedulePolicy,
    scope: ScopeKind,
) -> VerifyReport {
    let scheduler = ListScheduler::with_policy(machine, policy);
    let mut scratch = SchedScratch::new(machine);
    let mut outcome = ScheduleOutcome::default();
    let mut report =
        VerifyReport { machine: machine.name().to_string(), units: 0, changed: 0, diagnostics: Vec::new() };

    for method in program.methods() {
        let mid = method.id().0;
        // Structural validity first: the analyses assume well-formed IR.
        for block in method.blocks() {
            if let Err(e) = block.validate() {
                let ctx = UnitCtx::located(machine.name(), mid, block.id().0);
                report.diagnostics.push(ctx.error(Analysis::Structure, e.to_string()));
            }
        }
        for_each_scope_unit(method, scope, |unit| {
            let ctx = UnitCtx::located(machine.name(), mid, unit.block.0);
            let speculative = unit.speculative();
            if speculative {
                scheduler.schedule_superblock_into(unit.insts, &mut scratch, &mut outcome);
            } else {
                scheduler.schedule_insts_into(unit.insts, &mut scratch, &mut outcome);
            }
            report.units += 1;
            report.changed += usize::from(outcome.changed());
            report.diagnostics.extend(verify_unit_in(&ctx, machine, unit.insts, speculative, &outcome));
        });
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use wts_ir::{BasicBlock, MemRef, MemSpace, Method, Opcode, Reg};

    fn small_program() -> Program {
        let mut p = Program::new("verify-unit-test");
        let mut m = Method::new(0, "m0");
        let mut b = BasicBlock::from_insts(
            0,
            vec![
                Inst::new(Opcode::Lwz).def(Reg::gpr(1)).mem(MemRef::slot(MemSpace::Stack, 0)),
                Inst::new(Opcode::Add).def(Reg::gpr(2)).use_(Reg::gpr(1)).use_(Reg::gpr(1)),
                Inst::new(Opcode::Fadd).def(Reg::fpr(1)).use_(Reg::fpr(2)).use_(Reg::fpr(3)),
                Inst::new(Opcode::Stw).use_(Reg::gpr(2)).mem(MemRef::slot(MemSpace::Stack, 0)),
                Inst::new(Opcode::Bc),
            ],
        );
        b.set_exec_count(100);
        m.push_block(b);
        let mut b2 = BasicBlock::from_insts(
            1,
            vec![Inst::new(Opcode::Add).def(Reg::gpr(3)).use_(Reg::gpr(2)).use_(Reg::gpr(2)), Inst::new(Opcode::Blr)],
        );
        b2.set_exec_count(60);
        m.push_block(b2);
        p.push_method(m);
        p
    }

    #[test]
    fn the_untampered_pipeline_is_clean_on_every_machine_policy_and_scope() {
        let program = small_program();
        for machine in wts_machine::registry() {
            for policy in [
                SchedulePolicy::CriticalPath,
                SchedulePolicy::EarliestStart,
                SchedulePolicy::CriticalPathOnly,
                SchedulePolicy::Random(7),
            ] {
                for scope in [ScopeKind::Block, ScopeKind::Superblock(70)] {
                    let report = verify_program(&program, &machine, policy, scope);
                    assert!(report.units > 0);
                    assert!(
                        report.is_clean(),
                        "{} {policy} {scope}:\n{}",
                        machine.name(),
                        crate::render(&report.diagnostics)
                    );
                }
            }
        }
    }

    #[test]
    fn a_swapped_pair_in_a_claimed_outcome_is_caught() {
        let machine = MachineConfig::ppc7410();
        let insts = small_program().methods()[0].blocks()[0].insts().to_vec();
        let scheduler = ListScheduler::new(&machine);
        let mut outcome = scheduler.schedule_insts(&insts);
        // Tamper: swap the load and its consumer in the final order.
        let a = outcome.order.iter().position(|&i| i == 0).unwrap();
        let b = outcome.order.iter().position(|&i| i == 1).unwrap();
        outcome.order.swap(a, b);
        let diags = verify_unit(&machine, &insts, false, &outcome);
        assert!(
            diags.iter().any(|d| d.message.contains("dependence 0 -> 1 violated by order")),
            "{}",
            crate::render(&diags)
        );
    }

    #[test]
    fn structural_rot_is_reported_through_the_same_diagnostics() {
        let mut program = small_program();
        // Tamper: a terminator in the middle of block 0.
        let method = &mut program.methods_mut()[0];
        let insts = method.blocks()[0].insts().to_vec();
        let mut rotted = vec![Inst::new(Opcode::Blr)];
        rotted.extend(insts);
        method.blocks_mut()[0] = BasicBlock::from_insts(0, rotted);
        let report =
            verify_program(&program, &MachineConfig::ppc7410(), SchedulePolicy::CriticalPath, ScopeKind::Block);
        assert!(
            report.diagnostics.iter().any(|d| d.analysis == Analysis::Structure),
            "{}",
            crate::render(&report.diagnostics)
        );
    }

    #[test]
    fn reports_merge_counts_and_diagnostics() {
        let program = small_program();
        let machine = MachineConfig::ppc7410();
        let mut a = verify_program(&program, &machine, SchedulePolicy::CriticalPath, ScopeKind::Block);
        let b = verify_program(&program, &machine, SchedulePolicy::EarliestStart, ScopeKind::Block);
        let units = a.units + b.units;
        a.merge(b);
        assert_eq!(a.units, units);
        assert!(a.is_clean());
    }
}
