//! Analysis 3: speculation safety for superblock traces.
//!
//! Speculative scheduling may hoist *pure computation* above a side exit
//! (the speculative dependence graph deliberately lets register-only
//! instructions cross branches), but anything observable must stay put:
//! a store, call, sync or hazardous instruction hoisted above a side
//! exit would execute on paths that leave the trace early, and one sunk
//! below a side exit would be skipped on them. Branches are themselves
//! side-effecting here, so the check also pins the side exits' relative
//! order — in particular the trace's *entry* region: the first control
//! transfer of the scheduled trace must be the same instruction as in
//! the original trace.

use crate::diag::{Analysis, Diagnostic, UnitCtx};
use wts_ir::Inst;

/// An instruction whose execution is observable off-trace.
fn is_effectful(inst: &Inst) -> bool {
    inst.opcode().has_side_effect() || inst.is_hazardous()
}

/// Checks that `order` (a valid permutation of `insts`) preserves the
/// position of every side-effecting instruction relative to every side
/// exit, and the identity of the first control transfer.
pub(crate) fn check_speculation(ctx: &UnitCtx, insts: &[Inst], order: &[usize], out: &mut Vec<Diagnostic>) {
    let n = insts.len();
    if order.len() != n {
        return; // not a permutation: the schedule-legality walk reports it
    }
    let mut pos = vec![usize::MAX; n];
    for (p, &i) in order.iter().enumerate() {
        if i >= n || pos[i] != usize::MAX {
            return;
        }
        pos[i] = p;
    }

    let exits: Vec<usize> = (0..n).filter(|&i| insts[i].opcode().is_branch()).collect();
    for &x in &exits {
        for e in (0..n).filter(|&e| e != x && is_effectful(&insts[e])) {
            let was_above = e < x;
            let is_above = pos[e] < pos[x];
            if was_above && !is_above {
                out.push(ctx.error(
                    Analysis::Speculation,
                    format!(
                        "side-effecting {} at index {e} sunk below the side exit {} at index {x}",
                        insts[e].opcode(),
                        insts[x].opcode()
                    ),
                ));
            } else if !was_above && is_above {
                out.push(ctx.error(
                    Analysis::Speculation,
                    format!(
                        "side-effecting {} at index {e} hoisted above the side exit {} at index {x}",
                        insts[e].opcode(),
                        insts[x].opcode()
                    ),
                ));
            }
        }
    }

    // Entry identity: the first control transfer still fires first, so
    // the trace enters and leaves through the same instruction.
    let original_first = (0..n).find(|&i| insts[i].opcode().is_control());
    let scheduled_first = order.iter().copied().find(|&i| insts[i].opcode().is_control());
    if let (Some(a), Some(b)) = (original_first, scheduled_first) {
        if a != b {
            out.push(ctx.error(
                Analysis::Speculation,
                format!(
                    "entry region changed: the first control transfer is now {} at index {b} (was {} at index {a})",
                    insts[b].opcode(),
                    insts[a].opcode()
                ),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wts_ir::{MemRef, MemSpace, Opcode, Reg};

    fn ctx() -> UnitCtx {
        UnitCtx::new("test")
    }

    fn trace() -> Vec<Inst> {
        vec![
            Inst::new(Opcode::Add).def(Reg::gpr(1)).use_(Reg::gpr(9)).use_(Reg::gpr(9)),
            Inst::new(Opcode::Bc), // side exit
            Inst::new(Opcode::Stw).use_(Reg::gpr(1)).mem(MemRef::slot(MemSpace::Stack, 0)),
            Inst::new(Opcode::Bc), // terminator
        ]
    }

    #[test]
    fn hoisting_a_store_above_a_side_exit_is_an_error() {
        let insts = trace();
        let mut out = Vec::new();
        check_speculation(&ctx(), &insts, &[0, 2, 1, 3], &mut out);
        assert!(
            out.iter().any(|d| d.message.contains("stw at index 2 hoisted above the side exit")),
            "{}",
            crate::render(&out)
        );
    }

    #[test]
    fn sinking_a_store_below_a_side_exit_is_an_error() {
        let insts = vec![
            Inst::new(Opcode::Stw).use_(Reg::gpr(1)).mem(MemRef::slot(MemSpace::Stack, 0)),
            Inst::new(Opcode::Bc),
            Inst::new(Opcode::Add).def(Reg::gpr(2)).use_(Reg::gpr(9)).use_(Reg::gpr(9)),
            Inst::new(Opcode::Bc),
        ];
        let mut out = Vec::new();
        check_speculation(&ctx(), &insts, &[1, 0, 2, 3], &mut out);
        assert!(
            out.iter().any(|d| d.message.contains("stw at index 0 sunk below the side exit")),
            "{}",
            crate::render(&out)
        );
    }

    #[test]
    fn hoisting_pure_computation_is_allowed() {
        // The speculative model's whole point: index 2's add may move
        // above the side exit at index 1.
        let insts = vec![
            Inst::new(Opcode::Add).def(Reg::gpr(1)).use_(Reg::gpr(9)).use_(Reg::gpr(9)),
            Inst::new(Opcode::Bc),
            Inst::new(Opcode::Add).def(Reg::gpr(2)).use_(Reg::gpr(8)).use_(Reg::gpr(8)),
            Inst::new(Opcode::Bc),
        ];
        let mut out = Vec::new();
        check_speculation(&ctx(), &insts, &[0, 2, 1, 3], &mut out);
        assert!(out.is_empty(), "{}", crate::render(&out));
    }

    #[test]
    fn swapping_side_exits_breaks_entry_identity() {
        let insts = trace();
        let mut out = Vec::new();
        check_speculation(&ctx(), &insts, &[0, 3, 2, 1], &mut out);
        assert!(out.iter().any(|d| d.message.contains("entry region changed")), "{}", crate::render(&out));
    }

    #[test]
    fn the_identity_order_is_clean() {
        let insts = trace();
        let mut out = Vec::new();
        check_speculation(&ctx(), &insts, &[0, 1, 2, 3], &mut out);
        assert!(out.is_empty(), "{}", crate::render(&out));
    }
}
