//! Weighted critical-path computation.

use crate::DepGraph;
use wts_ir::Inst;
use wts_machine::MachineConfig;

/// For every instruction, the latency-weighted length of the longest
/// dependence path from it to the end of the block — the tie-breaking
/// priority of the paper's CPS list scheduler ("the path of dependent
/// instructions that takes the longest to execute", §1.1).
///
/// Nodes contribute their own latency; edges contribute nothing. Since
/// every edge goes from a lower to a higher index, a single reverse sweep
/// over the successor rows suffices.
///
/// # Panics
///
/// Panics if `graph` was not built from `insts` (length mismatch).
///
/// # Examples
///
/// ```
/// use wts_deps::{critical_paths, DepGraph};
/// use wts_ir::{Inst, Opcode, Reg};
/// use wts_machine::MachineConfig;
///
/// let insts = vec![
///     Inst::new(Opcode::Lwz).def(Reg::gpr(1)).use_(Reg::gpr(9))
///         .mem(wts_ir::MemRef::slot(wts_ir::MemSpace::Heap, 0)),
///     Inst::new(Opcode::Add).def(Reg::gpr(2)).use_(Reg::gpr(1)).use_(Reg::gpr(1)),
/// ];
/// let g = DepGraph::build(&insts);
/// let m = MachineConfig::ppc7410();
/// let cp = critical_paths(&g, &insts, &m);
/// assert_eq!(cp[1], m.latency(Opcode::Add) as u64);
/// assert_eq!(cp[0], (m.latency(Opcode::Lwz) + m.latency(Opcode::Add)) as u64);
/// ```
pub fn critical_paths(graph: &DepGraph, insts: &[Inst], machine: &MachineConfig) -> Vec<u64> {
    let mut cp = Vec::new();
    critical_paths_into(graph, insts, machine, &mut cp);
    cp
}

/// Like [`critical_paths`], but fills a caller-provided buffer so batch
/// callers (the scheduler's scratch path) allocate nothing in steady
/// state. `cp`'s previous contents are discarded; its allocation is
/// reused.
///
/// # Panics
///
/// Panics if `graph` was not built from `insts` (length mismatch).
pub fn critical_paths_into(graph: &DepGraph, insts: &[Inst], machine: &MachineConfig, cp: &mut Vec<u64>) {
    assert_eq!(graph.len(), insts.len(), "graph/instruction length mismatch");
    let n = insts.len();
    cp.clear();
    cp.resize(n, 0);
    for i in (0..n).rev() {
        let lat = machine.latency(insts[i].opcode()) as u64;
        let best_succ = graph.succs(i).map(|s| cp[s]).max().unwrap_or(0);
        cp[i] = lat + best_succ;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wts_ir::{MemRef, MemSpace, Opcode, Reg};

    fn machine() -> MachineConfig {
        MachineConfig::ppc7410()
    }

    #[test]
    fn empty_block() {
        let g = DepGraph::build(&[]);
        assert!(critical_paths(&g, &[], &machine()).is_empty());
    }

    #[test]
    fn independent_nodes_have_own_latency() {
        let insts = vec![
            Inst::new(Opcode::Add).def(Reg::gpr(1)).use_(Reg::gpr(8)).use_(Reg::gpr(9)),
            Inst::new(Opcode::Fadd).def(Reg::fpr(1)).use_(Reg::fpr(8)).use_(Reg::fpr(9)),
        ];
        let g = DepGraph::build(&insts);
        let m = machine();
        let cp = critical_paths(&g, &insts, &m);
        assert_eq!(cp[0], m.latency(Opcode::Add) as u64);
        assert_eq!(cp[1], m.latency(Opcode::Fadd) as u64);
    }

    #[test]
    fn chain_accumulates() {
        let insts = vec![
            Inst::new(Opcode::Fmul).def(Reg::fpr(1)).use_(Reg::fpr(0)).use_(Reg::fpr(0)),
            Inst::new(Opcode::Fadd).def(Reg::fpr(2)).use_(Reg::fpr(1)).use_(Reg::fpr(1)),
            Inst::new(Opcode::Stfd).use_(Reg::fpr(2)).use_(Reg::gpr(1)).mem(MemRef::slot(MemSpace::Heap, 0)),
        ];
        let g = DepGraph::build(&insts);
        let m = machine();
        let cp = critical_paths(&g, &insts, &m);
        let want = (m.latency(Opcode::Fmul) + m.latency(Opcode::Fadd) + m.latency(Opcode::Stfd)) as u64;
        assert_eq!(cp[0], want);
        assert!(cp[0] > cp[1] && cp[1] > cp[2]);
    }

    #[test]
    fn diamond_takes_longest_arm() {
        // root defs r1; two consumers (one slow fdiv chain via f-regs is
        // not possible on GPRs, so use mul vs add); a final join.
        let insts = vec![
            Inst::new(Opcode::Li).def(Reg::gpr(1)).imm(1),
            Inst::new(Opcode::Mullw).def(Reg::gpr(2)).use_(Reg::gpr(1)).use_(Reg::gpr(1)),
            Inst::new(Opcode::Addi).def(Reg::gpr(3)).use_(Reg::gpr(1)).imm(1),
            Inst::new(Opcode::Add).def(Reg::gpr(4)).use_(Reg::gpr(2)).use_(Reg::gpr(3)),
        ];
        let g = DepGraph::build(&insts);
        let m = machine();
        let cp = critical_paths(&g, &insts, &m);
        let slow_arm = (m.latency(Opcode::Mullw) + m.latency(Opcode::Add)) as u64;
        assert_eq!(cp[0], m.latency(Opcode::Li) as u64 + slow_arm);
    }
}
