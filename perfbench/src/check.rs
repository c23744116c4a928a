//! Independent output checks, run outside every timed window. Schedules
//! are checked against `wts_verify::oracle_edges`, the naive O(n²)
//! dependence oracle, never against the scheduler's own graph.

use wts_deps::DepKind;
use wts_ir::{BasicBlock, Inst};

/// Oracle edges of one unit, computed once and reused for every output
/// of that unit.
pub type Edges = Vec<(usize, usize, DepKind)>;

/// The oracle's edges for `insts`.
pub fn oracle(insts: &[Inst], speculative: bool) -> Edges {
    wts_verify::oracle_edges(insts, speculative)
}

/// Checks that `order` (original instruction indices in their new
/// order) is a permutation of `0..n` that keeps every oracle edge
/// forward.
///
/// # Errors
///
/// Describes the first violation.
pub fn check_order(n: usize, order: &[usize], edges: &Edges) -> Result<(), String> {
    if order.len() != n {
        return Err(format!("order has {} entries for a unit of {n}", order.len()));
    }
    let mut pos = vec![usize::MAX; n];
    for (at, &i) in order.iter().enumerate() {
        if i >= n || pos[i] != usize::MAX {
            return Err(format!("order is not a permutation: index {i} at position {at}"));
        }
        pos[i] = at;
    }
    for &(from, to, kind) in edges {
        if pos[from] > pos[to] {
            return Err(format!("{kind:?} edge {from}->{to} reversed"));
        }
    }
    Ok(())
}

/// Recovers the order a compiled block applied to `original`, matching
/// each compiled instruction to the earliest unused equal original one
/// (equal instructions keep their relative order, as their output
/// dependences require). `None` when the compiled block is not a
/// rearrangement of the original.
pub fn recover_order(original: &[Inst], compiled: &[Inst]) -> Option<Vec<usize>> {
    if original.len() != compiled.len() {
        return None;
    }
    let mut used = vec![false; original.len()];
    compiled
        .iter()
        .map(|inst| {
            let i = (0..original.len()).find(|&i| !used[i] && original[i] == *inst)?;
            used[i] = true;
            Some(i)
        })
        .collect()
}

/// Checks one compiled block against its original.
///
/// # Errors
///
/// Describes the violation.
pub fn check_block(original: &BasicBlock, compiled: &BasicBlock, edges: &Edges) -> Result<(), String> {
    if original.id() != compiled.id() || original.exec_count() != compiled.exec_count() {
        return Err(format!("block {:?} changed identity or profile weight", original.id()));
    }
    let order = recover_order(original.insts(), compiled.insts())
        .ok_or_else(|| format!("block {:?} is not a rearrangement of its input", original.id()))?;
    check_order(original.insts().len(), &order, edges)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wts_ir::{Opcode, Reg};

    fn chain() -> Vec<Inst> {
        vec![
            Inst::new(Opcode::Li).def(Reg::gpr(1)).imm(1),
            Inst::new(Opcode::Add).def(Reg::gpr(2)).use_(Reg::gpr(1)).use_(Reg::gpr(1)),
            Inst::new(Opcode::Li).def(Reg::gpr(3)).imm(2),
        ]
    }

    #[test]
    fn legal_reorders_pass_and_reversed_edges_fail() {
        let insts = chain();
        let edges = oracle(&insts, false);
        assert!(edges.iter().any(|&(f, t, _)| (f, t) == (0, 1)));
        assert_eq!(check_order(3, &[2, 0, 1], &edges), Ok(()));
        assert!(check_order(3, &[1, 0, 2], &edges).unwrap_err().contains("reversed"));
        assert!(check_order(3, &[0, 0, 1], &edges).unwrap_err().contains("permutation"));
        assert!(check_order(3, &[0, 1], &edges).is_err());
    }

    #[test]
    fn orders_are_recovered_from_rearranged_blocks() {
        let insts = chain();
        let moved = vec![insts[2], insts[0], insts[1]];
        assert_eq!(recover_order(&insts, &moved), Some(vec![2, 0, 1]));
        assert_eq!(recover_order(&insts, &insts[..2]), None);
        let foreign = vec![insts[0], insts[0], insts[1]];
        assert_eq!(recover_order(&insts, &foreign), None);
    }
}
