//! Schedule verification: permutation + dependence preservation.

use std::fmt;
use wts_deps::DepGraph;

/// Why a proposed order is not a legal schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VerifyError {
    /// Order length differs from the instruction count.
    LengthMismatch {
        /// Instructions in the block.
        expected: usize,
        /// Entries in the order.
        got: usize,
    },
    /// Order is not a permutation (an index repeats or is out of range).
    NotAPermutation {
        /// The offending index value.
        index: usize,
    },
    /// A dependence edge is violated.
    DependenceViolated {
        /// Producer/earlier instruction (original index).
        from: usize,
        /// Consumer/later instruction (original index).
        to: usize,
    },
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyError::LengthMismatch { expected, got } => {
                write!(f, "order has {got} entries but block has {expected} instructions")
            }
            VerifyError::NotAPermutation { index } => {
                write!(f, "order is not a permutation (index {index})")
            }
            VerifyError::DependenceViolated { from, to } => {
                write!(f, "dependence {from} -> {to} violated by order")
            }
        }
    }
}

impl std::error::Error for VerifyError {}

/// Checks that `order` is a dependence-respecting permutation of the
/// instructions `graph` was built over, collecting *every* violation:
/// the length mismatch (if any), every repeated or out-of-range index,
/// and every violated dependence edge. An empty vector means the order
/// is a legal schedule. The graph may be the block graph or the
/// speculative superblock graph; `wts-verify` checks both through here.
pub fn verify_schedule(graph: &DepGraph, order: &[usize]) -> Vec<VerifyError> {
    let n = graph.len();
    let mut errors = Vec::new();
    if order.len() != n {
        errors.push(VerifyError::LengthMismatch { expected: n, got: order.len() });
    }
    let mut pos = vec![usize::MAX; n];
    for (p, &i) in order.iter().enumerate() {
        if i >= n || pos[i] != usize::MAX {
            errors.push(VerifyError::NotAPermutation { index: i });
        } else {
            pos[i] = p;
        }
    }
    for to in 0..n {
        if pos[to] == usize::MAX {
            continue; // never placed: already reported above
        }
        for &(from, _) in graph.preds(to) {
            let from = from as usize;
            // An unplaced producer is a permutation error, not a
            // dependence one; only compare positions that exist.
            if pos[from] != usize::MAX && pos[from] > pos[to] {
                errors.push(VerifyError::DependenceViolated { from, to });
            }
        }
    }
    errors
}

#[cfg(test)]
mod tests {
    use super::*;
    use wts_ir::{Inst, Opcode, Reg};

    fn add(def: u16, a: u16) -> Inst {
        Inst::new(Opcode::Add).def(Reg::gpr(def)).use_(Reg::gpr(a)).use_(Reg::gpr(a))
    }

    fn check(insts: &[Inst], order: &[usize]) -> Vec<VerifyError> {
        verify_schedule(&DepGraph::build(insts), order)
    }

    #[test]
    fn accepts_identity_and_legal_swap() {
        let insts = vec![add(1, 9), add(2, 8)];
        assert_eq!(check(&insts, &[0, 1]), []);
        assert_eq!(check(&insts, &[1, 0]), []);
    }

    #[test]
    fn rejects_length_mismatch() {
        let insts = vec![add(1, 9)];
        assert_eq!(check(&insts, &[]), [VerifyError::LengthMismatch { expected: 1, got: 0 }]);
    }

    #[test]
    fn rejects_duplicates_and_out_of_range() {
        let insts = vec![add(1, 9), add(2, 8)];
        assert_eq!(check(&insts, &[0, 0]), [VerifyError::NotAPermutation { index: 0 }]);
        assert_eq!(check(&insts, &[0, 5]), [VerifyError::NotAPermutation { index: 5 }]);
    }

    #[test]
    fn rejects_dependence_violation() {
        let insts = vec![add(1, 9), add(2, 1)]; // 1 truly depends on 0
        assert_eq!(check(&insts, &[1, 0]), [VerifyError::DependenceViolated { from: 0, to: 1 }]);
    }

    #[test]
    fn error_messages_are_informative() {
        let e = VerifyError::DependenceViolated { from: 2, to: 5 };
        assert!(e.to_string().contains("2 -> 5"));
    }

    #[test]
    fn all_reports_every_violation_not_just_the_first() {
        // 1 depends on 0 and 3 depends on 2; reversing both pairs breaks both.
        let insts = vec![add(1, 9), add(2, 1), add(3, 8), add(4, 3)];
        let errors = check(&insts, &[1, 0, 3, 2]);
        assert!(errors.contains(&VerifyError::DependenceViolated { from: 0, to: 1 }));
        assert!(errors.contains(&VerifyError::DependenceViolated { from: 2, to: 3 }));
        assert_eq!(errors.len(), 2);
    }

    #[test]
    fn all_collects_duplicate_indices_alongside_the_length_mismatch() {
        let insts = vec![add(1, 9), add(2, 8), add(3, 7)];
        let errors = check(&insts, &[0, 0]);
        assert!(errors.contains(&VerifyError::LengthMismatch { expected: 3, got: 2 }));
        assert!(errors.contains(&VerifyError::NotAPermutation { index: 0 }));
    }
}
