//! Superblock (trace) formation over a method's layout-order blocks.
//!
//! A *superblock* is a straight-line trace of consecutive blocks whose
//! profile counts certify that the fall-through path is hot; internal
//! conditional branches become *side exits* the scheduler may speculate
//! across. Formation is pure IR + profile analysis — no machine model is
//! involved — so it lives here, where both the scheduler (`wts-sched`)
//! and the pipeline (`wts-core`) can reach it.
//!
//! # Formation rule
//!
//! Starting from each not-yet-consumed block, the trace extends to the
//! next layout block while **both** hold:
//!
//! 1. control can actually reach the next layout block: the current
//!    block ends in a conditional branch (`bc`, whose not-taken edge is
//!    the fall-through) or in no terminator at all. An *unconditional*
//!    branch (`b`), a computed jump (`bctr`) or a return (`blr`) ends
//!    the trace — their successor is not the next layout block, and
//!    concatenating across them would merge instructions that never
//!    execute consecutively;
//! 2. the next block's execution count is within the hot-path window of
//!    the trace entry's count: `ratio ≤ next/entry ≤ 1/ratio`, compared
//!    in exact integer arithmetic (the ratio is given in percent), so
//!    boundary counts are included and large counts lose no precision.
//!
//! # Examples
//!
//! ```
//! use wts_ir::{form_superblocks, BasicBlock, Inst, Method, Opcode, Reg};
//!
//! let mut m = Method::new(0, "m");
//! for (id, exec, term) in [(0, 100, Some(Opcode::Bc)), (1, 95, Some(Opcode::Blr))] {
//!     let mut b = BasicBlock::new(id);
//!     b.push(Inst::new(Opcode::Add).def(Reg::gpr(1)).use_(Reg::gpr(2)).use_(Reg::gpr(2)));
//!     if let Some(t) = term {
//!         b.push(Inst::new(t));
//!     }
//!     b.set_exec_count(exec);
//!     m.push_block(b);
//! }
//! let traces = form_superblocks(&m, 70);
//! assert_eq!(traces.len(), 1);
//! assert_eq!(traces[0].width(), 2);
//! ```

use crate::{BasicBlock, Inst, Method, Opcode};
use std::fmt;

/// Which unit the trace→label→train→evaluate pipeline operates on.
///
/// `Block` is the paper's scenario: one decision per basic block.
/// `Superblock` is the deferred extension (§3.1, footnote 6): blocks are
/// first merged into profile-hot traces by [`form_superblocks`] and the
/// decision — extract features, consult the filter, maybe schedule
/// (speculatively) — is made once per *trace*.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum ScopeKind {
    /// Per-basic-block scheduling decisions (the paper's setting).
    #[default]
    Block,
    /// Per-superblock decisions; the payload is the hot-path ratio in
    /// percent (`70` means a successor within `0.70×..1/0.70×` of the
    /// entry count extends the trace). Must lie in `1..=100`.
    Superblock(u32),
}

impl fmt::Display for ScopeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScopeKind::Block => write!(f, "block"),
            ScopeKind::Superblock(p) => write!(f, "superblock(r={p}%)"),
        }
    }
}

/// A formed superblock: the trace's instructions plus bookkeeping.
#[derive(Debug, Clone, PartialEq)]
pub struct Superblock {
    /// Ids of the merged blocks, in trace order.
    pub block_ids: Vec<u32>,
    /// The concatenated instructions.
    pub insts: Vec<Inst>,
    /// Profile weight of the trace (the entry block's count).
    pub exec_count: u64,
}

impl Superblock {
    /// Number of merged blocks.
    pub fn width(&self) -> usize {
        self.block_ids.len()
    }

    /// The entry block's id (the trace's identity in trace records).
    pub fn entry_id(&self) -> u32 {
        self.block_ids[0]
    }
}

/// Forms superblocks from a method's layout-order blocks.
///
/// The traces partition the method: every block appears in exactly one
/// trace, and trace order is layout order. `ratio_percent` is the
/// hot-path window in percent (the paper-adjacent experiments use `70`).
/// See the module docs for the exact formation rule.
///
/// # Panics
///
/// Panics if `ratio_percent` is not within `1..=100`.
pub fn form_superblocks(method: &Method, ratio_percent: u32) -> Vec<Superblock> {
    assert!((1..=100).contains(&ratio_percent), "ratio must be in 1..=100 percent, got {ratio_percent}");
    let blocks = method.blocks();
    let mut out = Vec::new();
    let mut i = 0;
    while i < blocks.len() {
        let entry = &blocks[i];
        let mut sb =
            Superblock { block_ids: vec![entry.id().0], insts: entry.insts().to_vec(), exec_count: entry.exec_count() };
        let mut j = i;
        while j + 1 < blocks.len() && extends(&blocks[j], &blocks[j + 1], entry.exec_count(), ratio_percent) {
            j += 1;
            sb.block_ids.push(blocks[j].id().0);
            sb.insts.extend(blocks[j].insts().iter().cloned());
        }
        out.push(sb);
        i = j + 1;
    }
    out
}

/// True when the trace currently ending at `cur` may absorb `next`.
fn extends(cur: &BasicBlock, next: &BasicBlock, entry_exec: u64, ratio_percent: u32) -> bool {
    // Control must be able to reach the next layout block: only a
    // conditional branch (fall-through on the not-taken edge) or the
    // absence of a terminator continues the trace. An unconditional
    // branch, computed jump or return transfers elsewhere — extending
    // across it would concatenate instructions that never execute
    // consecutively and corrupt every downstream cycle count.
    let continues = match cur.insts().last().map(Inst::opcode) {
        Some(op) if op.is_terminator() => op == Opcode::Bc,
        _ => true, // fall-through (no terminator, or a non-terminator last inst)
    };
    if !continues {
        return false;
    }
    // Hot-path window in exact integer arithmetic: the old
    // `(entry as f64 * ratio) as u64` truncated boundary counts out of
    // the window and lost precision above 2^53. `ratio ≤ next/entry`
    // ⇔ `next·100 ≥ entry·ratio%`, and `next/entry ≤ 1/ratio`
    // ⇔ `next·ratio% ≤ entry·100`; u128 keeps the products exact for
    // every u64 count.
    let (next, entry, pct) = (next.exec_count() as u128, entry_exec as u128, ratio_percent as u128);
    next * 100 >= entry * pct && next * pct <= entry * 100
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Reg;

    fn block(id: u32, exec: u64, term: Option<Opcode>) -> BasicBlock {
        let mut b = BasicBlock::new(id);
        b.push(Inst::new(Opcode::Add).def(Reg::gpr(10)).use_(Reg::gpr(1)).use_(Reg::gpr(2)));
        if let Some(t) = term {
            let mut i = Inst::new(t);
            if t == Opcode::Bc {
                i = i.use_(Reg::cr(0));
            }
            if t == Opcode::Blr {
                i = i.use_(Reg::lr());
            }
            b.push(i);
        }
        b.set_exec_count(exec);
        b
    }

    fn method(blocks: Vec<BasicBlock>) -> Method {
        let mut m = Method::new(0, "m");
        for b in blocks {
            m.push_block(b);
        }
        m
    }

    #[test]
    fn merges_equal_weight_fallthrough_chain() {
        let m = method(vec![
            block(0, 100, Some(Opcode::Bc)),
            block(1, 95, Some(Opcode::Bc)),
            block(2, 90, Some(Opcode::Blr)),
        ]);
        let sbs = form_superblocks(&m, 70);
        assert_eq!(sbs.len(), 1);
        assert_eq!(sbs[0].block_ids, vec![0, 1, 2]);
        assert_eq!(sbs[0].exec_count, 100);
        assert_eq!(sbs[0].width(), 3);
        assert_eq!(sbs[0].entry_id(), 0);
    }

    #[test]
    fn cold_successor_breaks_the_trace() {
        let m = method(vec![
            block(0, 100, Some(Opcode::Bc)),
            block(1, 10, Some(Opcode::Bc)), // taken branch dominates: cold fall-through
            block(2, 10, Some(Opcode::Blr)),
        ]);
        let sbs = form_superblocks(&m, 70);
        assert_eq!(sbs.len(), 2);
        assert_eq!(sbs[0].block_ids, vec![0]);
        assert_eq!(sbs[1].block_ids, vec![1, 2]);
    }

    #[test]
    fn returns_break_the_trace() {
        let m = method(vec![block(0, 100, Some(Opcode::Blr)), block(1, 100, Some(Opcode::Blr))]);
        let sbs = form_superblocks(&m, 70);
        assert_eq!(sbs.len(), 2);
    }

    /// Regression (PR 5): `extends` used to treat *every* non-return
    /// terminator as extendable, so a trace merged straight across an
    /// unconditional `b` whose target is not the next layout block —
    /// concatenating instructions that never execute consecutively.
    #[test]
    fn unconditional_jump_to_nonadjacent_target_breaks_the_trace() {
        let m = method(vec![
            block(0, 100, Some(Opcode::B)), // jumps elsewhere; bb1 is NOT its successor
            block(1, 100, Some(Opcode::Blr)),
        ]);
        let sbs = form_superblocks(&m, 70);
        assert_eq!(sbs.len(), 2, "an unconditional branch must end the trace");
        assert_eq!(sbs[0].block_ids, vec![0]);
        assert_eq!(sbs[1].block_ids, vec![1]);
    }

    #[test]
    fn computed_jump_breaks_the_trace() {
        let m = method(vec![block(0, 100, Some(Opcode::Bctr)), block(1, 100, Some(Opcode::Blr))]);
        assert_eq!(form_superblocks(&m, 70).len(), 2);
    }

    #[test]
    fn conditional_branch_and_plain_fallthrough_extend() {
        let m = method(vec![
            block(0, 100, Some(Opcode::Bc)),
            block(1, 100, None), // no terminator: plain fall-through
            block(2, 100, Some(Opcode::Blr)),
        ]);
        let sbs = form_superblocks(&m, 70);
        assert_eq!(sbs.len(), 1);
        assert_eq!(sbs[0].block_ids, vec![0, 1, 2]);
    }

    #[test]
    fn much_hotter_successor_breaks_the_trace() {
        // A loop head entered from below: successor is far hotter than
        // the entry; merging would mis-weight it.
        let m = method(vec![block(0, 10, Some(Opcode::Bc)), block(1, 500, Some(Opcode::Blr))]);
        let sbs = form_superblocks(&m, 70);
        assert_eq!(sbs.len(), 2);
    }

    /// Regression (PR 5): the hot-path window was computed through f64
    /// with truncating casts, so an exactly-on-the-boundary count fell
    /// out of the window and huge counts lost low bits. The window is
    /// now exact: boundaries are included at any magnitude.
    #[test]
    fn boundary_counts_are_inside_the_window_exactly() {
        // next = entry * 70%: exactly on the low boundary.
        let m = method(vec![block(0, 100, Some(Opcode::Bc)), block(1, 70, Some(Opcode::Blr))]);
        assert_eq!(form_superblocks(&m, 70).len(), 1, "low boundary is inclusive");
        // One below the boundary breaks.
        let m = method(vec![block(0, 100, Some(Opcode::Bc)), block(1, 69, Some(Opcode::Blr))]);
        assert_eq!(form_superblocks(&m, 70).len(), 2);
        // Counts beyond 2^53 (f64's integer precision) still compare
        // exactly: entry = 100·2^53, next = entry · 70% exactly.
        let entry = 100u64 << 53;
        let next = entry / 100 * 70;
        let m = method(vec![block(0, entry, Some(Opcode::Bc)), block(1, next, Some(Opcode::Blr))]);
        assert_eq!(form_superblocks(&m, 70).len(), 1, "huge boundary count stays in the window");
        let m = method(vec![block(0, entry, Some(Opcode::Bc)), block(1, next - 1, Some(Opcode::Blr))]);
        assert_eq!(form_superblocks(&m, 70).len(), 2, "one below the huge boundary breaks");
    }

    #[test]
    fn traces_partition_the_method() {
        let m = method(vec![
            block(0, 10, Some(Opcode::Bc)),
            block(1, 9, Some(Opcode::B)),
            block(2, 9, None),
            block(3, 9, Some(Opcode::Blr)),
        ]);
        let sbs = form_superblocks(&m, 70);
        let ids: Vec<u32> = sbs.iter().flat_map(|sb| sb.block_ids.iter().copied()).collect();
        assert_eq!(ids, vec![0, 1, 2, 3], "every block appears once, in layout order");
        let insts: usize = sbs.iter().map(|sb| sb.insts.len()).sum();
        assert_eq!(insts, m.inst_count());
    }

    #[test]
    fn scope_kind_accessors() {
        assert_eq!(ScopeKind::default(), ScopeKind::Block);
        assert_eq!(ScopeKind::Block.to_string(), "block");
        assert_eq!(ScopeKind::Superblock(70).to_string(), "superblock(r=70%)");
    }

    #[test]
    #[should_panic(expected = "ratio must be in")]
    fn bad_ratio_rejected() {
        form_superblocks(&method(vec![block(0, 1, None)]), 0);
    }

    #[test]
    #[should_panic(expected = "ratio must be in")]
    fn oversized_ratio_rejected() {
        form_superblocks(&method(vec![block(0, 1, None)]), 101);
    }
}
