//! CSR layout vs. the old nested-adjacency builder, as an executable
//! oracle.
//!
//! The dependence graph moved from per-node `Vec<Vec<(u32, DepKind)>>`
//! adjacency (hash-set dedup, `readers.clone()` in the scan) to flat CSR
//! arrays built by a reusable [`GraphBuilder`]. The builder drops
//! parallel edges as it records them (a per-source "last target" mark,
//! cleared per block, keeps the first kind), uses its recorded edge list
//! as the predecessor array as is, and lays out successors by a stable
//! counting sort on the source. Every consumer — most critically the list
//! scheduler's ready-queue insertion under
//! [`SchedulePolicy::Random`](wts_sched::SchedulePolicy) — relies on the
//! *slice orders* being unchanged, not just the edge sets. This suite
//! keeps a faithful reimplementation of the old builder and checks the
//! new graph against it edge for edge, slice for slice, on random blocks,
//! in both normal and speculative mode: blocks that stack several
//! dependence kinds on one pair (which kind survives the dedup), and one
//! builder reused across blocks of shrinking length (where stale marks
//! or register entries from a longer block would show).

#[path = "../../ir/tests/support/arb.rs"]
mod arb;

use arb::arb_block;
use proptest::prelude::*;
use std::collections::HashMap;
use wts_deps::{DepGraph, DepKind, GraphBuilder};
use wts_ir::{Inst, Reg};

/// The pre-CSR builder, verbatim in structure: nested adjacency vectors
/// filled by chronological pushes, a hash set collapsing parallel edges
/// (first kind recorded wins), cloned reader lists.
struct OracleGraph {
    preds: Vec<Vec<(u32, DepKind)>>,
    succs: Vec<Vec<(u32, DepKind)>>,
}

struct OracleBuilder {
    preds: Vec<Vec<(u32, DepKind)>>,
    succs: Vec<Vec<(u32, DepKind)>>,
    edge_set: HashMap<(u32, u32), ()>,
    speculative: bool,
}

impl OracleBuilder {
    fn new(n: usize, speculative: bool) -> OracleBuilder {
        OracleBuilder { preds: vec![Vec::new(); n], succs: vec![Vec::new(); n], edge_set: HashMap::new(), speculative }
    }

    fn edge(&mut self, from: u32, to: u32, kind: DepKind) {
        if self.edge_set.insert((from, to), ()).is_none() {
            self.succs[from as usize].push((to, kind));
            self.preds[to as usize].push((from, kind));
        }
    }

    fn run(mut self, insts: &[Inst]) -> OracleGraph {
        let mut last_def: HashMap<Reg, u32> = HashMap::new();
        let mut uses_since_def: HashMap<Reg, Vec<u32>> = HashMap::new();
        let mut stores: Vec<u32> = Vec::new();
        let mut loads_since_store: Vec<u32> = Vec::new();
        let mut last_barrier: Option<u32> = None;
        let mut since_barrier: Vec<u32> = Vec::new();
        let mut last_branch: Option<u32> = None;

        for (idx, inst) in insts.iter().enumerate() {
            let i = u32::try_from(idx).expect("generated blocks fit u32 indices");
            let op = inst.opcode();

            for u in inst.uses() {
                if let Some(&d) = last_def.get(u) {
                    self.edge(d, i, DepKind::True);
                }
                uses_since_def.entry(*u).or_default().push(i);
            }
            for d in inst.defs() {
                if let Some(&p) = last_def.get(d) {
                    self.edge(p, i, DepKind::Output);
                }
                if let Some(readers) = uses_since_def.get(d) {
                    for &r in readers.clone().iter() {
                        if r != i {
                            self.edge(r, i, DepKind::Anti);
                        }
                    }
                }
            }
            if let Some(m) = inst.mem_ref() {
                for &s in &stores {
                    let sm = insts[s as usize].mem_ref().expect("stores carry mem refs");
                    if m.may_alias(sm) {
                        self.edge(s, i, DepKind::Memory);
                    }
                }
                if op.is_store() {
                    for &l in &loads_since_store {
                        let lm = insts[l as usize].mem_ref().expect("loads carry mem refs");
                        if m.may_alias(lm) {
                            self.edge(l, i, DepKind::Memory);
                        }
                    }
                }
            }

            let is_full_barrier = if self.speculative {
                op.is_call() || op.is_return() || inst.is_hazardous()
            } else {
                op.is_control() || inst.is_hazardous()
            };
            let is_branch_barrier = self.speculative && op.is_branch();
            let effectful = inst.opcode().has_side_effect() || inst.is_hazardous();

            if let Some(b) = last_barrier {
                let kind = if insts[b as usize].opcode().is_control() { DepKind::Control } else { DepKind::Hazard };
                self.edge(b, i, kind);
            }
            if is_branch_barrier {
                if let Some(br) = last_branch {
                    self.edge(br, i, DepKind::Control);
                }
                for &p in &since_barrier {
                    let pi = &insts[p as usize];
                    if pi.opcode().has_side_effect() || pi.is_hazardous() {
                        self.edge(p, i, DepKind::Control);
                    }
                }
                last_branch = Some(i);
                since_barrier.push(i);
            } else if is_full_barrier {
                let kind = if op.is_control() { DepKind::Control } else { DepKind::Hazard };
                for &p in &since_barrier {
                    self.edge(p, i, kind);
                }
                last_barrier = Some(i);
                last_branch = None;
                since_barrier.clear();
            } else {
                if effectful {
                    if let Some(br) = last_branch {
                        self.edge(br, i, DepKind::Control);
                    }
                }
                since_barrier.push(i);
            }

            for d in inst.defs() {
                last_def.insert(*d, i);
                uses_since_def.insert(*d, Vec::new());
            }
            if op.is_store() {
                stores.push(i);
                // Only the loads this store covers leave the list.
                if let Some(m) = inst.mem_ref() {
                    loads_since_store.retain(|&l| {
                        let lm = insts[l as usize].mem_ref().expect("loads carry mem refs");
                        !(lm.space() == m.space() && (m.slot_id().is_none() || m.slot_id() == lm.slot_id()))
                    });
                }
            } else if op.is_load() {
                loads_since_store.push(i);
            }
        }
        OracleGraph { preds: self.preds, succs: self.succs }
    }
}

impl OracleGraph {
    /// The old `ready`: filter on fully scheduled predecessor lists.
    fn ready(&self, scheduled: &[bool]) -> Vec<usize> {
        (0..self.preds.len())
            .filter(|&i| !scheduled[i] && self.preds[i].iter().all(|&(p, _)| scheduled[p as usize]))
            .collect()
    }
}

/// Asserts that `g` equals the oracle's graph for `insts`, slice for
/// slice, and that the builder reported its edge count.
fn assert_matches_oracle(g: &DepGraph, insts: &[Inst], speculative: bool) -> proptest::test_runner::TestCaseResult {
    let old = OracleBuilder::new(insts.len(), speculative).run(insts);
    prop_assert_eq!(g.edge_count(), old.succs.iter().map(Vec::len).sum::<usize>());
    for i in 0..insts.len() {
        prop_assert_eq!(g.succs(i), &old.succs[i][..], "succs slice of {} must match in order and kind", i);
        prop_assert_eq!(g.preds(i), &old.preds[i][..], "preds slice of {} must match in order and kind", i);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Stacked dependence kinds: the first kind recorded for each pair
    /// survives, in the oracle's slice orders.
    #[test]
    fn stacked_kinds_match_nested_oracle_exactly(insts in arb_block(20), spec_bit in 0u8..2) {
        let speculative = spec_bit == 1;
        let g = if speculative { DepGraph::build_speculative(&insts) } else { DepGraph::build(&insts) };
        assert_matches_oracle(&g, &insts, speculative)?;
    }

    /// One builder over blocks of shrinking length, in both modes: every
    /// mark and register entry a longer block left behind sits at an
    /// index the next block reuses.
    #[test]
    fn reused_builder_on_shrinking_blocks_matches_nested_oracle(mut blocks in prop::collection::vec(arb_block(24), 2..9)) {
        blocks.sort_by_key(|b| std::cmp::Reverse(b.len()));
        let mut builder = GraphBuilder::new();
        let mut g = DepGraph::empty();
        for insts in &blocks {
            for &speculative in &[false, true] {
                builder.build_into(insts, speculative, &mut g);
                assert_matches_oracle(&g, insts, speculative)?;
                prop_assert_eq!(builder.last_edge_count(), g.edge_count());
            }
        }
    }

    /// The tentpole invariant: CSR adjacency equals the old nested
    /// adjacency *slice for slice* — same targets, same kinds, same
    /// order — in both builder modes.
    #[test]
    fn csr_matches_nested_oracle_exactly(insts in arb_block(24), spec_bit in 0u8..2) {
        let speculative = spec_bit == 1;
        let new = if speculative { DepGraph::build_speculative(&insts) } else { DepGraph::build(&insts) };
        assert_matches_oracle(&new, &insts, speculative)?;
    }

    /// `ready` is what the scheduler's loop consumes; it must agree with
    /// the oracle on arbitrary scheduled masks, not just reachable ones.
    #[test]
    fn ready_matches_nested_oracle(insts in arb_block(16), mask_seed in 0u64..u64::MAX) {
        let new = DepGraph::build(&insts);
        let old = OracleBuilder::new(insts.len(), false).run(&insts);
        // A cheap deterministic mask stream (xorshift) over a few draws.
        let mut s = mask_seed | 1;
        for _ in 0..4 {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            let scheduled: Vec<bool> = (0..insts.len()).map(|i| (s >> (i % 64)) & 1 == 1).collect();
            prop_assert_eq!(new.ready(&scheduled), old.ready(&scheduled));
        }
    }

    /// A reused builder must agree with the oracle just like a one-shot
    /// build — scratch-state leaks between blocks would show up here.
    #[test]
    fn reused_builder_matches_nested_oracle(blocks in prop::collection::vec(arb_block(12), 1..5)) {
        let mut builder = GraphBuilder::new();
        let mut g = DepGraph::empty();
        for insts in &blocks {
            for &speculative in &[false, true] {
                builder.build_into(insts, speculative, &mut g);
                assert_matches_oracle(&g, insts, speculative)?;
                prop_assert_eq!(builder.last_edge_count(), g.edge_count());
            }
        }
    }
}
