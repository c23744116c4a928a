//! Property-based tests for dependence-graph construction.

#[path = "../../ir/tests/support/arb.rs"]
mod arb;

use arb::{arb_block, is_serializing};
use proptest::prelude::*;
use proptest::test_runner::TestRng;
use wts_deps::{critical_paths, DepGraph, DepKind};
use wts_ir::{Inst, Opcode};
use wts_machine::{Barrier, DepScan, DepSink, MachineConfig};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn edges_point_forward_only(insts in arb_block(16)) {
        let g = DepGraph::build(&insts);
        for i in 0..g.len() {
            for s in g.succs(i) {
                prop_assert!(s > i, "edge {i} -> {s} goes backward");
            }
            for &(p, _) in g.preds(i) {
                prop_assert!((p as usize) < i);
            }
        }
    }

    #[test]
    fn preds_and_succs_are_mirror_images(insts in arb_block(16)) {
        let g = DepGraph::build(&insts);
        let mut from_succs = 0usize;
        for i in 0..g.len() {
            for s in g.succs(i) {
                prop_assert!(g.preds(s).iter().any(|&(p, _)| p as usize == i));
                from_succs += 1;
            }
        }
        prop_assert_eq!(from_succs, g.edge_count());
    }

    #[test]
    fn identity_order_always_respected(insts in arb_block(16)) {
        let g = DepGraph::build(&insts);
        let identity: Vec<usize> = (0..insts.len()).collect();
        prop_assert!(g.respects(&identity));
    }

    #[test]
    fn topological_consumption_reaches_every_node(insts in arb_block(16)) {
        let g = DepGraph::build(&insts);
        let mut scheduled = vec![false; g.len()];
        let mut placed = 0;
        loop {
            let ready = g.ready(&scheduled);
            if ready.is_empty() {
                break;
            }
            scheduled[ready[0]] = true;
            placed += 1;
        }
        prop_assert_eq!(placed, g.len(), "DAG must never deadlock");
    }

    #[test]
    fn critical_paths_decrease_along_edges(insts in arb_block(16)) {
        let m = MachineConfig::ppc7410();
        let g = DepGraph::build(&insts);
        let cp = critical_paths(&g, &insts, &m);
        for i in 0..g.len() {
            prop_assert!(cp[i] >= m.latency(insts[i].opcode()) as u64);
            for s in g.succs(i) {
                prop_assert!(cp[i] > cp[s], "cp must strictly decrease along an edge");
            }
        }
    }

    #[test]
    fn dependent_register_pairs_are_connected(insts in arb_block(12)) {
        // For every pair (i, j), i < j, where j reads a register i writes
        // and no instruction between them rewrites it, an edge must exist.
        let g = DepGraph::build(&insts);
        for i in 0..insts.len() {
            'pair: for j in (i + 1)..insts.len() {
                for d in insts[i].defs() {
                    if insts[j].uses().contains(d) {
                        let rewritten = insts[i + 1..j].iter().any(|k| k.defs().contains(d));
                        if !rewritten {
                            prop_assert!(g.has_edge(i, j), "missing true dep {i} -> {j} on {d}");
                            continue 'pair;
                        }
                    }
                }
            }
        }
    }
}

/// Every edge a dependence scan reports, repeats included.
struct AllEdges(Vec<(u32, u32, DepKind)>);

impl DepSink for AllEdges {
    fn edge(&mut self, from: u32, to: u32, kind: DepKind) {
        self.0.push((from, to, kind));
    }

    fn end_inst(&mut self) {}
}

/// True when the scan of `insts` reports two kinds for one pair.
fn has_stacked_pair(insts: &[Inst]) -> bool {
    let mut edges = AllEdges(Vec::new());
    let classify = |i: &Inst| if i.opcode().is_control() || i.is_hazardous() { Barrier::Full } else { Barrier::None };
    DepScan::default().scan(insts, classify, &mut edges);
    edges.0.sort_unstable();
    edges.0.dedup();
    edges.0.windows(2).any(|w| (w[0].0, w[0].1) == (w[1].0, w[1].1))
}

/// The shared generator's self-check: 64 fixed-seed blocks of at most
/// 12 instructions, the smallest draw any block suite makes, hold every
/// class the suites rely on, so an edit to `arb_block` cannot silently
/// drop one.
#[test]
fn shared_blocks_cover_every_class_the_suites_rely_on() {
    let mut rng = TestRng::from_name(concat!(module_path!(), "::shared_blocks_cover_every_class_the_suites_rely_on"));
    let strategy = arb_block(12);
    let blocks: Vec<Vec<Inst>> = (0..64).map(|_| strategy.generate(&mut rng)).collect();
    let any_inst = |pred: fn(&Inst) -> bool| blocks.iter().filter(|b| b.iter().any(pred)).count();
    let classes = [
        ("a pair with two dependence kinds", blocks.iter().filter(|b| has_stacked_pair(b)).count()),
        ("a serializing op", any_inst(|i| is_serializing(i.opcode()))),
        ("a divide", any_inst(|i| matches!(i.opcode(), Opcode::Divw | Opcode::Divwu | Opcode::Fdiv))),
        ("a hazardous load or store", any_inst(|i| i.opcode().is_memory() && i.is_hazardous())),
        ("a branch", any_inst(|i| i.opcode().is_branch())),
        ("a call", any_inst(|i| i.opcode().is_call())),
    ];
    for (class, blocks_with) in classes {
        assert!(blocks_with > 0, "no generated block holds {class}");
    }
}
