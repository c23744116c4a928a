//! The scope axis's degeneracy contract: a superblock-scope pipeline
//! whose formation produced only width-1 traces is *bit-identical* to
//! the block-scope pipeline — traces, labels, and deployed schedules —
//! on every registry machine.
//!
//! Formation at ratio 100% merges only exactly-equal execution counts,
//! so programs with strictly distinct consecutive counts are the
//! degenerate case by construction.
//!
//! Underneath both pipelines is one scope dispatch,
//! [`for_each_scope_unit`]; the second property pins what it yields at
//! each scope on programs whose blocks do merge.

use proptest::prelude::*;
use wts_core::{
    build_dataset, filtered_schedule_pass, CompiledFilter, DecisionPolicy, Experiment, LabelConfig, TimingMode,
    TraceOptions,
};
use wts_features::for_each_scope_unit;
use wts_features::{FeatureKind, TraceShape};
use wts_ir::ScopeKind;
use wts_ir::{form_superblocks, BasicBlock, BlockId, Inst, MemRef, MemSpace, Method, Opcode, Program, Reg};

/// One generated block body: a few instructions from a small pool, with
/// an optional terminator.
fn arb_block(len: std::ops::Range<usize>) -> impl Strategy<Value = (Vec<u8>, u8)> {
    (prop::collection::vec(0u8..5, len), 0u8..4)
}

fn build_block(id: u32, exec: u64, body: &[u8], term: u8) -> BasicBlock {
    let mut b = BasicBlock::new(id);
    for (k, &code) in body.iter().enumerate() {
        let r = 1 + u16::try_from(k % 20).expect("a residue mod 20 fits u16");
        let slot = u32::try_from(k).expect("generated block lengths fit u32");
        let inst = match code {
            0 => Inst::new(Opcode::Add).def(Reg::gpr(r)).use_(Reg::gpr(r + 1)).use_(Reg::gpr(r + 2)),
            1 => Inst::new(Opcode::Lwz).def(Reg::gpr(r)).use_(Reg::gpr(30)).mem(MemRef::slot(MemSpace::Heap, slot)),
            2 => Inst::new(Opcode::Stw).use_(Reg::gpr(r)).use_(Reg::gpr(30)).mem(MemRef::slot(MemSpace::Heap, slot)),
            3 => Inst::new(Opcode::Fadd).def(Reg::fpr(r)).use_(Reg::fpr(r + 1)).use_(Reg::fpr(r + 1)),
            _ => Inst::new(Opcode::Mullw).def(Reg::gpr(r)).use_(Reg::gpr(r + 1)).use_(Reg::gpr(r + 2)),
        };
        b.push(inst);
    }
    match term {
        0 => {}
        1 => b.push(Inst::new(Opcode::Bc).use_(Reg::cr(0))),
        2 => b.push(Inst::new(Opcode::B)),
        _ => b.push(Inst::new(Opcode::Blr).use_(Reg::lr())),
    }
    b.set_exec_count(exec);
    b
}

/// A program whose consecutive block exec counts are strictly
/// increasing (hence pairwise distinct), so ratio-100% formation cannot
/// merge anything.
fn arb_degenerate_program() -> impl Strategy<Value = Program> {
    prop::collection::vec((prop::collection::vec(arb_block(1..5), 1..4), prop::collection::vec(1u64..40, 1..4)), 1..3)
        .prop_map(|methods| {
            let mut p = Program::new("p0");
            let mut exec = 1u64;
            let mut block_id = 0u32;
            for (mi, (blocks, deltas)) in methods.into_iter().enumerate() {
                let mut m = Method::new(u32::try_from(mi).expect("method counts fit u32"), format!("m{mi}"));
                for (bi, (body, term)) in blocks.iter().enumerate() {
                    exec += deltas[bi % deltas.len()];
                    m.push_block(build_block(block_id, exec, body, *term));
                    block_id += 1;
                }
                p.push_method(m);
            }
            p
        })
}

/// A program whose exec counts come from a few coarse levels, so
/// consecutive blocks often tie or sit within a hot-path window and
/// formation merges at most ratios.
fn arb_program() -> impl Strategy<Value = Program> {
    prop::collection::vec(prop::collection::vec((arb_block(0..5), 1u64..5), 1..7), 1..4).prop_map(|methods| {
        let mut p = Program::new("p0");
        let mut block_id = 0u32;
        for (mi, blocks) in methods.into_iter().enumerate() {
            let mut m = Method::new(u32::try_from(mi).expect("method counts fit u32"), format!("m{mi}"));
            for ((body, term), level) in blocks {
                m.push_block(build_block(block_id, level * 10, &body, term));
                block_id += 1;
            }
            p.push_method(m);
        }
        p
    })
}

/// What the scope visitor yields for one unit, owned.
type Unit = (Vec<Inst>, TraceShape, BlockId, u64);

fn visit(method: &Method, scope: ScopeKind) -> Vec<Unit> {
    let mut units = Vec::new();
    for_each_scope_unit(method, scope, |u| units.push((u.insts.to_vec(), u.shape, u.block, u.exec_count)));
    units
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn scope_visitor_yields_blocks_and_formed_traces(
        p in arb_program(),
        degenerate in arb_degenerate_program(),
        ratio in 1u32..=100,
    ) {
        for method in p.methods() {
            // Block scope: every block, in order, with the degenerate shape.
            let blocks: Vec<Unit> = method
                .blocks()
                .iter()
                .map(|b| (b.insts().to_vec(), TraceShape::block(), b.id(), b.exec_count()))
                .collect();
            prop_assert_eq!(visit(method, ScopeKind::Block), blocks);

            // Superblock scope: exactly the formed traces, in order.
            let traces = form_superblocks(method, ratio);
            let units = visit(method, ScopeKind::Superblock(ratio));
            prop_assert_eq!(units.len(), traces.len());
            for ((insts, shape, block, exec_count), sb) in units.iter().zip(&traces) {
                prop_assert_eq!(insts, &sb.insts);
                prop_assert_eq!(*block, BlockId(sb.entry_id()));
                prop_assert_eq!(*exec_count, sb.exec_count);
                let width = u32::try_from(sb.width()).expect("trace widths fit u32");
                prop_assert_eq!(*shape, TraceShape::of_trace(&sb.insts, width));
            }
        }
        // Where ratio-100% formation merges nothing, every unit is the
        // block unit, shape included.
        for method in degenerate.methods() {
            prop_assert_eq!(visit(method, ScopeKind::Superblock(100)), visit(method, ScopeKind::Block));
        }
    }

    #[test]
    fn degenerate_superblock_pipeline_is_bit_identical_to_block_pipeline(p in arb_degenerate_program()) {
        // The generator guarantees degeneracy; assert it anyway so a
        // generator regression fails loudly here, not downstream.
        for method in p.methods() {
            for sb in form_superblocks(method, 100) {
                prop_assert_eq!(sb.width(), 1, "distinct counts must not merge at ratio 100%");
            }
        }
        for machine in wts_machine::registry() {
            let block = Experiment::new(machine.clone())
                .with_timing(TimingMode::Deterministic)
                .run(vec![p.clone()]);
            let sb = Experiment::new(machine.clone())
                .with_timing(TimingMode::Deterministic)
                .with_scope(ScopeKind::Superblock(100))
                .run(vec![p.clone()]);

            // Traces: every record, every channel, bit for bit — width-1
            // units take the exact block path (same features, same
            // scheduler entry point, same work proxies).
            prop_assert_eq!(block.all_traces(), sb.all_traces(), "{}: traces diverged", machine.name());
            for r in sb.all_traces() {
                prop_assert_eq!(r.features.get(FeatureKind::TraceWidth), 1.0);
                prop_assert_eq!(r.features.get(FeatureKind::SideExits), 0.0);
            }

            // Labels: the threshold-labeled datasets agree at several
            // thresholds (instances, values, labels, groups).
            for t in [0, 20] {
                let (a, ga) = build_dataset(block.all_traces(), LabelConfig::new(t));
                let (b, gb) = build_dataset(sb.all_traces(), LabelConfig::new(t));
                prop_assert_eq!(a, b, "{}: t={} datasets diverged", machine.name(), t);
                prop_assert_eq!(ga, gb);
            }

            // Trained rules: identical per fold (the filter *tag* names
            // the scope, the induced model must not differ).
            let fa = block.loocv_filters(0);
            let fb = sb.loocv_filters(0);
            prop_assert_eq!(fa.len(), fb.len());
            for ((na, a), (nb, b)) in fa.iter().zip(fb.iter()) {
                prop_assert_eq!(na, nb);
                prop_assert_eq!(a.rules(), b.rules(), "{}: induced rules diverged", machine.name());
            }

            // Deployed schedules: the filtered pass spends identical
            // work at both scopes, for the fixed strategy and a
            // feature-reading filter alike.
            let opts = TraceOptions { timing: TimingMode::Deterministic, ..Default::default() };
            let sb_opts = TraceOptions { scope: ScopeKind::Superblock(100), ..opts };
            let hard = DecisionPolicy::HardThreshold;
            for filter in [CompiledFilter::always(), CompiledFilter::size_threshold(3)] {
                let pa = filtered_schedule_pass(&p, &machine, &filter, &hard, &opts);
                let pb = filtered_schedule_pass(&p, &machine, &filter, &hard, &sb_opts);
                prop_assert_eq!(pa, pb, "{}/{}: deployed pass diverged", machine.name(), filter.name());
            }
        }
    }
}
