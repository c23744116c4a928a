//! Property-based tests for feature extraction.

use proptest::prelude::*;
use wts_features::{FeatureKind, FeatureMask, FeatureVector};
use wts_ir::{BasicBlock, Hazards, Inst, MemRef, MemSpace, Opcode, Reg};

fn arb_inst() -> impl Strategy<Value = Inst> {
    (prop::sample::select(Opcode::ALL.to_vec()), 0u16..8, 0u32..4, prop::bool::ANY).prop_map(|(op, r, slot, pei)| {
        let mut inst = Inst::new(op);
        if op.is_memory() {
            inst = inst.mem(MemRef::slot(MemSpace::Heap, slot));
            if op.is_load() {
                inst = inst.def(Reg::gpr(r));
            } else {
                inst = inst.use_(Reg::gpr(r));
            }
        }
        if pei {
            inst = inst.hazard(Hazards::PEI);
        }
        inst
    })
}

fn block(insts: Vec<Inst>) -> BasicBlock {
    BasicBlock::from_insts(0, insts)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn fractions_stay_in_unit_interval(insts in prop::collection::vec(arb_inst(), 0..30)) {
        let fv = FeatureVector::extract(&block(insts));
        for k in FeatureKind::ALL {
            if !k.is_count() {
                let v = fv.get(k);
                prop_assert!((0.0..=1.0).contains(&v), "{k}={v}");
            }
        }
    }

    #[test]
    fn bb_len_matches_block(insts in prop::collection::vec(arb_inst(), 0..30)) {
        let b = block(insts);
        let fv = FeatureVector::extract(&b);
        prop_assert_eq!(fv.bb_len(), b.len());
    }

    #[test]
    fn exclusive_kind_fractions_sum_to_at_most_one(insts in prop::collection::vec(arb_inst(), 1..30)) {
        // Loads/stores/branches/calls/returns partition a subset of ops.
        let fv = FeatureVector::extract(&block(insts));
        let kind_sum = fv.get(FeatureKind::Loads)
            + fv.get(FeatureKind::Stores)
            + fv.get(FeatureKind::Branches)
            + fv.get(FeatureKind::Calls)
            + fv.get(FeatureKind::Returns);
        prop_assert!(kind_sum <= 1.0 + 1e-9, "sum {kind_sum}");
        // Functional-unit fractions likewise (branch unit is uncounted).
        let unit_sum = fv.get(FeatureKind::Integers) + fv.get(FeatureKind::Floats) + fv.get(FeatureKind::Systems);
        prop_assert!(unit_sum <= 1.0 + 1e-9, "unit sum {unit_sum}");
    }

    #[test]
    fn extraction_is_insensitive_to_order(insts in prop::collection::vec(arb_inst(), 1..20), seed in 0u64..100) {
        let b = block(insts);
        let n = b.len();
        let mut order: Vec<usize> = (0..n).collect();
        let mut s = seed + 1;
        for i in (1..n).rev() {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
            order.swap(i, (s >> 33) as usize % (i + 1));
        }
        let shuffled = b.reordered(&order);
        prop_assert_eq!(FeatureVector::extract(&b), FeatureVector::extract(&shuffled),
            "features are a bag-of-categories and must ignore order");
    }

    #[test]
    fn concatenation_averages_fractions(a in prop::collection::vec(arb_inst(), 1..10),
                                        b in prop::collection::vec(arb_inst(), 1..10)) {
        // extract(a ++ b) is the size-weighted average of extract(a), extract(b).
        let fa = FeatureVector::from_insts(&a);
        let fb = FeatureVector::from_insts(&b);
        let mut ab = a.clone();
        ab.extend(b.iter().cloned());
        let fab = FeatureVector::from_insts(&ab);
        let (na, nb) = (a.len() as f64, b.len() as f64);
        for k in FeatureKind::ALL {
            if k.is_count() {
                continue;
            }
            let expect = (fa.get(k) * na + fb.get(k) * nb) / (na + nb);
            prop_assert!((fab.get(k) - expect).abs() < 1e-9, "{k}: {} vs {expect}", fab.get(k));
        }
    }

    #[test]
    fn masked_extraction_agrees_with_full_extraction(insts in prop::collection::vec(arb_inst(), 0..30),
                                                     bits in 0u32..(1 << FeatureKind::COUNT)) {
        let b = block(insts);
        let mask = FeatureMask::of(FeatureKind::ALL.into_iter().filter(|k| bits & (1 << k.index()) != 0));
        let full = FeatureVector::extract(&b);
        let masked = FeatureVector::extract_masked(&b, mask);
        for k in FeatureKind::ALL {
            if mask.contains(k) {
                prop_assert_eq!(masked.get(k), full.get(k), "{} must be bit-identical to full extraction", k);
            } else {
                prop_assert_eq!(masked.get(k), 0.0, "{} was not demanded", k);
            }
        }
    }

    #[test]
    fn extraction_work_is_monotone_in_demand(bits in 0u32..(1 << FeatureKind::COUNT),
                                             extra in 0usize..FeatureKind::COUNT,
                                             bb_len in 0u64..200) {
        let mask = FeatureMask::of(FeatureKind::ALL.into_iter().filter(|k| bits & (1 << k.index()) != 0));
        let bigger = mask.with(FeatureKind::ALL[extra]);
        prop_assert!(mask.extraction_work(bb_len) <= bigger.extraction_work(bb_len));
        prop_assert!(bigger.extraction_work(bb_len) <= FeatureMask::ALL.extraction_work(bb_len));
    }
}
