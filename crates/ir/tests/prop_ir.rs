//! Property-based tests for the IR: category algebra, block reordering
//! and validation invariants.

#[path = "support/arb.rs"]
mod arb;

use arb::arb_inst;
use proptest::prelude::*;
use wts_ir::{BasicBlock, Category, CategorySet, Hazards, Inst};

fn arb_category() -> impl Strategy<Value = Category> {
    prop::sample::select(Category::ALL.to_vec())
}

proptest! {
    #[test]
    fn category_set_insert_then_contains(cats in prop::collection::vec(arb_category(), 0..12)) {
        let set: CategorySet = cats.iter().copied().collect();
        for c in &cats {
            prop_assert!(set.contains(*c));
        }
        prop_assert_eq!(set.iter().count(), set.len());
        prop_assert!(set.len() <= 12);
    }

    #[test]
    fn category_set_union_is_commutative(a in prop::collection::vec(arb_category(), 0..6),
                                         b in prop::collection::vec(arb_category(), 0..6)) {
        let sa: CategorySet = a.into_iter().collect();
        let sb: CategorySet = b.into_iter().collect();
        prop_assert_eq!(sa.union(sb), sb.union(sa));
        prop_assert!(sa.union(sb).len() <= sa.len() + sb.len());
    }

    #[test]
    fn instruction_categories_are_consistent(inst in arb_inst()) {
        let cats = inst.categories();
        // Exclusive op-kind categories: at most one of load/store/branch/call/return.
        let kinds = [Category::Load, Category::Store, Category::Branch, Category::Call, Category::Return];
        let kind_count = kinds.iter().filter(|c| cats.contains(**c)).count();
        prop_assert!(kind_count <= 1, "{inst}: {cats}");
        // Exactly one functional-unit category unless it's a pure control op.
        let units = [Category::Integer, Category::Float, Category::System];
        let unit_count = units.iter().filter(|c| cats.contains(**c)).count();
        prop_assert!(unit_count <= 1);
        // Hazard flags always show up as categories.
        if inst.hazards().contains(Hazards::PEI) {
            prop_assert!(cats.contains(Category::Pei));
        }
    }

    #[test]
    fn reordered_preserves_multiset(insts in prop::collection::vec(arb_inst(), 1..12), seed in 0u64..1000) {
        // Keep only non-terminators so validation is irrelevant here.
        let insts: Vec<Inst> = insts.into_iter().filter(|i| !i.opcode().is_terminator()).collect();
        prop_assume!(!insts.is_empty());
        let n = insts.len();
        let block = BasicBlock::from_insts(0, insts);
        // A deterministic pseudo-random permutation from the seed.
        let mut order: Vec<usize> = (0..n).collect();
        let mut s = seed.wrapping_add(1);
        for i in (1..n).rev() {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            order.swap(i, (s >> 33) as usize % (i + 1));
        }
        let r = block.reordered(&order);
        let mut a: Vec<String> = block.insts().iter().map(|i| i.to_string()).collect();
        let mut b: Vec<String> = r.insts().iter().map(|i| i.to_string()).collect();
        a.sort();
        b.sort();
        prop_assert_eq!(a, b);
    }

    #[test]
    fn display_roundtrip_is_nonempty(inst in arb_inst()) {
        let s = inst.to_string();
        prop_assert!(!s.is_empty());
        prop_assert!(s.starts_with(inst.opcode().mnemonic()));
    }

    #[test]
    fn validate_accepts_bodies_without_terminators(insts in prop::collection::vec(arb_inst(), 0..10)) {
        let body: Vec<Inst> = insts.into_iter().filter(|i| !i.opcode().is_terminator()).collect();
        let block = BasicBlock::from_insts(0, body);
        prop_assert!(block.validate().is_ok(), "{block}");
    }
}
