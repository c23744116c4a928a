//! The compiled filter engine's correctness contract: bit-identical to
//! the interpreted rule-set path — on random rule sets and feature
//! vectors, and on every trained LOOCV fold across every registry
//! machine.

#[path = "support/arb.rs"]
mod arb;

use arb::{arb_rule_set, arb_vector};
use proptest::prelude::*;
use wts_core::{CompiledFilter, Experiment, LearnedFilter, Learner, LearnerKind, TimingMode};
use wts_features::{FeatureKind, FeatureMask, FeatureVector};
use wts_ir::{BasicBlock, Inst, MemRef, MemSpace, Opcode, Program, Reg};
use wts_ripper::{Dataset, RuleSet};

/// The interpreted reference walk of an ordered rule set: conditions
/// evaluated, short-circuiting within each rule and stopping at the first
/// rule that fires. The compiled engine's counted work must equal it.
fn interpreted_work(rules: &RuleSet, values: &[f64]) -> u64 {
    let mut evaluated = 0u64;
    for rule in rules.rules() {
        let mut fired = true;
        for c in rule.conditions() {
            evaluated += 1;
            if !c.matches(values) {
                fired = false;
                break;
            }
        }
        if fired {
            break;
        }
    }
    evaluated
}

/// A random labeled dataset over the full feature vocabulary: the
/// label is a threshold on block length with a sprinkle of label noise,
/// so every backend has signal to find and noise to cope with.
fn arb_labeled_dataset() -> impl Strategy<Value = Dataset> {
    (prop::collection::vec(arb_vector(), 8..40), 0u32..150, prop::bool::ANY).prop_map(|(vectors, cut, flip)| {
        let attr_names: Vec<String> = FeatureKind::ALL.iter().map(|k| k.rule_name().to_string()).collect();
        let mut d = Dataset::new(attr_names, "list", "orig");
        for (i, v) in vectors.iter().enumerate() {
            let noisy = flip && i % 7 == 0;
            let label = (v.as_slice()[FeatureKind::BbLen.index()] >= cut as f64) != noisy;
            d.push(v.as_slice().to_vec(), label, u32::try_from(i % 3).expect("a residue mod 3 fits u32"));
        }
        d
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn compiled_decisions_equal_interpreted_predict(rs in arb_rule_set(),
                                                    vectors in prop::collection::vec(arb_vector(), 1..20)) {
        let compiled = CompiledFilter::from_rule_set(&rs, "L/N");
        for v in &vectors {
            prop_assert_eq!(compiled.decide(v.as_slice()), rs.predict(v.as_slice()), "{}", v);
        }
    }

    #[test]
    fn counted_work_agrees_between_interpreted_and_compiled(rs in arb_rule_set(), v in arb_vector()) {
        let learned = LearnedFilter::new(rs, 0);
        let compiled = learned.compiled();
        prop_assert_eq!(interpreted_work(learned.rules(), v.as_slice()), compiled.score_counted(v.as_slice()).1);
        // Work is bounded by the model size and by what a decision can
        // possibly cost.
        prop_assert!(compiled.score_counted(v.as_slice()).1 <= compiled.condition_count() as u64);
    }

    #[test]
    fn demand_mask_covers_exactly_the_referenced_attributes(rs in arb_rule_set()) {
        let compiled = CompiledFilter::from_rule_set(&rs, "L/N");
        let referenced = rs.referenced_attrs();
        for kind in FeatureKind::ALL {
            prop_assert_eq!(compiled.demand().contains(kind), referenced.contains(&kind.index()));
        }
    }

    #[test]
    fn every_backend_lowers_to_the_engine_faithfully(data in arb_labeled_dataset(),
                                                     probes in prop::collection::vec(arb_vector(), 1..20)) {
        // The portfolio contract: whatever a backend induces from a
        // random dataset, its compiled form decides exactly like the
        // interpreted rule set — on the training points and on fresh
        // probe vectors.
        for kind in LearnerKind::portfolio() {
            let rules = kind.fit(&data);
            let learned = LearnedFilter::with_learner(rules.clone(), 0, kind.filter_tag());
            let compiled = learned.compiled();
            for inst in data.instances() {
                prop_assert_eq!(compiled.decide(&inst.values), rules.predict(&inst.values), "{}", kind.name());
                prop_assert_eq!(compiled.score_counted(&inst.values).1,
                                interpreted_work(learned.rules(), &inst.values), "{}", kind.name());
            }
            for v in &probes {
                prop_assert_eq!(compiled.decide(v.as_slice()), rules.predict(v.as_slice()), "{}", kind.name());
            }
        }
    }

    #[test]
    fn masked_extraction_preserves_decisions(rs in arb_rule_set(), lens in prop::collection::vec(1usize..12, 1..6)) {
        // Decisions over demand-masked vectors must equal decisions over
        // fully extracted ones: the mask covers everything the table reads.
        let compiled = CompiledFilter::from_rule_set(&rs, "L/N");
        for (i, len) in lens.iter().enumerate() {
            let mut b = BasicBlock::new(u32::try_from(i).expect("generated block counts fit u32"));
            for k in 0..*len {
                let kr = u16::try_from(k).expect("generated block lengths fit u16");
                let slot = u32::try_from(k).expect("generated block lengths fit u32");
                if k % 3 == 0 {
                    b.push(
                        Inst::new(Opcode::Lwz)
                            .def(Reg::gpr(1 + kr))
                            .use_(Reg::gpr(9))
                            .mem(MemRef::slot(MemSpace::Heap, slot)),
                    );
                } else {
                    b.push(Inst::new(Opcode::Add).def(Reg::gpr(1 + kr)).use_(Reg::gpr(9)).use_(Reg::gpr(9)));
                }
            }
            let full = FeatureVector::extract(&b);
            let masked = FeatureVector::extract_masked(&b, compiled.demand());
            prop_assert_eq!(compiled.decide(masked.as_slice()), compiled.decide(full.as_slice()));
        }
    }
}

/// The shared learnable three-benchmark suite the core pipeline tests use.
fn suite() -> Vec<Program> {
    wts_core::testutil::learnable_suite(5)
}

/// The acceptance bar: on every registry machine, every trained LOOCV
/// fold's compiled form is bit-identical to the interpreted filter — on
/// every trace record, and with demand-masked extraction straight off the
/// blocks.
#[test]
fn compiled_loocv_folds_match_interpreted_on_all_registry_machines() {
    let programs = suite();
    for machine in wts_machine::registry() {
        let run = Experiment::new(machine.clone()).with_timing(TimingMode::Deterministic).run(programs.clone());
        for t in [0, 20] {
            for (bench, learned) in run.loocv_filters(t).iter() {
                let compiled = run.compiled_filter_for(t, bench);
                assert_eq!(compiled, *learned.compiled());
                // Per-record decisions and work, interpreted vs compiled.
                for r in run.all_traces() {
                    assert_eq!(
                        compiled.decide(r.features.as_slice()),
                        learned.rules().predict(r.features.as_slice()),
                        "{}/{bench}/t={t}: decision mismatch on {}",
                        machine.name(),
                        r.features
                    );
                    assert_eq!(
                        compiled.score_counted(r.features.as_slice()).1,
                        interpreted_work(learned.rules(), r.features.as_slice())
                    );
                }
                // Demand-masked extraction straight off the IR agrees
                // with full extraction + the interpreted filter.
                let demand = compiled.demand();
                assert!(demand.count() <= FeatureKind::COUNT);
                for p in run.programs() {
                    for (_, block) in p.iter_blocks() {
                        let full = FeatureVector::extract(block);
                        let masked = FeatureVector::extract_masked(block, demand);
                        assert_eq!(
                            compiled.decide(masked.as_slice()),
                            learned.rules().predict(full.as_slice()),
                            "{}/{bench}: masked extraction changed a decision",
                            machine.name()
                        );
                    }
                }
            }
        }
    }
}

/// The superblock-scope acceptance bar: on every registry machine, the
/// trace-scope pipeline's LOOCV folds pin compiled ≡ interpreted ≡
/// native-predict for all three portfolio backends — the engine, the
/// ordered-rule interpretation, and each backend's *native* model
/// (RIPPER's rule set itself, the stump's own threshold, the tree's own
/// recursive predict) agree bit for bit on every trace record of every
/// fold, trace-shape features included.
#[test]
fn superblock_loocv_folds_pin_compiled_interpreted_native_on_all_registry_machines() {
    use wts_ripper::{leave_one_group_out, Classifier, DecisionStump, RuleSet, ShallowTree};
    let programs = wts_core::testutil::mergeable_suite(4);
    for machine in wts_machine::registry() {
        let run = Experiment::new(machine.clone())
            .with_timing(TimingMode::Deterministic)
            .with_scope(wts_ir::ScopeKind::Superblock(70))
            .run(programs.clone());
        assert!(
            run.all_traces().iter().any(|r| r.features.get(FeatureKind::TraceWidth) > 1.0),
            "{}: the corpus must contain genuinely merged traces",
            machine.name()
        );
        // Compiled vs interpreted, per trained fold filter.
        for learner in LearnerKind::portfolio() {
            for (bench, learned) in run.loocv_filters_for(0, &learner).iter() {
                let compiled = learned.compiled();
                for r in run.all_traces() {
                    assert_eq!(
                        compiled.decide(r.features.as_slice()),
                        learned.rules().predict(r.features.as_slice()),
                        "{}/{}/{bench}: compiled vs interpreted",
                        machine.name(),
                        learner.name()
                    );
                    assert_eq!(
                        compiled.score_counted(r.features.as_slice()).1,
                        interpreted_work(learned.rules(), r.features.as_slice())
                    );
                }
            }
        }
        // Lowered rules vs each backend's native model, per fold.
        let (data, _) = run.dataset(0);
        for fold in leave_one_group_out(&data) {
            let probes = fold.train.instances().iter().chain(fold.test.instances());
            let ripper_rules = RuleSet::fit(&fold.train);
            let stump_rules = LearnerKind::Stump.fit(&fold.train);
            let tree_rules = LearnerKind::Tree.fit(&fold.train);
            let native_stump = (!fold.train.is_empty()).then(|| DecisionStump::fit(&fold.train));
            let native_tree = (!fold.train.is_empty()).then(|| ShallowTree::fit(&fold.train, 4, 8));
            for inst in probes {
                let v = &inst.values;
                assert_eq!(
                    CompiledFilter::from_rule_set(&ripper_rules, "r").decide(v),
                    ripper_rules.predict(v),
                    "{}: ripper is its own native model",
                    machine.name()
                );
                if let Some(native) = &native_stump {
                    assert_eq!(stump_rules.predict(v), native.predict(v), "{}: stump native", machine.name());
                    assert_eq!(CompiledFilter::from_rule_set(&stump_rules, "s").decide(v), native.predict(v));
                }
                if let Some(native) = &native_tree {
                    assert_eq!(tree_rules.predict(v), native.predict(v), "{}: tree native", machine.name());
                    assert_eq!(CompiledFilter::from_rule_set(&tree_rules, "t").decide(v), native.predict(v));
                }
            }
        }
    }
}

/// The fixed strategies and the size baseline are built straight into
/// the engine: LS schedules everything and NS nothing, both for free;
/// `size>=5` schedules exactly the blocks of at least five instructions
/// for one condition each.
#[test]
fn fixed_and_baseline_filters_lower_faithfully() {
    let machine = wts_machine::MachineConfig::ppc7410();
    let run = Experiment::new(machine).with_timing(TimingMode::Deterministic).run(suite());
    for r in run.all_traces() {
        let v = r.features.as_slice();
        let at_least_5 = r.features.get(FeatureKind::BbLen) >= 5.0;
        for (compiled, decision, work) in [
            (CompiledFilter::always(), true, 0),
            (CompiledFilter::never(), false, 0),
            (CompiledFilter::size_threshold(5), at_least_5, 1),
        ] {
            assert_eq!(compiled.decide(v), decision, "{}", compiled.name());
            assert_eq!(compiled.score_counted(v).1, work, "{}", compiled.name());
        }
    }
    assert_eq!(CompiledFilter::always().name(), "LS");
    assert_eq!(CompiledFilter::never().name(), "NS");
    assert_eq!(CompiledFilter::size_threshold(5).name(), "size>=5");
}

/// The masked work model never exceeds the full-extraction model, so
/// demand-driven extraction can only make the accounting cheaper.
#[test]
fn demand_masked_extraction_work_is_bounded_by_full() {
    for bb_len in [0u64, 1, 7, 100] {
        let full = FeatureMask::ALL.extraction_work(bb_len);
        for kinds in [
            FeatureMask::EMPTY,
            FeatureMask::of([FeatureKind::BbLen]),
            FeatureMask::of([FeatureKind::BbLen, FeatureKind::Loads, FeatureKind::Calls]),
        ] {
            assert!(kinds.extraction_work(bb_len) <= full);
        }
    }
}
