//! Property-based tests for the RIPPER implementation and baselines.

use proptest::prelude::*;
use wts_ripper::{
    geometric_mean, Classifier, ConfusionMatrix, Dataset, DecisionStump, MajorityLearner, Rule, RuleSet, ShallowTree,
};

/// A dataset whose label is a threshold on attribute 0, with optional
/// label noise and a junk attribute.
fn arb_threshold_dataset() -> impl Strategy<Value = (Dataset, f64)> {
    (50usize..200, 0.2f64..0.8, 0u8..10, 0u64..1000).prop_map(|(n, cut, noise_pct, seed)| {
        let mut d = Dataset::new(vec!["x".into(), "junk".into()], "LS", "NS");
        let mut s = seed.wrapping_add(1);
        let mut next = || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((s >> 11) % 10_000) as f64 / 10_000.0
        };
        for i in 0..n {
            let x = next();
            let junk = next();
            let mut y = x >= cut;
            if noise_pct > 0 && i % 100 < noise_pct as usize {
                y = !y;
            }
            d.push(vec![x, junk], y, u32::try_from(i % 3).expect("a residue mod 3 fits u32"));
        }
        (d, cut)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn ripper_never_panics_and_always_classifies((data, _cut) in arb_threshold_dataset()) {
        let model = RuleSet::fit(&data);
        for inst in data.instances() {
            let _ = model.predict(&inst.values);
        }
        // Model size is sane: no more rules than instances.
        prop_assert!(model.len() <= data.len());
    }

    #[test]
    fn ripper_beats_or_matches_majority((data, _cut) in arb_threshold_dataset()) {
        prop_assume!(data.positives() > 5 && data.negatives() > 5);
        let ripper = RuleSet::fit(&data);
        let majority = MajorityLearner::fit(&data);
        let em = ConfusionMatrix::evaluate(&ripper, &data).error_percent();
        let mm = {
            let mut m = ConfusionMatrix::default();
            for i in data.instances() {
                m.record(i.positive, majority.predict(&i.values));
            }
            m.error_percent()
        };
        prop_assert!(em <= mm + 1.0, "ripper {em}% much worse than majority {mm}%");
    }

    #[test]
    fn ripper_training_error_tracks_noise_floor((data, _cut) in arb_threshold_dataset()) {
        prop_assume!(data.positives() > 10 && data.negatives() > 10);
        let model = RuleSet::fit(&data);
        let err = ConfusionMatrix::evaluate(&model, &data).error_percent();
        // Noise is at most 10%; a correct learner stays within a modest
        // multiple of it on training data.
        prop_assert!(err <= 25.0, "training error {err}% too high for <=10% label noise");
    }

    #[test]
    fn stump_finds_signal_attribute((data, cut) in arb_threshold_dataset()) {
        prop_assume!(data.positives() > 10 && data.negatives() > 10);
        let stump = DecisionStump::fit(&data);
        prop_assert_eq!(stump.attr(), 0, "stump picked the junk attribute");
        // Its threshold lands near the true cut.
        prop_assert!((stump.threshold() - cut).abs() < 0.25,
            "threshold {} vs true cut {cut}", stump.threshold());
    }

    #[test]
    fn stump_lowering_is_bit_identical_to_predict((data, _cut) in arb_threshold_dataset(),
                                                  probes in prop::collection::vec((0u32..10_001, 0u32..10_001), 1..40)) {
        let stump = DecisionStump::fit(&data);
        let rules = stump.to_rules();
        let fires = |v: &[f64]| rules.iter().any(|r: &Rule| r.matches(v));
        // Training points (includes every candidate threshold) plus a
        // probe grid straddling the boundary.
        for inst in data.instances() {
            prop_assert_eq!(fires(&inst.values), stump.predict(&inst.values));
        }
        for (a, b) in probes {
            let v = [a as f64 / 10_000.0, b as f64 / 10_000.0];
            prop_assert_eq!(fires(&v), stump.predict(&v), "at {:?}", v);
        }
    }

    #[test]
    fn tree_lowering_is_bit_identical_to_predict((data, _cut) in arb_threshold_dataset(),
                                                 depth in 1usize..5,
                                                 probes in prop::collection::vec((0u32..10_001, 0u32..10_001), 1..40)) {
        let tree = ShallowTree::fit(&data, depth, 4);
        let rules = tree.to_rules();
        let fires = |v: &[f64]| rules.iter().any(|r: &Rule| r.matches(v));
        for inst in data.instances() {
            prop_assert_eq!(fires(&inst.values), tree.predict(&inst.values));
        }
        for (a, b) in probes {
            let v = [a as f64 / 10_000.0, b as f64 / 10_000.0];
            prop_assert_eq!(fires(&v), tree.predict(&v), "at {:?}", v);
        }
    }

    #[test]
    fn rules_fire_consistently_with_prediction((data, _cut) in arb_threshold_dataset()) {
        let model = RuleSet::fit(&data);
        for inst in data.instances().iter().take(50) {
            let fired = model.firing_rule(&inst.values);
            prop_assert_eq!(fired.is_some(), model.predict(&inst.values));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn geometric_mean_bounds(values in prop::collection::vec(0.0f64..1000.0, 1..20)) {
        let g = geometric_mean(&values);
        let max = values.iter().cloned().fold(f64::MIN, f64::max);
        prop_assert!(g <= max + 1e-9);
        prop_assert!(g >= 0.0);
    }

    #[test]
    fn confusion_matrix_totals(actuals in prop::collection::vec(prop::bool::ANY, 0..100),
                               preds in prop::collection::vec(prop::bool::ANY, 0..100)) {
        let n = actuals.len().min(preds.len());
        let mut m = ConfusionMatrix::default();
        for i in 0..n {
            m.record(actuals[i], preds[i]);
        }
        prop_assert_eq!(m.total(), n);
        prop_assert_eq!(m.predicted_positive() + m.predicted_negative(), n);
        prop_assert!(m.error_percent() <= 100.0);
        prop_assert!((m.accuracy() * 100.0 + m.error_percent() - 100.0).abs() < 1e-9);
    }
}
