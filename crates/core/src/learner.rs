//! The learner abstraction: induction backends behind one trait.
//!
//! The paper induces its LS/NS filter with exactly one learner — RIPPER
//! (§2.3). Its own argument, though — cheap *induced* heuristics beat
//! hand-tuned ones — is strongest when several induction backends
//! compete per target machine: the portfolio question of Streeter &
//! Smith ("New Techniques for Algorithm Portfolio Design"), revisited
//! for scheduling heuristics by Chmiela et al. ("Learning to Schedule
//! Heuristics in Branch-and-Bound"). This module is that layer:
//!
//! * [`Learner`] is the trait every backend implements: fit a labeled
//!   [`Dataset`] and return an ordered [`RuleSet`] — the one model
//!   vocabulary the compiled engine
//!   ([`CompiledFilter`](crate::CompiledFilter)) lowers, so every
//!   backend inherits the pinned compiled≡interpreted property and the
//!   honest per-condition work accounting for free.
//! * [`LearnerKind`] is the closed, cloneable configuration enum the
//!   pipeline plumbing ([`TrainConfig`](crate::TrainConfig),
//!   [`Experiment`](crate::Experiment)) carries: RIPPER, a one-feature
//!   decision-stump sweep (the learned generalization of the
//!   [`size_threshold`](crate::CompiledFilter::size_threshold) baseline), and a greedy
//!   top-down decision tree with depth/leaf-support caps whose
//!   positive-leaf paths lower to flat condition tables exactly like
//!   RIPPER rules.
//!
//! Adding a backend means producing a `RuleSet` whose `predict` is
//! bit-identical to the native model on finite inputs — strict
//! comparisons are lowered via next-representable-`f64` thresholds (see
//! `DecisionStump::to_rules` / `ShallowTree::to_rules` in `wts_ripper`)
//! — and extending [`LearnerKind`] (plus
//! [`LearnerKind::portfolio`]) so the cross-machine portfolio table
//! picks it up.

use wts_ripper::{Dataset, DecisionStump, RipperConfig, RuleSet, ShallowTree};

/// An induction backend: fits a labeled dataset into an ordered rule
/// set, the common form every filter lowers to the compiled engine
/// from.
///
/// Implementations must be deterministic — LOOCV training is sharded
/// across folds and pinned bit-identical to the serial path — and
/// `Send + Sync` so folds can train concurrently.
pub trait Learner: Send + Sync {
    /// Induces a rule set from the labeled data. The returned set's
    /// `predict` must be bit-identical to the backend's native model on
    /// finite inputs.
    fn fit(&self, data: &Dataset) -> RuleSet;

    /// Short name for reports (`ripper`, `stump`, `tree(d=4)`, …).
    fn name(&self) -> String;
}

/// The built-in induction backends, as cloneable pipeline configuration.
#[derive(Debug, Clone, PartialEq)]
pub enum LearnerKind {
    /// RIPPER rule induction (the paper's learner).
    Ripper(RipperConfig),
    /// A single learned threshold on a single feature — the best stump
    /// over all seventeen features by exhaustive sweep. The natural
    /// generalization of the hand-picked
    /// [`size_threshold`](crate::CompiledFilter::size_threshold) baseline.
    Stump,
    /// A greedy top-down entropy tree; positive-leaf paths lower to
    /// conjunctive rules.
    Tree {
        /// Maximum number of splits on any root-to-leaf path.
        max_depth: usize,
        /// Minimum instances per leaf (leaf-support cap).
        min_leaf: usize,
    },
}

impl Default for LearnerKind {
    fn default() -> LearnerKind {
        LearnerKind::Ripper(RipperConfig::default())
    }
}

impl LearnerKind {
    /// The default tree backend: depth 4, at least 8 instances per leaf.
    pub fn tree() -> LearnerKind {
        LearnerKind::Tree { max_depth: 4, min_leaf: 8 }
    }

    /// The standard portfolio the cross-machine comparison sweeps:
    /// RIPPER, the stump and the capped tree, in report order.
    pub fn portfolio() -> Vec<LearnerKind> {
        vec![LearnerKind::default(), LearnerKind::Stump, LearnerKind::tree()]
    }

    /// The tag a trained filter displays: `L/N` (the paper's name) for
    /// RIPPER, the learner name otherwise — so `L/N(t=20)` stays the
    /// label of the paper's artifact and `stump(t=20)` / `tree(d=4)(t=20)`
    /// name the portfolio alternatives.
    pub fn filter_tag(&self) -> String {
        match self {
            LearnerKind::Ripper(_) => "L/N".into(),
            other => other.name(),
        }
    }

    /// A cache key unique per configuration (not just per variant).
    pub(crate) fn cache_key(&self) -> String {
        format!("{self:?}")
    }
}

impl Learner for LearnerKind {
    fn fit(&self, data: &Dataset) -> RuleSet {
        // The stump/tree backends lower through the same stats
        // attribution RIPPER's finish pass uses, so their rules carry
        // honest leaf class frequencies: each lowered rule's
        // (hits/misses) record is the training composition of the
        // instances it fires on first, and the default record is the
        // reject region's. The calibrated scores the compiled engine
        // emits are Laplace-smoothed from exactly these counts.
        let lowered = |rules: Vec<wts_ripper::Rule>| {
            let (stats, default_stats) = wts_ripper::attribute_stats(&rules, data);
            RuleSet::new(data.attr_names().to_vec(), data.pos_label(), data.neg_label(), rules, stats, default_stats)
        };
        match self {
            LearnerKind::Ripper(config) => config.fit(data),
            // The sweeps need at least one instance; an empty fold
            // lowers to the empty rule set (predict-all-negative),
            // matching RIPPER's behaviour on no data.
            LearnerKind::Stump if data.is_empty() => lowered(vec![]),
            LearnerKind::Stump => lowered(DecisionStump::fit(data).to_rules()),
            LearnerKind::Tree { .. } if data.is_empty() => lowered(vec![]),
            LearnerKind::Tree { max_depth, min_leaf } => {
                lowered(ShallowTree::fit(data, *max_depth, *min_leaf).to_rules())
            }
        }
    }

    fn name(&self) -> String {
        match self {
            LearnerKind::Ripper(_) => "ripper".into(),
            LearnerKind::Stump => "stump".into(),
            LearnerKind::Tree { max_depth, .. } => format!("tree(d={max_depth})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wts_ripper::Classifier;

    fn dataset() -> Dataset {
        let mut d = Dataset::new(vec!["x".into(), "y".into()], "list", "orig");
        for i in 0..120 {
            let x = (i % 40) as f64 / 40.0;
            let y = (i % 7) as f64 / 7.0;
            d.push(vec![x, y], x >= 0.4, u32::try_from(i % 3).expect("a residue mod 3 fits u32"));
        }
        d
    }

    #[test]
    fn every_backend_fits_a_consistent_rule_set() {
        let d = dataset();
        for kind in LearnerKind::portfolio() {
            let rules = kind.fit(&d);
            assert_eq!(rules.attr_names(), d.attr_names(), "{}", kind.name());
            assert_eq!(rules.pos_label(), "list");
            assert!(rules.predict(&[0.9, 0.1]), "{}: clear positive", kind.name());
            assert!(!rules.predict(&[0.0, 0.1]), "{}: clear negative", kind.name());
        }
    }

    #[test]
    fn stump_rule_set_matches_native_stump() {
        let d = dataset();
        let native = DecisionStump::fit(&d);
        let rules = LearnerKind::Stump.fit(&d);
        for inst in d.instances() {
            assert_eq!(rules.predict(&inst.values), native.predict(&inst.values));
        }
    }

    #[test]
    fn tree_rule_set_matches_native_tree() {
        let d = dataset();
        let native = ShallowTree::fit(&d, 4, 8);
        let rules = LearnerKind::tree().fit(&d);
        for inst in d.instances() {
            assert_eq!(rules.predict(&inst.values), native.predict(&inst.values));
        }
    }

    #[test]
    fn empty_folds_yield_the_empty_rule_set() {
        let d = Dataset::new(vec!["x".into()], "list", "orig");
        for kind in [LearnerKind::Stump, LearnerKind::tree()] {
            let rules = kind.fit(&d);
            assert!(rules.is_empty(), "{}: empty data must not invent rules", kind.name());
            assert!(!rules.predict(&[5.0]));
        }
    }

    #[test]
    fn stump_and_tree_rules_carry_leaf_class_frequencies() {
        let d = dataset();
        for kind in [LearnerKind::Stump, LearnerKind::tree()] {
            let rules = kind.fit(&d);
            assert!(!rules.is_empty(), "{}: the separable dataset must induce rules", kind.name());
            let fired: usize = rules.stats().iter().map(|s| s.hits + s.misses).sum();
            let defaulted = rules.default_stats().hits + rules.default_stats().misses;
            assert_eq!(fired + defaulted, d.len(), "{}: every instance attributed exactly once", kind.name());
            assert!(fired > 0, "{}: some instances must fire a rule", kind.name());
            // x >= 0.4 is learnable here, so firing regions are mostly
            // positive and the reject region mostly negative.
            for (k, s) in rules.stats().iter().enumerate() {
                assert!(rules.rule_confidence(k) > 0.5, "{}: rule {k} {s:?} should be positive-leaning", kind.name());
            }
            assert!(rules.default_confidence() < 0.5, "{}: reject region should be negative-leaning", kind.name());
        }
    }

    #[test]
    fn names_and_tags() {
        assert_eq!(LearnerKind::default().name(), "ripper");
        assert_eq!(LearnerKind::default().filter_tag(), "L/N");
        assert_eq!(LearnerKind::Stump.filter_tag(), "stump");
        assert_eq!(LearnerKind::tree().name(), "tree(d=4)");
        let keys: Vec<String> = LearnerKind::portfolio().iter().map(|k| k.cache_key()).collect();
        let mut unique = keys.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), keys.len(), "cache keys must be distinct");
    }

    #[test]
    fn portfolio_covers_three_backends_with_ripper_first() {
        let p = LearnerKind::portfolio();
        assert_eq!(p.len(), 3);
        assert!(matches!(p[0], LearnerKind::Ripper(_)));
        assert!(p.contains(&LearnerKind::Stump));
    }
}
