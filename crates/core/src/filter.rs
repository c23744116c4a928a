//! The trained filter: an induced rule set plus its provenance.

use crate::engine::CompiledFilter;
use std::fmt;
use wts_ripper::RuleSet;

/// A filter backed by an induced rule set — the paper's L/N filter when
/// trained by RIPPER, or any other [`Learner`](crate::Learner) backend's
/// model lowered to the same ordered-rule vocabulary.
///
/// The rule set is lowered once, when the filter is built, and the
/// [`CompiledFilter`] table every deployed decision runs through
/// travels with it: a trained filter is one artifact.
#[derive(Debug, Clone, PartialEq)]
pub struct LearnedFilter {
    rules: RuleSet,
    threshold_percent: u32,
    learner: String,
    compiled: CompiledFilter,
}

impl LearnedFilter {
    /// Wraps a trained rule set; `threshold_percent` records the labeling
    /// threshold it was trained at (for display only). The filter is
    /// tagged `L/N`, the paper's name for the RIPPER-induced filter; use
    /// [`with_learner`](LearnedFilter::with_learner) for other backends.
    ///
    /// # Panics
    ///
    /// As [`with_learner`](LearnedFilter::with_learner).
    pub fn new(rules: RuleSet, threshold_percent: u32) -> LearnedFilter {
        LearnedFilter::with_learner(rules, threshold_percent, "L/N")
    }

    /// Wraps a trained rule set, tagged with the inducing backend's name,
    /// and lowers it into its [`CompiledFilter`] named
    /// `<learner>(t=<threshold>)`.
    ///
    /// # Panics
    ///
    /// When the rule set does not lower: on any
    /// [`CompiledFilterError`](crate::CompiledFilterError) of
    /// [`CompiledFilter::from_rule_set`] (an unknown attribute, a
    /// non-finite threshold or a calibrated score outside `[0, 1]`).
    pub fn with_learner(rules: RuleSet, threshold_percent: u32, learner: impl Into<String>) -> LearnedFilter {
        let learner = learner.into();
        let compiled = CompiledFilter::from_rule_set(&rules, format!("{learner}(t={threshold_percent})"));
        LearnedFilter { rules, threshold_percent, learner, compiled }
    }

    /// The underlying rule set (e.g. for printing Figure 4).
    pub fn rules(&self) -> &RuleSet {
        &self.rules
    }

    /// The labeling threshold this filter was trained at.
    pub fn threshold_percent(&self) -> u32 {
        self.threshold_percent
    }

    /// The tag of the backend that induced the rule set (`L/N` for
    /// RIPPER).
    pub fn learner(&self) -> &str {
        &self.learner
    }

    /// Short name for reports: `<learner>(t=<threshold>)`.
    pub fn name(&self) -> &str {
        self.compiled.name()
    }

    /// The lowered [`CompiledFilter`] engine that every deployed
    /// decision runs through, tagged with [`name`](LearnedFilter::name).
    pub fn compiled(&self) -> &CompiledFilter {
        &self.compiled
    }
}

/// The debug-build model lint shared by training and publication:
/// `filter`'s rules, with the demand mask of their lowered form, must
/// pass `wts-verify`'s lint, or this panics naming `name`.
#[cfg(debug_assertions)]
#[track_caller]
pub(crate) fn assert_model_lints_clean(filter: &LearnedFilter, name: &str) {
    let table = wts_verify::ModelTable::from_rule_set(filter.rules(), filter.compiled().demand(), name);
    let diags = wts_verify::lint_model(&table);
    assert!(diags.is_empty(), "filter {name} failed the model lint:\n{}", wts_verify::render(&diags));
}

impl fmt::Display for LearnedFilter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.rules)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wts_features::FeatureKind;
    use wts_ripper::{Condition, Op, Rule};

    #[test]
    fn learned_filter_delegates_to_rules() {
        let attr_names: Vec<String> = FeatureKind::ALL.iter().map(|k| k.rule_name().to_string()).collect();
        let rules = RuleSet::new(
            attr_names,
            "list",
            "orig",
            vec![Rule::from_conditions(vec![
                Condition { attr: FeatureKind::BbLen.index(), op: Op::Ge, threshold: 7.0 },
                Condition { attr: FeatureKind::Loads.index(), op: Op::Ge, threshold: 0.3 },
            ])],
            vec![],
            Default::default(),
        );
        let f = LearnedFilter::new(rules, 20);
        let compiled = f.compiled();
        for (bb_len, loads, expected) in [(8.0, 0.5, true), (8.0, 0.1, false), (3.0, 0.5, false)] {
            let mut v = [0.0; FeatureKind::COUNT];
            v[FeatureKind::BbLen.index()] = bb_len;
            v[FeatureKind::Loads.index()] = loads;
            assert_eq!(f.rules().predict(&v), expected);
            assert_eq!(compiled.decide(&v), expected);
        }
        assert_eq!(f.name(), "L/N(t=20)");
        assert_eq!(f.threshold_percent(), 20);
        assert_eq!(f.learner(), "L/N");
        assert!(f.to_string().contains("list :-"));
    }

    #[test]
    fn learner_tag_names_the_backend() {
        let attr_names: Vec<String> = FeatureKind::ALL.iter().map(|k| k.rule_name().to_string()).collect();
        let rules = RuleSet::new(attr_names, "list", "orig", vec![], vec![], Default::default());
        let f = LearnedFilter::with_learner(rules, 10, "stump");
        assert_eq!(f.name(), "stump(t=10)");
        assert_eq!(f.learner(), "stump");
        assert_eq!(f.compiled().name(), "stump(t=10)", "the tag survives lowering");
    }
}
