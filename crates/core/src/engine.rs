//! The compiled filter engine.
//!
//! The paper's economics only work if evaluating the filter is *vastly*
//! cheaper than running the scheduler (§3.1); related selector work
//! (Chmiela et al. on scheduling heuristics in branch-and-bound,
//! Streeter & Smith on portfolios) makes the same point — the selector's
//! own overhead is a first-class term of the objective. This module is
//! the engineering half of that argument:
//!
//! * [`CompiledFilter`] lowers any filter — an induced
//!   [`RuleSet`](wts_ripper::RuleSet), the fixed LS/NS strategies, or
//!   the size-threshold baseline — into one flat, cache-friendly
//!   condition table walked with short-circuit evaluation. No rule or
//!   condition objects are chased at decision time.
//! * Every compiled filter carries a [`FeatureMask`] *demand mask*: the
//!   features its conditions actually read (via
//!   [`RuleSet::referenced_attrs`](wts_ripper::RuleSet::referenced_attrs)),
//!   which drives demand-driven extraction
//!   ([`FeatureVector::extract_masked`](wts_features::FeatureVector::extract_masked))
//!   — induced rule sets typically consult two or three of the seventeen
//!   features (Table 1 plus the trace-shape features of the superblock
//!   scope).
//! * Decision *work* is observable: [`CompiledFilter::score_counted`]
//!   reports the number of conditions actually evaluated before the
//!   decision (short-circuit aware), which
//!   [`sched_time_ratio`](crate::sched_time_ratio) charges instead of a
//!   flat constant.
//!
//! Compiled decisions are bit-identical to the interpreted path
//! ([`RuleSet::predict`](wts_ripper::RuleSet::predict)); a property
//! suite pins that on random rule sets and on every trained LOOCV fold
//! across the machine registry.
//!
//! # Examples
//!
//! ```
//! use wts_core::CompiledFilter;
//! use wts_features::{FeatureKind, FeatureMask};
//!
//! let compiled = CompiledFilter::size_threshold(5);
//! assert_eq!(compiled.demand(), FeatureMask::of([FeatureKind::BbLen]));
//! assert_eq!(compiled.condition_count(), 1);
//! let mut v = [0.0; FeatureKind::COUNT];
//! v[FeatureKind::BbLen.index()] = 8.0;
//! assert!(compiled.decide(&v));
//! ```

use std::fmt;
use wts_features::{FeatureKind, FeatureMask};
use wts_ripper::{Op, RuleSet};

/// One lowered condition: `values[attr] <op> threshold`.
#[derive(Debug, Clone, Copy, PartialEq)]
struct CompiledCond {
    attr: u32,
    op: Op,
    threshold: f64,
}

impl CompiledCond {
    #[inline]
    fn holds(&self, v: f64) -> bool {
        match self.op {
            Op::Le => v <= self.threshold,
            Op::Ge => v >= self.threshold,
        }
    }
}

/// A filter lowered to a flat condition table plus a feature demand mask.
///
/// Semantics mirror the interpreted ordered rule set exactly: the block
/// is scheduled iff some rule's conditions all hold; rules are tried in
/// order and each rule short-circuits on its first failing condition.
/// The fixed strategies compile to degenerate tables (LS = one empty
/// rule that always fires, NS = no rules), so one engine serves every
/// filter kind in trace collection, evaluation and serving.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledFilter {
    name: String,
    /// All rules' conditions, concatenated in firing order.
    conds: Vec<CompiledCond>,
    /// Exclusive end offset of each rule's conditions within `conds`.
    rule_ends: Vec<u32>,
    /// Per-rule calibrated confidence (Laplace-smoothed training
    /// precision), indexed like `rule_ends`.
    scores: Vec<f64>,
    /// Calibrated P(positive) of the reject region — the score emitted
    /// when no rule fires.
    default_score: f64,
    demand: FeatureMask,
}

/// One unit's calibrated verdict: which rule fired (if any) and the
/// Laplace-smoothed probability that scheduling the unit pays off.
///
/// The boolean the legacy seam exposed is [`fired`](FilterScore::fired)
/// `.is_some()` — [`decision`](FilterScore::decision) — and is computed
/// from exactly the same short-circuit walk, so a
/// [`DecisionPolicy::HardThreshold`](crate::DecisionPolicy::HardThreshold)
/// deployment is bit-identical to the pre-score engine. The probability
/// rides along for the cost-sensitive policies.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FilterScore {
    /// Index of the first rule whose conditions all held, if any.
    pub fired: Option<u32>,
    /// Calibrated P(scheduling improves this unit): the firing rule's
    /// confidence, or the reject region's residual positive rate.
    pub probability: f64,
}

impl FilterScore {
    /// The legacy boolean decision: did any rule fire?
    #[inline]
    pub fn decision(&self) -> bool {
        self.fired.is_some()
    }
}

/// Why a rule set cannot be lowered into a [`CompiledFilter`]: the
/// lint's error classes enforced at construction time, so a deployed
/// table is coherent *by construction* rather than by later audit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CompiledFilterError {
    /// A condition references an attribute outside the feature
    /// vocabulary (Table 1 plus the trace-shape features).
    UnknownAttribute {
        /// Rule index in firing order.
        rule: usize,
        /// The out-of-vocabulary attribute index.
        attr: usize,
    },
    /// A condition threshold is NaN or infinite: comparisons against it
    /// are vacuous or always-false and the table no longer means what
    /// the source rules said.
    NonFiniteThreshold {
        /// Rule index in firing order.
        rule: usize,
        /// The condition's attribute index.
        attr: usize,
        /// The offending threshold.
        threshold: f64,
    },
    /// A calibrated score is not a probability in `[0, 1]` (`None` names
    /// the default row).
    ScoreOutOfRange {
        /// Rule index, or `None` for the default row.
        rule: Option<usize>,
        /// The offending score.
        score: f64,
    },
}

impl fmt::Display for CompiledFilterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompiledFilterError::UnknownAttribute { rule, attr } => {
                write!(f, "rule {rule} attribute {attr} is not a known feature")
            }
            CompiledFilterError::NonFiniteThreshold { rule, attr, threshold } => {
                write!(f, "rule {rule} condition on attribute {attr} has a non-finite threshold {threshold}")
            }
            CompiledFilterError::ScoreOutOfRange { rule: Some(k), score } => {
                write!(f, "rule {k} calibrated score {score} is outside [0, 1]")
            }
            CompiledFilterError::ScoreOutOfRange { rule: None, score } => {
                write!(f, "default calibrated score {score} is outside [0, 1]")
            }
        }
    }
}

impl std::error::Error for CompiledFilterError {}

/// Rejects lowered parts the lint would flag as errors: unknown
/// attributes, non-finite thresholds, non-probability scores.
fn validate_table(
    conds: &[CompiledCond],
    rule_ends: &[u32],
    scores: &[f64],
    default_score: f64,
) -> Result<(), CompiledFilterError> {
    let rule_of = |i: usize| rule_ends.iter().position(|&end| i < end as usize).unwrap_or(rule_ends.len());
    for (i, c) in conds.iter().enumerate() {
        let attr = c.attr as usize;
        if attr >= FeatureKind::COUNT {
            return Err(CompiledFilterError::UnknownAttribute { rule: rule_of(i), attr });
        }
        if !c.threshold.is_finite() {
            return Err(CompiledFilterError::NonFiniteThreshold { rule: rule_of(i), attr, threshold: c.threshold });
        }
    }
    for (k, &s) in scores.iter().enumerate() {
        if !s.is_finite() || !(0.0..=1.0).contains(&s) {
            return Err(CompiledFilterError::ScoreOutOfRange { rule: Some(k), score: s });
        }
    }
    if !default_score.is_finite() || !(0.0..=1.0).contains(&default_score) {
        return Err(CompiledFilterError::ScoreOutOfRange { rule: None, score: default_score });
    }
    Ok(())
}

impl CompiledFilter {
    /// Lowers an induced rule set. The demand mask is derived from the
    /// attributes the rules actually reference.
    ///
    /// # Panics
    ///
    /// Panics on any [`CompiledFilterError`] — see
    /// [`try_from_rule_set`](CompiledFilter::try_from_rule_set) for the
    /// non-panicking form.
    pub fn from_rule_set(rules: &RuleSet, name: impl Into<String>) -> CompiledFilter {
        CompiledFilter::try_from_rule_set(rules, name).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Lowers an induced rule set, rejecting incoherent tables with a
    /// named error: unknown attributes, non-finite thresholds and
    /// out-of-`[0, 1]` calibrated scores are construction-time failures,
    /// not latent artifacts for the model lint to find in production.
    pub fn try_from_rule_set(rules: &RuleSet, name: impl Into<String>) -> Result<CompiledFilter, CompiledFilterError> {
        let mut conds = Vec::with_capacity(rules.condition_count());
        let mut rule_ends = Vec::with_capacity(rules.len());
        let mut scores = Vec::with_capacity(rules.len());
        for (k, rule) in rules.rules().iter().enumerate() {
            for c in rule.conditions() {
                let attr = u32::try_from(c.attr)
                    .map_err(|_| CompiledFilterError::UnknownAttribute { rule: k, attr: c.attr })?;
                conds.push(CompiledCond { attr, op: c.op, threshold: c.threshold });
            }
            rule_ends.push(u32::try_from(conds.len()).expect("condition count fits u32"));
            scores.push(rules.rule_confidence(k));
        }
        let default_score = rules.default_confidence();
        validate_table(&conds, &rule_ends, &scores, default_score)?;
        let demand = FeatureMask::of(rules.referenced_attrs().into_iter().filter_map(FeatureKind::from_index));
        Ok(CompiledFilter { name: name.into(), conds, rule_ends, scores, default_score, demand })
    }

    /// The fixed LS strategy: a single empty rule that always fires,
    /// with full confidence.
    pub fn always() -> CompiledFilter {
        CompiledFilter {
            name: "LS".into(),
            conds: Vec::new(),
            rule_ends: vec![0],
            scores: vec![1.0],
            default_score: 0.0,
            demand: FeatureMask::EMPTY,
        }
    }

    /// The fixed NS strategy: no rules, nothing ever fires, nothing is
    /// ever believed schedulable.
    pub fn never() -> CompiledFilter {
        CompiledFilter {
            name: "NS".into(),
            conds: Vec::new(),
            rule_ends: Vec::new(),
            scores: Vec::new(),
            default_score: 0.0,
            demand: FeatureMask::EMPTY,
        }
    }

    /// The size-threshold baseline: one rule, `bbLen >= min_len`. A
    /// hand-written heuristic has no training record, so both regions
    /// score the uninformed 0.5.
    pub fn size_threshold(min_len: usize) -> CompiledFilter {
        CompiledFilter {
            name: format!("size>={min_len}"),
            conds: vec![CompiledCond {
                attr: u32::try_from(FeatureKind::BbLen.index()).expect("feature indices fit u32"),
                op: Op::Ge,
                threshold: min_len as f64,
            }],
            rule_ends: vec![1],
            scores: vec![0.5],
            default_score: 0.5,
            demand: FeatureMask::of([FeatureKind::BbLen]),
        }
    }

    /// Short name for reports (`LS`, `NS`, `size>=N`, or the trained
    /// filter's `<learner>(t=<threshold>)`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The features this filter's conditions read. Extraction only needs
    /// to materialize these
    /// ([`FeatureVector::extract_masked`](wts_features::FeatureVector::extract_masked)).
    pub fn demand(&self) -> FeatureMask {
        self.demand
    }

    /// Number of rules in the table.
    fn rule_count(&self) -> usize {
        self.rule_ends.len()
    }

    /// Total number of lowered conditions (model size).
    pub fn condition_count(&self) -> usize {
        self.conds.len()
    }

    /// The decision for one feature vector (dense Table 1 layout).
    #[inline]
    pub fn decide(&self, values: &[f64]) -> bool {
        self.walk(values).0.is_some()
    }

    /// The calibrated score plus the number of conditions actually
    /// evaluated to reach it — the filter's honest per-unit cost, with
    /// short-circuiting accounted for. It is the same walk as
    /// [`decide`](CompiledFilter::decide), so scoring costs exactly what
    /// deciding costs; only the table lookup of the firing rule's
    /// confidence is added.
    #[inline]
    pub fn score_counted(&self, values: &[f64]) -> (FilterScore, u64) {
        let (fired, evaluated) = self.walk(values);
        let probability = match fired {
            Some(k) => self.scores[k as usize],
            None => self.default_score,
        };
        (FilterScore { fired, probability }, evaluated)
    }

    /// The one rule-table walk both queries share, so the short-circuit
    /// and firing-order semantics cannot diverge between them. Returns
    /// the index of the first rule that fired (the decision is its
    /// presence) and the number of conditions evaluated.
    #[inline]
    fn walk(&self, values: &[f64]) -> (Option<u32>, u64) {
        let mut evaluated = 0u64;
        let mut start = 0u32;
        for (k, &end) in self.rule_ends.iter().enumerate() {
            let mut fired = true;
            for cond in &self.conds[start as usize..end as usize] {
                evaluated += 1;
                if !cond.holds(values[cond.attr as usize]) {
                    fired = false;
                    break;
                }
            }
            if fired {
                return (Some(u32::try_from(k).expect("rule indices fit u32")), evaluated);
            }
            start = end;
        }
        (None, evaluated)
    }

    /// Deterministic work proxy for demand-masked feature extraction on
    /// a block of `bb_len` instructions (see
    /// [`FeatureMask::extraction_work`]).
    pub fn extraction_work(&self, bb_len: u64) -> u64 {
        self.demand.extraction_work(bb_len)
    }
}

impl fmt::Display for CompiledFilter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [{} rules, {} conditions, demand {}]",
            self.name,
            self.rule_count(),
            self.condition_count(),
            self.demand
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wts_features::FeatureVector;
    use wts_ripper::{Condition, Rule, RuleStats};

    fn fv(bb_len: f64, loads: f64, calls: f64) -> FeatureVector {
        let mut v = [0.0; FeatureKind::COUNT];
        v[FeatureKind::BbLen.index()] = bb_len;
        v[FeatureKind::Loads.index()] = loads;
        v[FeatureKind::Calls.index()] = calls;
        FeatureVector::from_values(v)
    }

    /// The decision and the conditions evaluated to reach it.
    fn decided(compiled: &CompiledFilter, v: FeatureVector) -> (bool, u64) {
        let (score, evaluated) = compiled.score_counted(v.as_slice());
        (score.decision(), evaluated)
    }

    fn two_rule_set() -> RuleSet {
        let attr_names: Vec<String> = FeatureKind::ALL.iter().map(|k| k.rule_name().to_string()).collect();
        RuleSet::new(
            attr_names,
            "list",
            "orig",
            vec![
                Rule::from_conditions(vec![
                    Condition { attr: FeatureKind::BbLen.index(), op: Op::Ge, threshold: 7.0 },
                    Condition { attr: FeatureKind::Loads.index(), op: Op::Ge, threshold: 0.3 },
                ]),
                Rule::from_conditions(vec![Condition { attr: FeatureKind::Calls.index(), op: Op::Le, threshold: 0.1 }]),
            ],
            vec![],
            RuleStats::default(),
        )
    }

    #[test]
    fn compiled_matches_interpreted_on_the_sample_set() {
        let rs = two_rule_set();
        let compiled = CompiledFilter::from_rule_set(&rs, "L/N");
        for v in [fv(8.0, 0.5, 0.9), fv(8.0, 0.1, 0.05), fv(3.0, 0.9, 0.9), fv(0.0, 0.0, 0.0)] {
            assert_eq!(compiled.decide(v.as_slice()), rs.predict(v.as_slice()), "{v}");
        }
        assert_eq!(compiled.rule_count(), 2);
        assert_eq!(compiled.condition_count(), 3);
        assert_eq!(compiled.demand(), FeatureMask::of([FeatureKind::BbLen, FeatureKind::Loads, FeatureKind::Calls]));
    }

    #[test]
    fn condition_counting_is_short_circuit_aware() {
        let compiled = CompiledFilter::from_rule_set(&two_rule_set(), "L/N");
        // Rule 1 fires on its 2 conditions: stop there.
        assert_eq!(decided(&compiled, fv(8.0, 0.5, 0.9)), (true, 2));
        // Rule 1 fails at its first condition; rule 2 fires: 1 + 1.
        assert_eq!(decided(&compiled, fv(3.0, 0.9, 0.05)), (true, 2));
        // Rule 1 fails at its second condition; rule 2 fails: 2 + 1.
        assert_eq!(decided(&compiled, fv(8.0, 0.1, 0.9)), (false, 3));
    }

    #[test]
    fn fixed_strategies_compile_to_degenerate_tables() {
        let always = CompiledFilter::always();
        assert_eq!(decided(&always, fv(0.0, 0.0, 0.0)), (true, 0));
        assert!(always.demand().is_empty());
        let never = CompiledFilter::never();
        assert_eq!(decided(&never, fv(99.0, 1.0, 0.0)), (false, 0));
        assert_eq!(never.extraction_work(1000), 0, "NS never touches the block");
    }

    #[test]
    fn size_threshold_lowering() {
        let c = CompiledFilter::size_threshold(5);
        assert!(c.decide(fv(5.0, 0.0, 0.0).as_slice()));
        assert!(!c.decide(fv(4.0, 0.0, 0.0).as_slice()));
        assert_eq!(decided(&c, fv(4.0, 0.0, 0.0)), (false, 1));
        assert_eq!(c.extraction_work(1000), 0, "bbLen is known without an instruction pass");
    }

    fn statted_rule_set() -> RuleSet {
        let attr_names: Vec<String> = FeatureKind::ALL.iter().map(|k| k.rule_name().to_string()).collect();
        RuleSet::new(
            attr_names,
            "list",
            "orig",
            vec![
                Rule::from_conditions(vec![
                    Condition { attr: FeatureKind::BbLen.index(), op: Op::Ge, threshold: 7.0 },
                    Condition { attr: FeatureKind::Loads.index(), op: Op::Ge, threshold: 0.3 },
                ]),
                Rule::from_conditions(vec![Condition { attr: FeatureKind::Calls.index(), op: Op::Le, threshold: 0.1 }]),
            ],
            vec![RuleStats { hits: 924, misses: 12 }, RuleStats { hits: 10, misses: 30 }],
            RuleStats { hits: 27476, misses: 1946 },
        )
    }

    #[test]
    fn scores_lower_the_laplace_confidences() {
        let rs = statted_rule_set();
        let compiled = CompiledFilter::from_rule_set(&rs, "L/N");
        // Rule 0 fires: high confidence.
        let (s, n) = compiled.score_counted(fv(8.0, 0.5, 0.9).as_slice());
        assert_eq!(s.fired, Some(0));
        assert!((s.probability - rs.rule_confidence(0)).abs() < 1e-12);
        assert!(s.probability > 0.9);
        // Rule 1 fires: a weak rule stays weak.
        let (s, _) = compiled.score_counted(fv(3.0, 0.9, 0.05).as_slice());
        assert_eq!(s.fired, Some(1));
        assert!((s.probability - rs.rule_confidence(1)).abs() < 1e-12);
        assert!(s.probability < 0.5);
        // Nothing fires: the default score, the rule set's default
        // confidence (the reject region's residual positive rate).
        let (s, _) = compiled.score_counted(fv(3.0, 0.0, 0.9).as_slice());
        assert_eq!(s.fired, None);
        assert!(!s.decision());
        assert!((s.probability - rs.default_confidence()).abs() < 1e-12);
        // Rule 0 fires on its two conditions.
        assert_eq!(n, 2);
    }

    #[test]
    fn score_decisions_are_bit_identical_to_decide_everywhere() {
        let compiled = CompiledFilter::from_rule_set(&statted_rule_set(), "L/N");
        let vectors = [fv(8.0, 0.5, 0.9), fv(3.0, 0.9, 0.05), fv(8.0, 0.1, 0.9), fv(1.0, 0.0, 0.5)];
        for v in &vectors {
            let (score, _) = compiled.score_counted(v.as_slice());
            assert_eq!(score.decision(), compiled.decide(v.as_slice()), "{v}");
        }
    }

    #[test]
    fn degenerate_tables_score_their_beliefs() {
        let always = CompiledFilter::always();
        let s = always.score_counted(fv(0.0, 0.0, 0.0).as_slice()).0;
        assert_eq!((s.fired, s.probability), (Some(0), 1.0));
        let never = CompiledFilter::never();
        let s = never.score_counted(fv(99.0, 1.0, 0.0).as_slice()).0;
        assert_eq!((s.fired, s.probability), (None, 0.0));
        let size = CompiledFilter::size_threshold(5);
        assert_eq!(size.score_counted(fv(8.0, 0.0, 0.0).as_slice()).0.probability, 0.5);
        assert_eq!(size.score_counted(fv(3.0, 0.0, 0.0).as_slice()).0.probability, 0.5);
        // Un-statted rule sets fall back to the uninformed 0.5 too.
        let unstatted = CompiledFilter::from_rule_set(&two_rule_set(), "L/N");
        assert_eq!(unstatted.score_counted(fv(8.0, 0.5, 0.9).as_slice()).0.probability, 0.5);
    }

    #[test]
    #[should_panic(expected = "not a known feature")]
    fn out_of_range_attribute_rejected() {
        let rs = RuleSet::new(
            vec!["a".into()],
            "p",
            "n",
            vec![Rule::from_conditions(vec![Condition { attr: 40, op: Op::Ge, threshold: 0.0 }])],
            vec![],
            RuleStats::default(),
        );
        CompiledFilter::from_rule_set(&rs, "bad");
    }

    #[test]
    fn try_from_rule_set_names_the_unknown_attribute() {
        let rs = RuleSet::new(
            vec!["a".into()],
            "p",
            "n",
            vec![Rule::new(), Rule::from_conditions(vec![Condition { attr: 40, op: Op::Ge, threshold: 0.0 }])],
            vec![],
            RuleStats::default(),
        );
        let err = CompiledFilter::try_from_rule_set(&rs, "bad").unwrap_err();
        assert_eq!(err, CompiledFilterError::UnknownAttribute { rule: 1, attr: 40 });
        assert!(err.to_string().contains("not a known feature"));
    }

    #[test]
    fn non_finite_thresholds_are_rejected_at_lowering_time() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let rs = RuleSet::new(
                FeatureKind::ALL.iter().map(|k| k.rule_name().to_string()).collect(),
                "list",
                "orig",
                vec![
                    Rule::from_conditions(vec![Condition {
                        attr: FeatureKind::BbLen.index(),
                        op: Op::Ge,
                        threshold: 7.0,
                    }]),
                    Rule::from_conditions(vec![Condition {
                        attr: FeatureKind::Loads.index(),
                        op: Op::Le,
                        threshold: bad,
                    }]),
                ],
                vec![],
                RuleStats::default(),
            );
            match CompiledFilter::try_from_rule_set(&rs, "bad") {
                Err(CompiledFilterError::NonFiniteThreshold { rule: 1, attr, threshold }) => {
                    assert_eq!(attr, FeatureKind::Loads.index());
                    assert!(!threshold.is_finite());
                }
                other => panic!("expected NonFiniteThreshold, got {other:?}"),
            }
        }
    }

    #[test]
    #[should_panic(expected = "non-finite threshold")]
    fn from_rule_set_panics_on_non_finite_thresholds() {
        let rs = RuleSet::new(
            vec!["bbLen".into()],
            "p",
            "n",
            vec![Rule::from_conditions(vec![Condition { attr: 0, op: Op::Ge, threshold: f64::NAN }])],
            vec![],
            RuleStats::default(),
        );
        CompiledFilter::from_rule_set(&rs, "bad");
    }

    #[test]
    fn score_validation_rejects_non_probabilities() {
        // RuleSet confidences are Laplace-smoothed and always land in
        // (0, 1); the validator is exercised on raw lowered parts.
        let conds = vec![CompiledCond { attr: 0, op: Op::Ge, threshold: 7.0 }];
        let ends = vec![1u32];
        assert_eq!(
            validate_table(&conds, &ends, &[1.5], 0.1),
            Err(CompiledFilterError::ScoreOutOfRange { rule: Some(0), score: 1.5 })
        );
        assert!(validate_table(&conds, &ends, &[0.9], f64::NAN).unwrap_err().to_string().contains("default"));
        assert_eq!(validate_table(&conds, &ends, &[0.9], 0.1), Ok(()));
        let err = CompiledFilterError::ScoreOutOfRange { rule: None, score: -0.5 };
        assert!(err.to_string().contains("default calibrated score -0.5"));
    }

    #[test]
    fn display_summarizes_the_table() {
        let s = CompiledFilter::from_rule_set(&two_rule_set(), "L/N(t=20)").to_string();
        assert!(s.contains("2 rules") && s.contains("3 conditions") && s.contains("bbLen"), "got: {s}");
    }
}
