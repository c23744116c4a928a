//! Model-artifact lints: interval-domain reachability over the feature
//! space, score calibration checks, and demand-mask coherence.
//!
//! Every deployed filter is an *induced* artifact — untrusted code on the
//! scheduler's hot path. This analysis vets the one shape every filter
//! lowers to (an ordered condition table with calibrated scores and a
//! feature-demand mask, see [`ModelTable`]) before it is hot-swapped into
//! traffic:
//!
//! * **reachability** — each rule's feasible region is the intersection
//!   of per-feature intervals (fractions live in `[0, 1]`, counts in
//!   `[0, ∞)`). An empty intersection is a contradictory conjunction; a
//!   rule whose region is contained in an earlier rule's accept region
//!   is shadowed (first-firing-rule semantics mean it can never fire);
//! * **calibration** — thresholds must be finite and scores must be
//!   probabilities in `[0, 1]` (the Laplace-smoothed confidences the
//!   pipeline emits always are);
//! * **demand** — the [`FeatureMask`] must cover every feature the table
//!   reads (masked extraction zeroes undemanded slots, so a smaller mask
//!   silently changes decisions) and should not demand more (wasted
//!   extraction work);
//! * **threshold proof** — [`prove_hard_threshold`] derives, over the
//!   *whole* domain rather than sampled points, a witness threshold `t`
//!   with `decide ≡ score ≥ t`.
//!
//! The interval domain is an over-approximation: a rule it calls
//! reachable may still be dead (union coverage by several earlier rules
//! is not representable), but a rule it flags is *definitely* dead, and
//! the threshold proof only ever widens the candidate score set — every
//! witness it produces is sound.

use crate::diag::{Analysis, Diagnostic, UnitCtx};
use std::fmt;
use wts_features::{FeatureKind, FeatureMask};
use wts_ripper::{Op, RuleSet};

/// One conjunct of a lintable rule: `attr <op> threshold` with `attr` a
/// dense [`FeatureKind::index`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LintCond {
    /// Dense feature index ([`FeatureKind::index`]).
    pub attr: usize,
    /// Comparison direction.
    pub op: Op,
    /// Threshold value.
    pub threshold: f64,
}

impl fmt::Display for LintCond {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match FeatureKind::from_index(self.attr) {
            Some(k) => write!(f, "{} {} {}", k.rule_name(), self.op, self.threshold),
            None => write!(f, "attr{} {} {}", self.attr, self.op, self.threshold),
        }
    }
}

/// The one shape every deployable filter lowers to: ordered conjunctive
/// rules with per-rule calibrated scores, a default score for the reject
/// region, and the feature-demand mask extraction will honour.
///
/// Built from a [`RuleSet`] via [`ModelTable::from_rule_set`] (the same
/// lowering the engine performs) or assembled directly by mutation tests.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelTable {
    /// Display name (filter tag or store key).
    pub name: String,
    /// Rules in firing order; each rule is a conjunction of conditions.
    pub rules: Vec<Vec<LintCond>>,
    /// Calibrated score emitted when the corresponding rule fires first.
    pub scores: Vec<f64>,
    /// Calibrated score emitted when no rule fires.
    pub default_score: f64,
    /// The features extraction is told to materialize.
    pub demand: FeatureMask,
}

impl ModelTable {
    /// Lowers a rule set the way the engine does: conditions verbatim,
    /// per-rule Laplace confidences as scores, the default's residual
    /// positive rate as the default score.
    pub fn from_rule_set(rules: &RuleSet, demand: FeatureMask, name: impl Into<String>) -> ModelTable {
        ModelTable {
            name: name.into(),
            rules: rules
                .rules()
                .iter()
                .map(|r| {
                    r.conditions().iter().map(|c| LintCond { attr: c.attr, op: c.op, threshold: c.threshold }).collect()
                })
                .collect(),
            scores: (0..rules.len()).map(|k| rules.rule_confidence(k)).collect(),
            default_score: rules.default_confidence(),
            demand,
        }
    }

    /// The features any condition reads (the table's true demand).
    pub fn reads(&self) -> FeatureMask {
        let mut m = FeatureMask::EMPTY;
        for c in self.rules.iter().flatten() {
            if let Some(k) = FeatureKind::from_index(c.attr) {
                m = m.with(k);
            }
        }
        m
    }
}

/// A closed interval `[lo, hi]`; empty when `lo > hi`.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Interval {
    lo: f64,
    hi: f64,
}

impl Interval {
    /// The value domain of a feature: fractions in `[0, 1]`, counts in
    /// `[0, ∞)`.
    fn domain(kind: FeatureKind) -> Interval {
        if kind.is_count() {
            Interval { lo: 0.0, hi: f64::INFINITY }
        } else {
            Interval { lo: 0.0, hi: 1.0 }
        }
    }

    fn is_empty(self) -> bool {
        self.lo > self.hi
    }

    /// Narrows by one condition (finite threshold assumed).
    fn meet(self, op: Op, threshold: f64) -> Interval {
        match op {
            Op::Le => Interval { lo: self.lo, hi: self.hi.min(threshold) },
            Op::Ge => Interval { lo: self.lo.max(threshold), hi: self.hi },
        }
    }

    /// True when every point of `self` satisfies `op threshold`.
    fn satisfies(self, op: Op, threshold: f64) -> bool {
        match op {
            Op::Le => self.hi <= threshold,
            Op::Ge => self.lo >= threshold,
        }
    }
}

/// The feasible box of one rule: a per-feature interval map, or `None`
/// when the rule references an unknown attribute (no sound box exists).
#[derive(Debug, Clone, PartialEq)]
struct RuleBox {
    ivs: [Interval; FeatureKind::COUNT],
}

impl RuleBox {
    fn full() -> RuleBox {
        let mut ivs = [Interval { lo: 0.0, hi: 1.0 }; FeatureKind::COUNT];
        for kind in FeatureKind::ALL {
            ivs[kind.index()] = Interval::domain(kind);
        }
        RuleBox { ivs }
    }

    fn is_empty(&self) -> bool {
        self.ivs.iter().any(|iv| iv.is_empty())
    }

    fn is_full_domain(&self) -> bool {
        FeatureKind::ALL.iter().all(|k| self.ivs[k.index()] == Interval::domain(*k))
    }

    /// True when every point of this box satisfies all of `conds`
    /// (i.e. the box is contained in the conjunction's accept region).
    /// Conditions on unknown attributes or with non-finite thresholds
    /// are conservatively *not* satisfied.
    fn satisfies_all(&self, conds: &[LintCond]) -> bool {
        conds.iter().all(|c| {
            c.threshold.is_finite() && c.attr < FeatureKind::COUNT && self.ivs[c.attr].satisfies(c.op, c.threshold)
        })
    }
}

/// Per-rule reachability derived by the interval domain, shared by the
/// lint pass and the threshold proof.
struct Reachability {
    /// `None` when the rule references an unknown attribute (unanalyzable);
    /// otherwise the rule's feasible box.
    boxes: Vec<Option<RuleBox>>,
    /// Contradictory conjunction: the feasible box is empty.
    contradictory: Vec<bool>,
    /// Shadowed by the (single) earlier rule recorded here.
    shadowed_by: Vec<Option<usize>>,
}

impl Reachability {
    fn compute(table: &ModelTable) -> Reachability {
        let boxes: Vec<Option<RuleBox>> = table
            .rules
            .iter()
            .map(|conds| {
                // Unknown attributes and non-finite thresholds get their
                // own diagnostics; no sound box exists for such a rule.
                if conds.iter().any(|c| c.attr >= FeatureKind::COUNT || !c.threshold.is_finite()) {
                    return None;
                }
                let mut b = RuleBox::full();
                for c in conds {
                    b.ivs[c.attr] = b.ivs[c.attr].meet(c.op, c.threshold);
                }
                Some(b)
            })
            .collect();
        let contradictory: Vec<bool> = boxes.iter().map(|b| b.as_ref().is_some_and(RuleBox::is_empty)).collect();
        let mut shadowed_by = vec![None; table.rules.len()];
        for k in 0..table.rules.len() {
            if contradictory[k] {
                continue;
            }
            let Some(bk) = &boxes[k] else { continue };
            shadowed_by[k] =
                (0..k).find(|&j| !contradictory[j] && boxes[j].is_some() && bk.satisfies_all(&table.rules[j]));
        }
        Reachability { boxes, contradictory, shadowed_by }
    }

    /// A rule that can actually fire first on some input: non-empty box,
    /// not shadowed by an earlier rule. Unanalyzable rules (unknown
    /// attribute) count as reachable — the sound direction for the proof.
    fn reachable(&self, k: usize) -> bool {
        !self.contradictory[k] && self.shadowed_by[k].is_none()
    }

    /// True when rule `k`'s feasible box is the whole feature domain, so
    /// the default row below it is dead.
    fn covers_domain(&self, k: usize) -> bool {
        self.boxes[k].as_ref().is_some_and(RuleBox::is_full_domain)
    }
}

/// Appends model-coherence diagnostics for `table` to `out`.
fn check_model(ctx: &UnitCtx, table: &ModelTable, out: &mut Vec<Diagnostic>) {
    // Score-table shape first: per-rule score checks below index by rule.
    if table.scores.len() != table.rules.len() {
        out.push(ctx.error(
            Analysis::Model,
            format!("score table has {} entries for {} rules", table.scores.len(), table.rules.len()),
        ));
    }

    // Calibration: finite thresholds, probability scores.
    for (k, conds) in table.rules.iter().enumerate() {
        for c in conds {
            if c.attr >= FeatureKind::COUNT {
                out.push(ctx.error(
                    Analysis::Model,
                    format!("rule {k} reads unknown attribute {}: not a known feature", c.attr),
                ));
            }
            if !c.threshold.is_finite() {
                out.push(ctx.error(Analysis::Model, format!("rule {k} condition {c}: non-finite threshold")));
            }
        }
    }
    for (k, &s) in table.scores.iter().enumerate().take(table.rules.len()) {
        if !s.is_finite() || !(0.0..=1.0).contains(&s) {
            out.push(ctx.error(Analysis::Model, format!("rule {k} calibrated score {s} is outside [0, 1]")));
        }
    }
    if !table.default_score.is_finite() || !(0.0..=1.0).contains(&table.default_score) {
        out.push(
            ctx.error(Analysis::Model, format!("default calibrated score {} is outside [0, 1]", table.default_score)),
        );
    }

    // Demand coherence.
    let reads = table.reads();
    for kind in reads.kinds() {
        if !table.demand.contains(kind) {
            out.push(ctx.error(
                Analysis::Model,
                format!(
                    "demand mask {} omits {} which the condition table reads: masked extraction leaves it 0 and decisions diverge from the source rules",
                    table.demand,
                    kind.rule_name()
                ),
            ));
        }
    }
    for kind in table.demand.kinds() {
        if !reads.contains(kind) {
            out.push(ctx.warning(
                Analysis::Model,
                format!("demand mask extracts {} but no condition reads it: wasted extraction work", kind.rule_name()),
            ));
        }
    }

    // Interval-domain reachability.
    let reach = Reachability::compute(table);
    for (k, conds) in table.rules.iter().enumerate() {
        if reach.contradictory[k] {
            let parts: Vec<String> = conds.iter().map(LintCond::to_string).collect();
            out.push(ctx.error(
                Analysis::Model,
                format!("rule {k} is a contradictory conjunction ({}): its feasible region is empty", parts.join(", ")),
            ));
        } else if let Some(j) = reach.shadowed_by[k] {
            out.push(ctx.warning(
                Analysis::Model,
                format!("rule {k} is shadowed by rule {j}: every unit it accepts already fires rule {j} first"),
            ));
        }
    }

    // Dead default / trivially-constant filters. The canonical constant
    // forms — zero rules (never) and a single condition-free rule
    // (always) — are legitimate artifacts and stay clean; the lint
    // targets tables that *spend conditions* computing a constant.
    let canonical_always = table.rules.len() == 1 && table.rules[0].is_empty();
    if !canonical_always {
        if let Some(k) = (0..table.rules.len()).find(|&k| reach.reachable(k) && reach.covers_domain(k)) {
            out.push(ctx.warning(
                Analysis::Model,
                format!(
                    "rule {k} accepts the entire feature domain: the default row is dead and the filter is trivially constant"
                ),
            ));
        }
    }
    if !table.rules.is_empty() && (0..table.rules.len()).all(|k| !reach.reachable(k)) {
        out.push(ctx.warning(
            Analysis::Model,
            "no rule is reachable: the filter is trivially constant (always the default row)".to_string(),
        ));
    }
}

/// Lints one model table, returning its diagnostics.
pub fn lint_model(table: &ModelTable) -> Vec<Diagnostic> {
    let ctx = UnitCtx::new(&table.name);
    let mut out = Vec::new();
    check_model(&ctx, table, &mut out);
    out.sort_by_key(|d| std::cmp::Reverse(d.severity));
    out
}

/// The outcome of [`prove_hard_threshold`]: which rows the interval
/// domain proves reachable, the emitted-score bounds that follow, and —
/// when the accept and reject score sets separate — a witness threshold
/// `t` with `decide(x) ⟺ score(x) ≥ t` for *every* point of the
/// feature domain.
#[derive(Debug, Clone, PartialEq)]
pub struct ThresholdProof {
    /// Indices of rules the interval domain could not rule out.
    pub reachable_rules: Vec<usize>,
    /// Whether the default row can be reached (conservatively `true`
    /// unless a single reachable rule covers the whole domain).
    pub default_reachable: bool,
    /// Minimum calibrated score over the reachable rules (`None` when no
    /// rule is reachable).
    pub min_rule_score: Option<f64>,
    /// The default row's calibrated score.
    pub default_score: f64,
    /// A threshold `t` such that `decide ≡ score ≥ t` over the whole
    /// domain, when one exists.
    pub witness: Option<f64>,
}

impl ThresholdProof {
    /// True when the equivalence `decide ≡ score ≥ t` was established.
    pub fn holds(&self) -> bool {
        self.witness.is_some()
    }
}

/// Proves `decide ≡ score ≥ t` under a hard threshold, over the whole
/// feature domain rather than sampled points.
///
/// The argument: at any point `x`, the first *firing* rule is never one
/// the interval domain flags as shadowed (if rule `k` fires at `x` and
/// `box(k) ⊆ accept(j)` for some `j < k`, then `j` also fires at `x`, so
/// `k` is not first). Hence the score emitted on accept always belongs
/// to a rule the analysis calls reachable, and `score(x) ≥ m`, the
/// minimum reachable-rule score. On reject the score is exactly the
/// default score `d`. If `d < m`, any `t ∈ (d, m]` witnesses the
/// equivalence — we return the midpoint. Because the interval domain
/// over-approximates reachability, `m` only ever shrinks below the true
/// minimum emitted score: a returned witness is always sound, and
/// inseparability (`d ≥ m`) is reported conservatively.
pub fn prove_hard_threshold(table: &ModelTable) -> ThresholdProof {
    let reach = Reachability::compute(table);
    let reachable_rules: Vec<usize> = (0..table.rules.len()).filter(|&k| reach.reachable(k)).collect();
    let default_reachable = !reachable_rules.iter().any(|&k| reach.covers_domain(k));
    let min_rule_score = reachable_rules
        .iter()
        .filter_map(|&k| table.scores.get(k).copied())
        .fold(None, |acc: Option<f64>, s| Some(acc.map_or(s, |a| a.min(s))));
    let d = table.default_score;
    let witness = match (min_rule_score, default_reachable) {
        // Nothing can fire: decide ≡ false, and the only emitted score
        // is d, so any threshold above it witnesses the equivalence.
        (None, _) => Some(d + 0.5),
        // The reject region is unreachable: decide ≡ true, and every
        // emitted score is ≥ m.
        (Some(m), false) => Some(m),
        (Some(m), true) => {
            if d < m {
                Some((d + m) / 2.0)
            } else {
                None
            }
        }
    };
    ThresholdProof { reachable_rules, default_reachable, min_rule_score, default_score: d, witness }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::Severity;
    use wts_ripper::{Condition, Rule, RuleStats};

    fn kidx(k: FeatureKind) -> usize {
        k.index()
    }

    fn cond(attr: FeatureKind, op: Op, threshold: f64) -> LintCond {
        LintCond { attr: kidx(attr), op, threshold }
    }

    fn table(rules: Vec<Vec<LintCond>>, scores: Vec<f64>, default_score: f64) -> ModelTable {
        let mut demand = FeatureMask::EMPTY;
        for c in rules.iter().flatten() {
            if let Some(k) = FeatureKind::from_index(c.attr) {
                demand = demand.with(k);
            }
        }
        ModelTable { name: "test".into(), rules, scores, default_score, demand }
    }

    #[test]
    fn clean_table_has_no_diagnostics() {
        let t = table(
            vec![
                vec![cond(FeatureKind::BbLen, Op::Ge, 7.0), cond(FeatureKind::Calls, Op::Le, 0.0857)],
                vec![cond(FeatureKind::BbLen, Op::Ge, 15.0), cond(FeatureKind::Loads, Op::Ge, 0.4)],
            ],
            vec![0.92, 0.81],
            0.07,
        );
        assert!(lint_model(&t).is_empty(), "{}", crate::render(&lint_model(&t)));
    }

    #[test]
    fn shadowed_rule_is_flagged() {
        // Rule 1's region (bbLen >= 9) is inside rule 0's accept region
        // (bbLen >= 5): rule 1 can never fire first.
        let t = table(
            vec![vec![cond(FeatureKind::BbLen, Op::Ge, 5.0)], vec![cond(FeatureKind::BbLen, Op::Ge, 9.0)]],
            vec![0.9, 0.8],
            0.1,
        );
        let diags = lint_model(&t);
        assert_eq!(diags.len(), 1, "{}", crate::render(&diags));
        assert_eq!(diags[0].severity, Severity::Warning);
        assert!(diags[0].message.contains("rule 1 is shadowed by rule 0"), "{}", diags[0]);
    }

    #[test]
    fn reordered_rules_are_not_shadowed() {
        // Specific rule first, general rule second: both reachable.
        let t = table(
            vec![vec![cond(FeatureKind::BbLen, Op::Ge, 9.0)], vec![cond(FeatureKind::BbLen, Op::Ge, 5.0)]],
            vec![0.9, 0.8],
            0.1,
        );
        assert!(lint_model(&t).is_empty());
    }

    #[test]
    fn contradictory_conjunction_is_an_error() {
        let t = table(
            vec![vec![cond(FeatureKind::BbLen, Op::Le, 2.0), cond(FeatureKind::BbLen, Op::Ge, 7.0)]],
            vec![0.9],
            0.1,
        );
        let diags = lint_model(&t);
        assert_eq!(diags.len(), 2, "{}", crate::render(&diags));
        assert!(diags
            .iter()
            .any(|d| { d.severity == Severity::Error && d.message.contains("contradictory conjunction") }));
        assert!(diags.iter().any(|d| d.message.contains("no rule is reachable")));
    }

    #[test]
    fn fraction_domain_bounds_detect_contradictions() {
        // loads >= 1.5 is empty on a fraction feature even without a
        // second condition — the domain is [0, 1].
        let t = table(vec![vec![cond(FeatureKind::Loads, Op::Ge, 1.5)]], vec![0.9], 0.1);
        let diags = lint_model(&t);
        assert!(diags.iter().any(|d| d.message.contains("contradictory conjunction")), "{}", crate::render(&diags));
        // The same bound on a count feature is fine.
        let t = table(vec![vec![cond(FeatureKind::BbLen, Op::Ge, 1.5)]], vec![0.9], 0.1);
        assert!(lint_model(&t).is_empty());
    }

    #[test]
    fn non_finite_threshold_is_an_error() {
        let t = table(vec![vec![cond(FeatureKind::BbLen, Op::Ge, f64::NAN)]], vec![0.9], 0.1);
        let diags = lint_model(&t);
        assert_eq!(diags.len(), 1, "{}", crate::render(&diags));
        assert_eq!(diags[0].severity, Severity::Error);
        assert!(diags[0].message.contains("non-finite threshold"), "{}", diags[0]);
    }

    #[test]
    fn out_of_range_scores_are_errors() {
        let t = table(vec![vec![cond(FeatureKind::BbLen, Op::Ge, 7.0)]], vec![1.2], 0.1);
        assert!(lint_model(&t).iter().any(|d| d.message.contains("calibrated score 1.2 is outside")));
        let t = table(vec![vec![cond(FeatureKind::BbLen, Op::Ge, 7.0)]], vec![0.9], -0.5);
        assert!(lint_model(&t).iter().any(|d| d.message.contains("default calibrated score -0.5 is outside")));
        let t = table(vec![vec![cond(FeatureKind::BbLen, Op::Ge, 7.0)]], vec![f64::NAN], 0.1);
        assert!(lint_model(&t).iter().any(|d| d.message.contains("outside [0, 1]")));
    }

    #[test]
    fn narrow_demand_mask_is_an_error() {
        let mut t = table(
            vec![vec![cond(FeatureKind::BbLen, Op::Ge, 7.0), cond(FeatureKind::Loads, Op::Ge, 0.3)]],
            vec![0.9],
            0.1,
        );
        t.demand = FeatureMask::of([FeatureKind::BbLen]);
        let diags = lint_model(&t);
        assert_eq!(diags.len(), 1, "{}", crate::render(&diags));
        assert_eq!(diags[0].severity, Severity::Error);
        assert!(diags[0].message.contains("omits loads"), "{}", diags[0]);
    }

    #[test]
    fn wide_demand_mask_is_a_warning() {
        let mut t = table(vec![vec![cond(FeatureKind::BbLen, Op::Ge, 7.0)]], vec![0.9], 0.1);
        t.demand = FeatureMask::of([FeatureKind::BbLen, FeatureKind::Stores]);
        let diags = lint_model(&t);
        assert_eq!(diags.len(), 1, "{}", crate::render(&diags));
        assert_eq!(diags[0].severity, Severity::Warning);
        assert!(diags[0].message.contains("extracts stores"), "{}", diags[0]);
    }

    #[test]
    fn vacuous_rule_kills_the_default_row() {
        // loads <= 1 accepts the whole fraction domain: constant filter.
        let t = table(
            vec![vec![cond(FeatureKind::Loads, Op::Le, 1.0)], vec![cond(FeatureKind::BbLen, Op::Ge, 7.0)]],
            vec![0.9, 0.8],
            0.1,
        );
        let diags = lint_model(&t);
        assert!(diags.iter().any(|d| d.message.contains("default row is dead")), "{}", crate::render(&diags));
        assert!(diags.iter().any(|d| d.message.contains("rule 1 is shadowed by rule 0")), "{}", crate::render(&diags));
    }

    #[test]
    fn canonical_constant_filters_stay_clean() {
        // Zero rules: the canonical "never" filter.
        let never = table(vec![], vec![], 0.0);
        assert!(lint_model(&never).is_empty());
        // One condition-free rule: the canonical "always" filter.
        let always = table(vec![vec![]], vec![1.0], 0.0);
        assert!(lint_model(&always).is_empty());
    }

    #[test]
    fn unknown_attribute_is_an_error() {
        let t = table(vec![vec![LintCond { attr: 99, op: Op::Ge, threshold: 1.0 }]], vec![0.9], 0.1);
        let diags = lint_model(&t);
        assert!(diags.iter().any(|d| d.message.contains("not a known feature")), "{}", crate::render(&diags));
    }

    #[test]
    fn score_table_shape_mismatch_is_an_error() {
        let t = table(vec![vec![cond(FeatureKind::BbLen, Op::Ge, 7.0)]], vec![0.9, 0.8], 0.1);
        let diags = lint_model(&t);
        assert!(diags.iter().any(|d| d.message.contains("score table has 2 entries for 1 rules")));
    }

    #[test]
    fn threshold_proof_separable() {
        let t = table(
            vec![vec![cond(FeatureKind::BbLen, Op::Ge, 7.0)], vec![cond(FeatureKind::BbLen, Op::Ge, 5.0)]],
            vec![0.9, 0.6],
            0.1,
        );
        let proof = prove_hard_threshold(&t);
        assert!(proof.holds());
        assert_eq!(proof.reachable_rules, vec![0, 1]);
        assert_eq!(proof.min_rule_score, Some(0.6));
        let w = proof.witness.unwrap();
        assert!(0.1 < w && w <= 0.6, "witness {w} must lie in (d, m]");
    }

    #[test]
    fn threshold_proof_excludes_unreachable_scores() {
        // The shadowed rule's low score (0.05 < default 0.1) would break
        // separability under point-free reasoning over *all* rows — the
        // interval domain proves it can never be emitted.
        let t = table(
            vec![vec![cond(FeatureKind::BbLen, Op::Ge, 5.0)], vec![cond(FeatureKind::BbLen, Op::Ge, 9.0)]],
            vec![0.9, 0.05],
            0.1,
        );
        let proof = prove_hard_threshold(&t);
        assert_eq!(proof.reachable_rules, vec![0]);
        assert_eq!(proof.min_rule_score, Some(0.9));
        assert!(proof.holds());
    }

    #[test]
    fn threshold_proof_inseparable_when_a_rule_scores_below_the_default() {
        let t = table(
            vec![vec![cond(FeatureKind::BbLen, Op::Ge, 7.0)], vec![cond(FeatureKind::BbLen, Op::Le, 2.0)]],
            vec![0.9, 0.05],
            0.1,
        );
        let proof = prove_hard_threshold(&t);
        assert!(!proof.holds());
        assert_eq!(proof.min_rule_score, Some(0.05));
    }

    #[test]
    fn threshold_proof_constant_filters() {
        // decide ≡ false: witness above the only emitted score.
        let never = table(vec![], vec![], 0.3);
        let p = prove_hard_threshold(&never);
        assert!(p.holds());
        assert!(p.witness.unwrap() > 0.3);
        assert!(p.min_rule_score.is_none());
        // decide ≡ true: the default row is dead.
        let always = table(vec![vec![]], vec![0.7], 0.3);
        let p = prove_hard_threshold(&always);
        assert!(p.holds());
        assert!(!p.default_reachable);
        assert_eq!(p.witness, Some(0.7));
    }

    #[test]
    fn model_table_lowers_rule_sets_like_the_engine() {
        let rs = RuleSet::new(
            vec!["bbLen".into(), "branches".into()],
            "list",
            "orig",
            vec![Rule::from_conditions(vec![Condition { attr: 0, op: Op::Ge, threshold: 7.0 }])],
            vec![RuleStats { hits: 924, misses: 12 }],
            RuleStats { hits: 27476, misses: 1946 },
        );
        let t = ModelTable::from_rule_set(&rs, FeatureMask::of([FeatureKind::BbLen]), "fold");
        assert_eq!(t.rules.len(), 1);
        assert!((t.scores[0] - 925.0 / 938.0).abs() < 1e-12);
        assert!((t.default_score - 1947.0 / 29424.0).abs() < 1e-12);
        assert!(lint_model(&t).is_empty(), "{}", crate::render(&lint_model(&t)));
        assert!(prove_hard_threshold(&t).holds());
    }
}
