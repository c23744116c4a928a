//! Baseline learners for comparison with RIPPER.
//!
//! The paper motivates rule induction over heavier methods (§2.3, §5);
//! these baselines quantify that choice in the `learners` extension
//! experiment: a majority-class guesser, a single decision stump, 1R
//! (best single-attribute threshold), and a small depth-limited decision
//! tree (the method of Calder et al. and Monsifrot et al. in §5).

use crate::data::Dataset;
use crate::rule::{Condition, Op, Rule, RuleSet, RuleStats};
use std::collections::BTreeMap;

/// The greatest `f64` strictly below `v` (identity on NaN and
/// `NEG_INFINITY`). Local stand-in for `f64::next_down`, which is not
/// available at this crate's MSRV; used to lower strict comparisons
/// (`v < t`) onto the engine's `<=`/`>=` condition vocabulary exactly.
fn next_down(v: f64) -> f64 {
    if v.is_nan() || v == f64::NEG_INFINITY {
        return v;
    }
    if v == 0.0 {
        return -f64::from_bits(1); // smallest negative subnormal
    }
    f64::from_bits(if v > 0.0 { v.to_bits() - 1 } else { v.to_bits() + 1 })
}

/// The least `f64` strictly above `v` (identity on NaN and `INFINITY`);
/// mirror of [`next_down`].
fn next_up(v: f64) -> f64 {
    if v.is_nan() || v == f64::INFINITY {
        return v;
    }
    if v == 0.0 {
        return f64::from_bits(1); // smallest positive subnormal
    }
    f64::from_bits(if v > 0.0 { v.to_bits() + 1 } else { v.to_bits() - 1 })
}

/// Anything that classifies a numeric feature vector.
pub trait Classifier {
    /// Predicts the positive class for `values`.
    fn predict(&self, values: &[f64]) -> bool;

    /// Human-readable name for reports.
    fn name(&self) -> &'static str;
}

impl Classifier for RuleSet {
    fn predict(&self, values: &[f64]) -> bool {
        RuleSet::predict(self, values)
    }

    fn name(&self) -> &'static str {
        "ripper"
    }
}

/// Always predicts the majority class of the training data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MajorityLearner {
    positive: bool,
}

impl MajorityLearner {
    /// Fits the majority class.
    pub fn fit(data: &Dataset) -> MajorityLearner {
        MajorityLearner { positive: data.positives() * 2 > data.len() }
    }

    /// The class this model always predicts.
    pub fn majority(&self) -> bool {
        self.positive
    }
}

impl Classifier for MajorityLearner {
    fn predict(&self, _values: &[f64]) -> bool {
        self.positive
    }

    fn name(&self) -> &'static str {
        "majority"
    }
}

/// A single threshold test on a single attribute, chosen to minimize
/// training error.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DecisionStump {
    attr: usize,
    threshold: f64,
    /// Predicted class when `value >= threshold`.
    ge_positive: bool,
}

impl DecisionStump {
    /// Fits the best stump by exhaustive threshold search: the
    /// [`StumpCounts`] sweep over `data`'s class counts.
    pub fn fit(data: &Dataset) -> DecisionStump {
        StumpCounts::of(data).fit()
    }

    /// The attribute tested.
    pub fn attr(&self) -> usize {
        self.attr
    }

    /// The threshold.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// True when `value >= threshold` predicts the positive class.
    pub fn ge_positive(&self) -> bool {
        self.ge_positive
    }

    /// Lowers the stump to ordered-rule form: one rule whose single
    /// condition fires exactly when [`predict`](Classifier::predict)
    /// returns the positive class. The inverted orientation
    /// (`value < threshold` positive) becomes `value <=` the next
    /// representable `f64` below the threshold, so decisions agree
    /// bit-for-bit on every finite input.
    pub fn to_rules(&self) -> Vec<Rule> {
        let cond = if self.ge_positive {
            Condition { attr: self.attr, op: Op::Ge, threshold: self.threshold }
        } else {
            Condition { attr: self.attr, op: Op::Le, threshold: next_down(self.threshold) }
        };
        vec![Rule::from_conditions(vec![cond])]
    }
}

impl Classifier for DecisionStump {
    fn predict(&self, values: &[f64]) -> bool {
        if values[self.attr] >= self.threshold {
            self.ge_positive
        } else {
            !self.ge_positive
        }
    }

    fn name(&self) -> &'static str {
        "stump"
    }
}

/// How many instances, and how many positives, share one attribute
/// value.
#[derive(Debug, Clone, Copy, PartialEq)]
struct ValueCount {
    /// The first value absorbed under this key: `-0.0` and `0.0` share
    /// a key, and the one seen first is the threshold a stump reports,
    /// as the first element of a run in a stable sort would be.
    first: f64,
    instances: usize,
    positives: usize,
}

/// A labelled dataset reduced to what a [`DecisionStump`] reads: for
/// each attribute, `value → (instances, positives)`.
///
/// A stump's error at a threshold depends only on how many instances
/// and positives fall on either side of it, so the class counts per
/// distinct value are a sufficient statistic. Instances are absorbed
/// one at a time ([`push`](StumpCounts::push)), and a fit walks the
/// distinct values in order without sorting or re-reading any instance
/// — which is what lets a retraining loop fold a growing corpus at a
/// cost set by its distinct values, not its size. The counts sit in
/// ordered maps, not hash tables: the values come from served code, and
/// an ordered map has no collisions for crafted values to force.
///
/// # Examples
///
/// ```
/// use wts_ripper::{Classifier, StumpCounts};
/// let mut counts = StumpCounts::new(vec!["x".into()], "LS", "NS");
/// for i in 0..10 {
///     counts.push(&[i as f64], i >= 6);
/// }
/// let stump = counts.fit();
/// assert_eq!(stump.threshold(), 6.0);
/// assert!(stump.predict(&[7.0]) && !stump.predict(&[2.0]));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct StumpCounts {
    attr_names: Vec<String>,
    pos_label: String,
    neg_label: String,
    /// Per attribute, the counts keyed by [`order_key`], so iteration is
    /// ascending value order.
    columns: Vec<BTreeMap<u64, ValueCount>>,
    len: usize,
    positives: usize,
}

/// A key whose unsigned order is the numeric order of finite `f64`s,
/// with `-0.0` and `0.0` (which compare equal) on one key.
fn order_key(v: f64) -> u64 {
    let bits = if v == 0.0 { 0.0f64.to_bits() } else { v.to_bits() };
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    }
}

impl StumpCounts {
    /// Empty counts with the given attribute and class names.
    ///
    /// # Panics
    ///
    /// Panics if `attr_names` is empty.
    pub fn new(attr_names: Vec<String>, pos_label: impl Into<String>, neg_label: impl Into<String>) -> StumpCounts {
        assert!(!attr_names.is_empty(), "a dataset needs at least one attribute");
        StumpCounts {
            columns: vec![BTreeMap::new(); attr_names.len()],
            attr_names,
            pos_label: pos_label.into(),
            neg_label: neg_label.into(),
            len: 0,
            positives: 0,
        }
    }

    /// The counts of every instance of `data`, in instance order.
    pub fn of(data: &Dataset) -> StumpCounts {
        let mut counts = StumpCounts::new(data.attr_names().to_vec(), data.pos_label(), data.neg_label());
        for inst in data.instances() {
            counts.push(&inst.values, inst.positive);
        }
        counts
    }

    /// Absorbs one instance.
    ///
    /// # Panics
    ///
    /// As [`Dataset::push`]: the value count must match the attribute
    /// count and every value must be finite.
    pub fn push(&mut self, values: &[f64], positive: bool) {
        assert_eq!(values.len(), self.attr_names.len(), "value/attribute count mismatch");
        assert!(values.iter().all(|v| v.is_finite()), "feature values must be finite");
        for (column, &v) in self.columns.iter_mut().zip(values) {
            let count = column.entry(order_key(v)).or_insert(ValueCount { first: v, instances: 0, positives: 0 });
            count.instances += 1;
            count.positives += usize::from(positive);
        }
        self.len += 1;
        self.positives += usize::from(positive);
    }

    /// The best stump, with the instances and positives that fall below
    /// its threshold.
    ///
    /// Thresholds are the distinct values in ascending order per
    /// attribute, attributes in index order, and at each threshold the
    /// `>=`-positive orientation before its complement; only a strictly
    /// smaller training error replaces the incumbent, so ties keep the
    /// first candidate in that order.
    fn sweep(&self) -> (DecisionStump, usize, usize) {
        let mut best =
            (DecisionStump { attr: 0, threshold: f64::NEG_INFINITY, ge_positive: self.positives * 2 > self.len }, 0, 0);
        let mut best_err = usize::MAX;
        for (attr, column) in self.columns.iter().enumerate() {
            // For threshold = v, `>= v` covers every instance from v up.
            let mut before = 0usize;
            let mut pos_before = 0usize;
            for count in column.values() {
                let pos_suffix = self.positives - pos_before;
                let suffix = self.len - before;
                // `>=`-positive errs on the negatives at or above v and
                // the positives below it; the complement on the rest.
                let err_true = (suffix - pos_suffix) + pos_before;
                let err_false = pos_suffix + (before - pos_before);
                for (err, ge_positive) in [(err_true, true), (err_false, false)] {
                    if err < best_err {
                        best_err = err;
                        best = (DecisionStump { attr, threshold: count.first, ge_positive }, before, pos_before);
                    }
                }
                before += count.instances;
                pos_before += count.positives;
            }
        }
        best
    }

    /// Fits the best stump by exhaustive threshold search, in
    /// O(distinct values).
    pub fn fit(&self) -> DecisionStump {
        self.sweep().0
    }

    /// The fitted stump lowered to an ordered rule set
    /// ([`DecisionStump::to_rules`]) whose rule and default
    /// [`RuleStats`] are the training composition of the instances it
    /// fires on and of the rest — what
    /// [`attribute_stats`](crate::attribute_stats) would charge over the
    /// absorbed instances. No instances lower to the empty rule set
    /// (predict-all-negative).
    pub fn rule_set(&self) -> RuleSet {
        let (rules, stats, default_stats) = if self.len == 0 {
            (Vec::new(), Vec::new(), RuleStats::default())
        } else {
            let (stump, below, pos_below) = self.sweep();
            let (neg_below, pos_above) = (below - pos_below, self.positives - pos_below);
            let neg_above = (self.len - below) - pos_above;
            let (fired, default_stats) = if stump.ge_positive {
                (RuleStats { hits: pos_above, misses: neg_above }, RuleStats { hits: neg_below, misses: pos_below })
            } else {
                (RuleStats { hits: pos_below, misses: neg_below }, RuleStats { hits: neg_above, misses: pos_above })
            };
            (stump.to_rules(), vec![fired], default_stats)
        };
        RuleSet::new(self.attr_names.clone(), &self.pos_label, &self.neg_label, rules, stats, default_stats)
    }
}

/// 1R (Holte 1993): discretize each attribute into up to ten intervals,
/// pick the single attribute whose interval-majority predictions have the
/// lowest training error.
#[derive(Debug, Clone, PartialEq)]
pub struct OneR {
    attr: usize,
    /// Sorted interval upper bounds; `predictions[k]` applies to values
    /// `<= bounds[k]` (last interval is unbounded).
    bounds: Vec<f64>,
    predictions: Vec<bool>,
}

impl OneR {
    /// Fits 1R with ten equal-frequency bins per attribute.
    ///
    /// # Panics
    ///
    /// Panics if `data` is empty.
    pub fn fit(data: &Dataset) -> OneR {
        const BINS: usize = 10;
        assert!(!data.is_empty(), "cannot fit 1R on an empty dataset");
        let mut best: Option<(usize, OneR)> = None;
        for attr in 0..data.attr_count() {
            let mut col: Vec<(f64, bool)> = data.instances().iter().map(|i| (i.values[attr], i.positive)).collect();
            col.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite"));
            let per = (col.len() / BINS).max(1);
            let mut bounds = Vec::new();
            let mut predictions = Vec::new();
            let mut errors = 0usize;
            let mut k = 0;
            while k < col.len() {
                let mut end = (k + per).min(col.len());
                // Extend so equal values stay in one interval.
                while end < col.len() && col[end].0 == col[end - 1].0 {
                    end += 1;
                }
                let pos = col[k..end].iter().filter(|e| e.1).count();
                let neg = end - k - pos;
                predictions.push(pos >= neg);
                errors += pos.min(neg);
                if end < col.len() {
                    bounds.push(col[end - 1].0);
                }
                k = end;
            }
            let model = OneR { attr, bounds, predictions };
            if best.as_ref().is_none_or(|(e, _)| errors < *e) {
                best = Some((errors, model));
            }
        }
        best.expect("non-empty dataset").1
    }

    /// The attribute this model tests.
    pub fn attr(&self) -> usize {
        self.attr
    }
}

impl Classifier for OneR {
    fn predict(&self, values: &[f64]) -> bool {
        let v = values[self.attr];
        let k = self.bounds.iter().take_while(|&&b| v > b).count();
        self.predictions[k.min(self.predictions.len() - 1)]
    }

    fn name(&self) -> &'static str {
        "one-r"
    }
}

/// A small entropy-based decision tree with a depth limit and a minimum
/// leaf size.
#[derive(Debug, Clone, PartialEq)]
pub struct ShallowTree {
    root: Node,
}

#[derive(Debug, Clone, PartialEq)]
enum Node {
    Leaf(bool),
    Split { attr: usize, threshold: f64, le: Box<Node>, gt: Box<Node> },
}

impl ShallowTree {
    /// Fits a tree of at most `max_depth` splits, never splitting nodes
    /// with fewer than `min_leaf` instances.
    ///
    /// # Panics
    ///
    /// Panics if `data` is empty.
    pub fn fit(data: &Dataset, max_depth: usize, min_leaf: usize) -> ShallowTree {
        assert!(!data.is_empty(), "cannot fit a tree on an empty dataset");
        let idx: Vec<u32> = (0..u32::try_from(data.len()).expect("dataset sizes fit u32")).collect();
        ShallowTree { root: build(data, &idx, max_depth, min_leaf.max(1)) }
    }

    /// Number of leaves (model size).
    pub fn leaves(&self) -> usize {
        fn walk(n: &Node) -> usize {
            match n {
                Node::Leaf(_) => 1,
                Node::Split { le, gt, .. } => walk(le) + walk(gt),
            }
        }
        walk(&self.root)
    }

    /// Lowers the tree to ordered-rule form: one conjunctive rule per
    /// positive leaf, collecting the root-to-leaf path conditions. The
    /// strict `> threshold` branch becomes `>=` the next representable
    /// `f64` above the threshold, so rule-set decisions agree bit-for-bit
    /// with [`predict`](Classifier::predict) on every finite input. Leaf
    /// order is left-to-right; paths are disjoint, so firing order never
    /// changes a decision. An all-positive root lowers to the single
    /// empty (always-firing) rule.
    pub fn to_rules(&self) -> Vec<Rule> {
        fn walk(n: &Node, path: &mut Vec<Condition>, out: &mut Vec<Rule>) {
            match n {
                Node::Leaf(true) => out.push(Rule::from_conditions(path.clone())),
                Node::Leaf(false) => {}
                Node::Split { attr, threshold, le, gt } => {
                    path.push(Condition { attr: *attr, op: Op::Le, threshold: *threshold });
                    walk(le, path, out);
                    path.pop();
                    path.push(Condition { attr: *attr, op: Op::Ge, threshold: next_up(*threshold) });
                    walk(gt, path, out);
                    path.pop();
                }
            }
        }
        let mut out = Vec::new();
        walk(&self.root, &mut Vec::new(), &mut out);
        out
    }
}

fn entropy(p: usize, n: usize) -> f64 {
    let t = p + n;
    if t == 0 || p == 0 || n == 0 {
        return 0.0;
    }
    let fp = p as f64 / t as f64;
    let fn_ = n as f64 / t as f64;
    -(fp * fp.log2() + fn_ * fn_.log2())
}

fn build(data: &Dataset, idx: &[u32], depth: usize, min_leaf: usize) -> Node {
    let pos = idx.iter().filter(|&&i| data.instances()[i as usize].positive).count();
    let neg = idx.len() - pos;
    if depth == 0 || idx.len() < 2 * min_leaf || pos == 0 || neg == 0 {
        return Node::Leaf(pos >= neg);
    }
    let parent_h = entropy(pos, neg);
    let mut best: Option<(f64, usize, f64)> = None; // (gain, attr, threshold)
    for attr in 0..data.attr_count() {
        let mut col: Vec<(f64, bool)> = idx
            .iter()
            .map(|&i| (data.instances()[i as usize].values[attr], data.instances()[i as usize].positive))
            .collect();
        col.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite"));
        let mut p_le = 0usize;
        let mut c_le = 0usize;
        let mut j = 0;
        while j < col.len() {
            let v = col[j].0;
            while j < col.len() && col[j].0 == v {
                if col[j].1 {
                    p_le += 1;
                }
                c_le += 1;
                j += 1;
            }
            if c_le < min_leaf || idx.len() - c_le < min_leaf {
                continue;
            }
            let n_le = c_le - p_le;
            let p_gt = pos - p_le;
            let n_gt = neg - n_le;
            let w_le = c_le as f64 / idx.len() as f64;
            let gain = parent_h - w_le * entropy(p_le, n_le) - (1.0 - w_le) * entropy(p_gt, n_gt);
            if best.as_ref().is_none_or(|(g, _, _)| gain > *g) {
                best = Some((gain, attr, v));
            }
        }
    }
    match best {
        Some((gain, attr, threshold)) if gain > 1e-9 => {
            let (le, gt): (Vec<u32>, Vec<u32>) =
                idx.iter().partition(|&&i| data.instances()[i as usize].values[attr] <= threshold);
            Node::Split {
                attr,
                threshold,
                le: Box::new(build(data, &le, depth - 1, min_leaf)),
                gt: Box::new(build(data, &gt, depth - 1, min_leaf)),
            }
        }
        _ => Node::Leaf(pos >= neg),
    }
}

impl Classifier for ShallowTree {
    fn predict(&self, values: &[f64]) -> bool {
        let mut node = &self.root;
        loop {
            match node {
                Node::Leaf(c) => return *c,
                Node::Split { attr, threshold, le, gt } => {
                    node = if values[*attr] <= *threshold { le } else { gt };
                }
            }
        }
    }

    fn name(&self) -> &'static str {
        "tree"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn linear_dataset() -> Dataset {
        let mut d = Dataset::new(vec!["x".into(), "junk".into()], "LS", "NS");
        for i in 0..100 {
            let x = i as f64 / 100.0;
            d.push(vec![x, 0.5], x >= 0.4, 0);
        }
        d
    }

    #[test]
    fn majority_predicts_bigger_class() {
        let d = linear_dataset(); // 60 positives
        let m = MajorityLearner::fit(&d);
        assert!(m.majority());
        assert!(m.predict(&[0.0, 0.0]));
    }

    #[test]
    fn stump_finds_the_threshold() {
        let d = linear_dataset();
        let s = DecisionStump::fit(&d);
        assert_eq!(s.attr(), 0);
        assert!(s.predict(&[0.9, 0.5]));
        assert!(!s.predict(&[0.1, 0.5]));
    }

    #[test]
    fn stump_handles_inverted_classes() {
        let mut d = Dataset::new(vec!["x".into()], "LS", "NS");
        for i in 0..50 {
            let x = i as f64;
            d.push(vec![x], x < 25.0, 0);
        }
        let s = DecisionStump::fit(&d);
        assert!(s.predict(&[1.0]));
        assert!(!s.predict(&[40.0]));
    }

    #[test]
    fn one_r_matches_simple_rule() {
        let d = linear_dataset();
        let m = OneR::fit(&d);
        assert_eq!(m.attr(), 0);
        assert!(m.predict(&[0.95, 0.5]));
        assert!(!m.predict(&[0.05, 0.5]));
    }

    #[test]
    fn tree_learns_conjunctive_structure() {
        // positives where x >= .5 && y >= .5: needs depth 2.
        let mut d = Dataset::new(vec!["x".into(), "y".into()], "LS", "NS");
        for i in 0..20 {
            for j in 0..20 {
                let (x, y) = (i as f64 / 20.0, j as f64 / 20.0);
                d.push(vec![x, y], x >= 0.5 && y >= 0.5, 0);
            }
        }
        let t = ShallowTree::fit(&d, 3, 5);
        assert!(t.predict(&[0.9, 0.9]));
        assert!(!t.predict(&[0.9, 0.1]));
        assert!(!t.predict(&[0.1, 0.9]));
        assert!(!t.predict(&[0.1, 0.1]));
        assert!(t.leaves() >= 3);
    }

    #[test]
    fn tree_respects_depth_limit() {
        let d = linear_dataset();
        let t = ShallowTree::fit(&d, 1, 1);
        assert!(t.leaves() <= 2);
    }

    fn rules_predict(rules: &[Rule], values: &[f64]) -> bool {
        rules.iter().any(|r| r.matches(values))
    }

    #[test]
    fn stump_lowering_matches_predict_at_the_boundary() {
        let d = linear_dataset();
        let s = DecisionStump::fit(&d);
        let rules = s.to_rules();
        assert_eq!(rules.len(), 1);
        let t = s.threshold();
        for v in [t, next_down(t), next_up(t), 0.0, 1.0, -3.5] {
            assert_eq!(rules_predict(&rules, &[v, 0.5]), s.predict(&[v, 0.5]), "value {v}");
        }
    }

    #[test]
    fn inverted_stump_lowering_matches_predict_at_the_boundary() {
        let mut d = Dataset::new(vec!["x".into()], "LS", "NS");
        for i in 0..50 {
            let x = i as f64;
            d.push(vec![x], x < 25.0, 0);
        }
        let s = DecisionStump::fit(&d);
        let rules = s.to_rules();
        let t = s.threshold();
        for v in [t, next_down(t), next_up(t), -1.0, 24.0, 25.0, 26.0, 100.0] {
            assert_eq!(rules_predict(&rules, &[v]), s.predict(&[v]), "value {v}");
        }
    }

    #[test]
    fn tree_lowering_matches_predict_on_a_grid() {
        let mut d = Dataset::new(vec!["x".into(), "y".into()], "LS", "NS");
        for i in 0..20 {
            for j in 0..20 {
                let (x, y) = (i as f64 / 20.0, j as f64 / 20.0);
                d.push(vec![x, y], x >= 0.5 && y >= 0.5, 0);
            }
        }
        let t = ShallowTree::fit(&d, 3, 5);
        let rules = t.to_rules();
        assert!(!rules.is_empty());
        for i in 0..=40 {
            for j in 0..=40 {
                let v = [i as f64 / 40.0, j as f64 / 40.0];
                assert_eq!(rules_predict(&rules, &v), t.predict(&v), "at {v:?}");
            }
        }
    }

    #[test]
    fn all_positive_tree_lowers_to_the_empty_rule() {
        let mut d = Dataset::new(vec!["x".into()], "LS", "NS");
        for i in 0..10 {
            d.push(vec![i as f64], true, 0);
        }
        let t = ShallowTree::fit(&d, 3, 2);
        let rules = t.to_rules();
        assert_eq!(rules.len(), 1);
        assert!(rules[0].is_empty(), "all-positive root is the always rule");
        let all_neg = ShallowTree::fit(
            &{
                let mut d = Dataset::new(vec!["x".into()], "LS", "NS");
                for i in 0..10 {
                    d.push(vec![i as f64], false, 0);
                }
                d
            },
            3,
            2,
        );
        assert!(all_neg.to_rules().is_empty(), "all-negative root lowers to no rules");
    }

    #[test]
    fn next_up_down_are_exact_inverses_on_normals() {
        for v in [0.0, -0.0, 1.0, -1.0, 0.1, 1e300, -1e-300, f64::MIN_POSITIVE] {
            assert!(next_down(v) < v, "{v}");
            assert!(next_up(v) > v, "{v}");
            assert_eq!(next_up(next_down(v)), v);
            assert_eq!(next_down(next_up(v)), v);
        }
        assert_eq!(next_down(f64::NEG_INFINITY), f64::NEG_INFINITY);
        assert_eq!(next_up(f64::INFINITY), f64::INFINITY);
        assert!(next_up(f64::NAN).is_nan());
        assert!(next_down(f64::NAN).is_nan());
    }

    #[test]
    fn classifier_names() {
        let d = linear_dataset();
        assert_eq!(MajorityLearner::fit(&d).name(), "majority");
        assert_eq!(DecisionStump::fit(&d).name(), "stump");
        assert_eq!(OneR::fit(&d).name(), "one-r");
        assert_eq!(ShallowTree::fit(&d, 2, 2).name(), "tree");
    }
}
