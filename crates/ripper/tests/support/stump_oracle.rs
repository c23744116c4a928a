//! The sort-based decision-stump fit and the first-firing stats
//! attribution as they were before the stump read class counts, kept
//! verbatim as an executable oracle: the stump sorts every column and
//! sweeps its runs, and the stats walk every instance through the
//! lowered rule. [`rule_set`] is the stump backend's whole old fit:
//! stump, lowering and stats.

use wts_ripper::{Condition, Dataset, Op, Rule, RuleSet, RuleStats};

/// A stump as the sort-based fit returns it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OracleStump {
    pub attr: usize,
    pub threshold: f64,
    /// Predicted class when `value >= threshold`.
    pub ge_positive: bool,
}

/// The greatest `f64` strictly below `v`.
fn next_down(v: f64) -> f64 {
    if v.is_nan() || v == f64::NEG_INFINITY {
        return v;
    }
    if v == 0.0 {
        return -f64::from_bits(1); // smallest negative subnormal
    }
    f64::from_bits(if v > 0.0 { v.to_bits() - 1 } else { v.to_bits() + 1 })
}

/// Fits the best stump by exhaustive threshold search.
pub fn fit(data: &Dataset) -> OracleStump {
    let mut best =
        OracleStump { attr: 0, threshold: f64::NEG_INFINITY, ge_positive: data.positives() * 2 > data.len() };
    let mut best_err = usize::MAX;
    for attr in 0..data.attr_count() {
        let mut col: Vec<(f64, bool)> = data.instances().iter().map(|i| (i.values[attr], i.positive)).collect();
        col.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite"));
        let total_pos = col.iter().filter(|e| e.1).count();
        let total = col.len();
        // For threshold = v (a data value), `>= v` covers the suffix.
        let mut pos_before = 0usize;
        let mut before = 0usize;
        let mut j = 0;
        while j < col.len() {
            let v = col[j].0;
            // Evaluate threshold at the start of this run.
            let pos_suffix = total_pos - pos_before;
            let suffix = total - before;
            // Variant 1: ge_positive=true — errors: negatives in suffix + positives in prefix.
            let err_true = (suffix - pos_suffix) + pos_before;
            // Variant 2: ge_positive=false — complement.
            let err_false = pos_suffix + (before - pos_before);
            for (err, gep) in [(err_true, true), (err_false, false)] {
                if err < best_err {
                    best_err = err;
                    best = OracleStump { attr, threshold: v, ge_positive: gep };
                }
            }
            while j < col.len() && col[j].0 == v {
                if col[j].1 {
                    pos_before += 1;
                }
                before += 1;
                j += 1;
            }
        }
    }
    best
}

/// The stump's one-rule lowering.
pub fn to_rules(stump: &OracleStump) -> Vec<Rule> {
    let cond = if stump.ge_positive {
        Condition { attr: stump.attr, op: Op::Ge, threshold: stump.threshold }
    } else {
        Condition { attr: stump.attr, op: Op::Le, threshold: next_down(stump.threshold) }
    };
    vec![Rule::from_conditions(vec![cond])]
}

/// First-firing-rule attribution of training statistics.
pub fn attribute_stats(rules: &[Rule], data: &Dataset) -> (Vec<RuleStats>, RuleStats) {
    let mut stats = vec![RuleStats::default(); rules.len()];
    let mut default_stats = RuleStats::default();
    for inst in data.instances() {
        match rules.iter().position(|r| r.matches(&inst.values)) {
            Some(k) => {
                if inst.positive {
                    stats[k].hits += 1;
                } else {
                    stats[k].misses += 1;
                }
            }
            None => {
                if inst.positive {
                    default_stats.misses += 1;
                } else {
                    default_stats.hits += 1;
                }
            }
        }
    }
    (stats, default_stats)
}

/// The stump backend's old fit: the empty rule set on no data,
/// otherwise the lowered stump with its attributed stats.
pub fn rule_set(data: &Dataset) -> RuleSet {
    let rules = if data.is_empty() { vec![] } else { to_rules(&fit(data)) };
    let (stats, default_stats) = attribute_stats(&rules, data);
    RuleSet::new(data.attr_names().to_vec(), data.pos_label(), data.neg_label(), rules, stats, default_stats)
}

/// Every rule threshold's bit pattern, so `-0.0` and `0.0` (equal under
/// `==`) are told apart.
pub fn threshold_bits(rules: &RuleSet) -> Vec<u64> {
    rules.rules().iter().flat_map(|r| r.conditions().iter().map(|c| c.threshold.to_bits())).collect()
}
