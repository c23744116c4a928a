//! The rule-set and feature-vector generators the filter suites share,
//! included by path: `#[path = "support/arb.rs"] mod arb;`.

// Each suite uses part of this file.
#![allow(dead_code)]

use proptest::prelude::*;
use wts_features::{FeatureKind, FeatureVector};
use wts_ripper::{Condition, Op, Rule, RuleSet, RuleStats};

pub fn arb_condition() -> impl Strategy<Value = Condition> {
    (0usize..FeatureKind::COUNT, prop::bool::ANY, 0u32..40).prop_map(|(attr, ge, t)| Condition {
        attr,
        op: if ge { Op::Ge } else { Op::Le },
        // Thresholds straddle both the bbLen scale and the fraction
        // scale so conditions on either kind of feature can go both ways.
        threshold: t as f64 / 8.0,
    })
}

/// Random ordered rule sets. Three in four carry random coverage stats,
/// so scores span the whole calibration range; the rest carry none, and
/// every score sits on the empty-stats default of one half.
pub fn arb_rule_set() -> impl Strategy<Value = RuleSet> {
    // One (conditions, stats) pair per rule, so the stats vector always
    // matches the rule count.
    let rules = prop::collection::vec((prop::collection::vec(arb_condition(), 0..5), 0usize..500, 0usize..500), 0..5);
    (rules, prop::option::of((0usize..500, 0usize..500))).prop_map(|(rules, default)| {
        let attr_names: Vec<String> = FeatureKind::ALL.iter().map(|k| k.rule_name().to_string()).collect();
        let (stats, default) = match default {
            Some((hits, misses)) => (
                rules.iter().map(|&(_, hits, misses)| RuleStats { hits, misses }).collect(),
                RuleStats { hits, misses },
            ),
            None => (Vec::new(), RuleStats::default()),
        };
        let rules = rules.into_iter().map(|(conds, _, _)| Rule::from_conditions(conds)).collect();
        RuleSet::new(attr_names, "list", "orig", rules, stats, default)
    })
}

pub fn arb_vector() -> impl Strategy<Value = FeatureVector> {
    let fracs = prop::collection::vec(0u32..17, FeatureKind::CATEGORY_COUNT..FeatureKind::CATEGORY_COUNT + 1);
    (0u32..200, fracs).prop_map(|(bb_len, fracs)| {
        let mut v = [0.0; FeatureKind::COUNT];
        v[FeatureKind::BbLen.index()] = bb_len as f64;
        for (i, f) in fracs.iter().enumerate() {
            v[i + 1] = *f as f64 / 16.0;
        }
        FeatureVector::from_values(v)
    })
}
