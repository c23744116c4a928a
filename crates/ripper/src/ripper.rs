//! The RIPPER training loop: IREP* + MDL stopping + optimization passes.

use crate::data::{stratified_split, Dataset};
use crate::grow::{coverage, grow_from, grow_rule, prune_rule};
use crate::mdl::{total_dl, DL_BUDGET};
use crate::rule::{Rule, RuleSet};

/// Optimization passes after the first IREP* rule set (Cohen's `k = 2`).
const OPTIMIZATION_ROUNDS: usize = 2;

/// Seed of the stratified grow/prune splits, so training is fully
/// deterministic.
const SEED: u64 = 0xC0FFEE;

impl RuleSet {
    /// Trains a RIPPER rule set for the dataset's positive class, at
    /// Cohen's settings: a 2/3 grow split and `k = 2` optimization
    /// rounds.
    ///
    /// With two classes RIPPER learns rules for one class only and makes
    /// the other the default; callers should make the minority class the
    /// positive one (the paper's `LS`).
    pub fn fit(data: &Dataset) -> RuleSet {
        Fit { data, split_counter: 0 }.run()
    }
}

struct Fit<'d> {
    data: &'d Dataset,
    split_counter: u64,
}

impl<'d> Fit<'d> {
    /// Every instance index of the dataset, as the u32 indices the grow
    /// and prune sets use.
    fn all_indices(&self) -> Vec<u32> {
        (0..u32::try_from(self.data.len()).expect("dataset sizes fit u32")).collect()
    }

    fn run(&mut self) -> RuleSet {
        let all = self.all_indices();
        if self.data.negatives() == 0 && self.data.positives() > 0 {
            // Degenerate single-class data: an always-true rule.
            return self.finish(vec![Rule::new()]);
        }
        let mut rules = self.irep_star(&all, Vec::new());

        for _round in 0..OPTIMIZATION_ROUNDS {
            rules = self.optimize(rules);
            // Cover residual positives with additional rules.
            let uncovered: Vec<u32> = self.uncovered(&rules, &all);
            if self.has_positives(&uncovered) {
                rules = self.irep_star(&uncovered, rules);
            }
            rules = self.delete_harmful(rules);
        }

        self.finish(rules)
    }

    /// Grows rules until MDL or error stopping, starting from `existing`
    /// (whose coverage has already been removed from `remaining`).
    fn irep_star(&mut self, remaining: &[u32], mut rules: Vec<Rule>) -> Vec<Rule> {
        let all = self.all_indices();
        let mut remaining: Vec<u32> = remaining.to_vec();
        let mut min_dl = self.ruleset_dl(&rules, &all);

        while self.has_positives(&remaining) {
            let (grow, prune) = self.split(&remaining);
            let mut rule = grow_rule(self.data, &grow);
            if rule.is_empty() {
                break;
            }
            rule = prune_rule(rule, self.data, &prune);
            // Reject rules whose error on the pruning data exceeds 50%.
            let c = coverage(&rule, self.data, &prune);
            if c.n > c.p {
                break;
            }
            rules.push(rule);
            let dl = self.ruleset_dl(&rules, &all);
            if dl > min_dl + DL_BUDGET {
                rules.pop();
                break;
            }
            min_dl = min_dl.min(dl);
            let newest = rules.last().expect("just pushed");
            remaining.retain(|&i| !newest.matches(&self.data.instances()[i as usize].values));
        }
        rules
    }

    /// One optimization pass: reconsider each rule against a re-grown
    /// replacement and a greedily-extended revision, keeping the variant
    /// whose rule set has the smallest description length.
    fn optimize(&mut self, mut rules: Vec<Rule>) -> Vec<Rule> {
        let all = self.all_indices();
        for i in 0..rules.len() {
            // Instances not claimed by earlier rules are what rule i sees.
            let pertinent: Vec<u32> = all
                .iter()
                .copied()
                .filter(|&x| {
                    let v = &self.data.instances()[x as usize].values;
                    !rules[..i].iter().any(|r| r.matches(v))
                })
                .collect();
            if !self.has_positives(&pertinent) {
                continue;
            }
            let (grow, prune) = self.split(&pertinent);

            let mut replacement = grow_rule(self.data, &grow);
            if !replacement.is_empty() {
                replacement = prune_rule(replacement, self.data, &prune);
            }
            let mut revision = grow_from(rules[i].clone(), self.data, &grow);
            if !revision.is_empty() {
                revision = prune_rule(revision, self.data, &prune);
            }

            let mut best = rules.clone();
            let mut best_dl = self.ruleset_dl(&rules, &all);
            for candidate in [replacement, revision] {
                if candidate.is_empty() {
                    continue;
                }
                let mut variant = rules.clone();
                variant[i] = candidate;
                let dl = self.ruleset_dl(&variant, &all);
                if dl < best_dl {
                    best_dl = dl;
                    best = variant;
                }
            }
            rules = best;
        }
        rules
    }

    /// Removes rules whose deletion lowers the total description length.
    fn delete_harmful(&mut self, mut rules: Vec<Rule>) -> Vec<Rule> {
        let all = self.all_indices();
        let mut i = 0;
        while i < rules.len() {
            let with = self.ruleset_dl(&rules, &all);
            let removed = rules.remove(i);
            let without = self.ruleset_dl(&rules, &all);
            if with <= without {
                rules.insert(i, removed);
                i += 1;
            }
        }
        rules
    }

    fn finish(&self, rules: Vec<Rule>) -> RuleSet {
        let (stats, default_stats) = crate::rule::attribute_stats(&rules, self.data);
        RuleSet::new(
            self.data.attr_names().to_vec(),
            self.data.pos_label(),
            self.data.neg_label(),
            rules,
            stats,
            default_stats,
        )
    }

    /// Description length of a rule list over the instances `idx`.
    fn ruleset_dl(&self, rules: &[Rule], idx: &[u32]) -> f64 {
        let mut covered = 0usize;
        let mut fp = 0usize;
        let mut uncovered = 0usize;
        let mut fn_ = 0usize;
        for &i in idx {
            let inst = &self.data.instances()[i as usize];
            if rules.iter().any(|r| r.matches(&inst.values)) {
                covered += 1;
                if !inst.positive {
                    fp += 1;
                }
            } else {
                uncovered += 1;
                if inst.positive {
                    fn_ += 1;
                }
            }
        }
        let counts: Vec<usize> = rules.iter().map(Rule::len).collect();
        total_dl(&counts, self.data.attr_count(), covered, fp, uncovered, fn_)
    }

    fn uncovered(&self, rules: &[Rule], idx: &[u32]) -> Vec<u32> {
        idx.iter()
            .copied()
            .filter(|&i| !rules.iter().any(|r| r.matches(&self.data.instances()[i as usize].values)))
            .collect()
    }

    fn has_positives(&self, idx: &[u32]) -> bool {
        idx.iter().any(|&i| self.data.instances()[i as usize].positive)
    }

    /// Deterministic stratified split of `idx` into (grow, prune).
    fn split(&mut self, idx: &[u32]) -> (Vec<u32>, Vec<u32>) {
        self.split_counter += 1;
        let instances = self.data.instances();
        stratified_split(idx, |i| instances[i as usize].positive, SEED ^ self.split_counter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// y = (x0 >= 0.6) || (x1 <= 0.2), plus label noise on a few points.
    fn disjunctive_dataset(n: usize, noise_every: usize) -> Dataset {
        let mut d = Dataset::new(vec!["x0".into(), "x1".into()], "LS", "NS");
        let mut s: u64 = 12345;
        for i in 0..n {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let x0 = ((s >> 11) % 1000) as f64 / 1000.0;
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let x1 = ((s >> 11) % 1000) as f64 / 1000.0;
            let mut y = x0 >= 0.6 || x1 <= 0.2;
            if noise_every > 0 && i % noise_every == 0 {
                y = !y;
            }
            d.push(vec![x0, x1], y, u32::try_from(i % 4).expect("a residue mod 4 fits u32"));
        }
        d
    }

    #[test]
    fn learns_clean_disjunction() {
        let d = disjunctive_dataset(600, 0);
        let model = RuleSet::fit(&d);
        assert!(!model.is_empty());
        assert!(model.predict(&[0.9, 0.9]));
        assert!(model.predict(&[0.1, 0.05]));
        assert!(!model.predict(&[0.1, 0.9]));
        // Training accuracy should be near perfect on separable data.
        let errors = d.instances().iter().filter(|i| model.predict(&i.values) != i.positive).count();
        assert!(errors * 100 <= d.len(), "error rate {errors}/{} too high", d.len());
    }

    #[test]
    fn tolerates_label_noise() {
        let d = disjunctive_dataset(800, 25); // 4% label noise
        let model = RuleSet::fit(&d);
        let errors = d.instances().iter().filter(|i| model.predict(&i.values) != i.positive).count();
        // Should stay close to the Bayes rate (4%), not memorize noise.
        assert!(errors as f64 / d.len() as f64 <= 0.10, "error rate {} too high", errors as f64 / d.len() as f64);
        // MDL pressure keeps the model small.
        assert!(model.len() <= 8, "model has {} rules", model.len());
    }

    #[test]
    fn no_positives_yields_default_only() {
        let mut d = Dataset::new(vec!["x".into()], "LS", "NS");
        for i in 0..50 {
            d.push(vec![i as f64], false, 0);
        }
        let model = RuleSet::fit(&d);
        assert!(model.is_empty());
        assert!(!model.predict(&[3.0]));
    }

    #[test]
    fn all_positives_predicts_positive() {
        let mut d = Dataset::new(vec!["x".into()], "LS", "NS");
        for i in 0..50 {
            d.push(vec![i as f64], true, 0);
        }
        let model = RuleSet::fit(&d);
        assert!(model.predict(&[3.0]), "must fall back to an always-true rule");
    }

    #[test]
    fn tiny_folds_keep_conjunctive_rules_intact() {
        // Positives need *both* x0 >= 0.6 and x1 >= 0.55: pruning on a
        // tiny fold must not cut the grown conjunction to its first
        // condition, which would turn every high-x0/low-x1 negative into
        // a false positive. The empty prune set a one-instance class
        // rounds to is pinned by `grow.rs`'s
        // `empty_prune_set_leaves_rule_unpruned` and `data.rs`'s
        // `tiny_classes_round_entirely_into_the_grow_set`.
        let pos = [(0.6, 0.6), (0.7, 0.8), (0.9, 0.55)];
        let neg = [(0.6, 0.1), (0.7, 0.2), (0.1, 0.6), (0.2, 0.9), (0.1, 0.1)];
        let mut d = Dataset::new(vec!["x0".into(), "x1".into()], "LS", "NS");
        for i in 0..25 {
            let (x0, x1) = pos[i % pos.len()];
            d.push(vec![x0, x1], true, 0);
            let (x0, x1) = neg[i % neg.len()];
            d.push(vec![x0, x1], false, 0);
        }
        let model = RuleSet::fit(&d);
        for inst in d.instances() {
            assert_eq!(model.predict(&inst.values), inst.positive, "misclassified {:?}; rules: {model}", inst.values);
        }
    }

    #[test]
    fn training_is_deterministic() {
        let d = disjunctive_dataset(400, 20);
        let a = RuleSet::fit(&d);
        let b = RuleSet::fit(&d);
        assert_eq!(a, b);
    }

    #[test]
    fn stats_sum_to_dataset_size() {
        let d = disjunctive_dataset(300, 0);
        let model = RuleSet::fit(&d);
        let rule_total: usize = model.stats().iter().map(|s| s.hits + s.misses).sum();
        let shown = model.to_string();
        // Default row hits+misses = everything not claimed by a rule.
        let all = d.len();
        assert!(rule_total <= all);
        assert!(shown.contains(":- (default)"));
    }

    #[test]
    fn optimization_never_leaves_empty_rules() {
        let d = disjunctive_dataset(500, 10);
        let model = RuleSet::fit(&d);
        for r in model.rules() {
            assert!(!r.is_empty() || model.len() == 1, "unexpected empty rule in multi-rule set");
        }
    }
}
