//! Datasets of labelled numeric instances.

use std::fmt;

/// One training/test instance: a numeric feature vector, a binary label
/// and a *group* id (used for leave-one-group-out cross-validation; in the
/// paper a group is a benchmark program).
#[derive(Debug, Clone, PartialEq)]
pub struct Instance {
    /// Feature values, one per dataset attribute.
    pub values: Vec<f64>,
    /// True for the positive class (the paper's `LS`, "schedule").
    pub positive: bool,
    /// Group identifier for grouped cross-validation.
    pub group: u32,
}

/// A binary-classification dataset over numeric attributes.
///
/// # Examples
///
/// ```
/// use wts_ripper::Dataset;
/// let mut d = Dataset::new(vec!["a".into()], "LS", "NS");
/// d.push(vec![1.0], true, 0);
/// d.push(vec![0.0], false, 0);
/// assert_eq!(d.len(), 2);
/// assert_eq!(d.positives(), 1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    attr_names: Vec<String>,
    instances: Vec<Instance>,
    pos_label: String,
    neg_label: String,
}

impl Dataset {
    /// An empty dataset with the given attribute and class names.
    ///
    /// # Panics
    ///
    /// Panics if `attr_names` is empty.
    pub fn new(attr_names: Vec<String>, pos_label: impl Into<String>, neg_label: impl Into<String>) -> Dataset {
        assert!(!attr_names.is_empty(), "a dataset needs at least one attribute");
        Dataset { attr_names, instances: Vec::new(), pos_label: pos_label.into(), neg_label: neg_label.into() }
    }

    /// Adds an instance.
    ///
    /// # Panics
    ///
    /// Panics if the value count does not match the attribute count or a
    /// value is not finite.
    pub fn push(&mut self, values: Vec<f64>, positive: bool, group: u32) {
        assert_eq!(values.len(), self.attr_names.len(), "value/attribute count mismatch");
        assert!(values.iter().all(|v| v.is_finite()), "feature values must be finite");
        self.instances.push(Instance { values, positive, group });
    }

    /// Attribute names.
    pub fn attr_names(&self) -> &[String] {
        &self.attr_names
    }

    /// Number of attributes.
    pub fn attr_count(&self) -> usize {
        self.attr_names.len()
    }

    /// Positive class display name.
    pub fn pos_label(&self) -> &str {
        &self.pos_label
    }

    /// Negative class display name.
    pub fn neg_label(&self) -> &str {
        &self.neg_label
    }

    /// The instances.
    pub fn instances(&self) -> &[Instance] {
        &self.instances
    }

    /// Number of instances.
    pub fn len(&self) -> usize {
        self.instances.len()
    }

    /// True when there are no instances.
    pub fn is_empty(&self) -> bool {
        self.instances.is_empty()
    }

    /// Number of positive instances.
    pub fn positives(&self) -> usize {
        self.instances.iter().filter(|i| i.positive).count()
    }

    /// Number of negative instances.
    pub fn negatives(&self) -> usize {
        self.len() - self.positives()
    }

    /// Distinct group ids, sorted.
    pub fn groups(&self) -> Vec<u32> {
        let mut g: Vec<u32> = self.instances.iter().map(|i| i.group).collect();
        g.sort_unstable();
        g.dedup();
        g
    }

    /// A dataset with the same schema but instances selected by predicate.
    pub fn filtered(&self, mut keep: impl FnMut(&Instance) -> bool) -> Dataset {
        Dataset {
            attr_names: self.attr_names.clone(),
            instances: self.instances.iter().filter(|i| keep(i)).cloned().collect(),
            pos_label: self.pos_label.clone(),
            neg_label: self.neg_label.clone(),
        }
    }
}

impl fmt::Display for Dataset {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "dataset: {} instances ({} {}, {} {}), {} attributes",
            self.len(),
            self.positives(),
            self.pos_label,
            self.negatives(),
            self.neg_label,
            self.attr_count()
        )
    }
}

/// The share of each class RIPPER grows rules on; the rest prunes them
/// (Cohen's 2/3).
const GROW_FRACTION: f64 = 2.0 / 3.0;

/// Deterministic stratified split of the instance indices `idx` into a
/// grow set and a prune set holding [`GROW_FRACTION`] of each class,
/// rounded; `positive` labels an index. `seed` makes the shuffle
/// reproducible.
pub(crate) fn stratified_split(idx: &[u32], positive: impl Fn(u32) -> bool, seed: u64) -> (Vec<u32>, Vec<u32>) {
    let (mut pos, mut neg): (Vec<u32>, Vec<u32>) = idx.iter().partition(|&&i| positive(i));
    let mut rng = SplitMix64::new(seed);
    shuffle(&mut pos, &mut rng);
    shuffle(&mut neg, &mut rng);
    let mut grow = Vec::new();
    let mut prune = Vec::new();
    for class in [pos, neg] {
        // The product is finite, non-negative and at most `class.len()`;
        // the rounding must stay bit-identical to keep every trained
        // filter reproducible, so the cast is kept and justified rather
        // than rewritten in integer arithmetic.
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let cut = ((class.len() as f64) * GROW_FRACTION).round() as usize;
        grow.extend_from_slice(&class[..cut]);
        prune.extend_from_slice(&class[cut..]);
    }
    (grow, prune)
}

fn shuffle(v: &mut [u32], rng: &mut SplitMix64) {
    for i in (1..v.len()).rev() {
        let j = usize::try_from(rng.next() % (i as u64 + 1)).expect("residue mod a usize fits usize");
        v.swap(i, j);
    }
}

/// SplitMix64: tiny, deterministic, well-distributed.
#[derive(Debug, Clone)]
pub(crate) struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    pub(crate) fn new(seed: u64) -> SplitMix64 {
        SplitMix64 { state: seed }
    }

    pub(crate) fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dataset(pos: usize, neg: usize) -> Dataset {
        let mut d = Dataset::new(vec!["x".into()], "LS", "NS");
        for i in 0..pos {
            d.push(vec![i as f64], true, 0);
        }
        for i in 0..neg {
            d.push(vec![-(i as f64)], false, 1);
        }
        d
    }

    #[test]
    fn counts_and_labels() {
        let d = dataset(3, 5);
        assert_eq!(d.len(), 8);
        assert_eq!(d.positives(), 3);
        assert_eq!(d.negatives(), 5);
        assert_eq!(d.pos_label(), "LS");
        assert_eq!(d.neg_label(), "NS");
        assert_eq!(d.groups(), vec![0, 1]);
    }

    #[test]
    #[should_panic(expected = "mismatch")]
    fn push_checks_arity() {
        let mut d = dataset(0, 0);
        d.push(vec![1.0, 2.0], true, 0);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn push_rejects_nan() {
        let mut d = dataset(0, 0);
        d.push(vec![f64::NAN], true, 0);
    }

    #[test]
    fn filtered_keeps_schema() {
        let d = dataset(3, 3);
        let f = d.filtered(|i| i.positive);
        assert_eq!(f.len(), 3);
        assert_eq!(f.negatives(), 0);
        assert_eq!(f.attr_names(), d.attr_names());
    }

    /// `stratified_split` over every instance of `d`.
    fn split(d: &Dataset, seed: u64) -> (Vec<u32>, Vec<u32>) {
        let idx: Vec<u32> = (0..u32::try_from(d.len()).expect("small test sets")).collect();
        stratified_split(&idx, |i| d.instances()[i as usize].positive, seed)
    }

    #[test]
    fn stratified_split_preserves_class_ratio() {
        let d = dataset(30, 90);
        let (grow, prune) = split(&d, 7);
        assert_eq!(grow.len() + prune.len(), 120);
        let grow_pos = grow.iter().filter(|&&i| d.instances()[i as usize].positive).count();
        assert_eq!(grow_pos, 20, "two thirds of the 30 positives");
        let prune_pos = prune.iter().filter(|&&i| d.instances()[i as usize].positive).count();
        assert_eq!(prune_pos, 10);
    }

    #[test]
    fn tiny_classes_round_entirely_into_the_grow_set() {
        // `round(1 * 2/3) == 1`: a one-instance class contributes nothing
        // to the prune set — the empty-prune-set case prune_rule guards.
        let d = dataset(1, 1);
        let (grow, prune) = split(&d, 9);
        assert_eq!(grow.len(), 2);
        assert!(prune.is_empty());
    }

    #[test]
    fn stratified_split_is_deterministic() {
        let d = dataset(10, 10);
        let a = split(&d, 3);
        assert_eq!(a, split(&d, 3));
        assert_ne!(a, split(&d, 4), "different seeds should differ (overwhelmingly)");
    }

    #[test]
    fn splitmix_sequence_is_stable() {
        let mut r = SplitMix64::new(0);
        let a = r.next();
        let mut r2 = SplitMix64::new(0);
        assert_eq!(a, r2.next());
    }

    #[test]
    fn display_mentions_both_classes() {
        let d = dataset(1, 2);
        let s = d.to_string();
        assert!(s.contains("1 LS") && s.contains("2 NS"));
    }
}
