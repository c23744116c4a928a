//! Threshold labeling of trace records (the noise-reduction trick).

use crate::TraceRecord;
use std::collections::BTreeMap;
use wts_features::FeatureKind;
use wts_ripper::Dataset;

/// Labeling configuration: the paper's threshold `t`, in percent.
///
/// A record is labeled `LS` (schedule) when the estimated time after list
/// scheduling is more than `t`% less than before; `NS` (don't schedule)
/// when scheduling is not better at all; and *no instance is produced*
/// when the benefit lies strictly between 0 and `t`% (paper §2.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LabelConfig {
    /// Threshold in percent (the paper sweeps 0..=50 in steps of 5).
    pub threshold_percent: u32,
}

impl LabelConfig {
    /// A config with the given threshold.
    pub fn new(threshold_percent: u32) -> LabelConfig {
        LabelConfig { threshold_percent }
    }

    /// Labels one record: `Some(true)` = LS, `Some(false)` = NS, `None` =
    /// dropped (benefit within `(0, t]`%).
    pub fn label(&self, rec: &TraceRecord) -> Option<bool> {
        let imp = rec.est_improvement();
        if imp <= 0.0 {
            return Some(false);
        }
        let t = self.threshold_percent as f64 / 100.0;
        if imp > t {
            Some(true)
        } else {
            None
        }
    }
}

/// Builds a learner dataset from trace records at threshold `t`,
/// grouping instances by benchmark (for leave-one-benchmark-out CV).
///
/// Returns the dataset and the `benchmark name -> group id` mapping.
/// Group ids are assigned in *first-seen trace order*, not in the
/// iteration order of the returned map: the `BTreeMap` iterates
/// alphabetically by name, so for a corpus traced as `jess, compress`
/// the map yields `compress -> 1` before `jess -> 0`. Consumers that
/// need the numeric order (fold sharding, group-indexed tables) must
/// read the ids, not the map position.
pub fn build_dataset(traces: &[TraceRecord], config: LabelConfig) -> (Dataset, BTreeMap<String, u32>) {
    let mut data = Dataset::new(attr_names(), POS_LABEL, NEG_LABEL);
    let mut groups = BTreeMap::new();
    label_into(&mut data, &mut groups, traces, config);
    (data, groups)
}

/// Class names of every labelled dataset: `list` (schedule) and `orig`.
pub(crate) const POS_LABEL: &str = "list";
pub(crate) const NEG_LABEL: &str = "orig";

/// The learner's attribute names: the full feature vocabulary, in
/// [`FeatureKind::ALL`] order.
pub(crate) fn attr_names() -> Vec<String> {
    FeatureKind::ALL.iter().map(|k| k.rule_name().to_string()).collect()
}

/// Labels `traces` onto `data`, numbering benchmarks in `groups` in
/// first-seen order — over every record, labelled or dropped, so a
/// corpus labelled in pieces gets the ids it would get in one call.
pub(crate) fn label_into(
    data: &mut Dataset,
    groups: &mut BTreeMap<String, u32>,
    traces: &[TraceRecord],
    config: LabelConfig,
) {
    for r in traces {
        let group = match groups.get(&r.benchmark) {
            Some(&g) => g,
            None => {
                let g = u32::try_from(groups.len()).expect("benchmark counts fit u32");
                groups.insert(r.benchmark.clone(), g);
                g
            }
        };
        if let Some(positive) = config.label(r) {
            data.push(r.features.as_slice().to_vec(), positive, group);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wts_features::FeatureVector;
    use wts_ir::{BlockId, MethodId};

    fn record(bench: &str, unsched: u64, sched: u64) -> TraceRecord {
        TraceRecord {
            benchmark: bench.to_string(),
            method: MethodId(0),
            block: BlockId(0),
            exec_count: 1,
            features: FeatureVector::default(),
            est_unsched: unsched,
            est_sched: sched,
            hw_unsched: unsched,
            hw_sched: sched,
            sched_ns: 100,
            feature_ns: 10,
            sched_work: 10,
            feature_work: 2,
        }
    }

    #[test]
    fn zero_threshold_labels_everything() {
        let c = LabelConfig::new(0);
        assert_eq!(c.label(&record("a", 100, 99)), Some(true), "any improvement is LS");
        assert_eq!(c.label(&record("a", 100, 100)), Some(false), "no improvement is NS");
        assert_eq!(c.label(&record("a", 100, 120)), Some(false), "degradation is NS");
    }

    #[test]
    fn positive_threshold_drops_marginal_wins() {
        let c = LabelConfig::new(20);
        assert_eq!(c.label(&record("a", 100, 70)), Some(true), "30% > 20%");
        assert_eq!(c.label(&record("a", 100, 85)), None, "15% benefit is dropped");
        assert_eq!(c.label(&record("a", 100, 80)), None, "exactly t% is dropped");
        assert_eq!(c.label(&record("a", 100, 100)), Some(false));
    }

    #[test]
    fn empty_blocks_are_ns() {
        let c = LabelConfig::new(0);
        assert_eq!(c.label(&record("a", 0, 0)), Some(false));
    }

    #[test]
    fn dataset_grouping_is_stable() {
        let traces = vec![record("jess", 10, 8), record("compress", 10, 10), record("jess", 10, 10)];
        let (data, groups) = build_dataset(&traces, LabelConfig::new(0));
        assert_eq!(data.len(), 3);
        assert_eq!(groups.len(), 2);
        // First-seen order: jess=0, compress=1.
        assert_eq!(groups["jess"], 0);
        assert_eq!(groups["compress"], 1);
        // The map iterates *alphabetically*, which is NOT the id order:
        // ids follow first-seen trace order. Pin the distinction so the
        // doc contract stays honest.
        let iteration: Vec<(&str, u32)> = groups.iter().map(|(n, &g)| (n.as_str(), g)).collect();
        assert_eq!(iteration, vec![("compress", 1), ("jess", 0)]);
        assert_eq!(data.instances()[0].group, 0);
        assert_eq!(data.instances()[1].group, 1);
        assert_eq!(data.pos_label(), "list");
        assert_eq!(data.neg_label(), "orig");
    }

    #[test]
    fn higher_threshold_shrinks_ls_not_ns() {
        let traces: Vec<TraceRecord> = (1..=10)
            .map(|i| record("b", 100, 100 - i * 5)) // improvements 5%..50%
            .chain((0..5).map(|_| record("b", 100, 100)))
            .collect();
        let (d0, _) = build_dataset(&traces, LabelConfig::new(0));
        let (d20, _) = build_dataset(&traces, LabelConfig::new(20));
        assert_eq!(d0.positives(), 10);
        assert_eq!(d0.negatives(), 5);
        assert_eq!(d20.positives(), 6, "only improvements > 20% stay LS");
        assert_eq!(d20.negatives(), 5, "NS count is constant, as in Table 5");
    }

    #[test]
    fn attr_names_are_the_full_feature_vocabulary() {
        let (data, _) = build_dataset(&[record("x", 10, 9)], LabelConfig::new(0));
        assert_eq!(data.attr_count(), 17, "Table 1 plus the four trace-shape features");
        assert_eq!(data.attr_names()[0], "bbLen");
        assert_eq!(data.attr_names()[16], "traceLen");
    }
}
