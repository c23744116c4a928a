//! Filter training: any [`Learner`] backend over labeled traces, with
//! the paper's leave-one-benchmark-out protocol.

use crate::label::{attr_names, label_unit, NEG_LABEL, POS_LABEL};
use crate::learner::{Learner, LearnerKind};
use crate::{build_dataset, LabelConfig, LearnedFilter, TraceRecord};
use std::collections::BTreeMap;
use wts_features::FeatureVector;
use wts_ir::ScopeKind;
use wts_ripper::{leave_one_group_out, Dataset, StumpCounts};

/// Training configuration: labeling threshold + induction backend +
/// scheduling scope.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TrainConfig {
    /// Labeling threshold.
    pub label: LabelConfig,
    /// The induction backend (RIPPER by default, the paper's learner).
    pub learner: LearnerKind,
    /// The scope the traces were collected at. Purely descriptive for
    /// training itself (the instances already carry the scope's
    /// features), but stamped into the trained filter's tag so a
    /// superblock-scope filter is never mistaken for a block one.
    pub scope: ScopeKind,
}

impl TrainConfig {
    /// A config with the given threshold and the default RIPPER backend.
    pub fn with_threshold(threshold_percent: u32) -> TrainConfig {
        TrainConfig { label: LabelConfig::new(threshold_percent), ..Default::default() }
    }

    /// A config with the given threshold and backend.
    pub fn with_learner(threshold_percent: u32, learner: LearnerKind) -> TrainConfig {
        TrainConfig { label: LabelConfig::new(threshold_percent), learner, ..Default::default() }
    }

    /// Sets the scheduling scope the trained filter is tagged with.
    pub fn with_scope(mut self, scope: ScopeKind) -> TrainConfig {
        self.scope = scope;
        self
    }

    /// The filter tag this config stamps: the backend's tag, suffixed
    /// with `@sb<ratio>` at superblock scope (`L/N@sb70(t=0)` names the
    /// paper's learner retrained on ratio-70% traces).
    fn filter_tag(&self) -> String {
        match self.scope {
            ScopeKind::Block => self.learner.filter_tag(),
            ScopeKind::Superblock(p) => format!("{}@sb{p}", self.learner.filter_tag()),
        }
    }
}

/// Trains a single filter on *all* the given traces ("at the factory",
/// §3): a [`Trainer`] that absorbs them and fits once. Use
/// [`train_loocv`] for the evaluation protocol.
pub fn train_filter(traces: &[TraceRecord], config: &TrainConfig) -> LearnedFilter {
    let mut trainer = Trainer::new(config);
    trainer.absorb(traces);
    trainer.fit()
}

/// Incremental filter training over a growing corpus.
///
/// Each record is labelled once, when it is absorbed, and only what the
/// configured learner reads is kept: per-feature class counts for the
/// stump ([`StumpCounts`], so a fit is set by the distinct feature
/// values, however large the corpus grows), and the labelled
/// [`Dataset`], grown in place, for RIPPER and the tree. A fit after
/// absorbing any sequence of chunks is bit-identical to
/// [`train_filter`] on their concatenation.
///
/// # Examples
///
/// ```
/// use wts_core::{collect_trace, train_filter, LearnerKind, TraceOptions, TrainConfig, Trainer};
/// use wts_machine::MachineConfig;
///
/// let machine = MachineConfig::ppc7410();
/// let traces: Vec<_> = wts_core::testutil::learnable_suite(2)
///     .iter()
///     .flat_map(|p| collect_trace(p, &machine, &TraceOptions::default()))
///     .collect();
/// let config = TrainConfig::with_learner(0, LearnerKind::Stump);
/// let mut trainer = Trainer::new(&config);
/// for chunk in traces.chunks(7) {
///     trainer.absorb(chunk);
/// }
/// assert_eq!(trainer.fit(), train_filter(&traces, &config));
/// ```
#[derive(Debug, Clone)]
pub struct Trainer {
    config: TrainConfig,
    absorbed: Absorbed,
}

/// What a [`Trainer`] keeps of the records it absorbed.
#[derive(Debug, Clone)]
enum Absorbed {
    /// The stump reads only per-value class counts.
    Counts(StumpCounts),
    /// RIPPER and the tree read the labelled instances; `groups` numbers
    /// benchmarks as [`build_dataset`] does.
    Instances { data: Dataset, groups: BTreeMap<String, u32> },
}

impl Trainer {
    /// A trainer with nothing absorbed yet.
    pub fn new(config: &TrainConfig) -> Trainer {
        let absorbed = match config.learner {
            LearnerKind::Stump => Absorbed::Counts(StumpCounts::new(attr_names(), POS_LABEL, NEG_LABEL)),
            _ => {
                Absorbed::Instances { data: Dataset::new(attr_names(), POS_LABEL, NEG_LABEL), groups: BTreeMap::new() }
            }
        };
        Trainer { config: config.clone(), absorbed }
    }

    /// Labels `traces` at the configured threshold and absorbs the
    /// labelled ones, in order.
    pub fn absorb(&mut self, traces: &[TraceRecord]) {
        for r in traces {
            self.observe(&r.benchmark, &r.features, (r.est_unsched, r.est_sched));
        }
    }

    /// Labels one unit of `benchmark` from its features and estimated
    /// `(unsched, sched)` cycles, and absorbs it when labelled — what
    /// [`absorb`](Trainer::absorb) does per record, for a caller
    /// ([`TraceCollector::observe_into`](crate::TraceCollector::observe_into))
    /// that never builds one.
    pub(crate) fn observe(&mut self, benchmark: &str, features: &FeatureVector, est: (u64, u64)) {
        let label = self.config.label;
        match &mut self.absorbed {
            Absorbed::Counts(counts) => {
                if let Some(positive) = label.label_cycles(est) {
                    counts.push(features.as_slice(), positive);
                }
            }
            Absorbed::Instances { data, groups } => label_unit(data, groups, benchmark, features, est, label),
        }
    }

    /// Fits the configured learner on everything absorbed so far.
    ///
    /// In a debug build every trained artifact is run through the
    /// `wts-verify` model lint before it is returned — an incoherent
    /// rule set (shadowed rules, contradictory conjunctions, non-finite
    /// thresholds, demand-mask drift) panics here instead of misdeciding
    /// silently in production.
    pub fn fit(&self) -> LearnedFilter {
        let rules = match &self.absorbed {
            Absorbed::Counts(counts) => counts.rule_set(),
            Absorbed::Instances { data, .. } => self.config.learner.fit(data),
        };
        let filter = LearnedFilter::with_learner(rules, self.config.label.threshold_percent, self.config.filter_tag());
        #[cfg(debug_assertions)]
        crate::filter::assert_model_lints_clean(&filter, filter.name());
        filter
    }
}

/// Leave-one-benchmark-out cross-validation: for each benchmark in the
/// traces, trains a filter on the other benchmarks' instances and pairs
/// it with the held-out benchmark's name.
///
/// Returns `(benchmark, filter)` pairs in benchmark-name order.
///
/// The independent folds shard across `threads` scoped worker threads
/// (`0` = one per available core, `1` = serial). Every [`Learner`]
/// backend is deterministic and folds share nothing, so the result is
/// identical for every thread count.
pub fn train_loocv(traces: &[TraceRecord], config: &TrainConfig, threads: usize) -> Vec<(String, LearnedFilter)> {
    let (data, groups) = build_dataset(traces, config.label);
    let mut by_id: Vec<(u32, String)> = groups.iter().map(|(n, &g)| (g, n.clone())).collect();
    by_id.sort_unstable();
    let folds = leave_one_group_out(&data);

    let fit_fold = |fold: &wts_ripper::GroupFold| {
        let name =
            by_id.iter().find(|(g, _)| *g == fold.held_out).map(|(_, n)| n.clone()).expect("fold group must exist");
        let rules = config.learner.fit(&fold.train);
        (name, LearnedFilter::with_learner(rules, config.label.threshold_percent, config.filter_tag()))
    };

    let shards = crate::parallel::shard_map(&folds, threads, |slice| slice.iter().map(&fit_fold).collect::<Vec<_>>());
    let mut out: Vec<(String, LearnedFilter)> = shards.into_iter().flatten().collect();
    out.sort_by(|a, b| a.0.cmp(&b.0));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use wts_features::{FeatureKind, FeatureVector};
    use wts_ir::{BlockId, MethodId};

    /// Synthetic traces where big loady blocks benefit and small ones do
    /// not — across three "benchmarks".
    fn traces() -> Vec<TraceRecord> {
        let mut out = Vec::new();
        let mut k = 0u32;
        for bench in ["alpha", "beta", "gamma"] {
            for i in 0..120 {
                let big = i % 3 == 0;
                let bb_len = if big { 10.0 + (i % 7) as f64 } else { 2.0 + (i % 3) as f64 };
                let loads = if big { 0.4 } else { 0.05 };
                let mut v = [0.0; FeatureKind::COUNT];
                v[FeatureKind::BbLen.index()] = bb_len;
                v[FeatureKind::Loads.index()] = loads;
                v[FeatureKind::Integers.index()] = 0.5;
                let (unsched, sched) = if big { (100, 60) } else { (10, 10) };
                out.push(TraceRecord {
                    benchmark: bench.to_string(),
                    method: MethodId(k),
                    block: BlockId(k),
                    exec_count: 1,
                    features: FeatureVector::from_values(v),
                    est_unsched: unsched,
                    est_sched: sched,
                    hw_unsched: unsched,
                    hw_sched: sched,
                    sched_ns: 100,
                    feature_ns: 10,
                    sched_work: 20,
                    feature_work: 5,
                });
                k += 1;
            }
        }
        out
    }

    #[test]
    fn trained_filter_separates_big_loady_blocks() {
        let f = train_filter(&traces(), &TrainConfig::with_threshold(0));
        let mut big = [0.0; FeatureKind::COUNT];
        big[FeatureKind::BbLen.index()] = 12.0;
        big[FeatureKind::Loads.index()] = 0.4;
        big[FeatureKind::Integers.index()] = 0.5;
        let mut small = [0.0; FeatureKind::COUNT];
        small[FeatureKind::BbLen.index()] = 2.0;
        small[FeatureKind::Loads.index()] = 0.05;
        small[FeatureKind::Integers.index()] = 0.5;
        assert!(f.rules().predict(&big));
        assert!(!f.rules().predict(&small));
    }

    #[test]
    fn loocv_yields_one_filter_per_benchmark() {
        let folds = train_loocv(&traces(), &TrainConfig::with_threshold(0), 1);
        let names: Vec<&str> = folds.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["alpha", "beta", "gamma"]);
        for (_, f) in &folds {
            assert_eq!(f.threshold_percent(), 0);
            assert!(!f.rules().is_empty(), "learnable structure should produce rules");
        }
    }

    #[test]
    fn training_is_deterministic() {
        let t = traces();
        let c = TrainConfig::with_threshold(0);
        assert_eq!(train_filter(&t, &c), train_filter(&t, &c));
    }

    #[test]
    fn threshold_is_recorded() {
        let f = train_filter(&traces(), &TrainConfig::with_threshold(25));
        assert_eq!(f.threshold_percent(), 25);
    }

    #[test]
    fn every_portfolio_backend_separates_big_loady_blocks() {
        let t = traces();
        let mut big = [0.0; FeatureKind::COUNT];
        big[FeatureKind::BbLen.index()] = 12.0;
        big[FeatureKind::Loads.index()] = 0.4;
        big[FeatureKind::Integers.index()] = 0.5;
        let mut small = [0.0; FeatureKind::COUNT];
        small[FeatureKind::BbLen.index()] = 2.0;
        small[FeatureKind::Loads.index()] = 0.05;
        small[FeatureKind::Integers.index()] = 0.5;
        for learner in LearnerKind::portfolio() {
            let name = learner.name();
            let f = train_filter(&t, &TrainConfig::with_learner(0, learner));
            assert!(f.rules().predict(&big), "{name}");
            assert!(!f.rules().predict(&small), "{name}");
        }
    }

    #[test]
    fn filter_names_carry_the_backend_tag() {
        let t = traces();
        let stump = train_filter(&t, &TrainConfig::with_learner(10, LearnerKind::Stump));
        assert_eq!(stump.name(), "stump(t=10)");
        let tree = train_filter(&t, &TrainConfig::with_learner(10, LearnerKind::Tree));
        assert_eq!(tree.name(), "tree(d=4)(t=10)");
        let ripper = train_filter(&t, &TrainConfig::with_threshold(10));
        assert_eq!(ripper.name(), "L/N(t=10)", "the paper's artifact keeps its name");
    }

    #[test]
    fn superblock_scope_is_stamped_into_the_filter_tag() {
        use wts_ir::ScopeKind;
        let t = traces();
        let sb = train_filter(&t, &TrainConfig::with_threshold(10).with_scope(ScopeKind::Superblock(70)));
        assert_eq!(sb.name(), "L/N@sb70(t=10)");
        let block = train_filter(&t, &TrainConfig::with_threshold(10).with_scope(ScopeKind::Block));
        assert_eq!(block.name(), "L/N(t=10)", "block scope keeps the paper's name");
        // Same traces, same labels: scope tagging never changes the rules.
        assert_eq!(sb.rules(), block.rules());
        let folds = train_loocv(&t, &TrainConfig::with_threshold(0).with_scope(ScopeKind::Superblock(85)), 1);
        for (_, f) in &folds {
            assert_eq!(f.learner(), "L/N@sb85");
        }
    }

    #[test]
    fn sharded_loocv_is_identical_to_serial_for_every_backend() {
        let t = traces();
        for learner in LearnerKind::portfolio() {
            let config = TrainConfig::with_learner(0, learner);
            let serial = train_loocv(&t, &config, 1);
            let sharded = train_loocv(&t, &config, 7);
            assert_eq!(serial, sharded, "{}", config.learner.name());
        }
    }
}
