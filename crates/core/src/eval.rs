//! Evaluation of filters along the paper's three axes: classification
//! accuracy, scheduling (compile) time and application running time.
//!
//! Every function takes the deployed [`CompiledFilter`] — a trained
//! filter is lowered with [`LearnedFilter::compile`](crate::LearnedFilter::compile),
//! the fixed strategies are [`CompiledFilter::always`],
//! [`CompiledFilter::never`] and [`CompiledFilter::size_threshold`] — so
//! the decisions are the ones deployment makes, and the work accounting
//! is honest: per-condition (short-circuit aware) filter cost plus
//! demand-masked extraction cost, instead of flat constants.

use crate::policy::DecisionPolicy;
use crate::{CompiledFilter, LabelConfig, TraceRecord};
use std::time::Instant;
use wts_ripper::ConfusionMatrix;

/// Run-time classification counts (Table 6): how many blocks the filter
/// sends to the scheduler (`ls`) versus skips (`ns`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ClassCounts {
    /// Blocks predicted "schedule".
    pub ls: usize,
    /// Blocks predicted "don't schedule".
    pub ns: usize,
}

impl ClassCounts {
    /// Total blocks classified.
    pub fn total(&self) -> usize {
        self.ls + self.ns
    }
}

/// Scheduling-time measurement for a filter over a benchmark's blocks
/// (Figures 1a/2a/3a).
///
/// Per the paper (§3.1), filter cost — feature extraction plus heuristic
/// evaluation — is charged to scheduling time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EvalTimes {
    /// Wall-clock ns under the filter policy: features + filter for every
    /// block, plus scheduling for the selected blocks.
    pub filtered_ns: u64,
    /// Wall-clock ns of scheduling every block (the LS strategy).
    pub always_ns: u64,
    /// Deterministic work-unit analogue of `filtered_ns` (stable across
    /// runs; used by tests). Sum of `filter_work`, `feature_work` and
    /// the selected blocks' scheduling work.
    pub filtered_work: u64,
    /// Deterministic work-unit analogue of `always_ns`.
    pub always_work: u64,
    /// Work units the filter itself spent: conditions actually evaluated
    /// across all blocks, short-circuiting included
    /// ([`CompiledFilter::eval_work`]).
    pub filter_work: u64,
    /// Work units charged for demand-masked feature extraction — only
    /// the features the compiled filter reads are tallied
    /// ([`FeatureMask::extraction_work`](wts_features::FeatureMask::extraction_work)).
    pub feature_work: u64,
    /// Blocks the filter selected for scheduling.
    pub scheduled_blocks: usize,
    /// Total blocks.
    pub total_blocks: usize,
    /// Estimator cycles the selected blocks' scheduling recovers at run
    /// time, execution-weighted: `Σ exec · (est_unsched − est_sched)`
    /// over the scheduled blocks. Signed, because a scheduling decision
    /// the estimator dislikes must show up as a debit, not be clamped
    /// away. Feeds [`net_cycles`](EvalTimes::net_cycles).
    pub benefit_cycles: i64,
}

impl EvalTimes {
    /// Measured scheduling-time ratio `filtered / always` (the paper's
    /// Figure 1(a) bars; LS = 1.0, NS would be the pure filtering cost).
    ///
    /// Zero-denominator convention: when the always-schedule channel is
    /// zero (nothing to schedule — an empty or all-empty-blocks
    /// benchmark), the ratio is `1.0` if the filtered channel is also
    /// zero — the strategies are indistinguishable, not "the filter is
    /// free" — and `+∞` if the filter still spent time, so a nonzero
    /// filtering cost over zero scheduling work is never reported as
    /// cheap.
    pub fn measured_ratio(&self) -> f64 {
        ratio(self.filtered_ns, self.always_ns)
    }

    /// Deterministic work-unit ratio (same quantity, stable across
    /// runs), with the same zero-denominator convention as
    /// [`measured_ratio`](EvalTimes::measured_ratio).
    pub fn work_ratio(&self) -> f64 {
        ratio(self.filtered_work, self.always_work)
    }

    /// The filter's own overhead — extraction plus rule evaluation — as
    /// a fraction of the always-schedule work. The paper's premise is
    /// that this is near zero; the cross-machine filter-cost table
    /// prints it per machine. A filter that spent nothing over an empty
    /// corpus has zero overhead; one that spent work where there was no
    /// scheduling to do reports `+∞`, mirroring the
    /// [`work_ratio`](EvalTimes::work_ratio) convention.
    pub fn overhead_fraction(&self) -> f64 {
        let overhead = self.filter_work + self.feature_work;
        if self.always_work == 0 {
            return if overhead == 0 { 0.0 } else { f64::INFINITY };
        }
        overhead as f64 / self.always_work as f64
    }

    /// The expected net application cycles this deployment earns: run
    /// time recovered by the scheduled blocks minus the whole filtered
    /// compile spend ([`filtered_work`](EvalTimes::filtered_work):
    /// extraction + filter conditions + scheduling of selected blocks)
    /// priced at `cycles_per_work` application cycles per work unit —
    /// the same operating point a
    /// [`BenefitModel`](crate::BenefitModel) deploys with. The
    /// calibration table compares policies on exactly this number.
    pub fn net_cycles(&self, cycles_per_work: f64) -> f64 {
        self.benefit_cycles as f64 - cycles_per_work * self.filtered_work as f64
    }

    /// Accumulates another benchmark's measurement into this one (used
    /// by the per-machine aggregation of the filter-cost table).
    pub fn accumulate(&mut self, other: &EvalTimes) {
        self.filtered_ns += other.filtered_ns;
        self.always_ns += other.always_ns;
        self.filtered_work += other.filtered_work;
        self.always_work += other.always_work;
        self.filter_work += other.filter_work;
        self.feature_work += other.feature_work;
        self.scheduled_blocks += other.scheduled_blocks;
        self.total_blocks += other.total_blocks;
        self.benefit_cycles += other.benefit_cycles;
    }
}

/// `filtered / always` with the documented zero-denominator convention:
/// `0/0 = 1.0` (indistinguishable strategies), `x/0 = +∞` for `x > 0`
/// (the filter is not free just because there was nothing to schedule).
fn ratio(filtered: u64, always: u64) -> f64 {
    if always == 0 {
        return if filtered == 0 { 1.0 } else { f64::INFINITY };
    }
    filtered as f64 / always as f64
}

/// The filter's decision for every record.
fn decisions<'a>(traces: &'a [TraceRecord], filter: &'a CompiledFilter) -> impl Iterator<Item = bool> + 'a {
    traces.iter().map(|r| filter.decide(r.features.as_slice()))
}

/// Classification confusion of `filter` against the threshold-`t` labels
/// of `traces` (Table 3). Dropped instances (benefit within `(0, t]`) are
/// excluded, exactly as they are excluded from the paper's test sets.
pub fn classification_matrix(traces: &[TraceRecord], filter: &CompiledFilter, label: LabelConfig) -> ConfusionMatrix {
    let mut m = ConfusionMatrix::default();
    for (r, predicted) in traces.iter().zip(decisions(traces, filter)) {
        if let Some(actual) = label.label(r) {
            m.record(actual, predicted);
        }
    }
    m
}

/// Run-time classification counts over *all* blocks (Table 6).
pub fn runtime_classification(traces: &[TraceRecord], filter: &CompiledFilter) -> ClassCounts {
    let mut c = ClassCounts::default();
    for predicted in decisions(traces, filter) {
        if predicted {
            c.ls += 1;
        } else {
            c.ns += 1;
        }
    }
    c
}

/// Predicted (cheap-estimator) execution time under `filter`, as a
/// percentage of the never-schedule time (Table 4: smaller is better,
/// 100 = no change).
pub fn predicted_time_ratio(traces: &[TraceRecord], filter: &CompiledFilter) -> f64 {
    time_ratio(traces, filter, |r| (r.est_unsched, r.est_sched)) * 100.0
}

/// "Measured" (detailed-simulator) application running time under
/// `filter`, as a fraction of the never-schedule time (Figures 1b/2b/3b:
/// smaller than 1 is an improvement).
pub fn app_time_ratio(traces: &[TraceRecord], filter: &CompiledFilter) -> f64 {
    time_ratio(traces, filter, |r| (r.hw_unsched, r.hw_sched))
}

fn time_ratio(traces: &[TraceRecord], filter: &CompiledFilter, cycles: impl Fn(&TraceRecord) -> (u64, u64)) -> f64 {
    let mut base = 0.0;
    let mut with = 0.0;
    for (r, scheduled) in traces.iter().zip(decisions(traces, filter)) {
        let (unsched, sched) = cycles(r);
        let w = r.exec_count as f64;
        base += w * unsched as f64;
        with += w * if scheduled { sched as f64 } else { unsched as f64 };
    }
    if base == 0.0 {
        return 1.0;
    }
    with / base
}

/// Scheduling-time cost of `filter` over a benchmark's trace
/// (Figures 1a/2a/3a). The filter's own evaluation is timed here and
/// charged to the filtered strategy, as the paper charges it (§3.1).
///
/// The work channel charges what the deployed pass would actually do
/// per block: demand-masked feature extraction (only the categories the
/// rules read) plus the conditions evaluated until the decision
/// short-circuits — so a one-condition rule set is cheaper than a
/// forty-condition one, and a filter that reads two features is cheaper
/// than one that reads twelve.
///
/// The schedule/skip call is the `policy`'s. Scoring rides the same
/// short-circuit walk as the boolean decision, so
/// [`HardThreshold`](DecisionPolicy::HardThreshold) schedules exactly
/// the units a rule fires on; a cost-sensitive policy changes only which
/// units are scheduled, and the
/// [`benefit_cycles`](EvalTimes::benefit_cycles) /
/// [`net_cycles`](EvalTimes::net_cycles) channels report whether those
/// calls were worth it.
pub fn sched_time_ratio(traces: &[TraceRecord], filter: &CompiledFilter, policy: &DecisionPolicy) -> EvalTimes {
    let mut out = EvalTimes { total_blocks: traces.len(), ..EvalTimes::default() };
    for r in traces {
        let t0 = Instant::now();
        let (decision, unit) = policy.decide_unit(filter, &r.features, r.features.bb_len() as u64, r.exec_count);
        let filter_ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);

        out.always_ns += r.sched_ns;
        out.always_work += r.sched_work;
        out.filtered_ns += r.feature_ns + filter_ns;
        out.filter_work += unit.filter_work;
        out.feature_work += unit.extraction_work;
        out.filtered_work += unit.extraction_work + unit.filter_work;
        if decision {
            out.scheduled_blocks += 1;
            out.filtered_ns += r.sched_ns;
            out.filtered_work += r.sched_work;
            out.benefit_cycles += r.exec_count as i64 * (r.est_unsched as i64 - r.est_sched as i64);
        }
    }
    out
}

/// The oracle-best-per-unit row of the calibration table: with the true
/// per-unit channels in hand, schedule exactly the units whose
/// execution-weighted estimator savings beat their own measured
/// scheduling work priced at `cycles_per_work`. No filter runs — zero
/// extraction and condition work is charged — so this is the
/// non-deployable upper bound on [`EvalTimes::net_cycles`] any policy
/// over these traces can reach.
pub fn oracle_times(traces: &[TraceRecord], cycles_per_work: f64) -> EvalTimes {
    let mut out = EvalTimes { total_blocks: traces.len(), ..EvalTimes::default() };
    for r in traces {
        let benefit = r.exec_count as i64 * (r.est_unsched as i64 - r.est_sched as i64);
        out.always_ns += r.sched_ns;
        out.always_work += r.sched_work;
        if benefit as f64 > cycles_per_work * r.sched_work as f64 {
            out.scheduled_blocks += 1;
            out.filtered_ns += r.sched_ns;
            out.filtered_work += r.sched_work;
            out.benefit_cycles += benefit;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use wts_features::{FeatureKind, FeatureVector};
    use wts_ir::{BlockId, MethodId};

    fn fv(bb_len: f64, loads: f64) -> FeatureVector {
        let mut v = [0.0; FeatureKind::COUNT];
        v[FeatureKind::BbLen.index()] = bb_len;
        v[FeatureKind::Loads.index()] = loads;
        FeatureVector::from_values(v)
    }

    fn rec(bb_len: f64, exec: u64, est: (u64, u64), hw: (u64, u64)) -> TraceRecord {
        let mut v = [0.0; FeatureKind::COUNT];
        v[FeatureKind::BbLen.index()] = bb_len;
        TraceRecord {
            benchmark: "b".into(),
            method: MethodId(0),
            block: BlockId(0),
            exec_count: exec,
            features: FeatureVector::from_values(v),
            est_unsched: est.0,
            est_sched: est.1,
            hw_unsched: hw.0,
            hw_sched: hw.1,
            sched_ns: 1000,
            feature_ns: 100,
            sched_work: 50,
            feature_work: 10,
        }
    }

    fn traces() -> Vec<TraceRecord> {
        vec![
            rec(10.0, 100, (100, 80), (100, 95)), // big block, benefits
            rec(2.0, 100, (10, 10), (10, 10)),    // small block, no benefit
            rec(12.0, 1, (50, 40), (50, 48)),     // big but cold
        ]
    }

    #[test]
    fn classification_against_labels() {
        let t = traces();
        let m = classification_matrix(&t, &CompiledFilter::size_threshold(5), LabelConfig::new(0));
        // labels: LS, NS, LS; filter predicts: LS, NS, LS.
        assert_eq!((m.tp, m.tn, m.fp, m.fn_), (2, 1, 0, 0));
        let bad = classification_matrix(&t, &CompiledFilter::never(), LabelConfig::new(0));
        assert_eq!(bad.fn_, 2);
    }

    #[test]
    fn dropped_instances_are_excluded() {
        // 10% improvement at t=20 is dropped.
        let t = vec![rec(8.0, 1, (100, 90), (100, 95))];
        let m = classification_matrix(&t, &CompiledFilter::always(), LabelConfig::new(20));
        assert_eq!(m.total(), 0);
    }

    #[test]
    fn runtime_counts_cover_all_blocks() {
        let c = runtime_classification(&traces(), &CompiledFilter::size_threshold(5));
        assert_eq!(c.ls, 2);
        assert_eq!(c.ns, 1);
        assert_eq!(c.total(), 3);
    }

    #[test]
    fn predicted_ratio_bounds() {
        let t = traces();
        let ls = predicted_time_ratio(&t, &CompiledFilter::always());
        let ns = predicted_time_ratio(&t, &CompiledFilter::never());
        let f = predicted_time_ratio(&t, &CompiledFilter::size_threshold(5));
        assert_eq!(ns, 100.0);
        assert!(ls < 100.0);
        assert!(f >= ls && f <= ns, "filter lies between the fixed strategies here");
    }

    #[test]
    fn app_ratio_weighted_by_exec_count() {
        let t = traces();
        let ls = app_time_ratio(&t, &CompiledFilter::always());
        // hot blocks: 100*(95 vs 100) and 100*(10 vs 10); cold 1*(48 vs 50).
        let expect = (100.0 * 95.0 + 100.0 * 10.0 + 48.0) / (100.0 * 100.0 + 100.0 * 10.0 + 50.0);
        assert!((ls - expect).abs() < 1e-9);
        assert_eq!(app_time_ratio(&t, &CompiledFilter::never()), 1.0);
    }

    #[test]
    fn sched_time_work_ratio_is_deterministic_and_sensible() {
        let t = traces();
        let e = sched_time_ratio(&t, &CompiledFilter::size_threshold(5), &DecisionPolicy::HardThreshold);
        assert_eq!(e.total_blocks, 3);
        assert_eq!(e.scheduled_blocks, 2);
        // work: always = 150; the size filter reads only bbLen (free
        // extraction) and evaluates one condition per block, so
        // filtered = 3*(0+1) + 2*50 = 103.
        assert_eq!(e.always_work, 150);
        assert_eq!(e.filter_work, 3);
        assert_eq!(e.feature_work, 0);
        assert_eq!(e.filtered_work, 103);
        assert!((e.work_ratio() - 103.0 / 150.0).abs() < 1e-12);
        assert!((e.overhead_fraction() - 3.0 / 150.0).abs() < 1e-12);
        let never = sched_time_ratio(&t, &CompiledFilter::never(), &DecisionPolicy::HardThreshold);
        assert!(never.work_ratio() < e.work_ratio(), "scheduling nothing is cheapest");
        assert_eq!(never.scheduled_blocks, 0);
        assert_eq!(never.filtered_work, 0, "NS reads no features and evaluates no conditions");
    }

    #[test]
    fn larger_rule_sets_cost_strictly_more_filtered_work() {
        // A 1-condition set versus a 5-condition, wider-demand set that
        // reaches the same decisions: per-condition accounting must
        // separate them (the old flat FILTER_EVAL_WORK = 4 did not).
        use wts_ripper::{Condition, Op, Rule, RuleSet};
        let attr_names: Vec<String> = FeatureKind::ALL.iter().map(|k| k.rule_name().to_string()).collect();
        let cond = |kind: FeatureKind, op, threshold| Condition { attr: kind.index(), op, threshold };
        let small = CompiledFilter::from_rule_set(
            &RuleSet::new(
                attr_names.clone(),
                "list",
                "orig",
                vec![Rule::from_conditions(vec![cond(FeatureKind::BbLen, Op::Ge, 5.0)])],
                vec![],
                Default::default(),
            ),
            "small",
        );
        let big = CompiledFilter::from_rule_set(
            &RuleSet::new(
                attr_names,
                "list",
                "orig",
                vec![Rule::from_conditions(vec![
                    cond(FeatureKind::BbLen, Op::Ge, 5.0),
                    cond(FeatureKind::Loads, Op::Le, 1.0),
                    cond(FeatureKind::Stores, Op::Le, 1.0),
                    cond(FeatureKind::Calls, Op::Le, 1.0),
                    cond(FeatureKind::Floats, Op::Le, 1.0),
                ])],
                vec![],
                Default::default(),
            ),
            "big",
        );
        let t = traces();
        let es = sched_time_ratio(&t, &small, &DecisionPolicy::HardThreshold);
        let eb = sched_time_ratio(&t, &big, &DecisionPolicy::HardThreshold);
        assert_eq!(es.scheduled_blocks, eb.scheduled_blocks, "same decisions");
        assert!(eb.filter_work > es.filter_work, "more conditions evaluated: {} vs {}", eb.filter_work, es.filter_work);
        assert!(eb.feature_work > es.feature_work, "wider demand mask costs more extraction");
        assert!(eb.filtered_work > es.filtered_work, "bigger rule set must report strictly more filtered work");
        // And the counting is short-circuit aware: blocks failing the
        // first condition never pay for the rest.
        assert_eq!(big.eval_work(fv(2.0, 0.0).as_slice()), 1, "bbLen >= 5 fails first, rest skipped");
        assert_eq!(big.eval_work(fv(9.0, 0.0).as_slice()), 5, "all five conditions hold");
    }

    #[test]
    fn accumulate_sums_all_channels() {
        let t = traces();
        let a = sched_time_ratio(&t, &CompiledFilter::size_threshold(5), &DecisionPolicy::HardThreshold);
        let mut sum = a;
        sum.accumulate(&a);
        assert_eq!(sum.always_work, 2 * a.always_work);
        assert_eq!(sum.filter_work, 2 * a.filter_work);
        assert_eq!(sum.total_blocks, 2 * a.total_blocks);
        assert!((sum.work_ratio() - a.work_ratio()).abs() < 1e-12, "ratios are scale-invariant");
    }

    #[test]
    fn empty_traces_do_not_divide_by_zero() {
        // Both channels empty: the strategies are indistinguishable, so
        // every ratio is 1.0 (not 0.0, which would read "filtering is
        // free") and the overhead is genuinely zero.
        let e = sched_time_ratio(&[], &CompiledFilter::always(), &DecisionPolicy::HardThreshold);
        assert_eq!(e.measured_ratio(), 1.0);
        assert_eq!(e.work_ratio(), 1.0);
        assert_eq!(e.overhead_fraction(), 0.0);
        assert_eq!(app_time_ratio(&[], &CompiledFilter::always()), 1.0);
        assert_eq!(predicted_time_ratio(&[], &CompiledFilter::always()), 100.0);
    }

    #[test]
    fn ratio_edge_cases_are_pinned() {
        // The PR-4 convention, spelled out channel by channel:
        // 0/0 = 1.0 (indistinguishable), x/0 = +inf (never free).
        let zero = EvalTimes::default();
        assert_eq!(zero.work_ratio(), 1.0);
        assert_eq!(zero.measured_ratio(), 1.0);
        let spent = EvalTimes { filtered_work: 7, filtered_ns: 7, ..EvalTimes::default() };
        assert_eq!(spent.work_ratio(), f64::INFINITY);
        assert_eq!(spent.measured_ratio(), f64::INFINITY);
        let normal = EvalTimes { filtered_work: 50, always_work: 100, ..EvalTimes::default() };
        assert_eq!(normal.work_ratio(), 0.5);
    }

    #[test]
    fn accumulating_an_infinite_side_recovers_a_finite_ratio() {
        // One benchmark had nothing to schedule but the filter still
        // spent work (ratio +inf); another was normal. The aggregate
        // must charge the stranded spend against the real denominator —
        // finite again, and strictly worse than the normal benchmark
        // alone.
        let stranded = EvalTimes { filtered_work: 10, filter_work: 10, ..EvalTimes::default() };
        assert_eq!(stranded.work_ratio(), f64::INFINITY);
        assert_eq!(stranded.overhead_fraction(), f64::INFINITY);
        let normal = EvalTimes { filtered_work: 50, always_work: 100, filter_work: 5, ..EvalTimes::default() };
        let mut sum = normal;
        sum.accumulate(&stranded);
        assert_eq!(sum.always_work, 100);
        assert_eq!(sum.filtered_work, 60);
        assert!((sum.work_ratio() - 0.6).abs() < 1e-12);
        assert!(sum.work_ratio() > normal.work_ratio());
        assert!((sum.overhead_fraction() - 0.15).abs() < 1e-12);
        // Accumulating the other way is the same (order-independent).
        let mut other = stranded;
        other.accumulate(&normal);
        assert_eq!(other, sum);
    }

    #[test]
    fn accumulate_sums_benefit_and_counts() {
        let a = EvalTimes { benefit_cycles: 40, scheduled_blocks: 2, total_blocks: 3, ..EvalTimes::default() };
        let b = EvalTimes { benefit_cycles: -15, scheduled_blocks: 1, total_blocks: 4, ..EvalTimes::default() };
        let mut sum = a;
        sum.accumulate(&b);
        assert_eq!(sum.benefit_cycles, 25);
        assert_eq!(sum.scheduled_blocks, 3);
        assert_eq!(sum.total_blocks, 7);
    }

    #[test]
    fn benefit_cycles_weighs_scheduled_blocks_by_execution() {
        let t = traces();
        let e = sched_time_ratio(&t, &CompiledFilter::size_threshold(5), &DecisionPolicy::HardThreshold);
        // Scheduled: the hot big block (100·(100−80)) and the cold one
        // (1·(50−40)); the small no-benefit block is skipped.
        assert_eq!(e.benefit_cycles, 100 * 20 + 10);
        assert!((e.net_cycles(0.0) - e.benefit_cycles as f64).abs() < 1e-12);
        assert!(e.net_cycles(1.0) < e.net_cycles(0.0), "pricing work in can only lower the net");
        let ns = sched_time_ratio(&t, &CompiledFilter::never(), &DecisionPolicy::HardThreshold);
        assert_eq!(ns.benefit_cycles, 0);
        assert_eq!(ns.net_cycles(5.0), 0.0, "scheduling nothing and spending nothing nets zero");
    }

    #[test]
    fn expected_benefit_skips_cold_and_worthless_units() {
        use crate::policy::BenefitModel;
        let t = traces();
        // A generous operating point schedules the hot beneficial block
        // but skips the cold one (gain 10 < quadratic sched estimate).
        let policy = DecisionPolicy::ExpectedBenefit(BenefitModel { saved_per_inst: 2.0, cycles_per_work: 1.0 });
        let e = sched_time_ratio(&t, &CompiledFilter::always(), &policy);
        // LS scores every unit at probability 1, so the
        // policy keeps both hot blocks (it cannot see that one has no
        // benefit) but drops the cold one: gain 2·12·1 = 24 is under the
        // quadratic scheduling estimate for 12 instructions.
        assert_eq!(e.scheduled_blocks, 2, "the cold block is not worth its spend");
        assert_eq!(e.benefit_cycles, 100 * 20);
        // The hard policy under LS schedules everything, including the
        // units whose compile spend outweighs their benefit.
        let hard = sched_time_ratio(&t, &CompiledFilter::always(), &DecisionPolicy::HardThreshold);
        assert_eq!(hard.scheduled_blocks, 3);
        assert!(e.net_cycles(1.0) > hard.net_cycles(1.0), "cost-sensitivity must beat schedule-everything here");
    }

    #[test]
    fn oracle_is_an_upper_bound_and_charges_no_filter() {
        let t = traces();
        let oracle = oracle_times(&t, 1.0);
        assert_eq!(oracle.filter_work + oracle.feature_work, 0, "the oracle needs no filter");
        assert_eq!(oracle.total_blocks, 3);
        // Schedules the hot block (2000 > 50) but not the cold one
        // (10 < 50) or the no-benefit one.
        assert_eq!(oracle.scheduled_blocks, 1);
        assert_eq!(oracle.benefit_cycles, 2000);
        for filter in [CompiledFilter::size_threshold(5), CompiledFilter::always(), CompiledFilter::never()] {
            let e = sched_time_ratio(&t, &filter, &DecisionPolicy::HardThreshold);
            assert!(oracle.net_cycles(1.0) >= e.net_cycles(1.0), "{}", filter.name());
        }
    }

    #[test]
    fn zero_denominator_ratio_never_reports_the_filter_as_free() {
        // Regression: an all-empty-blocks benchmark has zero
        // always-schedule work, and `measured_ratio`/`work_ratio` used
        // to return 0.0 — "the filter is free" — even though the
        // filtered channel had spent real extraction + evaluation work.
        let mut r = rec(0.0, 1, (0, 0), (0, 0));
        r.sched_ns = 0;
        r.sched_work = 0;
        let e = sched_time_ratio(&[r], &CompiledFilter::size_threshold(5), &DecisionPolicy::HardThreshold);
        assert_eq!(e.always_work, 0, "nothing to schedule");
        assert!(e.filtered_work > 0, "the filter still paid to decide");
        assert_eq!(e.work_ratio(), f64::INFINITY, "nonzero spend over zero scheduling work is not free");
        assert_eq!(e.measured_ratio(), f64::INFINITY);
        assert_eq!(e.overhead_fraction(), f64::INFINITY);
        // The same channels with nothing spent collapse to the 0/0 = 1.0
        // convention.
        let idle = EvalTimes::default();
        assert_eq!(idle.measured_ratio(), 1.0);
        assert_eq!(idle.work_ratio(), 1.0);
    }
}
