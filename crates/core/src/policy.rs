//! The decision layer: from calibrated scores to schedule/skip calls.
//!
//! The paper's filter commits to a *hard* operating point: a unit is
//! scheduled iff some induced rule fires, with the labeling threshold
//! `t` swept offline. Its own threshold-sensitivity observations (§4.4)
//! show the operating point matters, and the fuzzy-scheduling and
//! portfolio-design lines of work argue for graded, cost-aware
//! decisions. This module is that seam, refactored out of the boolean
//! `decide` call:
//!
//! * the compiled engine emits a calibrated
//!   [`FilterScore`](crate::FilterScore) per unit — which rule fired and
//!   the Laplace-smoothed probability that scheduling pays off;
//! * a [`DecisionPolicy`] turns the score plus the unit's *economics*
//!   ([`UnitEconomics`]: size, hotness, and the compile-time work
//!   already sunk into deciding) into the schedule/skip call.
//!
//! [`DecisionPolicy::HardThreshold`] reproduces the legacy boolean seam
//! bit-for-bit — it looks only at whether a rule fired, never at the
//! probability — so every pinned compiled≡interpreted property keeps
//! holding. [`DecisionPolicy::ExpectedBenefit`] weighs
//! `P(improvement) × estimated cycles saved` against the measured
//! filter + extraction + scheduling spend, converted through the
//! deploy-time tunable operating point
//! [`BenefitModel::cycles_per_work`].

use crate::engine::{CompiledFilter, FilterScore};
use crate::trace::{sched_work_proxy, TraceRecord};
use std::fmt;
use wts_features::FeatureVector;

/// The calibrated cycle economics of scheduling on one machine: how
/// many estimator cycles one execution of one scheduled instruction
/// saves on average, and what one unit of compile-time work is worth in
/// application cycles.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BenefitModel {
    /// Estimator cycles saved per instruction per execution, averaged
    /// over the training units scheduling actually improved. Calibrated
    /// per machine by [`BenefitModel::calibrate`].
    pub saved_per_inst: f64,
    /// The operating point: application cycles one unit of compile-time
    /// work (filter conditions, masked extraction, scheduling proxy) is
    /// worth. Larger values make the policy stingier — a JIT under
    /// compile-time pressure deploys a higher value than an ahead-of-time
    /// build. Tunable at deploy time without retraining anything.
    pub cycles_per_work: f64,
}

impl BenefitModel {
    /// Calibrates the per-machine savings rate from training traces:
    /// `saved_per_inst` is total estimator cycles recovered over total
    /// instructions, summed across the units list scheduling improved.
    /// Traces from the held-out benchmark must be excluded by the caller
    /// (the LOOCV protocol), which is why this takes an iterator.
    ///
    /// A corpus where scheduling never helps calibrates to a zero rate —
    /// the policy then schedules nothing, which is exactly right.
    pub fn calibrate<'a>(traces: impl IntoIterator<Item = &'a TraceRecord>, cycles_per_work: f64) -> BenefitModel {
        let mut saved = 0u64;
        let mut insts = 0u64;
        for r in traces {
            if r.est_sched < r.est_unsched {
                saved += r.est_unsched - r.est_sched;
                insts += r.features.bb_len() as u64;
            }
        }
        let saved_per_inst = if insts == 0 { 0.0 } else { saved as f64 / insts as f64 };
        BenefitModel { saved_per_inst, cycles_per_work }
    }

    /// Deployable estimate of the scheduler's work on a unit of `insts`
    /// instructions: the deterministic scheduling proxy with the
    /// dependence-edge count approximated as `2n`, since the real DAG is
    /// not built until the unit is already being scheduled.
    fn estimated_sched_work(insts: u64) -> u64 {
        sched_work_proxy(insts, 2 * insts)
    }

    /// Expected net application cycles of scheduling this unit:
    /// `P(improvement) × saved_per_inst × insts × exec_count` minus the
    /// compile spend (filter conditions + masked extraction + estimated
    /// scheduling work) priced at `cycles_per_work`.
    fn expected_net(&self, probability: f64, unit: &UnitEconomics) -> f64 {
        let gain = probability * self.saved_per_inst * unit.insts as f64 * unit.exec_count as f64;
        let work = unit.filter_work + unit.extraction_work + BenefitModel::estimated_sched_work(unit.insts);
        gain - self.cycles_per_work * work as f64
    }
}

/// What a deployed pass knows about one unit at decision time — all of
/// it available *before* the scheduler runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct UnitEconomics {
    /// Instructions in the unit (the `bbLen` feature; total trace length
    /// at superblock scope).
    pub insts: u64,
    /// Profile execution count (trace weight at superblock scope).
    pub exec_count: u64,
    /// Filter conditions actually evaluated for this unit
    /// (short-circuit aware).
    pub filter_work: u64,
    /// Demand-masked feature-extraction work already spent.
    pub extraction_work: u64,
}

/// How a deployment turns a unit's [`FilterScore`] into the
/// schedule/skip call.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum DecisionPolicy {
    /// The paper's operating point: schedule iff a rule fired. Looks
    /// only at [`FilterScore::fired`] — never at the probability — so a
    /// deployment under this policy is bit-identical to the pre-score
    /// boolean engine, pinned by the property suites.
    #[default]
    HardThreshold,
    /// Schedule iff the expected net benefit is positive:
    /// `P(improvement) × estimated cycles saved` beats the measured
    /// filter + extraction + scheduling spend at the model's operating
    /// point. Uses the calibrated probability whether or not a rule
    /// fired, so a hot unit in the reject region can still be scheduled
    /// on its residual positive rate, and a cold unit a weak rule fired
    /// on can be skipped.
    ExpectedBenefit(BenefitModel),
}

impl DecisionPolicy {
    /// The standard expected-benefit policy: calibrate the savings rate
    /// on `traces` at operating point `cycles_per_work`.
    pub fn expected_benefit<'a>(
        traces: impl IntoIterator<Item = &'a TraceRecord>,
        cycles_per_work: f64,
    ) -> DecisionPolicy {
        DecisionPolicy::ExpectedBenefit(BenefitModel::calibrate(traces, cycles_per_work))
    }

    /// The schedule/skip call for one unit.
    #[inline]
    pub fn decide(&self, score: FilterScore, unit: &UnitEconomics) -> bool {
        match self {
            DecisionPolicy::HardThreshold => score.decision(),
            DecisionPolicy::ExpectedBenefit(model) => model.expected_net(score.probability, unit) > 0.0,
        }
    }

    /// Scores one unit's features through `filter`'s short-circuit walk,
    /// prices the unit, and decides: the score → economics → decide
    /// sequence every deployed pass and every trace replay runs. Returns
    /// the call and the economics it was made on (conditions evaluated,
    /// demand-masked extraction work).
    #[inline]
    pub(crate) fn decide_unit(
        &self,
        filter: &CompiledFilter,
        features: &FeatureVector,
        insts: u64,
        exec_count: u64,
    ) -> (bool, UnitEconomics) {
        let (score, conditions) = filter.score_counted(features.as_slice());
        let unit = UnitEconomics {
            insts,
            exec_count,
            filter_work: conditions,
            extraction_work: filter.extraction_work(insts),
        };
        (self.decide(score, &unit), unit)
    }
}

impl fmt::Display for DecisionPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecisionPolicy::HardThreshold => write!(f, "hard"),
            DecisionPolicy::ExpectedBenefit(m) => {
                write!(f, "eb(rate={:.3}, c={})", m.saved_per_inst, m.cycles_per_work)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wts_features::{FeatureKind, FeatureVector};
    use wts_ir::{BlockId, MethodId};

    fn rec(bb_len: f64, exec: u64, est: (u64, u64)) -> TraceRecord {
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
            hw_unsched: est.0,
            hw_sched: est.1,
            sched_ns: 0,
            feature_ns: 0,
            sched_work: 0,
            feature_work: 0,
        }
    }

    fn fired(p: f64) -> FilterScore {
        FilterScore { fired: Some(0), probability: p }
    }

    fn rejected(p: f64) -> FilterScore {
        FilterScore { fired: None, probability: p }
    }

    fn unit(insts: u64, exec: u64) -> UnitEconomics {
        UnitEconomics { insts, exec_count: exec, filter_work: 2, extraction_work: insts }
    }

    #[test]
    fn calibrate_averages_only_improved_units() {
        let t = vec![rec(10.0, 1, (100, 80)), rec(5.0, 1, (50, 50)), rec(10.0, 1, (100, 90))];
        let m = BenefitModel::calibrate(&t, 1.0);
        // (20 + 10) cycles recovered over (10 + 10) instructions.
        assert!((m.saved_per_inst - 1.5).abs() < 1e-12);
        assert_eq!(m.cycles_per_work, 1.0);
        let none = BenefitModel::calibrate(&[rec(5.0, 1, (50, 50))], 1.0);
        assert_eq!(none.saved_per_inst, 0.0);
        let empty: Vec<TraceRecord> = Vec::new();
        assert_eq!(BenefitModel::calibrate(&empty, 2.0).saved_per_inst, 0.0);
    }

    #[test]
    fn hard_threshold_follows_the_fired_rule_only() {
        let p = DecisionPolicy::HardThreshold;
        let u = unit(10, 1000);
        // Probability is ignored in both directions.
        assert!(p.decide(fired(0.01), &u));
        assert!(!p.decide(rejected(0.99), &u));
    }

    #[test]
    fn expected_benefit_weighs_hotness_against_spend() {
        let model = BenefitModel { saved_per_inst: 1.0, cycles_per_work: 1.0 };
        let p = DecisionPolicy::ExpectedBenefit(model);
        // Hot unit, confident rule: gain 0.9·1.0·10·1000 = 9000 dwarfs
        // the ~188-unit spend.
        assert!(p.decide(fired(0.9), &unit(10, 1000)));
        // The same unit executed once: gain 9 < spend.
        assert!(!p.decide(fired(0.9), &unit(10, 1)));
        // A hot unit no rule fired on is scheduled off its residual
        // positive rate — the graded behaviour the hard policy cannot
        // express.
        assert!(p.decide(rejected(0.2), &unit(10, 1000)));
        assert!(!p.decide(rejected(0.2), &unit(10, 1)));
    }

    #[test]
    fn operating_point_tunes_stinginess_monotonically() {
        let u = unit(8, 40);
        let s = fired(0.6);
        let mut last = true;
        for c in [0.0, 0.5, 1.0, 2.0, 8.0, 64.0] {
            let p = DecisionPolicy::ExpectedBenefit(BenefitModel { saved_per_inst: 1.0, cycles_per_work: c });
            let d = p.decide(s, &u);
            assert!(last || !d, "raising cycles_per_work can only flip schedule -> skip");
            last = d;
        }
        assert!(!last, "a punitive operating point schedules nothing");
    }

    #[test]
    fn zero_rate_schedules_nothing() {
        let p = DecisionPolicy::expected_benefit(&[rec(5.0, 1, (50, 50))], 1.0);
        assert!(!p.decide(fired(0.99), &unit(50, 1_000_000)));
    }

    #[test]
    fn display_names_the_operating_point() {
        assert_eq!(DecisionPolicy::HardThreshold.to_string(), "hard");
        let eb = DecisionPolicy::ExpectedBenefit(BenefitModel { saved_per_inst: 1.5, cycles_per_work: 2.0 });
        assert_eq!(eb.to_string(), "eb(rate=1.500, c=2)");
    }

    #[test]
    fn estimated_sched_work_mirrors_the_proxy_shape() {
        assert_eq!(BenefitModel::estimated_sched_work(0), 16);
        assert_eq!(BenefitModel::estimated_sched_work(10), 16 + 60 + 100);
        // Quadratic: big units are expensive to schedule.
        assert!(BenefitModel::estimated_sched_work(100) > 50 * BenefitModel::estimated_sched_work(4));
    }
}
