//! The decision layer's correctness contract: scoring is the boolean
//! engine plus calibration — a [`HardThreshold`](DecisionPolicy) deployment
//! is bit-identical to the legacy `decide` path on random tables and on
//! every trained LOOCV fold across every registry machine, learner
//! backend, and scheduling scope.

#[path = "support/arb.rs"]
mod arb;

use arb::{arb_rule_set, arb_vector};
use proptest::prelude::*;
use wts_core::{
    collect_trace, filtered_schedule_pass, sched_time_ratio, CompiledFilter, DecisionPolicy, Experiment, FilteredPass,
    Learner, LearnerKind, TimingMode, TraceOptions, UnitEconomics,
};
use wts_features::FeatureKind;
use wts_ir::ScopeKind;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn scoring_never_changes_the_decision_or_the_work(rs in arb_rule_set(),
                                                      vectors in prop::collection::vec(arb_vector(), 1..20)) {
        let compiled = wts_core::CompiledFilter::from_rule_set(&rs, "L/N");
        let hard = DecisionPolicy::HardThreshold;
        for v in &vectors {
            let decision = compiled.decide(v.as_slice());
            let (score, work) = compiled.score_counted(v.as_slice());
            prop_assert_eq!(decision, score.decision(), "scoring rides the same short-circuit walk");
            // The hard policy ignores the economics entirely.
            let unit = UnitEconomics { insts: 1, exec_count: u64::MAX, filter_work: work, extraction_work: 0 };
            prop_assert_eq!(decision, hard.decide(score, &unit));
            prop_assert!((0.0..=1.0).contains(&score.probability), "calibrated score out of range: {}", score.probability);
        }
    }
}

/// The boolean seam rebuilt from a deterministic trace of every unit: a
/// unit is scheduled iff [`CompiledFilter::decide`] fires on its
/// recorded features, and pays the recorded scheduling work.
fn boolean_pass(
    program: &wts_ir::Program,
    machine: &wts_machine::MachineConfig,
    compiled: &CompiledFilter,
    options: &TraceOptions,
) -> FilteredPass {
    let mut out = FilteredPass::default();
    for r in collect_trace(program, machine, options) {
        out.total_blocks += 1;
        out.conditions_evaluated += compiled.score_counted(r.features.as_slice()).1;
        out.extraction_work += compiled.extraction_work(r.features.bb_len() as u64);
        if compiled.decide(r.features.as_slice()) {
            out.scheduled_blocks += 1;
            out.sched_work += r.sched_work;
        }
    }
    out
}

/// One pass comparison: the policy-aware pass under
/// [`DecisionPolicy::HardThreshold`] against the boolean seam, as whole
/// values.
fn assert_pass_pinned(
    program: &wts_ir::Program,
    machine: &wts_machine::MachineConfig,
    compiled: &CompiledFilter,
    scope: ScopeKind,
    context: &str,
) {
    let options = TraceOptions { timing: TimingMode::Deterministic, scope, ..TraceOptions::default() };
    let legacy = boolean_pass(program, machine, compiled, &options);
    let hard = filtered_schedule_pass(program, machine, compiled, &DecisionPolicy::HardThreshold, &options);
    assert_eq!(legacy, hard, "{context}");
}

/// The acceptance bar: on every registry machine and every portfolio
/// backend, a hard-threshold deployment of each block-scope LOOCV fold
/// is bit-identical to the legacy boolean filter — per-record decisions
/// and the deployed pass's work channels.
#[test]
fn hard_threshold_deployments_pin_the_boolean_seam_at_block_scope() {
    let programs = wts_core::testutil::learnable_suite(5);
    for machine in wts_machine::registry() {
        let run = Experiment::new(machine.clone()).with_timing(TimingMode::Deterministic).run(programs.clone());
        for learner in LearnerKind::portfolio() {
            for (bench, learned) in run.loocv_filters_for(0, &learner).iter() {
                let compiled = learned.compiled();
                for r in run.all_traces() {
                    let (score, _) = compiled.score_counted(r.features.as_slice());
                    let decision = compiled.decide(r.features.as_slice());
                    assert_eq!(decision, score.decision(), "{}/{}/{bench}", machine.name(), learner.name());
                    assert!((0.0..=1.0).contains(&score.probability));
                }
                for program in run.programs() {
                    assert_pass_pinned(
                        program,
                        &machine,
                        compiled,
                        ScopeKind::Block,
                        &format!("{}/{}/{bench}/{}", machine.name(), learner.name(), program.name()),
                    );
                }
            }
        }
    }
}

/// The same bar at superblock scope: the policy-aware pass under the
/// hard policy stays pinned to the legacy pass when the decision unit is
/// a formed trace, for every registry machine and backend.
#[test]
fn hard_threshold_deployments_pin_the_boolean_seam_at_superblock_scope() {
    let programs = wts_core::testutil::mergeable_suite(4);
    let scope = ScopeKind::Superblock(70);
    for machine in wts_machine::registry() {
        let run = Experiment::new(machine.clone())
            .with_timing(TimingMode::Deterministic)
            .with_scope(scope)
            .run(programs.clone());
        assert!(
            run.all_traces().iter().any(|r| r.features.get(FeatureKind::TraceWidth) > 1.0),
            "{}: the corpus must contain genuinely merged traces",
            machine.name()
        );
        for learner in LearnerKind::portfolio() {
            for (bench, learned) in run.loocv_filters_for(0, &learner).iter() {
                let compiled = learned.compiled();
                for program in run.programs() {
                    assert_pass_pinned(
                        program,
                        &machine,
                        compiled,
                        scope,
                        &format!("{}/{}/{bench}/{}", machine.name(), learner.name(), program.name()),
                    );
                }
            }
        }
    }
}

/// Fixed strategies score their beliefs but decide exactly as before —
/// including through the pass — and an `ExpectedBenefit` pass can only
/// schedule a subset of what an always-fired filter would (sanity: the
/// graded policy is actually wired through the deployed pass).
#[test]
fn fixed_filters_stay_pinned_and_expected_benefit_reaches_the_pass() {
    use wts_core::BenefitModel;
    let programs = wts_core::testutil::learnable_suite(3);
    let machine = wts_machine::MachineConfig::ppc7410();
    for f in [CompiledFilter::always(), CompiledFilter::never(), CompiledFilter::size_threshold(5)] {
        assert_pass_pinned(&programs[0], &machine, &f, ScopeKind::Block, f.name());
    }
    let options = TraceOptions { timing: TimingMode::Deterministic, ..TraceOptions::default() };
    let compiled = CompiledFilter::always();
    let hard = filtered_schedule_pass(&programs[0], &machine, &compiled, &DecisionPolicy::HardThreshold, &options);
    let stingy = DecisionPolicy::ExpectedBenefit(BenefitModel { saved_per_inst: 0.0, cycles_per_work: 1.0 });
    let none = filtered_schedule_pass(&programs[0], &machine, &compiled, &stingy, &options);
    assert_eq!(none.scheduled_blocks, 0, "a zero-rate model schedules nothing");
    assert_eq!(none.total_blocks, hard.total_blocks);
    assert!(none.sched_work < hard.sched_work, "skipping everything must shed the scheduling work");
}

/// Offline ≡ deployed: replaying a collected trace through
/// [`sched_time_ratio`] tallies exactly the [`FilteredPass`] that
/// [`filtered_schedule_pass`] reports for the same program — every
/// channel, for learned LOOCV filters at both scopes, under the hard
/// policy and a calibrated expected-benefit policy.
#[test]
fn the_offline_replay_tallies_the_deployed_pass() {
    let machine = wts_machine::MachineConfig::ppc7410();
    let mut graded = 0;
    for (scope, programs) in [
        (ScopeKind::Block, wts_core::testutil::learnable_suite(4)),
        (ScopeKind::Superblock(70), wts_core::testutil::mergeable_suite(4)),
    ] {
        let options = TraceOptions { timing: TimingMode::Deterministic, scope, ..TraceOptions::default() };
        let run = Experiment::new(machine.clone())
            .with_timing(TimingMode::Deterministic)
            .with_scope(scope)
            .run(programs.clone());
        let eb = DecisionPolicy::expected_benefit(run.all_traces(), 1.0);
        for learner in [LearnerKind::Ripper, LearnerKind::Stump] {
            for (bench, learned) in run.loocv_filters_for(0, &learner).iter() {
                for program in run.programs() {
                    let trace = collect_trace(program, &machine, &options);
                    let [hard, soft] = [DecisionPolicy::HardThreshold, eb].map(|policy| {
                        let deployed = filtered_schedule_pass(program, &machine, learned.compiled(), &policy, &options);
                        let offline = sched_time_ratio(&trace, learned.compiled(), &policy).pass;
                        assert_eq!(offline, deployed, "{scope}/{}/{bench}/{}/{policy}", learner.name(), program.name());
                        deployed
                    });
                    graded += usize::from(hard != soft);
                }
            }
        }
    }
    assert!(graded > 0, "the expected-benefit policy must change some pass, or it was not exercised");
}
