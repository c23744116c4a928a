//! Property-based tests for labeling and evaluation semantics.

use proptest::prelude::*;
use wts_core::{
    app_time_ratio, build_dataset, predicted_time_ratio, runtime_classification, sched_time_ratio, CompiledFilter,
    DecisionPolicy, LabelConfig, TraceRecord,
};
use wts_features::{FeatureKind, FeatureVector};
use wts_ir::{BlockId, MethodId};

fn arb_record() -> impl Strategy<Value = TraceRecord> {
    (1u64..200, 0u64..200, 1u64..1000, 1usize..40, 0u64..50).prop_map(|(unsched, delta, exec, bb_len, bench)| {
        let sched = unsched.saturating_sub(delta.min(unsched - 1));
        let mut v = [0.0; FeatureKind::COUNT];
        v[FeatureKind::BbLen.index()] = bb_len as f64;
        TraceRecord {
            benchmark: format!("b{}", bench % 4),
            method: MethodId(0),
            block: BlockId(0),
            exec_count: exec,
            features: FeatureVector::from_values(v),
            est_unsched: unsched,
            est_sched: sched,
            hw_unsched: unsched + 2,
            hw_sched: sched + 2,
            sched_ns: 1000,
            feature_ns: 100,
            sched_work: (bb_len * bb_len + 16) as u64,
            feature_work: bb_len as u64,
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn label_semantics_match_the_paper(rec in arb_record(), t in 0u32..=50) {
        let label = LabelConfig::new(t).label(&rec);
        let imp = rec.est_improvement();
        match label {
            Some(true) => prop_assert!(imp > t as f64 / 100.0, "LS requires > t% improvement"),
            Some(false) => prop_assert!(imp <= 0.0, "NS requires no improvement at all"),
            None => prop_assert!(imp > 0.0 && imp <= t as f64 / 100.0, "dropped iff in (0, t]"),
        }
    }

    #[test]
    fn higher_thresholds_only_shrink_the_ls_class(recs in prop::collection::vec(arb_record(), 1..60)) {
        let (d0, _) = build_dataset(&recs, LabelConfig::new(0));
        let (d25, _) = build_dataset(&recs, LabelConfig::new(25));
        let (d50, _) = build_dataset(&recs, LabelConfig::new(50));
        prop_assert!(d25.positives() <= d0.positives());
        prop_assert!(d50.positives() <= d25.positives());
        // NS never changes (Table 5's constant column).
        prop_assert_eq!(d25.negatives(), d0.negatives());
        prop_assert_eq!(d50.negatives(), d0.negatives());
    }

    #[test]
    fn fixed_strategies_bound_every_filter(recs in prop::collection::vec(arb_record(), 1..60), min_len in 0usize..40) {
        // est_sched <= est_unsched in this corpus, so LS is optimal and NS
        // is pessimal; any filter lands between them.
        let filter = CompiledFilter::size_threshold(min_len);
        let f = predicted_time_ratio(&recs, &filter);
        let ls = predicted_time_ratio(&recs, &CompiledFilter::always());
        let ns = predicted_time_ratio(&recs, &CompiledFilter::never());
        prop_assert!(ls <= f + 1e-9 && f <= ns + 1e-9, "{ls} <= {f} <= {ns}");
        let fa = app_time_ratio(&recs, &filter);
        let lsa = app_time_ratio(&recs, &CompiledFilter::always());
        prop_assert!(lsa <= fa + 1e-9 && fa <= 1.0 + 1e-9);
    }

    #[test]
    fn runtime_classification_partitions(recs in prop::collection::vec(arb_record(), 0..60), min_len in 0usize..40) {
        let c = runtime_classification(&recs, &CompiledFilter::size_threshold(min_len));
        prop_assert_eq!(c.total(), recs.len());
        let ls_direct = recs.iter().filter(|r| r.features.get(FeatureKind::BbLen) >= min_len as f64).count();
        prop_assert_eq!(c.ls, ls_direct);
    }

    #[test]
    fn sched_time_work_is_linear_in_decisions(recs in prop::collection::vec(arb_record(), 1..60)) {
        let hard = DecisionPolicy::HardThreshold;
        let always = sched_time_ratio(&recs, &CompiledFilter::always(), &hard);
        let never = sched_time_ratio(&recs, &CompiledFilter::never(), &hard);
        prop_assert_eq!(always.pass.scheduled_blocks, recs.len());
        prop_assert_eq!(never.pass.scheduled_blocks, 0);
        prop_assert!(never.filtered_work() < always.filtered_work());
        // The fixed strategies consult no features and evaluate no
        // conditions, so their honest work is exactly the scheduling
        // they trigger: all of it (LS) or none of it (NS).
        prop_assert_eq!(always.pass.conditions_evaluated + always.pass.extraction_work, 0);
        prop_assert!((always.work_ratio() - 1.0).abs() < 1e-12);
        prop_assert_eq!(never.filtered_work(), 0);
        prop_assert_eq!(never.work_ratio(), 0.0);
        // A real filter pays per condition: its work sits strictly
        // between NS and LS-plus-overhead.
        let sized = sched_time_ratio(&recs, &CompiledFilter::size_threshold(20), &hard);
        prop_assert_eq!(sized.pass.conditions_evaluated, recs.len() as u64, "one condition per block");
        prop_assert!(sized.filtered_work() > never.filtered_work());
        prop_assert!(sized.overhead_fraction() > 0.0);
    }

    #[test]
    fn dataset_groups_partition_by_benchmark(recs in prop::collection::vec(arb_record(), 1..60)) {
        let (data, groups) = build_dataset(&recs, LabelConfig::new(0));
        prop_assert!(groups.len() <= 4);
        for inst in data.instances() {
            prop_assert!((inst.group as usize) < groups.len());
        }
    }
}
