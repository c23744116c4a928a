//! Extension experiments: calibration, learner comparison, machine
//! sensitivity and scheduler-policy ablations (README.md, "Extensions").

use crate::table::{f2, f3, Table};
use crate::{Experiments, SuiteKind, BEST_THRESHOLD};
use std::time::Instant;
use wts_core::{app_time_ratio, classification_matrix, predicted_time_ratio, train_filter, TrainConfig};
use wts_core::{CompiledFilter, Experiment, LabelConfig};
use wts_jit::{app_cycles, superblock_gain, CompileSession};
use wts_machine::MachineConfig;
use wts_ripper::leave_one_group_out;
use wts_ripper::{
    geometric_mean, Classifier, ConfusionMatrix, DecisionStump, MajorityLearner, OneR, RuleSet, ShallowTree,
};
use wts_sched::SchedulePolicy;

/// The adaptive JIT's hotness cutoff: methods whose profile count
/// exceeds it take the optimizing path.
const HOT_CUTOFF: u64 = 100;

impl Experiments {
    /// Corpus calibration statistics, used to verify the synthetic suites
    /// match the population structure the paper reports (Table 5's ~18%
    /// of blocks benefiting, small app-level wins on jvm98, larger on FP).
    pub fn calibrate(&self) -> Table {
        let mut t = Table::new(
            "Calibration: corpus shape vs paper",
            vec![
                "Suite".into(),
                "Blocks".into(),
                "LS% (t=0)".into(),
                "LS% (t=20)".into(),
                "Pred LS".into(),
                "App LS".into(),
                "feat ns/blk".into(),
                "sched ns/blk".into(),
            ],
        )
        .with_wall_clock(&["feat ns/blk", "sched ns/blk"]);
        for kind in [SuiteKind::Jvm98, SuiteKind::Fp] {
            let run = self.run(kind);
            let total = run.all_traces().len();
            let ls0 = run.ls_instances(0);
            let ls20 = run.ls_instances(20);
            let always = CompiledFilter::always();
            let pred: Vec<f64> = run.traces().iter().map(|tr| predicted_time_ratio(tr, &always)).collect();
            let app: Vec<f64> = run.traces().iter().map(|tr| app_time_ratio(tr, &always)).collect();
            let feat_ns: u64 = run.all_traces().iter().map(|r| r.feature_ns).sum::<u64>() / total as u64;
            let sched_ns: u64 = run.all_traces().iter().map(|r| r.sched_ns).sum::<u64>() / total as u64;
            t.push_row(vec![
                match kind {
                    SuiteKind::Jvm98 => "SPECjvm98".into(),
                    SuiteKind::Fp => "FP".into(),
                },
                total.to_string(),
                f2(100.0 * ls0 as f64 / total as f64),
                f2(100.0 * ls20 as f64 / total as f64),
                f2(geometric_mean(&pred)),
                f3(geometric_mean(&app)),
                feat_ns.to_string(),
                sched_ns.to_string(),
            ]);
        }
        t
    }

    /// Learner comparison at the paper's best threshold: RIPPER versus
    /// the baselines, leave-one-benchmark-out, geometric-mean error rate.
    pub fn learners(&self) -> Table {
        let t = BEST_THRESHOLD;
        let (dataset, _) = self.run(SuiteKind::Jvm98).dataset(t);
        let folds = leave_one_group_out(&dataset);

        let mut table = Table::new(
            format!("Extension: learner comparison at t={t} (geo. mean error %)"),
            vec!["Learner".into(), "Error %".into()],
        );
        let mut per_learner: Vec<(&str, Vec<f64>)> = vec![
            ("ripper", Vec::new()),
            ("tree(d=4,leaf=16)", Vec::new()),
            ("one-r", Vec::new()),
            ("stump", Vec::new()),
            ("majority", Vec::new()),
        ];
        for fold in &folds {
            let models: Vec<Box<dyn Classifier>> = vec![
                Box::new(RuleSet::fit(&fold.train)),
                Box::new(ShallowTree::fit(&fold.train, 4, 16)),
                Box::new(OneR::fit(&fold.train)),
                Box::new(DecisionStump::fit(&fold.train)),
                Box::new(MajorityLearner::fit(&fold.train)),
            ];
            for (slot, model) in per_learner.iter_mut().zip(&models) {
                let mut m = ConfusionMatrix::default();
                for inst in fold.test.instances() {
                    m.record(inst.positive, model.predict(&inst.values));
                }
                slot.1.push(m.error_percent());
            }
        }
        for (name, errs) in per_learner {
            table.push_row(vec![name.to_string(), f2(geometric_mean(&errs))]);
        }
        table
    }

    /// Machine-sensitivity ablation: how much always-scheduling helps on
    /// three machine models (paper §3.1's remark that older, less dynamic
    /// processors gain more from static scheduling).
    pub fn machines(&self) -> Table {
        let mut t = Table::new(
            "Extension: scheduling benefit by machine model (LS vs NS)",
            vec!["Machine".into(), "Pred LS %".into(), "App LS".into()],
        );
        for machine in [MachineConfig::ppc7410(), MachineConfig::simple_scalar(), MachineConfig::deep_fp()] {
            let pipeline = Experiment::new(machine);
            let mut pred = Vec::new();
            let mut app = Vec::new();
            for program in self.run(SuiteKind::Fp).programs() {
                let traces = pipeline.trace(program);
                pred.push(predicted_time_ratio(&traces, &CompiledFilter::always()));
                app.push(app_time_ratio(&traces, &CompiledFilter::always()));
            }
            t.push_row(vec![
                pipeline.machine().name().to_string(),
                f2(geometric_mean(&pred)),
                f3(geometric_mean(&app)),
            ]);
        }
        t
    }

    /// Scheduler-policy ablation: the filter technique presumes a
    /// competent scheduler; this quantifies the policies.
    pub fn policies(&self) -> Table {
        let mut t = Table::new(
            "Extension: scheduler policy ablation (FP suite, LS vs NS)",
            vec!["Policy".into(), "Pred LS %".into(), "App LS".into()],
        );
        for policy in [
            SchedulePolicy::CriticalPath,
            SchedulePolicy::EarliestStart,
            SchedulePolicy::CriticalPathOnly,
            SchedulePolicy::Random(7),
        ] {
            let pipeline = Experiment::new(self.machine().clone()).with_policy(policy);
            let mut pred = Vec::new();
            let mut app = Vec::new();
            for program in self.run(SuiteKind::Fp).programs() {
                let traces = pipeline.trace(program);
                pred.push(predicted_time_ratio(&traces, &CompiledFilter::always()));
                app.push(app_time_ratio(&traces, &CompiledFilter::always()));
            }
            t.push_row(vec![policy.to_string(), f2(geometric_mean(&pred)), f3(geometric_mean(&app))]);
        }
        t
    }
}

impl Experiments {
    /// Superblock-scheduling extension (paper §3.1, footnote 6): the
    /// additional application-level improvement of speculative trace
    /// scheduling over per-block scheduling, per FP benchmark. The paper
    /// reports "slight (1–2%) additional improvement".
    pub fn superblocks(&self) -> Table {
        let mut t = Table::new(
            "Extension: superblock vs local scheduling (FP suite)",
            vec!["Benchmark".into(), "Local/NS %".into(), "Super/NS %".into(), "Extra %".into(), "Traces".into()],
        );
        let run = self.run(SuiteKind::Fp);
        for (name, program) in run.names().iter().zip(run.programs()) {
            let g = superblock_gain(program, self.machine(), crate::SUPERBLOCK_RATIO);
            let local = 100.0 * g.local as f64 / g.unscheduled.max(1) as f64;
            let sup = 100.0 * g.superblock as f64 / g.unscheduled.max(1) as f64;
            t.push_row(vec![
                name.clone(),
                f2(local),
                f2(sup),
                f2(100.0 * g.extra_improvement()),
                g.merged_traces.to_string(),
            ]);
        }
        t
    }

    /// Adaptive-JIT extension (paper §3.1): apply the optimizing path —
    /// and therefore the filter — only to methods profiled hotter than
    /// `HOT_CUTOFF`. Filters still save most scheduling effort inside
    /// the optimized subset.
    pub fn adaptive(&self) -> Table {
        let hot_cutoff = HOT_CUTOFF;
        let mut t = Table::new(
            format!("Extension: adaptive JIT (hot methods only, cutoff {hot_cutoff})"),
            vec!["Strategy".into(), "Scheduled".into(), "Pass µs".into(), "App/NS".into()],
        )
        .with_wall_clock(&["Pass µs"]);
        let run = self.run(SuiteKind::Jvm98);
        let factory = run.factory_filter(BEST_THRESHOLD);
        let filter = factory.compiled();
        let always = CompiledFilter::always();
        let session = CompileSession::new(self.machine());

        let mut rows: Vec<(String, usize, u128, f64)> = Vec::new();
        for (label, adaptive, f) in
            [("LS everywhere", false, &always), ("LS hot methods", true, &always), ("L/N hot methods", true, filter)]
        {
            let mut scheduled = 0;
            let mut pass_ns = 0;
            let mut base = 0u64;
            let mut cycles = 0u64;
            for program in run.programs() {
                let start = Instant::now();
                let (compiled, stats) = if adaptive {
                    session.compile_adaptive(program, f, hot_cutoff)
                } else {
                    session.compile(program, f, 1)
                };
                pass_ns += start.elapsed().as_nanos();
                scheduled += stats.scheduled_blocks;
                base += app_cycles(program, self.machine());
                cycles += app_cycles(&compiled, self.machine());
            }
            rows.push((label.to_string(), scheduled, pass_ns, cycles as f64 / base as f64));
        }
        for (label, scheduled, pass_ns, ratio) in rows {
            t.push_row(vec![label, scheduled.to_string(), format!("{:.0}", pass_ns as f64 / 1000.0), f3(ratio)]);
        }
        t
    }

    /// User-retraining extension (paper footnote 4): training on a
    /// program's own blocks and testing on that same program gives "a
    /// kind of upper bound on how much improvement you could get by
    /// retraining". Compares self-trained against leave-one-out filters
    /// at the paper's best threshold.
    pub fn selftrain(&self) -> Table {
        let t = BEST_THRESHOLD;
        let run = self.run(SuiteKind::Jvm98);
        let mut table = Table::new(
            format!("Extension: self-training upper bound at t={t} (error %)"),
            vec!["Benchmark".into(), "LOOCV".into(), "Self-trained".into()],
        );
        for name in run.names() {
            let loocv = run.compiled_filter_for(t, name);
            let own = run.trace_for(name);
            let selftrained = train_filter(own, &TrainConfig::with_threshold(t));
            let e_loocv = classification_matrix(own, &loocv, LabelConfig::new(t)).error_percent();
            let e_self = classification_matrix(own, selftrained.compiled(), LabelConfig::new(t)).error_percent();
            table.push_row(vec![name.clone(), f2(e_loocv), f2(e_self)]);
        }
        table
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn harness() -> Experiments {
        Experiments::new(0.02)
    }

    #[test]
    fn superblocks_show_small_extra_gain() {
        let e = harness();
        let t = e.superblocks();
        assert_eq!(t.row_count(), 6);
        for row in 0..t.row_count() {
            let extra: f64 = t.cell(row, 3).parse().unwrap();
            assert!((0.0..25.0).contains(&extra), "extra gain {extra}% implausible");
            let local: f64 = t.cell(row, 1).parse().unwrap();
            let sup: f64 = t.cell(row, 2).parse().unwrap();
            assert!(sup <= local + 1e-9);
        }
    }

    #[test]
    fn adaptive_schedules_fewer_blocks() {
        let e = harness();
        let t = e.adaptive();
        let full: usize = t.cell(0, 1).parse().unwrap();
        let hot_ls: usize = t.cell(1, 1).parse().unwrap();
        let hot_ln: usize = t.cell(2, 1).parse().unwrap();
        assert!(hot_ls < full);
        assert!(hot_ln <= hot_ls);
    }

    #[test]
    fn selftraining_is_at_least_competitive() {
        let e = harness();
        let t = e.selftrain();
        let mut loocv = Vec::new();
        let mut selft = Vec::new();
        for row in 0..t.row_count() {
            loocv.push(t.cell(row, 1).parse::<f64>().unwrap());
            selft.push(t.cell(row, 2).parse::<f64>().unwrap());
        }
        // On average, training on the test program itself should not be
        // (much) worse than generalizing from the others.
        let gl = geometric_mean(&loocv);
        let gs = geometric_mean(&selft);
        assert!(gs <= gl * 1.5 + 1.0, "self-trained {gs} vs loocv {gl}");
    }

    #[test]
    fn calibrate_reports_both_suites() {
        let e = harness();
        let t = e.calibrate();
        assert_eq!(t.row_count(), 2);
        let jvm_ls: f64 = t.cell(0, 2).parse().unwrap();
        assert!(jvm_ls > 3.0 && jvm_ls < 60.0, "LS fraction {jvm_ls}% looks off");
    }

    #[test]
    fn learners_table_includes_ripper_and_majority() {
        let e = harness();
        let t = e.learners();
        assert_eq!(t.row_count(), 5);
        assert_eq!(t.cell(0, 0), "ripper");
        let ripper_err: f64 = t.cell(0, 1).parse().unwrap();
        let majority_err: f64 = t.cell(4, 1).parse().unwrap();
        assert!(ripper_err <= majority_err + 1.0, "ripper {ripper_err} vs majority {majority_err}");
    }

    #[test]
    fn policies_cps_beats_random() {
        let e = harness();
        let t = e.policies();
        let cps: f64 = t.cell(0, 1).parse().unwrap();
        let random: f64 = t.cell(3, 1).parse().unwrap();
        assert!(cps <= random, "CPS predicted time {cps}% must beat random {random}%");
    }

    #[test]
    fn machines_simple_scalar_gains_most() {
        let e = harness();
        let t = e.machines();
        let ppc: f64 = t.cell(0, 2).parse().unwrap();
        let scalar: f64 = t.cell(1, 2).parse().unwrap();
        assert!(scalar <= ppc + 0.02, "in-order machine should gain at least as much: {scalar} vs {ppc}");
    }
}
