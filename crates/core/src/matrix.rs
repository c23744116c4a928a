//! The cross-machine sweep's tables: one full trace→label→train→
//! evaluate [`ExperimentRun`] per machine model, compared side by side.
//!
//! The paper argues induced filters are cheap to re-derive when the
//! target machine changes (§4); checking that claim needs the *same*
//! corpus pushed through the pipeline on several machine descriptions
//! and the induced rule sets compared side by side.
//! [`Experiment::run_on`](crate::Experiment::run_on) runs the sweep and
//! returns a [`MatrixRun`]:
//!
//! * **Per-machine runs.** Each machine gets its own
//!   [`ExperimentRun`], so every artifact the single-machine pipeline
//!   offers (LOOCV filters, factory rule sets, threshold sweeps) is
//!   available per machine.
//! * **Transfer.** [`MatrixRun::transfer_errors`] trains a factory
//!   filter on machine A's labels and scores it against machine B's —
//!   the "does the rule set transfer?" table of the reproduction.
//! * **Portfolio and calibration.** [`MatrixRun::portfolio`] and
//!   [`MatrixRun::calibration`] compare learners and decision policies
//!   on every machine.
//!
//! # Examples
//!
//! ```
//! use wts_core::{Experiment, TimingMode};
//! use wts_ir::{BasicBlock, Inst, MemRef, MemSpace, Method, Opcode, Program, Reg};
//! use wts_machine::MachineConfig;
//!
//! let mut p = Program::new("demo");
//! let mut m = Method::new(0, "m0");
//! let mut b = BasicBlock::new(0);
//! b.push(Inst::new(Opcode::Lwz).def(Reg::gpr(1)).use_(Reg::gpr(9))
//!     .mem(MemRef::slot(MemSpace::Heap, 0)));
//! b.push(Inst::new(Opcode::Add).def(Reg::gpr(2)).use_(Reg::gpr(1)).use_(Reg::gpr(1)));
//! b.push(Inst::new(Opcode::Add).def(Reg::gpr(3)).use_(Reg::gpr(8)).use_(Reg::gpr(8)));
//! m.push_block(b);
//! p.push_method(m);
//!
//! let machines = vec![MachineConfig::ppc7410(), MachineConfig::embedded()];
//! let matrix = Experiment::new(MachineConfig::ppc7410()).run_on(machines, vec![p]);
//! assert_eq!(matrix.machine_names(), ["ppc7410", "embedded"]);
//! assert_eq!(matrix.run_for("embedded").all_traces().len(), 1);
//! ```

use crate::eval::{classification_matrix, oracle_times};
use crate::experiment::ExperimentRun;
use crate::label::LabelConfig;
use crate::learner::LearnerKind;
use crate::policy::{BenefitModel, DecisionPolicy};
use crate::{EvalTimes, LearnedFilter};

/// The completed sweep of [`Experiment::run_on`](crate::Experiment::run_on): one [`ExperimentRun`]
/// per machine, in run order, plus the cross-machine comparisons built
/// on top of them. All per-machine factory filters live in one shared
/// [`FilterStore`](crate::FilterStore), keyed by machine name.
pub struct MatrixRun {
    pub(crate) runs: Vec<ExperimentRun>,
    pub(crate) store: std::sync::Arc<crate::FilterStore>,
}

impl MatrixRun {
    /// The store every per-machine run publishes its filters into —
    /// the deployment surface a serving daemon or JIT session shares
    /// with the sweep.
    pub fn store(&self) -> &std::sync::Arc<crate::FilterStore> {
        &self.store
    }

    /// Machine names, in run order.
    pub fn machine_names(&self) -> Vec<&str> {
        self.runs.iter().map(|run| run.machine().name()).collect()
    }

    /// Per-machine pipeline runs, in run order.
    pub fn runs(&self) -> &[ExperimentRun] {
        &self.runs
    }

    /// One machine's pipeline run, by machine name.
    ///
    /// # Panics
    ///
    /// Panics if `machine` is not part of this matrix.
    pub fn run_for(&self, machine: &str) -> &ExperimentRun {
        self.runs
            .iter()
            .find(|run| run.machine().name() == machine)
            .unwrap_or_else(|| panic!("no machine {machine} in this matrix"))
    }

    /// The per-machine induced rule sets: one factory filter (trained on
    /// the whole corpus, §3's "at the factory") per machine at threshold
    /// `t`, paired with the machine name.
    pub fn factory_filters(&self, t: u32) -> Vec<(String, LearnedFilter)> {
        self.runs.iter().map(|run| (run.machine().name().to_string(), run.factory_filter(t))).collect()
    }

    /// The transfer table: cell `[i][j]` is the classification error
    /// (percent) of the filter trained on machine `i`'s labels when
    /// scored against machine `j`'s labels, both at threshold `t`. The
    /// diagonal is self-error; a row whose off-diagonal cells stay close
    /// to the diagonal transfers well.
    pub fn transfer_errors(&self, t: u32) -> Vec<Vec<f64>> {
        let label = LabelConfig::new(t);
        let filters: Vec<LearnedFilter> = self.runs.iter().map(|run| run.factory_filter(t)).collect();
        filters
            .iter()
            .map(|filter| {
                self.runs
                    .iter()
                    .map(|eval| classification_matrix(eval.all_traces(), filter.compiled(), label).error_percent())
                    .collect()
            })
            .collect()
    }

    /// The filter-cost table's rows: for each machine, the aggregate
    /// [`EvalTimes`](crate::EvalTimes) of its threshold-`t` LOOCV
    /// filters over the whole corpus — honest per-condition filter work
    /// and demand-masked extraction work against the machine's full
    /// always-schedule cost
    /// ([`overhead_fraction`](crate::EvalTimes::overhead_fraction) is
    /// the headline number; the paper's premise is that it stays near
    /// zero on every target).
    pub fn filter_cost(&self, t: u32) -> Vec<(String, crate::EvalTimes)> {
        self.runs
            .iter()
            .map(|run| (run.machine().name().to_string(), run.sched_time_total(t, |_| DecisionPolicy::HardThreshold)))
            .collect()
    }

    /// Threshold sweep, side by side: for each machine, the LS instance
    /// count at every threshold in `thresholds` (Table 5, per machine).
    pub fn ls_sweep(&self, thresholds: &[u32]) -> Vec<(String, Vec<usize>)> {
        self.runs
            .iter()
            .map(|run| (run.machine().name().to_string(), thresholds.iter().map(|&t| run.ls_instances(t)).collect()))
            .collect()
    }

    /// The learner portfolio: for each machine, every backend's LOOCV
    /// classification error, predicted/app time ratios and honest
    /// filter + extraction overhead at threshold `t`, plus the
    /// portfolio-best pick — the *cheapest* backend (by its own
    /// filter + extraction work) whose error stays within
    /// `tolerance_percent` points of the machine's best error. That is
    /// the Streeter/Chmiela-style selection rule: accuracy buys nothing
    /// once errors are indistinguishable, so spend as little of the
    /// compile-time budget on the selector as possible.
    ///
    /// The traced corpus is shared across backends — only the training
    /// stage re-runs per learner.
    ///
    /// # Panics
    ///
    /// Panics if `learners` is empty.
    pub fn portfolio(&self, t: u32, learners: &[LearnerKind], tolerance_percent: f64) -> Vec<MachinePortfolio> {
        assert!(!learners.is_empty(), "portfolio needs at least one learner");
        self.runs
            .iter()
            .map(|run| {
                let entries: Vec<PortfolioEntry> = learners.iter().map(|l| run.learner_eval(t, l)).collect();
                let best_error = entries.iter().map(|e| e.error_percent).fold(f64::INFINITY, f64::min);
                let best = entries
                    .iter()
                    .enumerate()
                    .filter(|(_, e)| e.error_percent <= best_error + tolerance_percent)
                    .min_by_key(|(_, e)| e.overhead_work())
                    .map(|(i, _)| i)
                    .expect("at least one entry is within tolerance of the best");
                MachinePortfolio { machine: run.machine().name().to_string(), entries, best }
            })
            .collect()
    }
}

/// The calibration table: how each decision policy spends and recovers
/// cycles on each machine, at one labeling threshold and operating
/// point.
impl MatrixRun {
    /// One [`CalibrationRow`] per machine at threshold `t` and operating
    /// point `cycles_per_work`:
    ///
    /// * **baseline** — the threshold-`t` LOOCV filters under the
    ///   paper's hard policy (schedule iff a rule fired);
    /// * **expected_benefit** — the same filters, with the schedule/skip
    ///   call made by a per-fold
    ///   [`BenefitModel`] calibrated on the *other* benchmarks' traces;
    /// * **oracle** — the non-deployable upper bound that schedules
    ///   exactly the units whose measured benefit beats their scheduling
    ///   spend, charging no filter or extraction work.
    ///
    /// The headline comparison is
    /// [`net_cycles`](crate::EvalTimes::net_cycles) at the same
    /// operating point: estimator cycles recovered minus compile-time
    /// work priced in application cycles.
    pub fn calibration(&self, t: u32, cycles_per_work: f64) -> Vec<CalibrationRow> {
        self.runs
            .iter()
            .map(|run| CalibrationRow {
                machine: run.machine().name().to_string(),
                model: BenefitModel::calibrate(run.all_traces(), cycles_per_work),
                baseline: run.sched_time_total(t, |_| DecisionPolicy::HardThreshold),
                expected_benefit: run.sched_time_total(t, |bench| run.policy_for(bench, cycles_per_work)),
                oracle: oracle_times(run.all_traces(), cycles_per_work),
            })
            .collect()
    }
}

/// One machine's row of the calibration table: the same LOOCV filters
/// evaluated under the hard policy and the expected-benefit policy,
/// bracketed by the per-unit oracle.
#[derive(Debug, Clone, PartialEq)]
pub struct CalibrationRow {
    /// Machine name.
    pub machine: String,
    /// The whole-corpus savings rate at the chosen operating point —
    /// the display model; each fold's decisions use a leave-one-out
    /// calibration of the same shape.
    pub model: BenefitModel,
    /// The hard-threshold policy: the legacy boolean seam, bit-identical
    /// to the pre-score engine.
    pub baseline: EvalTimes,
    /// The expected-benefit policy with per-fold LOOCV-calibrated
    /// models.
    pub expected_benefit: EvalTimes,
    /// Oracle-best per unit: schedules exactly the units whose measured
    /// benefit beats their scheduling spend, with no filter or
    /// extraction charged. Non-deployable; brackets what any policy
    /// could recover.
    pub oracle: EvalTimes,
}

/// One learner's row of the portfolio table on one machine: aggregate
/// LOOCV classification error, geometric-mean time ratios, model size
/// and the honest overhead accounting of its compiled filters.
#[derive(Debug, Clone, PartialEq)]
pub struct PortfolioEntry {
    /// Backend name (`ripper`, `stump`, `tree(d=4)`, …).
    pub learner: String,
    /// Aggregate LOOCV classification error over every benchmark's
    /// held-out fold, percent.
    pub error_percent: f64,
    /// Geometric-mean predicted (cheap-estimator) time, percent of
    /// never-scheduling (Table 4 convention: 100 = no change).
    pub predicted_percent: f64,
    /// Geometric-mean measured application-time ratio (fraction of
    /// never-scheduling).
    pub app_ratio: f64,
    /// Total lowered conditions across the backend's LOOCV filters
    /// (model size).
    pub conditions: usize,
    /// Accumulated [`EvalTimes`] of the backend's filters over the whole
    /// corpus: per-condition filter work, demand-masked extraction work,
    /// and the scheduling work they did or did not avoid.
    pub times: EvalTimes,
}

impl PortfolioEntry {
    /// The backend's own spend: filter conditions evaluated plus
    /// demand-masked extraction work — the quantity the portfolio-best
    /// rule minimizes.
    pub fn overhead_work(&self) -> u64 {
        self.times.filter_work + self.times.feature_work
    }
}

/// One machine's portfolio: every backend's row plus the index of the
/// portfolio-best pick.
#[derive(Debug, Clone, PartialEq)]
pub struct MachinePortfolio {
    /// Machine name.
    pub machine: String,
    /// One row per learner, in the order given to
    /// [`MatrixRun::portfolio`].
    pub entries: Vec<PortfolioEntry>,
    /// Index into `entries` of the cheapest backend within the error
    /// tolerance.
    pub best: usize,
}

impl MachinePortfolio {
    /// The portfolio-best row.
    pub fn best_entry(&self) -> &PortfolioEntry {
        &self.entries[self.best]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Experiment, TimingMode};
    use wts_ir::Program;
    use wts_machine::MachineConfig;

    /// The shared learnable three-benchmark suite, at five methods per
    /// program.
    fn suite() -> Vec<Program> {
        crate::testutil::learnable_suite(5)
    }

    fn deterministic() -> Experiment {
        Experiment::new(MachineConfig::ppc7410()).with_timing(TimingMode::Deterministic)
    }

    /// The registry sweep over [`suite`].
    fn sweep() -> MatrixRun {
        deterministic().run_on(wts_machine::registry(), suite())
    }

    #[test]
    fn one_run_per_registry_machine() {
        let m = sweep();
        assert_eq!(m.runs().len(), wts_machine::registry().len());
        assert_eq!(m.machine_names(), wts_machine::registry_names());
        for run in m.runs() {
            assert_eq!(run.names(), ["alpha", "beta", "gamma"]);
            assert_eq!(run.all_traces().len(), 3 * 5 * 3);
        }
    }

    #[test]
    fn sharded_matrix_is_bit_identical_to_serial_per_machine_runs() {
        let programs = suite();
        let sharded = deterministic().with_trace_threads(7).run_on(wts_machine::registry(), programs.clone());
        for machine in wts_machine::registry() {
            let serial = Experiment::new(machine.clone())
                .with_threads(1)
                .with_timing(TimingMode::Deterministic)
                .run(programs.clone());
            assert_eq!(
                serial.all_traces(),
                sharded.run_for(machine.name()).all_traces(),
                "{}: matrix sharding must not change the trace",
                machine.name()
            );
        }
    }

    #[test]
    fn machines_disagree_on_cycle_counts_but_share_features() {
        let m = sweep();
        let ppc = m.run_for("ppc7410").all_traces();
        let emb = m.run_for("embedded").all_traces();
        assert!(
            ppc.iter().zip(emb).any(|(a, b)| a.est_unsched != b.est_unsched),
            "different latency tables must produce different estimates"
        );
        for (a, b) in ppc.iter().zip(m.run_for("embedded").all_traces()) {
            assert_eq!(a.features, b.features, "features are machine-independent");
        }
    }

    #[test]
    fn factory_filters_and_sweep_cover_every_machine() {
        let m = sweep();
        let filters = m.factory_filters(0);
        assert_eq!(filters.len(), m.runs().len());
        for ((name, f), expect) in filters.iter().zip(m.machine_names()) {
            assert_eq!(name, expect);
            assert_eq!(f.threshold_percent(), 0);
        }
        let sweep = m.ls_sweep(&[0, 25, 50]);
        for (_, counts) in &sweep {
            assert_eq!(counts.len(), 3);
            assert!(counts[0] >= counts[1] && counts[1] >= counts[2], "LS shrinks with t: {counts:?}");
        }
    }

    #[test]
    fn per_machine_runs_share_one_store_keyed_by_machine() {
        let m = sweep();
        for run in m.runs() {
            assert!(std::sync::Arc::ptr_eq(run.store(), m.store()), "every run publishes into the matrix store");
        }
        let _ = m.factory_filters(0);
        let keys = m.store().keys();
        assert_eq!(keys.len(), m.runs().len(), "one deployed slot per machine");
        let mut machines: Vec<&str> = keys.iter().map(|k| k.machine()).collect();
        machines.sort_unstable();
        let mut expect = m.machine_names();
        expect.sort_unstable();
        assert_eq!(machines, expect);
    }

    #[test]
    fn transfer_table_is_square_with_sane_errors() {
        let m = sweep();
        let n = m.runs().len();
        let errors = m.transfer_errors(0);
        assert_eq!(errors.len(), n);
        for row in &errors {
            assert_eq!(row.len(), n);
            for &e in row {
                assert!((0.0..=100.0).contains(&e), "error {e}% out of range");
            }
        }
    }

    #[test]
    fn filter_cost_reports_small_positive_overhead_per_machine() {
        let m = sweep();
        let costs = m.filter_cost(0);
        assert_eq!(costs.len(), m.runs().len());
        for ((name, times), expect) in costs.iter().zip(m.machine_names()) {
            assert_eq!(name, expect);
            assert_eq!(times.total_blocks, 3 * 5 * 3, "all benchmarks aggregated");
            assert!(times.always_work > 0);
            let overhead = times.overhead_fraction();
            assert!(
                (0.0..0.5).contains(&overhead),
                "{name}: filter overhead {overhead} should be a small fraction of scheduling work"
            );
        }
    }

    #[test]
    fn portfolio_covers_every_machine_and_learner() {
        let m = sweep();
        let learners = LearnerKind::portfolio();
        let portfolio = m.portfolio(0, &learners, 2.0);
        assert_eq!(portfolio.len(), m.runs().len());
        for (mp, expect) in portfolio.iter().zip(m.machine_names()) {
            assert_eq!(mp.machine, expect);
            assert_eq!(mp.entries.len(), learners.len());
            assert_eq!(mp.entries[0].learner, "ripper");
            let best_error = mp.entries.iter().map(|e| e.error_percent).fold(f64::INFINITY, f64::min);
            for e in &mp.entries {
                assert!((0.0..=100.0).contains(&e.error_percent), "{}: error {}", e.learner, e.error_percent);
                assert!(e.predicted_percent > 0.0 && e.predicted_percent <= 101.0, "{}", e.learner);
                assert!(e.app_ratio > 0.0 && e.app_ratio <= 1.0 + 1e-9, "{}", e.learner);
                assert!(e.times.total_blocks > 0);
            }
            // The pick is within tolerance of the best error and no
            // eligible entry is cheaper.
            let best = mp.best_entry();
            assert!(best.error_percent <= best_error + 2.0, "{}: best outside tolerance", mp.machine);
            for e in &mp.entries {
                if e.error_percent <= best_error + 2.0 {
                    assert!(best.overhead_work() <= e.overhead_work(), "{}: {} is cheaper", mp.machine, e.learner);
                }
            }
        }
    }

    #[test]
    fn calibration_brackets_every_policy_with_the_oracle() {
        let m = sweep();
        let c = 1.0;
        let rows = m.calibration(0, c);
        assert_eq!(rows.len(), m.runs().len());
        for (row, expect) in rows.iter().zip(m.machine_names()) {
            assert_eq!(row.machine, expect);
            assert_eq!(row.model.cycles_per_work, c);
            assert!(row.model.saved_per_inst >= 0.0);
            for times in [&row.baseline, &row.expected_benefit, &row.oracle] {
                assert_eq!(times.total_blocks, 3 * 5 * 3, "{}: all benchmarks aggregated", row.machine);
            }
            assert_eq!(row.oracle.filter_work + row.oracle.feature_work, 0, "the oracle runs no filter");
            // The oracle sees the true per-unit channels; no deployable
            // policy over the same traces can net more.
            let bound = row.oracle.net_cycles(c);
            assert!(row.baseline.net_cycles(c) <= bound + 1e-9, "{}: baseline beats the oracle", row.machine);
            assert!(row.expected_benefit.net_cycles(c) <= bound + 1e-9, "{}: eb beats the oracle", row.machine);
        }
        // The point of the policy layer: cost-sensitivity must pay off
        // somewhere in the registry.
        assert!(
            rows.iter().any(|r| r.expected_benefit.net_cycles(c) >= r.baseline.net_cycles(c)),
            "expected-benefit never reaches the fixed-threshold baseline on any machine"
        );
    }

    #[test]
    fn calibration_baseline_matches_the_filter_cost_table() {
        let m = sweep();
        let rows = m.calibration(0, 2.0);
        for ((name, cost), row) in m.filter_cost(0).iter().zip(&rows) {
            assert_eq!(name, &row.machine);
            // Every deterministic channel agrees (the ns channels are
            // wall-clock and excluded).
            let b = &row.baseline;
            assert_eq!(
                (cost.filtered_work, cost.always_work, cost.filter_work, cost.feature_work),
                (b.filtered_work, b.always_work, b.filter_work, b.feature_work),
                "{name}: the hard-policy row is the legacy aggregate"
            );
            assert_eq!(
                (cost.scheduled_blocks, cost.total_blocks, cost.benefit_cycles),
                (b.scheduled_blocks, b.total_blocks, b.benefit_cycles)
            );
        }
    }

    #[test]
    fn portfolio_best_prefers_cheap_models_when_errors_tie() {
        let m = sweep();
        // With an absurd tolerance everything is eligible, so the pick
        // must be the globally cheapest backend.
        let portfolio = m.portfolio(0, &LearnerKind::portfolio(), 100.0);
        for mp in &portfolio {
            let min_work = mp.entries.iter().map(PortfolioEntry::overhead_work).min().unwrap();
            assert_eq!(mp.best_entry().overhead_work(), min_work, "{}", mp.machine);
        }
    }

    #[test]
    #[should_panic(expected = "at least one learner")]
    fn empty_portfolio_rejected() {
        sweep().portfolio(0, &[], 1.0);
    }

    #[test]
    #[should_panic(expected = "no machine nope")]
    fn unknown_machine_panics() {
        sweep().run_for("nope");
    }

    #[test]
    #[should_panic(expected = "at least one machine")]
    fn empty_machine_list_rejected() {
        deterministic().run_on(Vec::new(), suite());
    }
}
