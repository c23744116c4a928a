//! The unified §2.2 pipeline: **trace → label → train → evaluate** as
//! one composable, parallelizable unit.
//!
//! The seed wired these four stages by hand at every call site —
//! [`collect_trace`](crate::collect_trace), then
//! [`build_dataset`](crate::build_dataset), then
//! [`train_filter`](crate::train_filter) /
//! [`train_loocv`](crate::train_loocv), then the eval functions — and
//! each of the table/figure regenerators re-plumbed the same steps.
//! [`Experiment`] owns the sequence end to end:
//!
//! 1. **Trace** maps to §2.2's instrumented scheduling pass: every block
//!    of every benchmark program is feature-extracted and list-scheduled,
//!    with cycle counts from a configurable pair of
//!    [`CostProvider`](wts_machine::CostProvider)s (the "simplified
//!    simulator" for labeling, the detailed model standing in for
//!    hardware). Collection shards across methods with scoped threads
//!    and is bit-identical to the serial path.
//! 2. **Label** maps to §2.2's thresholding: an instance is `LS` when
//!    scheduling improved the estimate by more than `t`%, `NS` when it
//!    did not improve at all, and dropped in between (§4.4's
//!    noise-reduction trick).
//! 3. **Train** maps to §2.3: RIPPER induces an if-then rule set; the
//!    paper's evaluation protocol is leave-one-benchmark-out
//!    cross-validation, sharded across folds.
//! 4. **Evaluate** maps to §3: classification accuracy (Table 3),
//!    predicted times (Table 4), run-time classification (Table 6),
//!    scheduling-time and application-time ratios (Figures 1–3).
//!
//! ```
//! use wts_core::Experiment;
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
//! let run = Experiment::new(MachineConfig::ppc7410()).run(vec![p]);
//! assert_eq!(run.names(), ["demo"]);
//! assert_eq!(run.all_traces().len(), 1);
//! ```

use crate::eval::{
    app_time_ratio, classification_matrix, predicted_time_ratio, runtime_classification, sched_time_ratio, ClassCounts,
    EvalTimes,
};
use crate::label::{build_dataset, LabelConfig};
use crate::learner::{Learner, LearnerKind};
use crate::matrix::PortfolioEntry;
use crate::policy::DecisionPolicy;
use crate::store::{FilterKey, FilterStore};
use crate::trace::{collect_trace, TimingMode, TraceOptions, TraceRecord};
use crate::train::{train_loocv_sharded, TrainConfig};
use crate::{BinaryTraceError, CompiledFilter, LearnedFilter};
use std::collections::BTreeMap;
use std::rc::Rc;
use std::sync::Arc;
use wts_ir::{Program, ScopeKind};
use wts_machine::{EstimatorKind, MachineConfig};
use wts_ripper::{geometric_mean, ConfusionMatrix, Dataset, RipperConfig};
use wts_sched::SchedulePolicy;

/// Name-sorted `(benchmark, filter)` pairs from one LOOCV training run.
/// `Arc`'d so a fold set published in the [`FilterStore`] can be shared
/// across threads (a serving retrainer, the sharded matrix).
pub type LoocvFilters = Arc<Vec<(String, LearnedFilter)>>;

/// Configuration of the whole trace→label→train→evaluate pipeline.
///
/// Build one with [`Experiment::new`] and the `with_*` methods, then
/// [`run`](Experiment::run) it over a suite of programs. Scheduler
/// policy selection lives here — not at the call sites — so an ablation
/// swaps policies by building a second `Experiment`, nothing else.
#[derive(Debug, Clone)]
pub struct Experiment {
    machine: MachineConfig,
    policy: SchedulePolicy,
    learner: LearnerKind,
    trace_threads: usize,
    train_threads: usize,
    timing: TimingMode,
    estimated: EstimatorKind,
    measured: EstimatorKind,
    scope: ScopeKind,
}

impl Experiment {
    /// A pipeline over `machine` with the paper's defaults: CPS
    /// scheduling, cheap estimator for labels, detailed simulator as the
    /// hardware stand-in, default RIPPER settings, one worker thread per
    /// available core, wall-clock timing.
    pub fn new(machine: MachineConfig) -> Experiment {
        Experiment {
            machine,
            policy: SchedulePolicy::CriticalPath,
            learner: LearnerKind::default(),
            trace_threads: 0,
            train_threads: 0,
            timing: TimingMode::WallClock,
            estimated: EstimatorKind::Cheap,
            measured: EstimatorKind::Detailed,
            scope: ScopeKind::Block,
        }
    }

    /// Retargets the pipeline at a different machine, keeping every other
    /// setting. The cross-machine [`ExperimentMatrix`](crate::ExperimentMatrix)
    /// stamps one pipeline per registry machine out of a single template
    /// this way.
    pub fn with_machine(mut self, machine: MachineConfig) -> Experiment {
        self.machine = machine;
        self
    }

    /// Selects the scheduler policy the instrumented pass runs.
    pub fn with_policy(mut self, policy: SchedulePolicy) -> Experiment {
        self.policy = policy;
        self
    }

    /// Overrides the RIPPER settings (and selects the RIPPER backend).
    pub fn with_ripper(mut self, ripper: RipperConfig) -> Experiment {
        self.learner = LearnerKind::Ripper(ripper);
        self
    }

    /// Selects the induction backend the training stage runs (RIPPER by
    /// default). Per-learner artifacts ([`ExperimentRun::loocv_filters_for`],
    /// [`MatrixRun::portfolio`](crate::MatrixRun::portfolio)) can query
    /// other backends on the same run without re-tracing.
    pub fn with_learner(mut self, learner: LearnerKind) -> Experiment {
        self.learner = learner;
        self
    }

    /// Sets the worker-thread count for tracing and LOOCV training
    /// (`0` = one per available core, `1` = fully serial).
    pub fn with_threads(mut self, threads: usize) -> Experiment {
        self.trace_threads = threads;
        self.train_threads = threads;
        self
    }

    /// Sets the trace-stage worker count alone. Serial tracing keeps the
    /// wall-clock `*_ns` channels free of multi-worker cache contention,
    /// which matters when those channels feed published timing artifacts;
    /// the cycle-count channels are thread-count invariant either way.
    pub fn with_trace_threads(mut self, threads: usize) -> Experiment {
        self.trace_threads = threads;
        self
    }

    /// Sets the LOOCV-training worker count alone (no wall-clock channel
    /// is involved in training, so sharding it is always safe).
    pub fn with_train_threads(mut self, threads: usize) -> Experiment {
        self.train_threads = threads;
        self
    }

    /// Switches the `*_ns` channels to the deterministic work proxies,
    /// making traces byte-identical run to run.
    pub fn with_timing(mut self, timing: TimingMode) -> Experiment {
        self.timing = timing;
        self
    }

    /// Selects which provider supplies the estimated (labeling) and
    /// measured (hardware stand-in) cycle channels.
    pub fn with_estimators(mut self, estimated: EstimatorKind, measured: EstimatorKind) -> Experiment {
        self.estimated = estimated;
        self.measured = measured;
        self
    }

    /// Selects the scheduling scope: per basic block (the paper's
    /// scenario, the default) or per formed superblock trace (the §3.1
    /// extension). The whole pipeline follows — tracing collects one
    /// record per scope unit, labeling thresholds the (speculative)
    /// trace schedules against the cheap estimator, training induces
    /// "should I schedule this trace?" filters, and the deployed
    /// [`filtered_schedule_pass`](crate::filtered_schedule_pass)
    /// decides per unit.
    pub fn with_scope(mut self, scope: ScopeKind) -> Experiment {
        self.scope = scope;
        self
    }

    /// The modelled machine.
    pub fn machine(&self) -> &MachineConfig {
        &self.machine
    }

    /// The scheduler policy the pipeline runs.
    pub fn policy(&self) -> SchedulePolicy {
        self.policy
    }

    /// The scheduling scope the pipeline operates on.
    pub fn scope(&self) -> ScopeKind {
        self.scope
    }

    /// The trace-stage options this configuration denotes.
    pub fn trace_options(&self) -> TraceOptions {
        TraceOptions {
            policy: self.policy,
            threads: self.trace_threads,
            timing: self.timing,
            estimated: self.estimated,
            measured: self.measured,
            scope: self.scope,
        }
    }

    /// Stage 1 alone: the instrumented scheduling pass over one program,
    /// sharded across its methods.
    pub fn trace(&self, program: &Program) -> Vec<TraceRecord> {
        collect_trace(program, &self.machine, &self.trace_options())
    }

    /// Runs the trace stage over a whole suite and packages the result
    /// as an [`ExperimentRun`], from which labeled datasets, trained
    /// filters and every paper artifact derive on demand.
    pub fn run(&self, programs: Vec<Program>) -> ExperimentRun {
        let traces: Vec<Vec<TraceRecord>> = programs.iter().map(|p| self.trace(p)).collect();
        self.run_precomputed(Rc::new(programs), traces)
    }

    /// Rebuilds an [`ExperimentRun`] from a serialized trace corpus
    /// instead of re-tracing — the "ship training sets to end users"
    /// workflow of footnote 4. The bytes are a binary trace file
    /// ([`read_trace_binary`](crate::read_trace_binary)); records regroup
    /// onto `programs` by benchmark name, in program order, exactly undoing
    /// [`ExperimentRun::serialize_traces`].
    ///
    /// # Errors
    ///
    /// Returns [`CorpusError::Read`] when the bytes fail to parse, and
    /// [`CorpusError::Mismatch`] when the records do not line up with
    /// `programs` (an unknown benchmark, or records out of program
    /// order).
    pub fn run_from_serialized(&self, programs: Vec<Program>, bytes: &[u8]) -> Result<ExperimentRun, CorpusError> {
        let records = crate::read_trace_binary(bytes).map_err(CorpusError::Read)?;
        let mut traces: Vec<Vec<TraceRecord>> = programs.iter().map(|_| Vec::new()).collect();
        let mut it = records.into_iter().peekable();
        for (slot, program) in traces.iter_mut().zip(&programs) {
            while it.peek().is_some_and(|r| r.benchmark == program.name()) {
                slot.push(it.next().expect("peeked"));
            }
        }
        if let Some(r) = it.next() {
            let known = programs.iter().any(|p| p.name() == r.benchmark);
            return Err(CorpusError::Mismatch {
                benchmark: r.benchmark,
                detail: if known {
                    "records are not grouped in program order".to_string()
                } else {
                    "no such program in this run's suite".to_string()
                },
            });
        }
        Ok(self.run_precomputed(Rc::new(programs), traces))
    }

    /// Packages already-collected per-program traces as an
    /// [`ExperimentRun`] under this configuration, backed by a fresh
    /// private [`FilterStore`]. The matrix runner shards trace
    /// collection itself (over machines×methods) and hands the
    /// reassembled pieces here; the shared `Rc` lets every per-machine
    /// run borrow one corpus instead of deep-copying it.
    pub(crate) fn run_precomputed(&self, programs: Rc<Vec<Program>>, traces: Vec<Vec<TraceRecord>>) -> ExperimentRun {
        self.run_precomputed_in(FilterStore::shared(), programs, traces)
    }

    /// [`run_precomputed`](Experiment::run_precomputed) against a caller
    /// supplied store. Runs sharing one store must differ in at least
    /// one [`FilterKey`] component — the matrix qualifies because every
    /// per-machine run keys by its own machine name.
    pub(crate) fn run_precomputed_in(
        &self,
        store: Arc<FilterStore>,
        programs: Rc<Vec<Program>>,
        traces: Vec<Vec<TraceRecord>>,
    ) -> ExperimentRun {
        debug_assert_eq!(programs.len(), traces.len(), "one trace vector per program");
        let names: Vec<String> = programs.iter().map(|p| p.name().to_string()).collect();
        let all_traces: Vec<TraceRecord> = traces.iter().flat_map(|t| t.iter().cloned()).collect();
        ExperimentRun {
            learner: self.learner.clone(),
            scope: self.scope,
            threads: self.train_threads,
            machine_name: self.machine.name().to_string(),
            names,
            programs,
            traces,
            all_traces,
            store,
        }
    }
}

/// An error rebuilding a run from serialized traces
/// ([`Experiment::run_from_serialized`]).
#[derive(Debug, Clone, PartialEq)]
pub enum CorpusError {
    /// The bytes failed to parse as a binary trace file.
    Read(BinaryTraceError),
    /// The parsed records do not line up with the supplied programs.
    Mismatch {
        /// Benchmark name of the first record that failed to place.
        benchmark: String,
        /// Why it failed to place.
        detail: String,
    },
}

impl std::fmt::Display for CorpusError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CorpusError::Read(e) => write!(f, "{e}"),
            CorpusError::Mismatch { benchmark, detail } => {
                write!(f, "trace corpus does not match the program suite at benchmark {benchmark:?}: {detail}")
            }
        }
    }
}

impl std::error::Error for CorpusError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CorpusError::Read(e) => Some(e),
            CorpusError::Mismatch { .. } => None,
        }
    }
}

/// The output of the trace stage plus lazily computed label / train /
/// evaluate stages. Trained filters live in the run's [`FilterStore`]
/// — keyed per `(machine, learner, scope, threshold)` — rather than in
/// private caches, so the same filters the tables report are the ones
/// a JIT session or a serving daemon deploys.
pub struct ExperimentRun {
    learner: LearnerKind,
    scope: ScopeKind,
    threads: usize,
    machine_name: String,
    names: Vec<String>,
    programs: Rc<Vec<Program>>,
    traces: Vec<Vec<TraceRecord>>,
    all_traces: Vec<TraceRecord>,
    store: Arc<FilterStore>,
}

impl ExperimentRun {
    /// Benchmark names, in program order.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// The traced programs, in the order given to [`Experiment::run`].
    pub fn programs(&self) -> &[Program] {
        &self.programs
    }

    /// Per-benchmark traces, parallel to [`names`](ExperimentRun::names).
    pub fn traces(&self) -> &[Vec<TraceRecord>] {
        &self.traces
    }

    /// All benchmarks' traces, concatenated in program order.
    pub fn all_traces(&self) -> &[TraceRecord] {
        &self.all_traces
    }

    /// Serializes the whole trace corpus in the binary
    /// `schedfilter-trace-bin-v1` encoding
    /// ([`write_trace_binary`](crate::write_trace_binary)), ready to be
    /// reloaded with [`Experiment::run_from_serialized`].
    ///
    /// # Errors
    ///
    /// Returns a [`TraceWriteError`](crate::TraceWriteError) when a
    /// record carries a non-finite feature value.
    pub fn serialize_traces(&self) -> Result<Vec<u8>, crate::TraceWriteError> {
        crate::write_trace_binary(&self.all_traces)
    }

    /// One benchmark's trace, by name.
    ///
    /// # Panics
    ///
    /// Panics if `bench` is not one of the run's benchmarks.
    pub fn trace_for(&self, bench: &str) -> &[TraceRecord] {
        let i = self.index_of(bench);
        &self.traces[i]
    }

    fn index_of(&self, bench: &str) -> usize {
        self.names.iter().position(|n| n == bench).unwrap_or_else(|| panic!("no benchmark {bench} in this run"))
    }

    /// The train config this run uses at threshold `t`, with the run's
    /// configured backend and scope.
    pub fn train_config(&self, t: u32) -> TrainConfig {
        TrainConfig { label: LabelConfig::new(t), learner: self.learner.clone(), scope: self.scope }
    }

    /// The run's configured induction backend.
    pub fn learner(&self) -> &LearnerKind {
        &self.learner
    }

    /// The scheduling scope this run's traces were collected at.
    pub fn scope(&self) -> ScopeKind {
        self.scope
    }

    /// Stage 2: the labeled RIPPER dataset at threshold `t`, grouped by
    /// benchmark for leave-one-benchmark-out CV.
    pub fn dataset(&self, t: u32) -> (Dataset, BTreeMap<String, u32>) {
        build_dataset(&self.all_traces, LabelConfig::new(t))
    }

    /// Stage 3 (evaluation protocol): leave-one-benchmark-out filters at
    /// threshold `t` under the run's configured backend, cached across
    /// artifacts, trained with folds sharded across the configured
    /// worker threads.
    pub fn loocv_filters(&self, t: u32) -> LoocvFilters {
        self.loocv_filters_for(t, &self.learner)
    }

    /// [`loocv_filters`](ExperimentRun::loocv_filters) under an explicit
    /// backend — the portfolio path: the traced corpus is shared, only
    /// the training stage re-runs, and each `(learner, threshold)` pair
    /// occupies its own [`FilterStore`] fold slot.
    pub fn loocv_filters_for(&self, t: u32, learner: &LearnerKind) -> LoocvFilters {
        let config = TrainConfig { label: LabelConfig::new(t), learner: learner.clone(), scope: self.scope };
        self.store.loocv_or_train(self.filter_key(t, learner), || {
            train_loocv_sharded(&self.all_traces, &config, self.threads)
        })
    }

    /// The filter trained for (i.e. *excluding*) the named benchmark.
    ///
    /// # Panics
    ///
    /// Panics if `bench` is not one of the run's benchmarks.
    pub fn filter_for(&self, t: u32, bench: &str) -> LearnedFilter {
        let filters = self.loocv_filters(t);
        filters
            .iter()
            .find(|(n, _)| n == bench)
            .map(|(_, f)| f.clone())
            .unwrap_or_else(|| panic!("no filter for benchmark {bench}"))
    }

    /// Stage 3 ("at the factory", §3): one filter trained on the whole
    /// corpus at threshold `t` under the run's configured backend,
    /// published in the run's [`FilterStore`] (the cross-machine
    /// transfer table queries it repeatedly; a retrainer may later
    /// [`swap`](FilterStore::swap) the same slot).
    pub fn factory_filter(&self, t: u32) -> LearnedFilter {
        self.factory_filter_for(t, &self.learner)
    }

    /// [`factory_filter`](ExperimentRun::factory_filter) under an
    /// explicit backend, published per `(machine, learner, scope,
    /// threshold)`.
    pub fn factory_filter_for(&self, t: u32, learner: &LearnerKind) -> LearnedFilter {
        let config = TrainConfig { label: LabelConfig::new(t), learner: learner.clone(), scope: self.scope };
        self.store
            .deployed_or_train(self.filter_key(t, learner), || crate::train_filter(&self.all_traces, &config))
            .source()
            .clone()
    }

    /// The machine name this run's filters are keyed under.
    pub fn machine_name(&self) -> &str {
        &self.machine_name
    }

    /// The [`FilterKey`] this run files threshold-`t` filters of
    /// `learner` under: its machine, the backend's canonical tag, and
    /// the run's scope.
    pub fn filter_key(&self, t: u32, learner: &LearnerKind) -> FilterKey {
        FilterKey::new(&self.machine_name, learner, self.scope, t)
    }

    /// The run's backing [`FilterStore`]. Each run gets a private store
    /// by default; the cross-machine matrix shares one across its
    /// per-machine runs, and a serving daemon can deploy (and hot-swap)
    /// straight out of it.
    pub fn store(&self) -> &Arc<FilterStore> {
        &self.store
    }

    /// One learner's full portfolio row on this run: aggregate LOOCV
    /// classification error over every benchmark's held-out fold,
    /// geometric-mean predicted/app time ratios, and the accumulated
    /// honest filter + extraction overhead
    /// ([`EvalTimes`](crate::EvalTimes)) of its compiled filters.
    pub fn learner_eval(&self, t: u32, learner: &LearnerKind) -> PortfolioEntry {
        let filters = self.loocv_filters_for(t, learner);
        let label = LabelConfig::new(t);
        let mut confusion = ConfusionMatrix::default();
        let mut pred = Vec::new();
        let mut app = Vec::new();
        let mut times = EvalTimes::default();
        let mut conditions = 0usize;
        for (bench, filter) in filters.iter() {
            let tr = self.trace_for(bench);
            let compiled = filter.compile();
            let m = classification_matrix(tr, &compiled, label);
            confusion.accumulate(&m);
            pred.push(predicted_time_ratio(tr, &compiled));
            app.push(app_time_ratio(tr, &compiled));
            times.accumulate(&sched_time_ratio(tr, &compiled, &DecisionPolicy::HardThreshold));
            conditions += filter.rules().condition_count();
        }
        PortfolioEntry {
            learner: learner.name(),
            error_percent: confusion.error_percent(),
            predicted_percent: geometric_mean(&pred),
            app_ratio: geometric_mean(&app),
            conditions,
            times,
        }
    }

    /// Stage 4, Table 3: confusion of `bench`'s own LOOCV filter against
    /// its threshold-`t` labels.
    pub fn classification(&self, t: u32, bench: &str) -> ConfusionMatrix {
        classification_matrix(self.trace_for(bench), &self.compiled_filter_for(t, bench), LabelConfig::new(t))
    }

    /// Stage 4, Table 4: predicted (cheap-estimator) execution time under
    /// `bench`'s LOOCV filter, percent of never-scheduling.
    pub fn predicted_time(&self, t: u32, bench: &str) -> f64 {
        predicted_time_ratio(self.trace_for(bench), &self.compiled_filter_for(t, bench))
    }

    /// Stage 4, Figures 1b/2b/3b: measured application-time ratio under
    /// `bench`'s LOOCV filter (fraction of never-scheduling).
    pub fn app_time(&self, t: u32, bench: &str) -> f64 {
        app_time_ratio(self.trace_for(bench), &self.compiled_filter_for(t, bench))
    }

    /// Figures 1b/2b/3b reference rows: application-time ratio of an
    /// arbitrary fixed strategy over one benchmark.
    pub fn app_time_with(&self, bench: &str, filter: &CompiledFilter) -> f64 {
        app_time_ratio(self.trace_for(bench), filter)
    }

    /// Stage 4, Figures 1a/2a/3a: scheduling-time measurement of
    /// `bench`'s LOOCV filter versus always-scheduling, with the
    /// schedule/skip call delegated to `policy`
    /// ([`DecisionPolicy::HardThreshold`] is the paper's).
    pub fn sched_time(&self, t: u32, bench: &str, policy: &DecisionPolicy) -> EvalTimes {
        sched_time_ratio(self.trace_for(bench), &self.compiled_filter_for(t, bench), policy)
    }

    /// The compiled engine form of `bench`'s LOOCV filter — flat
    /// condition table plus feature demand mask, ready for the deployed
    /// fast path ([`filtered_schedule_pass`](crate::filtered_schedule_pass))
    /// or batch classification.
    pub fn compiled_filter_for(&self, t: u32, bench: &str) -> CompiledFilter {
        self.filter_for(t, bench).compile()
    }

    /// Aggregate scheduling-time measurement of the threshold-`t` LOOCV
    /// filters over *all* benchmarks — the per-machine row of the
    /// filter-cost table: how much work the filters themselves add
    /// (`filter_work` + `feature_work`) against the full always-schedule
    /// cost.
    pub fn sched_time_total(&self, t: u32) -> EvalTimes {
        let mut total = EvalTimes::default();
        for bench in &self.names {
            total.accumulate(&self.sched_time(t, bench, &DecisionPolicy::HardThreshold));
        }
        total
    }

    /// The leave-one-out calibrated expected-benefit policy for `bench`:
    /// the savings rate comes from every *other* benchmark's traces,
    /// mirroring the LOOCV training protocol — the held-out fold never
    /// calibrates its own model, just as it never trains its own filter.
    pub fn policy_for(&self, bench: &str, cycles_per_work: f64) -> DecisionPolicy {
        let i = self.index_of(bench);
        let others = self.traces.iter().enumerate().filter(|&(j, _)| j != i).flat_map(|(_, t)| t);
        DecisionPolicy::expected_benefit(others, cycles_per_work)
    }

    /// [`sched_time_total`](ExperimentRun::sched_time_total) under the
    /// per-fold expected-benefit policy at operating point
    /// `cycles_per_work`: each benchmark is evaluated with a
    /// [`BenefitModel`](crate::BenefitModel) calibrated on the other
    /// benchmarks' traces ([`policy_for`](ExperimentRun::policy_for)),
    /// so the aggregate is as honest as the LOOCV error numbers.
    pub fn sched_time_expected_benefit(&self, t: u32, cycles_per_work: f64) -> EvalTimes {
        let mut total = EvalTimes::default();
        for bench in &self.names {
            let policy = self.policy_for(bench, cycles_per_work);
            total.accumulate(&self.sched_time(t, bench, &policy));
        }
        total
    }

    /// Stage 4, Table 6: run-time LS/NS classification counts of
    /// `bench`'s LOOCV filter over all its blocks.
    pub fn runtime_counts(&self, t: u32, bench: &str) -> ClassCounts {
        runtime_classification(self.trace_for(bench), &self.compiled_filter_for(t, bench))
    }

    /// Count of trace records labeled `LS` at threshold `t` (Table 5).
    pub fn ls_instances(&self, t: u32) -> usize {
        let label = LabelConfig::new(t);
        self.all_traces.iter().filter(|r| label.label(r) == Some(true)).count()
    }

    /// Count of trace records labeled `NS` (constant across thresholds).
    pub fn ns_instances(&self) -> usize {
        let label = LabelConfig::new(0);
        self.all_traces.iter().filter(|r| label.label(r) == Some(false)).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The shared learnable three-benchmark suite, at six methods per
    /// program.
    fn suite() -> Vec<Program> {
        crate::testutil::learnable_suite(6)
    }

    fn run() -> ExperimentRun {
        Experiment::new(MachineConfig::ppc7410()).with_timing(TimingMode::Deterministic).run(suite())
    }

    #[test]
    fn run_preserves_program_order_and_counts() {
        let r = run();
        assert_eq!(r.names(), ["alpha", "beta", "gamma"]);
        assert_eq!(r.programs().len(), 3);
        assert_eq!(r.traces().len(), 3);
        assert_eq!(r.all_traces().len(), 3 * 6 * 3);
        assert_eq!(r.trace_for("beta").len(), 18);
    }

    #[test]
    fn loocv_filters_are_cached_and_named() {
        let r = run();
        let a = r.loocv_filters(0);
        let b = r.loocv_filters(0);
        assert!(Arc::ptr_eq(&a, &b));
        let names: Vec<&str> = a.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["alpha", "beta", "gamma"]);
    }

    #[test]
    fn factory_filters_are_published_in_the_store() {
        let r = run();
        let f = r.factory_filter(0);
        let key = r.filter_key(0, r.learner());
        assert_eq!(key.machine(), "ppc7410");
        let snap = r.store().get(&key).expect("factory filter published");
        assert_eq!(snap.epoch(), 1, "first publication of this key");
        assert_eq!(*snap.source(), f);
        assert_eq!(*snap.compiled(), f.compile(), "snapshot carries the lowered engine");
        // A second request is a store hit, not a retrain.
        let again = r.factory_filter(0);
        assert_eq!(again, f);
        assert_eq!(r.store().epoch(&key), Some(1), "cache hits do not advance the epoch");
    }

    #[test]
    fn pipeline_stages_compose() {
        let r = run();
        let (data, groups) = r.dataset(0);
        assert_eq!(groups.len(), 3);
        assert_eq!(data.len(), r.all_traces().len(), "t=0 labels every record");
        let m = r.classification(0, "alpha");
        assert!(m.total() > 0);
        let counts = r.runtime_counts(0, "alpha");
        assert_eq!(counts.total(), r.trace_for("alpha").len());
        assert!(r.app_time(0, "alpha") <= 1.0 + 1e-9);
        assert_eq!(r.app_time_with("alpha", &CompiledFilter::never()), 1.0);
        // The OoO hardware stand-in recovers these blocks' stalls, so the
        // measured channel only guarantees "no worse"; the benefit shows
        // on the estimated (cheap, in-order) channel.
        assert!(r.app_time_with("alpha", &CompiledFilter::always()) <= 1.0);
        assert!(predicted_time_ratio(r.trace_for("alpha"), &CompiledFilter::always()) < 100.0);
    }

    #[test]
    fn ls_instances_shrink_with_threshold_ns_constant() {
        let r = run();
        assert!(r.ls_instances(0) >= r.ls_instances(25));
        assert!(r.ls_instances(25) >= r.ls_instances(50));
        assert_eq!(
            r.ns_instances() + r.ls_instances(0),
            r.all_traces().len(),
            "t=0 partitions all records into LS and NS"
        );
    }

    #[test]
    fn deterministic_runs_are_identical_across_thread_counts() {
        let serial = Experiment::new(MachineConfig::ppc7410())
            .with_threads(1)
            .with_timing(TimingMode::Deterministic)
            .run(suite());
        let sharded = Experiment::new(MachineConfig::ppc7410())
            .with_threads(7)
            .with_timing(TimingMode::Deterministic)
            .run(suite());
        assert_eq!(serial.all_traces(), sharded.all_traces());
        let a = serial.loocv_filters(10);
        let b = sharded.loocv_filters(10);
        assert_eq!(*a, *b, "fold-sharded training must match serial training");
    }

    #[test]
    fn policy_lives_in_the_pipeline_config() {
        let cps = Experiment::new(MachineConfig::ppc7410()).with_timing(TimingMode::Deterministic);
        let rand = cps.clone().with_policy(SchedulePolicy::Random(7));
        assert_eq!(rand.policy(), SchedulePolicy::Random(7));
        let p = &suite()[0];
        let a = cps.trace(p);
        let b = rand.trace(p);
        let est_a: u64 = a.iter().map(|r| r.est_sched).sum();
        let est_b: u64 = b.iter().map(|r| r.est_sched).sum();
        assert!(est_a <= est_b, "CPS must not lose to the random policy");
    }

    #[test]
    #[should_panic(expected = "no benchmark nope")]
    fn unknown_benchmark_panics() {
        run().trace_for("nope");
    }

    #[test]
    fn serialized_corpus_round_trips_through_the_pipeline() {
        let exp = Experiment::new(MachineConfig::ppc7410()).with_timing(TimingMode::Deterministic);
        let original = exp.run(suite());
        let bytes = original.serialize_traces().expect("generated corpus is finite");
        let reloaded = exp.run_from_serialized(suite(), &bytes).expect("own corpus reloads");
        assert_eq!(reloaded.names(), original.names());
        assert_eq!(reloaded.all_traces(), original.all_traces());
        assert_eq!(reloaded.traces(), original.traces(), "per-benchmark grouping survives");
        // Downstream stages agree: same filters without re-tracing.
        assert_eq!(*reloaded.loocv_filters(10), *original.loocv_filters(10));
        // Re-serializing the reloaded run reproduces the file byte for byte.
        assert_eq!(reloaded.serialize_traces().expect("reloaded corpus is finite"), bytes);
    }

    #[test]
    fn mismatched_corpus_is_rejected_by_name() {
        let exp = Experiment::new(MachineConfig::ppc7410()).with_timing(TimingMode::Deterministic);
        let bytes = exp.run(suite()).serialize_traces().unwrap();
        // Drop a program from the suite: its records no longer place.
        let mut short = suite();
        short.remove(1);
        let err = match exp.run_from_serialized(short, &bytes) {
            Err(e) => e,
            Ok(_) => panic!("orphan records must be rejected"),
        };
        match err {
            CorpusError::Mismatch { benchmark, detail } => {
                assert_eq!(benchmark, "beta");
                assert!(detail.contains("no such program"), "got: {detail}");
            }
            other => panic!("expected Mismatch, got {other:?}"),
        }
        // Garbage bytes surface the reader's named error.
        let err = match exp.run_from_serialized(suite(), b"not a trace") {
            Err(e) => e,
            Ok(_) => panic!("garbage must be rejected"),
        };
        assert!(matches!(err, CorpusError::Read(BinaryTraceError::BadMagic)), "got {err:?}");
    }

    #[test]
    fn superblock_scope_flows_through_the_whole_pipeline() {
        let programs = crate::testutil::mergeable_suite(4);
        let sb = Experiment::new(MachineConfig::ppc7410())
            .with_timing(TimingMode::Deterministic)
            .with_scope(ScopeKind::Superblock(70))
            .run(programs.clone());
        assert_eq!(sb.scope(), ScopeKind::Superblock(70));
        assert_eq!(sb.train_config(10).scope, ScopeKind::Superblock(70));
        // Traces are per scope unit: 2 per method (merged + cold).
        assert_eq!(sb.all_traces().len(), 3 * 4 * 2);
        // The LOOCV filters carry the scope tag and classify the traces.
        let filters = sb.loocv_filters(0);
        assert_eq!(filters.len(), 3);
        for (bench, f) in filters.iter() {
            assert_eq!(f.learner(), "L/N@sb70");
            let m = sb.classification(0, bench);
            assert!(m.total() > 0);
        }
        // Scope is a real scenario axis: the block pipeline over the
        // same corpus sees more (finer) decision units.
        let block = Experiment::new(MachineConfig::ppc7410()).with_timing(TimingMode::Deterministic).run(programs);
        assert_eq!(block.all_traces().len(), 3 * 4 * 4);
        assert!(block.all_traces().len() > sb.all_traces().len());
    }
}
