//! The unified §2.2 pipeline: **trace → label → train → evaluate** as
//! one composable, parallelizable unit. [`Experiment`] owns the sequence
//! end to end, on one machine ([`Experiment::run`]) or on several
//! ([`Experiment::run_on`]):
//!
//! 1. **Trace** maps to §2.2's instrumented scheduling pass: every block
//!    of every benchmark program is feature-extracted and list-scheduled,
//!    with cycle counts from the scheduler's own cost model (the
//!    "simplified simulator" for labeling) and from
//!    [`PipelineSim`](wts_machine::PipelineSim) (standing in for
//!    hardware). Collection shards the machines×programs×methods list
//!    with scoped threads and is bit-identical to the serial path.
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
use crate::matrix::{MatrixRun, PortfolioEntry};
use crate::policy::DecisionPolicy;
use crate::store::{FilterKey, FilterStore};
use crate::trace::{collect_trace, trace_suite, SuiteTrace, TimingMode, TraceOptions, TraceRecord};
use crate::train::{train_loocv, TrainConfig};
use crate::{BinaryTraceError, CompiledFilter, LearnedFilter};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::ops::Range;
use std::rc::Rc;
use std::sync::Arc;
use wts_ir::{Program, ScopeKind};
use wts_machine::MachineConfig;
use wts_ripper::{geometric_mean, ConfusionMatrix, Dataset};
use wts_sched::SchedulePolicy;

/// Name-sorted `(benchmark, filter)` pairs from one LOOCV training run,
/// cached per [`FilterKey`] on the [`ExperimentRun`] that trained them.
/// `Arc`'d so a caller can keep a fold set, or hand it to another
/// thread, without cloning the filters.
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
    /// The trace stage's options: policy, trace threads, timing and
    /// scope.
    trace: TraceOptions,
    train_threads: usize,
}

impl Experiment {
    /// A pipeline over `machine` with the paper's defaults: CPS
    /// scheduling, default RIPPER settings, one worker thread per
    /// available core, wall-clock timing.
    pub fn new(machine: MachineConfig) -> Experiment {
        Experiment { machine, trace: TraceOptions { threads: 0, ..TraceOptions::default() }, train_threads: 0 }
    }

    /// Selects the scheduler policy the instrumented pass runs.
    pub fn with_policy(mut self, policy: SchedulePolicy) -> Experiment {
        self.trace.policy = policy;
        self
    }

    /// Sets the worker-thread count for tracing and LOOCV training
    /// (`0` = one per available core, `1` = fully serial).
    pub fn with_threads(mut self, threads: usize) -> Experiment {
        self.trace.threads = threads;
        self.train_threads = threads;
        self
    }

    /// Sets the trace-stage worker count alone. Serial tracing keeps the
    /// wall-clock `*_ns` channels free of multi-worker cache contention,
    /// which matters when those channels feed published timing artifacts;
    /// the cycle-count channels are thread-count invariant either way.
    pub fn with_trace_threads(mut self, threads: usize) -> Experiment {
        self.trace.threads = threads;
        self
    }

    /// Switches the `*_ns` channels to the deterministic work proxies,
    /// making traces byte-identical run to run.
    pub fn with_timing(mut self, timing: TimingMode) -> Experiment {
        self.trace.timing = timing;
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
        self.trace.scope = scope;
        self
    }

    /// The modelled machine.
    pub fn machine(&self) -> &MachineConfig {
        &self.machine
    }

    /// The scheduler policy the pipeline runs.
    pub fn policy(&self) -> SchedulePolicy {
        self.trace.policy
    }

    /// The scheduling scope the pipeline operates on.
    pub fn scope(&self) -> ScopeKind {
        self.trace.scope
    }

    /// The trace-stage options this configuration denotes.
    fn trace_options(&self) -> TraceOptions {
        self.trace
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
        self.run_on(vec![self.machine.clone()], programs).runs.pop().expect("one run per machine")
    }

    /// Runs this experiment's settings on each of `machines` in place of
    /// its own machine: the cross-machine sweep. The suite is traced on
    /// every machine through one sharded machines×programs×methods work
    /// list, and each machine gets its own [`ExperimentRun`], so every
    /// single-machine artifact stays available per machine. The runs
    /// share one corpus and one [`FilterStore`]; their keys cannot
    /// collide because each run keys by its own machine name.
    ///
    /// # Panics
    ///
    /// Panics if `machines` is empty.
    ///
    /// # Examples
    ///
    /// ```
    /// use wts_core::{Experiment, TimingMode};
    /// use wts_machine::MachineConfig;
    ///
    /// let programs = wts_core::testutil::learnable_suite(2);
    /// let machines = vec![MachineConfig::ppc7410(), MachineConfig::embedded()];
    /// let sweep = Experiment::new(MachineConfig::ppc7410())
    ///     .with_timing(TimingMode::Deterministic)
    ///     .run_on(machines, programs.clone());
    /// assert_eq!(sweep.machine_names(), ["ppc7410", "embedded"]);
    /// let embedded = Experiment::new(MachineConfig::embedded()).with_timing(TimingMode::Deterministic).run(programs);
    /// assert_eq!(sweep.run_for("embedded").all_traces(), embedded.all_traces());
    /// ```
    pub fn run_on(&self, machines: Vec<MachineConfig>, programs: Vec<Program>) -> MatrixRun {
        assert!(!machines.is_empty(), "matrix needs at least one machine");
        let traces = trace_suite(&machines, &programs, &self.trace);
        let store = FilterStore::shared();
        let programs = Rc::new(programs);
        let runs = machines
            .into_iter()
            .zip(traces)
            .map(|(machine, trace)| {
                Experiment { machine, ..self.clone() }.package(Arc::clone(&store), Rc::clone(&programs), trace)
            })
            .collect();
        MatrixRun { runs, store }
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
        let mut end = 0;
        let mut ranges = Vec::with_capacity(programs.len());
        for program in &programs {
            let start = end;
            while records.get(end).is_some_and(|r| r.benchmark == program.name()) {
                end += 1;
            }
            ranges.push(start..end);
        }
        if let Some(r) = records.get(end) {
            let known = programs.iter().any(|p| p.name() == r.benchmark);
            return Err(CorpusError::Mismatch {
                benchmark: r.benchmark.clone(),
                detail: if known {
                    "records are not grouped in program order".to_string()
                } else {
                    "no such program in this run's suite".to_string()
                },
            });
        }
        Ok(self.clone().package(FilterStore::shared(), Rc::new(programs), SuiteTrace { records, ranges }))
    }

    /// Packages one machine's traced suite as an [`ExperimentRun`] under
    /// this configuration, backed by `store`. Runs sharing one store must
    /// differ in at least one [`FilterKey`] component.
    fn package(self, store: Arc<FilterStore>, programs: Rc<Vec<Program>>, trace: SuiteTrace) -> ExperimentRun {
        debug_assert_eq!(programs.len(), trace.ranges.len(), "one range per program");
        let names = programs.iter().map(|p| p.name().to_string()).collect();
        let SuiteTrace { records: all_traces, ranges } = trace;
        ExperimentRun { config: self, names, programs, all_traces, ranges, store, folds: RefCell::default() }
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
/// evaluate stages. Factory filters live in the run's [`FilterStore`]
/// — keyed per `(machine, learner, scope, threshold)` — rather than in
/// a private cache, so the same filters the tables report are the ones
/// a JIT session or a serving daemon deploys. LOOCV fold sets, which
/// are evaluated but never deployed, are cached on the run itself.
pub struct ExperimentRun {
    /// The configuration the run was traced under (its scope, training
    /// threads and machine).
    config: Experiment,
    names: Vec<String>,
    programs: Rc<Vec<Program>>,
    /// Every benchmark's records, concatenated in program order.
    all_traces: Vec<TraceRecord>,
    /// Each benchmark's range of `all_traces`, parallel to `names`.
    ranges: Vec<Range<usize>>,
    store: Arc<FilterStore>,
    /// LOOCV fold sets trained so far, under the key of the filters
    /// they were trained as.
    folds: RefCell<BTreeMap<FilterKey, LoocvFilters>>,
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
    pub fn traces(&self) -> Vec<&[TraceRecord]> {
        self.ranges.iter().map(|r| &self.all_traces[r.clone()]).collect()
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
        &self.all_traces[self.ranges[self.index_of(bench)].clone()]
    }

    fn index_of(&self, bench: &str) -> usize {
        self.names.iter().position(|n| n == bench).unwrap_or_else(|| panic!("no benchmark {bench} in this run"))
    }

    /// The train config this run uses at threshold `t`, with RIPPER and
    /// the run's scope.
    pub fn train_config(&self, t: u32) -> TrainConfig {
        self.train_config_for(t, self.learner())
    }

    /// The induction backend of the run's own artifacts: RIPPER, the
    /// paper's learner. The `*_for` entries take any other backend.
    pub fn learner(&self) -> &LearnerKind {
        &LearnerKind::Ripper
    }

    /// The scheduling scope this run's traces were collected at.
    pub fn scope(&self) -> ScopeKind {
        self.config.scope()
    }

    fn train_config_for(&self, t: u32, learner: &LearnerKind) -> TrainConfig {
        TrainConfig { label: LabelConfig::new(t), learner: *learner, scope: self.scope() }
    }

    /// Stage 2: the labeled RIPPER dataset at threshold `t`, grouped by
    /// benchmark for leave-one-benchmark-out CV.
    pub fn dataset(&self, t: u32) -> (Dataset, BTreeMap<String, u32>) {
        build_dataset(&self.all_traces, LabelConfig::new(t))
    }

    /// Stage 3 (evaluation protocol): leave-one-benchmark-out RIPPER
    /// filters at threshold `t`, cached across artifacts, trained with
    /// folds sharded across the configured worker threads.
    pub fn loocv_filters(&self, t: u32) -> LoocvFilters {
        self.loocv_filters_for(t, self.learner())
    }

    /// [`loocv_filters`](ExperimentRun::loocv_filters) under an explicit
    /// backend — the portfolio path: the traced corpus is shared, only
    /// the training stage re-runs, and each `(learner, threshold)` pair
    /// is cached as its own fold set.
    pub fn loocv_filters_for(&self, t: u32, learner: &LearnerKind) -> LoocvFilters {
        let key = self.filter_key(t, learner);
        if let Some(hit) = self.folds.borrow().get(&key) {
            return Arc::clone(hit);
        }
        let config = self.train_config_for(t, learner);
        let filters: LoocvFilters = Arc::new(train_loocv(&self.all_traces, &config, self.config.train_threads));
        self.folds.borrow_mut().insert(key, Arc::clone(&filters));
        filters
    }

    /// The filter trained for (i.e. *excluding*) the named benchmark.
    ///
    /// # Panics
    ///
    /// Panics if `bench` is not one of the run's benchmarks.
    pub fn filter_for(&self, t: u32, bench: &str) -> LearnedFilter {
        self.with_fold(t, bench, LearnedFilter::clone)
    }

    /// Applies `f` to `bench`'s threshold-`t` LOOCV filter in place.
    fn with_fold<R>(&self, t: u32, bench: &str, f: impl FnOnce(&LearnedFilter) -> R) -> R {
        let filters = self.loocv_filters(t);
        let (_, filter) =
            filters.iter().find(|(n, _)| n == bench).unwrap_or_else(|| panic!("no filter for benchmark {bench}"));
        f(filter)
    }

    /// Stage 3 ("at the factory", §3): one RIPPER filter trained on the
    /// whole corpus at threshold `t`, published in the run's
    /// [`FilterStore`] (the cross-machine
    /// transfer table queries it repeatedly; a retrainer may later
    /// [`swap`](FilterStore::swap) the same slot).
    pub fn factory_filter(&self, t: u32) -> LearnedFilter {
        self.factory_filter_for(t, self.learner())
    }

    /// [`factory_filter`](ExperimentRun::factory_filter) under an
    /// explicit backend, published per `(machine, learner, scope,
    /// threshold)`.
    pub fn factory_filter_for(&self, t: u32, learner: &LearnerKind) -> LearnedFilter {
        let config = self.train_config_for(t, learner);
        self.store
            .deployed_or_train(self.filter_key(t, learner), || crate::train_filter(&self.all_traces, &config))
            .source()
            .clone()
    }

    /// The machine this run traced on; its name keys the run's filters.
    pub fn machine(&self) -> &MachineConfig {
        &self.config.machine
    }

    /// The [`FilterKey`] this run files threshold-`t` filters of
    /// `learner` under: its machine, the backend's canonical tag, and
    /// the run's scope.
    pub fn filter_key(&self, t: u32, learner: &LearnerKind) -> FilterKey {
        FilterKey::new(self.machine().name(), learner, self.scope(), t)
    }

    /// The run's backing [`FilterStore`]. [`Experiment::run`] gives each
    /// run a private store; [`Experiment::run_on`] shares one across its
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
            let compiled = filter.compiled();
            let m = classification_matrix(tr, compiled, label);
            confusion.accumulate(&m);
            pred.push(predicted_time_ratio(tr, compiled));
            app.push(app_time_ratio(tr, compiled));
            times.accumulate(&sched_time_ratio(tr, compiled, &DecisionPolicy::HardThreshold));
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
        self.with_fold(t, bench, |f| classification_matrix(self.trace_for(bench), f.compiled(), LabelConfig::new(t)))
    }

    /// Stage 4, Table 4: predicted (cheap-estimator) execution time under
    /// `bench`'s LOOCV filter, percent of never-scheduling.
    pub fn predicted_time(&self, t: u32, bench: &str) -> f64 {
        self.with_fold(t, bench, |f| predicted_time_ratio(self.trace_for(bench), f.compiled()))
    }

    /// Stage 4, Figures 1b/2b/3b: measured application-time ratio under
    /// `bench`'s LOOCV filter (fraction of never-scheduling).
    pub fn app_time(&self, t: u32, bench: &str) -> f64 {
        self.with_fold(t, bench, |f| app_time_ratio(self.trace_for(bench), f.compiled()))
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
        self.with_fold(t, bench, |f| sched_time_ratio(self.trace_for(bench), f.compiled(), policy))
    }

    /// The compiled engine form of `bench`'s LOOCV filter — flat
    /// condition table plus feature demand mask, ready for the deployed
    /// fast path ([`filtered_schedule_pass`](crate::filtered_schedule_pass))
    /// or batch classification.
    pub fn compiled_filter_for(&self, t: u32, bench: &str) -> CompiledFilter {
        self.with_fold(t, bench, |f| f.compiled().clone())
    }

    /// Aggregate scheduling-time measurement of the threshold-`t` LOOCV
    /// filters over *all* benchmarks, each deciding under
    /// `policy(bench)`. Under [`DecisionPolicy::HardThreshold`] this is the
    /// per-machine row of the filter-cost table: how much work the filters
    /// themselves add (conditions plus extraction work) against the full
    /// always-schedule cost. Under [`policy_for`](ExperimentRun::policy_for)
    /// each benchmark's [`BenefitModel`](crate::BenefitModel) is calibrated
    /// on the other benchmarks' traces, so the aggregate is as honest as
    /// the LOOCV error numbers.
    pub(crate) fn sched_time_total(&self, t: u32, policy: impl Fn(&str) -> DecisionPolicy) -> EvalTimes {
        let mut total = EvalTimes::default();
        for bench in &self.names {
            total.accumulate(&self.sched_time(t, bench, &policy(bench)));
        }
        total
    }

    /// The leave-one-out calibrated expected-benefit policy for `bench`:
    /// the savings rate comes from every *other* benchmark's traces,
    /// mirroring the LOOCV training protocol — the held-out fold never
    /// calibrates its own model, just as it never trains its own filter.
    pub(crate) fn policy_for(&self, bench: &str, cycles_per_work: f64) -> DecisionPolicy {
        let i = self.index_of(bench);
        let others =
            self.ranges.iter().enumerate().filter(|&(j, _)| j != i).flat_map(|(_, r)| &self.all_traces[r.clone()]);
        DecisionPolicy::expected_benefit(others, cycles_per_work)
    }

    /// Stage 4, Table 6: run-time LS/NS classification counts of
    /// `bench`'s LOOCV filter over all its blocks.
    pub fn runtime_counts(&self, t: u32, bench: &str) -> ClassCounts {
        self.with_fold(t, bench, |f| runtime_classification(self.trace_for(bench), f.compiled()))
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
        assert!(r.store().keys().is_empty(), "fold sets are not deployed filters");
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
        assert_eq!(*snap.compiled(), *f.compiled(), "snapshot carries the lowered engine");
        assert!(std::ptr::eq(snap.compiled(), snap.source().compiled()), "the snapshot does not lower again");
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
    fn every_entry_keeps_an_empty_programs_range_at_every_thread_count() {
        let mut programs = suite();
        programs.insert(1, Program::new("empty"));
        let machines = [MachineConfig::ppc7410(), MachineConfig::embedded(), MachineConfig::wide4()];
        for scope in [ScopeKind::Block, ScopeKind::Superblock(70)] {
            let base =
                Experiment::new(MachineConfig::ppc7410()).with_timing(TimingMode::Deterministic).with_scope(scope);
            let serial = TraceOptions { threads: 1, ..base.trace_options() };
            // Per machine: each program's own serial `collect_trace`.
            let expected: Vec<Vec<Vec<TraceRecord>>> =
                machines.iter().map(|m| programs.iter().map(|p| collect_trace(p, m, &serial)).collect()).collect();
            let check = |run: &ExperimentRun, expect: &[Vec<TraceRecord>], what: &str| {
                assert_eq!(run.names(), ["alpha", "empty", "beta", "gamma"], "{what}");
                let traces = run.traces();
                assert_eq!(traces.len(), run.names().len(), "{what}: traces() parallel to names()");
                assert!(traces[1].is_empty(), "{what}: the empty program keeps an empty range");
                for (got, want) in traces.iter().zip(expect) {
                    assert_eq!(*got, want.as_slice(), "{what}");
                }
                assert_eq!(run.all_traces(), expect.concat().as_slice(), "{what}");
            };
            for threads in [1, 2, 3, 64, 0] {
                let exp = base.clone().with_trace_threads(threads);
                check(&exp.run(programs.clone()), &expected[0], &format!("run {scope} {threads} threads"));
                for n in [1, machines.len()] {
                    let sweep = exp.run_on(machines[..n].to_vec(), programs.clone());
                    assert_eq!(sweep.runs().len(), n);
                    for ((run, machine), expect) in sweep.runs().iter().zip(&machines).zip(&expected) {
                        assert_eq!(run.machine().name(), machine.name());
                        check(run, expect, &format!("run_on {} {scope} {threads} threads", machine.name()));
                    }
                }
            }
        }
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
