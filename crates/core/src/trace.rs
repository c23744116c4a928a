//! The per-unit pipeline: one scope dispatch, one per-unit body.
//!
//! [`for_each_scope_unit`] visits every *scope unit* of a method — every
//! basic block at [`ScopeKind::Block`], every formed superblock trace at
//! [`ScopeKind::Superblock`] — and [`UnitServer`] runs each unit through
//! the paper's one decision: extract the features, apply the filter and
//! policy, and list-schedule (speculatively for multi-block traces) only
//! when they say to. Everything that schedules units joins these two:
//!
//! * trace collection ([`collect_trace`]) runs the body with a
//!   record sink — every feature, every unit scheduled — and records
//!   estimated ("simplified simulator") and measured ("hardware") cycles
//!   for both orders, with configurable [`CostProvider`]s;
//! * label-only observation ([`TraceCollector::observe_into`], the
//!   `wts-serve` retrainer's path) runs it like trace collection but
//!   hands a [`Trainer`] only what labelling reads: the features and the
//!   estimated cycles;
//! * the deployed pass ([`filtered_schedule_pass`]), the `wts-serve`
//!   workers and the `wts-jit` compile session run it without one and
//!   tally [`FilteredPass`] totals.
//!
//! Both shard across methods with scoped threads and stay bit-for-bit
//! identical to the serial path.

use crate::engine::CompiledFilter;
use crate::policy::{DecisionPolicy, UnitEconomics};
use crate::Trainer;
use std::time::Instant;
use wts_features::{for_each_scope_unit, FeatureMask, FeatureVector, ScopeUnit, TraceShape};
use wts_ir::{BasicBlock, BlockId, Inst, Method, MethodId, Program, ScopeKind, Superblock};
use wts_machine::{CostProvider, EstimatorKind, MachineConfig};
use wts_sched::{ListScheduler, SchedScratch, ScheduleOutcome, SchedulePolicy};

/// One line of the paper's trace file, plus the extra ground-truth and
/// timing channels this reproduction needs.
///
/// At superblock scope one record covers one formed *trace*: `block` is
/// the trace's entry block, `exec_count` its profile weight, and every
/// channel is measured over the concatenated instructions (with the
/// speculative scheduler for multi-block traces).
#[derive(Debug, Clone, PartialEq)]
pub struct TraceRecord {
    /// Benchmark (program) the block came from.
    pub benchmark: String,
    /// Method within the program.
    pub method: MethodId,
    /// Block within the program (the entry block at superblock scope).
    pub block: BlockId,
    /// Profile execution count of the block (trace weight at superblock
    /// scope).
    pub exec_count: u64,
    /// The Table 1 features.
    pub features: FeatureVector,
    /// Estimated-provider cycles of the original order (labeling input).
    pub est_unsched: u64,
    /// Estimated-provider cycles after list scheduling (labeling input).
    pub est_sched: u64,
    /// Measured-provider cycles of the original order ("hardware").
    pub hw_unsched: u64,
    /// Measured-provider cycles after list scheduling ("hardware").
    pub hw_sched: u64,
    /// Wall-clock nanoseconds the scheduler spent on this block (or the
    /// deterministic work proxy under [`TimingMode::Deterministic`]).
    pub sched_ns: u64,
    /// Wall-clock nanoseconds feature extraction took (or the
    /// deterministic work proxy under [`TimingMode::Deterministic`]).
    pub feature_ns: u64,
    /// Deterministic work proxy for scheduling (instructions + DAG edges),
    /// used where tests need run-to-run stability.
    pub sched_work: u64,
    /// Deterministic work proxy for feature extraction (instructions).
    pub feature_work: u64,
}

impl TraceRecord {
    /// Estimated improvement fraction under the cheap model
    /// (`0.10` = scheduling made the block 10% faster).
    pub fn est_improvement(&self) -> f64 {
        improvement(self.est_unsched, self.est_sched)
    }

    /// Measured improvement fraction under the detailed model.
    pub fn hw_improvement(&self) -> f64 {
        improvement(self.hw_unsched, self.hw_sched)
    }
}

/// The fraction of `before` cycles that scheduling saved (0 for an
/// empty unit).
pub(crate) fn improvement(before: u64, after: u64) -> f64 {
    if before == 0 {
        return 0.0;
    }
    (before as f64 - after as f64) / before as f64
}

/// How the per-block `*_ns` channels are filled in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TimingMode {
    /// Measure wall-clock time with [`Instant`]. Real, but different on
    /// every run.
    #[default]
    WallClock,
    /// Copy the deterministic work proxies into the `*_ns` channels, so
    /// the whole record — and therefore the serialized trace file — is
    /// byte-identical run to run and between the serial and sharded
    /// collectors.
    Deterministic,
}

/// Full configuration of one trace collection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceOptions {
    /// Scheduler policy driving the instrumented pass.
    pub policy: SchedulePolicy,
    /// Worker threads for method-sharded collection. `1` is the serial
    /// path; `0` asks for [`std::thread::available_parallelism`].
    pub threads: usize,
    /// Wall-clock or deterministic `*_ns` channels.
    pub timing: TimingMode,
    /// Provider of the "estimated" cycle channels (labeling input).
    pub estimated: EstimatorKind,
    /// Provider of the "measured" cycle channels (hardware stand-in).
    pub measured: EstimatorKind,
    /// Scheduling scope: per basic block (the paper), or per formed
    /// superblock trace (the §3.1 extension).
    pub scope: ScopeKind,
}

impl Default for TraceOptions {
    fn default() -> TraceOptions {
        TraceOptions {
            policy: SchedulePolicy::CriticalPath,
            threads: 1,
            timing: TimingMode::WallClock,
            estimated: EstimatorKind::Cheap,
            measured: EstimatorKind::Detailed,
            scope: ScopeKind::Block,
        }
    }
}

impl TraceOptions {
    /// Resolved worker count (`threads`, or the machine's parallelism
    /// when `threads == 0`).
    pub fn resolved_threads(&self) -> usize {
        crate::parallel::resolve_threads(self.threads)
    }
}

/// Runs the instrumented scheduling pass over every scope unit of
/// `program` under `options`, building the estimated/measured providers
/// from their configured kinds ([`TraceOptions::default`] is the
/// paper's serial, block-scope CPS pass).
///
/// With `options.threads != 1` the program's methods are sharded across
/// scoped threads. Each method is traced independently and the shards are
/// reassembled in method order, so the output is *identical* to the
/// serial path — bit-for-bit under [`TimingMode::Deterministic`], and up
/// to wall-clock jitter in the `*_ns` channels otherwise.
pub fn collect_trace(program: &Program, machine: &MachineConfig, options: &TraceOptions) -> Vec<TraceRecord> {
    let shards = crate::parallel::shard_map(program.methods(), options.threads, |slice| {
        trace_methods(program.name(), slice, machine, options)
    });
    let mut out = Vec::with_capacity(program.block_count());
    for shard in shards {
        out.extend(shard);
    }
    out
}

/// Traces a single method — the machines×methods sharding unit of the
/// cross-machine [`ExperimentMatrix`](crate::ExperimentMatrix).
///
/// Output is exactly the slice of [`collect_trace`]'s result that
/// covers `method`, so a matrix run reassembling per-method pieces in
/// method order reproduces the per-program collector bit for bit (under
/// [`TimingMode::Deterministic`]; up to wall-clock jitter otherwise).
/// Callers tracing method after method should hold one
/// [`TraceCollector`] instead.
pub fn collect_method_trace(
    benchmark: &str,
    method: &Method,
    machine: &MachineConfig,
    options: &TraceOptions,
) -> Vec<TraceRecord> {
    trace_methods(benchmark, std::slice::from_ref(method), machine, options)
}

/// The per-shard collector: one warm [`TraceCollector`] runs every scope
/// unit of `methods`, in order.
fn trace_methods(
    benchmark: &str,
    methods: &[Method],
    machine: &MachineConfig,
    options: &TraceOptions,
) -> Vec<TraceRecord> {
    let mut collector = TraceCollector::new(machine, options);
    let mut out = Vec::new();
    for method in methods {
        collector.collect_into(benchmark, method, &mut out);
    }
    out
}

/// A warm trace collector: one [`UnitServer`] (scheduler, scratch and
/// permutation buffers) and the configured cost providers, built once and
/// reused for every method it traces. [`collect_trace`] and
/// [`collect_method_trace`] run through one of these, and a long-lived
/// caller — the `wts-serve` retrainer, observing method after method —
/// holds one for its lifetime, so what it records or
/// [observes](TraceCollector::observe_into) equals the offline
/// collector's by construction. `options.threads` is ignored: a
/// collector is one serial shard.
///
/// # Examples
///
/// ```
/// use wts_core::{collect_trace, TimingMode, TraceCollector, TraceOptions};
/// use wts_machine::MachineConfig;
///
/// let program = &wts_core::testutil::learnable_suite(2)[0];
/// let machine = MachineConfig::ppc7410();
/// let options = TraceOptions { timing: TimingMode::Deterministic, ..TraceOptions::default() };
///
/// let mut collector = TraceCollector::new(&machine, &options);
/// let mut records = Vec::new();
/// for method in program.methods() {
///     collector.collect_into(program.name(), method, &mut records);
/// }
/// assert_eq!(records, collect_trace(program, &machine, &options));
/// ```
pub struct TraceCollector<'m> {
    server: UnitServer<'m>,
    /// Provider of the `est_*` channels; `None` reuses the scheduler's
    /// own cost-model output (the cheap estimator).
    estimated: Option<Box<dyn CostProvider + 'm>>,
    measured: Box<dyn CostProvider + 'm>,
    scope: ScopeKind,
    timing: TimingMode,
}

impl<'m> TraceCollector<'m> {
    /// A collector for `machine` under `options`' scheduler policy,
    /// scope, timing mode and providers.
    pub fn new(machine: &'m MachineConfig, options: &TraceOptions) -> TraceCollector<'m> {
        // The scheduler's own cost model *is* the cheap estimator (§2.2,
        // footnote 3), so with the default kind the est_* channels reuse
        // the cycle counts scheduling already computed instead of running
        // two more cost-model passes per unit.
        let estimated = match options.estimated {
            EstimatorKind::Cheap => None,
            kind => Some(kind.provider(machine)),
        };
        TraceCollector {
            server: UnitServer::new(machine, options.policy),
            estimated,
            measured: options.measured.provider(machine),
            scope: options.scope,
            timing: options.timing,
        }
    }

    /// Runs the instrumented pass over every scope unit of `method` and
    /// appends one record per unit to `out`, in unit order.
    pub fn collect_into(&mut self, benchmark: &str, method: &Method, out: &mut Vec<TraceRecord>) {
        let mut sink = RecordSink {
            benchmark,
            method: method.id(),
            estimated: self.estimated.as_deref(),
            measured: self.measured.as_ref(),
            timing: self.timing,
            out,
        };
        let server = &mut self.server;
        for_each_scope_unit(method, self.scope, |unit| {
            server.body(&unit, UnitMode::Record(&mut sink));
        });
    }

    /// Runs every scope unit of `method` through the label-only pass and
    /// hands each unit's features and estimated cycles to `trainer`, as
    /// though the records [`collect_into`](TraceCollector::collect_into)
    /// would append were [absorbed](Trainer::absorb) — but without the
    /// measured provider, the records or their benchmark strings. Under
    /// the cheap estimator the `est_*` cycles are the scheduler's own,
    /// so nothing runs after the schedule. Returns the units observed.
    ///
    /// # Examples
    ///
    /// ```
    /// use wts_core::{collect_trace, train_filter, LearnerKind, TraceCollector, TraceOptions, TrainConfig, Trainer};
    /// use wts_machine::MachineConfig;
    ///
    /// let program = &wts_core::testutil::learnable_suite(2)[0];
    /// let machine = MachineConfig::ppc7410();
    /// let options = TraceOptions::default();
    /// let config = TrainConfig::with_learner(5, LearnerKind::Stump);
    ///
    /// let mut collector = TraceCollector::new(&machine, &options);
    /// let mut trainer = Trainer::new(&config);
    /// let mut observed = 0;
    /// for method in program.methods() {
    ///     observed += collector.observe_into(program.name(), method, &mut trainer);
    /// }
    ///
    /// let records = collect_trace(program, &machine, &options);
    /// assert_eq!(observed, records.len());
    /// assert_eq!(trainer.fit(), train_filter(&records, &config));
    /// ```
    pub fn observe_into(&mut self, benchmark: &str, method: &Method, trainer: &mut Trainer) -> usize {
        let mut sink = ObserveSink { benchmark, estimated: self.estimated.as_deref(), trainer };
        let server = &mut self.server;
        let mut units = 0;
        for_each_scope_unit(method, self.scope, |unit| {
            server.body(&unit, UnitMode::Observe(&mut sink));
            units += 1;
        });
        units
    }
}

/// Where trace collection's records go, and how their cycle and timing
/// channels are filled.
struct RecordSink<'a> {
    benchmark: &'a str,
    method: MethodId,
    /// Provider of the `est_*` channels; `None` reuses the scheduler's
    /// own cost-model output (the cheap estimator).
    estimated: Option<&'a dyn CostProvider>,
    measured: &'a dyn CostProvider,
    timing: TimingMode,
    out: &'a mut Vec<TraceRecord>,
}

/// Where the label-only pass's observations go: the retrainer's
/// [`Trainer`], under one benchmark name.
struct ObserveSink<'a> {
    benchmark: &'a str,
    /// Provider of the `est_*` cycles; `None` reuses the scheduler's own
    /// cost-model output (the cheap estimator).
    estimated: Option<&'a dyn CostProvider>,
    trainer: &'a mut Trainer,
}

/// Deterministic scheduling-work proxy for one scope unit: per-unit
/// setup (DAG allocation) + linear nodes/edges work + the selection
/// loop's quadratic earliest-start queries. Matches the measured ~26:1
/// sched:feature cost on the generated corpus. `edges` is the edge count
/// of the graph the scheduler actually built for this unit
/// ([`SchedScratch::last_edge_count`] — the speculative graph for
/// multi-block traces), so the proxy charges real work without
/// rebuilding the graph a second time.
fn sched_work_proxy(n: usize, edges: usize) -> u64 {
    (16 + 2 * (n + edges) + n * n) as u64
}

/// Deterministic totals of one production-style *filtered* scheduling
/// pass ([`filtered_schedule_pass`]): what the deployed compiler would
/// actually spend with a compiled filter installed.
///
/// The *unit* is the configured scope: basic blocks at
/// [`ScopeKind::Block`], formed superblock traces at
/// [`ScopeKind::Superblock`] — `total_blocks`/`scheduled_blocks` count
/// decision units either way.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FilteredPass {
    /// Scope units (blocks or traces) seen.
    pub total_blocks: usize,
    /// Scope units the filter sent to the scheduler.
    pub scheduled_blocks: usize,
    /// Filter conditions evaluated across all blocks (short-circuit
    /// aware; the engine's honest decision cost).
    pub conditions_evaluated: u64,
    /// Demand-masked feature-extraction work across all blocks
    /// ([`FeatureMask::extraction_work`](wts_features::FeatureMask::extraction_work)).
    pub extraction_work: u64,
    /// Scheduling work of the selected blocks (same proxy as
    /// [`TraceRecord::sched_work`]).
    pub sched_work: u64,
    /// Summed per-worker busy nanoseconds in the pass's hot loop
    /// (extraction + decision + scheduling; bookkeeping excluded).
    /// Under sharding this is aggregate CPU time across workers, *not*
    /// wall-clock — run with `threads: 1` to measure the serial pass,
    /// and never compare this channel across thread counts. It jitters
    /// run to run, unlike the work channels.
    pub pass_ns: u64,
}

impl FilteredPass {
    /// Accumulates a shard's totals.
    pub fn merge(&mut self, other: &FilteredPass) {
        self.total_blocks += other.total_blocks;
        self.scheduled_blocks += other.scheduled_blocks;
        self.conditions_evaluated += other.conditions_evaluated;
        self.extraction_work += other.extraction_work;
        self.sched_work += other.sched_work;
        self.pass_ns += other.pass_ns;
    }

    /// The share of this pass's *total* work spent on the filter itself
    /// (extraction + conditions, against extraction + conditions +
    /// scheduling). A pass that filtered hard but scheduled nothing
    /// correctly reads as 1.0 — all filter, no payoff — and 0.0 means
    /// the pass did no filter work at all (the fixed strategies).
    ///
    /// Note the denominator differs from
    /// [`EvalTimes::overhead_fraction`](crate::EvalTimes::overhead_fraction),
    /// which compares against the filter-independent always-schedule
    /// work of a collected trace; this type only observes the work the
    /// pass actually performed.
    pub fn overhead_fraction(&self) -> f64 {
        let overhead = self.conditions_evaluated + self.extraction_work;
        if overhead == 0 {
            return 0.0;
        }
        overhead as f64 / (overhead + self.sched_work) as f64
    }
}

/// Runs the deployed fast path over every scope unit of `program`: one
/// demand-masked feature pass, the compiled condition table, and list
/// scheduling only for the selected units — the loop a JIT with the
/// filter installed would run, with the filter's true cost tallied per
/// unit instead of assumed. At [`ScopeKind::Superblock`] the units are
/// formed traces and selected multi-block traces go through the
/// speculative scheduler; trace formation itself is profile bookkeeping
/// the JIT already does and stays outside the timed window, like the
/// work-proxy rebuilds.
///
/// The schedule/skip call is the `policy`'s: each unit is scored
/// through the same short-circuit walk the boolean decision uses, and
/// the calibrated score plus the unit's economics (size, profile weight,
/// work already spent deciding) go to the policy.
/// [`HardThreshold`](DecisionPolicy::HardThreshold) schedules exactly
/// the units a rule fires on.
///
/// Methods shard across `options.threads` scoped workers exactly like
/// [`collect_trace`]; the work-channel totals are identical for every
/// thread count (only `pass_ns` jitters).
pub fn filtered_schedule_pass(
    program: &Program,
    machine: &MachineConfig,
    filter: &CompiledFilter,
    policy: &DecisionPolicy,
    options: &TraceOptions,
) -> FilteredPass {
    let shards = crate::parallel::shard_map(program.methods(), options.threads, |slice| {
        let mut server = UnitServer::new(machine, options.policy);
        let mut totals = FilteredPass::default();
        for method in slice {
            for_each_scope_unit(method, options.scope, |unit| {
                server.run(&unit, filter, policy, &mut totals);
            });
        }
        totals
    });
    let mut totals = FilteredPass::default();
    for shard in &shards {
        totals.merge(shard);
    }
    totals
}

/// What serving one scope unit through [`UnitServer`] produced: the
/// schedule/skip call, and — when scheduled — the permutation and the
/// cheap-model cycle estimates.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ServedUnit {
    /// Whether the filter + policy sent this unit to the scheduler.
    pub decision: bool,
    /// The new order as original instruction indices (empty when the
    /// unit was skipped — the original order stands).
    pub order: Vec<u32>,
    /// Estimated cycles of the original order (0 when skipped).
    pub cycles_before: u64,
    /// Estimated cycles of the scheduled order (0 when skipped).
    pub cycles_after: u64,
}

/// The one per-unit body — extract → score → decide → schedule — with
/// its warm per-worker state: the scheduler, its scratch buffers, the
/// outcome it fills and the permuted-instruction buffer. Trace
/// collection, [`filtered_schedule_pass`], the `wts-serve` workers
/// and the `wts-jit` compile session all run their units through it, so
/// served ≡ direct pass ≡ JIT on every work channel by construction.
/// One of these per worker thread keeps the hot loop allocation-free in
/// steady state (nothing is allocated per unit except a served unit's
/// returned permutation).
///
/// # Examples
///
/// ```
/// use wts_core::{filtered_schedule_pass, CompiledFilter, DecisionPolicy, FilteredPass};
/// use wts_core::{TraceOptions, UnitServer};
/// use wts_machine::MachineConfig;
///
/// let program = &wts_core::testutil::learnable_suite(2)[0];
/// let machine = MachineConfig::ppc7410();
/// let filter = CompiledFilter::size_threshold(4);
/// let policy = DecisionPolicy::HardThreshold;
///
/// let mut server = UnitServer::new(&machine, wts_sched::SchedulePolicy::CriticalPath);
/// let mut totals = FilteredPass::default();
/// for (_, block) in program.iter_blocks() {
///     server.serve_block(block.insts(), block.exec_count(), &filter, &policy, &mut totals);
/// }
///
/// let direct = filtered_schedule_pass(program, &machine, &filter, &policy, &TraceOptions::default());
/// assert_eq!(totals, FilteredPass { pass_ns: totals.pass_ns, ..direct });
/// ```
pub struct UnitServer<'m> {
    scheduler: ListScheduler<'m>,
    scratch: SchedScratch<'m>,
    outcome: ScheduleOutcome,
    scheduled: Vec<Inst>,
}

/// What the per-unit body does besides extracting and scheduling.
enum UnitMode<'a, 's> {
    /// The deployed path: extract what `filter` reads, let `policy`
    /// decide, tally the work into `totals`.
    Deploy { filter: &'a CompiledFilter, policy: &'a DecisionPolicy, totals: &'a mut FilteredPass },
    /// Trace collection: extract every feature, schedule every unit and
    /// push its record.
    Record(&'a mut RecordSink<'s>),
    /// Retraining observation: extract every feature, schedule every unit
    /// and hand the trainer what labelling reads — the features and the
    /// `est_*` cycles, nothing measured and no record.
    Observe(&'a mut ObserveSink<'s>),
}

impl<'m> UnitServer<'m> {
    /// A per-worker server over `machine` with the given scheduler
    /// policy.
    pub fn new(machine: &'m MachineConfig, policy: SchedulePolicy) -> UnitServer<'m> {
        UnitServer {
            scheduler: ListScheduler::with_policy(machine, policy),
            scratch: SchedScratch::new(machine),
            outcome: ScheduleOutcome::default(),
            scheduled: Vec::new(),
        }
    }

    /// Serves one basic-block unit: runs the deployed fast path,
    /// accumulates the pass totals, and returns the unit's outcome.
    pub fn serve_block(
        &mut self,
        insts: &[Inst],
        exec_count: u64,
        filter: &CompiledFilter,
        policy: &DecisionPolicy,
        totals: &mut FilteredPass,
    ) -> ServedUnit {
        // The block id only labels trace records; serving records none.
        let unit = ScopeUnit { insts, shape: TraceShape::block(), block: BlockId(0), exec_count };
        self.serve(&unit, filter, policy, totals)
    }

    /// Serves one formed superblock trace (the speculative scheduler
    /// handles multi-block units exactly as the filtered pass does).
    pub fn serve_superblock(
        &mut self,
        sb: &Superblock,
        filter: &CompiledFilter,
        policy: &DecisionPolicy,
        totals: &mut FilteredPass,
    ) -> ServedUnit {
        self.serve(&ScopeUnit::of_superblock(sb), filter, policy, totals)
    }

    /// Serves one scope unit: [`run`](UnitServer::run), then the
    /// permutation and cycle estimates when it was scheduled.
    pub fn serve(
        &mut self,
        unit: &ScopeUnit<'_>,
        filter: &CompiledFilter,
        policy: &DecisionPolicy,
        totals: &mut FilteredPass,
    ) -> ServedUnit {
        if !self.run(unit, filter, policy, totals) {
            return ServedUnit::default();
        }
        let outcome = &self.outcome;
        let order = outcome.order.iter().map(|&i| u32::try_from(i).expect("unit length fits u32")).collect();
        ServedUnit { decision: true, order, cycles_before: outcome.cycles_before, cycles_after: outcome.cycles_after }
    }

    /// Runs the deployed fast path over one unit and tallies `totals`.
    /// Returns the schedule/skip call; when it is `true` the schedule
    /// stays held for [`apply_in_place`](UnitServer::apply_in_place)
    /// until the next unit.
    pub fn run(
        &mut self,
        unit: &ScopeUnit<'_>,
        filter: &CompiledFilter,
        policy: &DecisionPolicy,
        totals: &mut FilteredPass,
    ) -> bool {
        self.body(unit, UnitMode::Deploy { filter, policy, totals })
    }

    /// Reorders `block` by the schedule the last [`run`](UnitServer::run)
    /// produced for it.
    pub fn apply_in_place(&mut self, block: &mut BasicBlock) {
        self.outcome.apply_in_place(block, &mut self.scheduled);
    }

    /// The per-unit body. Timed: extraction and the decision (`t0..t1`),
    /// then scheduling (`t1..t2`) — exactly what a deployed pass runs.
    /// Verification, the work proxies and the record's cost-provider
    /// queries stay outside the window. A width-1 unit takes *exactly*
    /// the block path — same scheduler entry point, same graph, same
    /// proxies — which is what pins degenerate superblock formation
    /// bit-identical to block scope.
    fn body(&mut self, unit: &ScopeUnit<'_>, mode: UnitMode<'_, '_>) -> bool {
        let insts = unit.insts;
        let mask = match &mode {
            UnitMode::Deploy { filter, .. } => filter.demand(),
            UnitMode::Record(_) | UnitMode::Observe(_) => FeatureMask::ALL,
        };
        let t0 = Instant::now();
        let features = FeatureVector::from_insts_shaped(insts, unit.shape, mask);
        let (decision, economics) = match &mode {
            UnitMode::Deploy { filter, policy, .. } => {
                policy.decide_unit(filter, &features, insts.len() as u64, unit.exec_count)
            }
            UnitMode::Record(_) | UnitMode::Observe(_) => (true, UnitEconomics::default()),
        };
        let t1 = Instant::now();
        if decision {
            if unit.speculative() {
                self.scheduler.schedule_superblock_into(insts, &mut self.scratch, &mut self.outcome);
            } else {
                self.scheduler.schedule_insts_into(insts, &mut self.scratch, &mut self.outcome);
            }
            std::hint::black_box(&self.outcome);
        }
        let t2 = Instant::now();

        // In debug builds every unit scheduled here is checked by the
        // independent wts-verify analyses; release builds compile the
        // check out.
        #[cfg(debug_assertions)]
        if decision {
            let diags = wts_verify::verify_unit(self.scheduler.machine(), insts, unit.speculative(), &self.outcome);
            assert!(diags.is_empty(), "an unverifiable schedule:\n{}", wts_verify::render(&diags));
        }

        // The work proxy reads the edge count off the graph the scheduler
        // just built.
        let sched_work = if decision { sched_work_proxy(insts.len(), self.scratch.last_edge_count()) } else { 0 };
        match mode {
            UnitMode::Deploy { totals, .. } => {
                totals.pass_ns += nanos(t2 - t0);
                totals.total_blocks += 1;
                totals.conditions_evaluated += economics.filter_work;
                totals.extraction_work += economics.extraction_work;
                totals.scheduled_blocks += usize::from(decision);
                totals.sched_work += sched_work;
            }
            UnitMode::Record(sink) => {
                let scheduled = reordered(&self.outcome, insts, &mut self.scheduled);
                let (est_unsched, est_sched) = match sink.estimated {
                    None => (self.outcome.cycles_before, self.outcome.cycles_after),
                    Some(p) => provider_cycles(p, insts, scheduled),
                };
                let (hw_unsched, hw_sched) = provider_cycles(sink.measured, insts, scheduled);
                let feature_work = insts.len() as u64;
                let (sched_ns, feature_ns) = match sink.timing {
                    TimingMode::WallClock => (nanos(t2 - t1), nanos(t1 - t0)),
                    TimingMode::Deterministic => (sched_work, feature_work),
                };
                sink.out.push(TraceRecord {
                    benchmark: sink.benchmark.to_string(),
                    method: sink.method,
                    block: unit.block,
                    exec_count: unit.exec_count,
                    features,
                    est_unsched,
                    est_sched,
                    hw_unsched,
                    hw_sched,
                    sched_ns,
                    feature_ns,
                    sched_work,
                    feature_work,
                });
            }
            UnitMode::Observe(sink) => {
                // Under the cheap estimator the labels read the
                // scheduler's own cycles: no permute, no provider.
                let est = match sink.estimated {
                    None => (self.outcome.cycles_before, self.outcome.cycles_after),
                    Some(p) => provider_cycles(p, insts, reordered(&self.outcome, insts, &mut self.scheduled)),
                };
                sink.trainer.observe(sink.benchmark, &features, est);
            }
        }
        decision
    }
}

/// The scheduled order of `insts`, permuted into `buf`, or `None` when
/// the schedule kept the original order — the same sequence, whose
/// provider cycles are the unscheduled ones.
fn reordered<'b>(outcome: &ScheduleOutcome, insts: &[Inst], buf: &'b mut Vec<Inst>) -> Option<&'b [Inst]> {
    if !outcome.changed() {
        return None;
    }
    outcome.permute_into(insts, buf);
    Some(buf)
}

/// `provider`'s cycles for the original order and for the scheduled one
/// ([`reordered`]'s output; `None` simulates only once).
fn provider_cycles(provider: &dyn CostProvider, insts: &[Inst], scheduled: Option<&[Inst]>) -> (u64, u64) {
    let before = provider.sequence_cycles(insts);
    (before, scheduled.map_or(before, |s| provider.sequence_cycles(s)))
}

fn nanos(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}
#[cfg(test)]
mod tests {
    use super::*;
    use wts_ir::{form_superblocks, BasicBlock, Inst, MemRef, MemSpace, Method, Opcode, Reg};
    use wts_machine::{CostModel, PipelineSim};

    fn program() -> Program {
        let mut p = Program::new("trace-test");
        let mut m = Method::new(0, "m0");
        let mut b0 = BasicBlock::new(0);
        b0.push(Inst::new(Opcode::Lwz).def(Reg::gpr(1)).use_(Reg::gpr(9)).mem(MemRef::slot(MemSpace::Heap, 0)));
        b0.push(Inst::new(Opcode::Add).def(Reg::gpr(2)).use_(Reg::gpr(1)).use_(Reg::gpr(1)));
        b0.push(Inst::new(Opcode::Add).def(Reg::gpr(3)).use_(Reg::gpr(8)).use_(Reg::gpr(8)));
        b0.push(Inst::new(Opcode::Add).def(Reg::gpr(4)).use_(Reg::gpr(7)).use_(Reg::gpr(7)));
        b0.push(Inst::new(Opcode::Add).def(Reg::gpr(5)).use_(Reg::gpr(6)).use_(Reg::gpr(6)));
        b0.set_exec_count(10);
        m.push_block(b0);
        let mut b1 = BasicBlock::new(1);
        b1.push(Inst::new(Opcode::Li).def(Reg::gpr(1)).imm(1));
        m.push_block(b1);
        p.push_method(m);
        p
    }

    /// A multi-method program, for sharding tests.
    fn wide_program(methods: u32) -> Program {
        let mut p = Program::new("wide");
        for mi in 0..methods {
            let mut m = Method::new(mi, format!("m{mi}"));
            for bi in 0..3u32 {
                let mut b = BasicBlock::new(bi);
                b.push(Inst::new(Opcode::Lwz).def(Reg::gpr(1)).use_(Reg::gpr(9)).mem(MemRef::slot(MemSpace::Heap, bi)));
                b.push(Inst::new(Opcode::Add).def(Reg::gpr(2)).use_(Reg::gpr(1)).use_(Reg::gpr(1)));
                b.push(Inst::new(Opcode::Add).def(Reg::gpr(3)).use_(Reg::gpr(8)).use_(Reg::gpr(8)));
                b.set_exec_count((mi + bi) as u64 + 1);
                m.push_block(b);
            }
            p.push_method(m);
        }
        p
    }

    #[test]
    fn one_record_per_block() {
        let machine = MachineConfig::ppc7410();
        let t = collect_trace(&program(), &machine, &TraceOptions::default());
        assert_eq!(t.len(), 2);
        assert_eq!(t[0].benchmark, "trace-test");
        assert_eq!(t[0].exec_count, 10);
        assert_eq!(t[1].exec_count, 1);
    }

    #[test]
    fn estimates_are_consistent() {
        let machine = MachineConfig::ppc7410();
        let t = collect_trace(&program(), &machine, &TraceOptions::default());
        for r in &t {
            assert!(r.est_sched <= r.est_unsched, "CPS never worsens the estimate");
            assert!(r.hw_unsched > 0 || r.features.bb_len() == 0);
            assert!(r.est_improvement() >= 0.0);
        }
        // The first block has hideable latency: scheduling should help.
        assert!(t[0].est_improvement() > 0.0);
        // The single-instruction block cannot improve.
        assert_eq!(t[1].est_improvement(), 0.0);
    }

    #[test]
    fn work_proxies_are_deterministic() {
        let machine = MachineConfig::ppc7410();
        let a = collect_trace(&program(), &machine, &TraceOptions::default());
        let b = collect_trace(&program(), &machine, &TraceOptions::default());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.sched_work, y.sched_work);
            assert_eq!(x.feature_work, y.feature_work);
        }
        assert!(a[0].sched_work > a[0].feature_work, "scheduling does strictly more work");
    }

    #[test]
    fn features_match_direct_extraction() {
        let machine = MachineConfig::ppc7410();
        let p = program();
        let t = collect_trace(&p, &machine, &TraceOptions::default());
        let direct = FeatureVector::extract(&p.methods()[0].blocks()[0]);
        assert_eq!(t[0].features, direct);
    }

    #[test]
    fn estimated_channels_match_scheduler_cost_model() {
        // With the default Cheap estimator, est_* must equal what the
        // scheduler itself reported before the provider refactor.
        let machine = MachineConfig::ppc7410();
        let p = program();
        let t = collect_trace(&p, &machine, &TraceOptions::default());
        let scheduler = ListScheduler::new(&machine);
        for (r, (_, block)) in t.iter().zip(p.iter_blocks()) {
            let outcome = scheduler.schedule_block(block);
            assert_eq!(r.est_unsched, outcome.cycles_before);
            assert_eq!(r.est_sched, outcome.cycles_after);
        }
    }

    #[test]
    fn providers_are_swappable() {
        // Labeling against the detailed model: est_* now come from the
        // pipeline simulator instead of the cheap model.
        let machine = MachineConfig::ppc7410();
        let p = program();
        let opts =
            TraceOptions { estimated: EstimatorKind::Detailed, measured: EstimatorKind::Cheap, ..Default::default() };
        let t = collect_trace(&p, &machine, &opts);
        let sim = PipelineSim::new(&machine);
        let cm = CostModel::new(&machine);
        for (r, (_, block)) in t.iter().zip(p.iter_blocks()) {
            assert_eq!(r.est_unsched, sim.block_cycles(block));
            assert_eq!(r.hw_unsched, cm.block_cycles(block));
        }
    }

    #[test]
    fn sharded_and_per_method_collection_match_serial_exactly_at_both_scopes() {
        let p = wide_program(13);
        for scope in [ScopeKind::Block, ScopeKind::Superblock(70)] {
            let base = TraceOptions { scope, timing: TimingMode::Deterministic, ..Default::default() };
            for machine in wts_machine::registry() {
                let serial = collect_trace(&p, &machine, &base);
                for threads in [2, 3, 8, 32] {
                    let sharded = collect_trace(&p, &machine, &TraceOptions { threads, ..base });
                    assert_eq!(serial, sharded, "{} {scope}: {threads} threads", machine.name());
                }
                // The per-method pieces reassemble exactly, as the matrix
                // sharding requires.
                let stitched: Vec<TraceRecord> =
                    p.methods().iter().flat_map(|m| collect_method_trace(p.name(), m, &machine, &base)).collect();
                assert_eq!(serial, stitched, "{} {scope}: per-method pieces", machine.name());
                // One warm collector reused across every method appends
                // the same records.
                let mut collector = TraceCollector::new(&machine, &base);
                let mut warm = Vec::new();
                for m in p.methods() {
                    collector.collect_into(p.name(), m, &mut warm);
                }
                assert_eq!(serial, warm, "{} {scope}: one reused collector", machine.name());
            }
        }
    }

    #[test]
    fn deterministic_timing_copies_work_proxies() {
        let machine = MachineConfig::ppc7410();
        let t = collect_trace(
            &program(),
            &machine,
            &TraceOptions { timing: TimingMode::Deterministic, ..Default::default() },
        );
        for r in &t {
            assert_eq!(r.sched_ns, r.sched_work);
            assert_eq!(r.feature_ns, r.feature_work);
        }
    }

    #[test]
    fn filtered_pass_decides_per_unit_like_the_trace_and_shards_identically() {
        let machine = MachineConfig::ppc7410();
        let hard = DecisionPolicy::HardThreshold;
        let p = crate::testutil::mergeable_suite(4).remove(0);
        for scope in [ScopeKind::Block, ScopeKind::Superblock(70)] {
            let opts = TraceOptions { scope, timing: TimingMode::Deterministic, ..Default::default() };
            let trace = collect_trace(&p, &machine, &opts);
            // The fixed strategies: LS schedules every unit (a formed
            // trace at superblock scope) and consults nothing; NS does
            // no work at all.
            let ls = filtered_schedule_pass(&p, &machine, &CompiledFilter::always(), &hard, &opts);
            assert_eq!((ls.total_blocks, ls.scheduled_blocks), (trace.len(), trace.len()), "{scope}");
            assert_eq!(ls.conditions_evaluated + ls.extraction_work, 0, "LS consults nothing");
            assert_eq!(ls.sched_work, trace.iter().map(|r| r.sched_work).sum::<u64>(), "same work proxy as tracing");
            let ns = filtered_schedule_pass(&p, &machine, &CompiledFilter::never(), &hard, &opts);
            assert_eq!((ns.scheduled_blocks, ns.sched_work), (0, 0));
            assert_eq!(ns.overhead_fraction(), 0.0);
            // A size filter decides exactly as classifying the collected
            // trace does, at one condition per unit, and its work channels
            // are thread-count invariant.
            let compiled = CompiledFilter::size_threshold(3);
            let serial = filtered_schedule_pass(&p, &machine, &compiled, &hard, &opts);
            assert_eq!(serial.scheduled_blocks, crate::runtime_classification(&trace, &compiled).ls, "{scope}");
            assert!(serial.scheduled_blocks > 0 && serial.scheduled_blocks < serial.total_blocks, "{scope}");
            assert_eq!(serial.conditions_evaluated, trace.len() as u64, "{scope}: one condition per unit");
            for threads in [2, 4, 16] {
                let sharded = filtered_schedule_pass(&p, &machine, &compiled, &hard, &TraceOptions { threads, ..opts });
                assert_eq!(sharded, FilteredPass { pass_ns: sharded.pass_ns, ..serial }, "{scope}: {threads} threads");
            }
        }
    }

    #[test]
    fn superblock_scope_collects_one_record_per_trace() {
        let machine = MachineConfig::ppc7410();
        let p = crate::testutil::mergeable_suite(2).remove(0);
        let opts =
            TraceOptions { scope: ScopeKind::Superblock(70), timing: TimingMode::Deterministic, ..Default::default() };
        let t = collect_trace(&p, &machine, &opts);
        // Each method forms one width-3 hot trace + one cold width-1 trace.
        assert_eq!(t.len(), 2 * 2);
        use wts_features::FeatureKind;
        let widths: Vec<f64> = t.iter().map(|r| r.features.get(FeatureKind::TraceWidth)).collect();
        assert_eq!(widths, vec![3.0, 1.0, 3.0, 1.0]);
        for r in &t {
            let width = r.features.get(FeatureKind::TraceWidth);
            let exits = r.features.get(FeatureKind::SideExits);
            assert_eq!(exits, width - 1.0, "each internal block boundary carries one bc side exit");
            assert_eq!(r.features.get(FeatureKind::TraceLen), r.features.get(FeatureKind::BbLen));
            assert!(r.est_sched <= r.est_unsched, "the speculative schedule never worsens the estimate");
        }
        // Merged traces identify as their entry blocks.
        assert_eq!(t[0].block, wts_ir::BlockId(0));
        assert_eq!(t[1].block, wts_ir::BlockId(3));
    }

    #[test]
    fn superblock_scope_speculation_beats_or_matches_block_scope() {
        // The merged trace can hoist the second block's independent work
        // above the side exit, so the summed estimated-sched cycles at
        // superblock scope never exceed the per-block sum.
        let machine = MachineConfig::ppc7410();
        let opts = TraceOptions { timing: TimingMode::Deterministic, ..Default::default() };
        let sb_opts = TraceOptions { scope: ScopeKind::Superblock(70), ..opts };
        for p in crate::testutil::mergeable_suite(4) {
            let blocks = collect_trace(&p, &machine, &opts);
            let traces = collect_trace(&p, &machine, &sb_opts);
            let block_cost: u64 = blocks.iter().map(|r| r.exec_count * r.est_sched).sum();
            let trace_cost: u64 = traces.iter().map(|r| r.exec_count * r.est_sched).sum();
            assert!(trace_cost <= block_cost, "{}: {trace_cost} vs {block_cost}", p.name());
        }
    }

    #[test]
    fn unit_server_totals_are_bit_identical_to_the_direct_pass() {
        let machine = MachineConfig::ppc7410();
        let compiled = CompiledFilter::size_threshold(3);
        let policy = crate::DecisionPolicy::HardThreshold;
        let opts = TraceOptions { timing: TimingMode::Deterministic, ..Default::default() };
        for p in crate::testutil::mergeable_suite(3) {
            // Block scope: one served unit per basic block.
            let direct = filtered_schedule_pass(&p, &machine, &compiled, &policy, &opts);
            let mut server = UnitServer::new(&machine, opts.policy);
            let mut totals = FilteredPass::default();
            for (_, block) in p.iter_blocks() {
                server.serve_block(block.insts(), block.exec_count(), &compiled, &policy, &mut totals);
            }
            assert_eq!(
                (totals.total_blocks, totals.scheduled_blocks, totals.conditions_evaluated),
                (direct.total_blocks, direct.scheduled_blocks, direct.conditions_evaluated),
                "{}",
                p.name()
            );
            assert_eq!((totals.extraction_work, totals.sched_work), (direct.extraction_work, direct.sched_work));

            // Superblock scope: one served unit per formed trace.
            let sb_opts = TraceOptions { scope: ScopeKind::Superblock(70), ..opts };
            let direct = filtered_schedule_pass(&p, &machine, &compiled, &policy, &sb_opts);
            let mut totals = FilteredPass::default();
            for method in p.methods() {
                for sb in form_superblocks(method, 70) {
                    server.serve_superblock(&sb, &compiled, &policy, &mut totals);
                }
            }
            assert_eq!(
                (totals.total_blocks, totals.scheduled_blocks, totals.extraction_work, totals.sched_work),
                (direct.total_blocks, direct.scheduled_blocks, direct.extraction_work, direct.sched_work),
                "{} at superblock scope",
                p.name()
            );
        }
    }

    #[test]
    fn served_units_carry_a_valid_permutation_or_nothing() {
        let machine = MachineConfig::ppc7410();
        let compiled = CompiledFilter::size_threshold(3);
        let policy = crate::DecisionPolicy::HardThreshold;
        let mut server = UnitServer::new(&machine, SchedulePolicy::CriticalPath);
        let mut totals = FilteredPass::default();
        let p = program();
        let mut served = Vec::new();
        for (_, block) in p.iter_blocks() {
            served.push((block.insts().len(), server.serve_block(block.insts(), 1, &compiled, &policy, &mut totals)));
        }
        assert!(served.iter().any(|(_, u)| u.decision) && served.iter().any(|(_, u)| !u.decision));
        for (len, unit) in &served {
            if unit.decision {
                let mut order = unit.order.clone();
                order.sort_unstable();
                assert_eq!(
                    order,
                    (0..u32::try_from(*len).expect("unit sizes fit u32")).collect::<Vec<_>>(),
                    "a permutation of the unit"
                );
                assert!(unit.cycles_after <= unit.cycles_before, "CPS never worsens the estimate");
                assert!(unit.cycles_before > 0);
            } else {
                assert_eq!(*unit, ServedUnit::default(), "skipped units report nothing");
            }
        }
    }

    #[test]
    fn zero_threads_resolves_to_available_parallelism() {
        let opts = TraceOptions { threads: 0, ..Default::default() };
        assert!(opts.resolved_threads() >= 1);
        // And the collection still works.
        let machine = MachineConfig::ppc7410();
        let t = collect_trace(&wide_program(4), &machine, &opts);
        assert_eq!(t.len(), 12);
    }
}
