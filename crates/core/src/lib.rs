//! The paper's contribution: learned *filters* that decide, per basic
//! block, whether running the instruction scheduler is worth it.
//!
//! The pipeline mirrors §2.2 of Cavazos & Moss:
//!
//! 1. **Trace** ([`collect_trace`]): as the JIT compiles each method, the
//!    instrumented scheduler emits, per block, the Table 1 features plus
//!    the estimated block cost without scheduling and with list
//!    scheduling (both from the cheap cost model), the detailed-simulator
//!    costs used as "measured" ground truth, and the observed scheduling
//!    and feature-extraction times.
//! 2. **Label** ([`LabelConfig`]): a block is `LS` when scheduling
//!    improves the estimate by more than `t`%, `NS` when scheduling does
//!    not improve it at all, and *dropped* when the benefit is between 0
//!    and `t`% (the noise-reduction trick of §4.4).
//! 3. **Train** ([`train_filter`], [`train_loocv`]): an induction
//!    backend — RIPPER (the paper's learner), a decision-stump sweep or
//!    a depth-capped greedy tree, all behind the [`Learner`] trait —
//!    induces an if-then rule set over the features;
//!    leave-one-benchmark-out cross-validation reproduces the paper's
//!    protocol.
//! 4. **Evaluate** ([`classification_matrix`], [`sched_time_ratio`],
//!    [`app_time_ratio`], …): classification accuracy (Table 3),
//!    predicted execution times (Table 4), training-set sizes (Table 5),
//!    run-time classification counts (Table 6), scheduling-time ratios
//!    (Figures 1a/2a/3a) and application-time ratios (Figures 1b/2b/3b).
//!
//! Deployment is served by the compiled engine. [`CompiledFilter`] is
//! the one filter artifact every stage takes: a trained [`LearnedFilter`]
//! lowers into it, and the fixed LS/NS strategies and the size-threshold
//! baseline are built as one. It is a flat condition table with a
//! feature demand mask, so classification runs over demand-masked
//! extraction ([`wts_features::FeatureVector::extract_masked`]), and
//! every evaluation artifact charges the filter's *honest* cost —
//! conditions actually evaluated plus masked extraction work — instead
//! of flat constants.
//!
//! The free functions are the stages; [`Experiment`] is the pipeline.
//! It owns the whole sequence — policy and estimator selection, sharded
//! trace collection, threshold labeling, fold-parallel LOOCV training
//! and every evaluation artifact — behind one configurable type, and is
//! what the table/figure regenerators are built on.
//! [`Experiment::run_on`] lifts the pipeline across the whole machine
//! registry: one [`ExperimentRun`] per machine model, traced as a single
//! machines×programs×methods work list, with per-machine rule sets, a
//! cross-machine transfer table and the learner portfolio
//! ([`MatrixRun::portfolio`]) on top.
//!
//! # Examples
//!
//! ```
//! use wts_core::CompiledFilter;
//! use wts_features::FeatureVector;
//! use wts_ir::{BasicBlock, Inst, Opcode, Reg};
//!
//! let mut b = BasicBlock::new(0);
//! for i in 0..8u16 {
//!     b.push(Inst::new(Opcode::Add).def(Reg::gpr(i + 1)).use_(Reg::gpr(0)).use_(Reg::gpr(0)));
//! }
//! let filter = CompiledFilter::size_threshold(5);
//! assert!(filter.decide(FeatureVector::extract_masked(&b, filter.demand()).as_slice()));
//! ```

mod engine;
mod eval;
mod experiment;
mod filter;
mod io;
mod label;
mod learner;
mod matrix;
pub mod parallel;
mod policy;
mod store;
#[doc(hidden)]
pub mod testutil;
mod trace;
mod train;

pub use engine::{CompiledFilter, CompiledFilterError, FilterScore};
pub use eval::{
    app_time_ratio, classification_matrix, oracle_times, predicted_time_ratio, runtime_classification,
    sched_time_ratio, ClassCounts, EvalTimes,
};
pub use experiment::{CorpusError, Experiment, ExperimentRun, LoocvFilters};
pub use filter::LearnedFilter;
pub use io::{read_trace_binary, write_trace_binary, BinCursor, BinaryTraceError, TraceWriteError};
pub use label::{build_dataset, LabelConfig};
pub use learner::{Learner, LearnerKind};
pub use matrix::{CalibrationRow, MachinePortfolio, MatrixRun, PortfolioEntry};
pub use policy::{BenefitModel, DecisionPolicy, UnitEconomics};
pub use store::{FilterKey, FilterSnapshot, FilterStore};
pub use trace::{
    collect_method_trace, collect_trace, filtered_schedule_pass, FilteredPass, ServedUnit, TimingMode, TraceCollector,
    TraceOptions, TraceRecord, UnitServer,
};
pub use train::{train_filter, train_loocv, TrainConfig, Trainer};
