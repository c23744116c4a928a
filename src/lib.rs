//! # schedfilter
//!
//! A reproduction of **Cavazos & Moss, "Inducing Heuristics To Decide
//! Whether To Schedule" (PLDI 2004)** as a production-quality Rust
//! workspace.
//!
//! The paper induces *filters* — cheap learned predicates over static basic
//! block features — that decide, per block, whether running the instruction
//! scheduler is worth its compile-time cost. This facade crate re-exports
//! the whole system:
//!
//! * [`ir`] — machine-level IR (blocks, instructions, hazards, categories);
//! * [`machine`] — PowerPC 7410 model, cheap cost estimator, detailed
//!   pipeline simulator;
//! * [`deps`] — dependence DAGs and critical paths;
//! * [`sched`] — the CPS list scheduler;
//! * [`features`] — the 13 Table 1 block features plus the trace-shape
//!   features of the superblock scope;
//! * [`ripper`] — RIPPER rule induction and baseline learners;
//! * [`filters`] — the paper's contribution: tracing, threshold labeling,
//!   filter training and evaluation, unified behind the
//!   [`Experiment`](filters::Experiment) pipeline (crate `wts-core`);
//! * [`jit`] — synthetic benchmark suites and the JIT compile session;
//! * [`serve`] — the hot-swappable filter service: wire protocol, TCP
//!   server, client and online retrainer over the shared
//!   [`FilterStore`](filters::FilterStore) (crate `wts-serve`);
//! * [`verify`] — the independent static checker: dependence soundness,
//!   timing legality and speculation safety (crate `wts-verify`, with
//!   pipeline hooks armed in every debug build);
//! * [`experiments`] — regeneration of every table and figure.
//!
//! # Quick start
//!
//! ```
//! use schedfilter::prelude::*;
//!
//! // Build a block, schedule it, and ask a trivial filter about it.
//! let mut b = BasicBlock::new(0);
//! b.push(Inst::new(Opcode::Lfd).def(Reg::fpr(1)).use_(Reg::gpr(1))
//!     .mem(MemRef::slot(MemSpace::Heap, 0)));
//! b.push(Inst::new(Opcode::Fadd).def(Reg::fpr(2)).use_(Reg::fpr(1)).use_(Reg::fpr(1)));
//! b.push(Inst::new(Opcode::Lfd).def(Reg::fpr(3)).use_(Reg::gpr(2))
//!     .mem(MemRef::slot(MemSpace::Heap, 8)));
//!
//! let machine = MachineConfig::ppc7410();
//! let outcome = ListScheduler::new(&machine).schedule_block(&b);
//! assert!(outcome.cycles_after <= outcome.cycles_before);
//!
//! let filter = CompiledFilter::size_threshold(2);
//! assert!(filter.decide(FeatureVector::extract(&b).as_slice()));
//! ```

// README.md's `rust` blocks compile as doctests of this crate.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
pub struct ReadmeDoctests;

pub use wts_core as filters;
pub use wts_deps as deps;
pub use wts_experiments as experiments;
pub use wts_features as features;
pub use wts_ir as ir;
pub use wts_jit as jit;
pub use wts_machine as machine;
pub use wts_ripper as ripper;
pub use wts_sched as sched;
pub use wts_serve as serve;
pub use wts_verify as verify;

/// Commonly used items, importable with one `use`.
pub mod prelude {
    pub use wts_core::{
        BenefitModel, CompiledFilter, DecisionPolicy, Experiment, ExperimentRun, FilterScore, LabelConfig,
        LearnedFilter, Learner, LearnerKind, MachinePortfolio, MatrixRun, PortfolioEntry, TimingMode, TraceOptions,
        TraceRecord, UnitEconomics,
    };
    pub use wts_deps::DepGraph;
    pub use wts_features::{FeatureKind, FeatureMask, FeatureVector, TraceShape};
    pub use wts_ir::{BasicBlock, Category, Hazards, Inst, MemRef, MemSpace, Method, Opcode, Program, Reg, ScopeKind};
    pub use wts_jit::{Benchmark, CompileSession, Suite};
    pub use wts_machine::{registry, CostModel, MachineBuilder, MachineConfig, PipelineSim};
    pub use wts_ripper::{Dataset, RuleSet};
    pub use wts_sched::{ListScheduler, SchedulePolicy};
    pub use wts_serve::{ServeClient, ServeConfig, Server};
    pub use wts_verify::{verify_program, verify_unit, Diagnostic, VerifyReport};
}
