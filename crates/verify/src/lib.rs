//! Translation-validation-style static checking for the scheduling
//! pipeline.
//!
//! The paper's pipeline (Cavazos & Moss, PLDI 2004) rests on three
//! claims it never independently checks: the dependence graph is
//! faithful to the instructions, the scheduler's cycle accounting is
//! faithful to the machine model, and speculative trace scheduling never
//! moves an observable instruction across a side exit. `wts-verify`
//! checks all three from first principles, sharing nothing with the
//! production implementations beyond the `wts-ir` instruction encoding
//! and the documented machine parameters:
//!
//! - **Dependence soundness/completeness** ([`oracle_edges`],
//!   [`check_dependences`]): a deliberately simple O(n²) oracle
//!   re-derives every true/anti/output/memory/control/hazard edge from
//!   def/use/memref sets and demands the [`wts_deps::DepGraph`] has
//!   exactly those edges — a missing edge is unsound (error), an extra
//!   edge is lost parallelism (warning) — plus a consistency audit of
//!   the graph's encoding itself (the successor bit rows mirror the
//!   predecessor lists).
//! - **Timing legality** ([`resimulate`], `check_timing`): an
//!   independent in-order re-simulation against the
//!   [`wts_machine::MachineConfig`] (latencies, issue/branch width,
//!   functional-unit occupancy) verifies every
//!   [`wts_sched::ScheduleOutcome`]'s claimed cycle counts, audits the
//!   derived issue events for producer-before-consumer, width and unit
//!   capacity violations, and cross-checks both cost models — the cheap
//!   [`wts_machine::CostModel`] and the hardware stand-in
//!   [`wts_machine::PipelineSim`] — against the latency-weighted
//!   dependence-chain lower bound.
//! - **Speculation safety** (`check_speculation`): no store, call or
//!   hazardous instruction crosses a side exit in a scheduled
//!   superblock trace, and the trace's first control transfer keeps its
//!   identity.
//!
//! Two further analyses vet the *learned* side of the pipeline — the
//! induced artifacts themselves and the machinery that hot-swaps them:
//!
//! - **Model coherence** ([`lint_model`], [`ModelTable`]): interval-domain
//!   reachability over the feature space flags shadowed rules,
//!   contradictory conjunctions and dead default rows; calibration checks
//!   reject non-finite thresholds and out-of-`[0, 1]` scores; demand-mask
//!   checks catch masks that diverge from what the condition table reads;
//!   and [`prove_hard_threshold`] derives a domain-wide witness that
//!   `decide ≡ score ≥ t` under a hard threshold.
//! - **Protocol safety** ([`Explorer`], [`ProtoReport`]): a
//!   bounded-exhaustive DFS over every interleaving of a protocol state
//!   machine. `wts-serve` runs it over its own serving core.
//!
//! Everything reports through [`Diagnostic`] (severity, analysis,
//! machine, method/unit location, prose explanation). [`verify_unit`]
//! checks one scheduled unit — this is what `wts-core`'s debug-build
//! hook calls on every unit its per-unit body schedules — and
//! [`verify_program`] sweeps a whole program under a policy and scope,
//! which `repro verify` runs over a generated corpus × every registry
//! machine.
//!
//! # Examples
//!
//! ```
//! use wts_ir::{Inst, Opcode, Reg};
//! use wts_machine::MachineConfig;
//! use wts_sched::ListScheduler;
//! use wts_verify::verify_unit;
//!
//! let machine = MachineConfig::ppc7410();
//! let insts = vec![
//!     Inst::new(Opcode::Lwz).def(Reg::gpr(1)).mem(wts_ir::MemRef::unknown(wts_ir::MemSpace::Stack)),
//!     Inst::new(Opcode::Add).def(Reg::gpr(2)).use_(Reg::gpr(1)).use_(Reg::gpr(1)),
//! ];
//! let outcome = ListScheduler::new(&machine).schedule_insts(&insts);
//! assert!(verify_unit(&machine, &insts, false, &outcome).is_empty());
//! ```

mod deps;
mod diag;
mod model;
mod pipeline;
mod proto;
mod spec;
mod timing;

pub use deps::{check_dependences, oracle_edges};
pub use diag::{render, Analysis, Diagnostic, Severity, UnitCtx};
pub use model::{lint_model, prove_hard_threshold, LintCond, ModelTable, ThresholdProof};
pub use pipeline::{verify_program, verify_unit, VerifyReport};
pub use proto::{Explorer, ProtoReport};
pub use timing::{resimulate, IssueEvent};
