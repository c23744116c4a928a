//! Machine models for the `schedfilter` system.
//!
//! Two simulators share one [`MachineConfig`] description of the target:
//!
//! * [`CostModel`] — the paper's *simplified machine simulator*: a cheap,
//!   deterministic, strictly in-order estimator of a block's cycle count
//!   for a given instruction order. It is used by the list scheduler to
//!   make decisions and by the labeling pipeline to decide whether
//!   scheduling helped. Its job is *relative* timing of two orders of the
//!   same block, not absolute accuracy (paper §2.2).
//! * [`PipelineSim`] — a more detailed simulator with a small out-of-order
//!   window, standing in for the real PowerPC 7410 the paper measures on.
//!   Application running time figures are computed against this model, so
//!   the gap between predicted (CostModel) and "measured" (PipelineSim)
//!   improvements mirrors the paper's predicted-vs-measured gap.
//!
//! The two roles are fixed: `wts-core`'s trace collection fills its
//! estimated channels from the scheduler's own `CostModel` cycles and
//! its measured channels from `PipelineSim`.
//!
//! [`DepScan`], the one dependence scan, orders `PipelineSim`'s window
//! and builds `wts-deps`' graph: scheduler and hardware stand-in obey the
//! same register, memory and barrier rules.
//!
//! The default target is [`MachineConfig::ppc7410`]: two dissimilar integer
//! units, one each of float / branch / load-store / system, and an issue
//! limit of two non-branch instructions plus one branch per cycle. It is
//! one entry in the named machine [`registry`](mod@crate::registry), which
//! spans the dynamism spectrum from a single-issue embedded core with
//! slow memory to a 4-issue deep-window superscalar; new targets are a
//! [`MachineBuilder`] plus a registry row (see the module docs of
//! [`registry`](mod@crate::registry)).
//!
//! # Examples
//!
//! ```
//! use wts_ir::{BasicBlock, Inst, MemRef, MemSpace, Opcode, Reg};
//! use wts_machine::{CostModel, MachineConfig};
//!
//! let mut b = BasicBlock::new(0);
//! b.push(Inst::new(Opcode::Lfd).def(Reg::fpr(1)).use_(Reg::gpr(1))
//!     .mem(MemRef::slot(MemSpace::Heap, 0)));
//! b.push(Inst::new(Opcode::Fadd).def(Reg::fpr(2)).use_(Reg::fpr(1)).use_(Reg::fpr(1)));
//!
//! let m = MachineConfig::ppc7410();
//! let cost = CostModel::new(&m).block_cycles(&b);
//! assert!(cost >= 2);
//! ```

mod config;
mod cost;
mod latency;
mod pipeline;
pub mod registry;
mod scan;
mod unit;

pub(crate) use config::OpTiming;
pub use config::{MachineBuilder, MachineConfig};
pub use cost::{CostModel, IssueState};
pub use latency::LatencyTable;
pub use pipeline::PipelineSim;
pub use registry::{registry, registry_names, REGISTRY};
pub use scan::{Barrier, DepKind, DepScan, DepSink};
pub use unit::{FunctionalUnit, UnitSet};
