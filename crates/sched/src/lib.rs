//! The list scheduler.
//!
//! Implements the paper's scheduler: *critical path scheduling* (CPS) list
//! scheduling over basic blocks (§1.1). Starting from an empty schedule it
//! repeatedly appends a ready instruction — one whose dependence
//! predecessors are all scheduled. Among ready instructions CPS chooses
//! the one that can start soonest; ties go to the instruction with the
//! longest latency-weighted critical path to the end of the block.
//!
//! Alternative [`SchedulePolicy`] values exist for the policy ablation
//! (`repro policies`) and the checker sweep: the filter technique should
//! work with "any competent scheduler", and the policies let us check how
//! the trained filters interact with the scheduler that produced their
//! labels.
//!
//! # Examples
//!
//! ```
//! use wts_ir::{BasicBlock, Inst, MemRef, MemSpace, Opcode, Reg};
//! use wts_machine::MachineConfig;
//! use wts_sched::ListScheduler;
//!
//! let mut b = BasicBlock::new(0);
//! b.push(Inst::new(Opcode::Lwz).def(Reg::gpr(1)).use_(Reg::gpr(9))
//!     .mem(MemRef::slot(MemSpace::Heap, 0)));
//! b.push(Inst::new(Opcode::Add).def(Reg::gpr(2)).use_(Reg::gpr(1)).use_(Reg::gpr(1)));
//! b.push(Inst::new(Opcode::Add).def(Reg::gpr(3)).use_(Reg::gpr(8)).use_(Reg::gpr(8)));
//!
//! let m = MachineConfig::ppc7410();
//! let out = ListScheduler::new(&m).schedule_block(&b);
//! assert!(out.cycles_after <= out.cycles_before);
//! assert_eq!(out.order.len(), 3);
//! ```

mod list;
mod outcome;
mod policy;
mod scratch;
mod verify;

pub use list::ListScheduler;
pub use outcome::ScheduleOutcome;
pub use policy::SchedulePolicy;
pub use scratch::SchedScratch;
pub use verify::{verify_schedule, VerifyError};
