//! Machine-level intermediate representation for the `schedfilter` system.
//!
//! This crate models the code that a JIT compiler (in the paper, Jikes RVM)
//! hands to its instruction scheduler: straight-line [`BasicBlock`]s of
//! machine [`Inst`]ructions over PowerPC-style [`Reg`]isters, grouped into
//! [`Method`]s and [`Program`]s.
//!
//! Two aspects matter for the reproduction of Cavazos & Moss (PLDI 2004):
//!
//! * every instruction belongs to some of twelve possibly-overlapping
//!   [`Category`]s (branch, call, load, store, return, integer/float/system
//!   functional unit, and the four *hazards*: potentially-excepting
//!   instructions, GC points, thread-switch points and yield points) — these
//!   are exactly the raw material of the paper's Table 1 features;
//! * instructions carry enough def/use/memory information to build a
//!   dependence DAG and to be list-scheduled.
//!
//! # Examples
//!
//! ```
//! use wts_ir::{BasicBlock, Inst, Opcode, Reg};
//!
//! let mut b = BasicBlock::new(0);
//! b.push(Inst::new(Opcode::Li).def(Reg::gpr(1)).imm(42));
//! b.push(Inst::new(Opcode::Addi).def(Reg::gpr(2)).use_(Reg::gpr(1)).imm(1));
//! b.push(Inst::new(Opcode::Add).def(Reg::gpr(3)).use_(Reg::gpr(1)).use_(Reg::gpr(2)));
//! assert_eq!(b.len(), 3);
//! assert!(b.validate().is_ok());
//! ```

mod block;
mod category;
mod display;
mod inst;
mod method;
mod opcode;
mod reg;
mod superblock;
mod validate;

pub use block::{BasicBlock, BlockId};
pub use category::{Category, CategorySet};
pub use inst::{Hazards, Inst, MemRef, MemSpace, RegList};
pub use method::{Method, MethodId, Program};
pub use opcode::{Opcode, UnitClass};
pub use reg::{Reg, RegClass, RegTable};
pub use superblock::{form_superblocks, ScopeKind, Superblock};
pub use validate::ValidateError;
