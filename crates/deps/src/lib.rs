//! Dependence DAG construction over basic blocks.
//!
//! The list scheduler may only permute a block into orders that respect
//! the block's dependences. Two instructions are dependent when they
//! access the same data (register or memory) with at least one writer, or
//! when at least one of them is a branch (paper §1.1). Hazardous
//! instructions — PEIs, GC points, thread-switch points and yield points —
//! "disallow reordering" (paper Table 1), which we model conservatively as
//! ordering barriers in the DAG.
//!
//! The walk itself is `wts-machine`'s [`DepScan`](wts_machine::DepScan),
//! which also orders the pipeline simulator. Note the division of labour:
//! hazard constraints restrict the *scheduler* (its barrier classifier,
//! here, makes them barriers), while the simulator, which only models the
//! timing of a fixed order, bars reordering only across serializing
//! instructions.
//!
//! A [`DepGraph`] keeps its predecessors as one flat CSR array of
//! `(source, kind)` in scan order, and its successors as one bit row of
//! `⌈n/64⌉` words per instruction: a successor walk yields targets in
//! ascending order, [`DepGraph::has_edge`] is one bit test, and a graph
//! of `n` instructions holds `n²/8` bytes of rows. Scheduling units are
//! basic blocks and superblock traces of a few hundred instructions at
//! most; the serving protocol caps a method at 8192.
//!
//! # Examples
//!
//! ```
//! use wts_deps::DepGraph;
//! use wts_ir::{BasicBlock, Inst, Opcode, Reg};
//!
//! let mut b = BasicBlock::new(0);
//! b.push(Inst::new(Opcode::Li).def(Reg::gpr(1)).imm(1));
//! b.push(Inst::new(Opcode::Add).def(Reg::gpr(2)).use_(Reg::gpr(1)).use_(Reg::gpr(1)));
//! let g = DepGraph::build(b.insts());
//! assert!(g.has_edge(0, 1));
//! assert!(g.respects(&[0, 1]));
//! assert!(!g.respects(&[1, 0]));
//! ```

mod critical;
mod graph;

pub use critical::{critical_paths, critical_paths_into};
pub use graph::{DepGraph, GraphBuilder};
pub use wts_machine::DepKind;
