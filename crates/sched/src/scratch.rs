//! Reusable scheduling buffers.

use crate::list::Candidate;
use wts_deps::{DepGraph, GraphBuilder};
use wts_machine::{IssueState, MachineConfig};

/// Scratch state for the list scheduler's hot loop.
///
/// One instance per thread that schedules, passed to the
/// [`ListScheduler`](crate::ListScheduler) `*_into` entry points and
/// reused across every block it schedules: the dependence-graph builder,
/// the graph storage, the critical-path / ready-record / in-degree
/// buffers and both machine-state simulators are all allocated once, so
/// steady-state scheduling performs no heap allocation. Long-lived
/// owners keep one warm across calls: a compile session pools one per
/// concurrent shard and hands it to each compile, trace collection holds
/// one per shard, and the serving path one per worker.
///
/// A scratch is tied to the machine it was created for (it embeds
/// machine-state simulators); the scheduler debug-asserts that it is
/// only used with that same machine.
///
/// # Examples
///
/// ```
/// use wts_ir::{Inst, Opcode, Reg};
/// use wts_machine::MachineConfig;
/// use wts_sched::{ListScheduler, SchedScratch, ScheduleOutcome};
///
/// let m = MachineConfig::ppc7410();
/// let s = ListScheduler::new(&m);
/// let mut scratch = SchedScratch::new(&m);
/// let mut out = ScheduleOutcome::default();
/// let block = [Inst::new(Opcode::Li).def(Reg::gpr(1)).imm(1)];
/// s.schedule_insts_into(&block, &mut scratch, &mut out);
/// assert_eq!(out.order, vec![0]);
/// ```
pub struct SchedScratch<'m> {
    pub(crate) machine: &'m MachineConfig,
    pub(crate) builder: GraphBuilder,
    pub(crate) graph: DepGraph,
    pub(crate) cp: Vec<u64>,
    pub(crate) remaining_preds: Vec<u32>,
    /// The ready list, one record per candidate.
    pub(crate) ready: Vec<Candidate>,
    pub(crate) before_state: IssueState<'m>,
    pub(crate) state: IssueState<'m>,
    pub(crate) last_edges: usize,
}

impl<'m> SchedScratch<'m> {
    /// Fresh scratch for scheduling against `machine`.
    pub fn new(machine: &'m MachineConfig) -> SchedScratch<'m> {
        SchedScratch {
            machine,
            builder: GraphBuilder::new(),
            graph: DepGraph::empty(),
            cp: Vec::new(),
            remaining_preds: Vec::new(),
            ready: Vec::new(),
            before_state: IssueState::new(machine),
            state: IssueState::new(machine),
            last_edges: 0,
        }
    }

    /// The machine this scratch was created for.
    pub fn machine(&self) -> &'m MachineConfig {
        self.machine
    }

    /// Edge count of the dependence graph behind the most recent
    /// `*_into` schedule (zero for blocks of at most one instruction,
    /// which need no graph). Lets work-proxy accounting reuse the graph
    /// the scheduler already built instead of rebuilding it.
    pub fn last_edge_count(&self) -> usize {
        self.last_edges
    }
}
