//! Superblock scheduling gain measurement (the paper's deferred
//! extension).
//!
//! The paper investigated superblock scheduling and reports it adds only
//! 1–2% over local scheduling in their setting, deferring the
//! combination with filters to future work (§3.1, footnote 6).
//! *Formation* lives in [`wts_ir::superblock`], where the whole
//! pipeline can reach it; this module keeps the
//! gain-measurement harness: three treatments of a program's traces —
//! no scheduling, local per-block scheduling, speculative superblock
//! scheduling — weighted by profile counts.

use std::collections::HashMap;
use wts_machine::{IssueState, MachineConfig};
use wts_sched::{ListScheduler, SchedScratch, ScheduleOutcome};

use wts_ir::{form_superblocks, Program};

/// Cycle totals comparing three treatments of a program's superblock
/// traces, weighted by trace execution counts: no scheduling, local
/// (per-block) scheduling, and speculative superblock scheduling.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SuperblockGain {
    /// Weighted cycles with no scheduling at all.
    pub unscheduled: u64,
    /// Weighted cycles with each block scheduled locally.
    pub local: u64,
    /// Weighted cycles with whole traces scheduled speculatively.
    pub superblock: u64,
    /// Number of traces that merged at least two blocks.
    pub merged_traces: usize,
}

impl SuperblockGain {
    /// Additional improvement of superblock over local scheduling, as a
    /// fraction of the local cycles (the paper's "slight 1–2%").
    pub fn extra_improvement(&self) -> f64 {
        if self.local == 0 {
            return 0.0;
        }
        (self.local as f64 - self.superblock as f64) / self.local as f64
    }

    /// Accumulates another program's totals (the per-machine rollup of
    /// the scope table).
    pub fn accumulate(&mut self, other: &SuperblockGain) {
        self.unscheduled += other.unscheduled;
        self.local += other.local;
        self.superblock += other.superblock;
        self.merged_traces += other.merged_traces;
    }
}

/// Measures [`SuperblockGain`] over a whole program at the given
/// formation ratio (percent, as in [`form_superblocks`]).
///
/// Blocks inside a trace are costed as one straight-line unit (the trace
/// executes end-to-end when the side exits are not taken, which is the
/// hot case the profile certifies); all three treatments use the same
/// accounting so the comparison is apples-to-apples.
pub fn superblock_gain(program: &Program, machine: &MachineConfig, ratio_percent: u32) -> SuperblockGain {
    let scheduler = ListScheduler::new(machine);
    // One set of reusable buffers serves every trace of the program:
    // scheduler scratch, the outcome, the local-concatenation buffer and
    // the costing simulator all stay allocated across iterations.
    let mut scratch = SchedScratch::new(machine);
    let mut out = ScheduleOutcome::default();
    let mut cost_state = IssueState::new(machine);
    let mut local_insts = Vec::new();
    let mut gain = SuperblockGain::default();
    for method in program.methods() {
        // One id → layout-index map per method; the old per-constituent
        // linear `blocks().iter().find(...)` made this loop O(B²) per
        // method.
        let index: HashMap<u32, usize> = method.blocks().iter().enumerate().map(|(i, b)| (b.id().0, i)).collect();
        for sb in form_superblocks(method, ratio_percent) {
            let unsched = cost_state.replay(&sb.insts);
            // Local: schedule each constituent block separately, then
            // cost the concatenation of the scheduled blocks.
            local_insts.clear();
            local_insts.reserve(sb.insts.len());
            let mut offset = 0;
            for &bid in &sb.block_ids {
                let block = &method.blocks()[index[&bid]];
                scheduler.schedule_block_into(block, &mut scratch, &mut out);
                local_insts.extend(out.order.iter().map(|&k| block.insts()[k]));
                offset += block.len();
            }
            debug_assert_eq!(offset, sb.insts.len());
            let local = cost_state.replay(&local_insts);
            scheduler.schedule_superblock_into(&sb.insts, &mut scratch, &mut out);

            gain.unscheduled += sb.exec_count * unsched;
            gain.local += sb.exec_count * local;
            // Guard as the scheduler does: never accept a worse order.
            gain.superblock += sb.exec_count * out.cycles_after.min(local);
            if sb.width() > 1 {
                gain.merged_traces += 1;
            }
        }
    }
    gain
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Suite;

    #[test]
    fn gain_is_nonnegative_and_small_on_real_corpus() {
        let machine = MachineConfig::ppc7410();
        let suite = Suite::fp(0.03);
        for bench in suite.benchmarks() {
            let g = superblock_gain(bench.program(), &machine, 70);
            assert!(g.superblock <= g.local, "superblock scheduling must not lose to local");
            assert!(g.local <= g.unscheduled, "local scheduling must not lose to nothing");
            let extra = g.extra_improvement();
            assert!((0.0..0.25).contains(&extra), "extra gain {extra} out of plausible range");
            assert!(g.merged_traces > 0, "the corpus should contain mergeable traces");
        }
    }

    #[test]
    fn gain_accumulates_across_programs() {
        let machine = MachineConfig::ppc7410();
        let suite = Suite::fp(0.02);
        let mut total = SuperblockGain::default();
        let mut merged = 0;
        for bench in suite.benchmarks() {
            let g = superblock_gain(bench.program(), &machine, 70);
            merged += g.merged_traces;
            total.accumulate(&g);
        }
        assert_eq!(total.merged_traces, merged);
        assert!(total.superblock <= total.local && total.local <= total.unscheduled);
    }

    #[test]
    #[should_panic(expected = "ratio must be in")]
    fn bad_ratio_rejected() {
        let suite = Suite::fp(0.01);
        superblock_gain(suite.benchmarks()[0].program(), &MachineConfig::ppc7410(), 0);
    }
}
