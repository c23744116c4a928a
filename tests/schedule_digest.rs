//! One digest pins every schedule the list scheduler emits on the two
//! generated suites.
//!
//! The digest is FNV-1a over each [`ScheduleOutcome`] (its order,
//! `cycles_before` and `cycles_after`) and the scratch's
//! `last_edge_count`, for the FP and SPECjvm98 suites at a small scale,
//! on every registry machine, at block scope and over `Superblock(70)`
//! traces, under all four policies. The constant was computed before the
//! scheduler's graph layout and ready-list cache were reworked, and it
//! stays fixed: a rework of the scheduler that changes one order, one
//! cycle count or one edge count fails here.

use schedfilter::ir::form_superblocks;
use schedfilter::prelude::*;
use schedfilter::sched::{SchedScratch, ScheduleOutcome};

/// The digest every run must reproduce.
const SCHEDULE_DIGEST: u64 = 0x219d_fa6a_2fe2_be56;

/// FNV-1a, 64-bit.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn outcome(&mut self, out: &ScheduleOutcome, edges: usize) {
        self.word(out.order.len() as u64);
        for &i in &out.order {
            self.word(i as u64);
        }
        self.word(out.cycles_before);
        self.word(out.cycles_after);
        self.word(edges as u64);
    }
}

#[test]
fn every_schedule_matches_the_pinned_digest() {
    let suites = [Suite::fp(0.05), Suite::specjvm98(0.05)];
    let policies = [
        SchedulePolicy::CriticalPath,
        SchedulePolicy::EarliestStart,
        SchedulePolicy::CriticalPathOnly,
        SchedulePolicy::Random(7),
    ];
    let mut digest = Fnv::new();
    let mut units = 0usize;
    for machine in registry() {
        let mut scratch = SchedScratch::new(&machine);
        let mut out = ScheduleOutcome::default();
        for policy in policies {
            let scheduler = ListScheduler::with_policy(&machine, policy);
            for suite in &suites {
                for bench in suite.benchmarks() {
                    for method in bench.program().methods() {
                        for block in method.blocks() {
                            scheduler.schedule_insts_into(block.insts(), &mut scratch, &mut out);
                            digest.outcome(&out, scratch.last_edge_count());
                            units += 1;
                        }
                        for sb in form_superblocks(method, 70) {
                            scheduler.schedule_superblock_into(&sb.insts, &mut scratch, &mut out);
                            digest.outcome(&out, scratch.last_edge_count());
                            units += 1;
                        }
                    }
                }
            }
        }
    }
    assert!(units > 1000, "the digest covers too few units ({units})");
    assert_eq!(digest.0, SCHEDULE_DIGEST, "schedule digest over {units} units changed: {:#018x}", digest.0);
}
