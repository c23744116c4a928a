//! Component-cost ablation (DESIGN.md §5, "features without the DAG"):
//! per-block cost of feature extraction versus dependence-DAG
//! construction versus full list scheduling, by block size.
//!
//! This substantiates the paper's §2.1 design choice — features must be
//! much cheaper than the DAG, which "can sometimes dominate the overall
//! running time of the scheduling algorithm".
//!
//! The `dag` and `schedule` rows time the warm path production runs: a
//! reused `GraphBuilder::build_into` and a reused `SchedScratch` with
//! `schedule_block_into`. `schedule_cold` keeps the one-shot
//! `schedule_block` (a fresh scratch per call) so the first-touch cost a
//! warm scratch avoids stays visible.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use wts_deps::{DepGraph, GraphBuilder};
use wts_features::FeatureVector;
use wts_ir::BasicBlock;
use wts_jit::Suite;
use wts_machine::MachineConfig;
use wts_sched::{ListScheduler, SchedScratch, ScheduleOutcome};

/// Picks one representative block of roughly each size from the corpus.
fn blocks_by_size() -> Vec<(usize, BasicBlock)> {
    let suite = Suite::fp(0.05);
    let mut picks: Vec<(usize, BasicBlock)> = Vec::new();
    for want in [4usize, 8, 16, 32] {
        let mut best: Option<&BasicBlock> = None;
        for b in suite.benchmarks() {
            for (_, blk) in b.program().iter_blocks() {
                if best.is_none_or(|cur| blk.len().abs_diff(want) < cur.len().abs_diff(want)) {
                    best = Some(blk);
                }
            }
        }
        let blk = best.expect("corpus non-empty").clone();
        picks.push((want, blk));
    }
    picks
}

fn components(c: &mut Criterion) {
    let machine = MachineConfig::ppc7410();
    let scheduler = ListScheduler::new(&machine);
    let mut group = c.benchmark_group("component_costs");
    group.sample_size(30);
    group.measurement_time(std::time::Duration::from_secs(1));
    group.warm_up_time(std::time::Duration::from_millis(300));

    for (size, block) in blocks_by_size() {
        group.bench_with_input(BenchmarkId::new("features", size), &block, |b, blk| {
            b.iter(|| black_box(FeatureVector::extract(black_box(blk))));
        });
        group.bench_with_input(BenchmarkId::new("dag", size), &block, |b, blk| {
            let mut builder = GraphBuilder::new();
            let mut graph = DepGraph::empty();
            b.iter(|| {
                builder.build_into(black_box(blk.insts()), false, &mut graph);
                black_box(graph.edge_count())
            });
        });
        group.bench_with_input(BenchmarkId::new("schedule", size), &block, |b, blk| {
            let mut scratch = SchedScratch::new(&machine);
            let mut outcome = ScheduleOutcome::default();
            b.iter(|| {
                scheduler.schedule_block_into(black_box(blk), &mut scratch, &mut outcome);
                black_box(outcome.cycles_after)
            });
        });
        group.bench_with_input(BenchmarkId::new("schedule_cold", size), &block, |b, blk| {
            b.iter(|| black_box(scheduler.schedule_block(black_box(blk))));
        });
    }
    group.finish();
}

criterion_group!(benches, components);
criterion_main!(benches);
