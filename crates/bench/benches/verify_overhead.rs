//! `verify_overhead`: what the wts-verify checker costs per block.
//!
//! The in-pipeline hooks are compiled behind `#[cfg(debug_assertions)]`,
//! so a release build — benches included — pays **zero** overhead;
//! `schedule_only` below *is* the shipping configuration.
//! The other rows price what the checks would cost if they ran:
//!
//! * **schedule_only** — list-schedule every FP-corpus block
//!   (allocation-free `_into` path), the baseline;
//! * **schedule_plus_verify** — the same loop with a full
//!   [`wts_verify::verify_unit`] pass (dependence oracle + CSR
//!   cross-check + timing re-simulation + provider cross-check) after
//!   every block, i.e. the hooked debug configuration;
//! * **oracle_only** — just the O(n²) dependence oracle per block;
//! * **resimulate_only** — just the independent timing re-simulation
//!   of the original order per block.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use wts_ir::Inst;
use wts_machine::MachineConfig;
use wts_sched::{ListScheduler, SchedScratch, ScheduleOutcome};

fn corpus_blocks() -> Vec<Vec<Inst>> {
    let suite = wts_jit::Suite::fp(wts_bench::BENCH_SCALE);
    let mut blocks = Vec::new();
    for bench in suite.benchmarks() {
        for method in bench.program().methods() {
            for block in method.blocks() {
                if !block.insts().is_empty() {
                    blocks.push(block.insts().to_vec());
                }
            }
        }
    }
    blocks
}

fn verify_overhead(c: &mut Criterion) {
    let machine = MachineConfig::ppc7410();
    let scheduler = ListScheduler::new(&machine);
    let blocks = corpus_blocks();
    let insts: usize = blocks.iter().map(Vec::len).sum();
    eprintln!("# verify_overhead: {} blocks, {insts} insts per iteration", blocks.len());

    // Pre-scheduled outcomes so the checker-only rows time nothing else.
    let outcomes: Vec<ScheduleOutcome> = blocks.iter().map(|b| scheduler.schedule_insts(b)).collect();
    for (block, outcome) in blocks.iter().zip(&outcomes) {
        let diags = wts_verify::verify_unit(&machine, block, false, outcome);
        assert!(diags.is_empty(), "corpus must verify cleanly before it is timed");
    }

    let mut group = c.benchmark_group("verify_overhead");
    group.sample_size(20);
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(500));

    group.bench_function("schedule_only", |b| {
        let mut scratch = SchedScratch::new(&machine);
        let mut out = ScheduleOutcome::default();
        b.iter(|| {
            let mut cycles = 0u64;
            for block in &blocks {
                scheduler.schedule_insts_into(black_box(block), &mut scratch, &mut out);
                cycles += out.cycles_after;
            }
            cycles
        });
    });

    group.bench_function("schedule_plus_verify", |b| {
        let mut scratch = SchedScratch::new(&machine);
        let mut out = ScheduleOutcome::default();
        b.iter(|| {
            let mut clean = 0usize;
            for block in &blocks {
                scheduler.schedule_insts_into(black_box(block), &mut scratch, &mut out);
                if wts_verify::verify_unit(&machine, block, false, &out).is_empty() {
                    clean += 1;
                }
            }
            clean
        });
    });

    group.bench_function("oracle_only", |b| {
        b.iter(|| {
            let mut edges = 0usize;
            for block in &blocks {
                edges += wts_verify::oracle_edges(black_box(block), false).len();
            }
            edges
        });
    });

    group.bench_function("resimulate_only", |b| {
        b.iter(|| {
            let mut cycles = 0u64;
            for block in &blocks {
                cycles += wts_verify::resimulate(&machine, black_box(block)).0;
            }
            cycles
        });
    });

    group.finish();
}

criterion_group!(benches, verify_overhead);
criterion_main!(benches);
