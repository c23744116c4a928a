//! `filter_throughput`: blocks/second of filter classification,
//! interpreted versus compiled, across the machine registry.
//!
//! Each registry machine gets a factory filter trained at t=0 on its own
//! labels, then the same block corpus is classified two ways:
//!
//! * **interpreted_full** — the pre-engine path: full 13-feature
//!   extraction, then the interpreted `RuleSet::predict` walk;
//! * **compiled_masked** — the engine: demand-masked extraction of only
//!   the features the rules read, then the flat condition table.
//!
//! A third pair times the batch API (contiguous SoA columns), serial
//! versus sharded across all cores. Decisions are asserted identical
//! before anything is timed. The per-iteration block count is printed so
//! `blocks/sec = count / time` can be read off the report.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use wts_core::{Experiment, FeatureBatch, TimingMode};
use wts_features::FeatureVector;
use wts_ir::{BasicBlock, Program};

fn filter_throughput(c: &mut Criterion) {
    let suite = wts_jit::Suite::fp(wts_bench::BENCH_SCALE);
    let programs: Vec<Program> = suite.benchmarks().iter().map(|b| b.program().clone()).collect();
    let blocks: Vec<&BasicBlock> = programs.iter().flat_map(|p| p.iter_blocks().map(|(_, b)| b)).collect();
    eprintln!("# filter_throughput: {} blocks per iteration", blocks.len());

    let mut group = c.benchmark_group("filter_throughput");
    group.sample_size(20);
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(500));

    for machine in wts_machine::registry() {
        let run = Experiment::new(machine.clone()).with_timing(TimingMode::Deterministic).run(programs.clone());
        let learned = run.factory_filter(0);
        let compiled = learned.compile();
        eprintln!("# {}: filter {} / demand {}", machine.name(), compiled.name(), compiled.demand());

        // The engine must agree with the interpreted path before it is
        // allowed on the scoreboard.
        for block in &blocks {
            assert_eq!(
                compiled.classify_block(block),
                learned.rules().predict(FeatureVector::extract(block).as_slice()),
                "{}: compiled filter diverged",
                machine.name()
            );
        }

        group.bench_function(format!("{}/interpreted_full", machine.name()), |b| {
            b.iter(|| {
                let mut ls = 0usize;
                for block in &blocks {
                    let fv = FeatureVector::extract(black_box(block));
                    if learned.rules().predict(fv.as_slice()) {
                        ls += 1;
                    }
                }
                ls
            });
        });
        group.bench_function(format!("{}/compiled_masked", machine.name()), |b| {
            b.iter(|| {
                let mut ls = 0usize;
                for block in &blocks {
                    if compiled.classify_block(black_box(block)) {
                        ls += 1;
                    }
                }
                ls
            });
        });

        // The batch path over already-extracted traces: SoA columns,
        // serial vs sharded across all cores.
        let batch = FeatureBatch::from_traces(run.all_traces());
        group.bench_function(format!("{}/batch_serial", machine.name()), |b| {
            b.iter(|| compiled.classify_batch(black_box(&batch), 1).iter().filter(|&&d| d).count());
        });
        group.bench_function(format!("{}/batch_sharded", machine.name()), |b| {
            b.iter(|| compiled.classify_batch(black_box(&batch), 0).iter().filter(|&&d| d).count());
        });
    }
    group.finish();
}

criterion_group!(benches, filter_throughput);
criterion_main!(benches);
