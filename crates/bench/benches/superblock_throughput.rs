//! Superblock-scenario throughput: trace formation, the gain harness
//! (covering the id→index map that replaced the O(B²) constituent-block
//! lookup), scope-aware trace collection, and the deployed
//! superblock-scope filtered pass.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use wts_core::{
    collect_trace, filtered_schedule_pass, CompiledFilter, DecisionPolicy, ScopeKind, TimingMode, TraceOptions,
};
use wts_ir::{form_superblocks, Program};
use wts_jit::{superblock_gain, Suite};
use wts_machine::MachineConfig;

const RATIO: u32 = 70;

fn fp_programs(scale: f64) -> Vec<Program> {
    Suite::fp(scale).benchmarks().iter().map(|b| b.program().clone()).collect()
}

/// Pure formation: how fast profile-hot chains merge into traces.
fn formation(c: &mut Criterion) {
    let mut group = c.benchmark_group("superblock_form");
    group.sample_size(20);
    group.measurement_time(std::time::Duration::from_secs(3));
    group.warm_up_time(std::time::Duration::from_millis(500));

    for (label, scale) in [("fp-0.05", 0.05), ("fp-0.2", 0.2)] {
        let programs = fp_programs(scale);
        let methods: usize = programs.iter().map(|p| p.methods().len()).sum();
        group.bench_with_input(BenchmarkId::new("form", format!("{label}-{methods}-methods")), &programs, |b, ps| {
            b.iter(|| {
                let mut traces = 0usize;
                for p in ps {
                    for m in p.methods() {
                        traces += form_superblocks(black_box(m), RATIO).len();
                    }
                }
                black_box(traces)
            });
        });
    }
    group.finish();
}

/// The gain harness over whole programs — this is the fixed O(B) path
/// (one id→index map per method instead of a linear scan per
/// constituent block).
fn gain(c: &mut Criterion) {
    let mut group = c.benchmark_group("superblock_gain");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(4));
    group.warm_up_time(std::time::Duration::from_millis(500));

    let machine = MachineConfig::ppc7410();
    let programs = fp_programs(0.1);
    group.bench_with_input(BenchmarkId::new("gain", "fp-0.1"), &programs, |b, ps| {
        b.iter(|| {
            let mut extra = 0.0;
            for p in ps {
                extra += superblock_gain(black_box(p), &machine, RATIO).extra_improvement();
            }
            black_box(extra)
        });
    });
    group.finish();
}

/// The instrumented collector at both scopes: the trace-scope pass
/// schedules fewer, larger units (speculatively), so the two rows show
/// what the scenario axis costs end to end.
fn scoped_collection(c: &mut Criterion) {
    let mut group = c.benchmark_group("superblock_trace");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(4));
    group.warm_up_time(std::time::Duration::from_millis(500));

    let machine = MachineConfig::ppc7410();
    let programs = fp_programs(0.05);
    for (label, scope) in [("block", ScopeKind::Block), ("superblock", ScopeKind::Superblock(RATIO))] {
        let opts = TraceOptions { scope, timing: TimingMode::Deterministic, ..Default::default() };
        group.bench_with_input(BenchmarkId::new("collect", label), &programs, |b, ps| {
            b.iter(|| {
                let mut records = 0usize;
                for p in ps {
                    records += collect_trace(black_box(p), &machine, &opts).len();
                }
                black_box(records)
            });
        });
    }
    group.finish();
}

/// The deployed fast path at superblock scope: masked extraction over
/// concatenated traces, the flat condition table, and speculative
/// scheduling only for the selected traces.
fn scoped_filtered_pass(c: &mut Criterion) {
    let mut group = c.benchmark_group("superblock_pass");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(4));
    group.warm_up_time(std::time::Duration::from_millis(500));

    let machine = MachineConfig::ppc7410();
    let programs = fp_programs(0.05);
    let compiled = CompiledFilter::size_threshold(6);
    let hard = DecisionPolicy::HardThreshold;
    for (label, scope) in [("block", ScopeKind::Block), ("superblock", ScopeKind::Superblock(RATIO))] {
        let opts = TraceOptions { scope, timing: TimingMode::Deterministic, ..Default::default() };
        group.bench_with_input(BenchmarkId::new("filtered-pass", label), &programs, |b, ps| {
            b.iter(|| {
                let mut scheduled = 0usize;
                for p in ps {
                    scheduled +=
                        filtered_schedule_pass(black_box(p), &machine, &compiled, &hard, &opts).scheduled_blocks;
                }
                black_box(scheduled)
            });
        });
    }
    group.finish();
}

criterion_group!(benches, formation, gain, scoped_collection, scoped_filtered_pass);
criterion_main!(benches);
