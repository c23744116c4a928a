//! Figure 1(a): scheduling time of the L/N filter versus always
//! scheduling (LS), per SPECjvm98 benchmark, at threshold t=0.
//!
//! The timed region is the JIT's whole scheduling pass — feature
//! extraction + filter evaluation + (selected) scheduling — exactly the
//! quantity the paper charges to "scheduling time" (§3.1). Expect L/N to
//! come in well under LS, reproducing the ~38% geometric mean.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use wts_bench::BenchSetup;
use wts_core::{collect_trace_with, AlwaysSchedule, TimingMode, TraceOptions};
use wts_jit::CompileSession;

fn fig1a(c: &mut Criterion) {
    let setup = BenchSetup::jvm98(0);
    let session = CompileSession::new(&setup.machine);
    let mut group = c.benchmark_group("fig1a_sched_time");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(500));

    for bench in setup.suite.benchmarks() {
        let name = bench.name().to_string();
        group.bench_function(format!("{name}/LS"), |b| {
            b.iter(|| {
                let (out, stats) = session.compile(black_box(bench.program()), &AlwaysSchedule);
                black_box((out.block_count(), stats.pass_ns))
            });
        });
        let filter = setup.filter_for(&name).clone();
        group.bench_function(format!("{name}/LN_t0"), |b| {
            b.iter(|| {
                let (out, stats) = session.compile(black_box(bench.program()), &filter);
                black_box((out.block_count(), stats.pass_ns))
            });
        });
    }
    group.finish();
}

/// Serial versus method-sharded trace collection over the whole suite:
/// the parallel path must produce identical records (asserted here on
/// the deterministic channels) and, on multicore hosts, finish faster.
fn trace_sharding(c: &mut Criterion) {
    // Only the suite and machine are needed — skip BenchSetup's LOOCV
    // training pass.
    let suite = wts_jit::Suite::specjvm98(wts_bench::BENCH_SCALE);
    let machine = wts_machine::MachineConfig::ppc7410();
    let opts_serial = TraceOptions { threads: 1, timing: TimingMode::Deterministic, ..Default::default() };
    let opts_auto = TraceOptions { threads: 0, timing: TimingMode::Deterministic, ..Default::default() };
    // Fixed thread count, so the sharded machinery is exercised (and its
    // overhead visible) even on single-core hosts where auto == serial.
    let opts_four = TraceOptions { threads: 4, timing: TimingMode::Deterministic, ..Default::default() };

    for b in suite.benchmarks() {
        let serial = collect_trace_with(b.program(), &machine, &opts_serial);
        for opts in [&opts_auto, &opts_four] {
            let sharded = collect_trace_with(b.program(), &machine, opts);
            assert_eq!(serial, sharded, "{}: sharded trace must be bit-identical", b.name());
        }
    }

    let mut group = c.benchmark_group("fig1a_trace_sharding");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(500));
    for (name, opts) in [("serial", opts_serial), ("sharded_auto", opts_auto), ("sharded_4", opts_four)] {
        group.bench_function(name, |bch| {
            bch.iter(|| {
                let mut records = 0usize;
                for b in suite.benchmarks() {
                    records += collect_trace_with(black_box(b.program()), &machine, &opts).len();
                }
                records
            });
        });
    }
    group.finish();
}

criterion_group!(benches, fig1a, trace_sharding);
criterion_main!(benches);
