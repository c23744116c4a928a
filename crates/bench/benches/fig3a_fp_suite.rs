//! Figure 3(a): scheduling time of filters on the floating-point suite
//! (the benchmarks that actually benefit from scheduling, Table 7).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use wts_bench::BenchSetup;
use wts_core::AlwaysSchedule;
use wts_jit::CompileSession;

fn fig3a(c: &mut Criterion) {
    let setup0 = BenchSetup::fp(0);
    let setup20 = BenchSetup::fp(20);
    let session = CompileSession::new(&setup0.machine);
    let mut group = c.benchmark_group("fig3a_fp_suite");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(500));

    for bench in setup0.suite.benchmarks() {
        let name = bench.name().to_string();
        group.bench_function(format!("{name}/LS"), |b| {
            b.iter(|| {
                let (_, stats) = session.compile(black_box(bench.program()), &AlwaysSchedule);
                black_box(stats.pass_ns)
            });
        });
        for (t, setup) in [(0u32, &setup0), (20u32, &setup20)] {
            let filter = setup.filter_for(&name).clone();
            group.bench_function(format!("{name}/LN_t{t}"), |b| {
                b.iter(|| {
                    let (_, stats) = session.compile(black_box(bench.program()), &filter);
                    black_box(stats.pass_ns)
                });
            });
        }
    }
    group.finish();
}

criterion_group!(benches, fig3a);
criterion_main!(benches);
