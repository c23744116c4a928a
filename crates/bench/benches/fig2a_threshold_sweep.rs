//! Figure 2(a): scheduling-pass time as the labeling threshold grows.
//!
//! Filters trained at higher t predict "schedule" for fewer blocks, so
//! the pass gets cheaper: the paper's 39% → 6% of LS cost across
//! t = 0..50. One compile of the whole suite per filter.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use wts_bench::{BenchSetup, BENCH_SCALE};
use wts_core::{AlwaysSchedule, Filter};
use wts_jit::{CompileSession, Suite};

fn compile_suite(session: &CompileSession<'_>, suite: &Suite, filter: &dyn Filter) -> u64 {
    let mut total = 0;
    for b in suite.benchmarks() {
        let (_, stats) = session.compile(b.program(), filter);
        total += stats.pass_ns;
    }
    total
}

fn fig2a(c: &mut Criterion) {
    let suite = Suite::specjvm98(BENCH_SCALE);
    let mut group = c.benchmark_group("fig2a_threshold_sweep");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(3));
    group.warm_up_time(std::time::Duration::from_millis(500));

    // LS reference.
    {
        let setup = BenchSetup::jvm98(0);
        let session = CompileSession::new(&setup.machine);
        group.bench_function("LS", |b| {
            b.iter(|| black_box(compile_suite(&session, &suite, &AlwaysSchedule)));
        });
    }

    for t in [0u32, 10, 20, 35, 50] {
        let setup = BenchSetup::jvm98(t);
        let session = CompileSession::new(&setup.machine);
        // One representative filter per threshold: the compress fold.
        let filter = setup.filter_for("compress").clone();
        group.bench_function(format!("LN_t{t}"), |b| {
            b.iter(|| black_box(compile_suite(&session, &suite, &filter)));
        });
    }
    group.finish();
}

criterion_group!(benches, fig2a);
criterion_main!(benches);
