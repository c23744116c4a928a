//! RIPPER training time (paper §2: "our technique induces heuristics in
//! seconds on one desktop computer", versus days on a cluster for the
//! genetic-programming alternative).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use wts_core::{build_dataset, collect_trace, LabelConfig, TraceOptions};
use wts_jit::Suite;
use wts_machine::MachineConfig;
use wts_ripper::{Dataset, RipperConfig};

fn corpus_dataset(scale: f64, t: u32) -> Dataset {
    let machine = MachineConfig::ppc7410();
    let suite = Suite::specjvm98(scale);
    let mut traces = Vec::new();
    for b in suite.benchmarks() {
        traces.extend(collect_trace(b.program(), &machine, &TraceOptions::default()));
    }
    build_dataset(&traces, LabelConfig::new(t)).0
}

fn ripper_train(c: &mut Criterion) {
    let mut group = c.benchmark_group("ripper_train");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(3));
    group.warm_up_time(std::time::Duration::from_millis(500));

    for (label, scale) in [("2k-instances", 0.05), ("8k-instances", 0.2)] {
        let data = corpus_dataset(scale, 0);
        group.bench_with_input(BenchmarkId::new("t0", label), &data, |b, d| {
            b.iter(|| black_box(RipperConfig::default().fit(black_box(d))));
        });
    }
    // Higher thresholds shrink the positive class and train much faster.
    let data = corpus_dataset(0.2, 30);
    group.bench_function("t30/8k-instances", |b| {
        b.iter(|| black_box(RipperConfig::default().fit(black_box(&data))));
    });
    group.finish();
}

criterion_group!(benches, ripper_train);
criterion_main!(benches);
