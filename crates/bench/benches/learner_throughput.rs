//! Learner-portfolio throughput: how fast each induction backend
//! trains, and how fast its induced model classifies once lowered to
//! the compiled engine. The portfolio-best rule picks the cheapest
//! backend within an error tolerance — this bench is where "cheapest"
//! becomes a measured quantity rather than a work-unit estimate.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use wts_core::{build_dataset, collect_trace, LabelConfig, LearnedFilter, Learner, LearnerKind, TraceOptions};
use wts_features::FeatureVector;
use wts_jit::Suite;
use wts_machine::MachineConfig;
use wts_ripper::Dataset;

fn corpus(scale: f64) -> (Dataset, Vec<FeatureVector>) {
    let machine = MachineConfig::ppc7410();
    let suite = Suite::specjvm98(scale);
    let mut traces = Vec::new();
    for b in suite.benchmarks() {
        traces.extend(collect_trace(b.program(), &machine, &TraceOptions::default()));
    }
    let vectors = traces.iter().map(|r| r.features).collect();
    (build_dataset(&traces, LabelConfig::new(0)).0, vectors)
}

/// Training time per backend: RIPPER's grow/prune/optimize loop versus
/// the stump's single exhaustive sweep versus the capped greedy tree.
fn train_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("learner_train");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(3));
    group.warm_up_time(std::time::Duration::from_millis(500));

    for (label, scale) in [("2k-instances", 0.05), ("8k-instances", 0.2)] {
        let (data, _) = corpus(scale);
        for kind in LearnerKind::portfolio() {
            group.bench_with_input(BenchmarkId::new(kind.name(), label), &data, |b, d| {
                b.iter(|| black_box(kind.fit(black_box(d))));
            });
        }
    }
    group.finish();
}

/// Classification throughput of each backend's compiled model over the
/// whole trace corpus — the deployment-side cost the portfolio's
/// overhead column accounts for in work units.
fn classify_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("learner_classify");
    group.sample_size(20);
    group.measurement_time(std::time::Duration::from_secs(3));
    group.warm_up_time(std::time::Duration::from_millis(500));

    let (data, vectors) = corpus(0.2);
    for kind in LearnerKind::portfolio() {
        let compiled = LearnedFilter::with_learner(kind.fit(&data), 0, kind.filter_tag()).compile();
        group.bench_with_input(
            BenchmarkId::new(kind.name(), format!("{}-blocks", vectors.len())),
            &vectors,
            |b, vs| {
                b.iter(|| {
                    let mut scheduled = 0usize;
                    for v in vs {
                        scheduled += usize::from(compiled.decide(black_box(v.as_slice())));
                    }
                    black_box(scheduled)
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, train_throughput, classify_throughput);
criterion_main!(benches);
