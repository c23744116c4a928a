//! `decision_policy`: the cost of the score-then-decide seam against
//! the boolean decide it replaced, serial and batch.
//!
//! One ppc7410 factory filter (t=0) classifies the FP corpus four ways:
//!
//! * **decide_serial** — the legacy boolean path: `decide` per record;
//! * **score_hard_serial** — `DecisionPolicy::decide_unit` (score,
//!   price, decide) under `HardThreshold` per record (decisions asserted
//!   identical first);
//! * **score_eb_serial** — `decide_unit` under a calibrated
//!   `ExpectedBenefit` policy, the fully graded deployment;
//! * **decide_batch / score_batch** — the SoA batch pair, serial
//!   sharding, over the same records.
//!
//! The headline: scoring rides the same short-circuit walk as deciding,
//! so the hard-policy columns should sit within noise of the boolean
//! ones — the calibration is free at deploy time.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use wts_core::{DecisionPolicy, Experiment, FeatureBatch, TimingMode};
use wts_ir::Program;

fn decision_policy(c: &mut Criterion) {
    let suite = wts_jit::Suite::fp(wts_bench::BENCH_SCALE);
    let programs: Vec<Program> = suite.benchmarks().iter().map(|b| b.program().clone()).collect();
    let machine = wts_machine::MachineConfig::ppc7410();
    let run = Experiment::new(machine).with_timing(TimingMode::Deterministic).run(programs);
    let records = run.all_traces();
    let compiled = run.factory_filter(0).compile();
    eprintln!("# decision_policy: {} records per iteration, filter {}", records.len(), compiled.name());

    let hard = DecisionPolicy::HardThreshold;
    let eb = DecisionPolicy::expected_benefit(records, 1.0);

    // Scoring must not change a single decision before it is timed.
    for r in records {
        assert_eq!(compiled.score(r.features.as_slice()).decision(), compiled.decide(r.features.as_slice()));
    }

    let mut group = c.benchmark_group("decision_policy");
    group.sample_size(20);
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(500));

    group.bench_function("decide_serial", |b| {
        b.iter(|| {
            let mut ls = 0usize;
            for r in records {
                if compiled.decide(black_box(r.features.as_slice())) {
                    ls += 1;
                }
            }
            ls
        });
    });
    for (name, policy) in [("score_hard_serial", &hard), ("score_eb_serial", &eb)] {
        group.bench_function(name, |b| {
            b.iter(|| {
                let mut ls = 0usize;
                for r in records {
                    let insts = r.features.bb_len() as u64;
                    if policy.decide_unit(&compiled, black_box(&r.features), insts, r.exec_count).0 {
                        ls += 1;
                    }
                }
                ls
            });
        });
    }

    let batch = FeatureBatch::from_traces(records);
    group.bench_function("decide_batch", |b| {
        b.iter(|| compiled.classify_batch(black_box(&batch), 1).iter().filter(|&&d| d).count());
    });
    group.bench_function("score_batch", |b| {
        b.iter(|| compiled.score_batch(black_box(&batch), 1).iter().filter(|s| s.decision()).count());
    });
    group.finish();
}

criterion_group!(benches, decision_policy);
criterion_main!(benches);
