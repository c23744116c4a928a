//! Determinism guarantees: the whole artifact-generation path is
//! bit-stable run to run (and therefore across machines). These tests
//! are what pins it, and so what makes every table `repro` prints
//! reproducible apart from its wall-clock columns.

use schedfilter::filters::{collect_trace, train_filter, TraceOptions, TrainConfig};
use schedfilter::prelude::*;

#[test]
fn suites_are_bit_stable() {
    let a = Suite::specjvm98(0.03);
    let b = Suite::specjvm98(0.03);
    assert_eq!(a, b);
    assert_eq!(Suite::fp(0.03), Suite::fp(0.03));
}

#[test]
fn traces_are_deterministic_except_wall_clock() {
    let machine = MachineConfig::ppc7410();
    let suite = Suite::specjvm98(0.03);
    let p = suite.benchmarks()[0].program();
    let a = collect_trace(p, &machine, &TraceOptions::default());
    let b = collect_trace(p, &machine, &TraceOptions::default());
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.features, y.features);
        assert_eq!(x.est_unsched, y.est_unsched);
        assert_eq!(x.est_sched, y.est_sched);
        assert_eq!(x.hw_unsched, y.hw_unsched);
        assert_eq!(x.hw_sched, y.hw_sched);
        assert_eq!(x.sched_work, y.sched_work);
        assert_eq!(x.feature_work, y.feature_work);
        // sched_ns / feature_ns are wall-clock and may differ.
    }
}

#[test]
fn trained_filters_are_deterministic() {
    let machine = MachineConfig::ppc7410();
    let suite = Suite::specjvm98(0.03);
    let mut traces = Vec::new();
    for bench in suite.benchmarks() {
        traces.extend(collect_trace(bench.program(), &machine, &TraceOptions::default()));
    }
    let a = train_filter(&traces, &TrainConfig::with_threshold(10));
    let b = train_filter(&traces, &TrainConfig::with_threshold(10));
    assert_eq!(a.rules().to_string(), b.rules().to_string());
}

#[test]
fn scheduler_output_is_deterministic() {
    let machine = MachineConfig::ppc7410();
    let suite = Suite::fp(0.03);
    let scheduler = ListScheduler::new(&machine);
    for bench in suite.benchmarks() {
        for (_, block) in bench.program().iter_blocks().take(50) {
            let a = scheduler.schedule_block(block);
            let b = scheduler.schedule_block(block);
            assert_eq!(a, b);
        }
    }
}

#[test]
fn scale_is_monotone_in_corpus_size() {
    let small = Suite::specjvm98(0.02);
    let bigger = Suite::specjvm98(0.05);
    assert!(bigger.block_count() > small.block_count());
}
