//! `lint_overhead`: what the static model and protocol analysis costs.
//!
//! The model lints and the threshold proof run once per artifact at
//! train/deploy time — never on the serving hot path — so this bench
//! prices the *tooling*, not the pipeline. Rows:
//!
//! * **lower_tables** — lower every registry machine's factory filter
//!   into a [`wts_verify::ModelTable`] (the shared front-end of every
//!   model lint);
//! * **lint_models** — the full interval-domain lint pass
//!   ([`wts_verify::lint_model`]) over every table: shadowing,
//!   contradiction, dead-default, score-range and demand-mask checks;
//! * **prove_thresholds** — the abstract-interpretation threshold proof
//!   ([`wts_verify::prove_hard_threshold`]) over every table;
//! * **store_protocol_dfs** / **serve_protocol_dfs** — the
//!   bounded-exhaustive model check of the `FilterStore` epoch protocol
//!   and the `wts-serve` frame exchange, at their default (correct)
//!   configurations.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use wts_core::{Experiment, LearnedFilter, TimingMode};
use wts_ir::Program;
use wts_verify::{
    check_serve_protocol, check_store_protocol, lint_model, prove_hard_threshold, ModelTable, ServeProtoConfig,
    StoreProtoConfig,
};

fn lint_overhead(c: &mut Criterion) {
    let suite = wts_jit::Suite::fp(wts_bench::BENCH_SCALE);
    let programs: Vec<Program> = suite.benchmarks().iter().map(|b| b.program().clone()).collect();

    let filters: Vec<(String, LearnedFilter)> = wts_machine::registry()
        .iter()
        .map(|machine| {
            let run = Experiment::new(machine.clone()).with_timing(TimingMode::Deterministic).run(programs.clone());
            (machine.name().to_string(), run.factory_filter(0))
        })
        .collect();
    let tables: Vec<ModelTable> = filters
        .iter()
        .map(|(name, learned)| ModelTable::from_rule_set(learned.rules(), learned.compile().demand(), name.as_str()))
        .collect();
    let conditions: usize = tables.iter().flat_map(|t| t.rules.iter()).map(Vec::len).sum();
    eprintln!("# lint_overhead: {} tables, {conditions} conditions per iteration", tables.len());

    // Everything the pipeline produces must already be clean — the bench
    // times the analysis, not diagnostic formatting.
    for table in &tables {
        assert!(lint_model(table).is_empty(), "{}: factory filter must lint clean", table.name);
        assert!(prove_hard_threshold(table).holds(), "{}: threshold proof must hold", table.name);
    }

    let mut group = c.benchmark_group("lint_overhead");
    group.sample_size(20);
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(500));

    group.bench_function("lower_tables", |b| {
        b.iter(|| {
            let mut conds = 0usize;
            for (name, learned) in &filters {
                let table =
                    ModelTable::from_rule_set(black_box(learned.rules()), learned.compile().demand(), name.as_str());
                conds += table.rules.iter().map(Vec::len).sum::<usize>();
            }
            conds
        });
    });

    group.bench_function("lint_models", |b| {
        b.iter(|| {
            let mut diags = 0usize;
            for table in &tables {
                diags += lint_model(black_box(table)).len();
            }
            diags
        });
    });

    group.bench_function("prove_thresholds", |b| {
        b.iter(|| {
            let mut held = 0usize;
            for table in &tables {
                if prove_hard_threshold(black_box(table)).holds() {
                    held += 1;
                }
            }
            held
        });
    });

    group.bench_function("store_protocol_dfs", |b| {
        b.iter(|| check_store_protocol(black_box(StoreProtoConfig::default())).states);
    });

    group.bench_function("serve_protocol_dfs", |b| {
        b.iter(|| check_serve_protocol(black_box(ServeProtoConfig::default())).states);
    });

    group.finish();
}

criterion_group!(benches, lint_overhead);
criterion_main!(benches);
