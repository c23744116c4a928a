//! Cross-machine experiment-matrix integration: the registry-wide sweep
//! produces per-machine rule sets and a transfer table, and its sharded
//! trace stage is bit-identical to running each machine serially.
//!
//! The `#[ignore]`d smoke test runs the sweep over a generated suite at
//! a realistic scale; CI runs it via `cargo test --test matrix -- --ignored`.

use schedfilter::prelude::*;

fn generated_programs(scale: f64) -> Vec<Program> {
    Suite::fp(scale).benchmarks().iter().map(|b| b.program().clone()).collect()
}

fn deterministic() -> Experiment {
    Experiment::new(MachineConfig::ppc7410()).with_timing(TimingMode::Deterministic)
}

#[test]
fn registry_sweep_produces_per_machine_rule_sets_and_transfer_table() {
    let programs = generated_programs(0.01);
    let matrix = deterministic().run_on(registry(), programs);

    let machines = registry();
    assert!(machines.len() >= 4, "acceptance: at least 4 registry machines");
    assert_eq!(matrix.machine_names().len(), machines.len());

    let filters = matrix.factory_filters(0);
    assert_eq!(filters.len(), machines.len(), "one induced rule set per machine");

    let transfer = matrix.transfer_errors(0);
    assert_eq!(transfer.len(), machines.len());
    for (i, row) in transfer.iter().enumerate() {
        assert_eq!(row.len(), machines.len());
        for (j, &e) in row.iter().enumerate() {
            assert!((0.0..=100.0).contains(&e), "transfer[{i}][{j}] = {e}% out of range");
        }
    }

    let sweep = matrix.ls_sweep(&[0, 20, 50]);
    for (name, counts) in &sweep {
        assert!(counts[0] >= counts[1] && counts[1] >= counts[2], "{name}: LS must shrink with t: {counts:?}");
    }
}

#[test]
fn sharded_matrix_matches_serial_per_machine_pipelines() {
    let programs = generated_programs(0.01);
    let sharded = deterministic().with_trace_threads(8).run_on(registry(), programs.clone());
    for machine in registry() {
        let serial = Experiment::new(machine.clone())
            .with_threads(1)
            .with_timing(TimingMode::Deterministic)
            .run(programs.clone());
        assert_eq!(
            serial.all_traces(),
            sharded.run_for(machine.name()).all_traces(),
            "{}: sharded sweep must be bit-identical to the serial pipeline",
            machine.name()
        );
    }
}

/// The CI-enabled portfolio smoke test: at realistic scale, every
/// registry machine trains all three induction backends and the
/// portfolio-best selection rule holds — the pick's error is within the
/// tolerance of the machine's best error, and no eligible backend is
/// cheaper than it.
#[test]
#[ignore = "portfolio smoke test: realistic scale; CI runs it with -- --ignored"]
fn portfolio_smoke_every_backend_on_every_machine() {
    let tolerance = 2.0;
    let programs = generated_programs(0.05);
    let matrix = deterministic().run_on(registry(), programs);
    let learners = LearnerKind::portfolio();
    assert!(learners.len() >= 3, "acceptance: at least 3 backends in the portfolio");

    let portfolio = matrix.portfolio(0, &learners, tolerance);
    assert_eq!(portfolio.len(), registry().len(), "one portfolio per registry machine");
    for mp in &portfolio {
        assert_eq!(mp.entries.len(), learners.len(), "{}: every backend reports", mp.machine);
        let best_error = mp.entries.iter().map(|e| e.error_percent).fold(f64::INFINITY, f64::min);
        let picked = mp.best_entry();
        assert!(
            picked.error_percent <= best_error + tolerance,
            "{}: best={} error {}% outside tolerance of {}%",
            mp.machine,
            picked.learner,
            picked.error_percent,
            best_error
        );
        for e in &mp.entries {
            assert!(
                (0.0..=100.0).contains(&e.error_percent),
                "{}/{}: error {}% out of range",
                mp.machine,
                e.learner,
                e.error_percent
            );
            if e.error_percent <= best_error + tolerance {
                assert!(
                    picked.overhead_work() <= e.overhead_work(),
                    "{}: picked {} (work {}) but eligible {} is cheaper (work {})",
                    mp.machine,
                    picked.learner,
                    picked.overhead_work(),
                    e.learner,
                    e.overhead_work()
                );
            }
        }
    }
}

/// The CI-enabled `repro superblock` smoke test: at realistic scale,
/// the registry-wide scope scenario holds — every machine's
/// superblock-scope pipeline merges real traces, trains scope-tagged
/// filters whose compiled form matches the interpreted one, and the
/// scope table the artifact prints has sane cells on every row.
#[test]
#[ignore = "superblock smoke test: realistic scale; CI runs it with -- --ignored"]
fn superblock_smoke_scope_scenario_on_every_machine() {
    let programs = generated_programs(0.05);
    let block = deterministic().run_on(registry(), programs.clone());
    let superblock = deterministic().with_scope(ScopeKind::Superblock(70)).run_on(registry(), programs.clone());
    for run in superblock.runs() {
        assert_eq!(run.scope(), ScopeKind::Superblock(70));
    }

    for machine in registry() {
        let b = block.run_for(machine.name());
        let s = superblock.run_for(machine.name());
        assert!(
            s.all_traces().len() < b.all_traces().len(),
            "{}: superblock scope must decide over coarser units",
            machine.name()
        );
        assert!(
            s.all_traces().iter().any(|r| r.features.get(FeatureKind::TraceWidth) > 1.0),
            "{}: the corpus must contain merged traces",
            machine.name()
        );
        for (bench, filter) in s.loocv_filters(0).iter() {
            assert_eq!(filter.learner(), "L/N@sb70", "{}: scope tag missing", machine.name());
            let compiled = filter.compiled();
            for r in s.all_traces() {
                assert_eq!(
                    compiled.decide(r.features.as_slice()),
                    filter.rules().predict(r.features.as_slice()),
                    "{}/{bench}: compiled ≡ interpreted must hold at superblock scope",
                    machine.name()
                );
            }
        }
        // The honest accounting stays sane at trace scope: the filters
        // beat always-scheduling on work and the error is a percentage.
        let eval = s.learner_eval(0, &LearnerKind::default());
        assert!((0.0..=100.0).contains(&eval.error_percent), "{}: {}", machine.name(), eval.error_percent);
        assert!(eval.times.work_ratio() < 1.0, "{}: ratio {}", machine.name(), eval.times.work_ratio());
        // And the paper's headline: speculative trace scheduling adds a
        // small extra gain over local scheduling on this machine.
        let mut gain = wts_jit::SuperblockGain::default();
        for p in &programs {
            gain.accumulate(&wts_jit::superblock_gain(p, &machine, 70));
        }
        assert!(gain.merged_traces > 0, "{}: no merged traces", machine.name());
        let extra = gain.extra_improvement();
        assert!((0.0..0.25).contains(&extra), "{}: extra gain {extra} implausible", machine.name());
    }
}

/// The CI-enabled calibration smoke test: at realistic scale, the
/// decision-policy layer holds its acceptance bar on the full registry —
/// the hard policy and the LOOCV-calibrated expected-benefit policy are
/// both bracketed by the per-unit oracle, and cost-sensitive decisions
/// reach or beat the fixed-threshold baseline's expected net cycles on
/// at least one machine.
#[test]
#[ignore = "calibration smoke test: realistic scale; CI runs it with -- --ignored"]
fn calibration_smoke_policies_bracketed_by_the_oracle_on_every_machine() {
    let c = 1.0;
    let programs = generated_programs(0.05);
    let matrix = deterministic().run_on(registry(), programs);
    let rows = matrix.calibration(0, c);
    assert_eq!(rows.len(), registry().len(), "one calibration row per registry machine");
    let mut eb_wins = 0usize;
    for row in &rows {
        assert!(row.model.saved_per_inst > 0.0, "{}: scheduling never helps?", row.machine);
        assert_eq!(row.oracle.filter_work + row.oracle.feature_work, 0, "{}: the oracle runs no filter", row.machine);
        let bound = row.oracle.net_cycles(c);
        assert!(bound > 0.0, "{}: even the oracle nets nothing", row.machine);
        assert!(row.baseline.net_cycles(c) <= bound + 1e-9, "{}: hard policy beats the oracle", row.machine);
        assert!(row.expected_benefit.net_cycles(c) <= bound + 1e-9, "{}: eb policy beats the oracle", row.machine);
        assert!(
            row.baseline.scheduled_blocks > 0 && row.expected_benefit.scheduled_blocks > 0,
            "{}: both policies must schedule something",
            row.machine
        );
        if row.expected_benefit.net_cycles(c) >= row.baseline.net_cycles(c) {
            eb_wins += 1;
        }
    }
    assert!(eb_wins >= 1, "expected-benefit must reach the fixed-threshold baseline on at least one machine");
}

/// The CI-enabled `repro verify` smoke test: at realistic scale, the
/// independent static checker (dependence oracle, timing re-simulation,
/// speculation safety) reports zero diagnostics over the generated
/// corpus on every registry machine × scheduling policy × scope — the
/// standing invariant every future pipeline change inherits.
#[test]
#[ignore = "verify smoke test: realistic scale; CI runs it with -- --ignored"]
fn verify_smoke_zero_diagnostics_at_scale() {
    use schedfilter::verify::render;
    let programs = generated_programs(0.05);
    let policies = [
        SchedulePolicy::CriticalPath,
        SchedulePolicy::EarliestStart,
        SchedulePolicy::CriticalPathOnly,
        SchedulePolicy::Random(0x5EED),
    ];
    for machine in registry() {
        for policy in policies {
            for scope in [ScopeKind::Block, ScopeKind::Superblock(70)] {
                let mut units = 0;
                let mut changed = 0;
                for program in &programs {
                    let report = verify_program(program, &machine, policy, scope);
                    units += report.units;
                    changed += report.changed;
                    assert!(
                        report.is_clean(),
                        "{} {policy} {scope} {}:\n{}",
                        machine.name(),
                        program.name(),
                        render(&report.diagnostics)
                    );
                }
                assert!(units > 100, "{}: corpus too small to mean anything", machine.name());
                assert!(changed > 0, "{} {policy} {scope}: the sweep never saw a changed schedule", machine.name());
            }
        }
    }
}

/// The CI-enabled matrix smoke test: a realistic-scale sweep, checking
/// the cross-machine signal the registry was built to expose — the slow
/// in-order embedded core leaves more schedulable blocks than the wide
/// out-of-order machine, and every machine induces a usable rule set.
#[test]
#[ignore = "matrix smoke test: realistic scale; CI runs it with -- --ignored"]
fn matrix_smoke_registry_sweep_at_scale() {
    let programs = generated_programs(0.05);
    let matrix = deterministic().run_on(registry(), programs);

    let sweep = matrix.ls_sweep(&[0]);
    let ls_for = |name: &str| sweep.iter().find(|(n, _)| n == name).map(|(_, c)| c[0]).unwrap();
    assert!(
        ls_for("embedded") >= ls_for("wide4"),
        "embedded {} blocks benefit vs wide4 {}",
        ls_for("embedded"),
        ls_for("wide4")
    );

    let transfer = matrix.transfer_errors(0);
    for (i, (name, filter)) in matrix.factory_filters(0).into_iter().enumerate() {
        let run = matrix.run_for(&name);
        let own = transfer[i][i];
        assert!(own <= 50.0, "{name}: self-error {own}% means the rule set learned nothing");
        assert!(run.all_traces().len() > 100, "{name}: corpus too small to mean anything");
        let _ = filter.rules(); // every machine's rule set is printable
    }
}
