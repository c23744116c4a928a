//! The standing wts-verify invariant future PRs inherit: the untampered
//! pipeline draws **zero diagnostics** from the independent checker on
//! every registry machine × scheduling policy × scope, over generated
//! corpora.
//!
//! The `#[ignore]`d smoke test in `tests/matrix.rs` runs the same sweep
//! at realistic scale in CI; `tests/verify.rs` keeps a quick version in
//! the always-on tier. In a debug build the `hooks_*` test also
//! exercises the checker hooks inside trace collection, the filtered
//! deployment pass and the JIT compile session.

use schedfilter::prelude::*;
use schedfilter::verify::render;

fn generated_programs(scale: f64) -> Vec<Program> {
    Suite::fp(scale).benchmarks().iter().map(|b| b.program().clone()).collect()
}

fn sweep_policies() -> [SchedulePolicy; 4] {
    [
        SchedulePolicy::CriticalPath,
        SchedulePolicy::EarliestStart,
        SchedulePolicy::CriticalPathOnly,
        SchedulePolicy::Random(0x5EED),
    ]
}

#[test]
fn pipeline_draws_zero_diagnostics_on_every_machine_policy_and_scope() {
    let programs = generated_programs(0.01);
    for machine in registry() {
        for policy in sweep_policies() {
            for scope in [ScopeKind::Block, ScopeKind::Superblock(70)] {
                let mut units = 0;
                for program in &programs {
                    let report = verify_program(program, &machine, policy, scope);
                    units += report.units;
                    assert!(
                        report.is_clean(),
                        "{} {policy} {scope} {}: {} diagnostics:\n{}",
                        machine.name(),
                        program.name(),
                        report.diagnostics.len(),
                        render(&report.diagnostics)
                    );
                }
                assert!(units > 0, "{}: sweep examined no units", machine.name());
            }
        }
    }
}

/// Degenerate scheduling units — empty and single-instruction blocks and
/// the scheduler's revert-to-identity path — must verify cleanly too:
/// these are exactly the paths a naive checker would misjudge.
#[test]
fn degenerate_units_verify_cleanly() {
    let machine = MachineConfig::ppc7410();
    let scheduler = ListScheduler::new(&machine);

    let empty: Vec<Inst> = Vec::new();
    let outcome = scheduler.schedule_insts(&empty);
    assert!(verify_unit(&machine, &empty, false, &outcome).is_empty());

    let single = vec![Inst::new(Opcode::Add).def(Reg::gpr(1)).use_(Reg::gpr(2)).use_(Reg::gpr(3))];
    let outcome = scheduler.schedule_insts(&single);
    assert!(verify_unit(&machine, &single, false, &outcome).is_empty());
}

/// In a debug build the hooks themselves run: trace collection, the
/// filtered deployment pass and the JIT compile session each verify
/// every unit they schedule and panic on the first diagnostic. The test
/// simply drives all three paths over a generated corpus (a release
/// build compiles the hooks out, so there it only drives the paths).
#[test]
fn hooks_fire_cleanly_across_the_whole_pipeline() {
    let programs = generated_programs(0.01);
    let machine = MachineConfig::ppc7410();

    // Trace collection (block and superblock scope).
    let run = Experiment::new(machine.clone()).with_timing(TimingMode::Deterministic).run(programs.clone());
    assert!(run.all_traces().len() > 10);
    let sb = Experiment::new(machine.clone())
        .with_timing(TimingMode::Deterministic)
        .with_scope(ScopeKind::Superblock(70))
        .run(programs.clone());
    assert!(!sb.all_traces().is_empty());

    // The JIT compile session (drives filtered_schedule_pass-style
    // decisions through CompileSession::compile).
    let filter = CompiledFilter::size_threshold(1);
    let session = CompileSession::new(&machine);
    for program in &programs {
        let (compiled, stats) = session.compile(program, &filter, 1);
        assert_eq!(compiled.block_count(), program.block_count());
        assert!(stats.scheduled_blocks > 0);
    }
}
