//! Determinism of the parallel pipeline paths: method-sharded trace
//! collection, sharded compilation and fold-sharded LOOCV training must
//! all be indistinguishable from their serial counterparts — same
//! records, same order, and (under deterministic timing) byte-identical
//! serialized output.

use schedfilter::filters::{collect_trace, write_trace_binary, Experiment, TimingMode, TraceOptions};
use schedfilter::jit::CompileSession;
use schedfilter::prelude::*;

const SCALE: f64 = 0.04;

fn serial_opts() -> TraceOptions {
    TraceOptions { threads: 1, timing: TimingMode::Deterministic, ..Default::default() }
}

#[test]
fn sharded_traces_equal_serial_in_order() {
    let machine = MachineConfig::ppc7410();
    let suite = Suite::specjvm98(SCALE);
    for bench in suite.benchmarks() {
        let serial = collect_trace(bench.program(), &machine, &serial_opts());
        for threads in [2, 3, 8] {
            let sharded = collect_trace(bench.program(), &machine, &TraceOptions { threads, ..serial_opts() });
            assert_eq!(
                serial,
                sharded,
                "{}: sharded trace ({threads} threads) must equal the serial path record-for-record",
                bench.name()
            );
        }
    }
}

#[test]
fn sharded_trace_files_are_byte_identical() {
    let machine = MachineConfig::ppc7410();
    let suite = Suite::fp(SCALE);
    let program = suite.benchmarks()[0].program();
    let serial = write_trace_binary(&collect_trace(program, &machine, &serial_opts())).unwrap();
    let sharded =
        write_trace_binary(&collect_trace(program, &machine, &TraceOptions { threads: 4, ..serial_opts() })).unwrap();
    assert_eq!(serial, sharded, "serialized trace files must be byte-identical");
}

#[test]
fn sharded_compile_sessions_equal_serial() {
    let machine = MachineConfig::ppc7410();
    let suite = Suite::fp(SCALE);
    let session = CompileSession::new(&machine);
    let filter = CompiledFilter::size_threshold(5);
    for bench in suite.benchmarks() {
        let (serial, serial_stats) = session.compile(bench.program(), &filter, 1);
        let (sharded, sharded_stats) = session.compile(bench.program(), &filter, 4);
        assert_eq!(serial, sharded, "{}: sharded compile must be identical", bench.name());
        assert_eq!(serial_stats, sharded_stats, "{}: sharded totals must be identical", bench.name());
    }
}

#[test]
fn experiment_pipeline_is_thread_count_invariant() {
    let programs = || Suite::specjvm98(SCALE).benchmarks().iter().map(|b| b.program().clone()).collect::<Vec<_>>();
    let serial = Experiment::new(MachineConfig::ppc7410())
        .with_threads(1)
        .with_timing(TimingMode::Deterministic)
        .run(programs());
    let sharded = Experiment::new(MachineConfig::ppc7410())
        .with_threads(6)
        .with_timing(TimingMode::Deterministic)
        .run(programs());

    assert_eq!(serial.all_traces(), sharded.all_traces(), "trace stage must be thread-count invariant");
    assert_eq!(
        write_trace_binary(serial.all_traces()).unwrap(),
        write_trace_binary(sharded.all_traces()).unwrap(),
        "serialized corpus must be byte-identical"
    );
    // Fold-sharded training must induce the same rule sets.
    let a = serial.loocv_filters(20);
    let b = sharded.loocv_filters(20);
    assert_eq!(a.len(), b.len());
    for ((na, fa), (nb, fb)) in a.iter().zip(b.iter()) {
        assert_eq!(na, nb);
        assert_eq!(fa.rules().to_string(), fb.rules().to_string(), "{na}: rules must match");
    }
}
