//! `serve_throughput`: blocks/second of the serving layer against the
//! in-process deployed pass.
//!
//! Four scenarios over the same FP-suite corpus and the same stump
//! filter:
//!
//! * **direct_pass** — the in-process baseline:
//!   [`filtered_schedule_pass`] over every program, no socket;
//! * **single_client** — one blocking client round-tripping one
//!   benchmark per batch through a live server;
//! * **multi_client_batched** — four concurrent clients, each
//!   pipelining all its batches before collecting responses;
//! * **swap_under_load** — single_client again while a deployer thread
//!   hot-swaps the filter as fast as it can, pricing the epoch churn.
//!
//! The per-iteration unit count is printed so `blocks/sec = units /
//! time` can be read off the report; the serving scenarios assert every
//! batch comes back complete before anything is timed.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use wts_core::{
    collect_trace, filtered_schedule_pass, train_filter, DecisionPolicy, LearnerKind, TimingMode, TraceOptions,
    TrainConfig,
};
use wts_ir::Program;
use wts_serve::{Response, ServeClient, ServeConfig, Server, ServerHandle};

const CLIENTS: usize = 4;

fn bind_server(machine: &wts_machine::MachineConfig, programs: &[Program], opts: &TraceOptions) -> ServerHandle {
    let seed: Vec<_> = programs.iter().flat_map(|p| collect_trace(p, machine, opts)).collect();
    let mut config = ServeConfig::new(machine.clone(), seed);
    config.learner = LearnerKind::Stump;
    config.retrain_every = 0; // serving cost, not retraining cost
    config.workers = CLIENTS;
    Server::bind("127.0.0.1:0", config).expect("bind bench server")
}

fn drive_round(client: &mut ServeClient, programs: &[Program]) -> u64 {
    let mut units = 0u64;
    for (i, program) in programs.iter().enumerate() {
        match client.request_with_retry(i as u64, program.name(), program.methods(), 12).expect("request") {
            Response::Batch(batch) => units += batch.totals.total_blocks as u64,
            other => panic!("unexpected response {other:?}"),
        }
    }
    units
}

fn serve_throughput(c: &mut Criterion) {
    let machine = wts_machine::MachineConfig::ppc7410();
    let suite = wts_jit::Suite::fp(wts_bench::BENCH_SCALE);
    let programs: Vec<Program> = suite.benchmarks().iter().map(|b| b.program().clone()).collect();
    let opts = TraceOptions { timing: TimingMode::Deterministic, ..TraceOptions::default() };
    let units: usize = programs.iter().map(|p| p.block_count()).sum();
    eprintln!("# serve_throughput: {units} units per single-client iteration, {CLIENTS}x for multi_client");

    let mut group = c.benchmark_group("serve_throughput");
    group.sample_size(20);
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(500));

    // The in-process baseline everything is priced against.
    {
        let handle = bind_server(&machine, &programs, &opts);
        let compiled = handle.store().get(handle.key()).expect("deployed").compiled().clone();
        handle.shutdown();
        group.bench_function("direct_pass", |b| {
            b.iter(|| {
                let mut scheduled = 0usize;
                for program in &programs {
                    let pass = filtered_schedule_pass(
                        black_box(program),
                        &machine,
                        &compiled,
                        &DecisionPolicy::HardThreshold,
                        &opts,
                    );
                    scheduled += pass.scheduled_blocks;
                }
                scheduled
            });
        });
    }

    // One client, strict request/response.
    {
        let handle = bind_server(&machine, &programs, &opts);
        let mut client = ServeClient::connect(handle.local_addr()).expect("connect");
        assert_eq!(drive_round(&mut client, &programs), units as u64);
        group.bench_function("single_client", |b| {
            b.iter(|| drive_round(&mut client, &programs));
        });
        handle.shutdown();
    }

    // Concurrent clients, each pipelining its whole round before
    // collecting — the batched saturation case.
    {
        let handle = bind_server(&machine, &programs, &opts);
        let addr = handle.local_addr();
        let mut clients: Vec<ServeClient> =
            (0..CLIENTS).map(|_| ServeClient::connect(addr).expect("connect")).collect();
        group.bench_function("multi_client_batched", |b| {
            b.iter(|| {
                let served: u64 = std::thread::scope(|s| {
                    let programs = &programs;
                    clients
                        .iter_mut()
                        .map(|client| {
                            s.spawn(move || {
                                for (i, program) in programs.iter().enumerate() {
                                    client.send(i as u64, program.name(), program.methods()).expect("send");
                                }
                                let mut units = 0u64;
                                for i in 0..programs.len() {
                                    match client.recv_for(i as u64).expect("recv") {
                                        Response::Batch(batch) => units += batch.totals.total_blocks as u64,
                                        // A shed batch is re-requested round-trip style.
                                        Response::Busy { batch_id, .. } => {
                                            let program = &programs[batch_id as usize];
                                            match client
                                                .request_with_retry(batch_id, program.name(), program.methods(), 12)
                                                .expect("retry")
                                            {
                                                Response::Batch(batch) => units += batch.totals.total_blocks as u64,
                                                other => panic!("unexpected response {other:?}"),
                                            }
                                        }
                                        other => panic!("unexpected response {other:?}"),
                                    }
                                }
                                units
                            })
                        })
                        .collect::<Vec<_>>()
                        .into_iter()
                        .map(|h| h.join().expect("bench client panicked"))
                        .sum()
                });
                assert_eq!(served, (units * CLIENTS) as u64);
                served
            });
        });
        handle.shutdown();
    }

    // Serving while a deployer thread hot-swaps as fast as it can.
    {
        let handle = bind_server(&machine, &programs, &opts);
        let seed: Vec<_> = programs.iter().flat_map(|p| collect_trace(p, &machine, &opts)).collect();
        let swap_filter = train_filter(&seed, &TrainConfig::with_learner(10, LearnerKind::Stump));
        let stop = Arc::new(AtomicBool::new(false));
        let deployer = {
            let store = Arc::clone(handle.store());
            let key = handle.key().clone();
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut swaps = 0u64;
                while !stop.load(Ordering::Acquire) {
                    store.swap(key.clone(), swap_filter.clone());
                    swaps += 1;
                }
                swaps
            })
        };
        let mut client = ServeClient::connect(handle.local_addr()).expect("connect");
        group.bench_function("swap_under_load", |b| {
            b.iter(|| drive_round(&mut client, &programs));
        });
        stop.store(true, Ordering::Release);
        let swaps = deployer.join().expect("deployer panicked");
        eprintln!("# swap_under_load: {swaps} hot swaps landed during the scenario");
        assert!(swaps > 0);
        handle.shutdown();
    }

    group.finish();
}

criterion_group!(benches, serve_throughput);
criterion_main!(benches);
