//! Integration bar for the serving layer: the server is the deployed
//! pass behind a socket — bit-identical totals, lossless drains, and
//! hot swaps that never split a batch across epochs.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use wts_core::{
    build_dataset, collect_trace, filtered_schedule_pass, train_filter, DecisionPolicy, LabelConfig, Learner,
    LearnerKind, ScopeKind, TimingMode, TraceOptions, TraceRecord,
};
use wts_ir::Program;
use wts_machine::MachineConfig;
use wts_serve::{BatchResult, Response, ServeClient, ServeConfig, Server, ServerHandle};

/// The sort-based stump fit the incremental folds replaced.
#[allow(dead_code)]
#[path = "../crates/ripper/tests/support/stump_oracle.rs"]
mod stump_oracle;

fn options() -> TraceOptions {
    TraceOptions { timing: TimingMode::Deterministic, ..TraceOptions::default() }
}

fn corpus(programs: &[Program], machine: &MachineConfig, opts: &TraceOptions) -> Vec<TraceRecord> {
    programs.iter().flat_map(|p| collect_trace(p, machine, opts)).collect()
}

/// A stump-learner config over the given corpus: retraining is
/// microseconds, so tests control cadence, not training cost.
fn stump_config(machine: &MachineConfig, seed: Vec<TraceRecord>, retrain_every: usize) -> ServeConfig {
    let mut config = ServeConfig::new(machine.clone(), seed);
    config.learner = LearnerKind::Stump;
    config.retrain_every = retrain_every;
    config
}

fn expect_batch(resp: Response) -> BatchResult {
    match resp {
        Response::Batch(batch) => batch,
        other => panic!("expected a batch result, got {other:?}"),
    }
}

#[test]
fn server_schedules_bit_identical_to_direct_pass() {
    let machine = MachineConfig::ppc7410();
    let programs = wts_core::testutil::learnable_suite(3);
    for scope in [ScopeKind::Block, ScopeKind::Superblock(70)] {
        let opts = TraceOptions { scope, ..options() };
        let mut config = stump_config(&machine, corpus(&programs, &machine, &opts), 0);
        config.options = opts;
        let handle = Server::bind("127.0.0.1:0", config).expect("bind");
        let snapshot = handle.store().get(handle.key()).expect("seed filter deployed");

        let mut client = ServeClient::connect(handle.local_addr()).expect("connect");
        for (i, program) in programs.iter().enumerate() {
            let batch = expect_batch(client.request(i as u64, program.name(), program.methods()).expect("request"));
            let direct =
                filtered_schedule_pass(program, &machine, snapshot.compiled(), &DecisionPolicy::HardThreshold, &opts);
            assert_eq!(batch.epoch, snapshot.epoch());
            assert_eq!(
                (batch.totals.total_blocks, batch.totals.scheduled_blocks, batch.totals.conditions_evaluated),
                (direct.total_blocks, direct.scheduled_blocks, direct.conditions_evaluated),
                "{}/{scope:?}",
                program.name()
            );
            assert_eq!(
                (batch.totals.extraction_work, batch.totals.sched_work),
                (direct.extraction_work, direct.sched_work),
                "{}/{scope:?}",
                program.name()
            );
            assert_eq!(batch.units.len(), direct.total_blocks, "one served unit per scope unit");
            assert_eq!(batch.units.iter().filter(|u| u.decision).count(), direct.scheduled_blocks);
            for unit in batch.units.iter().filter(|u| u.decision) {
                let mut order = unit.order.clone();
                order.sort_unstable();
                assert_eq!(order, (0..unit.order.len() as u32).collect::<Vec<_>>(), "a permutation came back");
                assert!(unit.cycles_after <= unit.cycles_before);
            }
        }
        let report = handle.shutdown();
        assert_eq!(report.stats.batches_served, programs.len() as u64);
        assert_eq!(report.retrain.retrains, 0, "retraining was disabled");
    }
}

#[test]
fn graceful_shutdown_loses_no_trace_records() {
    let machine = MachineConfig::ppc7410();
    let programs = wts_core::testutil::learnable_suite(3);
    let opts = options();
    let seed = corpus(&programs, &machine, &opts);
    let handle = Server::bind("127.0.0.1:0", stump_config(&machine, seed, 40)).expect("bind");

    let clients = 3usize;
    let served: u64 = std::thread::scope(|s| {
        let addr = handle.local_addr();
        let programs = &programs;
        (0..clients)
            .map(|c| {
                s.spawn(move || {
                    let mut client = ServeClient::connect(addr).expect("connect");
                    let id = |i: usize| (c * programs.len() + i) as u64;
                    // Odd clients pipeline: every batch goes out before
                    // any response is read, and a shed one is re-requested.
                    let pipelined = c % 2 == 1;
                    if pipelined {
                        for (i, program) in programs.iter().enumerate() {
                            client.send(id(i), program.name(), program.methods()).expect("send");
                        }
                    }
                    let mut units = 0u64;
                    for (i, program) in programs.iter().enumerate() {
                        let answered = if pipelined {
                            Some(client.recv_for(id(i)).expect("recv")).filter(|r| !matches!(r, Response::Busy { .. }))
                        } else {
                            None
                        };
                        let batch = expect_batch(answered.unwrap_or_else(|| {
                            client.request_with_retry(id(i), program.name(), program.methods(), 10).expect("request")
                        }));
                        assert_eq!(batch.batch_id, id(i));
                        units += batch.totals.total_blocks as u64;
                    }
                    units
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().expect("client panicked"))
            .sum()
    });

    let report = handle.shutdown();
    let expected: u64 = programs.iter().map(|p| p.block_count() as u64).sum::<u64>() * clients as u64;
    // Nothing lost: every unit the clients saw served was absorbed by
    // the retrainer. Nothing double-counted: the absorbed total is
    // exactly the block population, not a multiple of it.
    assert_eq!(served, expected, "clients saw every unit");
    assert_eq!(report.stats.units_served, expected);
    assert_eq!(report.retrain.records_absorbed, expected, "drain absorbed exactly the served units");
    assert_eq!(report.stats.batches_served, (clients * programs.len()) as u64);
    assert!(report.retrain.retrains >= 1, "the cadence fired under this load");
    assert_eq!(report.retrain.last_epoch, 1 + report.retrain.retrains, "every fold advanced the epoch once");
}

#[test]
fn hot_swap_under_load_answers_every_batch_from_one_epoch() {
    let machine = MachineConfig::ppc7410();
    let programs = wts_core::testutil::learnable_suite(3);
    let opts = options();
    let seed = corpus(&programs, &machine, &opts);
    let swap_filter = train_filter(&seed, &wts_core::TrainConfig::with_learner(10, LearnerKind::Stump));
    let handle = Server::bind("127.0.0.1:0", stump_config(&machine, seed, 25)).expect("bind");

    let stop = Arc::new(AtomicBool::new(false));
    let epochs: Vec<u64> = std::thread::scope(|s| {
        // A deployer thread hammers explicit swaps while the retrainer
        // also swaps on its own cadence.
        let deployer = {
            let store = Arc::clone(handle.store());
            let key = handle.key().clone();
            let stop = Arc::clone(&stop);
            s.spawn(move || {
                while !stop.load(Ordering::Acquire) {
                    store.swap(key.clone(), swap_filter.clone());
                    std::thread::yield_now();
                }
            })
        };
        let addr = handle.local_addr();
        let programs = &programs;
        let observed: Vec<u64> = (0..3usize)
            .map(|c| {
                s.spawn(move || {
                    let mut client = ServeClient::connect(addr).expect("connect");
                    let mut epochs = Vec::new();
                    for round in 0..5usize {
                        for (i, program) in programs.iter().enumerate() {
                            let id = (c * 1000 + round * 10 + i) as u64;
                            let batch = expect_batch(
                                client.request_with_retry(id, program.name(), program.methods(), 10).expect("request"),
                            );
                            // Never a partial batch: the whole program
                            // was served, by exactly one epoch.
                            assert_eq!(batch.totals.total_blocks, program.block_count());
                            assert_eq!(batch.units.len(), program.block_count());
                            epochs.push(batch.epoch);
                        }
                    }
                    epochs
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .flat_map(|h| h.join().expect("client panicked"))
            .collect();
        stop.store(true, Ordering::Release);
        deployer.join().expect("deployer panicked");
        observed
    });

    let final_epoch = handle.epoch();
    let report = handle.shutdown();
    assert_eq!(epochs.len(), 3 * 5 * programs.len());
    let distinct: std::collections::BTreeSet<u64> = epochs.iter().copied().collect();
    assert!(distinct.len() >= 2, "swaps landed while serving: {distinct:?}");
    assert!(epochs.iter().all(|&e| e >= 1 && e <= final_epoch), "every epoch is a published one");
    // The retrainer's final fold may bump past what clients observed,
    // but the drain still accounts for every record.
    assert_eq!(report.retrain.records_absorbed, report.stats.units_served);
}

/// The full loop at realistic scale: a specjvm98-sized corpus served by
/// a worker fleet under concurrent clients with online retraining. In a
/// debug build every schedule the workers emit is also checked by
/// wts-verify inside the serving fast path.
#[test]
#[ignore = "serve smoke test: realistic scale; CI runs it with -- --ignored"]
fn serve_smoke_realistic_scale() {
    let machine = MachineConfig::ppc7410();
    let suite = wts_jit::Suite::specjvm98(0.25);
    let programs: Vec<Program> = suite.benchmarks().iter().map(|b| b.program().clone()).collect();
    let opts = options();
    let seed = corpus(&programs, &machine, &opts);
    assert!(seed.len() > 1000, "realistic scale means a real corpus, got {}", seed.len());
    let mut config = stump_config(&machine, seed, 2000);
    config.workers = 4;
    let handle = Server::bind("127.0.0.1:0", config).expect("bind");

    let served: u64 = std::thread::scope(|s| {
        let addr = handle.local_addr();
        let programs = &programs;
        (0..4usize)
            .map(|c| {
                s.spawn(move || {
                    let mut client = ServeClient::connect(addr).expect("connect");
                    let mut units = 0u64;
                    for round in 0..2usize {
                        for (i, program) in programs.iter().enumerate() {
                            let id = (c * 1000 + round * 100 + i) as u64;
                            let batch = expect_batch(
                                client.request_with_retry(id, program.name(), program.methods(), 12).expect("request"),
                            );
                            assert_eq!(batch.totals.total_blocks, program.block_count());
                            units += batch.totals.total_blocks as u64;
                        }
                    }
                    units
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().expect("client panicked"))
            .sum()
    });

    let report = handle.shutdown();
    assert_eq!(report.stats.units_served, served);
    assert_eq!(report.retrain.records_absorbed, served, "lossless at scale");
    assert!(report.retrain.retrains >= 1, "the corpus is large enough to trigger folds");
    assert_eq!(report.stats.protocol_errors, 0);
}

/// Graceful shutdown persists the retrainer's full corpus to the
/// `schedfilter-trace-bin-v1` format, and it round-trips: the file
/// reads back as exactly seed + absorbed records, ready to seed a
/// restarted instance.
#[test]
fn shutdown_persists_the_retrain_corpus_round_trip() {
    let machine = MachineConfig::ppc7410();
    let programs = wts_core::testutil::learnable_suite(2);
    let opts = options();
    let seed = corpus(&programs, &machine, &opts);
    let path = std::env::temp_dir().join(format!("wts-serve-corpus-{}.bin", std::process::id()));
    let mut config = stump_config(&machine, seed.clone(), 40);
    config.persist_corpus = Some(path.clone());
    let handle = Server::bind("127.0.0.1:0", config).expect("bind");

    let mut client = ServeClient::connect(handle.local_addr()).expect("connect");
    for (i, program) in programs.iter().enumerate() {
        expect_batch(client.request_with_retry(i as u64, program.name(), program.methods(), 10).expect("request"));
    }
    drop(client);
    let report = handle.shutdown();

    let expected = seed.len() as u64 + report.retrain.records_absorbed;
    assert!(report.retrain.records_absorbed > 0, "the served batches were observed");
    assert_eq!(report.retrain.records_persisted, expected, "seed + absorbed records persisted");
    let bytes = std::fs::read(&path).expect("persisted corpus exists");
    std::fs::remove_file(&path).ok();
    let records = wts_core::read_trace_binary(&bytes).expect("round-trips through schedfilter-trace-bin-v1");
    assert_eq!(records.len() as u64, expected);
    assert_eq!(&records[..seed.len()], &seed[..], "the seed prefix survives bit-exactly");
    // The instance served exactly the programs its seed was collected
    // from, so the online collector must have observed the seed again,
    // every channel included. Two workers may hand their batches to the
    // retrainer in either order, so compare program by program.
    let observed = &records[seed.len()..];
    for program in &programs {
        let of = |rs: &[TraceRecord]| rs.iter().filter(|r| r.benchmark == program.name()).cloned().collect::<Vec<_>>();
        assert_eq!(of(observed), of(&seed), "{}: online records equal the offline ones", program.name());
    }
    assert_eq!(observed.len(), seed.len());
    // The persisted corpus is a working seed: a restarted instance
    // trains its epoch-1 filter from it directly.
    let restarted = Server::bind("127.0.0.1:0", stump_config(&machine, records, 0)).expect("rebind from corpus");
    assert_eq!(restarted.epoch(), 1);
    restarted.shutdown();
}

/// With Stump retraining on, every fold is an incremental fit over
/// counts the retrainer absorbed batch by batch. The last filter it
/// publishes must still be the sort-based stump over everything it saw:
/// the persisted corpus (seed plus every observation), labelled whole.
#[test]
fn incremental_folds_publish_the_oracle_stump_of_the_persisted_corpus() {
    let machine = MachineConfig::ppc7410();
    let programs: Vec<Program> =
        wts_jit::Suite::specjvm98(0.02).benchmarks().iter().map(|b| b.program().clone()).collect();
    let opts = options();
    // Seed from two benchmarks and serve them all, so the folds move the
    // filter away from the seed's.
    let seed = corpus(&programs[..2], &machine, &opts);
    let path = std::env::temp_dir().join(format!("wts-serve-oracle-corpus-{}.bin", std::process::id()));
    let mut config = stump_config(&machine, seed, 150);
    config.threshold = 5;
    config.persist_corpus = Some(path.clone());
    let handle = Server::bind("127.0.0.1:0", config).expect("bind");
    let (store, key) = (std::sync::Arc::clone(handle.store()), handle.key().clone());

    let mut client = ServeClient::connect(handle.local_addr()).expect("connect");
    let mut id = 0;
    for program in &programs {
        for methods in program.methods().chunks(5) {
            expect_batch(client.request_with_retry(id, program.name(), methods, 10).expect("request"));
            id += 1;
        }
    }
    drop(client);
    let report = handle.shutdown();
    assert!(report.retrain.retrains >= 3, "the cadence fired several times: {:?}", report.retrain);

    let bytes = std::fs::read(&path).expect("persisted corpus exists");
    std::fs::remove_file(&path).ok();
    let records = wts_core::read_trace_binary(&bytes).expect("round-trips");
    assert_eq!(records.len() as u64, report.retrain.records_persisted);
    let published = store.get(&key).expect("the served key stays published");
    assert_eq!(published.epoch(), report.retrain.last_epoch, "the last fold is the live filter");
    let (data, _) = build_dataset(&records, LabelConfig::new(5));
    let oracle = stump_oracle::rule_set(&data);
    assert!(!oracle.is_empty(), "the corpus induces a stump");
    assert_eq!(published.source().rules(), &oracle);
    assert_eq!(stump_oracle::threshold_bits(published.source().rules()), stump_oracle::threshold_bits(&oracle));
}

/// The retrainer observes label-only unless it must persist full
/// records, and the two paths must fold the same filters. Two servers
/// from one seed, one worker each, are fed the same batches by one
/// sequential client; with a fold after every batch, each publishes the
/// same filter at every epoch, for every learner.
#[test]
fn label_only_and_recorded_observation_publish_the_same_epochs() {
    let machine = MachineConfig::ppc7410();
    let programs: Vec<Program> =
        wts_jit::Suite::specjvm98(0.02).benchmarks().iter().map(|b| b.program().clone()).collect();
    let seed = corpus(&programs[..2], &machine, &options());
    let path = std::env::temp_dir().join(format!("wts-serve-paths-corpus-{}.bin", std::process::id()));
    for learner in LearnerKind::portfolio() {
        let published = |persist: Option<std::path::PathBuf>| {
            let mut config = stump_config(&machine, seed.clone(), 1);
            config.learner = learner.clone();
            config.threshold = 5;
            config.workers = 1;
            config.persist_corpus = persist;
            let handle = Server::bind("127.0.0.1:0", config).expect("bind");
            let source = |handle: &ServerHandle| handle.store().get(handle.key()).expect("published").source().clone();
            let mut epochs = vec![source(&handle)];
            let mut client = ServeClient::connect(handle.local_addr()).expect("connect");
            for program in &programs {
                for methods in program.methods().chunks(5) {
                    let id = epochs.len() as u64;
                    expect_batch(client.request_with_retry(id, program.name(), methods, 10).expect("request"));
                    // Every batch folds once; the next is sent only after
                    // its fold is published, so no epoch is missed.
                    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
                    while handle.epoch() <= id {
                        assert!(std::time::Instant::now() < deadline, "epoch {} never published", id + 1);
                        std::thread::sleep(std::time::Duration::from_millis(1));
                    }
                    assert_eq!(handle.epoch(), id + 1, "one fold per batch");
                    epochs.push(source(&handle));
                }
            }
            drop(client);
            let report = handle.shutdown();
            assert_eq!(report.retrain.records_absorbed, report.stats.units_served, "a lossless drain");
            assert_eq!(report.retrain.last_epoch, epochs.len() as u64);
            (epochs, report.retrain.records_persisted)
        };
        let (recorded, persisted) = published(Some(path.clone()));
        std::fs::remove_file(&path).ok();
        assert!(persisted > seed.len() as u64, "the recorded path kept its records");
        let (label_only, none_persisted) = published(None);
        assert_eq!(none_persisted, 0);
        assert!(recorded.len() > 3, "several folds: {}", recorded.len());
        assert_eq!(label_only.len(), recorded.len());
        for (epoch, (a, b)) in label_only.iter().zip(&recorded).enumerate() {
            assert_eq!(a, b, "{} epoch {}", learner.name(), epoch + 1);
        }
        assert_ne!(recorded.first(), recorded.last(), "{}: the folds moved the filter", learner.name());
    }
}

/// A peer that connects and resets at once (`SO_LINGER` 0) must not stop
/// the accept loop: the next client is still served.
#[cfg(target_os = "linux")]
#[test]
fn a_reset_peer_does_not_stop_the_accept_loop() {
    use std::os::fd::AsRawFd;
    extern "C" {
        fn setsockopt(fd: i32, level: i32, name: i32, value: *const std::ffi::c_void, len: u32) -> i32;
    }
    /// `struct linger` of `<sys/socket.h>`.
    #[repr(C)]
    struct Linger {
        onoff: i32,
        seconds: i32,
    }
    const SOL_SOCKET: i32 = 1;
    const SO_LINGER: i32 = 13;

    let machine = MachineConfig::ppc7410();
    let programs = wts_core::testutil::learnable_suite(2);
    let handle =
        Server::bind("127.0.0.1:0", stump_config(&machine, corpus(&programs, &machine, &options()), 0)).expect("bind");
    for _ in 0..3 {
        let peer = std::net::TcpStream::connect(handle.local_addr()).expect("connect");
        let linger = Linger { onoff: 1, seconds: 0 };
        let len = u32::try_from(std::mem::size_of::<Linger>()).expect("struct linger fits u32");
        // SAFETY: `peer` owns an open socket descriptor, and the option
        // value points at a live `struct linger` of the length passed.
        let rc = unsafe { setsockopt(peer.as_raw_fd(), SOL_SOCKET, SO_LINGER, (&linger as *const Linger).cast(), len) };
        assert_eq!(rc, 0, "setsockopt(SO_LINGER)");
        drop(peer); // closing with a zero linger sends RST
    }
    let mut client = ServeClient::connect(handle.local_addr()).expect("connect after the resets");
    let batch = expect_batch(client.request(7, programs[0].name(), programs[0].methods()).expect("served"));
    assert_eq!(batch.batch_id, 7);
    drop(client);
    let report = handle.shutdown();
    assert_eq!(report.stats.batches_served, 1);
}

/// A client that hangs up releases its server-side socket while the
/// server keeps running: after many one-request clients, no socket on
/// the server's own port (so concurrent tests do not count) stays in
/// `CLOSE_WAIT` — state `08` in `/proc/net/tcp`: peer closed, server
/// never did.
#[cfg(target_os = "linux")]
#[test]
fn closed_connections_release_their_sockets_before_shutdown() {
    let close_wait_on = |port: u16| {
        let local = format!(":{port:04X}");
        let table = std::fs::read_to_string("/proc/net/tcp").expect("read /proc/net/tcp");
        let rows = table.lines().skip(1).map(|row| row.split_whitespace().collect::<Vec<_>>());
        rows.filter(|cols| cols[1].ends_with(&local) && cols[3] == "08").count()
    };
    let machine = MachineConfig::ppc7410();
    let programs = wts_core::testutil::learnable_suite(2);
    let handle =
        Server::bind("127.0.0.1:0", stump_config(&machine, corpus(&programs, &machine, &options()), 0)).expect("bind");
    for i in 0..40 {
        let mut client = ServeClient::connect(handle.local_addr()).expect("connect");
        expect_batch(client.request(i, programs[0].name(), programs[0].methods()).expect("served"));
    }
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while close_wait_on(handle.local_addr().port()) > 0 && std::time::Instant::now() < deadline {
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    assert_eq!(close_wait_on(handle.local_addr().port()), 0, "closed connections still hold server sockets");
    assert_eq!(handle.shutdown().stats.batches_served, 40);
}

/// `ServerHandle` is self-describing enough to monitor externally.
#[test]
fn handle_reports_address_key_and_stats() {
    let machine = MachineConfig::ppc7410();
    let programs = wts_core::testutil::learnable_suite(2);
    let opts = options();
    let handle: ServerHandle =
        Server::bind("127.0.0.1:0", stump_config(&machine, corpus(&programs, &machine, &opts), 0)).expect("bind");
    assert_ne!(handle.local_addr().port(), 0, "the OS assigned a real port");
    assert_eq!(handle.key().machine(), "ppc7410");
    assert_eq!(handle.key().threshold(), 0);
    assert_eq!(handle.epoch(), 1, "the seed filter is live");
    let stats = handle.stats();
    assert_eq!((stats.connections, stats.batches_served), (0, 0));
    // Empty seeds are rejected up front, not at first request.
    let err = Server::bind("127.0.0.1:0", stump_config(&machine, Vec::new(), 0)).expect_err("empty seed");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
    handle.shutdown();
}
