//! Integration bar for the serving layer: the server is the deployed
//! pass behind a socket — bit-identical totals, lossless drains, and
//! hot swaps that never split a batch across epochs.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use wts_core::{
    build_dataset, collect_method_trace, collect_trace, filtered_schedule_pass, for_each_scope_unit, train_filter,
    CompiledFilter, DecisionPolicy, FilterSnapshot, FilteredPass, LabelConfig, LearnedFilter, Learner, LearnerKind,
    ScopeKind, ServedUnit, TimingMode, TraceOptions, TraceRecord, UnitServer,
};
use wts_features::FeatureKind;
use wts_ir::{Method, Program};
use wts_machine::MachineConfig;
use wts_ripper::{Condition, Op, Rule, RuleSet, RuleStats};
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

/// `methods` served by one warm `UnitServer` under `filter`, the way a
/// worker serves a batch: the per-unit outcomes and the pass totals.
fn serve_locally(config: &ServeConfig, methods: &[Method], filter: &CompiledFilter) -> (Vec<ServedUnit>, FilteredPass) {
    let mut server = UnitServer::new(&config.machine, config.options.policy);
    let mut totals = FilteredPass::default();
    let mut units = Vec::new();
    for method in methods {
        for_each_scope_unit(method, config.options.scope, |unit| {
            units.push(server.serve(&unit, filter, &DecisionPolicy::HardThreshold, &mut totals));
        });
    }
    (units, totals)
}

/// A hand-written filter that schedules every non-empty block.
fn nonempty_blocks() -> LearnedFilter {
    let attr_names = FeatureKind::ALL.iter().map(|k| k.rule_name().to_string()).collect();
    let rule = Rule::from_conditions(vec![Condition { attr: FeatureKind::BbLen.index(), op: Op::Ge, threshold: 1.0 }]);
    LearnedFilter::new(RuleSet::new(attr_names, "list", "orig", vec![rule], vec![], RuleStats::default()), 0)
}

/// Batch atomicity on the running server: a deployer alternates two
/// filters that decide some served unit differently while the
/// retrainer swaps on its own cadence. The deployer records every
/// snapshot it publishes and every one it reads back before a swap (so
/// retrainer epochs it saw count too). Every batch at a recorded epoch
/// must be exactly what that epoch's filter decides for the whole
/// batch, so a batch that mixed two snapshots fails here.
#[test]
fn hot_swap_under_load_answers_every_batch_from_one_epoch() {
    const ROUNDS: usize = 20;
    let machine = MachineConfig::ppc7410();
    let programs = wts_core::testutil::learnable_suite(3);
    let opts = options();
    let seed = corpus(&programs, &machine, &opts);
    let alternates =
        [train_filter(&seed, &wts_core::TrainConfig::with_learner(10, LearnerKind::Stump)), nonempty_blocks()];
    let config = stump_config(&machine, seed, 25);
    let decisions = |filter: &LearnedFilter| -> Vec<bool> {
        let compiled = filter.compiled();
        programs.iter().flat_map(|p| serve_locally(&config, p.methods(), compiled).0).map(|u| u.decision).collect()
    };
    assert_ne!(decisions(&alternates[0]), decisions(&alternates[1]), "the alternated filters must disagree somewhere");
    let handle = Server::bind("127.0.0.1:0", config.clone()).expect("bind");

    // The deployer publishes once before the first request, so no batch
    // is served at the seed epoch.
    let first = handle.store().swap(handle.key().clone(), alternates[1].clone());
    let stop = Arc::new(AtomicBool::new(false));
    let (published, batches) = std::thread::scope(|s| {
        // A deployer thread hammers explicit swaps while the retrainer
        // also swaps on its own cadence.
        let deployer = {
            let store = Arc::clone(handle.store());
            let key = handle.key().clone();
            let stop = Arc::clone(&stop);
            let alternates = &alternates;
            s.spawn(move || {
                let mut published: BTreeMap<u64, Arc<FilterSnapshot>> = BTreeMap::from([(first.epoch(), first)]);
                for filter in alternates.iter().cycle() {
                    if stop.load(Ordering::Acquire) {
                        break;
                    }
                    let seen = store.get(&key).expect("published");
                    published.insert(seen.epoch(), seen);
                    let snap = store.swap(key.clone(), filter.clone());
                    published.insert(snap.epoch(), snap);
                    std::thread::yield_now();
                }
                published
            })
        };
        let addr = handle.local_addr();
        let programs = &programs;
        let observed: Vec<(usize, BatchResult)> = (0..3usize)
            .map(|c| {
                s.spawn(move || {
                    let mut client = ServeClient::connect(addr).expect("connect");
                    let mut batches = Vec::new();
                    for round in 0..ROUNDS {
                        for (i, program) in programs.iter().enumerate() {
                            let id = (c * 1000 + round * 10 + i) as u64;
                            let batch = expect_batch(
                                client.request_with_retry(id, program.name(), program.methods(), 10).expect("request"),
                            );
                            // Never a partial batch: the whole program
                            // was served, by exactly one epoch.
                            assert_eq!(batch.totals.total_blocks, program.block_count());
                            assert_eq!(batch.units.len(), program.block_count());
                            batches.push((i, batch));
                        }
                    }
                    batches
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .flat_map(|h| h.join().expect("client panicked"))
            .collect();
        stop.store(true, Ordering::Release);
        (deployer.join().expect("deployer panicked"), observed)
    });

    let final_epoch = handle.epoch();
    let report = handle.shutdown();
    assert_eq!(batches.len(), 3 * ROUNDS * programs.len());
    let distinct: BTreeSet<u64> = batches.iter().map(|(_, b)| b.epoch).collect();
    assert!(distinct.len() >= 2, "swaps landed while serving: {distinct:?}");
    assert!(batches.iter().all(|(_, b)| b.epoch >= 1 && b.epoch <= final_epoch), "every epoch is a published one");
    let mut checked = 0;
    for (i, batch) in &batches {
        let Some(snap) = published.get(&batch.epoch) else { continue };
        let (units, totals) = serve_locally(&config, programs[*i].methods(), snap.compiled());
        assert_eq!(batch.units, units, "batch {} differs from epoch {}'s filter", batch.batch_id, batch.epoch);
        assert_eq!(
            batch.totals,
            FilteredPass { pass_ns: batch.totals.pass_ns, ..totals },
            "batch {} totals differ from epoch {}'s filter",
            batch.batch_id,
            batch.epoch
        );
        checked += 1;
    }
    // 45 release runs on a 2-CPU host checked 37-180 of the 180 batches;
    // the floor keeps a starved deployer from passing on a handful.
    assert!(checked >= 20, "only {checked} batches were served at an epoch the deployer recorded");
    // The retrainer's final fold may bump past what clients observed,
    // but the drain still accounts for every record.
    assert_eq!(report.retrain.records_absorbed, report.stats.units_served);
}

/// The shed path on a live server: one worker and a job FIFO of one,
/// and one client that pipelines whole programs faster than the worker
/// schedules them. Every id is answered exactly once, with a batch or a
/// `Busy`, the counters account for every batch, and the drain still
/// absorbs exactly the served units.
#[test]
fn a_full_queue_sheds_and_every_batch_is_answered_once() {
    let machine = MachineConfig::ppc7410();
    let programs: Vec<Program> =
        wts_jit::Suite::specjvm98(0.02).benchmarks().iter().map(|b| b.program().clone()).collect();
    let mut config = stump_config(&machine, corpus(&programs[..2], &machine, &options()), 50);
    config.workers = 1;
    config.queue_depth = 1;
    let handle = Server::bind("127.0.0.1:0", config).expect("bind");

    let batches = 2 * programs.len();
    let mut client = ServeClient::connect(handle.local_addr()).expect("connect");
    for (id, program) in programs.iter().cycle().take(batches).enumerate() {
        client.send(id as u64, program.name(), program.methods()).expect("send");
    }
    let mut answers = vec![0usize; batches];
    let mut shed = 0u64;
    for _ in 0..batches {
        let id = match client.recv().expect("recv") {
            Response::Batch(batch) => batch.batch_id,
            Response::Busy { batch_id, queue_depth } => {
                assert_eq!(queue_depth, 1);
                shed += 1;
                batch_id
            }
            other => panic!("expected a batch or busy, got {other:?}"),
        };
        answers[id as usize] += 1;
    }
    drop(client);
    assert!(answers.iter().all(|&n| n == 1), "every id answered exactly once: {answers:?}");

    let report = handle.shutdown();
    assert_eq!(report.stats.batches_served + report.stats.batches_shed, batches as u64);
    assert_eq!(report.stats.batches_shed, shed);
    assert!(shed > 0, "a single busy worker behind a FIFO of one sheds");
    assert_eq!(report.retrain.records_absorbed, report.stats.units_served, "a lossless drain");
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

/// With Stump retraining on, every fold is an incremental fit over
/// counts the retrainer absorbed batch by batch. The last filter it
/// publishes must still be the sort-based stump over everything it saw:
/// the seed plus the trace of every served batch, collected offline in
/// request order (one worker, so batches arrive in that order) and
/// labelled whole.
#[test]
fn incremental_folds_publish_the_oracle_stump_of_the_served_corpus() {
    let machine = MachineConfig::ppc7410();
    let programs: Vec<Program> =
        wts_jit::Suite::specjvm98(0.02).benchmarks().iter().map(|b| b.program().clone()).collect();
    let opts = options();
    // Seed from two benchmarks and serve them all, so the folds move the
    // filter away from the seed's.
    let seed = corpus(&programs[..2], &machine, &opts);
    let mut config = stump_config(&machine, seed.clone(), 150);
    config.threshold = 5;
    config.workers = 1;
    let handle = Server::bind("127.0.0.1:0", config).expect("bind");
    let (store, key) = (std::sync::Arc::clone(handle.store()), handle.key().clone());

    let mut records = seed;
    let mut client = ServeClient::connect(handle.local_addr()).expect("connect");
    let mut id = 0;
    for program in &programs {
        for methods in program.methods().chunks(5) {
            expect_batch(client.request_with_retry(id, program.name(), methods, 10).expect("request"));
            records.extend(methods.iter().flat_map(|m| collect_method_trace(program.name(), m, &machine, &opts)));
            id += 1;
        }
    }
    drop(client);
    let report = handle.shutdown();
    assert!(report.retrain.retrains >= 3, "the cadence fired several times: {:?}", report.retrain);
    assert_eq!(report.retrain.records_absorbed, report.stats.units_served, "a lossless drain");

    let published = store.get(&key).expect("the served key stays published");
    assert_eq!(published.epoch(), report.retrain.last_epoch, "the last fold is the live filter");
    let (data, _) = build_dataset(&records, LabelConfig::new(5));
    let oracle = stump_oracle::rule_set(&data);
    assert!(!oracle.is_empty(), "the corpus induces a stump");
    assert_eq!(published.source().rules(), &oracle);
    assert_eq!(stump_oracle::threshold_bits(published.source().rules()), stump_oracle::threshold_bits(&oracle));
}

/// The retrainer observes label-only, and every filter it folds must be
/// the one training on the recorded trace of the same units gives. One
/// server per learner, with one worker and a fold after every batch, is
/// fed by one sequential client that sends the next batch only after
/// the last fold is published: epoch k+1 is `train_filter` over the seed
/// plus the collected trace of batches 1..k in request order.
#[test]
fn label_only_and_recorded_observation_publish_the_same_epochs() {
    let machine = MachineConfig::ppc7410();
    let programs: Vec<Program> =
        wts_jit::Suite::specjvm98(0.02).benchmarks().iter().map(|b| b.program().clone()).collect();
    let opts = options();
    let seed = corpus(&programs[..2], &machine, &opts);
    for learner in LearnerKind::portfolio() {
        let mut config = stump_config(&machine, seed.clone(), 1);
        config.learner = learner.clone();
        config.threshold = 5;
        config.workers = 1;
        let train_config = config.train_config();
        let handle = Server::bind("127.0.0.1:0", config).expect("bind");
        let source = || handle.store().get(handle.key()).expect("published").source().clone();
        let mut recorded = seed.clone();
        let first = source();
        assert_eq!(first, train_filter(&recorded, &train_config), "{} epoch 1", learner.name());
        let mut client = ServeClient::connect(handle.local_addr()).expect("connect");
        let mut batches = 0;
        for program in &programs {
            for methods in program.methods().chunks(5) {
                batches += 1;
                expect_batch(client.request_with_retry(batches, program.name(), methods, 10).expect("request"));
                // Every batch folds once; the next is sent only after
                // its fold is published, so no epoch is missed.
                let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
                while handle.epoch() <= batches {
                    assert!(std::time::Instant::now() < deadline, "epoch {} never published", batches + 1);
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
                assert_eq!(handle.epoch(), batches + 1, "one fold per batch");
                recorded.extend(methods.iter().flat_map(|m| collect_method_trace(program.name(), m, &machine, &opts)));
                let epoch = source();
                assert_eq!(epoch, train_filter(&recorded, &train_config), "{} epoch {}", learner.name(), batches + 1);
            }
        }
        drop(client);
        assert!(batches > 3, "several folds: {batches}");
        assert_ne!(first, source(), "{}: the folds moved the filter", learner.name());
        let report = handle.shutdown();
        assert_eq!(report.retrain.records_absorbed, report.stats.units_served, "a lossless drain");
        assert_eq!(report.retrain.last_epoch, batches + 1);
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
