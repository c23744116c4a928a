//! The serving loop: acceptor, per-connection readers, scheduling
//! workers and the retraining thread, all plain `std::thread` over
//! blocking sockets.
//!
//! ```text
//!                 ┌──────────┐   bounded sync_channel    ┌─────────┐
//! client ──TCP──▶ │  reader   │ ──── try_send(Job) ────▶ │ worker  │──▶ response
//!                 │ (1/conn)  │        │ full?           │ (×N)    │     frame
//!                 └──────────┘        ▼                  └────┬────┘
//!                               Busy frame (shed)             │ served methods
//!                                                             ▼
//!                                                       ┌───────────┐
//!                                                       │ retrainer │─▶ FilterStore::swap
//!                                                       └───────────┘     (epoch++)
//! ```
//!
//! Each worker owns a [`UnitServer`] — per-thread scheduler scratch
//! reused across every unit it serves — and loads **one**
//! [`FilterSnapshot`](wts_core::FilterSnapshot) per batch, so a batch is
//! never split across a hot swap and its response carries the exact
//! epoch that decided it. Backpressure is explicit: the job queue is a
//! bounded [`sync_channel`], and a reader that finds it full sheds the
//! batch with a [`Response::Busy`] frame instead of stalling the socket.
//!
//! Shutdown is a drain, not a kill: stop accepting, half-close every
//! connection's read side (in-flight responses still flow), join the
//! readers, close the job queue so the workers finish every batch that
//! was accepted, then close the retrain queue so the retrainer absorbs
//! every served method and folds once more if observations are pending.
//! The [`ServeReport`] accounts for every unit: served units either
//! became retrainer observations or the batch was shed — nothing is
//! lost or counted twice.

use crate::protocol::{self, BatchResult, Response};
use crate::retrain::{retrain_loop, RetrainReport};
use std::collections::HashMap;
use std::io::{self, BufReader};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;
use wts_core::{
    for_each_scope_unit, DecisionPolicy, FilterKey, FilterStore, FilteredPass, LearnerKind, TimingMode, TraceOptions,
    TraceRecord, TrainConfig, Trainer, UnitServer,
};
use wts_ir::Method;

/// Full configuration of one serving instance.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// The machine model every unit is scheduled for.
    pub machine: wts_machine::MachineConfig,
    /// Scheduler policy, scope and timing mode, shared by the serving
    /// fast path and the retrainer's trace collection (`threads` is
    /// ignored — parallelism comes from `workers`).
    pub options: TraceOptions,
    /// The schedule/skip decision layer.
    pub decision: DecisionPolicy,
    /// Induction backend the retrainer re-runs on every fold.
    pub learner: LearnerKind,
    /// Labeling threshold (percent) for retraining.
    pub threshold: u32,
    /// Scheduling worker threads.
    pub workers: usize,
    /// Bound of the job queue; a full queue sheds with
    /// [`Response::Busy`].
    pub queue_depth: usize,
    /// Retrain cadence: fold and hot-swap after this many newly observed
    /// units. Observations are label-only — features and estimated
    /// cycles, no trace record — unless `persist_corpus` is set. 0
    /// disables retraining entirely — served batches are not observed
    /// and the filter only changes via explicit [`FilterStore::swap`].
    pub retrain_every: usize,
    /// The initial training corpus; the filter served at epoch 1 is
    /// trained from these before the listener opens.
    pub seed_traces: Vec<TraceRecord>,
    /// When set, the retrainer observes served units as full
    /// instrumented trace records (measured `hw_*` channels included)
    /// and writes its corpus (seed traces plus every observed record) to
    /// this path in the `schedfilter-trace-bin-v1` format as the last act
    /// of a graceful shutdown, so a restarted instance can seed from
    /// exactly what this one learned. `None` (the default) persists
    /// nothing, and the retrainer observes label-only.
    pub persist_corpus: Option<std::path::PathBuf>,
}

impl ServeConfig {
    /// A config serving `machine` with the deployed-pass defaults:
    /// deterministic timing, block scope, hard-threshold decisions, the
    /// default learner at threshold 0, two workers, a queue bound of 64
    /// and a retrain fold every 256 records.
    pub fn new(machine: wts_machine::MachineConfig, seed_traces: Vec<TraceRecord>) -> ServeConfig {
        ServeConfig {
            machine,
            options: TraceOptions { timing: TimingMode::Deterministic, ..TraceOptions::default() },
            decision: DecisionPolicy::default(),
            learner: LearnerKind::default(),
            threshold: 0,
            workers: 2,
            queue_depth: 64,
            retrain_every: 256,
            seed_traces,
            persist_corpus: None,
        }
    }

    /// The store key this instance serves and retrains under.
    pub fn filter_key(&self) -> FilterKey {
        FilterKey::new(self.machine.name(), &self.learner, self.options.scope, self.threshold)
    }

    /// The training configuration the retrainer folds with.
    pub fn train_config(&self) -> TrainConfig {
        TrainConfig::with_learner(self.threshold, self.learner.clone()).with_scope(self.options.scope)
    }
}

/// Live counters, updated by every thread of the instance.
#[derive(Debug, Default)]
struct Counters {
    connections: AtomicU64,
    batches_served: AtomicU64,
    batches_shed: AtomicU64,
    units_served: AtomicU64,
    units_scheduled: AtomicU64,
    protocol_errors: AtomicU64,
}

/// A point-in-time copy of the server's counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServeStats {
    /// Connections accepted.
    pub connections: u64,
    /// Batches scheduled and answered.
    pub batches_served: u64,
    /// Batches rejected with [`Response::Busy`] because the job queue
    /// was full.
    pub batches_shed: u64,
    /// Scope units (blocks or superblock traces) served across all
    /// batches.
    pub units_served: u64,
    /// Served units the filter sent to the scheduler.
    pub units_scheduled: u64,
    /// Connections dropped after an undecodable frame.
    pub protocol_errors: u64,
}

impl Counters {
    fn snapshot(&self) -> ServeStats {
        ServeStats {
            connections: self.connections.load(Ordering::Relaxed),
            batches_served: self.batches_served.load(Ordering::Relaxed),
            batches_shed: self.batches_shed.load(Ordering::Relaxed),
            units_served: self.units_served.load(Ordering::Relaxed),
            units_scheduled: self.units_scheduled.load(Ordering::Relaxed),
            protocol_errors: self.protocol_errors.load(Ordering::Relaxed),
        }
    }
}

/// What a drained instance reports from [`ServerHandle::shutdown`].
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Final serving counters.
    pub stats: ServeStats,
    /// What the retrainer absorbed and swapped.
    pub retrain: RetrainReport,
}

/// One unit of queued work: a decoded batch plus the connection to
/// answer on.
struct Job {
    batch_id: u64,
    benchmark: String,
    methods: Vec<Method>,
    conn: Arc<Mutex<TcpStream>>,
}

/// The serving instance. [`Server::bind`] trains the initial filter,
/// publishes it at epoch 1 and starts the thread fleet; the returned
/// [`ServerHandle`] owns the instance.
pub struct Server;

impl Server {
    /// Binds `addr`, publishes the seed filter and starts serving.
    ///
    /// # Errors
    ///
    /// I/O errors from the bind, and [`io::ErrorKind::InvalidInput`]
    /// when the seed corpus is empty or `workers`/`queue_depth` is 0.
    pub fn bind(addr: impl ToSocketAddrs, config: ServeConfig) -> io::Result<ServerHandle> {
        Server::bind_with_store(addr, config, FilterStore::shared())
    }

    /// [`Server::bind`] over a caller-owned store, so a serving instance
    /// can share filters with an
    /// [`Experiment`](wts_core::Experiment) run or a
    /// [`CompileSession`](../../wts_jit/struct.CompileSession.html).
    pub fn bind_with_store(
        addr: impl ToSocketAddrs,
        mut config: ServeConfig,
        store: Arc<FilterStore>,
    ) -> io::Result<ServerHandle> {
        if config.seed_traces.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "the seed corpus is empty: nothing to train the epoch-1 filter from",
            ));
        }
        if config.workers == 0 || config.queue_depth == 0 {
            return Err(io::Error::new(io::ErrorKind::InvalidInput, "workers and queue_depth must both be at least 1"));
        }
        let key = config.filter_key();
        let mut trainer = Trainer::new(&config.train_config());
        trainer.absorb(&config.seed_traces);
        store.deployed_or_train(key.clone(), || trainer.fit());
        // From here on the retrainer folds from `trainer` and reads the
        // seed records only to persist them: they move there, and the
        // workers clone a config without them.
        let seed_traces = std::mem::take(&mut config.seed_traces);

        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;

        let shutdown = Arc::new(AtomicBool::new(false));
        let counters = Arc::new(Counters::default());
        let conns: Arc<ConnRegistry> = Arc::default();
        let readers: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let (job_tx, job_rx) = mpsc::sync_channel::<Job>(config.queue_depth);
        let (retrain_tx, retrain_rx) = mpsc::sync_channel::<(String, Vec<Method>)>(config.queue_depth);
        let job_rx = Arc::new(Mutex::new(job_rx));

        let mut workers = Vec::with_capacity(config.workers);
        for _ in 0..config.workers {
            let rx = Arc::clone(&job_rx);
            let store = Arc::clone(&store);
            let counters = Arc::clone(&counters);
            let retrain_tx = retrain_tx.clone();
            let config = config.clone();
            let key = key.clone();
            workers.push(std::thread::spawn(move || worker_loop(&rx, &store, &key, &config, &counters, &retrain_tx)));
        }
        drop(retrain_tx);

        let retrainer = {
            let store = Arc::clone(&store);
            let config = ServeConfig { seed_traces, ..config.clone() };
            let key = key.clone();
            std::thread::spawn(move || retrain_loop(&retrain_rx, &store, &key, config, trainer))
        };

        let acceptor = {
            let shutdown = Arc::clone(&shutdown);
            let counters = Arc::clone(&counters);
            let conns = Arc::clone(&conns);
            let readers = Arc::clone(&readers);
            let job_tx = job_tx.clone();
            let queue_depth = config.queue_depth;
            std::thread::spawn(move || {
                accept_loop(&listener, &shutdown, &counters, &conns, &readers, &job_tx, queue_depth);
            })
        };

        Ok(ServerHandle {
            local_addr,
            store,
            key,
            shutdown,
            counters,
            conns,
            readers,
            job_tx: Some(job_tx),
            acceptor: Some(acceptor),
            workers,
            retrainer: Some(retrainer),
        })
    }
}

/// The running instance: address, shared store and the drain switch.
#[derive(Debug)]
pub struct ServerHandle {
    local_addr: SocketAddr,
    store: Arc<FilterStore>,
    key: FilterKey,
    shutdown: Arc<AtomicBool>,
    counters: Arc<Counters>,
    conns: Arc<ConnRegistry>,
    readers: Arc<Mutex<Vec<JoinHandle<()>>>>,
    job_tx: Option<SyncSender<Job>>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    retrainer: Option<JoinHandle<RetrainReport>>,
}

impl ServerHandle {
    /// The bound address (use with port 0 to discover the OS pick).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The store this instance serves from; swap through it to hot-swap
    /// the live filter.
    pub fn store(&self) -> &Arc<FilterStore> {
        &self.store
    }

    /// The key the instance serves and retrains under.
    pub fn key(&self) -> &FilterKey {
        &self.key
    }

    /// The currently served filter epoch.
    pub fn epoch(&self) -> u64 {
        self.store.epoch(&self.key).unwrap_or(0)
    }

    /// A point-in-time copy of the serving counters.
    pub fn stats(&self) -> ServeStats {
        self.counters.snapshot()
    }

    /// Drains and stops the instance: no new connections, every
    /// accepted batch answered, every served method absorbed by the
    /// retrainer (with a final fold when observations are pending), all
    /// threads joined.
    pub fn shutdown(mut self) -> ServeReport {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(acceptor) = self.acceptor.take() {
            acceptor.join().expect("acceptor thread panicked");
        }
        // Half-close the read side of every connection: readers see EOF
        // after the frame they are currently decoding, while responses
        // to already-queued batches still go out on the write side.
        for conn in self.conns.lock().expect("connection registry poisoned").values() {
            let _ = conn.shutdown(Shutdown::Read);
        }
        let readers = std::mem::take(&mut *self.readers.lock().expect("reader registry poisoned"));
        for reader in readers {
            reader.join().expect("reader thread panicked");
        }
        // Closing the job queue lets the workers drain what was accepted
        // and then exit; their retrain senders drop with them, which in
        // turn lets the retrainer drain, fold once more and report.
        self.job_tx = None;
        for worker in self.workers.drain(..) {
            worker.join().expect("worker thread panicked");
        }
        let retrain = self.retrainer.take().expect("shutdown runs once").join().expect("retrainer thread panicked");
        ServeReport { stats: self.counters.snapshot(), retrain }
    }
}

/// The open connections' shutdown handles, keyed by connection id. A
/// reader removes its own entry when its peer goes away, so a closed
/// connection's socket is released at once rather than at shutdown.
type ConnRegistry = Mutex<HashMap<u64, TcpStream>>;

fn accept_loop(
    listener: &TcpListener,
    shutdown: &AtomicBool,
    counters: &Arc<Counters>,
    conns: &Arc<ConnRegistry>,
    readers: &Mutex<Vec<JoinHandle<()>>>,
    job_tx: &SyncSender<Job>,
    queue_depth: usize,
) {
    while !shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                let id = counters.connections.fetch_add(1, Ordering::Relaxed);
                // A connection whose setup fails (the peer already reset
                // it, or the descriptor table is full) is dropped alone.
                let Ok((registered, writer)) = connection_handles(&stream) else { continue };
                conns.lock().expect("connection registry poisoned").insert(id, registered);
                let writer = Arc::new(Mutex::new(writer));
                let job_tx = job_tx.clone();
                let counters = Arc::clone(counters);
                let conns = Arc::clone(conns);
                let handle = std::thread::spawn(move || {
                    reader_loop(stream, &writer, &job_tx, queue_depth, &counters);
                    conns.lock().expect("connection registry poisoned").remove(&id);
                });
                let mut readers = readers.lock().expect("reader registry poisoned");
                // Join the readers whose connections already closed, so the
                // registry holds only live ones however many clients come
                // and go.
                let (done, live): (Vec<_>, Vec<_>) =
                    std::mem::take(&mut *readers).into_iter().partition(JoinHandle::is_finished);
                done.into_iter().for_each(|reader| reader.join().expect("reader thread panicked"));
                *readers = live;
                readers.push(handle);
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            // Nothing pending (`WouldBlock`), or a failure confined to one
            // connection or to a moment (`ECONNABORTED`, `EMFILE`): back
            // off and keep accepting. Only shutdown ends the loop.
            Err(_) => std::thread::sleep(Duration::from_millis(2)),
        }
    }
}

/// Puts an accepted connection in blocking mode and clones it twice: one
/// handle for the shutdown registry, one for the response writer.
fn connection_handles(stream: &TcpStream) -> io::Result<(TcpStream, TcpStream)> {
    stream.set_nonblocking(false)?;
    // A response is one small write; without nodelay, Nagle can hold it
    // for the peer's delayed ACK and a round trip eats ~40ms.
    let _ = stream.set_nodelay(true);
    Ok((stream.try_clone()?, stream.try_clone()?))
}

fn respond(conn: &Mutex<TcpStream>, resp: &Response) {
    // A client that hung up mid-batch is not the server's problem; the
    // write error is deliberately dropped.
    let payload = protocol::encode_response(resp);
    let mut stream = conn.lock().expect("connection writer poisoned");
    let _ = protocol::write_frame(&mut *stream, &payload);
}

fn reader_loop(
    stream: TcpStream,
    writer: &Arc<Mutex<TcpStream>>,
    job_tx: &SyncSender<Job>,
    queue_depth: usize,
    counters: &Counters,
) {
    // Buffered, so a frame that arrived in one segment is taken in with
    // one read rather than one for the prefix and one for the payload.
    let mut stream = BufReader::new(stream);
    // One frame buffer for the connection's lifetime.
    let mut payload = Vec::new();
    loop {
        if !matches!(protocol::read_frame_into(&mut stream, &mut payload), Ok(true)) {
            return;
        }
        let request = match protocol::decode_batch_request(&payload) {
            Ok(request) => request,
            Err(e) => {
                counters.protocol_errors.fetch_add(1, Ordering::Relaxed);
                respond(writer, &Response::Error { detail: e.to_string() });
                return;
            }
        };
        let job = Job {
            batch_id: request.batch_id,
            benchmark: request.benchmark,
            methods: request.methods,
            conn: Arc::clone(writer),
        };
        if let Err(TrySendError::Full(job)) = job_tx.try_send(job) {
            counters.batches_shed.fetch_add(1, Ordering::Relaxed);
            let depth = u32::try_from(queue_depth).unwrap_or(u32::MAX);
            respond(&job.conn, &Response::Busy { batch_id: job.batch_id, queue_depth: depth });
        }
    }
}

fn worker_loop(
    job_rx: &Mutex<Receiver<Job>>,
    store: &FilterStore,
    key: &FilterKey,
    config: &ServeConfig,
    counters: &Counters,
    retrain_tx: &SyncSender<(String, Vec<Method>)>,
) {
    let machine = config.machine.clone();
    let mut unit_server = UnitServer::new(&machine, config.options.policy);
    loop {
        // Holding the lock across the blocking recv is fine: an idle
        // worker parks here, and a woken one releases the lock the
        // moment it owns a job.
        let job = match job_rx.lock().expect("job queue poisoned").recv() {
            Ok(job) => job,
            Err(_) => return,
        };
        // One snapshot for the whole batch: every unit below is decided
        // by this epoch, no matter how many swaps land meanwhile.
        let snapshot = store.get(key).expect("the served key is published at bind time");
        let mut totals = FilteredPass::default();
        let mut units = Vec::new();
        for method in &job.methods {
            for_each_scope_unit(method, config.options.scope, |unit| {
                units.push(unit_server.serve(&unit, snapshot.compiled(), &config.decision, &mut totals));
            });
        }
        counters.batches_served.fetch_add(1, Ordering::Relaxed);
        counters.units_served.fetch_add(totals.total_blocks as u64, Ordering::Relaxed);
        counters.units_scheduled.fetch_add(totals.scheduled_blocks as u64, Ordering::Relaxed);
        respond(
            &job.conn,
            &Response::Batch(BatchResult { batch_id: job.batch_id, epoch: snapshot.epoch(), totals, units }),
        );
        // Blocking send: when the retrainer falls behind, serving slows
        // down instead of dropping observations. With retraining
        // disabled there is nothing to observe for, so the batch is not
        // forwarded at all. The disconnect case (teardown) cannot
        // happen before shutdown joins the workers, but is harmless to
        // ignore.
        if config.retrain_every > 0 {
            let _ = retrain_tx.send((job.benchmark, job.methods));
        }
    }
}
