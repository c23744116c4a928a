//! `serve_methods` and `serve_retrain`: a loopback `wts-serve` instance
//! with 2 workers and 2 closed-loop clients, each keeping one batch of
//! one jvm98 method outstanding. `serve_methods` serves with retraining
//! off for the window; `serve_retrain` serves rounds of a fixed batch
//! count, each on a fresh server with Stump retraining on, and counts
//! each round's shutdown drain in its time.

use crate::layers::{self, Attribution};
use crate::span::Tracer;
use crate::stats::{self, Op, Piece};
use crate::{check, inputs, timed_setup, Ctx, EndToEnd, Outcome, Timing};
use std::collections::HashMap;
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Instant;
use wts_core::{Experiment, LearnerKind, TimingMode, TraceRecord};
use wts_ir::{Method, Program, ScopeKind};
use wts_sched::{ListScheduler, SchedScratch, ScheduleOutcome};
use wts_serve::{
    decode_response, encode_batch_request, read_frame, write_frame, BatchResult, Response, ServeClient, ServeConfig,
    Server, ServerHandle,
};

/// jvm98 scale of the served methods (and of the seed corpus).
const SCALE: f64 = 0.3;
/// Closed-loop clients, one connection each.
const CLIENTS: usize = 2;
/// Batches sent by one client at the end of set-up.
const WARM_BATCHES: usize = 512;
/// `serve_retrain`: records between folds.
const RETRAIN_EVERY: usize = 10_000;
/// `serve_retrain`: batches per server (round), fixing the work.
const ROUND_BATCHES: u64 = 4_000;
/// `serve_retrain`: rounds run even when the window is shorter.
const MIN_ROUNDS: usize = 5;

struct Inputs {
    programs: Vec<Program>,
    /// `(program, method)` of every batch, in suite order.
    batches: Vec<(usize, usize)>,
    /// The seed corpus every server trains its epoch-1 filter from.
    seed: Vec<TraceRecord>,
}

impl Inputs {
    fn method(&self, idx: usize) -> (&str, &Method) {
        let (p, m) = self.batches[idx];
        (self.programs[p].name(), &self.programs[p].methods()[m])
    }
}

/// Binds a fresh server over the inputs' seed corpus and sends the
/// warm-up batches.
fn bind(ctx: &Ctx, st: &Inputs, retrain: bool) -> ServerHandle {
    let mut config = ServeConfig::new(ctx.machine.clone(), st.seed.clone());
    config.workers = 2;
    if retrain {
        config.learner = LearnerKind::Stump;
        config.retrain_every = RETRAIN_EVERY;
    } else {
        config.retrain_every = 0;
    }
    let handle = Server::bind("127.0.0.1:0", config).expect("bind a loopback server");
    let mut client = ServeClient::connect(handle.local_addr()).expect("connect to the fresh server");
    for j in 0..WARM_BATCHES {
        let (name, m) = st.method(j % st.batches.len());
        let _ = client.request(j as u64, name, std::slice::from_ref(m));
    }
    handle
}

fn setup(ctx: &Ctx, retrain: bool) -> (Inputs, ServerHandle) {
    let programs = inputs::jvm98(ctx.seed, SCALE);
    let seed: Vec<TraceRecord> = Experiment::new(ctx.machine.clone())
        .with_threads(2)
        .with_timing(TimingMode::Deterministic)
        .run(programs.clone())
        .all_traces()
        .to_vec();
    let batches: Vec<(usize, usize)> =
        programs.iter().enumerate().flat_map(|(p, prog)| (0..prog.methods().len()).map(move |m| (p, m))).collect();
    let st = Inputs { programs, batches, seed };
    let handle = bind(ctx, &st, retrain);
    (st, handle)
}

/// What one client saw.
#[derive(Default)]
struct ClientLog {
    /// Every answered batch, timed from the start of the load.
    ops: Vec<Op>,
    attempted: u64,
    failed: u64,
    units: u64,
    /// First result per `(batch index, epoch)`.
    results: HashMap<(usize, u64), BatchResult>,
}

/// When a client stops: at a deadline, or after a fixed batch count.
#[derive(Clone, Copy)]
enum Stop {
    At(Instant),
    After(u64),
}

fn client_loop(st: &Inputs, addr: SocketAddr, c: usize, start: Instant, stop: Stop) -> ClientLog {
    let mut log = ClientLog::default();
    let Ok(mut client) = ServeClient::connect(addr) else {
        log.attempted = 1;
        log.failed = 1;
        return log;
    };
    let mut last_epoch = 0;
    for j in 0u64.. {
        match stop {
            Stop::At(t) if Instant::now() >= t => break,
            Stop::After(n) if j >= n => break,
            _ => {}
        }
        let idx = (c + CLIENTS * j as usize) % st.batches.len();
        let (name, m) = st.method(idx);
        log.attempted += 1;
        let t = Instant::now();
        let resp = client.request(j, name, std::slice::from_ref(m));
        let dt = t.elapsed().as_secs_f64() * 1e6;
        match resp {
            Ok(Response::Batch(b)) => {
                log.units += b.units.len() as u64;
                log.ops.push((start.elapsed().as_secs_f64(), b.units.len() as u64, dt));
                if b.epoch < last_epoch {
                    eprintln!("perfbench: epoch went back from {last_epoch} to {} on one connection", b.epoch);
                    log.failed += 1;
                }
                last_epoch = b.epoch;
                match log.results.get(&(idx, b.epoch)) {
                    None => {
                        log.results.insert((idx, b.epoch), b);
                    }
                    // `totals.pass_ns` is wall-clock; the units must repeat exactly.
                    Some(prev) => log.failed += u64::from(prev.units != b.units),
                }
            }
            // A shed batch is a refused operation.
            Ok(Response::Busy { .. }) => log.failed += 1,
            Ok(Response::Error { detail }) => {
                eprintln!("perfbench: server error: {detail}");
                log.failed += 1;
                break;
            }
            Err(e) => {
                eprintln!("perfbench: client error: {e}");
                log.failed += 1;
                break;
            }
        }
    }
    log
}

/// Checks one batch result against its method with the dependence
/// oracle; returns whether it passed.
fn check_result(method: &Method, b: &BatchResult) -> bool {
    if b.units.len() != method.blocks().len() {
        eprintln!("perfbench: {}: {} units for {} blocks", method.name(), b.units.len(), method.blocks().len());
        return false;
    }
    for (block, unit) in method.blocks().iter().zip(&b.units) {
        let r = if unit.decision {
            let order: Vec<usize> = unit.order.iter().map(|&i| i as usize).collect();
            check::check_order(block.insts().len(), &order, &check::oracle(block.insts(), false))
        } else if unit.order.is_empty() {
            Ok(())
        } else {
            Err("a skipped unit carries an order".to_string())
        };
        if let Err(e) = r {
            eprintln!("perfbench: {}: {e}", method.name());
            return false;
        }
    }
    true
}

/// Estimated-cycle benefit retained and decision error of the first
/// result of every served method, against scheduling every block.
fn quality(st: &Inputs, ctx: &Ctx, results: &HashMap<(usize, u64), BatchResult>) -> ((f64, usize), (f64, usize)) {
    let mut first: Vec<Option<&BatchResult>> = vec![None; st.batches.len()];
    let mut keys: Vec<&(usize, u64)> = results.keys().collect();
    keys.sort_unstable();
    for k in keys {
        first[k.0].get_or_insert(&results[k]);
    }
    let scheduler = ListScheduler::new(&ctx.machine);
    let mut scratch = SchedScratch::new(&ctx.machine);
    let mut outcome = ScheduleOutcome::default();
    let (mut kept, mut possible, mut wrong, mut units) = (0f64, 0f64, 0usize, 0usize);
    for (idx, b) in first.iter().enumerate() {
        let Some(b) = b else { continue };
        let (_, method) = st.method(idx);
        for (block, unit) in method.blocks().iter().zip(&b.units) {
            scheduler.schedule_block_into(block, &mut scratch, &mut outcome);
            let w = block.exec_count() as f64;
            possible += w * (outcome.cycles_before as f64 - outcome.cycles_after as f64);
            if unit.decision {
                kept += w * (unit.cycles_before as f64 - unit.cycles_after as f64);
            }
            wrong += usize::from(unit.decision != (outcome.cycles_after < outcome.cycles_before));
            units += 1;
        }
    }
    ((kept / possible, units), (100.0 * wrong as f64 / units.max(1) as f64, units))
}

/// What one server's load and drain produced.
#[derive(Default)]
struct Round {
    ops: Vec<Op>,
    attempted: u64,
    failed: u64,
    units: u64,
    results: HashMap<(usize, u64), BatchResult>,
    load_s: f64,
    drain_s: f64,
    notes: String,
}

/// Drives `handle` with the closed-loop clients until `stop`, drains it,
/// and checks everything it answered.
fn round(st: &Inputs, handle: ServerHandle, retrain: bool, stop: impl Fn(Instant) -> Stop) -> Round {
    let addr = handle.local_addr();
    let start = Instant::now();
    let stop = stop(start);
    let logs: Vec<ClientLog> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS).map(|c| s.spawn(move || client_loop(st, addr, c, start, stop))).collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).collect()
    });
    let mut r = Round { load_s: start.elapsed().as_secs_f64(), ..Round::default() };
    let t = Instant::now();
    let report = handle.shutdown();
    r.drain_s = t.elapsed().as_secs_f64();
    for log in logs {
        r.ops.extend(log.ops);
        r.attempted += log.attempted;
        r.failed += log.failed;
        r.units += log.units;
        for (k, b) in log.results {
            match r.results.get(&k) {
                None => {
                    r.results.insert(k, b);
                }
                Some(prev) => r.failed += u64::from(prev.units != b.units),
            }
        }
    }
    for ((idx, _), b) in &r.results {
        r.failed += u64::from(!check_result(st.method(*idx).1, b));
    }
    let warm_units: u64 = (0..WARM_BATCHES).map(|j| st.method(j % st.batches.len()).1.blocks().len() as u64).sum();
    let served = report.stats.units_served;
    if served != r.units + warm_units {
        eprintln!("perfbench: server counted {served} units, clients received {}", r.units + warm_units);
        r.failed += 1;
    }
    if retrain && report.retrain.records_absorbed != served {
        eprintln!("perfbench: retrainer absorbed {} records of {served} units", report.retrain.records_absorbed);
        r.failed += 1;
    }
    let lat: Vec<f64> = r.ops.iter().map(|o| o.2).collect();
    let tail = stats::tail(&lat).map_or(f64::NAN, |t| t.value);
    r.notes = format!(
        "load {:.3} s, drain {:.3} s, p50 {:.1} us, tail {tail:.1} us, folds {}, records absorbed {}, last epoch {}",
        r.load_s,
        r.drain_s,
        stats::median(&lat).unwrap_or(f64::NAN),
        report.retrain.retrains,
        report.retrain.records_absorbed,
        report.retrain.last_epoch
    );
    r
}

fn run(ctx: &Ctx, retrain: bool) -> Outcome {
    let (setup_s, (st, handle)) = timed_setup(
        || setup(ctx, retrain),
        |old| {
            old.1.shutdown();
        },
    );
    let mut rounds = Vec::new();
    if retrain {
        // Fixed work per server: rounds of ROUND_BATCHES on fresh servers
        // (bound outside the timed window) until the window is spent.
        let per_client = ROUND_BATCHES / CLIENTS as u64;
        let start = Instant::now();
        let mut handle = Some(handle);
        while rounds.len() < MIN_ROUNDS || start.elapsed() < ctx.seconds {
            let h = handle.take().unwrap_or_else(|| bind(ctx, &st, true));
            rounds.push(round(&st, h, true, |_| Stop::After(per_client)));
        }
    } else {
        rounds.push(round(&st, handle, false, |start| Stop::At(start + ctx.seconds)));
    }
    let timing = if retrain {
        // A piece is one round, its load and its drain.
        let pieces: Vec<Piece> = rounds
            .iter()
            .map(|r| Piece { secs: r.load_s + r.drain_s, units: r.units, lat_us: r.ops.iter().map(|o| o.2).collect() })
            .collect();
        Timing::calm(&pieces, "rounds")
    } else {
        // A piece is one pass: every method served once.
        Timing::calm(&stats::pieces(&rounds[0].ops, st.batches.len()), "passes")
    };
    let (benefit, error) = quality(&st, ctx, &rounds[0].results);
    let stats = inputs::InputStats::of(&st.programs, ScopeKind::Block);
    let e2e = EndToEnd {
        setup: setup_s,
        units: rounds.iter().map(|r| r.units).sum(),
        timing,
        attempted: rounds.iter().map(|r| r.attempted).sum(),
        failed: rounds.iter().map(|r| r.failed).sum(),
        benefit,
        error_pct: error,
        op: "batch round trip (one method)",
    };
    let name = if retrain { "serve_retrain" } else { "serve_methods" };
    let mut notes = vec![format!("{name} inputs: {stats}")];
    notes.extend(rounds.iter().map(|r| r.notes.clone()));
    Outcome { attempted: e2e.attempted, failed: e2e.failed, metrics: e2e.metrics(), notes }
}

/// The end-to-end `serve_methods` run.
pub fn run_methods(ctx: &Ctx) -> Outcome {
    run(ctx, false)
}

/// The end-to-end `serve_retrain` run.
pub fn run_retrain(ctx: &Ctx) -> Outcome {
    run(ctx, true)
}

fn traced(ctx: &Ctx, retrain: bool) -> Outcome {
    let (st, handle) = setup(ctx, retrain);
    let addr = handle.local_addr();
    let mut tr = Tracer::new();
    let (mut untraced_ns, mut ops, mut failures, mut units) = (0.0, 0u64, 0u64, 0u64);
    let connected = ServeClient::connect(addr).and_then(|c| Ok((c, TcpStream::connect(addr)?)));
    let Ok((mut client, mut stream)) = connected else {
        return Outcome { attempted: 1, failed: 1, ..Outcome::default() };
    };
    let _ = stream.set_nodelay(true);
    // Whole passes over the suite until half the window is spent.
    let budget = Instant::now() + ctx.seconds / 2;
    for (n, idx) in (0..st.batches.len()).cycle().enumerate() {
        if idx == 0 && n > 0 && Instant::now() >= budget {
            break;
        }
        let (name, m) = st.method(idx);
        let one = std::slice::from_ref(m);
        let req = n as u64;
        let t = Instant::now();
        let direct = client.request(req, name, one);
        untraced_ns += t.elapsed().as_nanos() as f64;
        let root = tr.begin("serve.batch", req);
        let request = tr.span("protocol.encode_request", req, || encode_batch_request(req, name, one));
        let frame = tr
            .span("serve.roundtrip", req, || write_frame(&mut stream, &request).and_then(|()| read_frame(&mut stream)));
        let resp = frame.ok().flatten().map(|f| tr.span("protocol.decode_response", req, || decode_response(&f)));
        tr.end(root);
        ops += 1;
        // Under retraining the two requests may meet different epochs.
        let ok = matches!((&resp, &direct), (Some(Ok(Response::Batch(b))), Ok(Response::Batch(d)))
            if (b.epoch != d.epoch || b.units == d.units) && check_result(m, b));
        failures += u64::from(!ok);
        units += m.blocks().len() as u64;
    }
    drop((client, stream));
    let store = Arc::clone(handle.store());
    let key = handle.key().clone();
    handle.shutdown();
    let attribution = Attribution::of(&tr, "serve.batch", untraced_ns);
    let probes = layers::probe_all(&mut tr, &ctx.machine, ScopeKind::Block, &st.programs, &store, &key);
    // Server-side work inside each round trip, estimated from the probes
    // on the same methods; the rest of the round trip is transport.
    let times = tr.self_times();
    let per_method = |n: &str| times.get(n).map_or(0.0, |s| s.ns as f64) / probes.units.methods.max(1) as f64;
    let per_unit = times.get("probe.unitserver").map_or(0.0, |s| s.ns as f64) / probes.units.units.max(1) as f64;
    let server = ops as f64
        * (per_method("probe.decode_request") + per_method("probe.encode_response") + per_method("probe.store_get"))
        + units as f64 * per_unit;
    let roundtrip = attribution.layers.get("serve.roundtrip").copied().unwrap_or(0.0);
    let extra = [("server-side (probe estimate)", server), ("serve.transport (remainder)", roundtrip - server)];
    let name = if retrain { "serve_retrain" } else { "serve_methods" };
    layers::traced_outcome(&tr, &probes, &attribution, &extra, (ops, failures), name, ctx.seed)
}

/// The traced `serve_methods` run.
pub fn traced_methods(ctx: &Ctx) -> Outcome {
    traced(ctx, false)
}

/// The traced `serve_retrain` run.
pub fn traced_retrain(ctx: &Ctx) -> Outcome {
    traced(ctx, true)
}
