//! Per-layer probes for the traced run. Every layer's public function
//! is timed from outside, inside a span, on the workload's own inputs
//! and with warm, reused scratch state (`SchedScratch`,
//! `GraphBuilder::build_into`), never the cold one-shot builders. The
//! same probes run on every workload, so a layer's numbers compare
//! across workloads.

use crate::span::Tracer;
use std::hint::black_box;
use std::io;
use std::net::TcpStream;
use std::sync::Arc;
use wts_core::{
    build_dataset, collect_method_trace, read_trace_binary, train_filter, write_trace_binary, DecisionPolicy,
    Experiment, FilterKey, FilterStore, FilteredPass, LabelConfig, LearnedFilter, Learner, LearnerKind, TimingMode,
    TraceOptions, TraceRecord, TrainConfig, UnitEconomics, UnitServer,
};
use wts_deps::{DepGraph, GraphBuilder};
use wts_features::{FeatureVector, TraceShape};
use wts_ir::{form_superblocks, BasicBlock, Inst, Method, Program, ScopeKind, Superblock};
use wts_machine::{MachineConfig, PipelineSim};
use wts_sched::{ListScheduler, SchedScratch, ScheduleOutcome, SchedulePolicy};
use wts_serve::{
    decode_batch_request, decode_response, encode_batch_request, encode_response, read_frame, write_frame, BatchResult,
    Response, ServeConfig, Server,
};

/// Superblock formation ratio used throughout (the paper's §3.1 setting).
pub const SB_RATIO: u32 = 70;

/// One scope unit, owned so the probes can rearrange it freely.
pub struct OwnedUnit {
    /// The unit's instructions in their original order.
    pub insts: Vec<Inst>,
    /// Its trace shape.
    pub shape: TraceShape,
    /// Profile weight.
    pub exec: u64,
    /// The block, at block scope.
    pub block: Option<BasicBlock>,
    /// The formed trace, at superblock scope.
    pub sb: Option<Superblock>,
}

impl OwnedUnit {
    /// True for multi-block traces, which take the speculative scheduler.
    pub fn speculative(&self) -> bool {
        self.shape.width > 1
    }
}

/// `method`'s scope units at `scope`.
pub fn units_of(method: &Method, scope: ScopeKind) -> Vec<OwnedUnit> {
    match scope {
        ScopeKind::Block => method
            .blocks()
            .iter()
            .map(|b| OwnedUnit {
                insts: b.insts().to_vec(),
                shape: TraceShape::block(),
                exec: b.exec_count(),
                block: Some(b.clone()),
                sb: None,
            })
            .collect(),
        ScopeKind::Superblock(r) => form_superblocks(method, r)
            .into_iter()
            .map(|sb| OwnedUnit {
                insts: sb.insts.clone(),
                shape: TraceShape::of_trace(&sb.insts, u32::try_from(sb.width()).expect("trace widths fit u32")),
                exec: sb.exec_count,
                block: None,
                sb: Some(sb),
            })
            .collect(),
    }
}

/// Counts gathered by [`probe_methods`].
#[derive(Debug, Clone, Copy, Default)]
pub struct UnitCounts {
    /// Methods probed.
    pub methods: u64,
    /// Scope units probed.
    pub units: u64,
    /// Filter conditions evaluated.
    pub conditions: u64,
    /// Dependence edges built.
    pub edges: u64,
    /// Units the filter and policy sent to the scheduler.
    pub scheduled: u64,
    /// Scheduled units whose estimated cycles dropped.
    pub useful: u64,
    /// Encoded request bytes.
    pub request_bytes: u64,
    /// Encoded response bytes.
    pub response_bytes: u64,
    /// Codec round trips that failed to reproduce their input.
    pub failures: u64,
}

/// Runs every per-unit layer over the first `max_methods` methods of
/// each program, one `probe` root span per method.
pub fn probe_methods(
    tr: &mut Tracer,
    machine: &MachineConfig,
    scope: ScopeKind,
    store: &FilterStore,
    key: &FilterKey,
    programs: &[Program],
    max_methods: usize,
) -> UnitCounts {
    let policy = DecisionPolicy::HardThreshold;
    let scheduler = ListScheduler::with_policy(machine, SchedulePolicy::CriticalPath);
    let mut scratch = SchedScratch::new(machine);
    let mut outcome = ScheduleOutcome::default();
    let mut builder = GraphBuilder::new();
    let mut graph = DepGraph::empty();
    let sim = PipelineSim::new(machine);
    let mut unit_server = UnitServer::new(machine, SchedulePolicy::CriticalPath);
    let mut permuted = Vec::new();
    let mut buf = Vec::new();
    let mut c = UnitCounts::default();
    for program in programs {
        for method in program.methods().iter().take(max_methods) {
            let req = c.methods;
            let mut units = units_of(method, scope);
            let root = tr.begin("probe", req);
            let snap = tr.span("probe.store_get", req, || store.get(key)).expect("the probed key is deployed");
            let compiled = snap.compiled();
            tr.span("probe.session", req, || black_box((method.clone(), SchedScratch::new(machine))));
            tr.span("probe.superblock", req, || black_box(form_superblocks(method, SB_RATIO)));
            let mut served = Vec::with_capacity(units.len());
            let mut totals = FilteredPass::default();
            for u in &mut units {
                let n = u.insts.len() as u64;
                let spec = u.speculative();
                let fv = tr.span("probe.features", req, || {
                    FeatureVector::from_insts_shaped(&u.insts, u.shape, compiled.demand())
                });
                let (score, conditions) = tr.span("probe.engine", req, || compiled.score_counted(fv.as_slice()));
                let econ = UnitEconomics {
                    insts: n,
                    exec_count: u.exec,
                    filter_work: conditions,
                    extraction_work: compiled.extraction_work(n),
                };
                let decision = tr.span("probe.policy", req, || policy.decide(score, &econ));
                tr.span("probe.deps", req, || builder.build_into(&u.insts, spec, &mut graph));
                tr.span("probe.sched", req, || {
                    if spec {
                        scheduler.schedule_superblock_into(&u.insts, &mut scratch, &mut outcome);
                    } else {
                        scheduler.schedule_insts_into(&u.insts, &mut scratch, &mut outcome);
                    }
                });
                c.units += 1;
                c.conditions += conditions;
                c.edges += graph.edge_count() as u64;
                if decision {
                    c.scheduled += 1;
                    c.useful += u64::from(outcome.cycles_after < outcome.cycles_before);
                }
                let after: &[Inst] = match &mut u.block {
                    Some(b) => {
                        tr.span("probe.apply", req, || outcome.apply_in_place(b, &mut buf));
                        b.insts()
                    }
                    None => {
                        tr.span("probe.apply", req, || outcome.permute_into(&u.insts, &mut permuted));
                        &permuted
                    }
                };
                tr.span("probe.sim", req, || black_box(sim.sequence_cycles(&u.insts) + sim.sequence_cycles(after)));
                let unit = tr.span("probe.unitserver", req, || match &u.sb {
                    Some(sb) => unit_server.serve_superblock(sb, compiled, &policy, &mut totals),
                    None => unit_server.serve_block(&u.insts, u.exec, compiled, &policy, &mut totals),
                });
                served.push(unit);
            }
            let one = std::slice::from_ref(method);
            let request = tr.span("probe.encode_request", req, || encode_batch_request(req, program.name(), one));
            let decoded = tr.span("probe.decode_request", req, || decode_batch_request(&request));
            c.failures += u64::from(!decoded.is_ok_and(|d| d.methods.as_slice() == one));
            let resp = Response::Batch(BatchResult { batch_id: req, epoch: snap.epoch(), totals, units: served });
            let bytes = tr.span("probe.encode_response", req, || encode_response(&resp));
            let back = tr.span("probe.decode_response", req, || decode_response(&bytes));
            c.failures += u64::from(back.ok().as_ref() != Some(&resp));
            c.request_bytes += request.len() as u64;
            c.response_bytes += bytes.len() as u64;
            tr.end(root);
            c.methods += 1;
        }
    }
    c
}

/// The first `max_methods` methods of each program, as programs.
pub fn truncated(programs: &[Program], max_methods: usize) -> Vec<Program> {
    programs
        .iter()
        .map(|p| {
            let mut out = Program::new(p.name());
            for m in p.methods().iter().take(max_methods) {
                out.push_method(m.clone());
            }
            out
        })
        .collect()
}

/// What [`probe_corpus`] measured beyond its spans.
#[derive(Debug, Clone, Default)]
pub struct CorpusCounts {
    /// Records traced.
    pub records: u64,
    /// Bytes of their binary encoding.
    pub bytes: u64,
    /// Per-fold RIPPER fit time (ms) and rule count, in fold order.
    pub folds: Vec<(f64, usize)>,
    /// Records re-collected by the retrainer's collector.
    pub collected: u64,
    /// Store swaps timed.
    pub swaps: u64,
    /// Round trips that failed to reproduce their input.
    pub failures: u64,
}

/// Number of `FilterStore::swap` calls timed per probe.
const SWAPS: u64 = 64;

/// Busiest worker's summed fold time over the mean, with `folds`
/// chunked contiguously onto `threads` workers as `shard_map` does.
pub fn fold_imbalance(fold_ms: &[f64], threads: usize) -> f64 {
    if fold_ms.is_empty() {
        return 1.0;
    }
    let chunk = fold_ms.len().div_ceil(threads.max(1));
    let loads: Vec<f64> = fold_ms.chunks(chunk).map(|c| c.iter().sum()).collect();
    let mean = loads.iter().sum::<f64>() / threads.max(1) as f64;
    let max = loads.iter().copied().fold(0.0, f64::max);
    if mean > 0.0 {
        max / mean
    } else {
        1.0
    }
}

/// Times the corpus layers on `programs`: tracing, the binary codec,
/// labeling, per-fold RIPPER fits, the retrainer's collector and fold,
/// and store swaps. Returns the counts and the traced records.
pub fn probe_corpus(
    tr: &mut Tracer,
    machine: &MachineConfig,
    scope: ScopeKind,
    programs: &[Program],
) -> (CorpusCounts, Vec<TraceRecord>) {
    let mut c = CorpusCounts::default();
    let exp = Experiment::new(machine.clone()).with_scope(scope).with_threads(1);
    let mut records: Vec<TraceRecord> = Vec::new();
    for (i, p) in programs.iter().enumerate() {
        records.extend(tr.span("probe.trace", i as u64, || exp.trace(p)));
    }
    c.records = records.len() as u64;
    let bytes = tr.span("probe.io_write", 0, || write_trace_binary(&records)).expect("generated records are finite");
    c.bytes = bytes.len() as u64;
    let back = tr.span("probe.io_read", 0, || read_trace_binary(&bytes));
    c.failures += u64::from(back.ok().as_ref() != Some(&records));
    let (data, _) = tr.span("probe.label", 0, || build_dataset(&records, LabelConfig::new(0)));
    for (i, fold) in wts_ripper::leave_one_group_out(&data).iter().enumerate() {
        let id = tr.begin("probe.ripper_fold", i as u64);
        let rules = LearnerKind::default().fit(&fold.train);
        tr.end(id);
        let span = &tr.spans()[id];
        c.folds.push(((span.end - span.start) as f64 / 1e6, rules.len()));
    }
    let options = TraceOptions { scope, timing: TimingMode::Deterministic, ..TraceOptions::default() };
    for (i, p) in programs.iter().enumerate() {
        for m in p.methods() {
            c.collected += tr
                .span("probe.collect", i as u64, || collect_method_trace(p.name(), m, machine, &options))
                .len() as u64;
        }
    }
    let config = TrainConfig::with_learner(0, LearnerKind::Stump).with_scope(scope);
    let filter = tr.span("probe.fold", 0, || train_filter(&records, &config));
    let store = FilterStore::new();
    let key = FilterKey::new(machine.name(), &LearnerKind::Stump, scope, 0);
    for i in 0..SWAPS {
        let (key, filter) = (key.clone(), filter.clone());
        tr.span("probe.swap", i, || black_box(store.swap(key, filter)));
    }
    c.swaps = SWAPS;
    (c, records)
}

/// What [`probe_serve`] observed.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServeCounts {
    /// Batches sent.
    pub batches: u64,
    /// Batches answered (not shed).
    pub admitted: u64,
    /// Distinct filter epochs the client saw.
    pub epochs_seen: u64,
    /// Retrain folds the server completed, the drain fold included.
    pub folds: u64,
    /// Records the retrainer absorbed.
    pub records_absorbed: u64,
    /// Units the server served.
    pub units_served: u64,
    /// Protocol or accounting failures.
    pub failures: u64,
}

/// Serves `programs` one method per batch through a fresh loopback
/// server that starts from `filter` and retrains (Stump) every
/// `retrain_every` records, timing each round trip in a
/// `probe.roundtrip` span.
///
/// # Errors
///
/// Bind, connect and socket errors.
pub fn probe_serve(
    tr: &mut Tracer,
    machine: &MachineConfig,
    scope: ScopeKind,
    programs: &[Program],
    seed: Vec<TraceRecord>,
    filter: LearnedFilter,
    retrain_every: usize,
) -> io::Result<ServeCounts> {
    let mut config = ServeConfig::new(machine.clone(), seed);
    config.learner = LearnerKind::Stump;
    config.options.scope = scope;
    config.retrain_every = retrain_every;
    let store = FilterStore::shared();
    store.swap(config.filter_key(), filter);
    let handle = Server::bind_with_store("127.0.0.1:0", config, Arc::clone(&store))?;
    let mut stream = TcpStream::connect(handle.local_addr())?;
    stream.set_nodelay(true)?;
    let mut c = ServeCounts::default();
    let mut epochs = std::collections::BTreeSet::new();
    for p in programs {
        for m in p.methods() {
            let id = c.batches;
            let request = encode_batch_request(id, p.name(), std::slice::from_ref(m));
            let frame = tr.span("probe.roundtrip", id, || -> io::Result<Option<Vec<u8>>> {
                write_frame(&mut stream, &request)?;
                read_frame(&mut stream)
            })?;
            c.batches += 1;
            match frame.as_deref().map(decode_response) {
                Some(Ok(Response::Batch(b))) if b.batch_id == id => {
                    c.admitted += 1;
                    epochs.insert(b.epoch);
                }
                Some(Ok(Response::Busy { .. })) => {}
                _ => c.failures += 1,
            }
        }
    }
    drop(stream);
    let report = handle.shutdown();
    c.epochs_seen = epochs.len() as u64;
    c.folds = report.retrain.retrains;
    c.records_absorbed = report.retrain.records_absorbed;
    c.units_served = report.stats.units_served;
    c.failures += u64::from(c.records_absorbed != c.units_served);
    Ok(c)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fold_imbalance_follows_contiguous_chunking() {
        // 7 folds on 2 threads: chunks of 4 and 3.
        let even = [1.0; 7];
        assert!((fold_imbalance(&even, 2) - 4.0 / 3.5).abs() < 1e-12);
        assert_eq!(fold_imbalance(&[2.0, 2.0], 2), 1.0);
        assert_eq!(fold_imbalance(&[], 2), 1.0);
        assert!((fold_imbalance(&[3.0, 1.0], 2) - 1.5).abs() < 1e-12);
    }
}
