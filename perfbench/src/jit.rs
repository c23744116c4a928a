//! `jit_compile`: the FP suite compiled one method at a time by one
//! thread through `CompileSession::compile_stored`, under the RIPPER
//! factory filter trained on the jvm98 corpus and deployed in a
//! `FilterStore`, with hard-threshold decisions at block scope.

use crate::layers::{self, Attribution};
use crate::span::Tracer;
use crate::{check, inputs, stats, timed_setup, Ctx, EndToEnd, Outcome, Timing};
use std::sync::Arc;
use std::time::Instant;
use wts_core::{DecisionPolicy, Experiment, FilterKey, FilterStore, UnitEconomics};
use wts_features::FeatureVector;
use wts_ir::{Program, ScopeKind};
use wts_jit::{app_cycles, CompileSession};
use wts_machine::MachineConfig;
use wts_sched::{ListScheduler, SchedScratch, ScheduleOutcome};

/// FP-suite scale of each set of compiled programs.
const FP_SCALE: f64 = 0.12;
/// jvm98 scale of each factory filter's training corpus.
const JVM_SCALE: f64 = 0.12;
/// Independently seeded (FP suite, factory filter) pairs per run. Calls
/// interleave the pairs, so one run averages over several filters and
/// inputs of the same shape.
const PAIRS: usize = 6;
/// Methods compiled per pair as warm-up at the end of set-up.
const WARM_METHODS: usize = 64;

/// One FP suite and the factory filter it compiles under.
struct Pair<'m> {
    programs: Vec<Program>,
    /// One single-method program per FP method, in suite order.
    methods: Vec<Program>,
    store: Arc<FilterStore>,
    key: FilterKey,
    session: CompileSession<'m>,
}

fn pair(ctx: &Ctx, i: usize) -> Pair<'_> {
    let seed = inputs::sub_seed(ctx.seed, i);
    let programs = inputs::fp(seed, FP_SCALE);
    let corpus = inputs::jvm98(seed, JVM_SCALE);
    let run = Experiment::new(ctx.machine.clone()).with_threads(2).run(corpus);
    run.factory_filter(0);
    let key = run.filter_key(0, run.learner());
    let store = Arc::clone(run.store());
    let methods: Vec<Program> = programs
        .iter()
        .flat_map(|p| {
            p.methods().iter().map(|m| {
                let mut one = Program::new(p.name());
                one.push_method(m.clone());
                one
            })
        })
        .collect();
    let session = CompileSession::new(&ctx.machine).with_store(Arc::clone(&store));
    for m in methods.iter().take(WARM_METHODS) {
        std::hint::black_box(session.compile_stored(m, &key, 1));
    }
    Pair { programs, methods, store, key, session }
}

fn setup(ctx: &Ctx) -> Vec<Pair<'_>> {
    (0..PAIRS).map(|i| pair(ctx, i)).collect()
}

/// Schedules every block of `program` (the always-schedule reference).
fn always_scheduled(program: &Program, machine: &MachineConfig) -> (Program, Vec<bool>) {
    let scheduler = ListScheduler::new(machine);
    let mut scratch = SchedScratch::new(machine);
    let mut outcome = ScheduleOutcome::default();
    let mut buf = Vec::new();
    let mut out = program.clone();
    let mut useful = Vec::new();
    for m in out.methods_mut() {
        for b in m.blocks_mut() {
            scheduler.schedule_block_into(b, &mut scratch, &mut outcome);
            useful.push(outcome.cycles_after < outcome.cycles_before);
            outcome.apply_in_place(b, &mut buf);
        }
    }
    (out, useful)
}

/// The deployed filter's schedule/skip call for every block of
/// `program`, recomputed outside the compile.
fn decisions(program: &Program, store: &FilterStore, key: &FilterKey) -> Vec<bool> {
    let snap = store.get(key).expect("deployed");
    let f = snap.compiled();
    program
        .iter_blocks()
        .map(|(_, b)| {
            let n = b.insts().len() as u64;
            let (score, conditions) = f.score_counted(FeatureVector::extract_masked(b, f.demand()).as_slice());
            let unit = UnitEconomics {
                insts: n,
                exec_count: b.exec_count(),
                filter_work: conditions,
                extraction_work: f.extraction_work(n),
            };
            DecisionPolicy::HardThreshold.decide(score, &unit)
        })
        .collect()
}

/// Checks one compiled method against its input; returns whether it
/// passed, printing the first violation.
fn check_compiled(input: &Program, output: &Program) -> bool {
    let ok = output.methods().len() == 1
        && output.methods()[0].blocks().len() == input.methods()[0].blocks().len()
        && input.methods()[0].id() == output.methods()[0].id();
    if !ok {
        eprintln!("perfbench: {} changed shape", input.methods()[0].name());
        return false;
    }
    for (a, b) in input.methods()[0].blocks().iter().zip(output.methods()[0].blocks()) {
        if let Err(e) = check::check_block(a, b, &check::oracle(a.insts(), false)) {
            eprintln!("perfbench: {}: {e}", input.methods()[0].name());
            return false;
        }
    }
    true
}

/// The end-to-end run.
pub fn run(ctx: &Ctx) -> Outcome {
    let (setup_s, pairs) = timed_setup(|| setup(ctx), drop);
    // Every pair generates the same number of methods (the specs fix the
    // per-benchmark method count); call i compiles method i / PAIRS of
    // pair i % PAIRS.
    let n = pairs[0].methods.len();
    let mut first: Vec<Vec<Option<Program>>> = pairs.iter().map(|p| vec![None; p.methods.len()]).collect();
    let (mut attempted, mut failed, mut units) = (0u64, 0u64, 0u64);
    let mut ops: Vec<stats::Op> = Vec::new();
    // Time spent inside compile calls: the output checks between them
    // are not timed.
    let mut busy_s = 0.0;
    let deadline = Instant::now() + ctx.seconds;
    let mut i = 0usize;
    while Instant::now() < deadline {
        let (p, k) = (i % PAIRS, (i / PAIRS) % n);
        let pair = &pairs[p];
        i += 1;
        attempted += 1;
        let t = Instant::now();
        let r = pair.session.compile_stored(&pair.methods[k], &pair.key, 1);
        let dt = t.elapsed().as_secs_f64();
        let Some((out, stats, _epoch)) = r else {
            failed += 1;
            continue;
        };
        units += stats.total_blocks as u64;
        busy_s += dt;
        ops.push((busy_s, stats.total_blocks as u64, dt * 1e6));
        match &first[p][k] {
            None => first[p][k] = Some(out),
            Some(f) => failed += u64::from(*f != out),
        }
    }
    let (mut never, mut filtered, mut always, mut wrong, mut blocks) = (0u64, 0u64, 0u64, 0usize, 0usize);
    for (pair, first) in pairs.iter().zip(&mut first) {
        for (k, (input, out)) in pair.methods.iter().zip(first.iter_mut()).enumerate() {
            // Methods the window did not reach are compiled untimed, so
            // the quality metrics always cover every suite.
            if out.is_none() {
                *out = pair.session.compile_stored(&pair.methods[k], &pair.key, 1).map(|r| r.0);
            }
            let Some(out) = out else {
                failed += 1;
                continue;
            };
            failed += u64::from(!check_compiled(input, out));
            let (sched, useful) = always_scheduled(input, &ctx.machine);
            never += app_cycles(input, &ctx.machine);
            filtered += app_cycles(out, &ctx.machine);
            always += app_cycles(&sched, &ctx.machine);
            let decided = decisions(input, &pair.store, &pair.key);
            wrong += decided.iter().zip(&useful).filter(|(d, u)| d != u).count();
            blocks += decided.len();
        }
    }
    let benefit = (never as f64 - filtered as f64) / (never as f64 - always as f64);
    let programs: Vec<Program> = pairs.iter().flat_map(|p| p.programs.iter().cloned()).collect();
    let stats = inputs::InputStats::of(&programs, ScopeKind::Block);
    let e2e = EndToEnd {
        setup: setup_s,
        units,
        // A piece is one pass: every method of every pair compiled once.
        timing: Timing::calm(&stats::pieces(&ops, n * PAIRS), "passes"),
        attempted,
        failed,
        benefit: (benefit, blocks),
        error_pct: (100.0 * wrong as f64 / blocks.max(1) as f64, blocks),
        op: "compile_stored call (one method)",
    };
    Outcome {
        attempted,
        failed,
        metrics: e2e.metrics(),
        notes: vec![
            format!("jit_compile inputs ({PAIRS} seeded suites): {stats}"),
            format!("compile calls={attempted} passes={:.2}", i as f64 / (n * PAIRS) as f64),
        ],
    }
}

/// The traced run: a span-instrumented replay of `compile_stored` over
/// the suite, then the layer probes.
pub fn traced(ctx: &Ctx) -> Outcome {
    let st = pair(ctx, 0);
    let machine = &ctx.machine;
    let mut tr = Tracer::new();
    let scheduler = ListScheduler::new(machine);
    let mut outcome = ScheduleOutcome::default();
    let mut buf = Vec::new();
    let policy = DecisionPolicy::HardThreshold;
    let (mut untraced_ns, mut ops, mut failures) = (0.0, 0u64, 0u64);
    // Whole passes over the suite until half the window is spent.
    let budget = Instant::now() + ctx.seconds / 2;
    for (n, k) in (0..st.methods.len()).cycle().enumerate() {
        if k == 0 && n > 0 && Instant::now() >= budget {
            break;
        }
        let input = &st.methods[k];
        let t = Instant::now();
        let direct = st.session.compile_stored(input, &st.key, 1);
        untraced_ns += t.elapsed().as_nanos() as f64;
        let req = n as u64;
        let root = tr.begin("jit.compile", req);
        let (mut method, mut scratch) =
            tr.span("jit.session", req, || (input.methods()[0].clone(), SchedScratch::new(machine)));
        let snap = tr.span("store.get", req, || st.store.get(&st.key)).expect("deployed");
        let f = snap.compiled();
        for block in method.blocks_mut() {
            let n = block.insts().len() as u64;
            let fv = tr.span("features", req, || FeatureVector::extract_masked(block, f.demand()));
            let (score, conditions) = tr.span("engine", req, || f.score_counted(fv.as_slice()));
            let unit = UnitEconomics {
                insts: n,
                exec_count: block.exec_count(),
                filter_work: conditions,
                extraction_work: f.extraction_work(n),
            };
            if tr.span("policy", req, || policy.decide(score, &unit)) {
                tr.span("sched", req, || scheduler.schedule_block_into(block, &mut scratch, &mut outcome));
                tr.span("sched.apply", req, || outcome.apply_in_place(block, &mut buf));
            }
        }
        tr.end(root);
        ops += 1;
        failures += u64::from(direct.map(|d| d.0.methods()[0].clone()) != Some(method));
    }
    let attribution = Attribution::of(&tr, "jit.compile", untraced_ns);
    let probes = layers::probe_all(&mut tr, machine, ScopeKind::Block, &st.programs, &st.store, &st.key);
    layers::traced_outcome(&tr, &probes, &attribution, &[], (ops, failures), "jit_compile", ctx.seed)
}
