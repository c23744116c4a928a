//! `train_loocv`: the jvm98 suite through `Experiment` at superblock
//! scope with 2 threads: trace → `serialize_traces` →
//! `run_from_serialized` → `loocv_filters(0)`, repeated for the window.

use crate::layers::{self, Attribution};
use crate::probe::{self, SB_RATIO};
use crate::span::Tracer;
use crate::{inputs, stats, timed_setup, Ctx, EndToEnd, Outcome, Timing};
use std::time::Instant;
use wts_core::{Experiment, ExperimentRun, FilterKey, FilterStore, LearnerKind, LoocvFilters};
use wts_ir::{Program, ScopeKind};

/// jvm98 scale of each trained corpus.
const SCALE: f64 = 0.06;
/// Independently seeded corpora per run; pipelines cycle through them,
/// so one run averages over several inputs of the same shape.
const SUITES: usize = 5;
/// Methods per benchmark of the warm-up pipeline run during set-up.
const WARM_METHODS: usize = 48;
/// Pipelines run even when the window is shorter.
const MIN_PIPELINES: usize = 2 * SUITES;
const SCOPE: ScopeKind = ScopeKind::Superblock(SB_RATIO);

fn experiment(ctx: &Ctx) -> Experiment {
    Experiment::new(ctx.machine.clone()).with_scope(SCOPE).with_threads(2)
}

/// One full pipeline; returns the traced run, its reload and the folds.
fn pipeline(
    exp: &Experiment,
    a: Vec<Program>,
    b: Vec<Program>,
) -> Option<(ExperimentRun, ExperimentRun, LoocvFilters)> {
    let run = exp.run(a);
    let bytes = run.serialize_traces().ok()?;
    let reloaded = exp.run_from_serialized(b, &bytes).ok()?;
    let filters = reloaded.loocv_filters(0);
    Some((run, reloaded, filters))
}

fn setup(ctx: &Ctx) -> Vec<Vec<Program>> {
    let suites: Vec<Vec<Program>> = (0..SUITES).map(|i| inputs::jvm98(inputs::sub_seed(ctx.seed, i), SCALE)).collect();
    let warm = probe::truncated(&suites[0], WARM_METHODS);
    std::hint::black_box(pipeline(&experiment(ctx), warm.clone(), warm));
    suites
}

/// Checks a pipeline's outputs: the corpus survives the binary round
/// trip and there is one filter per benchmark.
fn check(run: &ExperimentRun, reloaded: &ExperimentRun, filters: &LoocvFilters) -> bool {
    let mut names: Vec<&str> = run.names().iter().map(String::as_str).collect();
    names.sort_unstable();
    let got: Vec<&str> = filters.iter().map(|(n, _)| n.as_str()).collect();
    let ok = reloaded.all_traces() == run.all_traces() && reloaded.traces() == run.traces() && got == names;
    if !ok {
        eprintln!("perfbench: pipeline output check failed (corpus round trip or fold set)");
    }
    ok
}

/// Benefit retained and decision error, each with the count it covers.
type Quality = ((f64, usize), (f64, usize));

/// Held-out hardware-cycle benefit retained by the LOOCV filters over
/// the whole corpus, and the mean held-out classification error.
fn quality(run: &ExperimentRun) -> Quality {
    let (mut never, mut filtered, mut always, mut units) = (0f64, 0f64, 0f64, 0usize);
    let mut errors = Vec::new();
    for bench in run.names() {
        let f = run.compiled_filter_for(0, bench);
        for r in run.trace_for(bench) {
            let w = r.exec_count as f64;
            never += w * r.hw_unsched as f64;
            always += w * r.hw_sched as f64;
            filtered += w * if f.decide(r.features.as_slice()) { r.hw_sched } else { r.hw_unsched } as f64;
            units += 1;
        }
        errors.push(run.classification(0, bench).error_percent());
    }
    let mean_error = errors.iter().sum::<f64>() / errors.len().max(1) as f64;
    (((never - filtered) / (never - always), units), (mean_error, errors.len()))
}

/// The end-to-end run.
pub fn run(ctx: &Ctx) -> Outcome {
    let (setup_s, suites) = timed_setup(|| setup(ctx), drop);
    let exp = experiment(ctx);
    let (mut attempted, mut failed, mut units) = (0u64, 0u64, 0u64);
    let mut ops: Vec<stats::Op> = Vec::new();
    // Quality of each corpus's first pipeline.
    let mut quality_of: Vec<Option<Quality>> = vec![None; SUITES];
    // Time spent inside pipelines: the checks between them are not timed.
    let mut busy_s = 0.0;
    let deadline = Instant::now() + ctx.seconds;
    let mut i = 0;
    while Instant::now() < deadline || ops.len() < MIN_PIPELINES {
        let k = i % SUITES;
        i += 1;
        let (a, b) = (suites[k].clone(), suites[k].clone());
        attempted += 1;
        let t = Instant::now();
        let out = pipeline(&exp, a, b);
        let dt = t.elapsed().as_secs_f64();
        let Some((run, reloaded, filters)) = out else {
            failed += 1;
            continue;
        };
        let n = run.all_traces().len();
        units += n as u64;
        busy_s += dt;
        ops.push((busy_s, n as u64, dt * 1e6));
        failed += u64::from(!check(&run, &reloaded, &filters));
        quality_of[k].get_or_insert_with(|| quality(&reloaded));
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    let q: Vec<Quality> = quality_of.into_iter().flatten().collect();
    let benefit = (mean(&q.iter().map(|x| x.0 .0).collect::<Vec<_>>()), q.iter().map(|x| x.0 .1).sum());
    let error = (mean(&q.iter().map(|x| x.1 .0).collect::<Vec<_>>()), q.iter().map(|x| x.1 .1).sum());
    let stats = inputs::InputStats::of(&suites.concat(), SCOPE);
    let e2e = EndToEnd {
        setup: setup_s,
        units,
        // A piece is one pass: one pipeline over each corpus.
        timing: Timing::calm(&stats::pieces(&ops, SUITES), "passes"),
        attempted,
        failed,
        benefit,
        error_pct: error,
        op: "pipeline (trace, serialize, reload, LOOCV)",
    };
    Outcome { attempted, failed, metrics: e2e.metrics(), notes: vec![format!("train_loocv inputs: {stats}")] }
}

/// The traced run: one pipeline with a span around each stage, then the
/// layer probes.
pub fn traced(ctx: &Ctx) -> Outcome {
    let suites = setup(ctx);
    let exp = experiment(ctx);
    let mut tr = Tracer::new();
    let (mut untraced_ns, mut ops, mut failures) = (0.0, 0u64, 0u64);
    let mut deployed = None;
    // Pipelines over the corpora in turn until half the window is spent;
    // each runs once untraced, then once with a span per stage.
    let budget = Instant::now() + ctx.seconds / 2;
    for (n, programs) in suites.iter().cycle().enumerate() {
        if n >= SUITES && Instant::now() >= budget {
            break;
        }
        let req = n as u64;
        let t = Instant::now();
        let direct = pipeline(&exp, programs.clone(), programs.clone());
        untraced_ns += t.elapsed().as_nanos() as f64;
        let (a, b) = (programs.clone(), programs.clone());
        let root = tr.begin("train.pipeline", req);
        let run = tr.span("experiment.trace", req, || exp.run(a));
        let bytes = tr.span("io.serialize", req, || run.serialize_traces());
        let reloaded =
            bytes.ok().and_then(|bytes| tr.span("io.reload", req, || exp.run_from_serialized(b, &bytes).ok()));
        let filters = reloaded.as_ref().map(|r| tr.span("train.loocv", req, || r.loocv_filters(0)));
        tr.end(root);
        ops += 1;
        match (direct, reloaded, filters) {
            (Some(_), Some(reloaded), Some(filters)) => {
                failures += u64::from(!check(&run, &reloaded, &filters));
                deployed.get_or_insert_with(|| filters[0].1.clone());
            }
            _ => failures += 1,
        }
    }
    let attribution = Attribution::of(&tr, "train.pipeline", untraced_ns);
    let Some(filter) = deployed else {
        return Outcome { attempted: ops, failed: failures.max(1), ..Outcome::default() };
    };
    let store = FilterStore::new();
    let key = FilterKey::new(ctx.machine.name(), &LearnerKind::default(), SCOPE, 0);
    store.swap(key.clone(), filter);
    let probes = layers::probe_all(&mut tr, &ctx.machine, SCOPE, &suites[0], &store, &key);
    layers::traced_outcome(&tr, &probes, &attribution, &[], (ops, failures), "train_loocv", ctx.seed)
}
