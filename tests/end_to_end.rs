//! End-to-end integration: generate → trace → label → train → evaluate,
//! across every crate in the workspace.

use schedfilter::filters::{
    app_time_ratio, classification_matrix, collect_trace, predicted_time_ratio, runtime_classification,
    sched_time_ratio, train_filter, train_loocv, LabelConfig, TrainConfig,
};
use schedfilter::jit::{app_cycles, CompileSession};
use schedfilter::prelude::*;

const SCALE: f64 = 0.05;

fn jvm98_traces() -> Vec<TraceRecord> {
    let machine = MachineConfig::ppc7410();
    let suite = Suite::specjvm98(SCALE);
    let mut traces = Vec::new();
    for bench in suite.benchmarks() {
        traces.extend(collect_trace(bench.program(), &machine, &TraceOptions::default()));
    }
    traces
}

#[test]
fn full_pipeline_produces_working_filter() {
    let traces = jvm98_traces();
    assert!(traces.len() > 500, "corpus too small: {}", traces.len());

    let filter = train_filter(&traces, &TrainConfig::with_threshold(0)).compiled().clone();
    // The filter must beat the trivial strategies on the trade-off:
    // cheaper than LS, more effective than NS.
    let times = sched_time_ratio(&traces, &filter, &DecisionPolicy::HardThreshold);
    assert!(times.work_ratio() < 1.0, "filter must reduce scheduling work");
    assert!(times.scheduled_blocks > 0, "filter must schedule something");

    let app_f = app_time_ratio(&traces, &filter);
    let app_ls = app_time_ratio(&traces, &CompiledFilter::always());
    let app_ns = app_time_ratio(&traces, &CompiledFilter::never());
    assert_eq!(app_ns, 1.0);
    assert!(app_ls < 1.0, "scheduling everything must help overall");
    assert!(app_f < 1.0, "the filter must keep some of the benefit");
    // The paper's headline: >90% of the benefit. Grant slack at tiny
    // scale, but demand a solid majority.
    let kept = (1.0 - app_f) / (1.0 - app_ls);
    assert!(kept > 0.6, "filter keeps only {:.0}% of the benefit", kept * 100.0);
}

#[test]
fn loocv_filters_generalize_to_held_out_benchmarks() {
    let traces = jvm98_traces();
    let folds = train_loocv(&traces, &TrainConfig::with_threshold(0), 1);
    assert_eq!(folds.len(), 7);
    for (bench, filter) in &folds {
        let own: Vec<TraceRecord> = traces.iter().filter(|r| &r.benchmark == bench).cloned().collect();
        let m = classification_matrix(&own, filter.compiled(), LabelConfig::new(0));
        assert!(m.total() > 0);
        assert!(m.error_percent() < 35.0, "{bench}: error {:.1}% is worse than near-trivial", m.error_percent());
    }
}

#[test]
fn threshold_raises_efficiency_and_shrinks_ls_predictions() {
    let traces = jvm98_traces();
    let f0 = train_filter(&traces, &TrainConfig::with_threshold(0)).compiled().clone();
    let f40 = train_filter(&traces, &TrainConfig::with_threshold(40)).compiled().clone();
    let c0 = runtime_classification(&traces, &f0);
    let c40 = runtime_classification(&traces, &f40);
    assert!(c40.ls < c0.ls, "higher threshold should schedule fewer blocks ({} vs {})", c40.ls, c0.ls);
    let hard = DecisionPolicy::HardThreshold;
    let w0 = sched_time_ratio(&traces, &f0, &hard).work_ratio();
    let w40 = sched_time_ratio(&traces, &f40, &hard).work_ratio();
    assert!(w40 < w0, "t=40 must be cheaper than t=0 ({w40} vs {w0})");
}

#[test]
fn predicted_improvement_exceeds_measured_improvement() {
    // The methodological gap the paper reports: the cheap labeling
    // simulator over-predicts what the (dynamic) machine realizes.
    let traces = jvm98_traces();
    let predicted = predicted_time_ratio(&traces, &CompiledFilter::always()) / 100.0;
    let measured = app_time_ratio(&traces, &CompiledFilter::always());
    assert!(predicted < measured, "predicted {predicted} should beat measured {measured}");
}

#[test]
fn compile_session_agrees_with_trace_based_eval() {
    let machine = MachineConfig::ppc7410();
    let suite = Suite::specjvm98(SCALE);
    let program = suite.benchmarks()[4].program(); // mpegaudio: schedulable
    let traces = collect_trace(program, &machine, &TraceOptions::default());
    let filter = train_filter(&traces, &TrainConfig::with_threshold(0)).compiled().clone();

    let session = CompileSession::new(&machine);
    let (compiled, stats) = session.compile(program, &filter, 1);
    let counts = runtime_classification(&traces, &filter);
    assert_eq!(stats.scheduled_blocks, counts.ls, "session and eval must agree on the filter's decisions");

    // app_cycles of the compiled program equals the trace-based ratio.
    let direct = app_cycles(&compiled, &machine) as f64 / app_cycles(program, &machine) as f64;
    let from_traces = app_time_ratio(&traces, &filter);
    assert!((direct - from_traces).abs() < 1e-9, "{direct} vs {from_traces}");
}

#[test]
fn factory_deployment_round_trip() {
    // The paper's deployment story: trace at the factory, ship the trace
    // file, train, ship the rules listing, install it in the compiler.
    use schedfilter::filters::{read_trace_binary, write_trace_binary};
    use schedfilter::ripper::parse_rule_set;

    let traces = jvm98_traces();
    // Trace file round trip.
    let bytes = write_trace_binary(&traces).expect("generated features are finite");
    let back = read_trace_binary(&bytes).expect("trace file must parse");
    assert_eq!(back, traces);
    assert_eq!(write_trace_binary(&back).expect("reloaded features are finite"), bytes);

    // Train, print, re-parse the rules, and check the filters agree on
    // every block in the corpus.
    let trained = train_filter(&back, &TrainConfig::with_threshold(10));
    let listing = trained.rules().to_string();
    let attrs: Vec<String> = wts_features::FeatureKind::ALL.iter().map(|k| k.rule_name().to_string()).collect();
    let reloaded = LearnedFilter::new(parse_rule_set(&listing, &attrs).expect("listing parses"), 10);
    let (trained, reloaded) = (trained.compiled(), reloaded.compiled());
    for r in &traces {
        assert_eq!(
            trained.decide(r.features.as_slice()),
            reloaded.decide(r.features.as_slice()),
            "parsed filter must make identical decisions"
        );
    }
}

#[test]
fn scheduled_programs_remain_valid_and_semantically_ordered() {
    let machine = MachineConfig::ppc7410();
    let suite = Suite::fp(SCALE);
    let session = CompileSession::new(&machine);
    for bench in suite.benchmarks() {
        let (compiled, _) = session.compile(bench.program(), &CompiledFilter::always(), 1);
        compiled.validate().expect("scheduled IR validates");
        // Every block must be a dependence-respecting permutation of the
        // original (checked via the verifier on the original block).
        for (m_orig, m_new) in bench.program().methods().iter().zip(compiled.methods()) {
            for (b_orig, b_new) in m_orig.blocks().iter().zip(m_new.blocks()) {
                assert_eq!(b_orig.len(), b_new.len());
                assert_eq!(b_orig.exec_count(), b_new.exec_count());
                // Same multiset of instructions (a permutation) ...
                let mut orig: Vec<String> = b_orig.insts().iter().map(|i| i.to_string()).collect();
                let mut new: Vec<String> = b_new.insts().iter().map(|i| i.to_string()).collect();
                orig.sort();
                new.sort();
                assert_eq!(orig, new, "scheduling must permute, not rewrite");
                // ... that the cost model rates no worse than the original.
                let cm = CostModel::new(&machine);
                assert!(cm.block_cycles(b_new) <= cm.block_cycles(b_orig));
            }
        }
    }
}
