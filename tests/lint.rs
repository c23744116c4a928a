//! The standing wts-lint invariant future PRs inherit: every filter the
//! pipeline can produce — any registry machine × any portfolio learner ×
//! either scope, every LOOCV fold and the factory rule set — lints
//! clean under the `wts-verify` model analysis and carries a
//! hard-threshold equivalence proof, and the faithful serve/store
//! protocol models check clean. The mutation tests are the teeth: each
//! of the four defect classes (shadowed rule, demand-mask drift,
//! non-finite threshold, epoch-regressing swap) is caught with its named
//! diagnostic while the unmutated twin stays clean, so a lint that rots
//! into a no-op fails here, not in production.

use schedfilter::filters::{
    collect_trace, train_filter, train_loocv, CompiledFilter, CompiledFilterError, LearnedFilter, Learner, LearnerKind,
    ScopeKind, TimingMode, TraceOptions, TraceRecord, TrainConfig,
};
use schedfilter::ripper::{Rule, RuleSet};
use schedfilter::verify::{
    check_serve_protocol, check_store_protocol, lint_model, prove_hard_threshold, render, DrainModel, ModelTable,
    ServeProtoConfig, ShedModel, SnapshotModel, StoreProtoConfig, SwapModel,
};
use wts_features::FeatureMask;
use wts_machine::{registry, MachineConfig};

fn corpus(machine: &MachineConfig, scope: ScopeKind) -> Vec<TraceRecord> {
    let opts = TraceOptions { timing: TimingMode::Deterministic, scope, ..TraceOptions::default() };
    wts_core::testutil::learnable_suite(3).iter().flat_map(|p| collect_trace(p, machine, &opts)).collect()
}

fn model_table(filter: &LearnedFilter, artifact: &str) -> ModelTable {
    let compiled = filter.compile();
    ModelTable::from_rule_set(filter.rules(), compiled.demand(), artifact)
}

fn assert_clean(filter: &LearnedFilter, artifact: &str) {
    let table = model_table(filter, artifact);
    let diags = lint_model(&table);
    assert!(diags.is_empty(), "{artifact}:\n{}", render(&diags));
    assert!(prove_hard_threshold(&table).holds(), "{artifact}: the decide ≡ score≥t proof must hold");
}

/// Every pipeline-producible filter lints clean with the equivalence
/// proof held: all registry machines × all portfolio backends × both
/// scopes, the factory rule set and every LOOCV fold.
#[test]
fn every_pipeline_producible_filter_lints_clean() {
    let mut linted = 0usize;
    for machine in registry() {
        for scope in [ScopeKind::Block, ScopeKind::Superblock(70)] {
            let traces = corpus(&machine, scope);
            for learner in LearnerKind::portfolio() {
                let config = TrainConfig::with_learner(0, learner.clone()).with_scope(scope);
                let tag = format!("{}/{scope:?}/{}", machine.name(), learner.name());
                assert_clean(&train_filter(&traces, &config), &format!("{tag}/factory"));
                for (bench, fold) in train_loocv(&traces, &config) {
                    assert_clean(&fold, &format!("{tag}/{bench}"));
                    linted += 1;
                }
            }
        }
    }
    assert!(linted > 20, "the sweep must cover a real filter population, linted {linted}");
}

/// A RIPPER filter trained on the learnable corpus — the mutation
/// tests' "unmutated twin".
fn trained() -> LearnedFilter {
    let machine = MachineConfig::ppc7410();
    train_filter(&corpus(&machine, ScopeKind::Block), &TrainConfig::with_threshold(0))
}

/// Mutation class 1 — shadowed rule: duplicating an existing rule at
/// the end of the table makes the copy unreachable (every unit it
/// accepts fires the original first), and the interval-reachability
/// lint names exactly that.
#[test]
fn mutation_shadowed_rule_is_caught_and_the_twin_is_clean() {
    let filter = trained();
    let mut table = model_table(&filter, "shadow-mutant");
    assert!(lint_model(&table).is_empty(), "the twin lints clean");
    assert!(!table.rules.is_empty(), "the learnable corpus induces at least one rule");

    table.rules.push(table.rules[0].clone());
    table.scores.push(0.9);
    let diags = lint_model(&table);
    let shadowed = format!("rule {} is shadowed by rule 0", table.rules.len() - 1);
    assert!(diags.iter().any(|d| d.message.contains(&shadowed)), "expected '{shadowed}', got:\n{}", render(&diags));
}

/// Mutation class 2 — demand-mask drift: dropping one read feature from
/// the mask means masked extraction leaves it 0 and deployed decisions
/// diverge from the source rules; the lint reports it as an error
/// naming the omitted feature.
#[test]
fn mutation_demand_mask_mismatch_is_caught_and_the_twin_is_clean() {
    let filter = trained();
    let mut table = model_table(&filter, "mask-mutant");
    assert!(lint_model(&table).is_empty(), "the twin lints clean");
    let victim = table.reads().kinds().next().expect("the trained filter reads at least one feature");

    table.demand = FeatureMask::of(table.demand.kinds().filter(|&k| k != victim));
    let diags = lint_model(&table);
    assert!(
        diags.iter().any(|d| d.message.contains("demand mask") && d.message.contains(&format!("omits {victim}"))),
        "expected a demand-mask omission error for {victim}, got:\n{}",
        render(&diags)
    );

    // The opposite drift — a mask wider than the reads — is wasted
    // extraction work, a warning.
    let mut wide = model_table(&filter, "mask-mutant-wide");
    wide.demand = FeatureMask::ALL;
    assert!(lint_model(&wide).iter().any(|d| d.message.contains("wasted extraction work")), "a too-wide mask warns");
}

/// Mutation class 3 — non-finite threshold: caught twice, by the model
/// lint on the condition table and by `CompiledFilter::try_from_rule_set`
/// at lowering time with the named `NonFiniteThreshold` error.
#[test]
fn mutation_non_finite_threshold_is_caught_and_the_twin_is_clean() {
    let filter = trained();
    let table = model_table(&filter, "nan-mutant");
    assert!(lint_model(&table).is_empty(), "the twin lints clean");
    let rs = filter.rules();
    assert!(CompiledFilter::try_from_rule_set(rs, "twin").is_ok(), "the twin lowers clean");

    let mut rules: Vec<Rule> = rs.rules().to_vec();
    let target = rules.iter().position(|r| !r.is_empty()).expect("a rule with conditions exists");
    let mut conds = rules[target].conditions().to_vec();
    conds[0].threshold = f64::NAN;
    rules[target] = Rule::from_conditions(conds);
    let mutated = RuleSet::new(
        rs.attr_names().to_vec(),
        rs.pos_label(),
        rs.neg_label(),
        rules,
        rs.stats().to_vec(),
        *rs.default_stats(),
    );

    let err = CompiledFilter::try_from_rule_set(&mutated, "nan-mutant").expect_err("lowering rejects NaN");
    assert!(matches!(err, CompiledFilterError::NonFiniteThreshold { rule, .. } if rule == target), "{err}");
    assert!(err.to_string().contains("non-finite threshold"), "{err}");

    let compiled = filter.compile();
    let table = ModelTable::from_rule_set(&mutated, compiled.demand(), "nan-mutant");
    assert!(
        lint_model(&table).iter().any(|d| d.message.contains("non-finite threshold")),
        "the model lint names the defect too"
    );
}

/// Mutation class 4 — epoch-regressing swap: under the faithful atomic
/// publication model the store protocol checks clean; under the
/// read-then-write mutant two concurrent writers interleave into an
/// epoch regression, and the model checker's exhaustive search finds
/// the exact trace.
#[test]
fn mutation_epoch_regressing_swap_is_caught_and_the_twin_is_clean() {
    let twin = check_store_protocol(StoreProtoConfig::default());
    assert!(twin.is_clean(), "the atomic-swap model is clean:\n{}", render(&twin.diagnostics));
    assert!(twin.states > 10, "the explorer visited a real state space");

    let mutant = check_store_protocol(StoreProtoConfig { swap: SwapModel::ReadThenWrite, ..Default::default() });
    assert!(
        mutant.diagnostics.iter().any(|d| d.message.contains("regressed the epoch")),
        "expected an epoch regression, got:\n{}",
        render(&mutant.diagnostics)
    );
}

/// The remaining protocol knobs each produce their named diagnostic
/// while the faithful defaults stay clean: a per-unit snapshot splits a
/// batch across a swap, a retrying shed duplicates a response, and a
/// drop-pending drain loses records the retrainer should have absorbed.
#[test]
fn mutation_protocol_knobs_each_fire_their_named_diagnostic() {
    let split = check_store_protocol(StoreProtoConfig { snapshot: SnapshotModel::PerUnit, ..Default::default() });
    assert!(
        split.diagnostics.iter().any(|d| d.message.contains("batch split across a swap")),
        "expected a batch split, got:\n{}",
        render(&split.diagnostics)
    );

    let twin = check_serve_protocol(ServeProtoConfig::default());
    assert!(twin.is_clean(), "the faithful serve model is clean:\n{}", render(&twin.diagnostics));

    let dup = check_serve_protocol(ServeProtoConfig { shed: ShedModel::RejectAndRetry, ..Default::default() });
    assert!(
        dup.diagnostics.iter().any(|d| d.message.contains("duplicate response")),
        "expected a duplicate response, got:\n{}",
        render(&dup.diagnostics)
    );

    let lost = check_serve_protocol(ServeProtoConfig { drain: DrainModel::DropPending, ..Default::default() });
    assert!(
        lost.diagnostics.iter().any(|d| d.message.contains("drain lost records")),
        "expected drain loss, got:\n{}",
        render(&lost.diagnostics)
    );
}

/// The CI-enabled `repro lint` smoke test: at realistic scale, the full
/// sweep — every registry machine × portfolio backend × scope fold,
/// plus the two protocol machines — reports zero diagnostics with every
/// equivalence proof held.
#[test]
#[ignore = "lint smoke test: realistic scale; CI runs it with -- --ignored"]
fn lint_smoke_all_clean_at_scale() {
    use schedfilter::experiments::Experiments;
    let e = Experiments::new(0.05);
    let table = e.lint(&e.matrix(), &e.superblock_matrix());
    assert_eq!(table.row_count(), registry().len() + 2, "one row per machine plus the protocol machines");
    for row in 0..table.row_count() {
        let total: usize = table.cell(row, 5).parse().unwrap();
        assert_eq!(total, 0, "{}: {total} diagnostics at scale", table.cell(row, 0));
    }
}
