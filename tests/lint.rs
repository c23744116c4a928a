//! The standing wts-lint invariant future PRs inherit: every filter the
//! pipeline can produce — any registry machine × any portfolio learner ×
//! either scope, every LOOCV fold and the factory rule set — lints
//! clean under the `wts-verify` model analysis and carries a
//! hard-threshold equivalence proof, and the serving core checks clean.
//! The mutation tests are the teeth: each of the three model defect
//! classes (shadowed rule, demand-mask drift, non-finite threshold) is
//! caught with its named diagnostic while the unmutated twin stays
//! clean, so a lint that rots into a no-op fails here, not in
//! production. The fourth class, an epoch-regressing swap, is a threaded
//! property on the running `FilterStore` (`wts-core`'s `prop_store.rs`).

use schedfilter::filters::{
    collect_trace, train_filter, train_loocv, CompiledFilter, CompiledFilterError, LearnedFilter, Learner, LearnerKind,
    TimingMode, TraceOptions, TraceRecord, TrainConfig,
};
use schedfilter::ir::ScopeKind;
use schedfilter::ripper::{Rule, RuleSet};
use schedfilter::verify::{lint_model, prove_hard_threshold, render, ModelTable};
use wts_features::FeatureMask;
use wts_machine::{registry, MachineConfig};

fn corpus(machine: &MachineConfig, scope: ScopeKind) -> Vec<TraceRecord> {
    let opts = TraceOptions { timing: TimingMode::Deterministic, scope, ..TraceOptions::default() };
    wts_core::testutil::learnable_suite(3).iter().flat_map(|p| collect_trace(p, machine, &opts)).collect()
}

fn model_table(filter: &LearnedFilter, artifact: &str) -> ModelTable {
    ModelTable::from_rule_set(filter.rules(), filter.compiled().demand(), artifact)
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
                let config = TrainConfig::with_learner(0, learner).with_scope(scope);
                let tag = format!("{}/{scope:?}/{}", machine.name(), learner.name());
                assert_clean(&train_filter(&traces, &config), &format!("{tag}/factory"));
                for (bench, fold) in train_loocv(&traces, &config, 1) {
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

    let table = ModelTable::from_rule_set(&mutated, filter.compiled().demand(), "nan-mutant");
    assert!(
        lint_model(&table).iter().any(|d| d.message.contains("non-finite threshold")),
        "the model lint names the defect too"
    );
}

/// The CI-enabled `repro lint` smoke test: at realistic scale, the full
/// sweep — every registry machine × portfolio backend × scope fold,
/// plus the serving core's protocol check — reports zero diagnostics
/// with every equivalence proof held.
#[test]
#[ignore = "lint smoke test: realistic scale; CI runs it with -- --ignored"]
fn lint_smoke_all_clean_at_scale() {
    use schedfilter::experiments::Experiments;
    let e = Experiments::new(0.05);
    let table = e.lint(&e.matrix(), &e.superblock_matrix());
    assert_eq!(table.row_count(), registry().len() + 1, "one row per machine plus the serving core");
    assert_eq!(table.cell(registry().len(), 0), "wts-serve");
    for row in 0..table.row_count() {
        let total: usize = table.cell(row, 5).parse().unwrap();
        assert_eq!(total, 0, "{}: {total} diagnostics at scale", table.cell(row, 0));
    }
}
