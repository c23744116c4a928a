//! `repro lint`: the model-artifact and protocol static-analysis sweep.
//!
//! Where `repro verify` audits *schedules* (dependence, timing,
//! speculation), `repro lint` audits the *learned artifacts and the
//! machinery that serves them*: every filter the pipeline can produce —
//! each registry machine × each [`LearnerKind::portfolio`] backend ×
//! both scopes, every LOOCV fold plus the factory rule set — is lowered
//! and run through the `wts-verify` model lint and the hard-threshold
//! equivalence proof, and the `wts-serve` serving core is model-checked
//! by bounded-exhaustive state-space exploration. A healthy pipeline
//! prints all-zero diagnostic columns and a `held` proof on every row;
//! anything else is a bug in the learners, the lowering or the serving
//! layer, and the offending diagnostics are echoed to stderr.

use crate::table::Table;
use crate::Experiments;
use wts_core::{LearnedFilter, Learner, LearnerKind, MatrixRun};
use wts_serve::{check_serve_protocol, ServeProtoConfig};
use wts_verify::{lint_model, prove_hard_threshold, render, Diagnostic, ModelTable, Severity};

/// One machine's tally over every backend × scope × fold.
#[derive(Default)]
struct LintRow {
    filters: usize,
    errors: usize,
    warnings: usize,
    proofs_held: usize,
}

impl LintRow {
    fn absorb(&mut self, diags: &[Diagnostic], proof_held: bool) {
        self.filters += 1;
        self.errors += diags.iter().filter(|d| d.severity == Severity::Error).count();
        self.warnings += diags.iter().filter(|d| d.severity == Severity::Warning).count();
        self.proofs_held += usize::from(proof_held);
    }
}

/// Lints one trained filter exactly the way the `verify`-feature hook
/// inside `train_filter` does, plus the threshold-equivalence proof.
fn lint_filter(artifact: &str, filter: &LearnedFilter) -> (Vec<Diagnostic>, bool) {
    let compiled = filter.compile();
    let table = ModelTable::from_rule_set(filter.rules(), compiled.demand(), artifact);
    let diags = lint_model(&table);
    let held = prove_hard_threshold(&table).holds();
    (diags, held)
}

impl Experiments {
    /// The `repro lint` table: one row per registry machine tallying the
    /// model lint over every pipeline-producible filter on that machine
    /// (both scope matrices, every portfolio backend, every t=0 LOOCV
    /// fold plus the factory filter), followed by one row for the
    /// serving core's protocol check with the explored state count in
    /// the `linted` column.
    ///
    /// # Panics
    ///
    /// Panics if the two matrices cover different machine lists.
    pub fn lint(&self, block: &MatrixRun, superblock: &MatrixRun) -> Table {
        assert_eq!(block.machine_names(), superblock.machine_names(), "matrices must sweep the same registry");
        let mut table = Table::new(
            format!("wts-lint: filters x registry x learner x scope, plus protocol machines (scale {})", self.scale()),
            vec![
                "artifact".into(),
                "linted".into(),
                "errors".into(),
                "warnings".into(),
                "proof".into(),
                "total".into(),
            ],
        );
        for name in block.machine_names() {
            let mut row = LintRow::default();
            for (scope_tag, matrix) in [("blk", block), ("sb", superblock)] {
                let run = matrix.run_for(name);
                for learner in LearnerKind::portfolio() {
                    for (bench, filter) in run.loocv_filters_for(0, &learner).iter() {
                        let artifact = format!("{name}/{scope_tag}/{}/{bench}", learner.name());
                        let (diags, held) = lint_filter(&artifact, filter);
                        if !diags.is_empty() {
                            eprintln!("{}", render(&diags));
                        }
                        row.absorb(&diags, held);
                    }
                    let artifact = format!("{name}/{scope_tag}/{}/factory", learner.name());
                    let (diags, held) = lint_filter(&artifact, &run.factory_filter_for(0, &learner));
                    if !diags.is_empty() {
                        eprintln!("{}", render(&diags));
                    }
                    row.absorb(&diags, held);
                }
            }
            table.push_row(vec![
                name.to_string(),
                row.filters.to_string(),
                row.errors.to_string(),
                row.warnings.to_string(),
                format!("{}/{}", row.proofs_held, row.filters),
                (row.errors + row.warnings).to_string(),
            ]);
        }
        let report = check_serve_protocol(ServeProtoConfig::default());
        if !report.is_clean() {
            eprintln!("{}", render(&report.diagnostics));
        }
        let errors = report.diagnostics.iter().filter(|d| d.severity == Severity::Error).count();
        let warnings = report.diagnostics.len() - errors;
        table.push_row(vec![
            report.machine.clone(),
            report.states.to_string(),
            errors.to_string(),
            warnings.to_string(),
            "-".into(),
            report.diagnostics.len().to_string(),
        ]);
        table
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wts_machine::registry_names;

    #[test]
    fn the_lint_sweep_is_all_clean_with_proofs_held() {
        let e = Experiments::new(0.02);
        let table = e.lint(&e.matrix(), &e.superblock_matrix());
        let machines = registry_names().len();
        assert_eq!(table.row_count(), machines + 1, "one row per machine plus the serving core");
        for row in 0..machines {
            assert_eq!(table.cell(row, 0), registry_names()[row]);
            let linted: usize = table.cell(row, 1).parse().unwrap();
            assert!(linted > 0, "{}: sweep linted no filters", table.cell(row, 0));
            let total: usize = table.cell(row, 5).parse().unwrap();
            assert_eq!(total, 0, "{}: {total} diagnostics on untampered artifacts", table.cell(row, 0));
            let proof = table.cell(row, 4);
            assert_eq!(proof, format!("{linted}/{linted}"), "{}: proof must hold everywhere", table.cell(row, 0));
        }
        assert_eq!(table.cell(machines, 0), "wts-serve");
        let states: usize = table.cell(machines, 1).parse().unwrap();
        assert!(states > 10, "wts-serve: the explorer visited a real state space, got {states}");
        assert_eq!(table.cell(machines, 5), "0", "wts-serve: protocol diagnostics on the serving core");
    }
}
