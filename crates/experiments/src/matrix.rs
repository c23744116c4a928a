//! Cross-machine artifacts: the machine registry pushed through the
//! full pipeline, the induced rule sets compared side by side, and the
//! transfer table answering the reproduction's re-derivation question —
//! does a rule set induced for one machine work on another, or must the
//! filter be retrained per target (paper §4)?

use crate::table::{f2, f3, Table};
use crate::{Experiments, SuiteKind, SUPERBLOCK_RATIO, SWEEP_THRESHOLD, THRESHOLDS};
use wts_core::{Experiment, LearnerKind, MatrixRun, TimingMode};
use wts_ir::ScopeKind;
use wts_jit::{superblock_gain, SuperblockGain};

/// The error tolerance (percentage points) of the portfolio-best pick: a backend whose LOOCV error is within this many points of the
/// machine's best error is eligible, and the cheapest eligible backend
/// (by its own filter + extraction work) wins. Two points is well inside
/// the paper's run-to-run noise on the small suites, so the pick never
/// trades real accuracy for overhead savings.
const PORTFOLIO_TOLERANCE: f64 = 2.0;

/// The operating point of the calibration table: one unit of
/// compile-time work (filter conditions, masked extraction, scheduling
/// proxy) priced at one application cycle. A JIT under compile-time
/// pressure would deploy a higher value; `repro`'s tables use this
/// neutral point so the policies are compared on the same footing.
const CALIBRATION_OPERATING_POINT: f64 = 1.0;

impl Experiments {
    /// Runs the full pipeline for every registry machine over the FP
    /// suite's programs, sharding the machines×programs×methods work
    /// list across all cores. The result feeds [`cross_machine`] and
    /// [`machine_sweep`]; build it once and derive both tables.
    ///
    /// Deterministic timing keeps the sweep reproducible — no published
    /// artifact reads the matrix's wall-clock channels.
    ///
    /// [`cross_machine`]: Experiments::cross_machine
    /// [`machine_sweep`]: Experiments::machine_sweep
    pub fn matrix(&self) -> MatrixRun {
        Experiment::new(self.machine().clone())
            .with_timing(TimingMode::Deterministic)
            .run_on(wts_machine::registry(), self.run(SuiteKind::Fp).programs().to_vec())
    }

    /// The transfer table: train the t=0 factory rule set on the row
    /// machine's labels, score it on the column machine's labels. The
    /// diagonal is self-error; a large off-diagonal excess is the
    /// paper's case for re-deriving the filter per target machine.
    pub fn cross_machine(&self, matrix: &MatrixRun) -> Table {
        let t = SWEEP_THRESHOLD;
        let names = matrix.machine_names();
        let mut headers = vec![format!("Train\\Eval (t={t})")];
        headers.extend(names.iter().map(|n| n.to_string()));
        let mut table = Table::new("Cross-machine transfer: classification error % of induced rule sets", headers);
        for (name, row) in names.iter().zip(matrix.transfer_errors(t)) {
            let mut cells = vec![name.to_string()];
            cells.extend(row.iter().map(|&e| f2(e)));
            table.push_row(cells);
        }
        table
    }

    /// The filter-cost table: per registry machine, the honest overhead
    /// of the t=0 LOOCV filters — conditions actually
    /// evaluated (short-circuit aware) and demand-masked extraction
    /// work — as absolute work units and as a fraction of the machine's
    /// full always-schedule cost. The paper's premise (and Chmiela's and
    /// Streeter's, for selectors in general) is that this fraction stays
    /// near zero on every target; this table is where the reproduction
    /// shows it.
    pub fn filter_overhead(&self, matrix: &MatrixRun) -> Table {
        let t = SWEEP_THRESHOLD;
        let headers = vec![
            format!("Machine (t={t})"),
            "Filter work".into(),
            "Feature work".into(),
            "Sched work (LS)".into(),
            "Overhead %".into(),
            "Work ratio".into(),
        ];
        let mut table = Table::new("Filter overhead as a fraction of scheduling work, per machine", headers);
        for (name, times) in matrix.filter_cost(t) {
            table.push_row(vec![
                name,
                times.pass.conditions_evaluated.to_string(),
                times.pass.extraction_work.to_string(),
                times.always_work.to_string(),
                f2(times.overhead_fraction() * 100.0),
                f2(times.work_ratio()),
            ]);
        }
        table
    }

    /// The learner portfolio table: per registry machine, every
    /// [`LearnerKind::portfolio`] backend's aggregate LOOCV
    /// classification error, geometric-mean predicted/app time ratios,
    /// lowered model size, and honest filter + extraction overhead (the
    /// work accounting) at t=0 — followed by one
    /// `best=<learner>` row per machine repeating the portfolio-best
    /// pick: the cheapest backend within `PORTFOLIO_TOLERANCE` (two) points
    /// of the machine's best error (the Streeter/Chmiela selection rule —
    /// accuracy buys nothing once errors are indistinguishable, so
    /// minimize selector spend).
    pub fn portfolio(&self, matrix: &MatrixRun) -> Table {
        let (t, tolerance_percent) = (SWEEP_THRESHOLD, PORTFOLIO_TOLERANCE);
        let headers = vec![
            format!("Machine (t={t})"),
            "Learner".into(),
            "Error %".into(),
            "Predicted %".into(),
            "App ratio".into(),
            "Conds".into(),
            "Overhead %".into(),
            "Work ratio".into(),
        ];
        let mut table = Table::new(
            format!("Learner portfolio: per-machine backend comparison (best = cheapest within {tolerance_percent} error pts)"),
            headers,
        );
        for mp in matrix.portfolio(t, &LearnerKind::portfolio(), tolerance_percent) {
            for entry in &mp.entries {
                table.push_row(portfolio_cells(&mp.machine, &entry.learner, entry));
            }
            let best = mp.best_entry();
            table.push_row(portfolio_cells(&mp.machine, &format!("best={}", best.learner), best));
        }
        table
    }

    /// The calibration table: per registry machine, the t=0 LOOCV filters evaluated under both decision policies, bracketed
    /// by the per-unit oracle. Columns are expected net application
    /// cycles ([`EvalTimes::net_cycles`](wts_core::EvalTimes::net_cycles)
    /// at `CALIBRATION_OPERATING_POINT`, one cycle per work unit) and scheduled-unit counts for:
    ///
    /// * **hard** — the paper's fixed operating point (schedule iff a
    ///   rule fired), bit-identical to the boolean seam;
    /// * **eb** — the expected-benefit policy, each fold deciding with a
    ///   [`BenefitModel`](wts_core::BenefitModel) calibrated on the
    ///   *other* benchmarks (the LOOCV protocol applied to calibration);
    /// * **oracle** — schedules exactly the units whose measured benefit
    ///   beats their own scheduling spend, charging no filter. The
    ///   non-deployable ceiling.
    ///
    /// The `Δ(eb−hard)` column is the headline: where it is positive,
    /// cost-sensitive decisions recover cycles the fixed threshold
    /// leaves on the table — without retraining anything.
    pub fn calibration(&self, matrix: &MatrixRun) -> Table {
        let (t, cycles_per_work) = (SWEEP_THRESHOLD, CALIBRATION_OPERATING_POINT);
        let headers = vec![
            format!("Machine (t={t}, c={cycles_per_work})"),
            "Rate".into(),
            "Hard net".into(),
            "EB net".into(),
            "Oracle net".into(),
            "Δ(eb−hard)".into(),
            "Sched hard".into(),
            "Sched eb".into(),
            "Sched oracle".into(),
        ];
        let mut table =
            Table::new("Calibration: expected net application cycles per decision policy, per machine", headers);
        for row in matrix.calibration(t, cycles_per_work) {
            let hard = row.baseline.net_cycles(cycles_per_work);
            let eb = row.expected_benefit.net_cycles(cycles_per_work);
            table.push_row(vec![
                row.machine,
                f3(row.model.saved_per_inst),
                format!("{hard:.0}"),
                format!("{eb:.0}"),
                format!("{:.0}", row.oracle.net_cycles(cycles_per_work)),
                format!("{:.0}", eb - hard),
                row.baseline.pass.scheduled_blocks.to_string(),
                row.expected_benefit.pass.scheduled_blocks.to_string(),
                row.oracle.pass.scheduled_blocks.to_string(),
            ]);
        }
        table
    }

    /// The superblock-scope registry sweep: the same FP corpus pushed
    /// through the full pipeline on every registry machine, but with
    /// tracing, labeling, training and evaluation operating per formed
    /// superblock trace (ratio [`SUPERBLOCK_RATIO`]) instead of per
    /// basic block. Pair it with [`matrix`](Experiments::matrix) (the
    /// block-scope sweep) and feed both to
    /// [`superblock_scope`](Experiments::superblock_scope).
    pub fn superblock_matrix(&self) -> MatrixRun {
        Experiment::new(self.machine().clone())
            .with_timing(TimingMode::Deterministic)
            .with_scope(ScopeKind::Superblock(SUPERBLOCK_RATIO))
            .run_on(wts_machine::registry(), self.run(SuiteKind::Fp).programs().to_vec())
    }

    /// The `repro superblock` table: per registry machine, the paper's
    /// filter question answered at both scopes side by side — LOOCV
    /// classification error, deterministic scheduling-work ratio and
    /// honest filter + extraction overhead for block versus superblock
    /// scope — plus the paper's "extra 1–2%" column (the additional
    /// application-level gain of speculative trace scheduling over
    /// local scheduling on that machine) and the features the
    /// superblock-scope factory rule set actually consults (the
    /// trace-shape features showing up here is the point of the new
    /// scenario).
    ///
    /// # Panics
    ///
    /// Panics if the two matrices cover different machine lists.
    pub fn superblock_scope(&self, block: &MatrixRun, superblock: &MatrixRun) -> Table {
        let t = SWEEP_THRESHOLD;
        assert_eq!(block.machine_names(), superblock.machine_names(), "matrices must sweep the same registry");
        let headers = vec![
            format!("Machine (t={t})"),
            "Err% blk".into(),
            "Err% sb".into(),
            "Ratio blk".into(),
            "Ratio sb".into(),
            "Ovh% blk".into(),
            "Ovh% sb".into(),
            "Extra %".into(),
            "SB filter reads".into(),
        ];
        let mut table =
            Table::new(format!("Scope scenario: block vs superblock (ratio {SUPERBLOCK_RATIO}%) per machine"), headers);
        let learner = LearnerKind::default();
        let programs = self.run(SuiteKind::Fp).programs();
        for run in block.runs() {
            let machine = run.machine();
            let name = machine.name();
            let b = run.learner_eval(t, &learner);
            let s = superblock.run_for(name).learner_eval(t, &learner);
            let mut gain = SuperblockGain::default();
            for program in programs {
                gain.accumulate(&superblock_gain(program, machine, SUPERBLOCK_RATIO));
            }
            let reads = superblock.run_for(name).factory_filter(t).rules().referenced_attr_names().join(",");
            table.push_row(vec![
                name.to_string(),
                f2(b.error_percent),
                f2(s.error_percent),
                f3(b.times.work_ratio()),
                f3(s.times.work_ratio()),
                f2(b.times.overhead_fraction() * 100.0),
                f2(s.times.overhead_fraction() * 100.0),
                f2(100.0 * gain.extra_improvement()),
                if reads.is_empty() { "-".into() } else { reads },
            ]);
        }
        table
    }

    /// Per-machine threshold sweep, side by side: LS instance counts at
    /// every paper threshold (Table 5 per machine), plus each machine's
    /// induced t=0 rule count — how much structure there is to learn on
    /// each target.
    pub fn machine_sweep(&self, matrix: &MatrixRun) -> Table {
        let mut headers = vec!["Machine".to_string()];
        headers.extend(THRESHOLDS.iter().map(|t| format!("t={t}")));
        headers.push("Rules(t=0)".into());
        let mut table = Table::new("Cross-machine threshold sweep: LS instances per machine", headers);
        let sweep = matrix.ls_sweep(&THRESHOLDS);
        let filters = matrix.factory_filters(0);
        for ((name, counts), (_, filter)) in sweep.iter().zip(&filters) {
            let mut cells = vec![name.clone()];
            cells.extend(counts.iter().map(|c| c.to_string()));
            cells.push(filter.rules().len().to_string());
            table.push_row(cells);
        }
        table
    }
}

/// One portfolio table row: the shared cell layout of the per-learner
/// rows and the `best=` summary row.
fn portfolio_cells(machine: &str, learner: &str, e: &wts_core::PortfolioEntry) -> Vec<String> {
    vec![
        machine.to_string(),
        learner.to_string(),
        f2(e.error_percent),
        f2(e.predicted_percent),
        f3(e.app_ratio),
        e.conditions.to_string(),
        f2(e.times.overhead_fraction() * 100.0),
        f3(e.times.work_ratio()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use wts_core::Learner;
    use wts_machine::registry_names;

    fn harness() -> Experiments {
        Experiments::new(0.02)
    }

    #[test]
    fn cross_machine_table_is_square_over_the_registry() {
        let e = harness();
        let m = e.matrix();
        let t = e.cross_machine(&m);
        let n = registry_names().len();
        assert_eq!(t.row_count(), n);
        assert_eq!(t.headers().len(), n + 1);
        for row in 0..n {
            assert_eq!(t.cell(row, 0), registry_names()[row]);
            for col in 1..=n {
                let e: f64 = t.cell(row, col).parse().unwrap();
                assert!((0.0..=100.0).contains(&e), "error {e}% out of range");
            }
        }
    }

    #[test]
    fn machine_sweep_counts_fall_with_threshold() {
        let e = harness();
        let m = e.matrix();
        let t = e.machine_sweep(&m);
        assert_eq!(t.row_count(), registry_names().len());
        for row in 0..t.row_count() {
            let counts: Vec<usize> = (1..=THRESHOLDS.len()).map(|c| t.cell(row, c).parse().unwrap()).collect();
            for w in counts.windows(2) {
                assert!(w[1] <= w[0], "LS counts must fall with t: {counts:?}");
            }
        }
    }

    #[test]
    fn filter_overhead_table_shows_small_fractions_everywhere() {
        let e = harness();
        let m = e.matrix();
        let t = e.filter_overhead(&m);
        assert_eq!(t.row_count(), registry_names().len());
        for row in 0..t.row_count() {
            assert_eq!(t.cell(row, 0), registry_names()[row]);
            let overhead: f64 = t.cell(row, 4).parse().unwrap();
            assert!((0.0..50.0).contains(&overhead), "overhead {overhead}% should be far below scheduling cost");
            let ratio: f64 = t.cell(row, 5).parse().unwrap();
            assert!(ratio < 1.0, "a filter must beat always-scheduling on work, got {ratio}");
        }
    }

    #[test]
    fn portfolio_table_covers_every_machine_and_backend() {
        let e = harness();
        let m = e.matrix();
        let t = e.portfolio(&m);
        let learners = LearnerKind::portfolio();
        let rows_per_machine = learners.len() + 1; // backends + the best= summary row
        assert_eq!(t.row_count(), registry_names().len() * rows_per_machine);
        for (i, name) in registry_names().iter().enumerate() {
            let base = i * rows_per_machine;
            for (j, learner) in learners.iter().enumerate() {
                assert_eq!(t.cell(base + j, 0), *name);
                assert_eq!(t.cell(base + j, 1), learner.name());
                let err: f64 = t.cell(base + j, 2).parse().unwrap();
                assert!((0.0..=100.0).contains(&err), "{name}/{}: error {err}%", learner.name());
            }
            let best = t.cell(base + learners.len(), 1);
            assert!(
                learners.iter().any(|l| best == format!("best={}", l.name())),
                "{name}: best row '{best}' must name a portfolio backend"
            );
        }
    }

    #[test]
    fn portfolio_best_rows_repeat_an_existing_entry() {
        let e = harness();
        let m = e.matrix();
        let t = e.portfolio(&m);
        let rows_per_machine = LearnerKind::portfolio().len() + 1;
        for i in 0..registry_names().len() {
            let base = i * rows_per_machine;
            let best_row: Vec<&str> = (1..t.headers().len()).map(|c| t.cell(base + rows_per_machine - 1, c)).collect();
            let matched = (0..rows_per_machine - 1).any(|j| {
                let name_matches = format!("best={}", t.cell(base + j, 1)) == best_row[0];
                let cells_match = (2..t.headers().len()).all(|c| t.cell(base + j, c) == best_row[c - 1]);
                name_matches && cells_match
            });
            assert!(matched, "machine {i}: the best= row must repeat one backend's cells verbatim");
        }
    }

    #[test]
    fn calibration_table_brackets_policies_and_pays_off_somewhere() {
        let e = harness();
        let m = e.matrix();
        let t = e.calibration(&m);
        assert_eq!(t.row_count(), registry_names().len());
        let mut eb_wins = 0usize;
        for row in 0..t.row_count() {
            assert_eq!(t.cell(row, 0), registry_names()[row]);
            let hard: f64 = t.cell(row, 2).parse().unwrap();
            let eb: f64 = t.cell(row, 3).parse().unwrap();
            let oracle: f64 = t.cell(row, 4).parse().unwrap();
            assert!(oracle >= hard && oracle >= eb, "row {row}: the oracle is the ceiling");
            let delta: f64 = t.cell(row, 5).parse().unwrap();
            assert!((delta - (eb - hard)).abs() <= 1.0, "row {row}: Δ column disagrees with its operands");
            if eb >= hard {
                eb_wins += 1;
            }
            let sched_hard: usize = t.cell(row, 6).parse().unwrap();
            let sched_eb: usize = t.cell(row, 7).parse().unwrap();
            assert!(sched_hard > 0 && sched_eb > 0, "row {row}: both policies must schedule something");
        }
        assert!(eb_wins >= 1, "expected-benefit must reach the fixed threshold on at least one machine");
    }

    #[test]
    fn superblock_scope_table_covers_every_machine_with_sane_cells() {
        let e = harness();
        let block = e.matrix();
        let sb = e.superblock_matrix();
        let t = e.superblock_scope(&block, &sb);
        assert_eq!(t.row_count(), registry_names().len());
        for row in 0..t.row_count() {
            assert_eq!(t.cell(row, 0), registry_names()[row]);
            for col in 1..=2 {
                let err: f64 = t.cell(row, col).parse().unwrap();
                assert!((0.0..=100.0).contains(&err), "error {err}% out of range");
            }
            for col in 3..=4 {
                let ratio: f64 = t.cell(row, col).parse().unwrap();
                assert!(ratio < 1.0, "a filter must beat always-scheduling on work, got {ratio}");
            }
            let extra: f64 = t.cell(row, 7).parse().unwrap();
            assert!((0.0..25.0).contains(&extra), "extra gain {extra}% implausible");
            assert!(!t.cell(row, 8).is_empty(), "the SB demand column always prints something");
        }
    }

    #[test]
    fn superblock_matrix_decides_over_fewer_coarser_units() {
        let e = harness();
        let block = e.matrix();
        let sb = e.superblock_matrix();
        for name in registry_names() {
            assert_eq!(sb.run_for(name).scope(), ScopeKind::Superblock(SUPERBLOCK_RATIO));
            let b = block.run_for(name).all_traces().len();
            let s = sb.run_for(name).all_traces().len();
            assert!(s < b, "{name}: superblock scope must merge units ({s} vs {b})");
            assert!(
                sb.run_for(name)
                    .all_traces()
                    .iter()
                    .any(|r| r.features.get(wts_features::FeatureKind::TraceWidth) > 1.0),
                "{name}: some traces must actually merge"
            );
        }
    }

    #[test]
    fn scheduling_pays_off_more_on_the_embedded_core() {
        let e = harness();
        let m = e.matrix();
        let sweep = m.ls_sweep(&[0]);
        let count_for = |name: &str| sweep.iter().find(|(n, _)| n == name).map(|(_, c)| c[0]).unwrap();
        // The slow-memory in-order core leaves far more blocks worth
        // scheduling than the wide OoO machine recovers on its own.
        assert!(
            count_for("embedded") >= count_for("wide4"),
            "embedded {} vs wide4 {}",
            count_for("embedded"),
            count_for("wide4")
        );
    }
}
