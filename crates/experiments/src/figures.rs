//! Figures 1–4: efficiency/effectiveness series and the sample filter,
//! as views over the suite [`ExperimentRun`](wts_core::ExperimentRun)s.

use crate::table::{f3, Table};
use crate::{Experiments, SuiteKind, THRESHOLDS};
use wts_core::{CompiledFilter, DecisionPolicy};
use wts_ripper::geometric_mean;

/// The (a)/(b) pair of one figure: scheduling time and application time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FigurePair {
    /// (a): scheduling time relative to always-scheduling.
    pub sched_time: Table,
    /// (b): application running time relative to never-scheduling.
    pub app_time: Table,
}

impl std::fmt::Display for FigurePair {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "{}", self.sched_time)?;
        writeln!(f, "{}", self.app_time)
    }
}

impl Experiments {
    fn figure_pair(&self, kind: SuiteKind, title_a: &str, title_b: &str) -> FigurePair {
        let run = self.run(kind);
        let mut headers = vec!["Threshold".to_string()];
        headers.extend(run.names().iter().cloned());
        headers.push("Geo. mean".into());

        let mut sched_headers = headers.clone();
        sched_headers.push("Measured gm".into());
        let mut sched = Table::new(title_a, sched_headers);
        let mut app = Table::new(title_b, headers);

        // Reference row: the fixed LS strategy (ratio 1.0 by definition
        // for scheduling time; measured ratio for app time).
        let mut ls_row = vec!["LS".to_string()];
        let mut ls_ratios = Vec::new();
        let always = CompiledFilter::always();
        for name in run.names() {
            let r = run.app_time_with(name, &always);
            ls_ratios.push(r);
            ls_row.push(f3(r));
        }
        ls_row.push(f3(geometric_mean(&ls_ratios)));
        app.push_row(ls_row);

        for &th in &THRESHOLDS {
            let mut srow = vec![format!("t={th}")];
            let mut arow = vec![format!("L/N t={th}")];
            let mut sratios = Vec::new();
            let mut mratios = Vec::new();
            let mut aratios = Vec::new();
            for name in run.names() {
                let times = run.sched_time(th, name, &DecisionPolicy::HardThreshold);
                let s = times.work_ratio();
                sratios.push(s);
                mratios.push(times.measured_ratio());
                srow.push(f3(s));
                let a = run.app_time(th, name);
                aratios.push(a);
                arow.push(f3(a));
            }
            srow.push(f3(geometric_mean(&sratios)));
            srow.push(f3(geometric_mean(&mratios)));
            arow.push(f3(geometric_mean(&aratios)));
            sched.push_row(srow);
            app.push_row(arow);
        }
        FigurePair { sched_time: sched, app_time: app }
    }

    /// Figure 1: efficiency and effectiveness of the t=0 filter on
    /// SPECjvm98, per benchmark (the paper's bar charts, as a table; the
    /// full threshold sweep of Figure 2 is included for context).
    pub fn fig1(&self) -> FigurePair {
        self.figure_pair(
            SuiteKind::Jvm98,
            "Figure 1(a): Scheduling time relative to LS (t=0 row)",
            "Figure 1(b): Application running time relative to NS (t=0 row)",
        )
    }

    /// Figure 2: the threshold sweep on SPECjvm98.
    pub fn fig2(&self) -> FigurePair {
        self.figure_pair(
            SuiteKind::Jvm98,
            "Figure 2(a): Scheduling time relative to LS, sweeping t",
            "Figure 2(b): Application running time relative to NS, sweeping t",
        )
    }

    /// Figure 3: the threshold sweep on the floating-point suite.
    pub fn fig3(&self) -> FigurePair {
        self.figure_pair(
            SuiteKind::Fp,
            "Figure 3(a): Scheduling time relative to LS (FP suite)",
            "Figure 3(b): Application running time relative to NS (FP suite)",
        )
    }

    /// Figure 4: a sample induced filter, trained on six of the seven
    /// SPECjvm98 benchmarks (the first LOOCV fold) at the paper's best
    /// threshold t=20, printed in Ripper's format.
    pub fn fig4(&self) -> String {
        let run = self.run(SuiteKind::Jvm98);
        let held_out = &run.names()[0];
        let filter = run.filter_for(20, held_out);
        format!("Figure 4: Induced heuristic (trained on SPECjvm98 minus {held_out}, t=20)\n{}", filter.rules())
    }

    /// Trains one filter on the *whole* jvm98 corpus at threshold `t` and
    /// renders it (the "at the factory" deliverable).
    pub fn factory_filter(&self, t: u32) -> String {
        let filter = self.run(SuiteKind::Jvm98).factory_filter(t);
        format!("Factory filter (all SPECjvm98, t={t})\n{}", filter.rules())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn harness() -> Experiments {
        Experiments::new(0.02)
    }

    #[test]
    fn fig2_sched_time_filter_is_cheaper_than_ls() {
        let e = harness();
        let pair = e.fig2();
        // Every threshold's geometric-mean work ratio must be below 1.
        let cols = pair.sched_time.headers().len();
        for row in 0..pair.sched_time.row_count() {
            let v: f64 = pair.sched_time.cell(row, cols - 1).parse().unwrap();
            assert!(v < 1.0, "filtered scheduling must beat always-scheduling, got {v}");
        }
    }

    #[test]
    fn fig2_app_time_between_ls_and_ns() {
        let e = harness();
        let pair = e.fig2();
        let cols = pair.app_time.headers().len();
        let ls: f64 = pair.app_time.cell(0, cols - 1).parse().unwrap();
        assert!(ls < 1.0, "always-scheduling should improve app time");
        for row in 1..pair.app_time.row_count() {
            let v: f64 = pair.app_time.cell(row, cols - 1).parse().unwrap();
            assert!(v <= 1.005, "filters must not noticeably degrade app time, got {v}");
            assert!(v >= ls - 0.01, "filters cannot beat LS by construction margin, got {v} vs {ls}");
        }
    }

    #[test]
    fn fig3_fp_suite_benefits_more() {
        let e = harness();
        let jvm = e.fig2();
        let fp = e.fig3();
        let jc = jvm.app_time.headers().len();
        let fc = fp.app_time.headers().len();
        let jvm_ls: f64 = jvm.app_time.cell(0, jc - 1).parse().unwrap();
        let fp_ls: f64 = fp.app_time.cell(0, fc - 1).parse().unwrap();
        assert!(fp_ls < jvm_ls, "FP suite should gain more from scheduling ({fp_ls} vs {jvm_ls})");
    }

    #[test]
    fn fig4_is_ripper_format() {
        let e = harness();
        let s = e.fig4();
        assert!(s.contains("list :-") || s.contains("orig :- (default)"), "got: {s}");
    }
}
