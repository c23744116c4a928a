//! Regeneration of every table and figure in Cavazos & Moss (PLDI 2004).
//!
//! [`Experiments`] generates the two benchmark suites and hands each to
//! a [`wts_core::Experiment`] pipeline, which traces (method-sharded
//! across threads), labels, trains (fold-sharded LOOCV, cached per
//! threshold) and evaluates. Every table/figure method is a thin view
//! over the resulting [`ExperimentRun`]s. The `repro` binary drives it:
//!
//! ```text
//! repro --scale 1.0 all          # everything, paper-sized corpus
//! repro table3                   # one artifact
//! repro --scale 0.1 fig2         # quick look
//! repro --scale 0.1 matrix       # cross-machine sweep over the registry
//! ```
//!
//! Methods return [`Table`]s (or strings for Figure 4) so tests can assert
//! on cells; `Display` renders the paper-style text.

mod extensions;
mod figures;
mod lint;
mod matrix;
mod render;
mod serve;
mod statics;
mod table;
mod tables;
mod verify;

pub use render::{render, ALL_ARTIFACTS, ON_REQUEST};
pub use serve::ServeLoad;
pub use statics::{table1, table2, table7};
pub use table::Table;

use wts_core::{Experiment, ExperimentRun};
use wts_jit::Suite;
use wts_machine::MachineConfig;

/// The threshold sweep of the paper: 0..=50 percent in steps of 5.
pub const THRESHOLDS: [u32; 11] = [0, 5, 10, 15, 20, 25, 30, 35, 40, 45, 50];

/// The threshold of the single-threshold jvm98 extensions (`learners`,
/// `selftrain`, `adaptive`'s filter, `factory`) and of Figure 4: the
/// paper's best, t=20.
const BEST_THRESHOLD: u32 = 20;

/// The threshold of the registry-sweep tables (`matrix`, `portfolio`,
/// `superblock`): t=0, where every unit that gains at all is `LS`.
const SWEEP_THRESHOLD: u32 = 0;

/// The superblock formation ratio (percent) every scope artifact uses:
/// a successor within `0.70×..1/0.70×` of the trace entry's count
/// extends the trace.
pub const SUPERBLOCK_RATIO: u32 = 70;

/// Which suite an artifact is computed over.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SuiteKind {
    /// The SPECjvm98-like suite (Tables 2–6, Figures 1, 2, 4).
    Jvm98,
    /// The floating-point suite (Table 7, Figure 3).
    Fp,
}

/// The experiment harness: one completed pipeline run per suite.
pub struct Experiments {
    machine: MachineConfig,
    scale: f64,
    jvm98: ExperimentRun,
    fp: ExperimentRun,
}

impl Experiments {
    /// Builds the harness at the given corpus scale (1.0 = paper-sized,
    /// ~45k jvm98 blocks; tests use 0.02–0.1). LOOCV training shards
    /// across all cores; tracing stays serial so the wall-clock `*_ns`
    /// channels behind the calibrate table and the figures' measured
    /// column are free of multi-worker contention noise.
    pub fn new(scale: f64) -> Experiments {
        let machine = MachineConfig::ppc7410();
        let pipeline = Experiment::new(machine.clone()).with_trace_threads(1);
        let jvm98 = pipeline.run(suite_programs(&Suite::specjvm98(scale)));
        let fp = pipeline.run(suite_programs(&Suite::fp(scale)));
        Experiments { machine, scale, jvm98, fp }
    }

    /// The corpus scale this harness was built at.
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// The modelled machine.
    pub fn machine(&self) -> &MachineConfig {
        &self.machine
    }

    /// The completed pipeline run for one suite.
    pub fn run(&self, kind: SuiteKind) -> &ExperimentRun {
        match kind {
            SuiteKind::Jvm98 => &self.jvm98,
            SuiteKind::Fp => &self.fp,
        }
    }
}

fn suite_programs(suite: &Suite) -> Vec<wts_ir::Program> {
    suite.benchmarks().iter().map(|b| b.program().clone()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn harness() -> Experiments {
        Experiments::new(0.02)
    }

    #[test]
    fn builds_both_suites() {
        let e = harness();
        assert_eq!(e.run(SuiteKind::Jvm98).names().len(), 7);
        assert_eq!(e.run(SuiteKind::Fp).names().len(), 6);
        assert!(e.run(SuiteKind::Jvm98).all_traces().len() > 100);
        assert!((e.scale() - 0.02).abs() < 1e-12);
    }

    #[test]
    fn loocv_is_cached() {
        let e = harness();
        let a = e.run(SuiteKind::Jvm98).loocv_filters(0);
        let b = e.run(SuiteKind::Jvm98).loocv_filters(0);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(a.len(), 7);
    }

    #[test]
    fn filter_for_each_benchmark_exists() {
        let e = harness();
        let run = e.run(SuiteKind::Jvm98);
        for name in run.names().to_vec() {
            let f = run.filter_for(0, &name);
            assert_eq!(f.threshold_percent(), 0);
        }
    }

    #[test]
    #[should_panic(expected = "no filter for benchmark")]
    fn unknown_benchmark_panics() {
        let e = harness();
        e.run(SuiteKind::Jvm98).filter_for(0, "nope");
    }
}
