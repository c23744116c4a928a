//! What `repro` prints: every artifact rendered to one writer, with
//! progress notes and wall-clock columns kept apart on another, so
//! the first is a pure function of the corpus scale and the artifact
//! list.

use crate::{table1, table2, table7, Experiments, ServeLoad, Table};
use std::io::{self, Write};
use wts_core::MatrixRun;

/// Every artifact `all` stands for, in the order it renders them.
pub const ALL_ARTIFACTS: [&str; 23] = [
    "table1",
    "table2",
    "table3",
    "table4",
    "table5",
    "table6",
    "table7",
    "fig1",
    "fig2",
    "fig3",
    "fig4",
    "calibrate",
    "learners",
    "machines",
    "policies",
    "superblocks",
    "superblock",
    "adaptive",
    "selftrain",
    "matrix",
    "portfolio",
    "verify",
    "lint",
];

/// The artifacts rendered only when named: `factory` prints the
/// whole-corpus filter and `serve` runs a live, wall-clock-timed
/// serving load.
pub const ON_REQUEST: [&str; 2] = ["factory", "serve"];

/// Renders `artifacts` (names from [`ALL_ARTIFACTS`] or [`ON_REQUEST`],
/// or `all`) over a harness at corpus `scale`.
///
/// Every table goes to `out` with its wall-clock columns left out; those
/// columns, and the progress notes, go to `log`. Apart from `serve`, what
/// `out` receives depends only on `scale` and `artifacts`.
///
/// # Errors
///
/// An unknown artifact name is an [`io::ErrorKind::InvalidInput`] error,
/// returned before anything is traced; write errors pass through.
pub fn render(scale: f64, artifacts: &[String], out: &mut dyn Write, log: &mut dyn Write) -> io::Result<()> {
    let mut names: Vec<&str> = Vec::new();
    for a in artifacts {
        match a.as_str() {
            "all" => names.extend(ALL_ARTIFACTS),
            a if ALL_ARTIFACTS.contains(&a) || ON_REQUEST.contains(&a) => names.push(a),
            a => return Err(io::Error::new(io::ErrorKind::InvalidInput, format!("unknown artifact: {a}"))),
        }
    }
    writeln!(log, "# repro: scale={scale} artifacts={names:?}")?;

    // Static tables need no harness.
    let harness = if names.iter().any(|a| !matches!(*a, "table1" | "table2" | "table7")) {
        writeln!(log, "# generating suites and tracing (this is the expensive step)...")?;
        Some(Experiments::new(scale))
    } else {
        None
    };
    // The registry sweeps are the most expensive phase: `matrix`,
    // `portfolio`, `superblock` and `lint` share one block-scope
    // MatrixRun, and `superblock` and `lint` one superblock-scope run.
    let mut block_sweep: Option<MatrixRun> = None;
    let mut superblock_sweep: Option<MatrixRun> = None;
    const BLOCK_NOTE: &str = "# tracing the FP suite on every registry machine...";

    for name in names {
        let tables = match name {
            "table1" => vec![table1()],
            "table2" => vec![table2()],
            "table7" => vec![table7()],
            name => {
                let e = harness.as_ref().expect("harness built");
                match name {
                    "table3" => vec![e.table3()],
                    "table4" => vec![e.table4()],
                    "table5" => vec![e.table5()],
                    "table6" => vec![e.table6()],
                    "fig1" | "fig2" | "fig3" => {
                        let pair = match name {
                            "fig1" => e.fig1(),
                            "fig2" => e.fig2(),
                            _ => e.fig3(),
                        };
                        writeln!(out, "{pair}")?;
                        log_wall_clock(&pair.sched_time, log)?;
                        continue;
                    }
                    "fig4" => {
                        writeln!(out, "{}", e.fig4())?;
                        continue;
                    }
                    "factory" => {
                        writeln!(out, "{}", e.factory_filter())?;
                        continue;
                    }
                    "calibrate" => vec![e.calibrate()],
                    "learners" => vec![e.learners()],
                    "machines" => vec![e.machines()],
                    "policies" => vec![e.policies()],
                    "superblocks" => vec![e.superblocks()],
                    "adaptive" => vec![e.adaptive()],
                    "selftrain" => vec![e.selftrain()],
                    "verify" => {
                        writeln!(log, "# checking the pipeline on every registry machine x policy x scope...")?;
                        vec![e.verify()]
                    }
                    "matrix" => {
                        let m = cached(&mut block_sweep, BLOCK_NOTE, log, || e.matrix())?;
                        vec![e.machine_sweep(m), e.cross_machine(m), e.filter_overhead(m), e.calibration(m)]
                    }
                    "portfolio" => {
                        let m = cached(&mut block_sweep, BLOCK_NOTE, log, || e.matrix())?;
                        writeln!(log, "# training every backend on every machine...")?;
                        vec![e.portfolio(m), e.calibration(m)]
                    }
                    "superblock" | "lint" => {
                        let m = cached(&mut block_sweep, BLOCK_NOTE, log, || e.matrix())?;
                        let note = "# re-tracing at superblock scope on every registry machine...";
                        let sb = cached(&mut superblock_sweep, note, log, || e.superblock_matrix())?;
                        if name == "lint" {
                            writeln!(log, "# linting every machine x learner x scope filter and the serving core...")?;
                            vec![e.lint(m, sb)]
                        } else {
                            vec![e.superblock_scope(m, sb)]
                        }
                    }
                    "serve" => {
                        writeln!(log, "# serving the jvm98 suite under concurrent load with online retraining...")?;
                        vec![e.serve(ServeLoad::default())]
                    }
                    _ => unreachable!("validated above"),
                }
            }
        };
        for t in &tables {
            writeln!(out, "{t}")?;
            log_wall_clock(t, log)?;
        }
    }
    Ok(())
}

/// The registry sweep in `cache`, built (with a progress `note`) on
/// first use.
fn cached<'a>(
    cache: &'a mut Option<MatrixRun>,
    note: &str,
    log: &mut dyn Write,
    build: impl FnOnce() -> MatrixRun,
) -> io::Result<&'a MatrixRun> {
    if cache.is_none() {
        writeln!(log, "{note}")?;
    }
    Ok(cache.get_or_insert_with(build))
}

/// Writes the wall-clock columns `t`'s `Display` leaves out, if it has
/// any, to `log`.
fn log_wall_clock(t: &Table, log: &mut dyn Write) -> io::Result<()> {
    match t.wall_clock() {
        Some(clock) => writeln!(log, "{clock}"),
        None => Ok(()),
    }
}
