//! `repro` — regenerates every table and figure of Cavazos & Moss 2004.
//!
//! ```text
//! repro [--scale X] [ARTIFACT...]
//!
//! ARTIFACTs: table1 table2 table3 table4 table5 table6 table7
//!            fig1 fig2 fig3 fig4
//!            calibrate learners machines policies factory serve
//!            superblocks superblock adaptive selftrain matrix portfolio
//!            verify lint
//!            all          (default: everything above)
//! ```
//!
//! `superblocks` is the per-benchmark gain table; `superblock` is the
//! cross-machine *scope* scenario — the full pipeline per registry
//! machine at block and superblock scope side by side.
//!
//! `serve` (like `factory`, not part of `all`) runs the serving-layer
//! load generator: a live `wts-serve` instance under concurrent
//! clients with online retraining hot-swapping the filter.

use std::process::ExitCode;
use wts_experiments::{
    table1, table2, table7, Experiments, ServeLoad, CALIBRATION_OPERATING_POINT, PORTFOLIO_TOLERANCE,
};

const USAGE: &str = "usage: repro [--scale X] [table1..table7|fig1..fig4|calibrate|learners|machines|policies|factory|serve|superblocks|superblock|adaptive|selftrain|matrix|portfolio|verify|lint|all]...";

fn main() -> ExitCode {
    let mut scale = 1.0f64;
    let mut artifacts: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--scale" => {
                let Some(v) = args.next().and_then(|s| s.parse::<f64>().ok()) else {
                    eprintln!("--scale needs a positive number\n{USAGE}");
                    return ExitCode::FAILURE;
                };
                scale = v;
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => artifacts.push(other.to_string()),
        }
    }
    if scale <= 0.0 {
        eprintln!("scale must be positive\n{USAGE}");
        return ExitCode::FAILURE;
    }
    if artifacts.is_empty() {
        artifacts.push("all".into());
    }
    let all = [
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
    if artifacts.iter().any(|a| a == "all") {
        artifacts = all.iter().map(|s| s.to_string()).collect();
    }
    for a in &artifacts {
        if !all.contains(&a.as_str()) && a != "factory" && a != "serve" {
            eprintln!("unknown artifact: {a}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    }

    // Static tables need no harness.
    let needs_harness = artifacts.iter().any(|a| !matches!(a.as_str(), "table1" | "table2" | "table7"));
    eprintln!("# repro: scale={scale} artifacts={artifacts:?}");
    let harness = if needs_harness {
        eprintln!("# generating suites and tracing (this is the expensive step)...");
        Some(Experiments::new(scale))
    } else {
        None
    };

    // The registry sweeps are the most expensive phase: `matrix`,
    // `portfolio`, `superblock` and `lint` share one block-scope
    // MatrixRun, and `superblock` and `lint` one superblock-scope run.
    let mut matrix_run: Option<wts_core::MatrixRun> = None;
    let mut superblock_run: Option<wts_core::MatrixRun> = None;

    for a in &artifacts {
        match a.as_str() {
            "table1" => println!("{}", table1()),
            "table2" => println!("{}", table2()),
            "table7" => println!("{}", table7()),
            name => {
                let e = harness.as_ref().expect("harness built");
                match name {
                    "table3" => println!("{}", e.table3()),
                    "table4" => println!("{}", e.table4()),
                    "table5" => println!("{}", e.table5()),
                    "table6" => println!("{}", e.table6()),
                    "fig1" => println!("{}", e.fig1()),
                    "fig2" => println!("{}", e.fig2()),
                    "fig3" => println!("{}", e.fig3()),
                    "fig4" => println!("{}", e.fig4()),
                    "calibrate" => println!("{}", e.calibrate()),
                    "learners" => println!("{}", e.learners(20)),
                    "machines" => println!("{}", e.machines()),
                    "policies" => println!("{}", e.policies()),
                    "superblocks" => println!("{}", e.superblocks()),
                    "verify" => {
                        eprintln!("# checking the pipeline on every registry machine x policy x scope...");
                        println!("{}", e.verify());
                    }
                    "lint" => {
                        let m = matrix_run.get_or_insert_with(|| {
                            eprintln!("# tracing the FP suite on every registry machine...");
                            e.matrix()
                        });
                        let sb = superblock_run.get_or_insert_with(|| {
                            eprintln!("# re-tracing at superblock scope on every registry machine...");
                            e.superblock_matrix()
                        });
                        eprintln!("# linting every machine x learner x scope filter and the serving core...");
                        println!("{}", e.lint(m, sb));
                    }
                    "superblock" => {
                        let m = matrix_run.get_or_insert_with(|| {
                            eprintln!("# tracing the FP suite on every registry machine...");
                            e.matrix()
                        });
                        let sb = superblock_run.get_or_insert_with(|| {
                            eprintln!("# re-tracing at superblock scope on every registry machine...");
                            e.superblock_matrix()
                        });
                        println!("{}", e.superblock_scope(m, sb, 0));
                    }
                    "adaptive" => println!("{}", e.adaptive(100)),
                    "selftrain" => println!("{}", e.selftrain(20)),
                    "matrix" => {
                        let m = matrix_run.get_or_insert_with(|| {
                            eprintln!("# tracing the FP suite on every registry machine...");
                            e.matrix()
                        });
                        println!("{}", e.machine_sweep(m));
                        println!("{}", e.cross_machine(m, 0));
                        println!("{}", e.filter_overhead(m, 0));
                        println!("{}", e.calibration(m, 0, CALIBRATION_OPERATING_POINT));
                    }
                    "portfolio" => {
                        let m = matrix_run.get_or_insert_with(|| {
                            eprintln!("# tracing the FP suite on every registry machine...");
                            e.matrix()
                        });
                        eprintln!("# training every backend on every machine...");
                        println!("{}", e.portfolio(m, 0, PORTFOLIO_TOLERANCE));
                        println!("{}", e.calibration(m, 0, CALIBRATION_OPERATING_POINT));
                    }
                    "factory" => println!("{}", e.factory_filter(20)),
                    "serve" => {
                        eprintln!("# serving the jvm98 suite under concurrent load with online retraining...");
                        println!("{}", e.serve(ServeLoad::default()));
                    }
                    _ => unreachable!("validated above"),
                }
            }
        }
    }
    ExitCode::SUCCESS
}
