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
//!            all          (default: everything above but factory and serve)
//! ```
//!
//! `superblocks` is the per-benchmark gain table; `superblock` is the
//! cross-machine *scope* scenario — the full pipeline per registry
//! machine at block and superblock scope side by side.
//!
//! `serve` (like `factory`, not part of `all`) runs the serving-layer
//! load generator: a live `wts-serve` instance under concurrent
//! clients with online retraining hot-swapping the filter.
//!
//! Stdout is what [`wts_experiments::render`] writes: apart from
//! `serve`, it depends only on the scale and the artifact list, and
//! `tests/golden.rs` pins it. Progress notes and the wall-clock columns
//! (Figures 1–3 (a)'s `Measured gm`, `adaptive`'s `Pass µs`,
//! `calibrate`'s `ns/blk`) go to stderr.

use std::process::ExitCode;

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
    match wts_experiments::render(scale, &artifacts, &mut std::io::stdout().lock(), &mut std::io::stderr()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}
