//! Simulate a JIT compiling a whole program three ways — never schedule,
//! always schedule, learned filter — and compare compile effort against
//! application speed, the paper's efficiency/effectiveness trade-off.
//!
//! ```text
//! cargo run --release --example jit_session [-- <scale>]
//! ```

use schedfilter::filters::{collect_trace, train_filter, TrainConfig};
use schedfilter::jit::{app_cycles, CompileSession};
use schedfilter::prelude::*;

fn main() {
    let scale: f64 = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(0.2);
    let machine = MachineConfig::ppc7410();

    // Train a filter on the SPECjvm98-like suite ("at the factory")...
    println!("training a t=20 filter on the SPECjvm98-like suite (scale {scale})...");
    let jvm98 = Suite::specjvm98(scale);
    let mut traces = Vec::new();
    for bench in jvm98.benchmarks() {
        traces.extend(collect_trace(bench.program(), &machine, &TraceOptions::default()));
    }
    let learned = train_filter(&traces, &TrainConfig::with_threshold(20));

    // ...and deploy it on a program it has never seen (the FP suite).
    let fp = Suite::fp(scale);
    let program = fp.benchmarks()[3].program(); // voronoi
    println!(
        "\ncompiling {} ({} methods, {} blocks):\n",
        program.name(),
        program.methods().len(),
        program.block_count()
    );

    let session = CompileSession::new(&machine);
    let strategies = [
        ("NS (never schedule)", CompiledFilter::never()),
        ("LS (always schedule)", CompiledFilter::always()),
        ("L/N learned filter", learned.compiled().clone()),
    ];

    println!("{:<22} {:>9} {:>12} {:>14} {:>12}", "strategy", "scheduled", "compile µs", "app cycles", "vs NS");
    let baseline = app_cycles(program, &machine) as f64;
    for (name, filter) in &strategies {
        let (compiled, stats) = session.compile(program, filter, 1);
        let cycles = app_cycles(&compiled, &machine);
        println!(
            "{:<22} {:>4}/{:<4} {:>12.1} {:>14} {:>11.3}",
            name,
            stats.scheduled_blocks,
            stats.total_blocks,
            stats.pass_ns as f64 / 1000.0,
            cycles,
            cycles as f64 / baseline,
        );
    }
    println!("\nThe filter should land near LS on app cycles at a fraction of the compile time.");
}
