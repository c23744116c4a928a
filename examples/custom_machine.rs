//! Define a custom machine model with the builder, stand it next to the
//! registry, and see how the value of scheduling — and therefore of the
//! filter — depends on the hardware's own dynamism (paper §3.1's
//! discussion of older, less dynamic processors).
//!
//! ```text
//! cargo run --release --example custom_machine
//! ```

use schedfilter::filters::{app_time_ratio, collect_trace, predicted_time_ratio};
use schedfilter::prelude::*;
use schedfilter::ripper::geometric_mean;

fn main() {
    // A hypothetical in-order core sitting between the registry's
    // "embedded" (slow everything) and "ppc7410" (the paper's target):
    // slow memory and very slow FP, but regular integer latencies.
    let hybrid = MachineConfig::builder("hybrid-core")
        .latency(Opcode::Lwz, 5)
        .latency(Opcode::Lfd, 6)
        .latency(Opcode::Fadd, 8)
        .latency(Opcode::Fmul, 10)
        .build();

    let mut machines = registry();
    machines.push(hybrid);
    let suite = Suite::fp(0.1);

    println!("How much does always-scheduling help, per machine (FP suite)?\n");
    println!("{:<16} {:>14} {:>14}", "machine", "predicted LS%", "app-time LS");
    for machine in &machines {
        let mut pred = Vec::new();
        let mut app = Vec::new();
        for bench in suite.benchmarks() {
            let traces = collect_trace(bench.program(), machine, &TraceOptions::default());
            pred.push(predicted_time_ratio(&traces, &CompiledFilter::always()));
            app.push(app_time_ratio(&traces, &CompiledFilter::always()));
        }
        println!("{:<16} {:>13.2}% {:>14.3}", machine.name(), geometric_mean(&pred), geometric_mean(&app),);
    }
    println!("\nLess dynamic hardware (smaller window, longer latencies) gains more from");
    println!("static scheduling — which makes deciding *whether* to schedule matter more.");
    println!("Add your own target: MachineConfig::builder(..) + a row in wts_machine::REGISTRY.");
}
