//! Train a "whether to schedule" filter exactly as the paper does:
//! trace the suite, label with a threshold, induce rules with RIPPER,
//! and print the resulting heuristic in Figure 4's format.
//!
//! ```text
//! cargo run --release --example train_filter [-- <scale> <threshold>]
//! ```

use schedfilter::filters::{classification_matrix, collect_trace, train_filter, train_loocv, LabelConfig, TrainConfig};
use schedfilter::prelude::*;

fn main() {
    let mut args = std::env::args().skip(1);
    let scale: f64 = args.next().and_then(|s| s.parse().ok()).unwrap_or(0.2);
    let threshold: u32 = args.next().and_then(|s| s.parse().ok()).unwrap_or(20);

    println!("generating SPECjvm98-like suite at scale {scale}...");
    let machine = MachineConfig::ppc7410();
    let suite = Suite::specjvm98(scale);

    println!("tracing (instrumented scheduling pass over every block)...");
    let mut traces = Vec::new();
    for bench in suite.benchmarks() {
        traces.extend(collect_trace(bench.program(), &machine, &TraceOptions::default()));
    }
    println!("  {} blocks traced", traces.len());

    let config = TrainConfig::with_threshold(threshold);

    // The "at the factory" filter, trained on everything.
    println!("\ntraining the factory filter at t={threshold}% (RIPPER)...");
    let factory = train_filter(&traces, &config);
    println!("{}", factory.rules());

    // The evaluation protocol: leave one benchmark out.
    println!("leave-one-benchmark-out error rates at t={threshold}%:");
    for (bench, filter) in train_loocv(&traces, &config, 1) {
        let own: Vec<_> = traces.iter().filter(|r| r.benchmark == bench).cloned().collect();
        let m = classification_matrix(&own, &filter.compile(), LabelConfig::new(threshold));
        println!(
            "  {bench:<10} error {:>5.2}%  (predicts LS for {} of {} blocks)",
            m.error_percent(),
            m.predicted_positive(),
            m.total(),
        );
    }
}
