//! Run the whole serving loop in one process: bind a filter service,
//! drive it with a client, watch the retrainer hot-swap the deployed
//! filter mid-flight, and drain it gracefully.
//!
//! ```text
//! cargo run --release --example serve_demo [-- <scale>]
//! ```

use schedfilter::filters::{collect_trace, LearnerKind, TraceOptions};
use schedfilter::prelude::*;
use schedfilter::serve::Response;

fn main() {
    let scale: f64 = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(0.2);
    let machine = MachineConfig::ppc7410();

    // Seed the service "at the factory": trace the SPECjvm98-like suite
    // and let bind train + deploy the epoch-1 filter from it.
    println!("seeding from the SPECjvm98-like suite (scale {scale})...");
    let jvm98 = Suite::specjvm98(scale);
    let mut seed = Vec::new();
    for bench in jvm98.benchmarks() {
        seed.extend(collect_trace(bench.program(), &machine, &TraceOptions::default()));
    }
    println!("  {} trace records", seed.len());

    let mut config = ServeConfig::new(machine, seed);
    config.learner = LearnerKind::Stump; // retraining in microseconds
    config.retrain_every = 200;
    let handle = Server::bind("127.0.0.1:0", config).expect("bind");
    println!("serving {} on {} (epoch {})\n", handle.key(), handle.local_addr(), handle.epoch());

    // Now ship it traffic it has never seen — the FP suite — and watch
    // the observed records fold back into the filter.
    let fp = Suite::fp(scale);
    let mut client = ServeClient::connect(handle.local_addr()).expect("connect");
    println!("{:<12} {:>7} {:>10} {:>7}", "benchmark", "blocks", "scheduled", "epoch");
    for round in 0..3u64 {
        for (i, bench) in fp.benchmarks().iter().enumerate() {
            let program = bench.program();
            let id = round * 100 + i as u64;
            match client.request_with_retry(id, program.name(), program.methods(), 8).expect("request") {
                Response::Batch(batch) => {
                    println!(
                        "{:<12} {:>7} {:>10} {:>7}",
                        program.name(),
                        batch.totals.total_blocks,
                        batch.totals.scheduled_blocks,
                        batch.epoch
                    );
                }
                other => panic!("unexpected response {other:?}"),
            }
        }
    }

    let report = handle.shutdown();
    println!(
        "\ndrained: {} units served, {} records absorbed, {} retrain folds, final epoch {}",
        report.stats.units_served, report.retrain.records_absorbed, report.retrain.retrains, report.retrain.last_epoch
    );
    assert_eq!(report.retrain.records_absorbed, report.stats.units_served, "the drain is lossless");
    println!("The epoch column should climb as served traffic folds back into the filter.");
}
