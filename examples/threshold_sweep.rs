//! Sweep the two deployment knobs: the labeling threshold `t` (the
//! paper's noise-reduction knob, §4.4) and — the main act — the
//! decision policy's operating point `cycles_per_work`, which tunes how
//! many application cycles one unit of compile-time work is worth
//! *without retraining anything*.
//!
//! ```text
//! cargo run --release --example threshold_sweep [-- <scale>]
//! ```

use schedfilter::filters::{collect_trace, oracle_times, sched_time_ratio, train_loocv, BenefitModel, TrainConfig};
use schedfilter::prelude::*;
use schedfilter::ripper::geometric_mean;

/// The labeling threshold of the operating-point sweep: `t = 0`
/// partitions every unit into LS/NS, so the policies see the richest
/// score distribution.
const T: u32 = 0;

fn main() {
    let scale: f64 = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(0.15);
    let machine = MachineConfig::ppc7410();
    let suite = Suite::specjvm98(scale);

    println!("tracing SPECjvm98-like suite at scale {scale}...");
    let mut traces = Vec::new();
    for bench in suite.benchmarks() {
        traces.extend(collect_trace(bench.program(), &machine, &TraceOptions::default()));
    }
    let own = |bench: &str| -> Vec<TraceRecord> { traces.iter().filter(|r| r.benchmark == bench).cloned().collect() };

    // One trained filter per fold, at one labeling threshold — the
    // sweep below never retrains, only re-prices work.
    let folds = train_loocv(&traces, &TrainConfig::with_threshold(T), 1);

    // First knob, briefly: the labeling threshold moves how much the
    // filter schedules at all.
    println!("\nlabeling threshold (hard policy):");
    println!("{:>4} {:>10} {:>12}", "t%", "LS insts", "sched ratio");
    for t in (0..=50).step_by(25) {
        let config = TrainConfig::with_threshold(t);
        let ls_count = traces.iter().filter(|r| LabelConfig::new(t).label(r) == Some(true)).count();
        let fold_filters = train_loocv(&traces, &config, 1);
        let sched: Vec<f64> = fold_filters
            .iter()
            .map(|(bench, f)| sched_time_ratio(&own(bench), f.compiled(), &DecisionPolicy::HardThreshold).work_ratio())
            .collect();
        println!("{t:>4} {ls_count:>10} {:>12.3}", geometric_mean(&sched));
    }

    // Second knob, the policy layer: the *same* trained filters, with
    // the schedule/skip call re-priced at different operating points.
    // Each fold's benefit model is calibrated on the other benchmarks'
    // traces, mirroring the LOOCV training protocol.
    println!("\noperating-point sweep (t={T}, same filters throughout):");
    println!(
        "{:>8} {:>8} {:>10} {:>14} {:>14} {:>14}",
        "c", "policy", "scheduled", "net cycles", "hard net", "oracle net"
    );
    for c in [0.0, 0.25, 1.0, 4.0, 16.0, 256.0] {
        let mut hard = schedfilter::filters::EvalTimes::default();
        let mut eb = schedfilter::filters::EvalTimes::default();
        let mut oracle = schedfilter::filters::EvalTimes::default();
        for (bench, filter) in &folds {
            let tr = own(bench);
            hard.accumulate(&sched_time_ratio(&tr, filter.compiled(), &DecisionPolicy::HardThreshold));
            let others: Vec<&TraceRecord> = traces.iter().filter(|r| &r.benchmark != bench).collect();
            let policy = DecisionPolicy::ExpectedBenefit(BenefitModel::calibrate(others, c));
            eb.accumulate(&sched_time_ratio(&tr, filter.compiled(), &policy));
            oracle.accumulate(&oracle_times(&tr, c));
        }
        println!(
            "{c:>8.2} {:>8} {:>6}/{:<3} {:>14.0} {:>14.0} {:>14.0}",
            "eb",
            eb.pass.scheduled_blocks,
            eb.pass.total_blocks,
            eb.net_cycles(c),
            hard.net_cycles(c),
            oracle.net_cycles(c),
        );
    }
    println!(
        "\nRaising c makes compile-time work dearer: the expected-benefit policy\n\
         slides from schedule-almost-everything to schedule-nothing while the\n\
         hard policy stays fixed; the oracle column is the non-deployable ceiling.\n\
         Pick c per deployment (JIT: high, AOT: low) — no retraining needed."
    );
}
