//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <jit_compile|train_loocv|serve_methods|serve_retrain>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Builds the workload's inputs from the seed, sets up several times
//! (reporting the median), measures for the given seconds, checks every
//! output outside the timed window and prints a table of metrics followed
//! by one JSON line: `{"correct", "attempted", "failed", "metrics"}`.
//! With `--trace 0` the metrics are the end-to-end ones; with
//! `--trace 1` a separate traced replay reports the per-layer ones.
//! `perfbench/README.md` documents every metric.

mod check;
mod inputs;
mod jit;
mod layers;
mod probe;
mod serve;
mod span;
mod stats;
mod train;

use std::time::{Duration, Instant};
use wts_machine::MachineConfig;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

/// What every workload receives.
pub struct Ctx {
    /// The modelled machine.
    pub machine: MachineConfig,
    /// Workload seed, XORed into every benchmark spec's seed.
    pub seed: u64,
    /// Measurement window.
    pub seconds: Duration,
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Samples behind the value.
    pub samples: usize,
    /// How the value was taken, for the printed table.
    pub note: String,
}

impl Metric {
    /// A metric with an empty note.
    pub fn new(name: &'static str, unit: &'static str, value: f64, samples: usize) -> Metric {
        Metric { name, unit, value, samples, note: String::new() }
    }

    /// Attaches a note.
    pub fn note(mut self, note: impl Into<String>) -> Metric {
        self.note = note.into();
        self
    }
}

/// The result of one run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed, refused or with a wrong output.
    pub failed: u64,
    /// Metrics in report order.
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the table.
    pub notes: Vec<String>,
}

/// Times `f` `SETUP_REPS` times, keeping the last result. Earlier
/// results are handed to `discard` outside the timed window.
pub fn timed_setup<T>(mut f: impl FnMut() -> T, mut discard: impl FnMut(T)) -> (Vec<f64>, T) {
    let mut samples = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        if let Some(prev) = last.take() {
            discard(prev);
        }
        let t = Instant::now();
        last = Some(f());
        samples.push(t.elapsed().as_secs_f64());
    }
    (samples, last.expect("SETUP_REPS is at least 1"))
}

/// Peak resident set size of this process, MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Rate and latency figures of a run, each with how it was taken.
pub struct Timing {
    /// Scope units completed per second.
    pub rate: f64,
    /// Median latency, µs.
    pub p50: f64,
    /// Tail latency, µs.
    pub tail: f64,
    /// Latency samples behind the figures.
    pub samples: usize,
    /// How `rate`, `p50` and `tail` were taken.
    pub notes: [String; 3],
}

impl Timing {
    /// The calm figures of `pieces` (see [`stats::calm`]); NaN when
    /// there are none. `what` names a piece.
    pub fn calm(pieces: &[stats::Piece], what: &str) -> Timing {
        let samples = pieces.iter().map(|p| p.lat_us.len()).sum();
        let Some(c) = stats::calm(pieces) else {
            let none = || format!("no {what} to measure");
            return Timing { rate: f64::NAN, p50: f64::NAN, tail: f64::NAN, samples, notes: [none(), none(), none()] };
        };
        let (n, rq, lq) = (c.pieces, 100.0 * stats::CALM_RATE_Q, 100.0 * stats::CALM_LATENCY_Q);
        Timing {
            rate: c.rate,
            p50: c.p50,
            tail: c.tail,
            samples,
            notes: [
                format!("q{rq} of {n} {what}' units/s"),
                format!("q{lq} of {n} {what}' medians"),
                format!("q{lq} of {n} {what}' p{}; {samples} samples", c.tail_p),
            ],
        }
    }
}

/// Inputs of the end-to-end metrics every workload reports.
pub struct EndToEnd {
    /// Set-up times, s.
    pub setup: Vec<f64>,
    /// Scope units completed.
    pub units: u64,
    /// Rate and latencies.
    pub timing: Timing,
    /// Operations attempted and failed.
    pub attempted: u64,
    /// Failed operations.
    pub failed: u64,
    /// Benefit retained, and how many units it covers.
    pub benefit: (f64, usize),
    /// Decision error percent, and how many units (or folds) it covers.
    pub error_pct: (f64, usize),
    /// What an operation is on this workload.
    pub op: &'static str,
}

impl EndToEnd {
    /// The end-to-end metrics, in `BENCHMARK.json` order.
    pub fn metrics(&self) -> Vec<Metric> {
        let setup = stats::median(&self.setup).unwrap_or(f64::NAN);
        let t = &self.timing;
        let success = stats::failed_share(self.failed, self.attempted).map_or(f64::NAN, |f| 1.0 - f);
        vec![
            Metric::new("setup_s", "s", setup, self.setup.len()).note("median of set-ups"),
            Metric::new("peak_rss_mib", "MiB", peak_rss_mib(), 1).note("VmHWM"),
            Metric::new("units_per_s", "1/s", t.rate, self.units as usize).note(t.notes[0].clone()),
            Metric::new("latency_p50_us", "us", t.p50, t.samples).note(format!("per {}; {}", self.op, t.notes[1])),
            Metric::new("latency_p99_us", "us", t.tail, t.samples).note(t.notes[2].clone()),
            Metric::new("success_share", "share", success, self.attempted as usize).note(format!(
                "failed_share={} ({} of {})",
                1.0 - success,
                self.failed,
                self.attempted
            )),
            Metric::new("benefit_retained", "share", self.benefit.0, self.benefit.1),
            Metric::new("decision_error_pct", "%", self.error_pct.0, self.error_pct.1),
        ]
    }
}

/// Restricts the calling thread, and every thread it starts from now on,
/// to the last CPU it may run on. Returns whether that took effect.
///
/// Every workload runs on one CPU. Spread over a shared host's virtual
/// CPUs, each hand-off between threads (pipeline stages, `shard_map`
/// workers, serve clients, readers, workers and the retrainer) can wake
/// an idle virtual CPU, whose wake-up time depends on the host's other
/// tenants and swung the same run by a quarter from one run to the next;
/// on one CPU the hand-offs are plain context switches.
fn pin_to_one_cpu() -> bool {
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    let mut mask = [0u64; 16];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a live, writable buffer of exactly `size` bytes,
    // and pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
        return false;
    }
    let Some(cpu) = (0..64 * mask.len()).rev().find(|&c| mask[c / 64] >> (c % 64) & 1 == 1) else {
        return false;
    };
    let mut one = [0u64; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a live buffer of exactly `size` bytes, and pid 0
    // names the calling thread.
    unsafe { sched_setaffinity(0, size, one.as_ptr()) == 0 }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 0u64, 10u64, false);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => trace = value == "1",
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args { workload, seed, seconds, trace })
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let pinned = pin_to_one_cpu();
    let ctx = Ctx { machine: MachineConfig::ppc7410(), seed: args.seed, seconds: Duration::from_secs(args.seconds) };
    let run = match (args.workload.as_str(), args.trace) {
        ("jit_compile", false) => jit::run,
        ("jit_compile", true) => jit::traced,
        ("train_loocv", false) => train::run,
        ("train_loocv", true) => train::traced,
        ("serve_methods", false) => serve::run_methods,
        ("serve_methods", true) => serve::traced_methods,
        ("serve_retrain", false) => serve::run_retrain,
        ("serve_retrain", true) => serve::traced_retrain,
        (other, _) => {
            eprintln!("perfbench: unknown workload {other}");
            std::process::exit(2);
        }
    };
    let out: Outcome = run(&ctx);
    let correct = out.failed == 0
        && out.attempted > 0
        && out.metrics.iter().all(|m| m.value.is_finite() && stats::valid_name(m.name) && stats::valid_unit(m.unit));
    println!("# pinned to one CPU: {pinned}");
    for line in &out.notes {
        println!("# {line}");
    }
    for m in &out.metrics {
        println!("{:<34} {:>16.6} {:<6} samples={:<8} {}", m.name, m.value, m.unit, m.samples, m.note);
    }
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, json_number(m.value), m.unit))
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted,
        out.failed,
        metrics.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}
