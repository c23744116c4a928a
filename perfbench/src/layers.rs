//! The traced run's per-layer metrics: probe spans and counts turned
//! into the names `BENCHMARK.json` lists, plus the attribution of the
//! traced end-to-end replay to its layers.

use crate::probe::{self, CorpusCounts, ServeCounts, UnitCounts};
use crate::span::{SelfTime, Tracer};
use crate::{Metric, Outcome};
use std::collections::BTreeMap;
use std::io::Write;
use wts_core::{FilterKey, FilterStore, LearnedFilter};
use wts_ir::{Program, ScopeKind};
use wts_machine::MachineConfig;

/// Methods per benchmark the per-unit and serve probes cover.
pub const PROBE_METHODS: usize = 160;
/// Methods per benchmark the corpus probe (tracing, RIPPER folds) covers.
pub const CORPUS_METHODS: usize = 64;
/// Records between retrain folds in the serve probe.
pub const PROBE_RETRAIN_EVERY: usize = 1000;

/// Runs every probe on the workload's inputs. `filter` is deployed under
/// `key` in `store` and decides the probed units.
pub fn probe_all(
    tr: &mut Tracer,
    machine: &MachineConfig,
    scope: ScopeKind,
    programs: &[Program],
    store: &FilterStore,
    key: &FilterKey,
) -> Probes {
    let filter: LearnedFilter = store.get(key).expect("the probed key is deployed").source().clone();
    let units = probe::probe_methods(tr, machine, scope, store, key, programs, PROBE_METHODS);
    let corpus_programs = probe::truncated(programs, CORPUS_METHODS);
    let (corpus, seed) = probe::probe_corpus(tr, machine, scope, &corpus_programs);
    let serve_programs = probe::truncated(programs, PROBE_METHODS);
    let serve = probe::probe_serve(tr, machine, scope, &serve_programs, seed, filter, PROBE_RETRAIN_EVERY)
        .unwrap_or_else(|e| {
            eprintln!("perfbench: serve probe failed: {e}");
            ServeCounts { failures: 1, ..ServeCounts::default() }
        });
    Probes { units, corpus, serve }
}

/// Everything the probes counted.
pub struct Probes {
    /// Per-unit probe counts.
    pub units: UnitCounts,
    /// Corpus probe counts.
    pub corpus: CorpusCounts,
    /// Serve probe counts.
    pub serve: ServeCounts,
}

impl Probes {
    /// Failures any probe observed.
    pub fn failures(&self) -> u64 {
        self.units.failures + self.corpus.failures + self.serve.failures
    }
}

fn ns(times: &BTreeMap<&'static str, SelfTime>, name: &str) -> f64 {
    times.get(name).map_or(0.0, |s| s.ns as f64)
}

fn per(total: f64, n: u64) -> f64 {
    total / n.max(1) as f64
}

/// Attribution of a traced end-to-end replay: roots named `root` are
/// the replayed operations; their children are layers.
pub struct Attribution {
    /// Traced end-to-end time, ns (sum of the roots).
    pub traced_ns: f64,
    /// The same operations untraced, ns.
    pub untraced_ns: f64,
    /// Root self time not covered by any layer span, ns.
    pub unattributed_ns: f64,
    /// Layer self times under the roots, ns.
    pub layers: BTreeMap<&'static str, f64>,
}

impl Attribution {
    /// Attributes the spans under roots named `root`.
    pub fn of(tr: &Tracer, root: &'static str, untraced_ns: f64) -> Attribution {
        let spans = tr.spans();
        // A span belongs to the replay when its outermost ancestor is a
        // `root` span. Parents precede their children.
        let mut top: Vec<usize> = Vec::with_capacity(spans.len());
        for (i, s) in spans.iter().enumerate() {
            top.push(s.parent.map_or(i, |p| top[p]));
        }
        let mut layers = BTreeMap::new();
        let mut unattributed_ns = 0.0;
        let mut traced_ns = 0.0;
        for ((s, &t), own) in spans.iter().zip(&top).zip(tr.self_ns()) {
            if spans[t].name != root {
                continue;
            }
            let own = own as f64;
            if s.parent.is_none() {
                traced_ns += (s.end - s.start) as f64;
                unattributed_ns += own;
            } else {
                *layers.entry(s.name).or_insert(0.0) += own;
            }
        }
        Attribution { traced_ns, untraced_ns, unattributed_ns, layers }
    }

    /// Printable lines: each layer's self time and share, the
    /// unattributed remainder and the tracing overhead.
    pub fn lines(&self, extra: &[(&str, f64)]) -> Vec<String> {
        let mut out = vec![format!(
            "traced end-to-end {:.3} ms, untraced {:.3} ms, tracing overhead {:+.2}%",
            self.traced_ns / 1e6,
            self.untraced_ns / 1e6,
            100.0 * self.overhead_share()
        )];
        for (name, v) in &self.layers {
            out.push(format!(
                "  layer {name:<28} self {:>12.3} ms  share {:>6.2}%",
                v / 1e6,
                100.0 * v / self.traced_ns
            ));
        }
        for (name, v) in extra {
            out.push(format!("  named {name:<28} {:>17.3} ms  share {:>6.2}%", v / 1e6, 100.0 * v / self.traced_ns));
        }
        out.push(format!(
            "  unattributed                        {:>12.3} ms  share {:>6.2}%",
            self.unattributed_ns / 1e6,
            100.0 * self.unattributed_share()
        ));
        out
    }

    /// Unattributed share of the traced time.
    pub fn unattributed_share(&self) -> f64 {
        self.unattributed_ns / self.traced_ns
    }

    /// Traced minus untraced, as a share of untraced.
    pub fn overhead_share(&self) -> f64 {
        (self.traced_ns - self.untraced_ns) / self.untraced_ns
    }
}

/// The per-layer metrics, in `BENCHMARK.json` order.
pub fn metrics(tr: &Tracer, p: &Probes, attribution: &Attribution) -> Vec<Metric> {
    let t = tr.self_times();
    let u = &p.units;
    let c = &p.corpus;
    let s = &p.serve;
    let units = u.units;
    let n = units as usize;
    let m = u.methods as usize;
    let fold_ms: Vec<f64> = c.folds.iter().map(|f| f.0).collect();
    let folds = c.folds.len() as u64;
    let rules: usize = c.folds.iter().map(|f| f.1).sum();
    let server_side = ns(&t, "probe.decode_request")
        + ns(&t, "probe.unitserver")
        + ns(&t, "probe.encode_response")
        + ns(&t, "probe.store_get");
    let transport_us = per(ns(&t, "probe.roundtrip") - server_side, s.batches) / 1e3;
    let serve_units = s.units_served.max(1) as f64;
    vec![
        Metric::new("features.ns_per_unit", "ns", per(ns(&t, "probe.features"), units), n),
        Metric::new("engine.ns_per_unit", "ns", per(ns(&t, "probe.engine"), units), n),
        Metric::new("engine.conditions_per_unit", "count", per(u.conditions as f64, units), n),
        Metric::new("policy.ns_per_unit", "ns", per(ns(&t, "probe.policy"), units), n),
        Metric::new("deps.ns_per_unit", "ns", per(ns(&t, "probe.deps"), units), n),
        Metric::new("deps.edges_per_unit", "count", per(u.edges as f64, units), n),
        Metric::new("sched.ns_per_unit", "ns", per(ns(&t, "probe.sched") - ns(&t, "probe.deps"), units), n)
            .note("schedule_*_into minus build_into"),
        Metric::new("sched.apply_ns_per_unit", "ns", per(ns(&t, "probe.apply"), units), n),
        Metric::new("sched.scheduled_share", "share", per(u.scheduled as f64, units), n),
        Metric::new("sched.useful_share", "share", per(u.useful as f64, u.scheduled), u.scheduled as usize),
        Metric::new(
            "jit.session_ns_per_method",
            "ns",
            per(ns(&t, "probe.session") + ns(&t, "probe.store_get"), u.methods),
            m,
        )
        .note("store read + method clone + SchedScratch::new"),
        Metric::new("ir.superblock_ns_per_method", "ns", per(ns(&t, "probe.superblock"), u.methods), m),
        Metric::new("trace.ns_per_record", "ns", per(ns(&t, "probe.trace"), c.records), c.records as usize),
        Metric::new("machine.sim_ns_per_unit", "ns", per(ns(&t, "probe.sim"), units), n)
            .note("sequence_cycles before + after"),
        Metric::new("io.write_ns_per_record", "ns", per(ns(&t, "probe.io_write"), c.records), c.records as usize),
        Metric::new("io.read_ns_per_record", "ns", per(ns(&t, "probe.io_read"), c.records), c.records as usize),
        Metric::new("io.bytes_per_record", "B", per(c.bytes as f64, c.records), c.records as usize),
        Metric::new("label.ms", "ms", ns(&t, "probe.label") / 1e6, 1),
        Metric::new("ripper.fit_ms_per_fold", "ms", per(ns(&t, "probe.ripper_fold") / 1e6, folds), folds as usize),
        Metric::new("ripper.rules_per_fold", "count", per(rules as f64, folds), folds as usize),
        Metric::new("parallel.fold_imbalance", "ratio", probe::fold_imbalance(&fold_ms, 2), folds as usize)
            .note("busiest of 2 contiguous chunks over the mean"),
        Metric::new("protocol.encode_request_ns", "ns", per(ns(&t, "probe.encode_request"), u.methods), m),
        Metric::new("protocol.decode_request_ns", "ns", per(ns(&t, "probe.decode_request"), u.methods), m),
        Metric::new("protocol.encode_response_ns", "ns", per(ns(&t, "probe.encode_response"), u.methods), m),
        Metric::new("protocol.decode_response_ns", "ns", per(ns(&t, "probe.decode_response"), u.methods), m),
        Metric::new("protocol.request_bytes", "B", per(u.request_bytes as f64, u.methods), m),
        Metric::new("protocol.response_bytes", "B", per(u.response_bytes as f64, u.methods), m),
        Metric::new("store.get_ns", "ns", per(ns(&t, "probe.store_get"), u.methods), m),
        Metric::new("unitserver.ns_per_unit", "ns", per(ns(&t, "probe.unitserver"), units), n),
        Metric::new("serve.transport_us_per_batch", "us", transport_us, s.batches as usize)
            .note("round trip minus decode, serve, encode and store read"),
        Metric::new("serve.admitted_share", "share", per(s.admitted as f64, s.batches), s.batches as usize),
        Metric::new(
            "retrain.collect_ns_per_record",
            "ns",
            per(ns(&t, "probe.collect"), c.collected),
            c.collected as usize,
        ),
        Metric::new("retrain.fold_ms", "ms", ns(&t, "probe.fold") / 1e6, 1)
            .note(format!("Stump on {} records", c.records)),
        Metric::new("store.swap_us", "us", per(ns(&t, "probe.swap"), c.swaps) / 1e3, c.swaps as usize),
        Metric::new("retrain.folds", "count", s.folds as f64, 1),
        Metric::new("retrain.records_absorbed", "count", s.records_absorbed as f64, 1)
            .note(format!("of {serve_units} units served")),
        Metric::new("serve.epochs_seen", "count", s.epochs_seen as f64, s.admitted as usize),
        Metric::new("trace.unattributed_share", "share", attribution.unattributed_share(), 1),
        Metric::new("trace.overhead_share", "share", attribution.overhead_share(), 1),
    ]
}

/// Packs a traced run: probes, attribution lines and metrics.
pub fn traced_outcome(
    tr: &Tracer,
    probes: &Probes,
    attribution: &Attribution,
    extra: &[(&str, f64)],
    (replay_ops, replay_failures): (u64, u64),
    workload: &str,
    seed: u64,
) -> Outcome {
    let mut notes = attribution.lines(extra);
    if let Err(e) = write_spans(tr, workload, seed) {
        notes.push(format!("spans not written: {e}"));
    }
    Outcome {
        attempted: replay_ops + probes.units.methods + probes.serve.batches,
        failed: replay_failures + probes.failures(),
        metrics: metrics(tr, probes, attribution),
        notes,
    }
}

/// Writes the run's spans to `.bench_out/spans-<workload>-<seed>.tsv`
/// under the working directory.
fn write_spans(tr: &Tracer, workload: &str, seed: u64) -> std::io::Result<()> {
    let dir = std::path::Path::new(".bench_out");
    std::fs::create_dir_all(dir)?;
    let mut f = std::io::BufWriter::new(std::fs::File::create(dir.join(format!("spans-{workload}-{seed}.tsv")))?);
    tr.write_tsv(&mut f)?;
    f.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attribution_partitions_the_replayed_time() {
        let mut tr = Tracer::new();
        for req in 0..3 {
            let root = tr.begin("op", req);
            tr.span("a", req, || std::hint::black_box(vec![0u8; 4096]));
            let b = tr.begin("b", req);
            tr.span("a", req, || std::hint::black_box(vec![0u8; 4096]));
            tr.end(b);
            tr.end(root);
        }
        // Spans outside the replay's roots are not attributed to it.
        let probe = tr.begin("probe", 9);
        tr.span("a", 9, || ());
        tr.end(probe);
        let at = Attribution::of(&tr, "op", 1.0);
        let parts: f64 = at.layers.values().sum::<f64>() + at.unattributed_ns;
        assert_eq!(parts, at.traced_ns, "layer self times plus the remainder are the traced time");
        let roots: u64 = tr.spans().iter().filter(|s| s.name == "op").map(|s| s.end - s.start).sum();
        assert_eq!(at.traced_ns, roots as f64);
        assert_eq!(at.layers.keys().copied().collect::<Vec<_>>(), ["a", "b"]);
    }
}
