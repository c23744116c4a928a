//! The online retraining loop: served methods come in, observed trace
//! records accumulate, and every `retrain_every` records the learner
//! re-runs and hot-swaps the deployed filter.
//!
//! Observation happens *off* the hot path: the workers schedule against
//! the compiled snapshot with no instrumentation, and this thread runs
//! the served methods through one warm instrumented collector
//! ([`TraceCollector`], held for the thread's lifetime) that appends
//! straight into the corpus. Its records are exactly the ones the
//! offline pipeline ([`collect_trace`](wts_core::collect_trace)) would
//! have collected, so an online-retrained filter and an offline-trained
//! one see the same training distribution.

use crate::server::ServeConfig;
use std::sync::mpsc::Receiver;
use wts_core::{train_filter, write_trace_binary, FilterKey, FilterStore, TraceCollector, TraceRecord};
use wts_ir::Method;

/// What the retraining thread did over the instance's lifetime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RetrainReport {
    /// Observed trace records absorbed into the training corpus — one
    /// per served scope unit, so a lossless drain means this equals the
    /// server's `units_served`.
    pub records_absorbed: u64,
    /// Completed fold-and-swap cycles (including the final drain fold).
    pub retrains: u64,
    /// Epoch of the last filter this thread published (0 when it never
    /// swapped).
    pub last_epoch: u64,
    /// Corpus records written to `ServeConfig::persist_corpus` at
    /// shutdown (seed traces plus absorbed observations). 0 when
    /// persistence is not configured or the write failed.
    pub records_persisted: u64,
}

/// Runs until every sender hangs up, then performs a final fold if any
/// records are pending and returns the tally. The corpus starts as
/// `config`'s seed traces, moved in rather than copied.
pub(crate) fn retrain_loop(
    rx: &Receiver<(String, Vec<Method>)>,
    store: &FilterStore,
    key: &FilterKey,
    mut config: ServeConfig,
) -> RetrainReport {
    let train_config = config.train_config();
    let mut corpus: Vec<TraceRecord> = std::mem::take(&mut config.seed_traces);
    let mut collector = TraceCollector::new(&config.machine, &config.options);
    let mut pending = 0usize;
    let mut report = RetrainReport::default();
    while let Ok((benchmark, methods)) = rx.recv() {
        let before = corpus.len();
        for method in &methods {
            collector.collect_into(&benchmark, method, &mut corpus);
        }
        let absorbed = corpus.len() - before;
        report.records_absorbed += absorbed as u64;
        pending += absorbed;
        if config.retrain_every > 0 && pending >= config.retrain_every {
            fold(store, key, &train_config, &corpus, &mut report);
            pending = 0;
        }
    }
    // The senders are gone: the queue is fully drained. Records that
    // arrived since the last fold still deserve to influence the filter
    // a restarted instance would seed from.
    if config.retrain_every > 0 && pending > 0 {
        fold(store, key, &train_config, &corpus, &mut report);
    }
    if let Some(path) = &config.persist_corpus {
        report.records_persisted = persist(path, &corpus);
    }
    report
}

/// Writes the corpus to `path` in the `schedfilter-trace-bin-v1`
/// format. Persistence is best-effort: a failed encode or write is
/// reported on stderr and the drain still completes, because losing a
/// seed corpus must never turn a clean shutdown into a panic.
fn persist(path: &std::path::Path, corpus: &[TraceRecord]) -> u64 {
    let bytes = match write_trace_binary(corpus) {
        Ok(bytes) => bytes,
        Err(e) => {
            eprintln!("wts-serve: failed to encode the retrain corpus for {}: {e}", path.display());
            return 0;
        }
    };
    match std::fs::write(path, bytes) {
        Ok(()) => corpus.len() as u64,
        Err(e) => {
            eprintln!("wts-serve: failed to persist the retrain corpus to {}: {e}", path.display());
            0
        }
    }
}

fn fold(
    store: &FilterStore,
    key: &FilterKey,
    train_config: &wts_core::TrainConfig,
    corpus: &[TraceRecord],
    report: &mut RetrainReport,
) {
    let filter = train_filter(corpus, train_config);
    report.last_epoch = store.swap(key.clone(), filter).epoch();
    report.retrains += 1;
}
