//! The online retraining loop: served methods come in, each scope unit
//! is observed, and every `retrain_every` observed units the learner
//! re-runs and hot-swaps the deployed filter.
//!
//! Observation happens *off* the hot path: the workers schedule against
//! the compiled snapshot with no instrumentation, and this thread runs
//! the served methods through one warm collector ([`TraceCollector`],
//! held for the thread's lifetime). Observations are label-only
//! ([`TraceCollector::observe_into`]): each unit's features and
//! estimated cycles go straight into the [`Trainer`], with no measured
//! provider, no `TraceRecord` and, under the cheap estimator, nothing
//! run after the schedule — a fold reads nothing else. Only when
//! [`ServeConfig::persist_corpus`] is set does the thread collect full
//! instrumented records ([`TraceCollector::collect_into`], `hw_*`
//! channels included) into one reused batch buffer, absorb them, and
//! keep them for the file written at shutdown. Either way the trainer
//! sees exactly the units the offline pipeline
//! ([`collect_trace`](wts_core::collect_trace)) would have labelled, so
//! an online-retrained filter and an offline-trained one see the same
//! training distribution.
//!
//! Learning is incremental: the thread owns the [`Trainer`] that
//! published epoch 1 from the seed corpus, labels each observed unit
//! once, on arrival, and a fold is one [`Trainer::fit`] — bit-identical
//! to [`train_filter`](wts_core::train_filter) over the seed plus every
//! observation so far, at the cost of the learner's own state (for the
//! stump, a sweep over the distinct feature values, however long the
//! instance runs).

use crate::server::ServeConfig;
use std::sync::mpsc::Receiver;
use wts_core::{write_trace_binary, FilterKey, FilterStore, TraceCollector, TraceRecord, Trainer};
use wts_ir::Method;

/// What the retraining thread did over the instance's lifetime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RetrainReport {
    /// Observed units absorbed into the trainer — one per served scope
    /// unit, labelled or dropped, so a lossless drain means this equals
    /// the server's `units_served`.
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
/// observations are pending and returns the tally. `trainer` has absorbed
/// `config`'s seed traces, which are kept (moved, not copied) only as
/// the start of a corpus to persist.
pub(crate) fn retrain_loop(
    rx: &Receiver<(String, Vec<Method>)>,
    store: &FilterStore,
    key: &FilterKey,
    mut config: ServeConfig,
    mut trainer: Trainer,
) -> RetrainReport {
    // Folds read only the trainer; full records are collected and kept
    // only for `persist`.
    let seed = std::mem::take(&mut config.seed_traces);
    let mut corpus = config.persist_corpus.is_some().then_some(seed);
    let mut collector = TraceCollector::new(&config.machine, &config.options);
    let mut batch: Vec<TraceRecord> = Vec::new();
    let mut pending = 0usize;
    let mut report = RetrainReport::default();
    while let Ok((benchmark, methods)) = rx.recv() {
        let observed = match &mut corpus {
            None => methods.iter().map(|method| collector.observe_into(&benchmark, method, &mut trainer)).sum(),
            Some(corpus) => {
                for method in &methods {
                    collector.collect_into(&benchmark, method, &mut batch);
                }
                trainer.absorb(&batch);
                let observed = batch.len();
                corpus.append(&mut batch);
                observed
            }
        };
        report.records_absorbed += observed as u64;
        pending += observed;
        if config.retrain_every > 0 && pending >= config.retrain_every {
            fold(store, key, &trainer, &mut report);
            pending = 0;
        }
    }
    // The senders are gone: the queue is fully drained. Units observed
    // since the last fold still deserve to influence the filter
    // a restarted instance would seed from.
    if config.retrain_every > 0 && pending > 0 {
        fold(store, key, &trainer, &mut report);
    }
    if let (Some(path), Some(corpus)) = (&config.persist_corpus, &corpus) {
        report.records_persisted = persist(path, corpus);
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

fn fold(store: &FilterStore, key: &FilterKey, trainer: &Trainer, report: &mut RetrainReport) {
    report.last_epoch = store.swap(key.clone(), trainer.fit()).epoch();
    report.retrains += 1;
}
