//! The online retraining loop: served methods come in, each scope unit
//! is observed, and every `retrain_every` observed units the learner
//! re-runs and hot-swaps the deployed filter.
//!
//! Observation happens *off* the hot path, through one warm
//! [`TraceCollector`] held for the thread's lifetime, and is label-only
//! ([`TraceCollector::observe_into`]): features and estimated cycles go
//! straight into the [`Trainer`], with no measured simulation and no
//! `TraceRecord` — a fold reads nothing else. The trainer sees exactly
//! the units [`collect_trace`](wts_core::collect_trace) would have
//! labelled.
//!
//! Learning is incremental: the thread owns the [`Trainer`] that
//! published epoch 1 from the seed corpus, labels each observed unit
//! once, on arrival, and a fold is one [`Trainer::fit`] — bit-identical
//! to [`train_filter`](wts_core::train_filter) over the seed plus every
//! observation so far, at the cost of the learner's own state (for the
//! stump, a sweep over the distinct feature values, however long the
//! instance runs).

use crate::server::{Hub, ServeConfig};
use wts_core::{FilterKey, FilterStore, TraceCollector, Trainer};

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
}

/// Runs until the serving core closes the observation drain, then
/// performs a final fold if any observations are pending and returns the
/// tally. `trainer` has absorbed the seed traces.
pub(crate) fn retrain_loop(
    hub: &Hub,
    store: &FilterStore,
    key: &FilterKey,
    config: &ServeConfig,
    mut trainer: Trainer,
) -> RetrainReport {
    let mut collector = TraceCollector::new(&config.machine, &config.options);
    let mut pending = 0usize;
    let mut report = RetrainReport::default();
    while let Some((benchmark, methods)) = hub.next_observation() {
        let observed: usize =
            methods.iter().map(|method| collector.observe_into(&benchmark, method, &mut trainer)).sum();
        report.records_absorbed += observed as u64;
        pending += observed;
        if config.retrain_every > 0 && pending >= config.retrain_every {
            fold(store, key, &trainer, &mut report);
            pending = 0;
        }
    }
    // The drain is closed: nothing more will be offered. Units observed
    // since the last fold still deserve to reach the published filter.
    if config.retrain_every > 0 && pending > 0 {
        fold(store, key, &trainer, &mut report);
    }
    report
}

fn fold(store: &FilterStore, key: &FilterKey, trainer: &Trainer, report: &mut RetrainReport) {
    report.last_epoch = store.swap(key.clone(), trainer.fit()).epoch();
    report.retrains += 1;
}
