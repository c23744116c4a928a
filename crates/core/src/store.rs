//! The deployed filter lifecycle — train, publish, hot-swap — in one
//! shared, concurrency-safe [`FilterStore`] keyed by `(machine, learner,
//! scope, threshold)`. Every [`ExperimentRun`](crate::ExperimentRun),
//! the per-machine runs of a [`MatrixRun`](crate::MatrixRun), the JIT
//! [`CompileSession`](../../wts_jit/struct.CompileSession.html) and the
//! `wts-serve` daemon and retrainer deploy through it, so long-running
//! threads can sit on top of the pipeline.
//!
//! The store rests on one rule: **a filter is published only as an
//! immutable, epoch-tagged snapshot behind an `Arc`.**
//!
//! * **Readers never block writers and never see torn state.** A reader
//!   clones the `Arc<FilterSnapshot>` under a briefly-held read lock;
//!   the snapshot carries the epoch and the
//!   [`LearnedFilter`](crate::LearnedFilter) — its rule set together
//!   with the [`CompiledFilter`](crate::CompiledFilter) it was lowered
//!   to when trained — as one allocation, so a decision made against a
//!   snapshot is attributable to exactly one epoch — there is no window
//!   where the epoch says `n` but the rules are from `n+1`.
//! * **Writers hot-swap atomically.** [`FilterStore::swap`] replaces the
//!   slot's `Arc` and bumps the per-key epoch in one write-locked map
//!   update. In-flight readers keep their old snapshot alive through
//!   their own `Arc` clone; new readers observe the new epoch.
//! * **Training happens outside every lock.**
//!   [`FilterStore::deployed_or_train`] runs the (expensive) training
//!   closure unlocked and inserts first-wins, so two racing trainers of
//!   a deterministic pipeline waste at most one redundant training run
//!   and always agree on the published snapshot.
//!
//! # Examples
//!
//! ```
//! use wts_core::{train_filter, Experiment, FilterKey, FilterStore, LearnerKind, TimingMode};
//! use wts_ir::ScopeKind;
//! use wts_machine::MachineConfig;
//!
//! let programs = wts_core::testutil::learnable_suite(3);
//! let run = Experiment::new(MachineConfig::ppc7410())
//!     .with_timing(TimingMode::Deterministic)
//!     .run(programs);
//!
//! // The run's factory cache *is* a store slot now.
//! let filter = run.factory_filter(0);
//! let key = FilterKey::new("ppc7410", &LearnerKind::default(), ScopeKind::Block, 0);
//! let snap = run.store().get(&key).expect("factory filter was published");
//! assert_eq!(snap.epoch(), 1);
//! assert_eq!(*snap.source(), filter);
//!
//! // A retrainer swaps in a new filter; the epoch advances.
//! let retrained = train_filter(run.all_traces(), &run.train_config(10));
//! let swapped = run.store().swap(key.clone(), retrained);
//! assert_eq!(swapped.epoch(), 2);
//! assert_eq!(run.store().epoch(&key), Some(2));
//! ```

use crate::learner::{Learner, LearnerKind};
use crate::{CompiledFilter, LearnedFilter};
use std::collections::BTreeMap;
use std::sync::{Arc, RwLock};
use wts_ir::ScopeKind;

/// The identity of one deployed filter: which machine it was trained
/// for, which induction backend produced it, at which scheduling scope,
/// and at which labeling threshold.
///
/// Keys order machine-major (then learner, scope with blocks before
/// superblocks by ratio, threshold), so a sorted dump of a store groups
/// each machine's filters together the way the cross-machine tables do.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FilterKey {
    machine: String,
    learner: LearnerKind,
    scope: ScopeKind,
    threshold: u32,
}

impl FilterKey {
    /// A key for `machine`'s filter induced by `learner` at `scope` and
    /// labeling threshold `threshold` (percent).
    pub fn new(machine: &str, learner: &LearnerKind, scope: ScopeKind, threshold: u32) -> FilterKey {
        FilterKey { machine: machine.to_string(), learner: *learner, scope, threshold }
    }

    /// The machine name component.
    pub fn machine(&self) -> &str {
        &self.machine
    }

    /// The labeling-threshold component (percent).
    pub fn threshold(&self) -> u32 {
        self.threshold
    }
}

impl std::fmt::Display for FilterKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let scope = match self.scope {
            ScopeKind::Block => "block".to_string(),
            ScopeKind::Superblock(r) => format!("sb{r}"),
        };
        write!(f, "{}/{}/{}/t{}", self.machine, self.learner.name(), scope, self.threshold)
    }
}

/// One published, immutable version of a deployed filter.
///
/// The epoch and the trained filter (its rule set and the engine it was
/// lowered to) travel as one `Arc` allocation: whoever holds a snapshot
/// holds a coherent `(epoch, filter)` pair no concurrent
/// [`FilterStore::swap`] can tear.
#[derive(Debug, Clone, PartialEq)]
pub struct FilterSnapshot {
    epoch: u64,
    source: LearnedFilter,
}

impl FilterSnapshot {
    /// The publication epoch: `1` for the first filter a key ever held,
    /// bumped by one on every [`FilterStore::swap`].
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The induced rule-set filter this snapshot publishes.
    pub fn source(&self) -> &LearnedFilter {
        &self.source
    }

    /// The source's lowered engine form — what the deployed fast path
    /// and the serving workers actually evaluate.
    pub fn compiled(&self) -> &CompiledFilter {
        self.source.compiled()
    }
}

/// The shared filter registry: deployed snapshots keyed by
/// [`FilterKey`].
///
/// `Send + Sync`; share it as an `Arc<FilterStore>`
/// ([`FilterStore::shared`]). The concurrency contract: readers
/// ([`get`](FilterStore::get)) never block behind a
/// [`swap`](FilterStore::swap) — training happens outside the lock,
/// and a snapshot, once handed out, is immutable.
#[derive(Debug, Default)]
pub struct FilterStore {
    deployed: RwLock<BTreeMap<FilterKey, Arc<FilterSnapshot>>>,
}

impl FilterStore {
    /// An empty store.
    pub fn new() -> FilterStore {
        FilterStore::default()
    }

    /// An empty store behind an `Arc`, ready to hand to pipeline runs,
    /// compile sessions and serving threads.
    pub fn shared() -> Arc<FilterStore> {
        Arc::new(FilterStore::new())
    }

    /// The currently deployed snapshot for `key`, if any. Readers pay
    /// one briefly-held read lock and one `Arc` clone; they never wait
    /// on training.
    pub fn get(&self, key: &FilterKey) -> Option<Arc<FilterSnapshot>> {
        self.deployed.read().expect("filter store poisoned").get(key).cloned()
    }

    /// The current epoch of `key`'s slot (`None` when nothing has been
    /// published yet).
    pub fn epoch(&self, key: &FilterKey) -> Option<u64> {
        self.get(key).map(|s| s.epoch())
    }

    /// Returns `key`'s deployed snapshot, training and publishing one
    /// (at epoch 1) if the slot is empty.
    ///
    /// `train` runs with no lock held. If another thread publishes the
    /// same key concurrently, the first publication wins and this call
    /// returns it — with a deterministic training pipeline both sides
    /// computed the same filter, so the loser only wasted the redundant
    /// training run. In debug builds the trained model must pass the
    /// `wts-verify` model lint before any reader can observe it.
    pub fn deployed_or_train(&self, key: FilterKey, train: impl FnOnce() -> LearnedFilter) -> Arc<FilterSnapshot> {
        if let Some(hit) = self.get(&key) {
            return hit;
        }
        let source = train();
        #[cfg(debug_assertions)]
        crate::filter::assert_model_lints_clean(&source, &key.to_string());
        let mut slots = self.deployed.write().expect("filter store poisoned");
        if let Some(raced) = slots.get(&key) {
            return Arc::clone(raced);
        }
        let snap = Arc::new(FilterSnapshot { epoch: 1, source });
        slots.insert(key, Arc::clone(&snap));
        snap
    }

    /// Atomically replaces `key`'s deployed filter with `filter`,
    /// bumping the slot's epoch (to 1 when the slot was empty), and
    /// returns the new snapshot.
    ///
    /// The filter was lowered when it was built, so the write lock only
    /// covers the `BTreeMap` update. Readers holding the previous
    /// snapshot keep it alive through their own `Arc`.
    ///
    /// # Panics
    ///
    /// In debug builds, when `filter` fails the `wts-verify` model lint
    /// (for example a trivially constant rule set).
    pub fn swap(&self, key: FilterKey, filter: LearnedFilter) -> Arc<FilterSnapshot> {
        #[cfg(debug_assertions)]
        crate::filter::assert_model_lints_clean(&filter, &key.to_string());
        let mut slots = self.deployed.write().expect("filter store poisoned");
        let epoch = slots.get(&key).map_or(1, |old| old.epoch + 1);
        #[cfg(debug_assertions)]
        if let Some(old) = slots.get(&key) {
            // The published sequence must be strictly monotone with no
            // lost swap — the property `prop_store.rs` checks under
            // concurrent writers and readers (also in release builds,
            // where this assert is compiled out).
            assert!(epoch > old.epoch, "epoch regressed on swap of {key}: {epoch} after {}", old.epoch);
        }
        let snap = Arc::new(FilterSnapshot { epoch, source: filter });
        slots.insert(key, Arc::clone(&snap));
        snap
    }

    /// Every deployed key, in sorted (machine-major) order.
    pub fn keys(&self) -> Vec<FilterKey> {
        self.deployed.read().expect("filter store poisoned").keys().cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{train_filter, Experiment, TimingMode, TraceRecord, TrainConfig};
    use wts_machine::MachineConfig;

    fn corpus() -> Vec<TraceRecord> {
        let run = Experiment::new(MachineConfig::ppc7410())
            .with_timing(TimingMode::Deterministic)
            .run(crate::testutil::learnable_suite(3));
        run.all_traces().to_vec()
    }

    fn key(machine: &str, t: u32) -> FilterKey {
        FilterKey::new(machine, &LearnerKind::Stump, ScopeKind::Block, t)
    }

    #[test]
    fn keys_order_machine_major_and_scopes_totally() {
        let mut keys = [
            FilterKey::new("b", &LearnerKind::Stump, ScopeKind::Block, 0),
            FilterKey::new("a", &LearnerKind::Stump, ScopeKind::Superblock(70), 0),
            FilterKey::new("a", &LearnerKind::Stump, ScopeKind::Block, 10),
            FilterKey::new("a", &LearnerKind::Stump, ScopeKind::Block, 0),
            FilterKey::new("a", &LearnerKind::Stump, ScopeKind::Superblock(50), 0),
        ];
        keys.sort();
        let display: Vec<String> = keys.iter().map(|k| k.to_string()).collect();
        assert_eq!(
            display,
            ["a/stump/block/t0", "a/stump/block/t10", "a/stump/sb50/t0", "a/stump/sb70/t0", "b/stump/block/t0"]
        );
    }

    #[test]
    fn deployed_or_train_publishes_once_then_caches() {
        let traces = corpus();
        let store = FilterStore::new();
        let config = TrainConfig::with_threshold(0);
        let mut trained = 0;
        let a = store.deployed_or_train(key("m", 0), || {
            trained += 1;
            train_filter(&traces, &config)
        });
        assert_eq!(a.epoch(), 1);
        assert_eq!(trained, 1);
        let b = store.deployed_or_train(key("m", 0), || unreachable!("slot is warm"));
        assert!(Arc::ptr_eq(&a, &b), "second lookup must hit the published snapshot");
        assert_eq!(store.keys(), [key("m", 0)]);
    }

    #[test]
    fn swap_bumps_the_epoch_and_keeps_old_snapshots_alive() {
        let traces = corpus();
        let store = FilterStore::new();
        let k = key("m", 0);
        let config = TrainConfig::with_threshold(0);
        let first = store.deployed_or_train(k.clone(), || train_filter(&traces, &config));
        let retrained = train_filter(&traces, &TrainConfig::with_threshold(10));
        let second = store.swap(k.clone(), retrained.clone());
        assert_eq!((first.epoch(), second.epoch()), (1, 2));
        assert_eq!(store.epoch(&k), Some(2));
        // The old snapshot is untouched — a reader that grabbed it before
        // the swap still sees a coherent epoch-1 pair.
        assert_eq!(first.epoch(), 1);
        assert_eq!(second.source(), &retrained);
        assert_eq!(second.compiled(), retrained.compiled());
        // Swapping into an empty slot starts a fresh epoch sequence.
        let fresh = store.swap(key("other", 0), retrained);
        assert_eq!(fresh.epoch(), 1);
    }
}
