//! The extracted filter lifecycle: a shared, concurrency-safe
//! [`FilterStore`] keyed by `(machine, learner, scope, threshold)`.
//!
//! Before this seam existed, the lifecycle of an induced filter —
//! train, compile, cache, deploy — was smeared across three owners:
//! [`ExperimentRun`](crate::ExperimentRun) kept private per-`(learner,
//! threshold)` `RefCell` caches, [`ExperimentMatrix`](crate::ExperimentMatrix)
//! duplicated them per machine, and the JIT
//! [`CompileSession`](../../wts_jit/struct.CompileSession.html) compiled
//! filters ad hoc at every call. None of those owners could hand a
//! filter to another thread, so nothing long-running (a serving daemon,
//! a background retrainer) could sit on top of the pipeline.
//!
//! The store fixes all of that with one rule: **a filter is published
//! only as an immutable, epoch-tagged snapshot behind an `Arc`.**
//!
//! * **Readers never block writers and never see torn state.** A reader
//!   clones the `Arc<FilterSnapshot>` under a briefly-held read lock;
//!   the snapshot carries the epoch, the source
//!   [`LearnedFilter`](crate::LearnedFilter) and the lowered
//!   [`CompiledFilter`](crate::CompiledFilter) as one allocation, so a
//!   decision made against a snapshot is attributable to exactly one
//!   epoch — there is no window where the epoch says `n` but the rules
//!   are from `n+1`.
//! * **Writers hot-swap atomically.** [`FilterStore::swap`] compiles the
//!   retrained filter *outside* the lock, then replaces the slot's
//!   `Arc` and bumps the per-key epoch in one write-locked map update.
//!   In-flight readers keep their old snapshot alive through their own
//!   `Arc` clone; new readers observe the new epoch.
//! * **Training happens outside every lock.**
//!   [`FilterStore::deployed_or_train`] and
//!   [`FilterStore::loocv_or_train`] run the (expensive) training
//!   closure unlocked and insert first-wins, so two racing trainers of
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

use crate::experiment::LoocvFilters;
use crate::learner::LearnerKind;
use crate::{CompiledFilter, LearnedFilter};
use std::collections::BTreeMap;
use std::sync::{Arc, RwLock};
use wts_ir::ScopeKind;

/// The identity of one deployed filter: which machine it was trained
/// for, which induction backend produced it, at which scheduling scope,
/// and at which labeling threshold.
///
/// Keys order machine-major (then learner, scope, threshold), so a
/// sorted dump of a store groups each machine's filters together the
/// way the cross-machine tables do.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct FilterKey {
    machine: String,
    learner: String,
    scope: ScopeKind,
    threshold: u32,
}

impl FilterKey {
    /// A key for `machine`'s filter induced by `learner` at `scope` and
    /// labeling threshold `threshold` (percent).
    pub fn new(machine: &str, learner: &LearnerKind, scope: ScopeKind, threshold: u32) -> FilterKey {
        FilterKey { machine: machine.to_string(), learner: learner.cache_key(), scope, threshold }
    }

    /// The machine name component.
    pub fn machine(&self) -> &str {
        &self.machine
    }

    /// The induction-backend component (the learner's canonical cache
    /// key, e.g. `Stump` or `Ripper(..)` with its settings).
    pub fn learner(&self) -> &str {
        &self.learner
    }

    /// The scheduling-scope component.
    pub fn scope(&self) -> ScopeKind {
        self.scope
    }

    /// The labeling-threshold component (percent).
    pub fn threshold(&self) -> u32 {
        self.threshold
    }

    /// Scope as a totally ordered pair (`ScopeKind` itself carries no
    /// `Ord`): blocks first, then superblock scopes by ratio.
    fn scope_rank(&self) -> (u8, u32) {
        match self.scope {
            ScopeKind::Block => (0, 0),
            ScopeKind::Superblock(ratio) => (1, ratio),
        }
    }
}

impl PartialOrd for FilterKey {
    fn partial_cmp(&self, other: &FilterKey) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for FilterKey {
    fn cmp(&self, other: &FilterKey) -> std::cmp::Ordering {
        (&self.machine, &self.learner, self.scope_rank(), self.threshold).cmp(&(
            &other.machine,
            &other.learner,
            other.scope_rank(),
            other.threshold,
        ))
    }
}

impl std::fmt::Display for FilterKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let scope = match self.scope {
            ScopeKind::Block => "block".to_string(),
            ScopeKind::Superblock(r) => format!("sb{r}"),
        };
        write!(f, "{}/{}/{}/t{}", self.machine, self.learner, scope, self.threshold)
    }
}

/// One published, immutable version of a deployed filter.
///
/// The epoch, the source rule set and the lowered engine travel as one
/// `Arc` allocation: whoever holds a snapshot holds a coherent
/// `(epoch, filter)` pair no concurrent [`FilterStore::swap`] can tear.
#[derive(Debug, Clone, PartialEq)]
pub struct FilterSnapshot {
    key: FilterKey,
    epoch: u64,
    source: LearnedFilter,
    compiled: CompiledFilter,
}

impl FilterSnapshot {
    /// The key this snapshot is published under.
    pub fn key(&self) -> &FilterKey {
        &self.key
    }

    /// The publication epoch: `1` for the first filter a key ever held,
    /// bumped by one on every [`FilterStore::swap`].
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The induced rule-set filter this snapshot was compiled from.
    pub fn source(&self) -> &LearnedFilter {
        &self.source
    }

    /// The lowered engine form — what the deployed fast path and the
    /// serving workers actually evaluate.
    pub fn compiled(&self) -> &CompiledFilter {
        &self.compiled
    }
}

/// The shared filter registry: deployed snapshots plus LOOCV fold sets,
/// keyed by [`FilterKey`].
///
/// `Send + Sync`; share it as an `Arc<FilterStore>`
/// ([`FilterStore::shared`]). The concurrency contract: readers
/// ([`get`](FilterStore::get)) never block behind a
/// [`swap`](FilterStore::swap) — training and compilation happen
/// outside the lock, and a snapshot, once handed out, is immutable.
pub struct FilterStore {
    deployed: RwLock<BTreeMap<FilterKey, Arc<FilterSnapshot>>>,
    folds: RwLock<BTreeMap<FilterKey, LoocvFilters>>,
}

impl FilterStore {
    /// An empty store.
    pub fn new() -> FilterStore {
        FilterStore { deployed: RwLock::new(BTreeMap::new()), folds: RwLock::new(BTreeMap::new()) }
    }

    /// An empty store behind an `Arc`, ready to hand to pipeline runs,
    /// compile sessions and serving threads.
    pub fn shared() -> Arc<FilterStore> {
        Arc::new(FilterStore::new())
    }

    /// The currently deployed snapshot for `key`, if any. Readers pay
    /// one briefly-held read lock and one `Arc` clone; they never wait
    /// on training or compilation.
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
    /// training run.
    pub fn deployed_or_train(&self, key: FilterKey, train: impl FnOnce() -> LearnedFilter) -> Arc<FilterSnapshot> {
        if let Some(hit) = self.get(&key) {
            return hit;
        }
        let source = train();
        let compiled = source.compile();
        #[cfg(all(feature = "verify", debug_assertions))]
        verify_snapshot_model(&key, &source, &compiled);
        let mut slots = self.deployed.write().expect("filter store poisoned");
        if let Some(raced) = slots.get(&key) {
            return Arc::clone(raced);
        }
        let snap = Arc::new(FilterSnapshot { key: key.clone(), epoch: 1, source, compiled });
        slots.insert(key, Arc::clone(&snap));
        snap
    }

    /// Atomically replaces `key`'s deployed filter with `filter`,
    /// bumping the slot's epoch (to 1 when the slot was empty), and
    /// returns the new snapshot.
    ///
    /// Compilation happens before the write lock is taken; the lock
    /// only covers the `BTreeMap` update. Readers holding the previous
    /// snapshot keep it alive through their own `Arc`.
    pub fn swap(&self, key: FilterKey, filter: LearnedFilter) -> Arc<FilterSnapshot> {
        let compiled = filter.compile();
        #[cfg(all(feature = "verify", debug_assertions))]
        verify_snapshot_model(&key, &filter, &compiled);
        let mut slots = self.deployed.write().expect("filter store poisoned");
        let epoch = slots.get(&key).map_or(1, |old| old.epoch + 1);
        #[cfg(all(feature = "verify", debug_assertions))]
        if let Some(old) = slots.get(&key) {
            // The published sequence must be strictly monotone — the
            // invariant `check_store_protocol` proves over the modeled
            // protocol, asserted here on the live one.
            assert!(epoch > old.epoch, "epoch regressed on swap of {key}: {epoch} after {}", old.epoch);
        }
        let snap = Arc::new(FilterSnapshot { key: key.clone(), epoch, source: filter, compiled });
        slots.insert(key, Arc::clone(&snap));
        snap
    }

    /// Returns `key`'s leave-one-benchmark-out fold set, training one if
    /// the slot is empty. Same locking contract as
    /// [`deployed_or_train`](FilterStore::deployed_or_train): `train`
    /// runs unlocked, first publication wins.
    ///
    /// Fold sets are version-free (the evaluation protocol has no
    /// hot-swap story); they live in the store so the whole filter
    /// lifecycle has one owner.
    pub fn loocv_or_train(&self, key: FilterKey, train: impl FnOnce() -> Vec<(String, LearnedFilter)>) -> LoocvFilters {
        if let Some(hit) = self.folds.read().expect("filter store poisoned").get(&key) {
            return Arc::clone(hit);
        }
        let filters: LoocvFilters = Arc::new(train());
        let mut slots = self.folds.write().expect("filter store poisoned");
        if let Some(raced) = slots.get(&key) {
            return Arc::clone(raced);
        }
        slots.insert(key, Arc::clone(&filters));
        filters
    }

    /// The number of deployed (single-filter) slots.
    pub fn len(&self) -> usize {
        self.deployed.read().expect("filter store poisoned").len()
    }

    /// True when no single filter has been deployed yet (LOOCV fold sets
    /// do not count).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Every deployed key, in sorted (machine-major) order.
    pub fn keys(&self) -> Vec<FilterKey> {
        self.deployed.read().expect("filter store poisoned").keys().cloned().collect()
    }
}

/// The `verify`-feature debug hook on every store publication: the
/// snapshot's model must pass the `wts-verify` lint before any reader
/// can observe it, so an incoherent artifact never reaches traffic.
#[cfg(all(feature = "verify", debug_assertions))]
fn verify_snapshot_model(key: &FilterKey, source: &LearnedFilter, compiled: &CompiledFilter) {
    let table = wts_verify::ModelTable::from_rule_set(source.rules(), compiled.demand(), key.to_string());
    let diags = wts_verify::lint_model(&table);
    assert!(diags.is_empty(), "filter published under {key} failed the model lint:\n{}", wts_verify::render(&diags));
}

impl Default for FilterStore {
    fn default() -> FilterStore {
        FilterStore::new()
    }
}

impl std::fmt::Debug for FilterStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FilterStore")
            .field("deployed", &self.len())
            .field("folds", &self.folds.read().expect("filter store poisoned").len())
            .finish()
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
            ["a/Stump/block/t0", "a/Stump/block/t10", "a/Stump/sb50/t0", "a/Stump/sb70/t0", "b/Stump/block/t0"]
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
        assert_eq!(store.len(), 1);
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
        assert_eq!(second.compiled(), &retrained.compile());
        // Swapping into an empty slot starts a fresh epoch sequence.
        let fresh = store.swap(key("other", 0), retrained);
        assert_eq!(fresh.epoch(), 1);
    }

    #[test]
    fn loocv_slot_is_shared_and_first_wins() {
        let traces = corpus();
        let store = FilterStore::new();
        let config = TrainConfig::with_threshold(0);
        let a = store.loocv_or_train(key("m", 0), || crate::train_loocv_sharded(&traces, &config, 1));
        let b = store.loocv_or_train(key("m", 0), || unreachable!("fold slot is warm"));
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(a.len(), 3, "one fold per benchmark");
        assert!(store.is_empty(), "fold sets are not deployed filters");
    }

    #[test]
    fn concurrent_swaps_and_readers_agree_on_final_epoch() {
        let traces = corpus();
        let store = FilterStore::shared();
        let k = key("m", 0);
        let filter = train_filter(&traces, &TrainConfig::with_threshold(0));
        store.swap(k.clone(), filter.clone());
        let swaps_per_writer = 25u64;
        std::thread::scope(|s| {
            for _ in 0..2 {
                let store = Arc::clone(&store);
                let k = k.clone();
                let filter = filter.clone();
                s.spawn(move || {
                    for _ in 0..swaps_per_writer {
                        store.swap(k.clone(), filter.clone());
                    }
                });
            }
            let store = Arc::clone(&store);
            let k = k.clone();
            s.spawn(move || {
                let mut last = 0;
                for _ in 0..200 {
                    let snap = store.get(&k).expect("slot stays populated");
                    assert!(snap.epoch() >= last, "epochs are monotonic under concurrent swaps");
                    last = snap.epoch();
                }
            });
        });
        assert_eq!(store.epoch(&k), Some(1 + 2 * swaps_per_writer));
    }
}
