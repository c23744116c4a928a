//! The store's hot-swap contract on the running `FilterStore`: a
//! snapshot is one coherent `(epoch, filter)` pair, so every decision
//! made against it is attributable to exactly one epoch — under
//! concurrent swaps there is no interleaving where a reader sees epoch
//! `n` paired with epoch `m`'s rules — and concurrent writers publish
//! every epoch exactly once, in an order no reader sees fall. These are
//! threaded properties, so run them in release builds too: the store's
//! own epoch assert is compiled out there.

use proptest::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use wts_core::{FilterKey, FilterStore, LearnedFilter, LearnerKind};
use wts_features::FeatureKind;
use wts_ir::ScopeKind;
use wts_ripper::{Condition, Op, Rule, RuleSet, RuleStats};

/// A filter whose decision reveals which cut it was built with:
/// schedule iff `bbLen >= cut`. The cut doubles as the filter's
/// threshold tag, so source and engine can be cross-checked too. Cut 0
/// accepts every block, a trivially constant filter the store refuses to
/// publish in debug builds, so the properties draw cuts from 1.
fn filter_with_cut(cut: u32) -> LearnedFilter {
    let attr_names: Vec<String> = FeatureKind::ALL.iter().map(|k| k.rule_name().to_string()).collect();
    let rule =
        Rule::from_conditions(vec![Condition { attr: FeatureKind::BbLen.index(), op: Op::Ge, threshold: cut as f64 }]);
    LearnedFilter::new(RuleSet::new(attr_names, "list", "orig", vec![rule], vec![], RuleStats::default()), cut)
}

/// Raises its flag when dropped — also while unwinding, so a writer
/// that panics mid-swap releases the readers polling the flag and the
/// test fails instead of hanging.
struct RaiseOnDrop<'a>(&'a AtomicBool);

impl Drop for RaiseOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Release);
    }
}

fn probe_values(bb_len: u32) -> [f64; FeatureKind::COUNT] {
    let mut v = [0.0; FeatureKind::COUNT];
    v[FeatureKind::BbLen.index()] = bb_len as f64;
    v
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// One writer hot-swaps a generated sequence of distinguishable
    /// filters while readers concurrently classify probe vectors off
    /// whatever snapshot they grab. Because the single writer makes
    /// epoch `e` correspond to exactly `cuts[e-1]`, every observed
    /// `(epoch, probe, decision)` triple must match that epoch's filter
    /// — a torn read (new epoch, old rules, or vice versa) would
    /// produce a decision no single epoch explains.
    #[test]
    fn every_decision_is_attributable_to_exactly_one_epoch(
        cuts in prop::collection::vec(1u32..60, 2..16),
        probes in prop::collection::vec(0u32..60, 1..6),
    ) {
        let store = FilterStore::shared();
        let key = FilterKey::new("m", &LearnerKind::Stump, ScopeKind::Block, 0);
        store.swap(key.clone(), filter_with_cut(cuts[0]));
        let done = Arc::new(AtomicBool::new(false));

        let observed: Vec<Vec<(u64, u32, bool)>> = std::thread::scope(|s| {
            let readers: Vec<_> = (0..2)
                .map(|_| {
                    let store = Arc::clone(&store);
                    let key = key.clone();
                    let done = Arc::clone(&done);
                    let probes = probes.clone();
                    s.spawn(move || {
                        // Sample at least once even if the writer wins
                        // the race outright, then keep sampling until
                        // the swaps are done.
                        let mut seen = Vec::new();
                        loop {
                            let snap = store.get(&key).expect("slot stays populated");
                            for &p in &probes {
                                let decision = snap.compiled().decide(&probe_values(p));
                                seen.push((snap.epoch(), p, decision));
                            }
                            if done.load(Ordering::Acquire) {
                                return seen;
                            }
                        }
                    })
                })
                .collect();
            {
                let _done = RaiseOnDrop(&done);
                for &cut in &cuts[1..] {
                    store.swap(key.clone(), filter_with_cut(cut));
                }
            }
            readers.into_iter().map(|r| r.join().expect("reader panicked")).collect()
        });

        prop_assert_eq!(store.epoch(&key), Some(cuts.len() as u64));
        for seen in &observed {
            prop_assert!(!seen.is_empty(), "readers observed at least one snapshot");
            for &(epoch, probe, decision) in seen {
                prop_assert!(epoch >= 1 && epoch <= cuts.len() as u64, "epoch {} out of range", epoch);
                let cut = cuts[usize::try_from(epoch - 1).expect("epoch counts fit usize")];
                prop_assert_eq!(
                    decision,
                    probe >= cut,
                    "epoch {} carries cut {}, but probe {} decided {}: the snapshot was torn",
                    epoch, cut, probe, decision
                );
            }
        }
    }

    /// Epoch monotonicity with no lost swap: `writers` threads each
    /// publish `swaps` filters while two readers poll the slot. Over the
    /// seed deploy at epoch 1, the epochs the writers' `swap` calls
    /// return must be exactly `2..=1 + writers·swaps`, each once — a
    /// duplicate is two writers publishing one epoch, a gap a lost swap
    /// — and no reader's sequence of observed epochs may fall.
    #[test]
    fn concurrent_swaps_publish_every_epoch_once_and_readers_never_go_back(
        writers in 2usize..5,
        swaps in 1usize..32,
        cut in 1u32..60,
    ) {
        let store = FilterStore::shared();
        let key = FilterKey::new("m", &LearnerKind::Stump, ScopeKind::Block, 0);
        store.swap(key.clone(), filter_with_cut(cut));
        let done = AtomicBool::new(false);
        let swap = || store.swap(key.clone(), filter_with_cut(cut)).epoch();

        let (mut published, observed) = std::thread::scope(|s| {
            let readers: Vec<_> = (0..2)
                .map(|_| {
                    s.spawn(|| {
                        let mut seen = Vec::new();
                        loop {
                            seen.push(store.get(&key).expect("slot stays populated").epoch());
                            if done.load(Ordering::Acquire) {
                                return seen;
                            }
                        }
                    })
                })
                .collect();
            let published: Vec<u64> = {
                let _done = RaiseOnDrop(&done);
                let handles: Vec<_> =
                    (0..writers).map(|_| s.spawn(|| (0..swaps).map(|_| swap()).collect::<Vec<_>>())).collect();
                handles.into_iter().flat_map(|h| h.join().expect("writer panicked")).collect()
            };
            let observed: Vec<Vec<u64>> = readers.into_iter().map(|r| r.join().expect("reader panicked")).collect();
            (published, observed)
        });

        let last = 1 + (writers * swaps) as u64;
        published.sort_unstable();
        prop_assert_eq!(published, (2..=last).collect::<Vec<u64>>(), "every swap publishes its own epoch");
        prop_assert_eq!(store.epoch(&key), Some(last));
        for seen in &observed {
            prop_assert!(seen.windows(2).all(|w| w[0] <= w[1]), "a reader saw the epoch fall: {:?}", seen);
            prop_assert!(seen.iter().all(|e| (1..=last).contains(e)), "a reader saw an unpublished epoch: {:?}", seen);
        }
    }

    /// The source rule set and the compiled engine inside one snapshot
    /// always agree — swap never pairs epoch-tagged metadata with a
    /// stale engine.
    #[test]
    fn snapshot_source_and_engine_are_the_same_filter(cuts in prop::collection::vec(1u32..60, 1..10)) {
        let store = FilterStore::new();
        let key = FilterKey::new("m", &LearnerKind::Stump, ScopeKind::Block, 0);
        for (i, &cut) in cuts.iter().enumerate() {
            let snap = store.swap(key.clone(), filter_with_cut(cut));
            prop_assert_eq!(snap.epoch(), (i + 1) as u64);
            prop_assert_eq!(snap.source().threshold_percent(), cut);
            for probe in [cut.saturating_sub(1), cut, cut + 1] {
                prop_assert_eq!(snap.compiled().decide(&probe_values(probe)), probe >= cut);
            }
        }
    }
}

/// The cut-0 filter (`bbLen >= 0`) schedules every block: the model lint
/// calls it trivially constant, and a debug build's store refuses to
/// publish it.
#[cfg(debug_assertions)]
#[test]
#[should_panic(expected = "failed the model lint")]
fn publishing_a_trivially_constant_filter_is_rejected() {
    let store = FilterStore::new();
    store.swap(FilterKey::new("m", &LearnerKind::Stump, ScopeKind::Block, 0), filter_with_cut(0));
}
