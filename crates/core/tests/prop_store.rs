//! The store's hot-swap atomicity contract: a snapshot is one coherent
//! `(epoch, filter)` pair, so every decision made against it is
//! attributable to exactly one epoch — under concurrent swaps there is
//! no interleaving where a reader sees epoch `n` paired with epoch
//! `m`'s rules.

use proptest::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use wts_core::{FilterKey, FilterStore, LearnedFilter, LearnerKind, ScopeKind};
use wts_features::FeatureKind;
use wts_ripper::{Condition, Op, Rule, RuleSet, RuleStats};

/// A filter whose decision reveals which cut it was built with:
/// schedule iff `bbLen >= cut`. The cut doubles as the filter's
/// threshold tag, so source and engine can be cross-checked too.
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
        cuts in prop::collection::vec(0u32..60, 2..16),
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

    /// The source rule set and the compiled engine inside one snapshot
    /// always agree — swap never pairs epoch-tagged metadata with a
    /// stale engine.
    #[test]
    fn snapshot_source_and_engine_are_the_same_filter(cuts in prop::collection::vec(0u32..60, 1..10)) {
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
