//! The count-sweep decision stump against the sort-based fit it
//! replaced, as an executable oracle.
//!
//! The stump moved from sorting every column of the dataset on every
//! fit, and attributing its stats by walking every instance through the
//! lowered rule, to per-attribute `value → (instances, positives)`
//! counts ([`StumpCounts`]) swept in value order. This suite keeps the
//! old fit and `attribute_stats` verbatim (`support/stump_oracle.rs`)
//! and checks that the sweep returns an equal stump — threshold bit for
//! bit, so the first-seen of `-0.0`/`0.0` is kept as the stable sort
//! kept it — and an equal rule set with equal stats, on datasets with
//! heavy ties, constant and single-valued columns, one class only, and
//! none at all.

#[path = "support/stump_oracle.rs"]
mod stump_oracle;

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use wts_ripper::{Dataset, DecisionStump, StumpCounts};

/// Value pools: a few tied values (with both zeros), one constant, and
/// a wide spread.
fn value(pool: u8, draw: u64) -> f64 {
    const TIES: [f64; 6] = [-0.0, 0.0, 1.0, -2.5, 3.0, 0.5];
    match pool {
        0 => TIES[(draw % 6) as usize],
        1 => 7.0,
        _ => (draw % 1000) as f64 / 7.0 - 50.0,
    }
}

/// A dataset of `n` instances over `pools.len()` attributes. `labels`
/// picks random labels (0), all positive (1), all negative (2) or a
/// threshold on attribute 0 (3).
fn dataset(n: usize, pools: &[u8], labels: u8, seed: u64) -> Dataset {
    let names = (0..pools.len()).map(|a| format!("a{a}")).collect();
    let mut d = Dataset::new(names, "LS", "NS");
    let mut s = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut next = || {
        s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        s >> 17
    };
    for _ in 0..n {
        let values: Vec<f64> = pools.iter().map(|&p| value(p, next())).collect();
        let positive = match labels {
            0 => next() % 2 == 0,
            1 => true,
            2 => false,
            _ => values[0] >= 0.5,
        };
        d.push(values, positive, 0);
    }
    d
}

fn arb_dataset() -> impl Strategy<Value = Dataset> {
    (0usize..60, prop::collection::vec(0u8..3, 1..5), 0u8..4, 0u64..1_000_000)
        .prop_map(|(n, pools, labels, seed)| dataset(n, &pools, labels, seed))
}

fn check(data: &Dataset) -> Result<(), TestCaseError> {
    let oracle = stump_oracle::fit(data);
    let counts = StumpCounts::of(data);
    for stump in [counts.fit(), DecisionStump::fit(data)] {
        prop_assert_eq!(stump.attr(), oracle.attr);
        prop_assert_eq!(stump.threshold().to_bits(), oracle.threshold.to_bits());
        prop_assert_eq!(stump.ge_positive(), oracle.ge_positive);
    }
    let want = stump_oracle::rule_set(data);
    let got = counts.rule_set();
    prop_assert_eq!(&got, &want);
    prop_assert_eq!(stump_oracle::threshold_bits(&got), stump_oracle::threshold_bits(&want));
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn count_sweep_equals_the_sort_based_stump(data in arb_dataset()) {
        check(&data)?;
    }

    #[test]
    fn absorbing_in_pieces_equals_absorbing_at_once(data in arb_dataset(), cut in 0usize..60) {
        let cut = cut.min(data.len());
        let mut counts = StumpCounts::new(data.attr_names().to_vec(), "LS", "NS");
        for inst in &data.instances()[..cut] {
            counts.push(&inst.values, inst.positive);
        }
        let prefix = data.filtered({
            let mut k = 0;
            move |_| {
                k += 1;
                k <= cut
            }
        });
        prop_assert_eq!(counts.rule_set(), stump_oracle::rule_set(&prefix));
        for inst in &data.instances()[cut..] {
            counts.push(&inst.values, inst.positive);
        }
        prop_assert_eq!(counts, StumpCounts::of(&data));
    }
}

#[test]
fn the_first_seen_zero_is_the_threshold() {
    for (first, second) in [(-0.0, 0.0), (0.0, -0.0)] {
        let mut d = Dataset::new(vec!["x".into()], "LS", "NS");
        d.push(vec![-1.0], false, 0);
        d.push(vec![first], true, 0);
        d.push(vec![second], true, 0);
        d.push(vec![2.0], true, 0);
        let stump = DecisionStump::fit(&d);
        assert_eq!(stump.threshold().to_bits(), f64::to_bits(first), "first-seen zero kept");
        assert_eq!(stump.threshold().to_bits(), stump_oracle::fit(&d).threshold.to_bits());
        check(&d).expect("equal to the oracle");
    }
}

#[test]
fn degenerate_datasets_match_the_oracle() {
    let empty = Dataset::new(vec!["x".into(), "y".into()], "LS", "NS");
    check(&empty).expect("empty");
    assert!(StumpCounts::of(&empty).rule_set().is_empty(), "no data lowers to no rules");
    for labels in 0..4 {
        for pools in [[1u8, 1], [0, 1], [1, 0]] {
            for n in [1, 2, 17] {
                check(&dataset(n, &pools, labels, 42 + n as u64)).expect("degenerate");
            }
        }
    }
}
