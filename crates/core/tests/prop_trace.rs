//! Property-based round-trips of the binary trace format against
//! hostile files: boundary ids, non-finite feature values, truncation at
//! any length and corrupted headers. Every mutation below must fail with
//! a named error, never parse into a valid-looking but wrong record set.

use proptest::prelude::*;
use wts_core::{read_trace_binary, write_trace_binary, BinaryTraceError, TraceRecord};
use wts_features::{FeatureKind, FeatureVector};
use wts_ir::{BlockId, MethodId};

/// A valid record with ids spanning the full `u32` range (both
/// boundaries included).
fn arb_record() -> impl Strategy<Value = TraceRecord> {
    (
        0u64..4,
        0u32..=u32::MAX,
        0u32..=u32::MAX,
        0u64..u64::MAX,
        0u32..2000,
        prop::collection::vec(0u32..=1000, FeatureKind::COUNT..FeatureKind::COUNT + 1),
    )
        .prop_map(|(bench, method, block, exec, bb_len, fracs)| {
            let mut v = [0.0; FeatureKind::COUNT];
            for (k, f) in fracs.iter().enumerate() {
                v[k] = *f as f64 / 1000.0;
            }
            v[FeatureKind::BbLen.index()] = bb_len as f64;
            TraceRecord {
                benchmark: format!("bench{bench}"),
                method: MethodId(method),
                block: BlockId(block),
                exec_count: exec,
                features: FeatureVector::from_values(v),
                est_unsched: exec.rotate_left(7),
                est_sched: exec.rotate_left(11),
                hw_unsched: exec.rotate_left(13),
                hw_sched: exec.rotate_left(17),
                sched_ns: u64::from(bb_len) * 3,
                feature_ns: u64::from(bb_len),
                sched_work: u64::from(bb_len) * 2,
                feature_work: u64::from(bb_len) / 2,
            }
        })
}

/// Bytes of one binary record (key words, exec count, features,
/// channels).
const RECORD_BYTES: usize = 16 + 8 + 8 * FeatureKind::COUNT + 8 * 8;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn valid_records_round_trip_exactly(recs in prop::collection::vec(arb_record(), 0..20)) {
        let bin = write_trace_binary(&recs).unwrap();
        prop_assert_eq!(read_trace_binary(&bin).unwrap(), recs);
    }

    #[test]
    fn non_finite_features_are_rejected_on_read(recs in prop::collection::vec(arb_record(), 1..12),
                                                pick in 0usize..1_000_000,
                                                feature in 0usize..FeatureKind::COUNT,
                                                hostile in prop::sample::select(vec![f64::NAN, f64::INFINITY, f64::NEG_INFINITY])) {
        // A patched NaN/±inf would make every rule condition on it
        // compare false — the record would silently classify NS under
        // any learned filter.
        let target = pick % recs.len();
        let mut bytes = write_trace_binary(&recs).unwrap();
        let at = bytes.len() - (recs.len() - target) * RECORD_BYTES + 24 + 8 * feature;
        bytes[at..at + 8].copy_from_slice(&hostile.to_le_bytes());
        let err = read_trace_binary(&bytes).expect_err("non-finite feature must not parse");
        prop_assert!(matches!(err, BinaryTraceError::BadRecord { index, .. } if index == target), "got {:?}", err);
        let name = FeatureKind::ALL[feature].rule_name();
        prop_assert!(err.to_string().contains(&format!("non-finite feature {name}")), "got: {}", err);
    }

    /// Chopping a valid binary file at any interior length must fail with
    /// a *named* error — never a panic, never a silently short record set.
    #[test]
    fn truncated_binary_is_rejected_with_named_errors(recs in prop::collection::vec(arb_record(), 0..12),
                                                      cut in 0usize..1_000_000) {
        let full = write_trace_binary(&recs).unwrap();
        let cut = cut % full.len();
        match read_trace_binary(&full[..cut]) {
            Err(BinaryTraceError::BadMagic)
            | Err(BinaryTraceError::Truncated { .. })
            | Err(BinaryTraceError::HostileHeader { .. }) => {}
            other => prop_assert!(false, "truncation at {} must name the failure, got {:?}", cut, other),
        }
    }

    /// Corrupting any byte of the fixed header — magic, feature count,
    /// name length prefixes or name bytes — must be rejected by name.
    /// (Benchmark names are free-form, so the mutation range stops at the
    /// benchmark table.)
    #[test]
    fn hostile_binary_header_is_rejected_with_named_errors(recs in prop::collection::vec(arb_record(), 1..12),
                                                           pos in 0usize..1_000_000,
                                                           flip in 1u8..=255) {
        let mut bytes = write_trace_binary(&recs).unwrap();
        let feature_table_end: usize =
            24 + 4 + FeatureKind::ALL.iter().map(|k| 2 + k.rule_name().len()).sum::<usize>();
        let pos = pos % feature_table_end;
        bytes[pos] ^= flip;
        match read_trace_binary(&bytes) {
            Err(BinaryTraceError::BadMagic)
            | Err(BinaryTraceError::Truncated { .. })
            | Err(BinaryTraceError::HostileHeader { .. }) => {}
            other => prop_assert!(false, "flipping byte {} must name the failure, got {:?}", pos, other),
        }
    }
}
