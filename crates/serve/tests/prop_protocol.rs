//! The wire codec against whatever a peer may send: neither decoder
//! panics on arbitrary bytes, nor on valid encodings that are truncated
//! or have a bit flipped, and valid frames round-trip exactly. Request
//! methods are drawn from the shared instruction generator, so every
//! opcode, operand shape and hazard set the suites exercise crosses the
//! wire.

#[path = "../../ir/tests/support/arb.rs"]
mod arb;

use arb::arb_block;
use proptest::prelude::*;
use proptest::test_runner::TestCaseResult;
use std::panic::catch_unwind;
use wts_core::{FilteredPass, ServedUnit};
use wts_ir::{BasicBlock, Method};
use wts_serve::{
    decode_batch_request, decode_response, encode_batch_request, encode_response, BatchRequest, BatchResult, Response,
};

/// Up to three methods of one to three blocks, each block from the
/// shared generator with any execution count.
fn arb_methods() -> impl Strategy<Value = Vec<Method>> {
    let blocks = prop::collection::vec((arb_block(16), 0u64..u64::MAX), 1..4);
    prop::collection::vec(blocks, 0..4).prop_map(|methods| {
        (0u32..)
            .zip(methods)
            .map(|(id, blocks)| {
                let mut m = Method::new(id, format!("m{id}"));
                for (b, (insts, exec)) in (0u32..).zip(blocks) {
                    let mut block = BasicBlock::from_insts(b, insts);
                    block.set_exec_count(exec);
                    m.push_block(block);
                }
                m
            })
            .collect()
    })
}

/// A response of any kind. A skipped unit carries no order or cycles on
/// the wire, so it is drawn as the default unit it decodes to.
fn arb_response() -> impl Strategy<Value = Response> {
    let unit = (prop::collection::vec(0u32..=u32::MAX, 0..8), 0u64..u64::MAX, 0u64..u64::MAX).prop_map(
        |(order, cycles_before, cycles_after)| ServedUnit { decision: true, order, cycles_before, cycles_after },
    );
    let units = prop::collection::vec(prop::option::of(unit), 0..6);
    let totals = (0usize..usize::MAX, 0usize..usize::MAX, 0u64..u64::MAX, 0u64..u64::MAX, 0u64..u64::MAX);
    (0u8..3, 0u64..u64::MAX, 0u32..=u32::MAX, totals, units).prop_map(|(kind, id, depth, t, units)| match kind {
        0 => Response::Batch(BatchResult {
            batch_id: id,
            epoch: u64::from(depth),
            totals: FilteredPass {
                total_blocks: t.0,
                scheduled_blocks: t.1,
                conditions_evaluated: t.2,
                extraction_work: t.3,
                sched_work: t.4,
            },
            units: units.into_iter().map(Option::unwrap_or_default).collect(),
        }),
        1 => Response::Busy { batch_id: id, queue_depth: depth },
        _ => Response::Error { detail: format!("error {id:x} ü") },
    })
}

/// Both decoders on `payload`: each may return an error, never panic.
fn decodes_without_panic(payload: &[u8]) -> TestCaseResult {
    prop_assert!(catch_unwind(|| decode_batch_request(payload)).is_ok(), "decode_batch_request panicked");
    prop_assert!(catch_unwind(|| decode_response(payload)).is_ok(), "decode_response panicked");
    Ok(())
}

/// `payload` cut at `at`, and `payload` with bit `at` flipped (both
/// taken modulo the payload's length).
fn damaged(payload: &[u8], at: usize) -> [Vec<u8>; 2] {
    let mut flipped = payload.to_vec();
    if !flipped.is_empty() {
        let bit = at % (flipped.len() * 8);
        flipped[bit / 8] ^= 1 << (bit % 8);
    }
    [payload[..at % (payload.len() + 1)].to_vec(), flipped]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary bytes, led by every frame kind and some that are none.
    #[test]
    fn arbitrary_bytes_never_panic_either_decoder(kind in 0u8..6, rest in prop::collection::vec(0u8..=255, 0..96)) {
        decodes_without_panic(&rest)?;
        let payload: Vec<u8> = std::iter::once(kind).chain(rest).collect();
        decodes_without_panic(&payload)?;
    }

    /// Valid requests, truncated anywhere or with any one bit flipped.
    #[test]
    fn damaged_requests_never_panic_either_decoder(batch_id in 0u64..u64::MAX, methods in arb_methods(), at in 0usize..1 << 16) {
        for payload in damaged(&encode_batch_request(batch_id, "bench", &methods), at) {
            decodes_without_panic(&payload)?;
        }
    }

    /// Valid responses of every kind, truncated or with a bit flipped.
    #[test]
    fn damaged_responses_never_panic_either_decoder(resp in arb_response(), at in 0usize..1 << 12) {
        for payload in damaged(&encode_response(&resp), at) {
            decodes_without_panic(&payload)?;
        }
    }

    #[test]
    fn requests_round_trip_exactly(batch_id in 0u64..u64::MAX, methods in arb_methods()) {
        let payload = encode_batch_request(batch_id, "bench/ü", &methods);
        let expected = BatchRequest { batch_id, benchmark: "bench/ü".to_string(), methods };
        prop_assert_eq!(decode_batch_request(&payload).expect("a valid request decodes"), expected);
    }

    #[test]
    fn responses_round_trip_exactly(resp in arb_response()) {
        prop_assert_eq!(decode_response(&encode_response(&resp)).expect("a valid response decodes"), resp);
    }
}
