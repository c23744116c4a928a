//! A hot-swappable scheduling-filter service over the paper's deployed
//! fast path.
//!
//! Footnote 4 of Cavazos & Moss contemplates shipping "tools to end
//! users so that they could develop their own training sets and
//! retrain". This crate is that tool grown into a daemon: a std-only
//! TCP server that accepts length-prefixed binary batches of compilation
//! units, schedules each against the currently deployed
//! [`FilterSnapshot`](wts_core::FilterSnapshot), streams the schedules
//! back, and feeds every served unit to a background retrainer. The
//! retrainer observes each unit's features and estimated cycles
//! (label-only, unless `ServeConfig::persist_corpus` asks for full trace
//! records), periodically folds what it learned into a new filter and
//! hot-swaps it into the shared
//! [`FilterStore`](wts_core::FilterStore) — epoch-tagged, without
//! pausing serving.
//!
//! The serving fast path is [`wts_core::UnitServer`] over the units of
//! [`wts_core::for_each_scope_unit`]: the one per-unit body and the one
//! scope dispatch that [`wts_core::filtered_schedule_pass`] and the
//! `wts-jit` compile session also run. So served ≡ direct pass ≡ JIT
//! holds by construction: a batch's reported totals are bit-identical
//! (work channels) to running the pass directly over the same methods.
//! Backpressure is explicit: a bounded job queue, and a
//! [`Response::Busy`] shed frame when it is full. Shutdown drains:
//! accepted batches are answered and their observations absorbed before
//! the threads join.
//!
//! # Examples
//!
//! ```
//! use wts_core::{collect_trace, TraceOptions};
//! use wts_machine::MachineConfig;
//! use wts_serve::{Response, ServeClient, ServeConfig, Server};
//!
//! let machine = MachineConfig::ppc7410();
//! let programs = wts_core::testutil::learnable_suite(2);
//! let seed = programs.iter().flat_map(|p| collect_trace(p, &machine, &TraceOptions::default())).collect();
//!
//! let mut config = ServeConfig::new(machine, seed);
//! config.learner = wts_core::LearnerKind::Stump;
//! let handle = Server::bind("127.0.0.1:0", config).expect("bind");
//!
//! let mut client = ServeClient::connect(handle.local_addr()).expect("connect");
//! let resp = client.request(1, programs[0].name(), programs[0].methods()).expect("serve");
//! match resp {
//!     Response::Batch(batch) => {
//!         assert_eq!(batch.units.len(), programs[0].block_count());
//!         assert_eq!(batch.epoch, 1);
//!     }
//!     other => panic!("expected a batch result, got {other:?}"),
//! }
//!
//! let report = handle.shutdown();
//! assert_eq!(report.stats.batches_served, 1);
//! assert_eq!(report.retrain.records_absorbed, report.stats.units_served);
//! ```

// The wire codec is all narrowing conversions; hold the whole crate to
// the same lossless-cast bar CI enforces on the verifier-audited crates
// (the workspace clippy pass runs with `-D warnings`, so these warns
// are denied).
#![warn(clippy::cast_possible_truncation, clippy::cast_sign_loss)]

mod client;
mod protocol;
mod retrain;
mod server;

pub use client::ServeClient;
pub use protocol::{
    decode_batch_request, decode_response, encode_batch_request, encode_response, read_frame, read_frame_into,
    write_frame, BatchRequest, BatchResult, Response, MAX_FRAME_BYTES,
};
pub use retrain::RetrainReport;
pub use server::{ServeConfig, ServeReport, ServeStats, Server, ServerHandle};
