//! A hot-swappable scheduling-filter service over the paper's deployed
//! fast path.
//!
//! Footnote 4 of Cavazos & Moss contemplates shipping "tools to end
//! users so that they could develop their own training sets and
//! retrain". This crate is that tool grown into a daemon: a std-only
//! TCP server that accepts length-prefixed binary batches of compilation
//! units, schedules each against the currently deployed
//! [`FilterSnapshot`](wts_core::FilterSnapshot) at the paper's operating
//! point ([`HardThreshold`](wts_core::DecisionPolicy::HardThreshold): a
//! unit is scheduled exactly when a rule fires), streams the schedules
//! back, and feeds every served unit to a background retrainer. The
//! retrainer observes each unit's features and estimated cycles
//! (label-only: no trace record is kept), periodically folds what it
//! learned into a new filter and hot-swaps it into the shared
//! [`FilterStore`](wts_core::FilterStore) — epoch-tagged, without
//! pausing serving.
//!
//! The serving fast path is [`wts_core::UnitServer`] over the units of
//! [`wts_features::for_each_scope_unit`]: the one per-unit body and the one
//! scope dispatch that [`wts_core::filtered_schedule_pass`] and the
//! `wts-jit` compile session also run. So served ≡ direct pass ≡ JIT
//! holds by construction: a batch's reported totals are bit-identical
//! to running the pass directly over the same methods.
//! Every hand-off is a transition of one sans-IO [`ServeCore`], which
//! the threads drive and [`check_serve_protocol`] model-checks.
//! Backpressure is explicit: a bounded job FIFO, and a
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
mod core;
mod protocol;
mod retrain;
mod server;

pub use client::ServeClient;
pub use core::{check_serve_protocol, ServeCore, ServeProtoConfig, Take};
pub use protocol::{
    decode_batch_request, decode_response, encode_batch_request, encode_response, read_frame, write_frame,
    BatchRequest, BatchResult, Response, MAX_FRAME_BYTES,
};
pub use retrain::RetrainReport;
pub use server::{ServeConfig, ServeReport, ServeStats, Server, ServerHandle};
