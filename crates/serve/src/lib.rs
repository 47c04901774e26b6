//! # crowd-serve
//!
//! A live incremental analytics service over the marketplace event
//! stream. Where the rest of the workspace answers "what did the
//! marketplace look like?" from a finished dataset, this crate answers it
//! *while the marketplace is running*:
//!
//! - [`replay`] turns a simulated dataset into the timestamped
//!   [`MarketEvent`](crowd_ingest::MarketEvent) feed a live platform
//!   would have emitted, serialized through the hardened `crowd-ingest`
//!   wire format (retry, quarantine, canonical reordering, digest
//!   verification);
//! - [`service`] maintains a [`LiveService`]: entity tables plus a
//!   delta-applied [`FusedView`](crowd_analytics::FusedView) that
//!   publishes immutable, versioned snapshots — concurrent readers query
//!   a consistent state while the writer keeps applying event batches;
//! - [`query`] shapes a published snapshot into the service's read API:
//!   throughput series, worker-availability curves, per-source load, and
//!   work-time CDFs/medians;
//! - [`checkpoint`] persists the service state through the
//!   `crowd-snapshot` binary format and restores after a crash, falling
//!   back past torn files with a typed fault list.
//!
//! The headline guarantee is *incremental = batch*: after every applied
//! delta the published fused aggregates equal what a cold batch
//! [`Study`](crowd_analytics::Study) computes over the same event prefix
//! — bit for bit, in every field, floats included. The
//! `crowd-testkit` differential harness and the root `serve_*`
//! integration suites enforce this at every batch boundary, under
//! concurrency, and across kill/restore.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod checkpoint;
pub mod query;
pub mod queue;
pub mod replay;
pub mod service;

pub use checkpoint::{
    CheckpointError, CheckpointFault, CheckpointProgress, CheckpointState, CheckpointStore,
};
pub use query::{Dashboard, SourceLoad, WeekThroughput};
pub use queue::{Admission, ApplyQueue, QueueStats, ShedPolicy};
pub use replay::{entities_only, EventFeed};
pub use service::{
    Gauges, LiveService, RecoveryReport, ServeError, ServiceHandle, ServiceSnapshot,
};
