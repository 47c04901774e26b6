//! # crowd-ingest
//!
//! Streaming, fault-tolerant loader for the on-disk dataset — the
//! untrusted-input counterpart of `crowd_core::csv::import_dir`.
//!
//! The paper's raw marketplace logs (27M instances, 2012–2016) had to be
//! cleaned before analysis; real crowd platforms routinely deliver
//! duplicate submissions, out-of-order events, and partial uploads. This
//! crate loads such input deterministically and honestly:
//!
//! - **Fault injection** ([`fault`]): a seeded [`FaultPlan`] +
//!   [`ChaosReader`] wrap any `io::Read` and inject truncation, bit
//!   corruption, duplicate records, record reordering, and transient IO
//!   errors from a reproducible schedule — every chaos test replays.
//! - **Recovery** ([`retry`], [`loader`]): bounded retry with exponential
//!   backoff (injected [`Clock`], zero wall-clock sleeps in tests) for
//!   transient faults; per-record quarantine under a typed
//!   [`FaultClass`](crowd_core::FaultClass) taxonomy with a configurable
//!   [`ErrorBudget`](crowd_core::ErrorBudget) for permanent ones; dedup of
//!   replayed instance rows; canonical re-ordering of out-of-order
//!   instances.
//! - **Provenance**: every load returns an
//!   [`IngestReport`](crowd_core::IngestReport) so downstream analytics
//!   carry coverage metadata instead of silently computing over partial
//!   data. When the export [`Manifest`](crowd_core::csv::Manifest) is
//!   present, per-table row counts and content digests are verified, so a
//!   "recovered" dataset is provably identical to what the exporter wrote.
//! - **Determinism**: the instance decode is chunked at the same fixed
//!   8192-row discipline as the scan engine; clean-input ingest is
//!   bit-identical at any thread count.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod events;
pub mod fault;
pub mod killpoint;
pub mod loader;
pub mod retry;
pub mod source;
pub mod wal;

pub use events::{
    event_log_to_csv, events_from_dataset, load_events, load_events_str, EventLog, EventOptions,
    EventStreamError, MarketEvent,
};
pub use fault::{ChaosReader, Fault, FaultKind, FaultPlan};
pub use killpoint::{kill_point, points_passed, KILL_AT_ENV};
pub use loader::{ingest, ingest_dir, IngestFailure, IngestOptions, Ingested, CHUNK};
pub use retry::{
    is_transient, read_all_with_retry, retry_transient, Backoff, Clock, ManualClock, SystemClock,
};
pub use source::{ChaosSource, DirSource, TableSource};
pub use wal::{
    replay as wal_replay, segment_files as wal_segment_files, truncate_torn, WalCorruptKind,
    WalError, WalFault, WalOptions, WalReplay, WalStats, WalWriter,
};
