//! # crowd-testkit
//!
//! Correctness infrastructure for the fused analytics engine, in three
//! pillars (see `DESIGN.md` §12):
//!
//! * [`oracle`] — straight-line, single-threaded scalar re-implementations
//!   of every accumulator family the fused [`crowd_analytics::fused`] pass
//!   computes, written directly against [`crowd_core::InstanceRef`] rows
//!   with none of the engine's chunking, fusion, or parallelism;
//! * [`differential`] — a harness comparing the fused engine's output
//!   against the oracle field-by-field, every float to the bit (the
//!   oracle copies the engine's chunk-order float discipline), at 1 and
//!   4 worker threads;
//! * [`generators`] — seeded adversarial [`proptest::Strategy`]s and
//!   deterministic edge-case datasets (empty tables, single instances,
//!   duplicate timestamps, median ties, chunk-boundary sizes) that explore
//!   corners the simulator never emits;
//! * [`kernels`] — frozen copies of the original naive shingling and
//!   MinHash implementations, the reference oracles the rewritten
//!   hot-path kernels in `crowd-cluster` are differentially tested
//!   against (`tests/kernel_differential.rs`);
//! * [`csv_scan`] — a frozen copy of the original char-at-a-time CSV
//!   record scanner, the oracle `crowd_core::csv`'s byte scanner is
//!   differentially tested against (`tests/csv_scan_differential.rs`);
//! * [`view`] — the live-path differential: a delta-applied
//!   [`FusedView`](crowd_analytics::FusedView) fed through the
//!   damaged-in-transit event-stream loader and checked against cold
//!   batch studies at every delta boundary;
//! * [`paper_invariants`] — a conformance suite asserting the simulator
//!   and analytics jointly reproduce the paper's qualitative findings
//!   (effect directions, dominance relations, saturation shapes), each
//!   invariant named after the section of Jain et al. (VLDB 2017) it
//!   reproduces.
//!
//! The north-star rationale: every number the reproduction emits flows
//! through one highly-optimized scan path. Refactoring that path freely
//! requires oracles to refactor against; this crate is those oracles.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod csv_scan;
pub mod differential;
pub mod generators;
pub mod kernels;
pub mod oracle;
pub mod paper_invariants;
pub mod view;

pub use differential::{assert_study_matches_oracle, compare_fused, fused_with_shards};
pub use kernels::{naive_minhash_params, naive_shingles, naive_signature, naive_tokenize};
pub use oracle::oracle_fused;
pub use paper_invariants::{check_all, Invariant};
pub use view::{assert_view_matches_batch, delta_cuts};
