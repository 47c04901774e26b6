//! Differential tests: the fused engine vs the straight-line oracles,
//! over deterministic edge cases, generated adversarial datasets, and
//! simulated marketplaces.

use crowd_sim::{simulate, SimConfig};
use crowd_testkit::differential::{compare_fused, fused_with_shards, FloatMode};
use crowd_testkit::generators::{
    edge_case_datasets, out_of_order_datasets, small_adversarial, sparse_timeline,
    ties_and_duplicates,
};
use crowd_testkit::{assert_study_matches_oracle, oracle_fused};
use proptest::prelude::*;

#[test]
fn edge_cases_match_oracle() {
    for (name, ds) in edge_case_datasets() {
        eprintln!("differential: edge case `{name}` ({} instances)", ds.instances.len());
        assert_study_matches_oracle(&ds);
    }
}

/// Row orders the simulator never produces (reversed, shuffled, one
/// worker's keys descending across chunks, an item straddling a chunk
/// boundary): the scan's sorted-merge fallbacks must match the oracle bit
/// for bit at 1 and 4 threads and at 1 and 3 shards.
#[test]
fn out_of_order_rows_match_oracle() {
    for (name, ds) in out_of_order_datasets() {
        eprintln!("differential: out-of-order `{name}` ({} instances)", ds.instances.len());
        assert_study_matches_oracle(&ds);
        let oracle = oracle_fused(&ds);
        for shards in [1, 3] {
            for threads in [1, 4] {
                let engine = fused_with_shards(&ds, threads, shards);
                let diffs = compare_fused(&engine, &oracle, FloatMode::Bitwise);
                assert!(
                    diffs.is_empty(),
                    "`{name}` at {shards} shards × {threads} threads differs from the oracle:\n{}",
                    diffs.join("\n")
                );
            }
        }
    }
}

proptest! {
    #[test]
    fn small_adversarial_datasets_match_oracle(ds in small_adversarial()) {
        assert_study_matches_oracle(&ds);
    }

    #[test]
    fn tied_and_duplicated_datasets_match_oracle(ds in ties_and_duplicates()) {
        assert_study_matches_oracle(&ds);
    }

    #[test]
    fn sparse_timeline_datasets_match_oracle(ds in sparse_timeline()) {
        assert_study_matches_oracle(&ds);
    }
}

#[test]
fn simulated_tiny_scale_matches_oracle() {
    assert_study_matches_oracle(&simulate(&SimConfig::tiny(5)));
}

#[test]
#[ignore = "heavy: the CI conformance job runs this in release with --ignored"]
fn simulated_conformance_scale_matches_oracle() {
    assert_study_matches_oracle(&simulate(&SimConfig::conformance(11)));
}
