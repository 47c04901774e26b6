//! Differential tests: the fused engine vs the straight-line oracles,
//! over deterministic edge cases, generated adversarial datasets, and
//! simulated marketplaces; and both enrichment drivers (resident and
//! streamed) vs the §4.1 batch-metric oracle over the same inputs.

use crowd_analytics::study::{sampled_docs, BatchMetrics, StreamingEnricher};
use crowd_analytics::Study;
use crowd_cluster::{ClusterParams, Clusterer};
use crowd_core::fixture::Fixture;
use crowd_core::prelude::*;
use crowd_sim::{simulate, SimConfig};
use crowd_testkit::differential::{
    compare_batch_metrics, compare_fused, fused_with_shards, FloatMode,
};
use crowd_testkit::generators::{
    edge_case_datasets, out_of_order_datasets, small_adversarial, sparse_timeline,
    ties_and_duplicates,
};
use crowd_testkit::oracle::batch_metrics;
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

// ---- §4.1 batch metrics: both enrichment drivers vs the oracle ----------

/// Shard counts the streamed enricher is fed at.
const ENRICH_SHARDS: [usize; 3] = [1, 3, 16];

/// `ds` with its rows stably sorted by batch: the grouped, ascending order
/// the streamed enricher requires (simulated and ingested tables already
/// have it).
fn batch_grouped(ds: &Dataset) -> Dataset {
    let mut order: Vec<usize> = (0..ds.instances.len()).collect();
    order.sort_by_key(|&i| ds.instances.batch_col()[i]);
    let mut out = ds.clone();
    out.instances = order.into_iter().map(|i| ds.instances.row(i).to_owned()).collect();
    out
}

/// The streamed driver: `ds`'s rows flushed through a
/// [`StreamingEnricher`] in [`ShardPlan`] pieces.
fn streamed_metrics(ds: &Dataset, shards: usize) -> Vec<BatchMetrics> {
    let (_ids, docs) = sampled_docs(ds);
    let clustering = Clusterer::new(ClusterParams::default()).cluster(&docs);
    let mut entities = ds.clone();
    entities.instances = InstanceColumns::new();
    let mut enricher = StreamingEnricher::new(&entities);
    for range in ShardPlan::new(ds.instances.len(), shards).ranges() {
        let piece = ds.instances.clone_range(range.clone());
        enricher.flush(range.start, &piece).unwrap_or_else(|never| match never {});
    }
    enricher.finish(&entities, &clustering)
}

/// The resident driver on `ds` as given, then the streamed one on its
/// batch-grouped rows at every [`ENRICH_SHARDS`] count: each must equal
/// the oracle, every metric to the bit.
fn assert_enrichment_matches_oracle(name: &str, ds: &Dataset) {
    let oracle = batch_metrics(ds);
    let resident: Vec<BatchMetrics> = Study::new(ds.clone()).enriched_batches().cloned().collect();
    let diffs = compare_batch_metrics(&resident, &oracle);
    assert!(diffs.is_empty(), "`{name}`: resident enrichment differs:\n{}", diffs.join("\n"));
    let grouped = batch_grouped(ds);
    for shards in ENRICH_SHARDS {
        let diffs = compare_batch_metrics(&streamed_metrics(&grouped, shards), &oracle);
        assert!(
            diffs.is_empty(),
            "`{name}`: streamed enrichment at {shards} shards differs:\n{}",
            diffs.join("\n")
        );
    }
}

#[test]
fn edge_case_enrichment_matches_batch_metric_oracle() {
    for (name, ds) in edge_case_datasets() {
        assert_enrichment_matches_oracle(name, &ds);
    }
}

#[test]
fn out_of_order_enrichment_matches_batch_metric_oracle() {
    for (name, ds) in out_of_order_datasets() {
        assert_enrichment_matches_oracle(name, &ds);
    }
}

#[test]
fn simulated_enrichment_matches_batch_metric_oracle() {
    for seed in [5, 1301] {
        let ds = simulate(&SimConfig::tiny(seed));
        assert_enrichment_matches_oracle(&format!("tiny({seed})"), &ds);
    }
}

/// One sampled batch spans three shards at 16 requested, so the streamed
/// enricher carries its rows across two shard boundaries; the batch
/// before it ends exactly on a boundary, and an unsampled batch with rows
/// sits between it and the last one.
#[test]
fn a_batch_spanning_three_shards_matches_batch_metric_oracle() {
    const CHUNK: usize = ScanPass::CHUNK;
    let mut f = Fixture::new();
    let workers = f.add_workers(5);
    let first = f.add_batch(Duration::ZERO);
    let long = f.add_batch(Duration::from_days(2));
    let unsampled = f.add_unsampled_batch(Duration::from_days(3));
    let last = f.add_batch(Duration::from_days(9));
    for i in 0..CHUNK {
        f.instance(first, (i % 11) as u32, workers[i % 5], 60 + (i % 17) as i64, 30);
    }
    for i in 0..2 * CHUNK + 100 {
        let answer = match i % 7 {
            0 => Answer::Skipped,
            1 => Answer::Text(format!("t{}", i % 3)),
            _ => Answer::Choice((i % 4) as u16),
        };
        let (pickup, work) = ((i * 37 % 5_000) as i64, (i % 301) as i64);
        f.instance_full(long, (i % 13) as u32, workers[i % 5], pickup, work, 0.5, answer);
    }
    for i in 0..50 {
        f.instance(unsampled, i % 3, workers[0], 10, 5);
    }
    for i in 0..30 {
        f.instance(last, i % 4, workers[i as usize % 5], 120, 20 + i64::from(i));
    }
    let ds = f.finish();

    let plan = ShardPlan::new(ds.instances.len(), 16);
    let spans =
        plan.ranges().filter(|r| ds.instances.batch_col()[r.clone()].contains(&long)).count();
    assert_eq!(spans, 3, "the long batch spans three shards of {plan:?}");
    assert_eq!(plan.ranges().next().map(|r| r.end), Some(CHUNK), "the first batch fills a shard");
    assert_enrichment_matches_oracle("carry", &ds);
}

proptest! {
    #[test]
    fn small_adversarial_enrichment_matches_batch_metric_oracle(ds in small_adversarial()) {
        assert_enrichment_matches_oracle("small_adversarial", &ds);
    }

    #[test]
    fn tied_enrichment_matches_batch_metric_oracle(ds in ties_and_duplicates()) {
        assert_enrichment_matches_oracle("ties_and_duplicates", &ds);
    }

    #[test]
    fn sparse_enrichment_matches_batch_metric_oracle(ds in sparse_timeline()) {
        assert_enrichment_matches_oracle("sparse_timeline", &ds);
    }
}
