//! The pipeline's core contract after parallelization: thread count is a
//! performance knob, never a semantics knob. A run under a single-thread
//! pool and a run under a multi-thread pool must produce bit-identical
//! datasets, batch enrichment, and cluster assignments.
//!
//! Since the sharded store landed (DESIGN.md §15), shard count is held to
//! the same contract: streaming the instance table in chunk-aligned shards
//! only re-batches the fixed-chunk scan schedule, so any shards × threads
//! combination must agree bit-for-bit with the sequential unsharded run.

use crowd_analytics::Study;
use crowd_sim::{simulate, SimConfig};
use crowd_testkit::fused_with_shards;
use rayon::ThreadPoolBuilder;

/// Full pipeline at a given thread count, summarized as comparable
/// pieces: (instances, batches, batch-metrics debug, clusters debug,
/// fused debug).
fn run(threads: usize) -> (usize, String, String, String, String) {
    let pool = ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
    pool.install(|| {
        let cfg = SimConfig::tiny(2017);
        let ds = simulate(&cfg);
        let instances = format!("{:?}", ds.instances);
        let batches = format!("{:?}", ds.batches);
        let n = ds.instances.len();
        let study = Study::new(ds);
        let metrics: Vec<String> = study.enriched_batches().map(|m| format!("{m:?}")).collect();
        let clusters = format!("{:?}", study.clusters());
        let fused = format!("{:?}", study.fused());
        (n, format!("{instances}\n{batches}"), metrics.join("\n"), clusters, fused)
    })
}

#[test]
fn thread_count_does_not_change_results() {
    let single = run(1);
    let quad = run(4);
    assert_eq!(single.0, quad.0, "instance counts diverge");
    assert_eq!(single.1, quad.1, "simulated dataset diverges");
    assert_eq!(single.2, quad.2, "batch enrichment diverges");
    assert_eq!(single.3, quad.3, "cluster assignments diverge");
    assert_eq!(single.4, quad.4, "fused aggregates diverge");
    assert!(single.0 > 10_000, "run must be non-trivial: {}", single.0);
    assert!(!single.2.is_empty(), "enrichment must produce metrics");
}

#[test]
fn odd_thread_counts_agree_too() {
    // Chunked splits with a remainder (3 threads over n items) exercise the
    // uneven-partition path; results must still match the sequential run.
    let single = run(1);
    let triple = run(3);
    assert_eq!(single, triple);
}

#[test]
fn shard_count_does_not_change_results() {
    // The full shards × threads grid from the acceptance contract: the
    // fused scan over streamed shards, the path a snapshot-backed study
    // runs, must match the sequential unsharded reference bitwise in
    // every cell.
    let reference = run(1);
    let ds = simulate(&SimConfig::tiny(2017));
    for shards in [3, 8] {
        for threads in [1, 4] {
            let cell = format!("{:?}", fused_with_shards(&ds, threads, shards));
            assert_eq!(
                reference.4, cell,
                "shards={shards} threads={threads} diverges from the 1×1 reference"
            );
        }
    }
}
