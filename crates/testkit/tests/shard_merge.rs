//! Shard-merge differential: partitioning the instance table is a layout
//! knob, never a semantics knob. The streamed scan
//! ([`ScanPass::run_stream`]) and the analytics-level fused scan over
//! streamed shards must agree bit-for-bit with the monolithic scan, over
//! the adversarial edge-case catalog and over simulated marketplaces large
//! enough to split into several real shards.

use crowd_core::dataset::{Dataset, InstanceColumns};
use crowd_core::id::InstanceId;
use crowd_core::{Accumulator, ScanPass, ShardPlan};
use crowd_sim::{simulate, SimConfig};
use crowd_testkit::differential::{
    compare_fused, fused_with_shards, fused_with_threads, FloatMode,
};
use crowd_testkit::generators::edge_case_datasets;
use crowd_testkit::oracle_fused;

const SHARD_COUNTS: [usize; 4] = [1, 2, 3, 8];

/// A deliberately order- and identity-sensitive probe: the float sum
/// detects any change in merge pairing, the position hash detects any
/// change in which global row id a physical row is scanned under.
#[derive(Clone)]
struct Probe {
    n: u64,
    trust_sum: f64,
    pos_hash: u64,
}

fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Accumulator for Probe {
    type Output = (u64, u64, u64);

    fn init(&self) -> Self {
        Probe { n: 0, trust_sum: 0.0, pos_hash: 0 }
    }

    fn accept_chunk(
        &mut self,
        _ds: &Dataset,
        base: usize,
        cols: &InstanceColumns,
        range: std::ops::Range<usize>,
    ) {
        for i in range {
            let (id, row) = (InstanceId::from_usize(base + i), cols.row(i));
            self.n += 1;
            self.trust_sum += f64::from(row.trust);
            self.pos_hash ^= mix((id.index() as u64) << 20 | row.worker.index() as u64);
        }
    }

    fn merge(&mut self, other: Self) {
        self.n += other.n;
        self.trust_sum += other.trust_sum;
        self.pos_hash ^= other.pos_hash;
    }

    fn finish(self, _ds: &Dataset) -> (u64, u64, u64) {
        (self.n, self.trust_sum.to_bits(), self.pos_hash)
    }
}

/// Runs the probe through both scan entry points at `shards` shards and
/// asserts the streamed scan matches the monolithic reference bitwise.
fn assert_scan_paths_agree(name: &str, ds: &Dataset, shards: usize) {
    let proto = Probe { n: 0, trust_sum: 0.0, pos_hash: 0 };
    let reference = ScanPass::run(ds, &proto);

    let plan = ShardPlan::new(ds.instances.len(), shards);
    let stream = plan
        .ranges()
        .map(|r| Ok::<_, std::convert::Infallible>((r.start, ds.instances.clone_range(r))));
    let streamed = ScanPass::run_stream(ds, &proto, stream).expect("infallible stream cannot fail");
    assert_eq!(reference, streamed, "{name}: run_stream diverges at {shards} shards");
}

#[test]
fn scan_entry_points_agree_on_edge_cases() {
    for (name, ds) in edge_case_datasets() {
        for shards in SHARD_COUNTS {
            assert_scan_paths_agree(name, &ds, shards);
        }
    }
}

#[test]
fn scan_entry_points_agree_on_a_multi_shard_marketplace() {
    let ds = simulate(&SimConfig::tiny(7));
    assert!(
        ShardPlan::new(ds.instances.len(), 8).n_shards() > 1,
        "dataset must be large enough to split into several real shards"
    );
    for shards in SHARD_COUNTS {
        assert_scan_paths_agree("tiny marketplace", &ds, shards);
    }
}

/// The analytics-level differential: a sharded study must be bit-identical
/// to the single-shard engine at any thread count and to the chunk-exact
/// straight-line oracle on the edge-case catalog.
#[test]
fn sharded_fused_matches_engine_and_oracle_on_edge_cases() {
    for (name, ds) in edge_case_datasets() {
        let reference = fused_with_threads(&ds, 1);
        let oracle = oracle_fused(&ds);
        for shards in SHARD_COUNTS {
            for threads in [1, 4] {
                let sharded = fused_with_shards(&ds, threads, shards);
                let engine = compare_fused(&reference, &sharded, FloatMode::Bitwise);
                assert!(
                    engine.is_empty(),
                    "`{name}` at {shards} shards × {threads} threads differs from the \
                     single-shard engine:\n{}",
                    engine.join("\n")
                );
                let vs_oracle = compare_fused(&sharded, &oracle, FloatMode::Bitwise);
                assert!(
                    vs_oracle.is_empty(),
                    "`{name}` at {shards} shards × {threads} threads differs from the \
                     oracle:\n{}",
                    vs_oracle.join("\n")
                );
            }
        }
    }
}
