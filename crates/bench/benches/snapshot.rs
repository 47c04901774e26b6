//! Snapshot warm-start speedup: `Study::new`-equivalent construction cold
//! (simulate + shingle + LSH + enrich, writing the snapshot) vs warm
//! (read + verify the meta payload, rebuild from persisted enrichment; the
//! rows stay on disk until a fused scan streams them) at the conformance
//! scale. Both paths are bit-identical by construction — see
//! `tests/snapshot_golden.rs` — so this measures pure work avoided.
//! Numbers land in `BENCH_snapshot.json` by hand.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use crowd_sim::SimConfig;
use crowd_snapshot::{warm, SnapshotStore};

fn cfg() -> SimConfig {
    SimConfig::new(2017, 0.05)
}

fn bench_snapshot(c: &mut Criterion) {
    let dir = std::env::temp_dir().join(format!("crowd-bench-snapshot-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = SnapshotStore::new(&dir);

    let mut g = c.benchmark_group("snapshot");
    g.sample_size(10);

    // Cold: no store at all — the pre-snapshot baseline every run paid.
    g.bench_function("study_cold", |b| b.iter(|| black_box(warm::study_from_config(&cfg(), None))));

    // Miss: cold build plus encoding and writing the snapshot (the one-time
    // cost of priming the cache).
    g.bench_function("study_miss_write", |b| {
        b.iter(|| {
            let _ = std::fs::remove_dir_all(&dir);
            black_box(warm::study_from_config(&cfg(), Some(&store)))
        })
    });

    // Warm: the file exists and verifies — simulation, shingling, LSH, and
    // enrichment are all skipped.
    let _ = warm::study_from_config(&cfg(), Some(&store));
    g.bench_function("study_warm_read", |b| {
        b.iter(|| black_box(warm::study_from_config(&cfg(), Some(&store))))
    });

    g.finish();
    let _ = std::fs::remove_dir_all(&dir);
}

criterion_group!(benches, bench_snapshot);
criterion_main!(benches);
