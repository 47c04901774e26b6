//! Corruption matrix for the snapshot cache (DESIGN.md §13): every way a
//! snapshot file can be damaged must (a) be detected as its own failure
//! class, (b) silently fall back to a fresh simulation with results
//! identical to a never-cached run, and (c) leave behind a freshly
//! rewritten, valid snapshot. Correctness must never depend on the cache.

use std::path::PathBuf;

use crowd_analytics::Study;
use crowd_sim::{simulate, SimConfig};
use crowd_snapshot::format::{HEADER_LEN, TRAILER_LEN};
use crowd_snapshot::{warm, SnapshotError, SnapshotStore, FORMAT_VERSION};

fn temp_store(tag: &str) -> SnapshotStore {
    let dir: PathBuf =
        std::env::temp_dir().join(format!("crowd-snap-corrupt-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    SnapshotStore::new(dir)
}

/// Where the meta payload starts: the first field of the trailer, which
/// fills the last `TRAILER_LEN` bytes. The shard sections end there.
fn meta_offset(b: &[u8]) -> usize {
    let trailer = &b[b.len() - TRAILER_LEN..];
    u64::from_le_bytes(trailer[..8].try_into().unwrap()) as usize
}

/// Labels of the sampled batches — the artifact most sensitive to the
/// derived section being wrong.
fn cluster_labels(study: &Study) -> Vec<u32> {
    study.enriched_batches().map(|m| m.cluster).collect()
}

/// Writes a valid snapshot, damages it with `mutate`, checks the damage is
/// detected as `expected`, then asserts the warm entry point recovers
/// silently (bit-identical study) and rewrites a loadable snapshot.
fn assert_recovers(tag: &str, mutate: impl FnOnce(&mut Vec<u8>), expected: &str) {
    let cfg = SimConfig::tiny(401);
    let baseline = Study::new(simulate(&cfg));
    let store = temp_store(tag);

    let _ = warm::study_from_config(&cfg, Some(&store));
    let path = store.path_for(&cfg);
    let mut bytes = std::fs::read(&path).expect("snapshot was written");
    mutate(&mut bytes);
    std::fs::write(&path, &bytes).expect("write corrupted snapshot");

    let err = store.load(&cfg).expect_err("corruption must be detected");
    let class = match err {
        SnapshotError::Io(_) => "io",
        SnapshotError::BadMagic => "magic",
        SnapshotError::VersionMismatch { .. } => "version",
        SnapshotError::FingerprintMismatch { .. } => "fingerprint",
        SnapshotError::ChecksumMismatch => "checksum",
        SnapshotError::Truncated => "truncated",
        SnapshotError::Corrupt(_) => "corrupt",
        SnapshotError::ShardCorrupt { .. } => "shard",
    };
    assert_eq!(class, expected, "{tag}: wrong failure class ({err})");

    // Silent fallback: same study as a never-cached run. A damaged shard
    // section behind a valid meta surfaces in the fused scan, which
    // re-simulates and republishes the file.
    let recovered = warm::study_from_config(&cfg, Some(&store));
    assert_eq!(recovered.n_instances(), baseline.n_instances(), "{tag}");
    assert_eq!(cluster_labels(&recovered), cluster_labels(&baseline), "{tag}");
    assert_eq!(recovered.fused(), baseline.fused(), "{tag}");

    // And the bad file was overwritten with a valid one.
    let reloaded = store.load(&cfg).unwrap_or_else(|e| panic!("{tag}: not rewritten: {e}"));
    assert_eq!(reloaded.dataset.instances, baseline.dataset().instances, "{tag}");
    let _ = std::fs::remove_dir_all(store.dir());
}

#[test]
fn truncated_file_falls_back() {
    assert_recovers("trunc", |b| b.truncate(b.len() - 7), "truncated");
}

#[test]
fn wrong_magic_falls_back() {
    assert_recovers("magic", |b| b[0] ^= 0xFF, "magic");
}

#[test]
fn bumped_format_version_falls_back() {
    assert_recovers(
        "version",
        |b| b[8..12].copy_from_slice(&(FORMAT_VERSION + 1).to_le_bytes()),
        "version",
    );
}

#[test]
fn flipped_checksum_byte_falls_back() {
    // The trailer's third field is the stored meta checksum.
    assert_recovers(
        "checksum",
        |b| {
            let at = b.len() - TRAILER_LEN + 16;
            b[at] ^= 0x01;
        },
        "checksum",
    );
}

#[test]
fn fingerprint_mismatch_falls_back() {
    // Bytes 16..24 hold the config fingerprint: a snapshot written for a
    // different config (or a renamed file) must never be served.
    assert_recovers("fingerprint", |b| b[16] ^= 0x01, "fingerprint");
}

#[test]
fn flipped_payload_byte_falls_back() {
    // Damage to the last byte before the meta lands in the last
    // instance-shard section, which carries its own checksum in the shard
    // directory — so the failure is shard-granular, not a whole-file
    // checksum error.
    assert_recovers(
        "payload",
        |b| {
            let at = meta_offset(b) - 1;
            b[at] ^= 0x40;
        },
        "shard",
    );
}

#[test]
fn flipped_meta_byte_falls_back() {
    // Damage just past the meta's start lands in the meta payload
    // (entities, derived results, shard directory), which the trailer
    // checksum covers.
    assert_recovers(
        "meta",
        |b| {
            let at = meta_offset(b) + 1;
            b[at] ^= 0x10;
        },
        "checksum",
    );
}

/// A damaged shard section must fail alone: its neighbors stay readable
/// through the sharded reader, the failure names the shard, and the warm
/// entry point still silently falls back to a fresh simulation.
#[test]
fn damaged_shard_fails_independently_and_warm_recovers() {
    // Shards are CHUNK-aligned (8192 rows), so a genuinely 3-sharded file
    // needs more rows than `SimConfig::tiny` produces.
    let cfg = SimConfig::new(402, 0.002);
    let baseline = Study::new(simulate(&cfg));
    let store = temp_store("shard-independent").with_shards(3);

    let _ = warm::study_from_config(&cfg, Some(&store));
    let path = store.path_for(&cfg);
    let mut bytes = std::fs::read(&path).expect("snapshot was written");

    // Locate the middle shard's section: sections start right after the
    // header.
    let sections_start = HEADER_LEN;
    let reader = store.open_reader(&cfg).expect("snapshot opens clean");
    let dir = reader.directory();
    assert_eq!(dir.n_shards(), 3, "dataset must split into 3 shards here");
    let shard1_off = sections_start + dir.sections()[0].byte_len as usize;
    drop(reader);
    bytes[shard1_off + 16] ^= 0x01;
    std::fs::write(&path, &bytes).expect("write corrupted snapshot");

    // Neighboring shards still load; only shard 1 reports corruption.
    let mut reader = store.open_reader(&cfg).expect("header and meta are intact");
    assert!(reader.read_shard(0).is_ok(), "shard 0 must stay readable");
    assert!(reader.read_shard(2).is_ok(), "shard 2 must stay readable");
    match reader.read_shard(1) {
        Err(SnapshotError::ShardCorrupt { shard: 1 }) => {}
        other => panic!("expected ShardCorrupt {{ shard: 1 }}, got {other:?}"),
    }
    // Whole-file paths surface the same shard-granular error.
    match store.load(&cfg) {
        Err(SnapshotError::ShardCorrupt { shard: 1 }) => {}
        other => panic!("load: expected ShardCorrupt {{ shard: 1 }}, got {other:?}"),
    }

    // Warm path (DESIGN.md §16): header and meta are intact, so the
    // columns-optional warm hit succeeds without touching the damaged
    // section. The corruption is caught lazily when the fused scan
    // streams that shard; the scan falls back to a fresh simulation, so
    // every analytics result still matches a never-cached run, and the
    // fallback republishes a valid file.
    let recovered = warm::study_from_config(&cfg, Some(&store));
    assert_eq!(recovered.n_instances(), baseline.dataset().instances.len());
    assert_eq!(cluster_labels(&recovered), cluster_labels(&baseline));
    assert_eq!(recovered.fused(), baseline.fused(), "lazy fallback must match baseline");
    assert!(store.load(&cfg).is_ok(), "the damaged file was rewritten");
    let _ = std::fs::remove_dir_all(store.dir());
}
