//! Persistent binary snapshot cache: zero-resimulate warm starts.
//!
//! The `Dataset`, its clustering, and its per-batch enrichment are pure
//! functions of the [`SimConfig`]. This crate writes all of that, once,
//! into a versioned, checksummed, little-endian binary columnar file,
//! keyed by a config fingerprint; later runs with the same config load
//! the file and go straight to the fused scan.
//!
//! ## File layout (version [`FORMAT_VERSION`])
//!
//! ```text
//! header   magic "CROWDSNP" · version u32 · flags u32 (0) · fingerprint u64
//! sections n_shards × instance section: a self-contained slice of the
//!          InstanceColumns arrays, verbatim
//! meta     entity tables · batch columns + HTML dictionary
//!          · derived section (optional): cluster params · labels
//!            · minhash signatures · per-batch enrichment metrics
//!          · shard directory: n_rows u64 · shard_rows u64 · n_shards u32
//!            · per shard: rows u32 · byte_len u64 · checksum u64
//!          · time_max (optional): dataset-wide max instance end
//! trailer  meta_offset u64 · meta_len u64 · meta_checksum u64
//!          · end magic "CROWDEND"
//! ```
//!
//! With the meta last, [`SnapshotWriter`] writes every byte in one
//! forward pass, sections as they are produced. Shard boundaries are
//! [`crowd_core::ShardPlan`] boundaries — multiples of the scan chunk — so
//! a scan streamed shard by shard off the file merges partial aggregates
//! in exactly the monolithic chunk order: the shard count is
//! bit-invisible. A warm start that only needs some shards reads (and
//! pays checksum verification for) only those sections. All integers are
//! little-endian; floats are stored as raw bit patterns, so every
//! `f32`/`f64` round-trips bit-exactly. Each *distinct* batch HTML page is
//! stored once and batches reference it by index, which rebuilds the
//! [`crowd_core::dataset::HtmlArena`] sharing on load (all batches
//! referencing one page share one `Arc<str>`).
//!
//! ## Integrity and fallback
//!
//! The cache must never be able to make a result wrong, and every byte of
//! a file is covered by a check. [`ShardedSnapshotReader`] (and
//! [`decode`], over bytes in memory) verifies, in order: the header
//! (magic, version, flags, fingerprint); the trailer (end magic, and meta
//! offset and length against the file length); the meta checksum; the
//! meta's shape (lengths, enum tags, label bits, references); the shard
//! directory against the section region; each shard section's checksum
//! and shape when that shard is read; and [`Dataset::validate`] when the
//! whole table is materialized. Any failure is a typed [`SnapshotError`],
//! which the warm-start entry points in [`warm`] all treat as a cache
//! miss: rebuild, and overwrite the file with a valid one.
//!
//! The fingerprint ([`fingerprint`]) hashes every [`SimConfig`] knob plus
//! the format version, and nothing else: thread count, host, and wall
//! clock cannot influence it (equal configs ⇒ bit-identical datasets at
//! any parallelism).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use crowd_analytics::BatchMetrics;
use crowd_cluster::{ClusterParams, Signature};
use crowd_core::dataset::Dataset;
use crowd_core::rng::stream_seed;
use crowd_core::shard::ShardPlan;
use crowd_sim::SimConfig;

mod codec;
pub mod format;
pub mod sharded;
mod store;
pub mod warm;
pub mod writer;

pub use sharded::{ShardDirectory, ShardSectionInfo, ShardedSnapshotReader};
pub use store::SnapshotStore;
pub use writer::SnapshotWriter;

/// Bumped on any change to the serialized layout; files written by other
/// versions are rejected (and silently regenerated) rather than
/// misinterpreted. Version 2 introduced the sharded instance sections;
/// version 3 moved the meta behind the sections.
pub const FORMAT_VERSION: u32 = 3;

/// The 8-byte file magic.
pub const MAGIC: [u8; 8] = *b"CROWDSNP";

/// Everything a warm start needs: the dataset plus (optionally) the
/// artifacts derived from it.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// The simulated dataset, bit-identical to a fresh [`crowd_sim::simulate()`].
    pub dataset: Dataset,
    /// Derived artifacts; `None` when only the dataset was persisted.
    pub derived: Option<Derived>,
}

/// Artifacts derived from the dataset, persisted so a warm run skips
/// shingling, LSH, and per-batch enrichment entirely.
#[derive(Debug, Clone)]
pub struct Derived {
    /// Parameters the clustering was computed with; a warm start only
    /// reuses the artifacts when these match the requested parameters.
    pub params: ClusterParams,
    /// Cluster label per sampled batch, in dataset order (dense ids).
    pub labels: Vec<u32>,
    /// Number of clusters.
    pub n_clusters: usize,
    /// MinHash signature per sampled batch, in dataset order.
    pub signatures: Vec<Signature>,
    /// Per-batch enrichment (§2.4 features + §4.1 metrics), in sampled
    /// order — the warm path rebuilds the `Study` from these directly.
    pub metrics: Vec<BatchMetrics>,
}

/// Errors a snapshot read can produce.
///
/// Callers on the warm path do not branch on the variant — every one of
/// these means "treat as cache miss" — but the distinctions are kept for
/// diagnostics and for the corruption-matrix tests, which assert that each
/// failure class is detected as itself.
#[derive(Debug)]
pub enum SnapshotError {
    /// Filesystem error (missing file is the ordinary cold-start case).
    Io(std::io::Error),
    /// The file does not start with [`MAGIC`].
    BadMagic,
    /// The file was written by a different format version.
    VersionMismatch {
        /// Version found in the header.
        found: u32,
    },
    /// The file was written for a different simulation config.
    FingerprintMismatch {
        /// Fingerprint found in the header.
        found: u64,
        /// Fingerprint of the requested config.
        expected: u64,
    },
    /// The payload checksum did not match the header.
    ChecksumMismatch,
    /// One shard's instance section failed its checksum. Shard-granular:
    /// every other shard of the same file remains readable, so callers can
    /// re-derive just the damaged slice.
    ShardCorrupt {
        /// Index of the damaged shard section.
        shard: usize,
    },
    /// The file ended before a read completed (or a length prefix promised
    /// more bytes than present).
    Truncated,
    /// A section decoded to an invalid shape (bad enum tag, label bits,
    /// referential integrity, UTF-8, …).
    Corrupt(&'static str),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot io: {e}"),
            SnapshotError::BadMagic => write!(f, "not a snapshot file (bad magic)"),
            SnapshotError::VersionMismatch { found } => {
                write!(f, "snapshot format v{found}, this build reads v{FORMAT_VERSION}")
            }
            SnapshotError::FingerprintMismatch { found, expected } => {
                write!(f, "snapshot fingerprint {found:#018x}, expected {expected:#018x}")
            }
            SnapshotError::ChecksumMismatch => write!(f, "snapshot payload checksum mismatch"),
            SnapshotError::ShardCorrupt { shard } => {
                write!(f, "snapshot shard {shard} failed its section checksum")
            }
            SnapshotError::Truncated => write!(f, "snapshot file is truncated"),
            SnapshotError::Corrupt(what) => write!(f, "snapshot payload is corrupt: {what}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

/// Decoded bytes that break a core invariant are a corrupt section.
impl From<crowd_core::CoreError> for SnapshotError {
    fn from(e: crowd_core::CoreError) -> Self {
        match e {
            crowd_core::CoreError::ColumnLengthMismatch { .. } => {
                SnapshotError::Corrupt("instance column lengths")
            }
            _ => SnapshotError::Corrupt("dataset integrity"),
        }
    }
}

/// The cache key: every [`SimConfig`] knob folded together with the format
/// version.
///
/// Explicitly *independent of thread count* (and of anything else outside
/// the config): the simulation pipeline guarantees bit-identical output at
/// any parallelism, so one snapshot serves `--threads 1` and `--threads N`
/// runs alike. Folding in [`FORMAT_VERSION`] gives each format generation
/// its own key space, so an upgraded binary regenerates rather than
/// deleting old files another binary may still read.
pub fn fingerprint(cfg: &SimConfig) -> u64 {
    stream_seed(cfg.fingerprint(), u64::from(FORMAT_VERSION))
}

/// Serializes a snapshot into the on-disk byte format, keyed by
/// `fingerprint`, with a single instance shard. Equivalent to
/// [`encode_sharded`] with `shards == 1`.
pub fn encode(snapshot: &Snapshot, fingerprint: u64) -> Vec<u8> {
    encode_sharded(snapshot, fingerprint, 1)
}

/// Serializes a snapshot with its instance table partitioned into (up to)
/// `shards` independently checksummed sections.
///
/// The shard count is a *layout* knob, not part of the cache key: readers
/// stream whatever partitioning is on disk, decoded contents are
/// bit-identical at any shard count, and the fingerprint is unchanged.
/// Fewer shards than requested may be written — [`ShardPlan`] keeps every
/// boundary scan-chunk-aligned so shard count stays bit-invisible to
/// streamed scans.
pub fn encode_sharded(snapshot: &Snapshot, fingerprint: u64, shards: usize) -> Vec<u8> {
    let rows = &snapshot.dataset.instances;
    let shard_rows = ShardPlan::new(rows.len(), shards).shard_rows();
    let encoded =
        SnapshotWriter::new(Vec::new(), fingerprint, shard_rows).and_then(|mut writer| {
            writer.write_table(rows)?;
            writer.finish(&snapshot.dataset, snapshot.derived.as_ref())
        });
    let Ok(bytes) = encoded;
    bytes
}

/// Deserializes a snapshot held in memory, with the checks
/// [`ShardedSnapshotReader`] runs on a file, in the same order (see the
/// crate docs). Every section is borrowed from `bytes` in place, so
/// nothing but the decoded columns is copied.
///
/// For shard-granular or bounded-memory access to a snapshot *file*, use
/// [`ShardedSnapshotReader`] instead — this entry point requires the whole
/// file in memory and materializes every shard.
pub fn decode(bytes: &[u8], expected_fingerprint: u64) -> Result<Snapshot, SnapshotError> {
    let source = sharded::Source::Bytes(bytes);
    let (entities, derived, sections) =
        sharded::ShardSections::open(source, bytes.len() as u64, expected_fingerprint)?;
    sections.into_snapshot(entities, derived)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_snapshot() -> Snapshot {
        Snapshot { dataset: crowd_sim::simulate(&SimConfig::tiny(5)), derived: None }
    }

    #[test]
    fn fingerprint_differs_by_config_and_version_domain() {
        let a = fingerprint(&SimConfig::tiny(1));
        let b = fingerprint(&SimConfig::tiny(2));
        let c = fingerprint(&SimConfig::new(1, 0.002));
        assert_ne!(a, b);
        assert_ne!(a, c);
        // The version fold keeps the snapshot key distinct from the raw
        // config digest.
        assert_ne!(a, SimConfig::tiny(1).fingerprint());
    }

    #[test]
    fn header_failures_are_detected_in_order() {
        let snap = tiny_snapshot();
        let fp = fingerprint(&SimConfig::tiny(5));
        let good = encode(&snap, fp);
        assert!(decode(&good, fp).is_ok());

        let mut bad = good.clone();
        bad[0] ^= 0xFF;
        assert!(matches!(decode(&bad, fp), Err(SnapshotError::BadMagic)));

        let mut bad = good.clone();
        bad[8] = 99; // version field
        assert!(matches!(decode(&bad, fp), Err(SnapshotError::VersionMismatch { found: 99 })));

        assert!(matches!(decode(&good, fp ^ 1), Err(SnapshotError::FingerprintMismatch { .. })));

        // The meta sits between the last shard section and the trailer,
        // whose first field records where the meta starts.
        let trailer = &good[good.len() - format::TRAILER_LEN..];
        let meta_at = u64::from_le_bytes(trailer[..8].try_into().unwrap()) as usize;

        let mut bad = good.clone();
        bad[meta_at - 1] ^= 0x10; // last shard section byte
        assert!(matches!(decode(&bad, fp), Err(SnapshotError::ShardCorrupt { shard: 0 })));

        let mut bad = good.clone();
        bad[meta_at + 1] ^= 0x10; // meta payload byte
        assert!(matches!(decode(&bad, fp), Err(SnapshotError::ChecksumMismatch)));

        assert!(matches!(decode(&good[..good.len() - 3], fp), Err(SnapshotError::Truncated)));
        assert!(matches!(decode(&good[..20], fp), Err(SnapshotError::Truncated)));
    }

    /// Pins the layout: the length and checksum of the bytes encoded for
    /// a fixed snapshot with a derived section. Any change to what the
    /// encoder writes, or where, changes them.
    #[test]
    fn encoded_bytes_are_pinned() {
        let cfg = SimConfig::tiny(5);
        let dataset = crowd_sim::simulate(&cfg);
        let derived = warm::compute_derived(&dataset, ClusterParams::default());
        let snap = Snapshot { dataset, derived: Some(derived) };
        for (shards, len, sum) in
            [(1, 3_497_663, 0x0EA9_7BE0_BEDB_69ED), (3, 3_497_687, 0x0927_E590_D99A_136D)]
        {
            let bytes = encode_sharded(&snap, fingerprint(&cfg), shards);
            assert_eq!((bytes.len(), format::checksum(&bytes)), (len, sum), "shards={shards}");
        }
    }
}
