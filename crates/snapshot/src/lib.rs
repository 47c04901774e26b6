//! Persistent binary snapshot cache: zero-resimulate warm starts.
//!
//! The `Dataset`, its clustering, and its per-batch enrichment are pure
//! functions of the [`SimConfig`] — yet every repro/export/bench run used
//! to re-pay the full generative pipeline (simulation, shingling, LSH,
//! feature extraction). This crate dumps all of that, once, into a
//! versioned, checksummed, little-endian binary columnar file, keyed by a
//! config fingerprint; subsequent runs with the same config load the file
//! and go straight to the fused scan.
//!
//! ## File layout (version [`FORMAT_VERSION`])
//!
//! ```text
//! header   magic "CROWDSNP" · version u32 · flags u32 (reserved, 0)
//!          · fingerprint u64 · payload_len u64 · checksum u64
//! payload  entity sections   sources · countries · workers · task types
//!          batch section     per-batch columns + HTML dictionary blob
//!          derived section   cluster params · labels · minhash signatures
//!                            · per-batch enrichment metrics (optional)
//!          shard directory   n_rows u64 · shard_rows u64 · n_shards u32
//!                            · per shard: rows u32 · byte_len u64
//!                              · checksum u64
//!          time_max          dataset-wide max instance end (optional)
//! shards   n_shards × instance section, each a self-contained slice of
//!          the InstanceColumns arrays, verbatim, independently
//!          checksummed via the directory
//! ```
//!
//! The header's `payload_len`/`checksum` cover only the meta payload; each
//! shard's instance section carries its own checksum in the directory.
//! Shard boundaries are [`crowd_core::ShardPlan`] boundaries — multiples
//! of the scan chunk — so a scan streamed shard-by-shard off the file
//! ([`sharded::ShardedSnapshotReader::fused`]) merges partial aggregates
//! in exactly the monolithic chunk order: the on-disk shard count is
//! bit-invisible, it only bounds how much of the table must be resident
//! at once. A warm start that only needs some shards reads (and pays
//! checksum verification for) only those sections.
//!
//! All integers are little-endian; floats are stored as raw bit patterns,
//! so every `f32`/`f64` round-trips bit-exactly. Batch HTML is dictionary
//! encoded: each *distinct* page is stored once in a length-prefixed blob
//! table and batches reference it by index, which both shrinks the file
//! and rebuilds the [`crowd_core::dataset::HtmlArena`] sharing on load
//! (all batches referencing one dictionary slot share one `Arc<str>`).
//!
//! ## Integrity and fallback
//!
//! The cache must never be able to make a result wrong. [`decode`]
//! verifies, in order: magic, format version, config fingerprint, payload
//! length, payload checksum, and section-level shape (lengths, enum tags,
//! label bits, dangling ids via [`Dataset::validate`]). Any failure is
//! reported as a typed [`SnapshotError`]; the warm-start entry points in
//! [`warm`] treat *every* error identically — silently fall back to a
//! fresh simulation and overwrite the snapshot with a valid one.
//!
//! The fingerprint ([`fingerprint`]) hashes every [`SimConfig`] knob plus
//! the format version, and nothing else: thread count, host, and wall
//! clock cannot influence it, matching the pipeline's determinism
//! contract (equal configs ⇒ bit-identical datasets at any parallelism).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

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
/// misinterpreted. Version 2 introduced the sharded instance sections.
pub const FORMAT_VERSION: u32 = 2;

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
    let cols = &snapshot.dataset.instances;
    let plan = ShardPlan::new(cols.len(), shards);
    let mut sections: Vec<Vec<u8>> = Vec::with_capacity(plan.n_shards());
    let mut infos = Vec::with_capacity(plan.n_shards());
    for range in plan.ranges() {
        let bytes = codec::encode_instances(cols, range.start, range.end);
        infos.push(ShardSectionInfo {
            rows: (range.end - range.start) as u32,
            byte_len: bytes.len() as u64,
            checksum: format::checksum(&bytes),
        });
        sections.push(bytes);
    }
    let directory = ShardDirectory::from_parts(cols.len() as u64, plan.shard_rows() as u64, infos)
        .expect("encoder builds a consistent directory");
    let meta = codec::encode_meta(
        &snapshot.dataset,
        snapshot.derived.as_ref(),
        &directory,
        snapshot.dataset.time_max(),
    );
    let total: usize = sections.iter().map(Vec::len).sum();
    let mut out = Vec::with_capacity(format::HEADER_LEN + meta.len() + total);
    out.extend_from_slice(&format::header(fingerprint, &meta));
    out.extend_from_slice(&meta);
    for s in &sections {
        out.extend_from_slice(s);
    }
    out
}

/// Deserializes a snapshot held in memory, with the checks
/// [`ShardedSnapshotReader`] runs on a file, in the same order: magic,
/// version, fingerprint, meta payload length and checksum, meta shape,
/// shard directory against the input length, then every shard section's
/// checksum and shape, and finally [`Dataset::validate`].
///
/// For shard-granular or bounded-memory access to a snapshot *file*, use
/// [`ShardedSnapshotReader`] instead — this entry point requires the whole
/// file in memory and materializes every shard.
pub fn decode(bytes: &[u8], expected_fingerprint: u64) -> Result<Snapshot, SnapshotError> {
    let source = std::io::Cursor::new(bytes);
    let (entities, derived, sections) = sharded::ShardSections::open(source, expected_fingerprint)?;
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

        let mut bad = good.clone();
        *bad.last_mut().unwrap() ^= 0x10; // last shard section byte
        assert!(matches!(decode(&bad, fp), Err(SnapshotError::ShardCorrupt { shard: 0 })));

        let mut bad = good.clone();
        bad[41] ^= 0x10; // meta payload byte
        assert!(matches!(decode(&bad, fp), Err(SnapshotError::ChecksumMismatch)));

        assert!(matches!(decode(&good[..good.len() - 3], fp), Err(SnapshotError::Truncated)));
        assert!(matches!(decode(&good[..20], fp), Err(SnapshotError::Truncated)));
    }
}
