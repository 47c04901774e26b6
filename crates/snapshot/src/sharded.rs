//! Streaming, shard-granular access to snapshots.
//!
//! A snapshot stores the instance table as independently checksummed
//! per-shard sections between the header and the meta payload (see the
//! layout diagram in the crate docs). [`ShardedSnapshotReader`] opens a
//! file, checks the header, the trailer and the meta payload once, and
//! then reads shard sections on demand with plain aligned `seek` +
//! `read_exact` calls into the one section buffer it keeps, so peak memory
//! for a scan is the entity tables plus **one** shard. [`crate::decode`]
//! runs the same checks through the same section source over bytes in
//! memory, where every section is borrowed in place instead.
//!
//! Corruption is shard-granular: a damaged section surfaces as
//! [`SnapshotError::ShardCorrupt`] naming the shard, while every other
//! shard remains readable — callers can re-derive just the damaged slice
//! instead of discarding the whole cache entry.

use std::cmp::Ordering;
use std::fs::File;
use std::io::{Read, Seek, SeekFrom};
use std::path::Path;

use crowd_analytics::fused::Fused;
use crowd_analytics::BatchMetrics;
use crowd_core::dataset::{Dataset, InstanceColumns};
use crowd_core::query::ScanPass;
use crowd_core::time::Timestamp;

use crate::format::{checksum, read_header, read_trailer, HEADER_LEN, TRAILER_LEN};
use crate::{codec, Derived, Snapshot, SnapshotError};

/// Location and integrity record of one shard's instance section.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardSectionInfo {
    /// Rows stored in this shard.
    pub rows: u32,
    /// Encoded section length in bytes.
    pub byte_len: u64,
    /// Checksum of the section bytes, verified independently per shard.
    pub checksum: u64,
}

/// The shard directory: how the instance table is partitioned on disk.
///
/// Shard boundaries are multiples of [`ScanPass::CHUNK`] — the same
/// alignment [`crowd_core::ShardPlan`] guarantees — so a streamed scan
/// merges partials in exactly the monolithic chunk order and shard count
/// stays bit-invisible.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardDirectory {
    n_rows: u64,
    shard_rows: u64,
    sections: Vec<ShardSectionInfo>,
}

impl ShardDirectory {
    /// An empty directory for `shard_rows` rows per shard; `None` unless
    /// `shard_rows` is a non-zero [`ScanPass::CHUNK`] multiple
    /// (misaligned shard boundaries would change float-merge order for
    /// every streamed scan of the file).
    pub(crate) fn new(shard_rows: u64) -> Option<ShardDirectory> {
        (shard_rows > 0 && shard_rows.is_multiple_of(ScanPass::CHUNK as u64))
            .then(|| ShardDirectory { n_rows: 0, shard_rows, sections: Vec::new() })
    }

    /// Appends the next shard's record. Returns `false`, and leaves the
    /// directory as it was, unless every shard so far is full and this
    /// one holds 1 to `shard_rows` rows: the one shape both the writer
    /// and the meta decoder accept.
    #[must_use]
    pub(crate) fn push(&mut self, section: ShardSectionInfo) -> bool {
        let fits = self.n_rows.is_multiple_of(self.shard_rows)
            && (1..=self.shard_rows).contains(&u64::from(section.rows));
        if fits {
            self.n_rows += u64::from(section.rows);
            self.sections.push(section);
        }
        fits
    }

    /// Total instance rows across all shards.
    pub fn n_rows(&self) -> u64 {
        self.n_rows
    }

    /// Rows per shard (every shard but the last holds exactly this many).
    pub fn shard_rows(&self) -> u64 {
        self.shard_rows
    }

    /// Number of shard sections.
    pub fn n_shards(&self) -> usize {
        self.sections.len()
    }

    /// The per-shard section records, in shard order.
    pub fn sections(&self) -> &[ShardSectionInfo] {
        &self.sections
    }

    /// Global row index of the first row in `shard`.
    pub fn base_row(&self, shard: usize) -> u64 {
        self.shard_rows * shard as u64
    }

    /// Byte offset of `shard`'s section: sections follow the header.
    fn section_offset(&self, shard: usize) -> u64 {
        HEADER_LEN as u64 + self.sections[..shard].iter().map(|s| s.byte_len).sum::<u64>()
    }

    /// Total bytes of all shard sections (saturating: the lengths are
    /// read from input and checked against the source's only after).
    fn sections_len(&self) -> u64 {
        self.sections.iter().fold(0, |total, s| total.saturating_add(s.byte_len))
    }
}

/// Where an opened snapshot's bytes come from: a file, read through one
/// reusable buffer, or bytes in memory, which every read borrows.
pub(crate) enum Source<'a> {
    File { file: File, buf: Vec<u8> },
    Bytes(&'a [u8]),
}

impl Source<'_> {
    /// The `len` bytes at `offset`; [`SnapshotError::Truncated`] when the
    /// source ends first.
    fn read_at(&mut self, offset: u64, len: u64) -> Result<&[u8], SnapshotError> {
        match self {
            Source::Bytes(bytes) => usize::try_from(offset)
                .ok()
                .zip(usize::try_from(len).ok())
                .and_then(|(at, n)| bytes.get(at..at.checked_add(n)?))
                .ok_or(SnapshotError::Truncated),
            Source::File { file, buf } => {
                // Reads into spare capacity, so no byte is zeroed first.
                buf.clear();
                buf.reserve_exact(usize::try_from(len).map_err(|_| SnapshotError::Truncated)?);
                file.seek(SeekFrom::Start(offset))?;
                if Read::take(&mut *file, len).read_to_end(buf)? as u64 != len {
                    return Err(SnapshotError::Truncated);
                }
                Ok(buf)
            }
        }
    }

    /// Replaces the file buffer with an empty one of `capacity` bytes, so
    /// that no read of at most `capacity` bytes allocates.
    fn reset_buffer(&mut self, capacity: u64) {
        if let Source::File { buf, .. } = self {
            *buf = Vec::with_capacity(usize::try_from(capacity).unwrap_or(0));
        }
    }
}

/// The instance sections of an opened snapshot: the verified shard
/// directory and the source they are read from.
pub(crate) struct ShardSections<'a> {
    source: Source<'a>,
    directory: ShardDirectory,
    time_max: Option<Timestamp>,
}

impl<'a> ShardSections<'a> {
    /// The one verification sequence every snapshot read starts with, over
    /// a `len`-byte source, in order: header (magic, version, flags,
    /// fingerprint), trailer (end magic, meta offset and length against
    /// `len`), meta checksum, meta decode, and the shard directory against
    /// the section region between header and meta. Returns the entity
    /// tables, the derived artifacts and the still unread shard sections,
    /// whose checksums verify per shard as they are read.
    pub(crate) fn open(
        mut source: Source<'a>,
        len: u64,
        expected_fingerprint: u64,
    ) -> Result<(Dataset, Option<Derived>, ShardSections<'a>), SnapshotError> {
        // A source shorter than the header fails at the first field it cuts,
        // and one too short to end in a trailer as `Truncated`.
        read_header(source.read_at(0, len.min(HEADER_LEN as u64))?, expected_fingerprint)?;
        let trailer = source.read_at(len.saturating_sub(TRAILER_LEN as u64), TRAILER_LEN as u64)?;
        let (meta_offset, meta_len, stored_sum) = read_trailer(trailer, len)?;
        let meta = source.read_at(meta_offset, meta_len)?;
        if checksum(meta) != stored_sum {
            return Err(SnapshotError::ChecksumMismatch);
        }
        let decoded = codec::decode_meta(meta)?;
        let sections_end = (HEADER_LEN as u64).saturating_add(decoded.directory.sections_len());
        match sections_end.cmp(&meta_offset) {
            Ordering::Greater => return Err(SnapshotError::Truncated),
            Ordering::Less => return Err(SnapshotError::Corrupt("section region")),
            Ordering::Equal => {}
        }
        // Sized once for the largest section, so no shard regrows it.
        let largest = decoded.directory.sections().iter().map(|s| s.byte_len).max();
        source.reset_buffer(largest.unwrap_or(0));
        let sections =
            ShardSections { source, directory: decoded.directory, time_max: decoded.time_max };
        Ok((decoded.entities, decoded.derived, sections))
    }

    /// Reads, verifies, and decodes shard `shard`, appending its rows
    /// onto `out`; entity references must index `n_batches` batches and
    /// `n_workers` workers.
    fn read_into(
        &mut self,
        shard: usize,
        n_batches: usize,
        n_workers: usize,
        out: &mut InstanceColumns,
    ) -> Result<(), SnapshotError> {
        let Some(&sec) = self.directory.sections().get(shard) else {
            return Err(SnapshotError::Corrupt("shard index out of range"));
        };
        let bytes = self.source.read_at(self.directory.section_offset(shard), sec.byte_len)?;
        if checksum(bytes) != sec.checksum {
            return Err(SnapshotError::ShardCorrupt { shard });
        }
        codec::decode_instances_into(bytes, sec.rows as usize, n_batches, n_workers, out)
    }

    /// Reads every shard onto `dataset`, the entity tables this snapshot's
    /// meta decoded to, and validates the whole table.
    pub(crate) fn into_snapshot(
        mut self,
        mut dataset: Dataset,
        derived: Option<Derived>,
    ) -> Result<Snapshot, SnapshotError> {
        dataset.instances.reserve(self.directory.n_rows() as usize);
        let (n_batches, n_workers) = (dataset.batches.len(), dataset.workers.len());
        for shard in 0..self.directory.n_shards() {
            self.read_into(shard, n_batches, n_workers, &mut dataset.instances)?;
        }
        dataset.validate().map_err(|_| SnapshotError::Corrupt("dataset integrity"))?;
        Ok(Snapshot { dataset, derived })
    }

    /// Streams every shard through the fused scan: the calling thread
    /// reads and decodes the next shard while the pool folds the last.
    /// `entities` must be the tables this snapshot's meta decoded to
    /// (shard references are checked against them) and `metrics` its
    /// persisted enrichment.
    pub(crate) fn fused(
        &mut self,
        entities: &Dataset,
        metrics: &[BatchMetrics],
    ) -> Result<Fused, SnapshotError> {
        let (n_batches, n_workers) = (entities.batches.len(), entities.workers.len());
        let time_max = self.time_max;
        let n_shards = self.directory.n_shards();
        let stream = (0..n_shards).map(|k| {
            let base = self.directory.base_row(k) as usize;
            let mut cols = InstanceColumns::new();
            let read = self.read_into(k, n_batches, n_workers, &mut cols);
            if k + 1 == n_shards {
                // The folds still to run need only the decoded columns.
                self.source.reset_buffer(0);
            }
            read.map(|()| (base, cols))
        });
        crowd_analytics::fused::compute_streamed(entities, metrics, time_max, stream)
    }
}

/// Lazily reads a snapshot file shard by shard.
///
/// `open` verifies the header and the (checksummed) meta payload — entity
/// tables, batches, derived artifacts, shard directory — and stops there;
/// instance sections stay on disk until a `read_shard*` call or a
/// streamed [`fused`](ShardedSnapshotReader::fused) scan asks for them.
pub struct ShardedSnapshotReader {
    entities: Dataset,
    derived: Option<Derived>,
    sections: ShardSections<'static>,
}

impl std::fmt::Debug for ShardedSnapshotReader {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedSnapshotReader")
            .field("n_shards", &self.sections.directory.n_shards())
            .field("n_rows", &self.sections.directory.n_rows())
            .field("derived", &self.derived.is_some())
            .finish_non_exhaustive()
    }
}

impl ShardedSnapshotReader {
    /// Opens `path`, verifying the header (magic, version, flags,
    /// fingerprint), the trailer and the meta payload checksum; shard
    /// sections are *not* read (their checksums verify lazily, per shard).
    pub fn open(
        path: impl AsRef<Path>,
        expected_fingerprint: u64,
    ) -> Result<ShardedSnapshotReader, SnapshotError> {
        let file = File::open(path)?;
        let len = file.metadata()?.len();
        let source = Source::File { file, buf: Vec::new() };
        let (entities, derived, sections) = ShardSections::open(source, len, expected_fingerprint)?;
        Ok(ShardedSnapshotReader { entities, derived, sections })
    }

    /// The shard directory.
    pub fn directory(&self) -> &ShardDirectory {
        &self.sections.directory
    }

    /// The entity context (sources, countries, workers, task types,
    /// batches) with an **empty** instance table.
    pub fn entities(&self) -> &Dataset {
        &self.entities
    }

    /// The persisted derived artifacts, when present.
    pub fn derived(&self) -> Option<&Derived> {
        self.derived.as_ref()
    }

    /// The dataset's `time_max` as persisted at encode time (covers
    /// instance end times the entity tables alone cannot reproduce).
    pub fn time_max(&self) -> Option<Timestamp> {
        self.sections.time_max
    }

    /// Reads, verifies, and decodes one shard's instance rows.
    pub fn read_shard(&mut self, shard: usize) -> Result<InstanceColumns, SnapshotError> {
        let mut out = InstanceColumns::new();
        self.read_shard_into(shard, &mut out)?;
        Ok(out)
    }

    /// [`read_shard`](Self::read_shard), appending onto an existing column
    /// set. The section buffer is the reader's own and is reused, and the
    /// rows decode straight onto `out`'s columns, so reading shard after
    /// shard into one truncated `out` allocates nothing of section size.
    pub fn read_shard_into(
        &mut self,
        shard: usize,
        out: &mut InstanceColumns,
    ) -> Result<(), SnapshotError> {
        let (n_batches, n_workers) = (self.entities.batches.len(), self.entities.workers.len());
        self.sections.read_into(shard, n_batches, n_workers, out)
    }

    /// Runs the fused analytics pass over the shards *without ever
    /// materializing the full instance table*: sections stream through
    /// [`ScanPass::run_stream`] — the next one read while the pool folds
    /// the last — and partial aggregates merge in global chunk order,
    /// bit-identical to scanning the loaded dataset. Requires the derived
    /// section (its per-batch enrichment feeds the source aggregates).
    pub fn fused(&mut self) -> Result<Fused, SnapshotError> {
        let Some(d) = self.derived.as_ref() else {
            return Err(SnapshotError::Corrupt("no derived section to stream a scan from"));
        };
        self.sections.fused(&self.entities, &d.metrics)
    }

    /// Consumes the reader into its meta parts — entity tables, derived
    /// artifacts, persisted `time_max` — **without reading any shard
    /// section**.
    pub fn into_meta(self) -> (Dataset, Option<Derived>, Option<Timestamp>) {
        let (entities, derived, sections) = self.into_parts();
        (entities, derived, sections.time_max)
    }

    /// [`into_meta`](Self::into_meta), keeping the open, verified shard
    /// sections: the warm start streams its fused scan from them without
    /// opening and decoding the file a second time.
    pub(crate) fn into_parts(self) -> (Dataset, Option<Derived>, ShardSections<'static>) {
        (self.entities, self.derived, self.sections)
    }

    /// Loads every shard into a fully validated [`Snapshot`], consuming
    /// the reader. The same checks as [`crate::decode`] on the whole file,
    /// but never holds more than the dataset plus one section buffer.
    pub fn into_snapshot(self) -> Result<Snapshot, SnapshotError> {
        self.sections.into_snapshot(self.entities, self.derived)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{encode_sharded, Snapshot};
    use crowd_sim::SimConfig;
    use std::path::PathBuf;

    const FP: u64 = 0xABCD;

    fn write_tmp(tag: &str, bytes: &[u8]) -> PathBuf {
        let path =
            std::env::temp_dir().join(format!("crowd-sharded-{tag}-{}.bin", std::process::id()));
        std::fs::write(&path, bytes).unwrap();
        path
    }

    /// A snapshot big enough (> 2 × scan chunk rows) to span ≥ 3 shards.
    fn multi_shard_snapshot() -> (Snapshot, Vec<u8>) {
        let cfg = SimConfig::new(31, 0.002);
        let ds = crowd_sim::simulate(&cfg);
        let derived = crate::warm::compute_derived(&ds, crowd_cluster::ClusterParams::default());
        let snap = Snapshot { dataset: ds, derived: Some(derived) };
        let bytes = encode_sharded(&snap, FP, 100);
        (snap, bytes)
    }

    #[test]
    fn reader_round_trips_and_streamed_fused_matches_materialized() {
        let (snap, bytes) = multi_shard_snapshot();
        let path = write_tmp("roundtrip", &bytes);

        let mut reader = ShardedSnapshotReader::open(&path, FP).expect("opens");
        assert!(reader.directory().n_shards() >= 3, "dataset spans several shards");
        assert_eq!(reader.directory().n_rows() as usize, snap.dataset.instances.len());
        assert!(reader.entities().instances.is_empty(), "open reads no shard");

        // Shard-by-shard reads reproduce the exact table slices.
        let plan =
            crowd_core::ShardPlan::new(snap.dataset.instances.len(), reader.directory().n_shards());
        for (k, range) in plan.ranges().enumerate() {
            let shard = reader.read_shard(k).expect("shard reads");
            assert_eq!(shard.len(), range.len());
            assert_eq!(shard.row(0).to_owned(), snap.dataset.instances.row(range.start).to_owned());
        }

        // The streamed fused scan is bit-identical to the fused scan over
        // a study built in memory, whose enrichment equals the persisted
        // one (Debug output covers every float).
        let streamed = reader.fused().expect("streamed scan");
        let study = crowd_analytics::Study::new(snap.dataset.clone());
        let metrics: Vec<_> = study.enriched_batches().cloned().collect();
        assert_eq!(metrics, snap.derived.as_ref().unwrap().metrics);
        assert_eq!(format!("{streamed:?}"), format!("{:?}", study.fused()));

        // Full load through the reader equals the byte-level decode.
        let reader = ShardedSnapshotReader::open(&path, FP).expect("reopens");
        let back = reader.into_snapshot().expect("full load");
        assert_eq!(back.dataset.instances, snap.dataset.instances);
        assert_eq!(back.dataset.batches, snap.dataset.batches);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn damaged_shard_fails_alone_and_names_itself() {
        let (_, mut bytes) = multi_shard_snapshot();
        // Locate shard 1's section through a pristine reader: the sections
        // follow the header back to back.
        let path = write_tmp("pristine", &bytes);
        let reader = ShardedSnapshotReader::open(&path, FP).expect("opens");
        let shard1_at = HEADER_LEN as u64 + reader.directory().sections()[0].byte_len;
        drop(reader);
        let _ = std::fs::remove_file(&path);

        bytes[shard1_at as usize + 10] ^= 0x40;
        let path = write_tmp("damaged", &bytes);
        let mut reader = ShardedSnapshotReader::open(&path, FP).expect("meta still verifies");
        assert!(reader.read_shard(0).is_ok(), "undamaged shard 0 reads");
        assert!(
            matches!(reader.read_shard(1), Err(SnapshotError::ShardCorrupt { shard: 1 })),
            "damaged shard is reported by index"
        );
        assert!(reader.read_shard(2).is_ok(), "undamaged shard 2 reads");
        assert!(matches!(reader.fused(), Err(SnapshotError::ShardCorrupt { shard: 1 })));
        let reader = ShardedSnapshotReader::open(&path, FP).expect("reopens");
        assert!(matches!(reader.into_snapshot(), Err(SnapshotError::ShardCorrupt { shard: 1 })));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn open_rejects_fingerprint_truncation_and_trailing_junk() {
        let (_, bytes) = multi_shard_snapshot();

        let path = write_tmp("fp", &bytes);
        assert!(matches!(
            ShardedSnapshotReader::open(&path, FP ^ 1),
            Err(SnapshotError::FingerprintMismatch { .. })
        ));
        let _ = std::fs::remove_file(&path);

        let path = write_tmp("trunc", &bytes[..bytes.len() - 9]);
        assert!(matches!(ShardedSnapshotReader::open(&path, FP), Err(SnapshotError::Truncated)));
        let _ = std::fs::remove_file(&path);

        // Appended bytes leave a file that no longer ends in its trailer.
        let mut long = bytes.clone();
        long.extend_from_slice(b"junk");
        let path = write_tmp("junk", &long);
        assert!(matches!(ShardedSnapshotReader::open(&path, FP), Err(SnapshotError::Truncated)));
        let _ = std::fs::remove_file(&path);
    }
}
