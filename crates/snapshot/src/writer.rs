//! Incremental snapshot writing: shard sections land on disk as they are
//! flushed, so the snapshot is produced *during* simulation instead of
//! after it.
//!
//! [`SnapshotWriter`] is the persistence end of the streaming build
//! pipeline (DESIGN.md §16), and the only writer of snapshot files. It
//! implements [`ShardSink`]: each completed shard is encoded,
//! checksummed, and appended to a *sections* temp file immediately, and
//! only its 20-byte directory entry stays in memory.
//! [`finish`](SnapshotWriter::finish) then assembles the final file —
//! header, meta payload (entities, derived artifacts, shard directory,
//! `time_max`) and the streamed sections — in a second temp and publishes
//! it with a single rename. Peak writer memory is one encoded section,
//! regardless of table size.
//!
//! ## Crash safety
//!
//! The same discipline as `crowd-ingest` exports: nothing ever appears
//! under the final `snap-<fp>.bin` name except via `rename` of a fully
//! written temp. A writer killed at *any* point — between shard
//! flushes, between the sections and the meta/directory assembly, or
//! mid-rename — leaves only `snap-…tmp.<pid>` temps behind, which the
//! store's [`sweep_stale`](crate::SnapshotStore::sweep_stale) removes on
//! the next run; the loader never sees a torn file under the final name.
//! Torn bytes that reach the loader anyway (truncated by the filesystem,
//! copied mid-write) are refused with the usual typed errors
//! ([`SnapshotError::Truncated`], checksum and shard-section failures).

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};

use crowd_core::dataset::{Dataset, InstanceColumns};
use crowd_core::query::ScanPass;
use crowd_core::shard::ShardSink;
use crowd_core::time::Timestamp;
use crowd_ingest::{retry_transient, Backoff, SystemClock};

use crate::sharded::{ShardDirectory, ShardSectionInfo};
use crate::{codec, format, Derived, SnapshotError};

/// Streams per-shard instance sections to disk as they complete, then
/// writes the meta payload + shard directory last and publishes the file
/// atomically. See the module docs for the full protocol.
pub struct SnapshotWriter {
    final_path: PathBuf,
    sections_path: PathBuf,
    sections: BufWriter<File>,
    infos: Vec<ShardSectionInfo>,
    fingerprint: u64,
    shard_rows: usize,
    n_rows: usize,
    time_max: Option<Timestamp>,
}

impl std::fmt::Debug for SnapshotWriter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SnapshotWriter")
            .field("final_path", &self.final_path)
            .field("shard_rows", &self.shard_rows)
            .field("n_rows", &self.n_rows)
            .field("n_shards", &self.infos.len())
            .finish_non_exhaustive()
    }
}

impl SnapshotWriter {
    /// A writer that will publish to `final_path` once finished. Sections
    /// stream into a `…sections.tmp.<pid>` sibling created now.
    ///
    /// `shard_rows` fixes the layout up front (every flushed shard but the
    /// last must hold exactly this many rows); take it from a
    /// [`ShardPlan`](crowd_core::ShardPlan) over the *planned* row count —
    /// the directory is written last, from actual flush records, so an
    /// estimate that is off by a shard is still encoded exactly.
    ///
    /// # Panics
    /// When `shard_rows` is zero or not a [`ScanPass::CHUNK`] multiple
    /// (misaligned shard boundaries would change float-merge order for
    /// every future streamed scan of the file).
    pub fn create(
        final_path: impl Into<PathBuf>,
        fingerprint: u64,
        shard_rows: usize,
    ) -> Result<SnapshotWriter, SnapshotError> {
        assert!(
            shard_rows > 0 && shard_rows.is_multiple_of(ScanPass::CHUNK),
            "shard_rows must be a non-zero CHUNK multiple to keep merge order fixed"
        );
        let final_path = final_path.into();
        let sections_path = sibling_temp(&final_path, "sections");
        let sections = BufWriter::new(File::create(&sections_path)?);
        Ok(SnapshotWriter {
            final_path,
            sections_path,
            sections,
            infos: Vec::new(),
            fingerprint,
            shard_rows,
            n_rows: 0,
            time_max: None,
        })
    }

    /// Rows flushed so far (= the base the next shard must start at).
    pub fn rows(&self) -> usize {
        self.n_rows
    }

    /// The layout's rows-per-shard (fixed at creation, CHUNK-aligned).
    /// Producers size their flush buffer from this so shard boundaries on
    /// disk match the layout the writer promised.
    pub fn shard_rows(&self) -> usize {
        self.shard_rows
    }

    /// Shard sections written so far.
    pub fn n_shards(&self) -> usize {
        self.infos.len()
    }

    /// Writes the meta payload (entities, optional derived artifacts, the
    /// shard directory built from the actual flush records, and the
    /// running `time_max` joined with the entity tables') plus the
    /// streamed sections into a temp, publishes it under the final name
    /// with one rename, and removes the sections temp. Returns the final
    /// path.
    ///
    /// Transient IO errors (`Interrupted`, `WouldBlock`) while assembling
    /// and renaming retry the whole step under the default [`Backoff`];
    /// anything else is surfaced after cleaning up both temps.
    pub fn finish(
        mut self,
        entities: &Dataset,
        derived: Option<&Derived>,
    ) -> Result<PathBuf, SnapshotError> {
        self.sections.flush()?;
        drop(self.sections); // close before re-opening to copy

        let directory =
            ShardDirectory::from_parts(self.n_rows as u64, self.shard_rows as u64, self.infos)
                .expect("flush keeps every shard full except the last");
        let time_max = [self.time_max, entities.time_max()].into_iter().flatten().max();
        let meta = codec::encode_meta(entities, derived, &directory, time_max);
        let header = format::header(self.fingerprint, &meta);

        let tmp = sibling_temp(&self.final_path, "assemble");
        let (result, _retries) = retry_transient(&Backoff::default(), &SystemClock, || {
            let mut out = BufWriter::new(File::create(&tmp)?);
            out.write_all(&header)?;
            out.write_all(&meta)?;
            std::io::copy(&mut File::open(&self.sections_path)?, &mut out)?;
            out.flush()?;
            drop(out);
            std::fs::rename(&tmp, &self.final_path)
        });
        let _ = std::fs::remove_file(&self.sections_path);
        if result.is_err() {
            let _ = std::fs::remove_file(&tmp);
        }
        result.map(|()| self.final_path).map_err(SnapshotError::Io)
    }

    /// Abandons the write, removing the sections temp. The final path is
    /// untouched (an older valid snapshot there stays valid).
    pub fn abort(self) {
        drop(self.sections);
        let _ = std::fs::remove_file(&self.sections_path);
    }
}

impl ShardSink for SnapshotWriter {
    type Error = SnapshotError;

    /// Encodes, checksums, and appends one completed shard.
    ///
    /// # Panics
    /// When `base` is not exactly [`rows`](Self::rows) (shards must arrive
    /// contiguously in ascending order), when the previous shard was short
    /// (only the final shard may be), or when the shard exceeds the
    /// layout's `shard_rows`.
    fn flush(&mut self, base: usize, shard: &InstanceColumns) -> Result<(), SnapshotError> {
        assert_eq!(base, self.n_rows, "shards must arrive contiguously in ascending order");
        assert_eq!(base % self.shard_rows, 0, "a short shard can only be the last one flushed");
        assert!(shard.len() <= self.shard_rows, "shard exceeds the planned shard_rows");
        let bytes = codec::encode_instances(shard, 0, shard.len());
        self.infos.push(ShardSectionInfo {
            rows: shard.len() as u32,
            byte_len: bytes.len() as u64,
            checksum: format::checksum(&bytes),
        });
        self.sections.write_all(&bytes)?;
        self.n_rows += shard.len();
        self.time_max =
            [self.time_max, shard.end_col().iter().copied().max()].into_iter().flatten().max();
        Ok(())
    }
}

/// A temp sibling of `final_path` that [`SnapshotStore::sweep_stale`]
/// recognizes: keeps the `snap-` prefix, contains `.tmp.`, and ends with
/// this process's pid so the store never sweeps its own live temps.
///
/// [`SnapshotStore::sweep_stale`]: crate::SnapshotStore::sweep_stale
fn sibling_temp(final_path: &Path, tag: &str) -> PathBuf {
    final_path.with_extension(format!("{tag}.tmp.{}", std::process::id()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{encode_sharded, fingerprint, Snapshot, SnapshotStore};
    use crowd_core::ShardPlan;
    use crowd_sim::SimConfig;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("crowd-snapshot-writer-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// The load-bearing equivalence: streaming shards through the writer
    /// produces the same bytes as the monolithic `encode_sharded`.
    #[test]
    fn streamed_file_is_byte_identical_to_monolithic_encoding() {
        let cfg = SimConfig::new(31, 0.002);
        let ds = crowd_sim::simulate(&cfg);
        let derived = crate::warm::compute_derived(&ds, crowd_cluster::ClusterParams::default());
        let fp = fingerprint(&cfg);
        for shards in [1usize, 3, 100] {
            let monolithic = encode_sharded(
                &Snapshot { dataset: ds.clone(), derived: Some(derived.clone()) },
                fp,
                shards,
            );

            let dir = temp_dir(&format!("bytes-{shards}"));
            let plan = ShardPlan::new(ds.instances.len(), shards);
            let mut writer =
                SnapshotWriter::create(dir.join("snap-test.bin"), fp, plan.shard_rows()).unwrap();
            for range in plan.ranges() {
                writer.flush(range.start, &ds.instances.clone_range(range)).unwrap();
            }
            let mut entities = ds.clone();
            entities.instances = crowd_core::dataset::InstanceColumns::new();
            let path = writer.finish(&entities, Some(&derived)).unwrap();

            let streamed = std::fs::read(&path).unwrap();
            assert_eq!(streamed, monolithic, "shards={shards}");
            assert_eq!(
                std::fs::read_dir(&dir).unwrap().count(),
                1,
                "no temps survive a finished write"
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn empty_table_writes_a_valid_zero_shard_file() {
        let dir = temp_dir("empty");
        let entities = Dataset::default();
        let writer =
            SnapshotWriter::create(dir.join("snap-empty.bin"), 7, ScanPass::CHUNK).unwrap();
        let path = writer.finish(&entities, None).unwrap();
        let snap = crate::decode(&std::fs::read(&path).unwrap(), 7).unwrap();
        assert!(snap.dataset.instances.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn abandoned_writer_leaves_only_sweepable_temps() {
        let dir = temp_dir("abandon");
        let cfg = SimConfig::tiny(3);
        let ds = crowd_sim::simulate(&cfg);
        let store = SnapshotStore::new(&dir);
        let final_path = store.path_for(&cfg);
        let shard_rows = ShardPlan::new(ds.instances.len(), 1).shard_rows();
        let mut writer =
            SnapshotWriter::create(&final_path, fingerprint(&cfg), shard_rows).unwrap();
        writer.flush(0, &ds.instances).unwrap();
        // Simulate a crash between shard sections: drop without finish.
        drop(writer);
        assert!(!final_path.exists(), "no torn file under the final name");
        assert!(store.load(&cfg).is_err(), "loader treats the crash as a miss");
        // The only debris is a sweepable temp (matched by `sweep_stale`'s
        // pattern; it survives here only because this pid is still alive).
        let leftover: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        assert_eq!(leftover.len(), 1);
        assert!(leftover[0].contains(".tmp."), "leftover is a temp: {leftover:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    #[should_panic(expected = "ascending order")]
    fn gap_in_flushed_bases_is_rejected() {
        let dir = temp_dir("gap");
        let ds = crowd_sim::simulate(&SimConfig::tiny(3));
        let mut writer =
            SnapshotWriter::create(dir.join("snap-gap.bin"), 1, ScanPass::CHUNK).unwrap();
        let _ = writer.flush(ScanPass::CHUNK, &ds.instances);
    }
}
