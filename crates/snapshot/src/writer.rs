//! The one snapshot encoder: every byte of a snapshot is written once, in
//! one forward pass, while the data is produced.
//!
//! [`SnapshotWriter`] writes the header when created; as a [`ShardSink`]
//! it encodes, checksums and appends each shard the moment it is flushed
//! (or [`write_table`](SnapshotWriter::write_table) cuts a table already
//! in memory into sections, borrowing the rows); and
//! [`finish`](SnapshotWriter::finish) appends the meta payload — entities,
//! derived artifacts, the shard directory built from the actual sections,
//! `time_max` — and the trailer that locates it. Only each section's
//! 20-byte directory entry stays in memory, so peak writer memory is one
//! encoded section. The bytes go to a [`SnapshotSink`]: a snapshot file
//! ([`PendingFile`], the default), a `Vec<u8>` ([`crate::encode`]), or a
//! borrowed [`Write`] (a serve checkpoint, behind its own header).
//!
//! ## Crash safety
//!
//! Nothing ever appears under the final `snap-<fp>.bin` name except via
//! `rename` of a fully written temp: a file writer streams into one
//! `snap-….tmp.<pid>` temp, so one killed at *any* point leaves only that
//! temp behind, which the store's
//! [`sweep_stale`](crate::SnapshotStore::sweep_stale) removes on the next
//! run. Torn bytes that reach the loader anyway (truncated by the
//! filesystem, copied mid-write) are refused with the usual typed errors.

use std::convert::Infallible;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::ops::Range;
use std::path::PathBuf;

use crowd_core::dataset::{Dataset, InstanceColumns};
use crowd_core::shard::ShardSink;
use crowd_core::time::Timestamp;
use crowd_ingest::{retry_transient, Backoff, SystemClock};

use crate::format::HEADER_LEN;
use crate::sharded::{ShardDirectory, ShardSectionInfo};
use crate::{codec, format, Derived, SnapshotError};

/// Where a [`SnapshotWriter`] streams its bytes.
pub trait SnapshotSink {
    /// What a failed write reports.
    type Error;
    /// What [`SnapshotWriter::finish`] returns.
    type Output;
    /// Appends `bytes`.
    fn put(&mut self, bytes: &[u8]) -> Result<(), Self::Error>;
    /// Completes the sink after its last byte.
    fn complete(self) -> Result<Self::Output, Self::Error>;
    /// Gives up on an unfinished write (by default, does nothing).
    fn abort(self)
    where
        Self: Sized,
    {
    }
}

/// Bytes in memory: [`crate::encode`]'s sink. Never fails.
impl SnapshotSink for Vec<u8> {
    type Error = Infallible;
    type Output = Vec<u8>;

    fn put(&mut self, bytes: &[u8]) -> Result<(), Infallible> {
        self.extend_from_slice(bytes);
        Ok(())
    }

    fn complete(self) -> Result<Vec<u8>, Infallible> {
        Ok(self)
    }
}

/// Any borrowed writer, which the caller owns, flushes and closes.
impl<W: Write + ?Sized> SnapshotSink for &mut W {
    type Error = std::io::Error;
    type Output = ();

    fn put(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        self.write_all(bytes)
    }

    fn complete(self) -> std::io::Result<()> {
        Ok(())
    }
}

/// A snapshot file being written: a `….tmp.<pid>` sibling of the final
/// path, renamed over it on completion.
#[derive(Debug)]
pub struct PendingFile {
    final_path: PathBuf,
    tmp_path: PathBuf,
    file: BufWriter<File>,
}

impl SnapshotSink for PendingFile {
    type Error = SnapshotError;
    type Output = PathBuf;

    fn put(&mut self, bytes: &[u8]) -> Result<(), SnapshotError> {
        Ok(self.file.write_all(bytes)?)
    }

    /// Flushes the buffered tail and renames the temp over the final path,
    /// returning that path. Transient IO errors (`Interrupted`,
    /// `WouldBlock`) retry the flush — which writes only what is still
    /// buffered — and the rename under the default [`Backoff`]; anything
    /// else removes the temp and is surfaced.
    fn complete(mut self) -> Result<PathBuf, SnapshotError> {
        let (result, _retries) = retry_transient(&Backoff::default(), &SystemClock, || {
            self.file.flush()?;
            std::fs::rename(&self.tmp_path, &self.final_path)
        });
        match result {
            Ok(()) => Ok(self.final_path),
            Err(e) => {
                let _ = std::fs::remove_file(&self.tmp_path);
                Err(SnapshotError::Io(e))
            }
        }
    }

    /// Removes the temp; an older snapshot under the final path stays.
    fn abort(self) {
        let _ = std::fs::remove_file(&self.tmp_path);
    }
}

/// Streams a snapshot into its [`SnapshotSink`]; see the module docs.
#[derive(Debug)]
pub struct SnapshotWriter<S: SnapshotSink = PendingFile> {
    sink: S,
    /// Bytes written so far: where the next section, or the meta, starts.
    pos: u64,
    directory: ShardDirectory,
    time_max: Option<Timestamp>,
}

impl SnapshotWriter {
    /// A writer that will publish to `final_path` once finished, streaming
    /// into a temp sibling created now.
    ///
    /// `shard_rows` fixes the layout up front (every flushed shard but the
    /// last must hold exactly this many rows); take it from a
    /// [`ShardPlan`](crowd_core::ShardPlan) over the *planned* row count —
    /// the directory is written last, from actual flush records, so an
    /// estimate that is off by a shard is still encoded exactly.
    ///
    /// # Panics
    /// When `shard_rows` is zero or not a
    /// [`ScanPass::CHUNK`](crowd_core::query::ScanPass::CHUNK) multiple
    /// (misaligned shard boundaries would change float-merge order for
    /// every future streamed scan of the file).
    pub fn create(
        final_path: impl Into<PathBuf>,
        fingerprint: u64,
        shard_rows: usize,
    ) -> Result<SnapshotWriter, SnapshotError> {
        let final_path = final_path.into();
        // Keeps the `snap-` prefix and ends in `.tmp.<pid>`, which
        // `SnapshotStore::sweep_stale` removes for every pid but its own.
        let tmp_path = final_path.with_extension(format!("tmp.{}", std::process::id()));
        let file = BufWriter::new(File::create(&tmp_path)?);
        SnapshotWriter::new(PendingFile { final_path, tmp_path, file }, fingerprint, shard_rows)
    }
}

impl<S: SnapshotSink> SnapshotWriter<S> {
    /// A writer streaming into `sink`; writes the header now. `shard_rows`
    /// is as for [`create`](SnapshotWriter::create), with the same panic.
    pub fn new(mut sink: S, fingerprint: u64, shard_rows: usize) -> Result<Self, S::Error> {
        let Some(directory) = ShardDirectory::new(shard_rows as u64) else {
            panic!("shard_rows must be a non-zero CHUNK multiple to keep merge order fixed");
        };
        sink.put(&format::header(fingerprint))?;
        Ok(SnapshotWriter { sink, pos: HEADER_LEN as u64, directory, time_max: None })
    }

    /// Rows flushed so far (= the base the next shard must start at).
    pub fn rows(&self) -> usize {
        self.directory.n_rows() as usize
    }

    /// The layout's rows-per-shard (fixed at creation, CHUNK-aligned).
    /// Producers size their flush buffer from this so shard boundaries on
    /// disk match the layout the writer promised.
    pub fn shard_rows(&self) -> usize {
        self.directory.shard_rows() as usize
    }

    /// Writes every row of `table` as the next shard sections, cut at
    /// `shard_rows`, encoding straight from the borrowed columns.
    ///
    /// # Panics
    /// When a short shard was already written (only the last may be).
    pub fn write_table(&mut self, table: &InstanceColumns) -> Result<(), S::Error> {
        let shard_rows = self.shard_rows();
        for lo in (0..table.len()).step_by(shard_rows) {
            self.section(table, lo..table.len().min(lo + shard_rows))?;
        }
        Ok(())
    }

    /// Encodes, checksums and appends rows `rows` of `cols` as one shard
    /// section. An empty range writes nothing.
    fn section(&mut self, cols: &InstanceColumns, rows: Range<usize>) -> Result<(), S::Error> {
        if rows.is_empty() {
            return Ok(());
        }
        let bytes = codec::encode_instances(cols, rows.start, rows.end);
        let info = ShardSectionInfo {
            rows: rows.len() as u32,
            byte_len: bytes.len() as u64,
            checksum: format::checksum(&bytes),
        };
        self.sink.put(&bytes)?;
        let pushed = self.directory.push(info);
        assert!(pushed, "a short shard can only be the last, and none may exceed shard_rows");
        self.pos += info.byte_len;
        let end_max = cols.end_col()[rows].iter().copied().max();
        self.time_max = self.time_max.max(end_max);
        Ok(())
    }

    /// Writes the meta payload (the entity tables of `entities`, `derived`,
    /// the shard directory, and the rows' `time_max` joined with
    /// `entities`') and the trailer, then completes the sink: a file
    /// publishes and returns its final path, a `Vec` returns the bytes. On
    /// an error the sink is abandoned (a file's temp removed).
    pub fn finish(
        mut self,
        entities: &Dataset,
        derived: Option<&Derived>,
    ) -> Result<S::Output, S::Error> {
        let time_max = self.time_max.max(entities.time_max());
        let meta = codec::encode_meta(entities, derived, &self.directory, time_max);
        let trailer = format::trailer(self.pos, &meta);
        if let Err(e) = self.sink.put(&meta).and_then(|()| self.sink.put(&trailer)) {
            self.sink.abort();
            return Err(e);
        }
        self.sink.complete()
    }

    /// Abandons the write: a file writer removes its temp, and an older
    /// snapshot under the final path stays valid.
    pub fn abort(self) {
        self.sink.abort();
    }
}

impl<S: SnapshotSink> ShardSink for SnapshotWriter<S> {
    type Error = S::Error;

    /// Encodes, checksums, and appends one completed shard. An empty shard
    /// writes nothing.
    ///
    /// # Panics
    /// When `base` is not exactly [`rows`](SnapshotWriter::rows) (shards
    /// must arrive contiguously in ascending order), when the previous
    /// shard was short (only the final shard may be), or when the shard
    /// exceeds the layout's `shard_rows`.
    fn flush(&mut self, base: usize, shard: &InstanceColumns) -> Result<(), S::Error> {
        assert_eq!(base, self.rows(), "shards must arrive contiguously in ascending order");
        self.section(shard, 0..shard.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{encode_sharded, fingerprint, Snapshot, SnapshotStore};
    use crowd_core::query::ScanPass;
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
        // An in-memory sink: the panic leaves no file behind.
        let ds = crowd_sim::simulate(&SimConfig::tiny(3));
        let mut writer = SnapshotWriter::new(Vec::new(), 1, ScanPass::CHUNK).unwrap();
        let _ = writer.flush(ScanPass::CHUNK, &ds.instances);
    }
}
