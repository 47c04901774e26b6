//! Crash-safe service checkpoints.
//!
//! A checkpoint file is a small fixed-width header (magic, stream id,
//! progress counters, header checksum) followed by a standard
//! `crowd-snapshot` payload carrying the entity tables plus every
//! instance row applied so far. The snapshot fingerprint field holds the
//! *stream id*, so a checkpoint from a different stream is rejected by
//! the payload decoder exactly like a snapshot for the wrong config.
//!
//! A write streams both, through [`SnapshotWriter`], straight from the
//! service's own tables into a temp file that is synced and renamed into
//! place, so a crash mid-write leaves either the previous set intact or a
//! stray temp file — never a half checkpoint under a final name. Restores
//! scan newest-to-oldest and fall back past torn or corrupt files (one
//! written by another snapshot format version among them), returning the
//! skipped files as typed [`CheckpointFault`]s so callers can report (or
//! alert on) the damage they stepped over.

use std::fmt;
use std::fs;
use std::io::{self, BufWriter, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crowd_core::dataset::{Dataset, InstanceColumns};
use crowd_core::ShardPlan;
use crowd_ingest::killpoint::kill_point;
use crowd_ingest::{retry_transient, Backoff, Clock, SystemClock};
use crowd_snapshot::format::checksum;
use crowd_snapshot::{decode, SnapshotError, SnapshotWriter};

/// File magic for serve checkpoints (distinct from snapshot files).
pub const CKPT_MAGIC: [u8; 8] = *b"CSRVCKP1";

/// Fixed header size: magic + 5 × u64 counters + u64 checksum.
const HEADER_LEN: usize = 8 + 6 * 8;

/// The progress counters a checkpoint records beside the service's data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointProgress {
    /// Events applied when the checkpoint was taken.
    pub events_applied: u64,
    /// Published service version at the checkpoint.
    pub version: u64,
    /// `Posted` events seen.
    pub posted: u64,
    /// `PickedUp` events seen.
    pub picked_up: u64,
}

/// Everything needed to resume a [`crate::LiveService`].
#[derive(Debug, Clone)]
pub struct CheckpointState {
    /// Identifies the event stream this checkpoint belongs to.
    pub stream_id: u64,
    /// The counters the checkpoint was written with.
    pub progress: CheckpointProgress,
    /// Entity tables plus all instance rows applied so far, in applied
    /// order.
    pub dataset: Dataset,
}

/// One unusable checkpoint file a restore stepped over.
#[derive(Debug)]
pub struct CheckpointFault {
    /// The damaged file.
    pub path: PathBuf,
    /// Why it was rejected.
    pub reason: String,
}

/// Typed failure of a checkpoint write. Reads never fail: a restore steps
/// over every file it cannot use and reports it as a [`CheckpointFault`].
#[derive(Debug)]
pub enum CheckpointError {
    /// Filesystem error writing the checkpoint directory.
    Io(std::io::Error),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint io: {e}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

/// A directory of checkpoints for one event stream.
///
/// Writes retry transient IO errors under a bounded [`Backoff`]; clones
/// share the retry counter, so the clone-per-call patterns the service
/// uses still account every retry in one place.
#[derive(Clone)]
pub struct CheckpointStore {
    dir: PathBuf,
    stream_id: u64,
    backoff: Backoff,
    clock: Arc<dyn Clock>,
    retries: Arc<AtomicU64>,
}

impl fmt::Debug for CheckpointStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CheckpointStore")
            .field("dir", &self.dir)
            .field("stream_id", &self.stream_id)
            .field("backoff", &self.backoff)
            .field("retries", &self.retries_spent())
            .finish_non_exhaustive()
    }
}

impl CheckpointStore {
    /// A store rooted at `dir` for stream `stream_id`. The directory is
    /// created on the first write. Transient save errors retry under the
    /// default backoff, jittered by the stream id so concurrent stores
    /// over a shared filesystem decorrelate.
    pub fn new(dir: impl Into<PathBuf>, stream_id: u64) -> CheckpointStore {
        CheckpointStore {
            dir: dir.into(),
            stream_id,
            backoff: Backoff::default().with_jitter(stream_id),
            clock: Arc::new(SystemClock),
            retries: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Replaces the retry policy for transient save failures.
    pub fn with_backoff(mut self, backoff: Backoff) -> CheckpointStore {
        self.backoff = backoff;
        self
    }

    /// Replaces the clock backing retry delays (inject a
    /// [`crowd_ingest::ManualClock`] in tests).
    pub fn with_clock(mut self, clock: Arc<dyn Clock>) -> CheckpointStore {
        self.clock = clock;
        self
    }

    /// Transient-error retries spent by writes over this store's lifetime
    /// (shared across clones).
    pub fn retries_spent(&self) -> u64 {
        self.retries.load(Ordering::Relaxed)
    }

    /// Runs `f`, retrying transient IO errors under the store's backoff.
    /// Every retry is counted into the shared retry gauge.
    fn retry_io(&self, f: impl FnMut() -> io::Result<()>) -> io::Result<()> {
        let (result, retries) = retry_transient(&self.backoff, &*self.clock, f);
        self.retries.fetch_add(u64::from(retries), Ordering::Relaxed);
        result
    }

    /// The store's directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The stream id checkpoints are keyed by.
    pub fn stream_id(&self) -> u64 {
        self.stream_id
    }

    /// File path for a checkpoint at `events_applied`.
    pub fn path_for(&self, events_applied: u64) -> PathBuf {
        self.dir.join(format!("ckpt-{:016x}-{events_applied:020}.bin", self.stream_id))
    }

    /// Existing checkpoint files for this stream, oldest first.
    pub fn list(&self) -> Vec<PathBuf> {
        let mut out = Vec::new();
        let Ok(entries) = fs::read_dir(&self.dir) else { return out };
        let prefix = format!("ckpt-{:016x}-", self.stream_id);
        for entry in entries.flatten() {
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if name.starts_with(&prefix) && name.ends_with(".bin") {
                out.push(entry.path());
            }
        }
        out.sort();
        out
    }

    /// Atomically writes a checkpoint of `progress`, the entity tables of
    /// `entities` and the applied `rows`; returns its final path.
    /// Transient IO errors retry the whole write under the store's
    /// backoff; anything else surfaces after removing the temp file.
    pub fn write(
        &self,
        progress: CheckpointProgress,
        entities: &Dataset,
        rows: &InstanceColumns,
    ) -> Result<PathBuf, CheckpointError> {
        fs::create_dir_all(&self.dir)?;
        let path = self.path_for(progress.events_applied);
        let header = encode_header(self.stream_id, progress);
        let shard_rows = ShardPlan::new(rows.len(), 1).shard_rows();
        let tmp = path.with_extension("tmp");
        let result = self.retry_io(|| {
            let mut out = BufWriter::new(fs::File::create(&tmp)?);
            out.write_all(&header)?;
            let mut payload = SnapshotWriter::new(&mut out, self.stream_id, shard_rows)?;
            payload.write_table(rows)?;
            payload.finish(entities, None)?;
            out.into_inner().map_err(io::IntoInnerError::into_error)?.sync_all()?;
            // A kill here leaves a durable temp under a non-final name:
            // invisible to restore, swept by nothing, harmless.
            kill_point("ckpt.temp");
            fs::rename(&tmp, &path)
        });
        if let Err(e) = result {
            let _ = fs::remove_file(&tmp);
            return Err(e.into());
        }
        kill_point("ckpt.rename");
        Ok(path)
    }

    /// Loads one checkpoint file, verifying header and payload.
    pub fn load(&self, path: &Path) -> Result<CheckpointState, String> {
        let bytes = fs::read(path).map_err(|e| format!("read: {e}"))?;
        decode_checkpoint(&bytes, self.stream_id)
    }

    /// The newest valid checkpoint, if any, stepping over torn or corrupt
    /// files. Returns it with one [`CheckpointFault`] per skipped file
    /// (newest first); with no valid file the faults list every
    /// candidate, and are empty when there were none.
    pub fn load_latest(&self) -> (Option<CheckpointState>, Vec<CheckpointFault>) {
        let mut faults = Vec::new();
        for path in self.list().into_iter().rev() {
            match self.load(&path) {
                Ok(state) => return (Some(state), faults),
                Err(reason) => faults.push(CheckpointFault { path, reason }),
            }
        }
        (None, faults)
    }
}

/// The checkpoint header: magic, stream id, progress counters, and a
/// checksum over all of them.
fn encode_header(stream_id: u64, progress: CheckpointProgress) -> Vec<u8> {
    let CheckpointProgress { events_applied, version, posted, picked_up } = progress;
    let mut out = Vec::with_capacity(HEADER_LEN);
    out.extend_from_slice(&CKPT_MAGIC);
    for v in [stream_id, events_applied, version, posted, picked_up] {
        out.extend_from_slice(&v.to_le_bytes());
    }
    let hdr_checksum = checksum(&out);
    out.extend_from_slice(&hdr_checksum.to_le_bytes());
    out
}

fn decode_checkpoint(bytes: &[u8], stream_id: u64) -> Result<CheckpointState, String> {
    let Some((header, payload)) = bytes.split_first_chunk::<HEADER_LEN>() else {
        return Err("truncated header".into());
    };
    if header[..8] != CKPT_MAGIC {
        return Err("bad checkpoint magic".into());
    }
    // After the magic: stream id, the four progress counters, checksum.
    let word = |i: usize| u64::from_le_bytes(std::array::from_fn(|b| header[8 + 8 * i + b]));
    if word(5) != checksum(&header[..HEADER_LEN - 8]) {
        return Err("header checksum mismatch".into());
    }
    if word(0) != stream_id {
        return Err(format!("stream id {:#x}, expected {stream_id:#x}", word(0)));
    }
    let snapshot =
        decode(payload, stream_id).map_err(|e: SnapshotError| format!("payload: {e}"))?;
    let progress = CheckpointProgress {
        events_applied: word(1),
        version: word(2),
        posted: word(3),
        picked_up: word(4),
    };
    Ok(CheckpointState { stream_id, progress, dataset: snapshot.dataset })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowd_core::fixture::Fixture;
    use crowd_core::Duration;

    /// Progress at `events` applied events, and a one-row dataset.
    fn state(events: u64) -> (CheckpointProgress, Dataset) {
        let mut fx = Fixture::new();
        let w = fx.add_worker();
        let b = fx.add_batch(Duration::ZERO);
        fx.instance(b, 0, w, 60, 30);
        let progress = CheckpointProgress {
            events_applied: events,
            version: events / 2,
            posted: 1,
            picked_up: 1,
        };
        (progress, fx.finish())
    }

    fn write(store: &CheckpointStore, (progress, ds): (CheckpointProgress, Dataset)) -> PathBuf {
        store.write(progress, &ds, &ds.instances).unwrap()
    }

    #[test]
    fn round_trip_restores_counters_and_rows() {
        let dir = std::env::temp_dir().join(format!("crowd-serve-ckpt-{}", std::process::id()));
        let store = CheckpointStore::new(&dir, 0xfeed);
        write(&store, state(10));
        write(&store, state(20));
        let (got, faults) = store.load_latest();
        let got = got.expect("a valid checkpoint");
        assert!(faults.is_empty());
        assert_eq!(got.progress.events_applied, 20);
        assert_eq!(got.progress.posted, 1);
        assert_eq!(got.dataset.instances.len(), 1);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_newest_falls_back_to_previous_with_typed_fault() {
        let dir = std::env::temp_dir().join(format!("crowd-serve-torn-{}", std::process::id()));
        let store = CheckpointStore::new(&dir, 0xfeed);
        write(&store, state(10));
        let newest = write(&store, state(20));
        // Tear the newest file mid-payload.
        let bytes = fs::read(&newest).unwrap();
        fs::write(&newest, &bytes[..bytes.len() / 2]).unwrap();
        let (got, faults) = store.load_latest();
        assert_eq!(got.expect("the older checkpoint").progress.events_applied, 10);
        assert_eq!(faults.len(), 1);
        assert_eq!(faults[0].path, newest);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn all_torn_restores_nothing_and_lists_every_candidate() {
        let dir = std::env::temp_dir().join(format!("crowd-serve-dead-{}", std::process::id()));
        let store = CheckpointStore::new(&dir, 0xfeed);
        for ev in [10, 20] {
            let p = write(&store, state(ev));
            fs::write(&p, b"CSRVCKP1 garbage").unwrap();
        }
        let (got, faults) = store.load_latest();
        assert!(got.is_none(), "no candidate restores");
        assert_eq!(faults.len(), 2);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn transient_write_faults_retry_on_the_seeded_jitter_schedule() {
        use crowd_ingest::ManualClock;
        let clock = Arc::new(ManualClock::new());
        let store =
            CheckpointStore::new("unused", 0xfeed).with_clock(Arc::clone(&clock) as Arc<dyn Clock>);
        let mut failures = 3;
        store
            .retry_io(|| {
                if failures > 0 {
                    failures -= 1;
                    Err(io::Error::from(io::ErrorKind::Interrupted))
                } else {
                    Ok(())
                }
            })
            .expect("transient faults within budget must recover");
        assert_eq!(store.retries_spent(), 3);
        // The sleeps follow the stream-seeded jitter schedule exactly.
        let expect: Vec<_> = (0..3).map(|r| store.backoff.delay(r)).collect();
        assert_eq!(clock.slept(), expect);
        let raw = Backoff::default();
        assert!(
            (0..3).any(|r| store.backoff.delay(r) != raw.delay(r)),
            "stream-id jitter left the schedule untouched"
        );
    }

    #[test]
    fn exhausted_transient_budget_surfaces_the_error_and_clones_share_retries() {
        use crowd_ingest::ManualClock;
        let clock = Arc::new(ManualClock::new());
        let store = CheckpointStore::new("unused", 0xfeed)
            .with_backoff(Backoff { max_retries: 2, ..Backoff::default() })
            .with_clock(clock as Arc<dyn Clock>);
        let clone = store.clone();
        let err = clone
            .retry_io(|| Err(io::Error::from(io::ErrorKind::WouldBlock)))
            .expect_err("endless transience must exhaust");
        assert_eq!(err.kind(), io::ErrorKind::WouldBlock);
        assert_eq!(store.retries_spent(), 2, "clones share the retry gauge");
    }

    #[test]
    fn wrong_stream_id_is_rejected() {
        let dir = std::env::temp_dir().join(format!("crowd-serve-stream-{}", std::process::id()));
        let store = CheckpointStore::new(&dir, 0xfeed);
        write(&store, state(10));
        let other = CheckpointStore::new(&dir, 0xbeef);
        let (got, faults) = other.load_latest();
        assert!(got.is_none());
        assert!(faults.is_empty(), "the other stream's files are not candidates");
        fs::remove_dir_all(&dir).ok();
    }
}
