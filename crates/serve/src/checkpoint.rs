//! Crash-safe service checkpoints.
//!
//! A checkpoint file is a small fixed-width header (magic, stream id,
//! progress counters, header checksum) followed by a standard
//! `crowd-snapshot` payload carrying the entity tables plus every
//! instance row applied so far. The snapshot fingerprint field holds the
//! *stream id*, so a checkpoint from a different stream is rejected by
//! the payload decoder exactly like a snapshot for the wrong config.
//!
//! Writes are atomic (temp file + rename), so a crash mid-write leaves
//! either the previous set intact or a stray temp file — never a half
//! checkpoint under a final name. Restores scan newest-to-oldest and
//! fall back past torn or corrupt files, returning the skipped files as
//! typed [`CheckpointFault`]s so callers can report (or alert on) the
//! damage they stepped over.

use std::fmt;
use std::fs;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crowd_core::dataset::Dataset;
use crowd_ingest::killpoint::kill_point;
use crowd_ingest::{retry_transient, Backoff, Clock, SystemClock};
use crowd_snapshot::format::checksum;
use crowd_snapshot::{decode, encode, Snapshot, SnapshotError};

/// File magic for serve checkpoints (distinct from snapshot files).
pub const CKPT_MAGIC: [u8; 8] = *b"CSRVCKP1";

/// Fixed header size: magic + 5 × u64 counters + u64 checksum.
const HEADER_LEN: usize = 8 + 6 * 8;

/// Everything needed to resume a [`crate::LiveService`].
#[derive(Debug, Clone)]
pub struct CheckpointState {
    /// Identifies the event stream this checkpoint belongs to.
    pub stream_id: u64,
    /// Events applied when the checkpoint was taken.
    pub events_applied: u64,
    /// Published service version at the checkpoint.
    pub version: u64,
    /// `Posted` events seen.
    pub posted: u64,
    /// `PickedUp` events seen.
    pub picked_up: u64,
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

/// Typed failure of a checkpoint operation.
#[derive(Debug)]
pub enum CheckpointError {
    /// Filesystem error reading or writing the checkpoint directory.
    Io(std::io::Error),
    /// No checkpoint file could be restored; carries one fault per file
    /// tried (empty when the directory held no checkpoints at all).
    NoValidCheckpoint {
        /// The rejected candidates, newest first.
        faults: Vec<CheckpointFault>,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint io: {e}"),
            CheckpointError::NoValidCheckpoint { faults } if faults.is_empty() => {
                write!(f, "no checkpoint files present")
            }
            CheckpointError::NoValidCheckpoint { faults } => {
                write!(
                    f,
                    "no valid checkpoint among {} candidates (newest: {})",
                    faults.len(),
                    faults[0].reason
                )
            }
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
/// Writes retry transient IO errors under a bounded [`Backoff`] (parity
/// with `SnapshotStore`'s save path); clones share the retry counter, so
/// the clone-per-call patterns the service uses still account every
/// retry in one place.
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

    /// Atomically writes a checkpoint; returns its final path. The state
    /// is consumed: its dataset moves into the encoded snapshot instead of
    /// being copied. Transient IO errors retry under the store's backoff;
    /// anything else surfaces after removing the temp file.
    pub fn write(&self, state: CheckpointState) -> Result<PathBuf, CheckpointError> {
        assert_eq!(state.stream_id, self.stream_id, "checkpoint stream id mismatch");
        fs::create_dir_all(&self.dir)?;
        let path = self.path_for(state.events_applied);
        let bytes = encode_checkpoint(state);
        let tmp = path.with_extension("tmp");
        let result = self.retry_io(|| {
            let mut f = fs::File::create(&tmp)?;
            f.write_all(&bytes)?;
            f.sync_all()?;
            // A kill here leaves a durable temp under a non-final name:
            // invisible to restore, swept by nothing, harmless.
            kill_point("ckpt.temp");
            fs::rename(&tmp, &path)?;
            Ok(())
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

    /// Restores the newest valid checkpoint, stepping over torn or
    /// corrupt files. Returns the state plus one [`CheckpointFault`] per
    /// skipped file (newest first).
    pub fn load_latest(&self) -> Result<(CheckpointState, Vec<CheckpointFault>), CheckpointError> {
        let mut faults = Vec::new();
        for path in self.list().into_iter().rev() {
            match self.load(&path) {
                Ok(state) => return Ok((state, faults)),
                Err(reason) => faults.push(CheckpointFault { path, reason }),
            }
        }
        Err(CheckpointError::NoValidCheckpoint { faults })
    }
}

fn encode_checkpoint(state: CheckpointState) -> Vec<u8> {
    let CheckpointState { stream_id, events_applied, version, posted, picked_up, dataset } = state;
    let payload = encode(&Snapshot { dataset, derived: None }, stream_id);
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(&CKPT_MAGIC);
    for v in [stream_id, events_applied, version, posted, picked_up] {
        out.extend_from_slice(&v.to_le_bytes());
    }
    let hdr_checksum = checksum(&out);
    out.extend_from_slice(&hdr_checksum.to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

fn decode_checkpoint(bytes: &[u8], stream_id: u64) -> Result<CheckpointState, String> {
    if bytes.len() < HEADER_LEN {
        return Err("truncated header".into());
    }
    if bytes[..8] != CKPT_MAGIC {
        return Err("bad checkpoint magic".into());
    }
    let u64_at = |i: usize| {
        let off = 8 + i * 8;
        u64::from_le_bytes(bytes[off..off + 8].try_into().expect("fixed-width header"))
    };
    let want = checksum(&bytes[..HEADER_LEN - 8]);
    if u64_at(5) != want {
        return Err("header checksum mismatch".into());
    }
    if u64_at(0) != stream_id {
        return Err(format!("stream id {:#x}, expected {stream_id:#x}", u64_at(0)));
    }
    let snapshot = decode(&bytes[HEADER_LEN..], stream_id)
        .map_err(|e: SnapshotError| format!("payload: {e}"))?;
    Ok(CheckpointState {
        stream_id,
        events_applied: u64_at(1),
        version: u64_at(2),
        posted: u64_at(3),
        picked_up: u64_at(4),
        dataset: snapshot.dataset,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowd_core::fixture::Fixture;
    use crowd_core::Duration;

    fn state(events: u64) -> CheckpointState {
        let mut fx = Fixture::new();
        let w = fx.add_worker();
        let b = fx.add_batch(Duration::ZERO);
        fx.instance(b, 0, w, 60, 30);
        CheckpointState {
            stream_id: 0xfeed,
            events_applied: events,
            version: events / 2,
            posted: 1,
            picked_up: 1,
            dataset: fx.finish(),
        }
    }

    #[test]
    fn round_trip_restores_counters_and_rows() {
        let dir = std::env::temp_dir().join(format!("crowd-serve-ckpt-{}", std::process::id()));
        let store = CheckpointStore::new(&dir, 0xfeed);
        store.write(state(10)).unwrap();
        store.write(state(20)).unwrap();
        let (got, faults) = store.load_latest().unwrap();
        assert!(faults.is_empty());
        assert_eq!(got.events_applied, 20);
        assert_eq!(got.posted, 1);
        assert_eq!(got.dataset.instances.len(), 1);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_newest_falls_back_to_previous_with_typed_fault() {
        let dir = std::env::temp_dir().join(format!("crowd-serve-torn-{}", std::process::id()));
        let store = CheckpointStore::new(&dir, 0xfeed);
        store.write(state(10)).unwrap();
        let newest = store.write(state(20)).unwrap();
        // Tear the newest file mid-payload.
        let bytes = fs::read(&newest).unwrap();
        fs::write(&newest, &bytes[..bytes.len() / 2]).unwrap();
        let (got, faults) = store.load_latest().unwrap();
        assert_eq!(got.events_applied, 10);
        assert_eq!(faults.len(), 1);
        assert_eq!(faults[0].path, newest);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn all_torn_is_a_typed_error_listing_every_candidate() {
        let dir = std::env::temp_dir().join(format!("crowd-serve-dead-{}", std::process::id()));
        let store = CheckpointStore::new(&dir, 0xfeed);
        for ev in [10, 20] {
            let p = store.write(state(ev)).unwrap();
            fs::write(&p, b"CSRVCKP1 garbage").unwrap();
        }
        match store.load_latest() {
            Err(CheckpointError::NoValidCheckpoint { faults }) => assert_eq!(faults.len(), 2),
            other => panic!("expected NoValidCheckpoint, got {other:?}"),
        }
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
        store.write(state(10)).unwrap();
        let other = CheckpointStore::new(&dir, 0xbeef);
        assert!(matches!(other.load_latest(), Err(CheckpointError::NoValidCheckpoint { .. })));
        fs::remove_dir_all(&dir).ok();
    }
}
