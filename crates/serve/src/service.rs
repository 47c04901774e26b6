//! The live service: one writer applying event deltas, many readers
//! querying published snapshots.
//!
//! Concurrency contract (what `serve_concurrent.rs` stress-tests):
//!
//! - [`LiveService`] is the single writer. [`apply_events`] folds a batch
//!   of events into the delta-applied [`FusedView`], then publishes a new
//!   immutable [`ServiceSnapshot`] by swapping an `Arc` under a write
//!   lock.
//! - [`ServiceHandle`] is the cloneable reader. [`snapshot`] clones the
//!   current `Arc` under the read lock — the lock is held for one
//!   refcount bump, and all query work runs against the immutable
//!   snapshot afterwards. A reader therefore observes exactly one fully
//!   published version (never a torn mix) and versions are monotone.
//!
//! Equivalence contract: every published snapshot's fused aggregates
//! equal a cold batch [`Study`] over the same event prefix.
//! [`batch_study`] rebuilds that oracle on demand.
//!
//! [`apply_events`]: LiveService::apply_events
//! [`snapshot`]: ServiceHandle::snapshot
//! [`batch_study`]: LiveService::batch_study

use std::fmt;
use std::io::Read;
use std::path::PathBuf;
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::time::{Duration, Instant};

use crowd_analytics::view::ViewSnapshot;
use crowd_analytics::{FusedView, Study};
use crowd_core::dataset::{Dataset, InstanceColumns};
use crowd_core::provenance::TableReport;
use crowd_ingest::events::{load_events, EventOptions, EventStreamError};
use crowd_ingest::killpoint::kill_point;
use crowd_ingest::wal::{replay as wal_replay, truncate_torn, WalOptions, WalWriter};
use crowd_ingest::{MarketEvent, WalError, WalFault};

use crate::checkpoint::{CheckpointError, CheckpointFault, CheckpointState, CheckpointStore};
use crate::replay::entities_only;

/// Monotone event counters plus durability/overload telemetry, published
/// with every snapshot.
///
/// The WAL and overload counters describe *this process's run*: they
/// restart at zero after a restore (the checkpoint header keeps only the
/// event counters), which is the useful reading — "what has this
/// incarnation appended/shed", not a lifetime total.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Gauges {
    /// `Posted` events applied.
    pub posted: u64,
    /// `PickedUp` events applied.
    pub picked_up: u64,
    /// `Completed` events applied (equals the view's row count).
    pub completed: u64,
    /// WAL records appended by this process.
    pub wal_appends: u64,
    /// WAL fsyncs issued by this process.
    pub wal_fsyncs: u64,
    /// Batches dropped at admission (`ShedPolicy::ShedOldest`); shed
    /// events were never accepted and are absent from every other gauge.
    pub shed_batches: u64,
    /// Events inside those dropped batches.
    pub shed_events: u64,
    /// Events admitted but not yet applied when this snapshot published —
    /// the staleness reading under `ShedPolicy::DegradeStale`.
    pub lag_events: u64,
}

/// One published, immutable service state.
#[derive(Debug)]
pub struct ServiceSnapshot {
    /// Service publish counter: 0 at start, +1 per applied batch.
    pub version: u64,
    /// Total events applied through this snapshot.
    pub events_applied: u64,
    /// Event counters at this snapshot.
    pub gauges: Gauges,
    /// The fused analytics state over exactly the completed rows applied
    /// so far.
    pub view: Arc<ViewSnapshot>,
}

/// Publication state shared between the writer and every reader handle:
/// the snapshot slot plus a condvar-guarded version counter so readers
/// can *block* for a version instead of spinning on the `Arc`.
struct Shared {
    snap: RwLock<Arc<ServiceSnapshot>>,
    version: Mutex<u64>,
    published: Condvar,
}

impl Shared {
    fn publish(&self, snap: Arc<ServiceSnapshot>) {
        let version = snap.version;
        *self.snap.write().expect("service lock poisoned") = snap;
        *self.version.lock().expect("service lock poisoned") = version;
        self.published.notify_all();
        kill_point("serve.publish");
    }
}

/// Cloneable read handle onto the latest published [`ServiceSnapshot`].
#[derive(Clone)]
pub struct ServiceHandle {
    shared: Arc<Shared>,
}

impl ServiceHandle {
    /// The latest fully published snapshot.
    pub fn snapshot(&self) -> Arc<ServiceSnapshot> {
        Arc::clone(&self.shared.snap.read().expect("service lock poisoned"))
    }

    /// Blocks until a snapshot with `version` (or newer) publishes, then
    /// returns it; `None` on timeout. This replaces reader spin loops:
    /// the writer notifies on every publish, so a waiting reader costs
    /// nothing between versions.
    pub fn wait_for_version(
        &self,
        version: u64,
        timeout: Duration,
    ) -> Option<Arc<ServiceSnapshot>> {
        let deadline = Instant::now() + timeout;
        let mut latest = self.shared.version.lock().expect("service lock poisoned");
        while *latest < version {
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            let (guard, _) = self
                .shared
                .published
                .wait_timeout(latest, deadline - now)
                .expect("service lock poisoned");
            latest = guard;
        }
        drop(latest);
        // The slot is at least as new as the version we waited for
        // (publishes are monotone and slot-before-counter).
        Some(self.snapshot())
    }
}

/// Typed failure of a service operation.
#[derive(Debug)]
pub enum ServeError {
    /// The event stream failed to load.
    Stream(EventStreamError),
    /// A checkpoint write or restore failed.
    Checkpoint(CheckpointError),
    /// A WAL file operation failed.
    Wal(WalError),
    /// The WAL holds damage no crash produces (bit flip, sequence gap);
    /// recovery refuses rather than serve past it.
    WalCorrupt(WalFault),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Stream(e) => write!(f, "{e}"),
            ServeError::Checkpoint(e) => write!(f, "{e}"),
            ServeError::Wal(e) => write!(f, "{e}"),
            ServeError::WalCorrupt(fault) => write!(f, "refusing recovery: {fault}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<EventStreamError> for ServeError {
    fn from(e: EventStreamError) -> Self {
        ServeError::Stream(e)
    }
}

impl From<CheckpointError> for ServeError {
    fn from(e: CheckpointError) -> Self {
        ServeError::Checkpoint(e)
    }
}

impl From<WalError> for ServeError {
    fn from(e: WalError) -> Self {
        ServeError::Wal(e)
    }
}

/// Summary of one [`LiveService::ingest_stream`] run.
#[derive(Debug, Clone)]
pub struct IngestSummary {
    /// Accept/repair/dedup/quarantine accounting from the event loader.
    pub report: TableReport,
    /// Delta batches applied.
    pub batches: u64,
    /// Events applied by this run.
    pub events_applied: u64,
    /// Service version after the run.
    pub version: u64,
    /// Transient-error retries the checkpoint store spent during this
    /// run (0 when checkpoints are off).
    pub checkpoint_retries: u64,
}

/// What a [`LiveService::restore_durable`] recovery found and did.
#[derive(Debug)]
pub struct RecoveryReport {
    /// Events restored from the newest valid checkpoint (0 when recovery
    /// started fresh — no checkpoint, or none valid).
    pub checkpoint_events: u64,
    /// Checkpoint files stepped over as torn or corrupt, newest first.
    pub checkpoint_faults: Vec<CheckpointFault>,
    /// Events replayed from the WAL tail past the checkpoint.
    pub wal_events_replayed: u64,
    /// Valid WAL records scanned during replay.
    pub wal_records: u64,
    /// Whether a torn WAL tail was truncated at its last valid record
    /// boundary (the expected artifact of a crash mid-append).
    pub torn_truncated: bool,
}

/// The single-writer live analytics service.
pub struct LiveService {
    entities: Arc<Dataset>,
    view: FusedView,
    rows: InstanceColumns,
    gauges: Gauges,
    events_applied: u64,
    version: u64,
    shared: Arc<Shared>,
    checkpoints: Option<(CheckpointStore, u64)>,
    wal: Option<WalWriter>,
}

fn new_shared(snap: ServiceSnapshot) -> Arc<Shared> {
    let version = snap.version;
    Arc::new(Shared {
        snap: RwLock::new(Arc::new(snap)),
        version: Mutex::new(version),
        published: Condvar::new(),
    })
}

impl LiveService {
    /// A fresh service over `entities` (instance table must be empty —
    /// rows arrive as events).
    pub fn new(entities: Arc<Dataset>) -> LiveService {
        let view = FusedView::new(Arc::clone(&entities));
        let snap = ServiceSnapshot {
            version: 0,
            events_applied: 0,
            gauges: Gauges::default(),
            view: view.snapshot(),
        };
        LiveService {
            entities,
            view,
            rows: InstanceColumns::default(),
            gauges: Gauges::default(),
            events_applied: 0,
            version: 0,
            shared: new_shared(snap),
            checkpoints: None,
            wal: None,
        }
    }

    /// Enables periodic checkpoints: one is written whenever
    /// `events_applied` crosses a multiple of `every_events`.
    pub fn with_checkpoints(mut self, store: CheckpointStore, every_events: u64) -> LiveService {
        assert!(every_events > 0, "checkpoint cadence must be positive");
        self.checkpoints = Some((store, every_events));
        self
    }

    /// Restores from the newest valid checkpoint in `store`, stepping
    /// over torn files. Returns the resumed service plus the faults
    /// skipped; apply the event-stream tail from
    /// [`events_applied`](LiveService::events_applied) onward to catch
    /// up.
    pub fn restore(
        store: CheckpointStore,
        every_events: u64,
    ) -> Result<(LiveService, Vec<CheckpointFault>), ServeError> {
        let (state, faults) = store.load_latest().map_err(ServeError::Checkpoint)?;
        Ok((LiveService::from_state(state, store, every_events), faults))
    }

    fn from_state(
        mut state: CheckpointState,
        store: CheckpointStore,
        every_events: u64,
    ) -> LiveService {
        // The decoded rows move into the service; what remains of the
        // dataset is exactly its entity tables.
        let rows = std::mem::take(&mut state.dataset.instances);
        let entities = Arc::new(state.dataset);
        let mut view = FusedView::new(Arc::clone(&entities));
        view.apply(&rows);
        let gauges = Gauges {
            posted: state.posted,
            picked_up: state.picked_up,
            completed: rows.len() as u64,
            ..Gauges::default()
        };
        let snap = ServiceSnapshot {
            version: state.version,
            events_applied: state.events_applied,
            gauges,
            view: view.snapshot(),
        };
        LiveService {
            entities,
            view,
            rows,
            gauges,
            events_applied: state.events_applied,
            version: state.version,
            shared: new_shared(snap),
            checkpoints: Some((store, every_events)),
            wal: None,
        }
    }

    /// Enables the write-ahead log: every non-empty batch is appended
    /// (checksummed, length-prefixed) to a rotating segment file under
    /// `dir` **before** it is folded into the live view, keyed by
    /// `stream_id`. With the WAL on, an accepted event survives the
    /// process dying at any instant — recovery is
    /// [`restore_durable`](LiveService::restore_durable).
    pub fn with_wal(
        mut self,
        dir: impl Into<PathBuf>,
        stream_id: u64,
        opts: WalOptions,
    ) -> Result<LiveService, ServeError> {
        let writer = WalWriter::open(dir, stream_id, opts, self.events_applied)?;
        self.wal = Some(writer);
        Ok(self)
    }

    /// Crash recovery with the WAL: loads the newest valid checkpoint
    /// (fresh-starting over `entities` when none restores), replays the
    /// WAL tail past it, truncates a torn tail at the last valid record
    /// boundary, and re-attaches the log for new appends. Corrupt WAL
    /// records (damage no crash produces) refuse with
    /// [`ServeError::WalCorrupt`] instead of serving past them.
    pub fn restore_durable(
        store: CheckpointStore,
        every_events: u64,
        entities: Arc<Dataset>,
        wal_dir: impl Into<PathBuf>,
        wal_opts: WalOptions,
    ) -> Result<(LiveService, RecoveryReport), ServeError> {
        let wal_dir = wal_dir.into();
        let stream_id = store.stream_id();
        let (mut service, checkpoint_faults) = match store.load_latest() {
            Ok((state, faults)) => (LiveService::from_state(state, store, every_events), faults),
            Err(CheckpointError::NoValidCheckpoint { faults }) => {
                let mut svc = LiveService::new(entities);
                svc.checkpoints = Some((store, every_events));
                (svc, faults)
            }
            Err(e) => return Err(ServeError::Checkpoint(e)),
        };
        let mut report = RecoveryReport {
            checkpoint_events: service.events_applied,
            checkpoint_faults,
            wal_events_replayed: 0,
            wal_records: 0,
            torn_truncated: false,
        };
        let replayed = wal_replay(&wal_dir, stream_id, service.events_applied, &service.entities)?;
        match replayed.fault {
            Some(fault) if fault.is_torn_tail() => {
                truncate_torn(&fault)?;
                report.torn_truncated = true;
            }
            Some(fault) => return Err(ServeError::WalCorrupt(fault)),
            None => {}
        }
        report.wal_records = replayed.records;
        report.wal_events_replayed = replayed.events.len() as u64;
        if !replayed.events.is_empty() {
            // The WAL is not yet attached, so replay does not re-append.
            service.apply_events(&replayed.events)?;
        }
        debug_assert_eq!(service.events_applied, replayed.next_seq.max(report.checkpoint_events));
        let writer = WalWriter::open(wal_dir, stream_id, wal_opts, service.events_applied)?;
        service.wal = Some(writer);
        Ok((service, report))
    }

    /// The entity tables the service was started with.
    pub fn entities(&self) -> &Arc<Dataset> {
        &self.entities
    }

    /// All completed rows applied so far, in applied order.
    pub fn rows(&self) -> &InstanceColumns {
        &self.rows
    }

    /// Total events applied.
    pub fn events_applied(&self) -> u64 {
        self.events_applied
    }

    /// Current published version.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Current event counters.
    pub fn gauges(&self) -> Gauges {
        self.gauges
    }

    /// A reader handle; clone freely across threads.
    pub fn handle(&self) -> ServiceHandle {
        ServiceHandle { shared: Arc::clone(&self.shared) }
    }

    /// The WAL writer's counters, when the log is enabled.
    pub fn wal_stats(&self) -> Option<crowd_ingest::WalStats> {
        self.wal.as_ref().map(WalWriter::stats)
    }

    /// Forces any batched-but-unsynced WAL appends to stable storage
    /// (call on clean shutdown when `fsync_every > 1`). No-op without a
    /// WAL.
    pub fn wal_sync(&mut self) -> Result<(), ServeError> {
        if let Some(wal) = &mut self.wal {
            wal.sync()?;
        }
        Ok(())
    }

    /// Records batches dropped at admission (the apply loop calls this
    /// when its queue sheds); surfaced in the next published snapshot's
    /// gauges.
    pub fn note_shed(&mut self, batches: u64, events: u64) {
        self.gauges.shed_batches += batches;
        self.gauges.shed_events += events;
    }

    /// Sets the staleness gauge: events admitted but not yet applied at
    /// the moment the *next* snapshot publishes.
    pub fn set_lag(&mut self, events: u64) {
        self.gauges.lag_events = events;
    }

    /// Applies one batch of events (in the given order) and publishes the
    /// resulting snapshot. Empty batches publish too — a heartbeat
    /// version bump with unchanged aggregates. With a WAL attached the
    /// batch is appended durably *first*: a failure to log admits
    /// nothing, and a crash after the append replays the batch on
    /// restart.
    pub fn apply_events(
        &mut self,
        events: &[MarketEvent],
    ) -> Result<Arc<ServiceSnapshot>, ServeError> {
        if let Some(wal) = &mut self.wal {
            wal.append(events)?;
            let stats = wal.stats();
            self.gauges.wal_appends = stats.appends;
            self.gauges.wal_fsyncs = stats.fsyncs;
        }
        let before = self.events_applied;
        let mut delta = InstanceColumns::default();
        for ev in events {
            match ev {
                MarketEvent::Posted { .. } => self.gauges.posted += 1,
                MarketEvent::PickedUp { .. } => self.gauges.picked_up += 1,
                MarketEvent::Completed { row, .. } => {
                    self.gauges.completed += 1;
                    delta.push(row.clone());
                }
            }
        }
        self.rows.extend_from(&delta, 0..delta.len());
        let view_snap = self.view.apply(&delta);
        self.events_applied += events.len() as u64;
        self.version += 1;
        let snap = Arc::new(ServiceSnapshot {
            version: self.version,
            events_applied: self.events_applied,
            gauges: self.gauges,
            view: view_snap,
        });
        self.shared.publish(Arc::clone(&snap));
        if let Some((store, every)) = &self.checkpoints {
            if self.events_applied / every > before / every {
                store.write(self.checkpoint_state()).map_err(ServeError::Checkpoint)?;
                // The checkpoint now covers everything applied; WAL
                // segments wholly before it are dead weight.
                if let Some(wal) = &mut self.wal {
                    wal.retire_through(self.events_applied)?;
                }
            }
        }
        Ok(snap)
    }

    /// Loads an event stream through the resilient ingest path and
    /// applies it in batches of `batch_events` events (canonical order).
    pub fn ingest_stream(
        &mut self,
        reader: &mut dyn Read,
        opts: &EventOptions,
        batch_events: usize,
    ) -> Result<IngestSummary, ServeError> {
        assert!(batch_events > 0, "batch size must be positive");
        let retries_before =
            self.checkpoints.as_ref().map_or(0, |(store, _)| store.retries_spent());
        let log = load_events(reader, &self.entities, opts)?;
        let mut batches = 0u64;
        let mut applied = 0u64;
        for chunk in log.events.chunks(batch_events) {
            self.apply_events(chunk)?;
            batches += 1;
            applied += chunk.len() as u64;
        }
        let retries_after = self.checkpoints.as_ref().map_or(0, |(store, _)| store.retries_spent());
        Ok(IngestSummary {
            report: log.report,
            batches,
            events_applied: applied,
            version: self.version,
            checkpoint_retries: retries_after - retries_before,
        })
    }

    /// Writes a checkpoint now (regardless of cadence). Panics if the
    /// service has no checkpoint store configured.
    pub fn checkpoint_now(&self) -> Result<std::path::PathBuf, ServeError> {
        let (store, _) =
            self.checkpoints.as_ref().expect("checkpoint_now requires with_checkpoints/restore");
        store.write(self.checkpoint_state()).map_err(ServeError::Checkpoint)
    }

    fn checkpoint_state(&self) -> CheckpointState {
        let (store, _) = self.checkpoints.as_ref().expect("checked by callers");
        let mut dataset = entities_only(&self.entities);
        dataset.instances = self.rows.clone_range(0..self.rows.len());
        CheckpointState {
            stream_id: store.stream_id(),
            events_applied: self.events_applied,
            version: self.version,
            posted: self.gauges.posted,
            picked_up: self.gauges.picked_up,
            dataset,
        }
    }

    /// The cold batch oracle: a fresh [`Study`] over the entities plus
    /// every row applied so far — what the published view must equal.
    pub fn batch_study(&self) -> Study {
        let mut ds = entities_only(&self.entities);
        ds.instances = self.rows.clone_range(0..self.rows.len());
        Study::new(ds)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replay::EventFeed;
    use crowd_sim::SimConfig;

    #[test]
    fn applying_the_full_feed_matches_the_batch_study() {
        let feed = EventFeed::from_config(&SimConfig::tiny(51));
        let mut svc = LiveService::new(Arc::clone(&feed.entities));
        let summary = svc
            .ingest_stream(&mut feed.to_csv().as_bytes(), &EventOptions::default(), 2000)
            .expect("clean feed");
        assert_eq!(summary.report.verified, Some(true));
        assert_eq!(svc.gauges().completed as usize, feed.n_completed());
        assert_eq!(svc.gauges().posted as usize, feed.entities.batches.len());

        let snap = svc.handle().snapshot();
        assert_eq!(snap.version, summary.version);
        assert_eq!(snap.view.rows, feed.n_completed());
        let diffs = crowd_testkit::compare_fused(
            &snap.view.fused,
            svc.batch_study().fused(),
            crowd_testkit::differential::FloatMode::Bitwise,
        );
        assert!(diffs.is_empty(), "live view diverged from batch study:\n{}", diffs.join("\n"));
    }

    #[test]
    fn empty_batches_publish_heartbeat_versions() {
        let feed = EventFeed::from_config(&SimConfig::tiny(52));
        let mut svc = LiveService::new(Arc::clone(&feed.entities));
        let v1 = svc.apply_events(&[]).unwrap();
        let v2 = svc.apply_events(&[]).unwrap();
        assert_eq!((v1.version, v2.version), (1, 2));
        assert_eq!(v2.view.fused.n_instances(), 0);
    }

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("crowd-serve-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn wait_for_version_blocks_until_publish_and_times_out_honestly() {
        let feed = EventFeed::from_config(&SimConfig::tiny(60));
        let mut svc = LiveService::new(Arc::clone(&feed.entities));
        let handle = svc.handle();

        // Already-published versions return immediately.
        svc.apply_events(&[]).unwrap();
        let snap = handle.wait_for_version(1, Duration::ZERO).expect("v1 is out");
        assert!(snap.version >= 1);

        // A future version times out without a publish...
        assert!(handle.wait_for_version(2, Duration::from_millis(40)).is_none());

        // ...and a blocked reader wakes as soon as it lands.
        let reader = {
            let handle = handle.clone();
            std::thread::spawn(move || handle.wait_for_version(2, Duration::from_secs(10)))
        };
        std::thread::sleep(Duration::from_millis(30));
        svc.apply_events(&[]).unwrap();
        let snap = reader.join().unwrap().expect("publish must wake the waiter");
        assert!(snap.version >= 2);
    }

    #[test]
    fn wal_restore_after_an_uncheckpointed_tail_is_bit_identical() {
        let dir = temp_dir("wal-restore");
        let feed = EventFeed::from_config(&SimConfig::tiny(61));
        let store = CheckpointStore::new(dir.join("ckpt"), 61);
        let mut svc = LiveService::new(Arc::clone(&feed.entities))
            .with_checkpoints(store.clone(), 500)
            .with_wal(dir.join("wal"), 61, crowd_ingest::WalOptions::default())
            .unwrap();
        let log = crowd_ingest::load_events_str(&feed.to_csv(), &feed.entities).unwrap();
        for chunk in log.events.chunks(230) {
            svc.apply_events(chunk).unwrap();
        }
        let live_snap = svc.handle().snapshot();
        let (live_gauges, live_applied) = (svc.gauges(), svc.events_applied());
        drop(svc); // Simulated crash: no final checkpoint, WAL holds the tail.

        let (restored, report) = LiveService::restore_durable(
            store,
            500,
            Arc::clone(&feed.entities),
            dir.join("wal"),
            crowd_ingest::WalOptions::default(),
        )
        .unwrap();
        assert!(report.checkpoint_events > 0, "cadence must have checkpointed");
        assert!(report.wal_events_replayed > 0, "the tail lived only in the WAL");
        assert!(!report.torn_truncated);
        assert_eq!(restored.events_applied(), live_applied, "zero accepted-event loss");
        let g = restored.gauges();
        assert_eq!(
            (g.posted, g.picked_up, g.completed),
            (live_gauges.posted, live_gauges.picked_up, live_gauges.completed)
        );
        assert_eq!(
            restored.handle().snapshot().view.fused,
            live_snap.view.fused,
            "recovered fused state must be bit-identical"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_wal_tail_is_truncated_and_the_gap_is_replayable() {
        let dir = temp_dir("wal-torn");
        let feed = EventFeed::from_config(&SimConfig::tiny(62));
        let store = CheckpointStore::new(dir.join("ckpt"), 62);
        let mut svc = LiveService::new(Arc::clone(&feed.entities))
            .with_wal(dir.join("wal"), 62, crowd_ingest::WalOptions::default())
            .unwrap();
        let log = crowd_ingest::load_events_str(&feed.to_csv(), &feed.entities).unwrap();
        for chunk in log.events.chunks(100) {
            svc.apply_events(chunk).unwrap();
        }
        drop(svc);
        // Tear the newest segment mid-record, as a crash mid-append would.
        let files = crowd_ingest::wal_segment_files(&dir.join("wal"), 62).unwrap();
        let (_, last) = files.last().expect("appends created segments");
        let bytes = std::fs::read(last).unwrap();
        std::fs::write(last, &bytes[..bytes.len() - 7]).unwrap();

        let (mut restored, report) = LiveService::restore_durable(
            store,
            500,
            Arc::clone(&feed.entities),
            dir.join("wal"),
            crowd_ingest::WalOptions::default(),
        )
        .unwrap();
        assert!(report.torn_truncated, "the torn tail must be truncated");
        let recovered = restored.events_applied();
        assert!(recovered < log.events.len() as u64, "the torn batch is lost");
        // Re-feeding the missing tail converges to the uncrashed state.
        let tail: Vec<_> = log.events[recovered as usize..].to_vec();
        restored.apply_events(&tail).unwrap();
        let mut oracle = LiveService::new(Arc::clone(&feed.entities));
        oracle.apply_events(&log.events).unwrap();
        assert_eq!(restored.handle().snapshot().view.fused, oracle.handle().snapshot().view.fused);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn out_of_range_timestamp_is_quarantined_before_the_wal() {
        let dir = temp_dir("wal-hostile");
        let feed = EventFeed::from_config(&SimConfig::tiny(64));
        let mut svc = LiveService::new(Arc::clone(&feed.entities))
            .with_wal(dir.join("wal"), 64, WalOptions::default())
            .unwrap();
        // A well-formed, trailer-less stream whose last record starts and
        // ends ~2.9e11 years from now: week arithmetic on it would panic.
        let csv = feed.to_csv();
        let (body, _trailer) = csv.trim_end().rsplit_once('\n').unwrap();
        let wire =
            format!("{body}\nC,999999,0,0,0,9000000000000000000,9000000000000000000,0.5,S\n");
        let summary = svc
            .ingest_stream(&mut wire.as_bytes(), &EventOptions::default(), 1000)
            .expect("the record is quarantined, not applied");
        assert_eq!(summary.report.quarantined, 1);
        assert_eq!(summary.report.verified, None);
        assert_eq!(svc.gauges().completed as usize, feed.n_completed());

        let logged = wal_replay(&dir.join("wal"), 64, 0, &feed.entities).unwrap();
        assert!(logged.fault.is_none());
        assert_eq!(logged.events.len() as u64, svc.events_applied(), "only accepted events logged");
        assert!(logged.events.iter().all(|e| e.at(&feed.entities).is_civil()));

        let live = svc.handle().snapshot();
        drop(svc);
        let (restored, report) = LiveService::restore_durable(
            CheckpointStore::new(dir.join("ckpt"), 64),
            500,
            Arc::clone(&feed.entities),
            dir.join("wal"),
            WalOptions::default(),
        )
        .expect("a restart recovers");
        assert_eq!(report.wal_events_replayed, live.events_applied);
        assert_eq!(restored.handle().snapshot().view.fused, live.view.fused);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_wal_refuses_recovery_with_a_typed_fault() {
        let dir = temp_dir("wal-flip");
        let feed = EventFeed::from_config(&SimConfig::tiny(63));
        let store = CheckpointStore::new(dir.join("ckpt"), 63);
        let mut svc = LiveService::new(Arc::clone(&feed.entities))
            .with_wal(dir.join("wal"), 63, crowd_ingest::WalOptions::default())
            .unwrap();
        let log = crowd_ingest::load_events_str(&feed.to_csv(), &feed.entities).unwrap();
        for chunk in log.events.chunks(100) {
            svc.apply_events(chunk).unwrap();
        }
        drop(svc);
        // Flip one mid-log byte: all bytes present, checksum broken.
        let files = crowd_ingest::wal_segment_files(&dir.join("wal"), 63).unwrap();
        let (_, first) = &files[0];
        let mut bytes = std::fs::read(first).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        std::fs::write(first, &bytes).unwrap();

        match LiveService::restore_durable(
            store,
            500,
            Arc::clone(&feed.entities),
            dir.join("wal"),
            crowd_ingest::WalOptions::default(),
        ) {
            Err(ServeError::WalCorrupt(_)) => {}
            Err(other) => panic!("expected WalCorrupt, got {other}"),
            Ok(_) => panic!("bit-flipped WAL must refuse recovery"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoint_cadence_restores_to_the_same_state() {
        let dir = std::env::temp_dir().join(format!("crowd-serve-svc-{}", std::process::id()));
        let feed = EventFeed::from_config(&SimConfig::tiny(53));
        let store = CheckpointStore::new(&dir, 53);
        let mut svc =
            LiveService::new(Arc::clone(&feed.entities)).with_checkpoints(store.clone(), 500);
        let log = crowd_ingest::load_events_str(&feed.to_csv(), &feed.entities).unwrap();
        for chunk in log.events.chunks(250) {
            svc.apply_events(chunk).unwrap();
        }
        assert!(!store.list().is_empty(), "cadence must have produced checkpoints");

        let (restored, faults) = LiveService::restore(store, 500).unwrap();
        assert!(faults.is_empty());
        // The newest checkpoint may trail the live service by < cadence
        // events; replay the tail to catch up.
        let tail = &log.events[restored.events_applied() as usize..];
        let mut restored = restored;
        restored.apply_events(tail).unwrap();
        assert_eq!(restored.gauges(), svc.gauges());
        assert_eq!(restored.handle().snapshot().view.fused, svc.handle().snapshot().view.fused);
        std::fs::remove_dir_all(&dir).ok();
    }
}
