//! Directory-backed snapshot storage, keyed by config fingerprint.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crowd_ingest::{is_transient, Backoff, Clock, SystemClock};
use crowd_sim::SimConfig;

use crate::{
    encode_sharded, fingerprint, ShardedSnapshotReader, Snapshot, SnapshotError, SnapshotWriter,
};

/// Environment variable naming the default snapshot directory (the CLI's
/// `--snapshot-dir` flag overrides it, `--no-snapshot` ignores it).
pub const ENV_DIR: &str = "CROWD_SNAPSHOT_DIR";

/// A directory of snapshot files, one per config fingerprint.
///
/// Files are named `snap-<fingerprint:016x>.bin`, so distinct configs
/// never collide and re-running a config overwrites its own entry. Writes
/// go to a temporary sibling first and land via rename, so a crashed or
/// concurrent writer can leave at worst a stale temp file, never a torn
/// snapshot under the final name. Each save sweeps those stale temps
/// first, transient IO errors are retried under a bounded backoff, and
/// saves that callers swallow (warm start treats a read-only cache as
/// cold-every-time) are counted for observability.
///
/// Clones share the swallowed-save counter, so the count survives the
/// clone-per-call patterns the warm-start paths use.
#[derive(Clone)]
pub struct SnapshotStore {
    dir: PathBuf,
    swallowed: Arc<AtomicU64>,
    shards: usize,
}

impl std::fmt::Debug for SnapshotStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SnapshotStore")
            .field("dir", &self.dir)
            .field("shards", &self.shards)
            .field("swallowed", &self.swallowed_saves())
            .finish_non_exhaustive()
    }
}

impl SnapshotStore {
    /// A store rooted at `dir` (created lazily on first save).
    pub fn new(dir: impl Into<PathBuf>) -> SnapshotStore {
        SnapshotStore { dir: dir.into(), swallowed: Arc::new(AtomicU64::new(0)), shards: 1 }
    }

    /// A store rooted at `$CROWD_SNAPSHOT_DIR`, when set and non-empty.
    pub fn from_env() -> Option<SnapshotStore> {
        std::env::var(ENV_DIR).ok().filter(|v| !v.is_empty()).map(SnapshotStore::new)
    }

    /// Sets how many instance shards [`save`](Self::save) and
    /// [`open_writer`](Self::open_writer) partition a snapshot into (the
    /// `--shards` knob). A pure file-*layout* choice: the fingerprint, the
    /// decoded contents, the build path, and every scan result are
    /// bit-identical at any shard count — only the granularity of partial
    /// reads, corruption isolation, and how many rows one streamed section
    /// holds change. Readers stream whatever layout is on disk.
    pub fn with_shards(mut self, shards: usize) -> SnapshotStore {
        self.shards = shards.max(1);
        self
    }

    /// The store's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The file a config maps to.
    pub fn path_for(&self, cfg: &SimConfig) -> PathBuf {
        self.dir.join(format!("snap-{:016x}.bin", fingerprint(cfg)))
    }

    /// Loads and fully verifies the snapshot for `cfg`.
    ///
    /// Every failure — missing file, bad magic, version skew, fingerprint
    /// mismatch, truncation, checksum or shape corruption — comes back as
    /// an error the caller treats as a cache miss. Loading streams shard
    /// sections through one reusable buffer instead of reading the whole
    /// file first, so peak memory is the dataset plus a single shard.
    pub fn load(&self, cfg: &SimConfig) -> Result<Snapshot, SnapshotError> {
        self.open_reader(cfg)?.into_snapshot()
    }

    /// Opens a shard-granular reader over the snapshot for `cfg` — the
    /// bounded-memory path: header and meta verify up front, instance
    /// sections load (and verify) only when asked for.
    pub fn open_reader(&self, cfg: &SimConfig) -> Result<ShardedSnapshotReader, SnapshotError> {
        ShardedSnapshotReader::open(self.path_for(cfg), fingerprint(cfg))
    }

    /// Opens an incremental [`SnapshotWriter`] for `cfg` — the streaming
    /// dual of [`save`](Self::save): shard sections land on disk as the
    /// producer flushes them, the meta payload and directory are written
    /// last, and the file publishes atomically on
    /// [`finish`](SnapshotWriter::finish).
    ///
    /// `planned_rows` sizes the shard layout up front (the store's shard
    /// count divides it into chunk-aligned pieces); an estimate is fine —
    /// the directory records actual flush counts.
    pub fn open_writer(
        &self,
        cfg: &SimConfig,
        planned_rows: usize,
    ) -> Result<SnapshotWriter, SnapshotError> {
        std::fs::create_dir_all(&self.dir)?;
        self.sweep_stale();
        let shard_rows = crowd_core::ShardPlan::new(planned_rows, self.shards).shard_rows();
        SnapshotWriter::create(self.path_for(cfg), fingerprint(cfg), shard_rows)
    }

    /// Removes stale temp files (`snap-*.tmp.<pid>`) left behind by
    /// crashed writers, skipping this process's own. Returns how many were
    /// removed. Best-effort: an unreadable directory sweeps nothing.
    pub fn sweep_stale(&self) -> usize {
        let own_suffix = format!(".tmp.{}", std::process::id());
        let Ok(entries) = std::fs::read_dir(&self.dir) else { return 0 };
        let mut swept = 0;
        for entry in entries.flatten() {
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if name.starts_with("snap-")
                && name.contains(".tmp.")
                && !name.ends_with(&own_suffix)
                && std::fs::remove_file(entry.path()).is_ok()
            {
                swept += 1;
            }
        }
        swept
    }

    /// Writes the snapshot for `cfg`, returning the final path.
    ///
    /// Stale temp files are swept first; transient IO errors
    /// (`Interrupted`, `WouldBlock`) are retried under the default
    /// [`Backoff`]; anything else is surfaced after cleaning up the temp.
    pub fn save(&self, cfg: &SimConfig, snapshot: &Snapshot) -> Result<PathBuf, SnapshotError> {
        std::fs::create_dir_all(&self.dir)?;
        self.sweep_stale();
        let path = self.path_for(cfg);
        let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
        let bytes = encode_sharded(snapshot, fingerprint(cfg), self.shards);
        let backoff = Backoff::default();
        let mut retries = 0u32;
        loop {
            match std::fs::write(&tmp, &bytes).and_then(|()| std::fs::rename(&tmp, &path)) {
                Ok(()) => return Ok(path),
                Err(e) if is_transient(&e) && retries < backoff.max_retries => {
                    SystemClock.sleep(backoff.delay(retries));
                    retries += 1;
                }
                Err(e) => {
                    let _ = std::fs::remove_file(&tmp);
                    return Err(e.into());
                }
            }
        }
    }

    /// Records a save failure the caller swallowed (fell back to running
    /// cold). The warm-start paths call this so degraded caches are
    /// observable instead of silent.
    pub fn note_swallowed_save(&self) {
        self.swallowed.fetch_add(1, Ordering::Relaxed);
    }

    /// How many save failures were swallowed over this store's lifetime
    /// (shared across clones).
    pub fn swallowed_saves(&self) -> u64 {
        self.swallowed.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_store(tag: &str) -> SnapshotStore {
        let dir =
            std::env::temp_dir().join(format!("crowd-snapshot-store-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        SnapshotStore::new(dir)
    }

    #[test]
    fn save_then_load_hits() {
        let store = temp_store("hit");
        let cfg = SimConfig::tiny(11);
        assert!(matches!(store.load(&cfg), Err(SnapshotError::Io(_))), "cold miss");
        let snap = Snapshot { dataset: crowd_sim::simulate(&cfg), derived: None };
        let path = store.save(&cfg, &snap).expect("save");
        assert!(path.exists());
        let back = store.load(&cfg).expect("warm hit");
        assert_eq!(back.dataset.instances, snap.dataset.instances);
        // A different config is a different key: still a miss.
        assert!(store.load(&SimConfig::tiny(12)).is_err());
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn distinct_configs_map_to_distinct_files() {
        let store = SnapshotStore::new("snapshots");
        let a = store.path_for(&SimConfig::tiny(1));
        let b = store.path_for(&SimConfig::tiny(2));
        let c = store.path_for(&SimConfig::new(1, 0.002));
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, store.path_for(&SimConfig::tiny(1)));
    }

    #[test]
    fn save_sweeps_stale_temps_but_not_live_snapshots() {
        let store = temp_store("sweep");
        std::fs::create_dir_all(store.dir()).unwrap();
        let stale = store.dir().join("snap-00000000deadbeef.tmp.99999999");
        let own = store.dir().join(format!("snap-cafe.tmp.{}", std::process::id()));
        std::fs::write(&stale, b"torn").unwrap();
        std::fs::write(&own, b"in flight").unwrap();

        let cfg = SimConfig::tiny(13);
        let snap = Snapshot { dataset: crowd_sim::simulate(&cfg), derived: None };
        store.save(&cfg, &snap).expect("save");

        assert!(!stale.exists(), "stale foreign temp removed");
        assert!(own.exists(), "this process's temp is never swept");
        assert!(store.path_for(&cfg).exists(), "real snapshot landed");
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn sweep_is_a_noop_on_a_missing_directory() {
        let store = temp_store("sweep-missing");
        assert_eq!(store.sweep_stale(), 0);
    }

    #[test]
    fn swallowed_saves_are_counted_across_clones() {
        let store = temp_store("counter");
        assert_eq!(store.swallowed_saves(), 0);
        let clone = store.clone();
        clone.note_swallowed_save();
        store.note_swallowed_save();
        assert_eq!(store.swallowed_saves(), 2, "clones share the counter");
        assert_eq!(clone.swallowed_saves(), 2);
    }

    #[test]
    fn unwritable_destination_is_an_error_not_a_hang() {
        // Root the store *under a file*, so create_dir_all must fail —
        // works regardless of process privileges (unlike chmod).
        let blocker =
            std::env::temp_dir().join(format!("crowd-snapshot-blocker-{}", std::process::id()));
        std::fs::write(&blocker, b"not a directory").unwrap();
        let store = SnapshotStore::new(blocker.join("store"));
        let cfg = SimConfig::tiny(14);
        let snap = Snapshot { dataset: crowd_sim::simulate(&cfg), derived: None };
        assert!(matches!(store.save(&cfg, &snap), Err(SnapshotError::Io(_))));
        let _ = std::fs::remove_file(&blocker);
    }
}
