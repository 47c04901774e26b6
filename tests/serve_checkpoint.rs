//! Checkpoint/restore equivalence: a service killed mid-stream and
//! restored from its latest checkpoint, after replaying the event tail,
//! must be indistinguishable from a service that never died — its
//! exported CSVs byte-identical and its published fused state
//! bit-identical. Torn checkpoint files must be stepped over with typed
//! faults, and a directory with nothing restorable must give a fresh
//! service that lists every file it stepped over — never a panic or a
//! silently partial state. A service logging to a WAL syncs it once per
//! `fsync_every` appends, not once per applied batch.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use crowd_core::csv::export_dir;
use crowd_ingest::{load_events_str, WalOptions};
use crowd_serve::{CheckpointStore, EventFeed, LiveService};
use crowd_sim::SimConfig;

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("crowd-serve-test-{name}-{}", std::process::id()))
}

fn export_service(svc: &LiveService, dir: &Path) {
    let mut ds = (**svc.entities()).clone();
    ds.instances = svc.rows().clone_range(0..svc.rows().len());
    export_dir(&ds, dir).expect("export");
}

fn assert_dirs_byte_identical(a: &Path, b: &Path) {
    let mut names: Vec<String> = fs::read_dir(a)
        .expect("read export dir")
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    assert!(!names.is_empty(), "export directory must not be empty");
    for name in names {
        let bytes_a = fs::read(a.join(&name)).expect("read a");
        let bytes_b = fs::read(b.join(&name)).expect("read b");
        assert_eq!(bytes_a, bytes_b, "exported `{name}` differs between runs");
    }
}

#[test]
fn killed_and_restored_run_exports_byte_identical_csvs() {
    let feed = EventFeed::from_config(&SimConfig::tiny(81));
    let log = load_events_str(&feed.to_csv(), &feed.entities).expect("clean feed");
    const DELTA: usize = 500;
    const CADENCE: u64 = 1000;

    // Uninterrupted reference run.
    let mut uninterrupted = LiveService::new(Arc::clone(&feed.entities));
    for chunk in log.events.chunks(DELTA) {
        uninterrupted.apply_events(chunk).expect("apply");
    }

    // Interrupted run: checkpoints every CADENCE events, killed after 5
    // deltas (mid-stream, past at least two checkpoints).
    let ckpt_dir = tmp("kill");
    let store = CheckpointStore::new(&ckpt_dir, 81);
    {
        let mut victim =
            LiveService::new(Arc::clone(&feed.entities)).with_checkpoints(store.clone(), CADENCE);
        for chunk in log.events.chunks(DELTA).take(5) {
            victim.apply_events(chunk).expect("apply");
        }
        assert!(victim.events_applied() < log.events.len() as u64, "killed mid-stream");
        // Killed: the service is dropped without any shutdown protocol.
    }
    assert!(store.list().len() >= 2, "cadence must have written checkpoints");

    // Restore from the newest checkpoint and replay the tail.
    let (mut restored, report) = LiveService::restore(store, CADENCE, Arc::clone(&feed.entities));
    let faults = report.checkpoint_faults;
    assert!(faults.is_empty(), "no checkpoint was damaged: {faults:?}");
    let resumed_at = restored.events_applied() as usize;
    assert!(
        resumed_at > 0 && resumed_at.is_multiple_of(CADENCE as usize),
        "resumed at a checkpoint"
    );
    for chunk in log.events[resumed_at..].chunks(DELTA) {
        restored.apply_events(chunk).expect("replay tail");
    }

    // Same gauges, bit-identical fused state, byte-identical exports.
    assert_eq!(restored.gauges(), uninterrupted.gauges());
    assert_eq!(restored.events_applied(), uninterrupted.events_applied());
    assert_eq!(
        restored.handle().snapshot().view.fused,
        uninterrupted.handle().snapshot().view.fused,
        "restored view must be bit-identical to the uninterrupted one"
    );
    let dir_a = tmp("export-uninterrupted");
    let dir_b = tmp("export-restored");
    export_service(&uninterrupted, &dir_a);
    export_service(&restored, &dir_b);
    assert_dirs_byte_identical(&dir_a, &dir_b);

    for d in [ckpt_dir, dir_a, dir_b] {
        fs::remove_dir_all(d).ok();
    }
}

#[test]
fn torn_checkpoints_fall_back_with_typed_faults() {
    let feed = EventFeed::from_config(&SimConfig::tiny(82));
    let log = load_events_str(&feed.to_csv(), &feed.entities).expect("clean feed");
    let ckpt_dir = tmp("torn");
    let store = CheckpointStore::new(&ckpt_dir, 82);
    {
        let mut svc =
            LiveService::new(Arc::clone(&feed.entities)).with_checkpoints(store.clone(), 800);
        for chunk in log.events.chunks(400).take(6) {
            svc.apply_events(chunk).expect("apply");
        }
    }
    let files = store.list();
    assert!(files.len() >= 2, "need at least two checkpoints for fallback");

    // Damage matrix over the newest file: each corruption class must be
    // detected and stepped over, landing on the previous checkpoint.
    let newest = files.last().unwrap().clone();
    let pristine = fs::read(&newest).unwrap();
    let torn: [(&str, Vec<u8>); 4] = [
        ("truncated-header", pristine[..20].to_vec()),
        ("bad-magic", {
            let mut b = pristine.clone();
            b[0] ^= 0xff;
            b
        }),
        ("truncated-payload", pristine[..pristine.len() - 37].to_vec()),
        ("payload-bitflip", {
            let mut b = pristine.clone();
            let at = b.len() - 64;
            b[at] ^= 0x10;
            b
        }),
    ];
    for (case, bytes) in torn {
        fs::write(&newest, &bytes).unwrap();
        let (restored, report) =
            LiveService::restore(store.clone(), 800, Arc::clone(&feed.entities));
        let faults = report.checkpoint_faults;
        assert_eq!(faults.len(), 1, "{case}: exactly the damaged file is skipped");
        assert_eq!(faults[0].path, newest, "{case}");
        assert!(
            restored.events_applied() < 2400,
            "{case}: must have fallen back to an older checkpoint"
        );
    }
    fs::write(&newest, &pristine).unwrap();

    // Every file torn: a fresh service with one typed fault per
    // candidate, no panic.
    for f in &files {
        fs::write(f, b"not a checkpoint").unwrap();
    }
    let (restored, report) = LiveService::restore(store, 800, Arc::clone(&feed.entities));
    assert_eq!(restored.events_applied(), 0, "nothing restorable: a fresh start");
    assert_eq!(report.checkpoint_faults.len(), files.len());
    fs::remove_dir_all(&ckpt_dir).ok();
}

#[test]
fn wal_syncs_once_per_fsync_every_appends_through_the_service() {
    let feed = EventFeed::from_config(&SimConfig::tiny(83));
    let log = load_events_str(&feed.to_csv(), &feed.entities).expect("clean feed");
    let dir = tmp("fsync-every");
    let _ = fs::remove_dir_all(&dir);
    const EVERY: u64 = 4;
    // Segments larger than the whole stream: no rotation forces a sync.
    let opts = WalOptions { fsync_every: EVERY, segment_bytes: 1 << 40 };
    let mut svc =
        LiveService::new(Arc::clone(&feed.entities)).with_wal(&dir, 83, opts).expect("wal open");
    for chunk in log.events.chunks(500) {
        svc.apply_events(chunk).expect("apply");
    }
    let stats = svc.wal_stats().expect("wal attached");
    assert_eq!(stats.rotations, 1, "one segment, opened once");
    assert!(stats.appends > 2 * EVERY, "{} appends", stats.appends);
    assert_eq!(stats.fsyncs, stats.appends / EVERY, "one fsync per {EVERY} appends");
    fs::remove_dir_all(&dir).ok();
}
