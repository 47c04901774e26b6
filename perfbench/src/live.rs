//! `live_feed`: the live path, an open-loop replay of a seeded scale-0.006
//! event feed through ingest decode, WAL, delta apply and publish, with
//! one closed-loop dashboard reader, then crash recovery.
//!
//! Set-up simulates the feed, decodes it once into canonical order and
//! re-encodes it with `event_log_to_csv` into 4096-event wire batches, so
//! each batch decodes to exactly its slice. The measured child replays the
//! batches on a fixed schedule: batch *k* is due `k × 4096 / RATE` seconds
//! after the first, and each batch is timed from its due time. After the
//! last batch the service is dropped without a final checkpoint and
//! `LiveService::restore_durable` is timed.

use std::fs;
use std::io::{BufWriter, Read as _, Write as _};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crowd_analytics::{FusedView, Study};
use crowd_core::dataset::{Dataset, InstanceColumns};
use crowd_ingest::events::{event_log_to_csv, load_events_str};
use crowd_ingest::WalOptions;
use crowd_serve::query::dashboard;
use crowd_serve::{entities_only, CheckpointStore, EventFeed, LiveService};
use crowd_sim::SimConfig;
use crowd_snapshot::Snapshot;
use crowd_testkit::differential::{compare_fused, FloatMode};

use crate::trace::{self, span};
use crate::{median, quantile, ChildOut};

/// Fraction of the paper's marketplace volume simulated (~330k events).
pub const SCALE: f64 = 0.006;
/// Events per wire batch.
pub const BATCH_EVENTS: usize = 4096;
/// Offered load of the open loop, in events per second.
pub const RATE: f64 = 30_000.0;
/// WAL appends per fsync.
pub const FSYNC_EVERY: u64 = 8;
/// Checkpoint cadence, in events (every 32 batches).
pub const CHECKPOINT_EVERY: u64 = 32 * BATCH_EVENTS as u64;
/// Timed `restore_durable` calls per pass; the fastest is reported. On a
/// shared 2-core host a restore took either about 210 or about 300 ms,
/// back to back in one process, so the median flipped between the two.
pub const RESTORES: usize = 10;
/// The reader's think time between two dashboard queries, so its samples
/// spread evenly over the pass instead of crowding where the state is small.
pub const THINK: Duration = Duration::from_millis(2);

/// Fingerprint the entity file is encoded under.
const ENTITIES_FP: u64 = 0x6c69_7665;

/// Simulates the feed and writes the entity tables and wire batches.
pub fn setup(seed: u64, work: &Path) -> Result<(), String> {
    let feed = EventFeed::from_config(&SimConfig::new(seed, SCALE));
    let log =
        load_events_str(&feed.to_csv(), &feed.entities).map_err(|e| format!("feed decode: {e}"))?;
    let file = fs::File::create(work.join("batches.bin")).map_err(|e| e.to_string())?;
    let mut out = BufWriter::new(file);
    for chunk in log.events.chunks(BATCH_EVENTS) {
        let text = event_log_to_csv(chunk);
        out.write_all(&(text.len() as u64).to_le_bytes()).map_err(|e| e.to_string())?;
        out.write_all(text.as_bytes()).map_err(|e| e.to_string())?;
    }
    out.flush().map_err(|e| e.to_string())?;
    let entities = Snapshot { dataset: entities_only(&feed.entities), derived: None };
    fs::write(work.join("entities.bin"), crowd_snapshot::encode(&entities, ENTITIES_FP))
        .map_err(|e| e.to_string())
}

fn read_inputs(work: &Path) -> Result<(Arc<Dataset>, Vec<String>), String> {
    let bytes = fs::read(work.join("entities.bin")).map_err(|e| e.to_string())?;
    let entities = crowd_snapshot::decode(&bytes, ENTITIES_FP).map_err(|e| e.to_string())?.dataset;
    let mut file = fs::File::open(work.join("batches.bin")).map_err(|e| e.to_string())?;
    let mut raw = Vec::new();
    file.read_to_end(&mut raw).map_err(|e| e.to_string())?;
    let mut batches = Vec::new();
    let mut rest = &raw[..];
    while rest.len() >= 8 {
        let (len, tail) = rest.split_at(8);
        let len = u64::from_le_bytes(len.try_into().expect("8-byte prefix")) as usize;
        let text = tail.get(..len).ok_or("truncated batch file")?;
        batches.push(String::from_utf8(text.to_vec()).map_err(|e| e.to_string())?);
        rest = &tail[len..];
    }
    Ok((Arc::new(entities), batches))
}

/// Sleeps until `due`; the last stretch spins so the writer starts on time.
fn wait_until(due: Instant) {
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > Duration::from_micros(500) {
            std::thread::sleep(left - Duration::from_micros(300));
        } else {
            std::hint::spin_loop();
        }
    }
}

/// Per-batch timings of one pass, in milliseconds.
#[derive(Default)]
struct Pass {
    fresh_ms: Vec<f64>,
    service_ms: Vec<f64>,
    apply_ms: Vec<f64>,
    lateness_ms: Vec<f64>,
    full: Vec<bool>,
    /// Completed events per batch (the rows of its delta).
    completed: Vec<usize>,
}

/// One measured replay of the feed plus recovery and output checks.
pub fn child(seed: u64, work: &Path, out: &mut ChildOut) -> Result<(), String> {
    let (entities, batches) = read_inputs(work)?;
    let dir = work.join("live");
    let _ = fs::remove_dir_all(&dir);
    let store = CheckpointStore::new(dir.join("ckpt"), seed);
    let wal_opts = WalOptions { fsync_every: FSYNC_EVERY, ..WalOptions::default() };
    let mut svc = LiveService::new(Arc::clone(&entities))
        .with_checkpoints(store.clone(), CHECKPOINT_EVERY)
        .with_wal(dir.join("wal"), seed, wal_opts)
        .map_err(|e| format!("open WAL: {e}"))?;

    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut pass = Pass::default();
    let (mut events, mut quarantined) = (0u64, 0u64);
    let handle = svc.handle();
    let stop = AtomicBool::new(false);
    let interval = Duration::from_secs_f64(BATCH_EVENTS as f64 / RATE);

    let (dashboards, torn, pass_s) = std::thread::scope(|scope| {
        // Closed-loop reader: a dashboard against the latest published
        // snapshot, then a short think time, then the next.
        let reader = scope.spawn(|| {
            let (mut lat_us, mut torn) = (Vec::new(), 0u64);
            while !stop.load(Ordering::Acquire) {
                let t = Instant::now();
                let snap = handle.snapshot();
                let dash = dashboard(&snap.view.fused, &entities);
                lat_us.push(t.elapsed().as_secs_f64() * 1e6);
                torn += u64::from(dash.n_instances != snap.view.rows as u64);
                std::thread::sleep(THINK);
            }
            (lat_us, torn)
        });

        let t0 = Instant::now();
        let mut last_visible = t0;
        span("live", || {
            for (k, text) in batches.iter().enumerate() {
                let due = t0 + interval * k as u32;
                span("serve.wait", || wait_until(due));
                let start = Instant::now();
                attempted += 1;
                let log = match span("ingest.decode", || load_events_str(text, &entities)) {
                    Ok(log) => log,
                    Err(e) => {
                        eprintln!("perfbench: batch {k} failed to decode: {e}");
                        failed += 1;
                        continue;
                    }
                };
                events += log.events.len() as u64;
                quarantined += log.report.quarantined;
                let applied = Instant::now();
                if let Err(e) = span("serve.apply", || svc.apply_events(&log.events)) {
                    eprintln!("perfbench: batch {k} failed to apply: {e}");
                    failed += 1;
                }
                let visible = Instant::now();
                pass.fresh_ms.push((visible - due).as_secs_f64() * 1e3);
                pass.service_ms.push((visible - start).as_secs_f64() * 1e3);
                pass.apply_ms.push((visible - applied).as_secs_f64() * 1e3);
                pass.lateness_ms.push(start.saturating_duration_since(due).as_secs_f64() * 1e3);
                pass.full.push(log.events.len() == BATCH_EVENTS);
                pass.completed.push(log.n_completed());
                last_visible = visible;
            }
        });
        stop.store(true, Ordering::Release);
        let (lat_us, torn) = reader.join().expect("dashboard reader panicked");
        (lat_us, torn, (last_visible - t0).as_secs_f64())
    });
    attempted += dashboards.len() as u64 + 1;
    failed += torn + u64::from(quarantined > 0);

    let wal = svc.wal_stats().unwrap_or_default();
    let (versions, checkpoints) = (svc.version(), store.list().len());
    let live_final = svc.handle().snapshot();
    drop(svc); // Crash: no final checkpoint, the WAL holds the tail.

    // Recovery: newest checkpoint plus WAL-tail replay, timed RESTORES times.
    let mut recovery_ms = Vec::new();
    for i in 0..RESTORES {
        attempted += 1;
        let t = Instant::now();
        let restored = LiveService::restore_durable(
            store.clone(),
            CHECKPOINT_EVERY,
            Arc::clone(&entities),
            dir.join("wal"),
            wal_opts,
        );
        recovery_ms.push(t.elapsed().as_secs_f64() * 1e3);
        match restored {
            Ok((svc, report)) => {
                let same = svc.events_applied() == events
                    && svc.handle().snapshot().view.fused == live_final.view.fused;
                if !same {
                    eprintln!("perfbench: recovered state differs from the live state");
                    failed += 1;
                }
                if i == 0 {
                    trace::count("recovery.checkpoint_events", report.checkpoint_events);
                    trace::count("recovery.wal_events_replayed", report.wal_events_replayed);
                    trace::count("recovery.wal_records", report.wal_records);
                }
            }
            Err(e) => {
                eprintln!("perfbench: restore_durable failed: {e}");
                failed += 1;
            }
        }
    }
    out.set("peak_rss_mb", crate::vmhwm_mb());

    // Output check: the final view against the batch study over the
    // feed's completed rows, decoded again from the wire batches.
    let mut rows = InstanceColumns::default();
    for text in &batches {
        let log = load_events_str(text, &entities).map_err(|e| format!("feed decode: {e}"))?;
        let delta = log.completed_rows();
        rows.extend_from(&delta, 0..delta.len());
    }
    let mut feed = entities_only(&entities);
    feed.instances = rows.clone_range(0..rows.len());
    let diffs =
        compare_fused(&live_final.view.fused, Study::new(feed).fused(), FloatMode::OrderTolerant);
    if !diffs.is_empty() {
        eprintln!("perfbench: live view differs from the batch study:\n{}", diffs.join("\n"));
        failed += 1;
    }
    if trace::enabled() {
        // The same deltas through a standalone view: apply cost per version
        // without decode, WAL, checkpoints or a reader.
        let mut view = FusedView::new(Arc::clone(&entities));
        let mut at = 0;
        let view_ms: Vec<f64> = pass
            .completed
            .iter()
            .map(|&n| {
                let delta = rows.clone_range(at..at + n);
                at += n;
                let t = Instant::now();
                view.apply(&delta);
                t.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        out.set("view.apply_ms", view_ms.iter().sum());
        out.set("view.apply_growth", growth(&view_ms));
    }

    // Capacity from the second half of the feed: a window of several
    // seconds, where the last tenth alone (about a second) swung by 40%
    // between runs with the host's speed.
    let second_half: Vec<f64> = {
        let full: Vec<f64> =
            pass.service_ms.iter().zip(&pass.full).filter(|(_, &f)| f).map(|(&s, _)| s).collect();
        full[full.len() / 2..].to_vec()
    };
    out.set("wall_s", pass_s);
    out.set("capacity_events_per_s", BATCH_EVENTS as f64 / (median(&second_half) / 1e3));
    out.set("recovery_ms", recovery_ms.iter().copied().fold(f64::INFINITY, f64::min));
    out.set("fresh_p50_ms", median(&pass.fresh_ms));
    out.set("fresh_p90_ms", quantile(&pass.fresh_ms, 0.9));
    out.set("dashboard_p50_us", median(&dashboards));
    out.set("dashboard_p99_us", quantile(&dashboards, 0.99));
    out.set("attempted", attempted as f64);
    out.set("failed", failed as f64);

    out.set("ingest.events", events as f64);
    out.set("ingest.quarantined", quarantined as f64);
    out.set("wal.appends", wal.appends as f64);
    out.set("wal.fsyncs", wal.fsyncs as f64);
    out.set("wal.rotations", wal.rotations as f64);
    out.set("wal.bytes", wal.bytes_written as f64);
    out.set("wal.segments_retired", wal.segments_retired as f64);
    out.set("serve.apply_p50_ms", median(&pass.apply_ms));
    out.set("serve.apply_growth", growth(&pass.apply_ms));
    out.set("serve.lateness_p90_ms", quantile(&pass.lateness_ms, 0.9));
    out.set("serve.versions", versions as f64);
    out.set("serve.checkpoints", checkpoints as f64);
    out.set("query.dashboards", dashboards.len() as f64);
    Ok(())
}

/// Median of the last tenth over median of the first tenth.
fn growth(ms: &[f64]) -> f64 {
    let tenth = (ms.len() / 10).max(1);
    median(&ms[ms.len() - tenth..]) / median(&ms[..tenth])
}
