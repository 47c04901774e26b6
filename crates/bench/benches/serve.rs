//! Live-service benchmark: sustained event-apply throughput through the
//! full `crowd-serve` path (wire parse already done; deltas converted,
//! gauges bumped, snapshot published per batch), dashboard query latency
//! against published snapshots, checkpoint write + restore cost, and the
//! hardware-independent `delta_apply_speedup_vs_batch_rebuild` ratio the
//! CI gate re-measures. Numbers land in `BENCH_serve.json` by hand — the
//! run prints a ready-to-paste skeleton.

use std::sync::Arc;
use std::time::Instant;

use crowd_bench::bench_sim_config;
use crowd_bench::shapes::{measure, view_rebuild_ratio};
use crowd_ingest::{load_events_str, WalOptions};
use crowd_serve::query::dashboard;
use crowd_serve::{CheckpointStore, EventFeed, LiveService};

/// Events per applied delta — one fused chunk of completed rows.
const DELTA_EVENTS: usize = 8192;
/// Dashboard queries sampled for the latency percentiles.
const QUERIES: usize = 512;

fn percentile(sorted_us: &[f64], p: usize) -> f64 {
    sorted_us[(sorted_us.len() * p / 100).min(sorted_us.len() - 1)]
}

fn main() {
    let feed = EventFeed::from_config(&bench_sim_config());
    let wire = feed.to_csv();
    let log = load_events_str(&wire, &feed.entities).expect("clean bench feed");
    let n_events = log.events.len();
    let rows = log.completed_rows();
    println!(
        "serve bench workload: {} events, {} completed rows, deltas of {} events",
        n_events,
        rows.len(),
        DELTA_EVENTS
    );

    // ---- sustained apply throughput -----------------------------------
    let (apply_s, applied_rows) = measure(5, || {
        let mut svc = LiveService::new(Arc::clone(&feed.entities));
        for chunk in log.events.chunks(DELTA_EVENTS) {
            svc.apply_events(chunk).expect("apply");
        }
        svc.rows().len() as u64
    });
    assert_eq!(applied_rows as usize, rows.len());
    let events_per_s = n_events as f64 / apply_s;
    println!(
        "apply_stream: median {:.1} ms ({:.0} events/s, {} versions)",
        apply_s * 1e3,
        events_per_s,
        n_events.div_ceil(DELTA_EVENTS)
    );

    // ---- the same stream with the write-ahead log in front ------------
    // fsync every 8 appends: the batched-durability configuration the
    // serve binary documents for throughput; every batch is still written
    // (and page-cached) before it is applied, so a SIGKILL loses nothing.
    let wal_dir =
        std::env::temp_dir().join(format!("crowd-bench-serve-wal-{}", std::process::id()));
    let wal_opts = WalOptions { fsync_every: 8, ..WalOptions::default() };
    let (wal_s, wal_rows) = measure(5, || {
        let _ = std::fs::remove_dir_all(&wal_dir);
        let mut svc = LiveService::new(Arc::clone(&feed.entities))
            .with_wal(&wal_dir, 2017, wal_opts)
            .expect("wal open");
        for chunk in log.events.chunks(DELTA_EVENTS) {
            svc.apply_events(chunk).expect("apply");
        }
        svc.wal_sync().expect("wal sync");
        svc.rows().len() as u64
    });
    assert_eq!(wal_rows as usize, rows.len());
    let wal_events_per_s = n_events as f64 / wal_s;
    let wal_overhead = wal_events_per_s / events_per_s;
    println!(
        "wal_append: median {:.1} ms ({:.0} events/s, fsync every 8 appends) — {:.2}x of no-WAL throughput",
        wal_s * 1e3,
        wal_events_per_s,
        wal_overhead
    );

    // ---- crash recovery: newest checkpoint + WAL tail -----------------
    // Prime a durable run whose last cadence checkpoint leaves a real WAL
    // tail behind, then measure restore_durable (checkpoint load + tail
    // replay + fused rebuild). Cadence u64::MAX during the measured
    // restores keeps every iteration recovering the identical state.
    let rec_dir =
        std::env::temp_dir().join(format!("crowd-bench-serve-rec-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&rec_dir);
    let _ = std::fs::remove_dir_all(&wal_dir);
    {
        let store = CheckpointStore::new(&rec_dir, 2017);
        let mut svc = LiveService::new(Arc::clone(&feed.entities))
            .with_checkpoints(store, 16_384)
            .with_wal(&wal_dir, 2017, wal_opts)
            .expect("wal open");
        for chunk in log.events.chunks(DELTA_EVENTS) {
            svc.apply_events(chunk).expect("apply");
        }
        svc.wal_sync().expect("wal sync");
    }
    let (recovery_s, recovered_at) = measure(5, || {
        let store = CheckpointStore::new(&rec_dir, 2017);
        let (svc, report) = LiveService::restore_durable(
            store,
            u64::MAX,
            Arc::clone(&feed.entities),
            &wal_dir,
            wal_opts,
        )
        .expect("restore");
        assert!(report.wal_events_replayed > 0, "recovery must exercise WAL replay");
        svc.events_applied()
    });
    assert_eq!(recovered_at as usize, n_events);
    println!(
        "recovery: median {:.1} ms to checkpoint-restore + WAL-replay back to {} events",
        recovery_s * 1e3,
        recovered_at
    );
    let _ = std::fs::remove_dir_all(&rec_dir);
    let _ = std::fs::remove_dir_all(&wal_dir);

    // ---- dashboard latency against published snapshots ----------------
    let ckpt_dir = std::env::temp_dir().join(format!("crowd-bench-serve-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&ckpt_dir);
    let store = CheckpointStore::new(&ckpt_dir, 2017);
    let mut svc =
        LiveService::new(Arc::clone(&feed.entities)).with_checkpoints(store.clone(), u64::MAX);
    for chunk in log.events.chunks(DELTA_EVENTS) {
        svc.apply_events(chunk).expect("apply");
    }
    let handle = svc.handle();
    let mut lat_us: Vec<f64> = (0..QUERIES)
        .map(|_| {
            let t = Instant::now();
            let snap = handle.snapshot();
            let dash = dashboard(&snap.view.fused, svc.entities());
            std::hint::black_box(dash.n_instances);
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    lat_us.sort_by(f64::total_cmp);
    let (p50, p99) = (percentile(&lat_us, 50), percentile(&lat_us, 99));
    println!("dashboard_query: p50 {p50:.0} us, p99 {p99:.0} us over {QUERIES} queries");

    // ---- checkpoint write + restore -----------------------------------
    let (ckpt_s, _) = measure(5, || {
        svc.checkpoint_now().expect("checkpoint");
        svc.events_applied()
    });
    let (restore_s, restored_at) = measure(5, || {
        let (restored, report) =
            LiveService::restore(store.clone(), u64::MAX, Arc::clone(&feed.entities));
        assert!(report.checkpoint_faults.is_empty());
        restored.events_applied()
    });
    assert_eq!(restored_at, svc.events_applied());
    println!(
        "checkpoint: write median {:.1} ms, restore median {:.1} ms ({} events of state)",
        ckpt_s * 1e3,
        restore_s * 1e3,
        restored_at
    );
    let _ = std::fs::remove_dir_all(&ckpt_dir);

    // ---- the gated ratio ----------------------------------------------
    let ratio = view_rebuild_ratio(&feed.entities, &rows, DELTA_EVENTS);
    println!("delta_apply_speedup_vs_batch_rebuild: {ratio:.2}");

    println!("\npaste into BENCH_serve.json:");
    println!(
        "  \"results\": {{\n    \"apply_stream\": {{ \"median_ms\": {:.1}, \"events_per_s\": {:.0} }},\n    \"wal_append\": {{ \"median_ms\": {:.1}, \"events_per_s\": {:.0} }},\n    \"recovery_ms\": {:.1},\n    \"dashboard_query\": {{ \"p50_us\": {:.1}, \"p99_us\": {:.1} }},\n    \"checkpoint_write\": {{ \"median_ms\": {:.1} }},\n    \"checkpoint_restore\": {{ \"median_ms\": {:.1} }}\n  }},\n  \"delta_apply_speedup_vs_batch_rebuild\": {:.2},\n  \"wal_append_overhead\": {:.2}",
        apply_s * 1e3,
        events_per_s,
        wal_s * 1e3,
        wal_events_per_s,
        recovery_s * 1e3,
        p50,
        p99,
        ckpt_s * 1e3,
        restore_s * 1e3,
        ratio,
        wal_overhead
    );
}
