//! Concurrency stress for the live service: one writer applying event
//! deltas while query threads continuously read published snapshots.
//!
//! What must hold (and is asserted here):
//!
//! - every query observes exactly one fully published version — the
//!   snapshot's gauges, row count, and fused aggregates are mutually
//!   consistent (no torn reads);
//! - versions are monotone per reader;
//! - readers *block* for the next version (`wait_for_version`, condvar)
//!   instead of spinning on the snapshot `Arc`, and every wake returns a
//!   version at least as new as the one waited for;
//! - after the stream drains, the live view equals the cold batch engine
//!   over the same rows at 1 and 4 worker threads.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crowd_ingest::load_events_str;
use crowd_serve::query::dashboard;
use crowd_serve::{EventFeed, LiveService};
use crowd_sim::SimConfig;
use crowd_testkit::compare_fused;
use crowd_testkit::differential::{fused_with_threads, FloatMode};

fn assert_final_matches_batch_at_threads(svc: &LiveService, feed: &EventFeed) {
    let mut full = (*feed.entities).clone();
    full.instances = svc.rows().clone_range(0..svc.rows().len());
    let final_fused = &svc.handle().snapshot().view.fused;
    for threads in [1usize, 4] {
        let engine = fused_with_threads(&full, threads);
        let diffs = compare_fused(final_fused, &engine, FloatMode::Bitwise);
        assert!(
            diffs.is_empty(),
            "drained live view diverged from the {threads}-thread batch engine:\n{}",
            diffs.join("\n")
        );
    }
}

#[test]
fn readers_never_observe_torn_state_while_the_writer_applies() {
    let feed = EventFeed::from_config(&SimConfig::tiny(71));
    let log = load_events_str(&feed.to_csv(), &feed.entities).expect("clean feed");
    let mut svc = LiveService::new(Arc::clone(&feed.entities));

    let stop = Arc::new(AtomicBool::new(false));
    let queries = Arc::new(AtomicU64::new(0));
    let readers: Vec<_> = (0..4)
        .map(|reader_id| {
            let handle = svc.handle();
            let stop = Arc::clone(&stop);
            let queries = Arc::clone(&queries);
            let entities = Arc::clone(&feed.entities);
            std::thread::spawn(move || {
                let mut last_version = 0u64;
                let mut last_events = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    // Block for the next unseen version instead of
                    // spinning; a timeout just re-checks the stop flag.
                    let Some(snap) =
                        handle.wait_for_version(last_version + 1, Duration::from_millis(20))
                    else {
                        continue;
                    };
                    // Monotone versions per reader — and the wake must
                    // deliver at least the version waited for.
                    assert!(
                        snap.version > last_version,
                        "reader {reader_id}: woke with a stale version \
                         (waited for {}, got {})",
                        last_version + 1,
                        snap.version
                    );
                    assert!(
                        snap.events_applied >= last_events,
                        "reader {reader_id}: events_applied went backwards"
                    );
                    last_version = snap.version;
                    last_events = snap.events_applied;
                    // Internal consistency: one published state, never a
                    // torn mix of writer progress and older aggregates.
                    assert_eq!(
                        snap.gauges.completed, snap.view.rows as u64,
                        "reader {reader_id}: gauges disagree with the view"
                    );
                    assert_eq!(
                        snap.view.fused.n_instances(),
                        snap.view.rows as u64,
                        "reader {reader_id}: fused row count disagrees with the view"
                    );
                    // Exercise the full query path against the snapshot.
                    if queries.fetch_add(1, Ordering::Relaxed).is_multiple_of(16) {
                        let dash = dashboard(&snap.view.fused, &entities);
                        assert_eq!(dash.n_instances, snap.view.rows as u64);
                    }
                }
                last_version
            })
        })
        .collect();

    // The single writer applies the canonical stream in uneven deltas,
    // with empty heartbeat batches interleaved.
    let mut applied = 0usize;
    for (i, chunk) in log.events.chunks(1500).enumerate() {
        svc.apply_events(chunk).expect("apply");
        applied += chunk.len();
        if i % 3 == 0 {
            svc.apply_events(&[]).expect("heartbeat");
        }
    }
    assert_eq!(applied, log.events.len());
    stop.store(true, Ordering::Relaxed);

    let final_version = svc.version();
    for r in readers {
        let seen = r.join().expect("reader panicked");
        assert!(seen <= final_version, "reader saw a version the writer never published");
    }
    assert!(queries.load(Ordering::Relaxed) > 0, "readers must actually have queried");

    assert_final_matches_batch_at_threads(&svc, &feed);
}

#[test]
fn single_reader_with_tiny_deltas_stays_consistent() {
    // Many tiny deltas maximize version churn relative to reads.
    let feed = EventFeed::from_config(&SimConfig::tiny(72));
    let log = load_events_str(&feed.to_csv(), &feed.entities).expect("clean feed");
    let mut svc = LiveService::new(Arc::clone(&feed.entities));

    let stop = Arc::new(AtomicBool::new(false));
    let reader = {
        let handle = svc.handle();
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut versions = Vec::new();
            while !stop.load(Ordering::Relaxed) {
                let next = versions.last().copied().unwrap_or(0) + 1;
                let Some(snap) = handle.wait_for_version(next, Duration::from_millis(20)) else {
                    continue;
                };
                assert_eq!(snap.gauges.completed, snap.view.rows as u64);
                versions.push(snap.version);
            }
            versions
        })
    };

    for chunk in log.events.chunks(97) {
        svc.apply_events(chunk).expect("apply");
    }
    stop.store(true, Ordering::Relaxed);
    let versions = reader.join().expect("reader panicked");
    assert!(versions.windows(2).all(|w| w[0] <= w[1]), "versions must be monotone");

    assert_final_matches_batch_at_threads(&svc, &feed);
}
