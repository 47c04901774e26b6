//! `serve` — runs the live incremental analytics service against a
//! replayed marketplace event stream.
//!
//! ```text
//! serve [--scale S] [--seed N] [--threads T] [--batch-events N]
//!       [--readers M] [--checkpoint-dir DIR] [--checkpoint-every N]
//!       [--wal-dir DIR] [--fsync-every N] [--shed-policy P] [--queue-cap N]
//!       [--resume] [--export-state FILE] [--verify]
//! ```
//!
//! The simulated dataset is split into entity tables plus the event feed
//! a live platform would have emitted; the feed goes through the
//! `crowd-ingest` wire format (retry/quarantine/reorder/digest) and is
//! applied to the service through a bounded admission queue while
//! `--readers` query threads block on published versions (no spinning)
//! and render dashboards. With `--wal-dir` every batch is written ahead
//! to a durable log, so a `SIGKILL` at any instant loses no accepted
//! event: rerun with `--resume` and the service restores the newest
//! checkpoint, replays the WAL tail, and re-ingests the rest of the feed.
//! `--export-state` writes a deterministic dump of the final state —
//! byte-identical across crashed-and-recovered and never-crashed runs —
//! which is exactly what the kill-point chaos harness diffs.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crowd_ingest::events::{load_events, EventOptions};
use crowd_ingest::killpoint::points_passed;
use crowd_ingest::{MarketEvent, WalOptions};
use crowd_marketplace::cli::CommonOpts;
use crowd_serve::query::dashboard;
use crowd_serve::{ApplyQueue, CheckpointStore, EventFeed, LiveService, ServeError, ShedPolicy};
use crowd_sim::SimConfig;

#[derive(Debug, Clone, PartialEq)]
struct Args {
    opts: CommonOpts,
    batch_events: usize,
    readers: usize,
    checkpoint_dir: Option<std::path::PathBuf>,
    checkpoint_every: u64,
    wal_dir: Option<std::path::PathBuf>,
    fsync_every: u64,
    wal_segment_bytes: u64,
    shed_policy: ShedPolicy,
    queue_cap: usize,
    resume: bool,
    export_state: Option<std::path::PathBuf>,
    verify: bool,
    help: bool,
}

impl Default for Args {
    fn default() -> Args {
        Args {
            opts: CommonOpts::default(),
            batch_events: 8192,
            readers: 2,
            checkpoint_dir: None,
            checkpoint_every: 100_000,
            wal_dir: None,
            fsync_every: 1,
            wal_segment_bytes: WalOptions::default().segment_bytes,
            shed_policy: ShedPolicy::Block,
            queue_cap: 4,
            resume: false,
            export_state: None,
            verify: false,
            help: false,
        }
    }
}

fn parse_args(argv: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut out = Args::default();
    let mut args = argv.into_iter();
    while let Some(arg) = args.next() {
        if out.opts.accept(&arg, &mut args)? {
            continue;
        }
        match arg.as_str() {
            "--help" | "-h" => out.help = true,
            "--verify" => out.verify = true,
            "--resume" => out.resume = true,
            "--batch-events" => {
                out.batch_events = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n > 0)
                    .ok_or("--batch-events needs a positive integer")?;
            }
            "--readers" => {
                out.readers =
                    args.next().and_then(|v| v.parse().ok()).ok_or("--readers needs an integer")?;
            }
            "--checkpoint-dir" => {
                let dir = args.next().ok_or("--checkpoint-dir needs a directory path")?;
                if dir.is_empty() {
                    return Err("--checkpoint-dir needs a directory path".into());
                }
                out.checkpoint_dir = Some(dir.into());
            }
            "--checkpoint-every" => {
                out.checkpoint_every = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n > 0)
                    .ok_or("--checkpoint-every needs a positive integer")?;
            }
            "--wal-dir" => {
                let dir = args.next().ok_or("--wal-dir needs a directory path")?;
                if dir.is_empty() {
                    return Err("--wal-dir needs a directory path".into());
                }
                out.wal_dir = Some(dir.into());
            }
            "--fsync-every" => {
                out.fsync_every = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n > 0)
                    .ok_or("--fsync-every needs a positive integer")?;
            }
            "--wal-segment-bytes" => {
                out.wal_segment_bytes = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n >= 64)
                    .ok_or("--wal-segment-bytes needs an integer ≥ 64")?;
            }
            "--shed-policy" => {
                let v = args.next().ok_or("--shed-policy needs block|shed-oldest|degrade-stale")?;
                out.shed_policy = ShedPolicy::parse(&v)
                    .ok_or("--shed-policy needs block|shed-oldest|degrade-stale")?;
            }
            "--queue-cap" => {
                out.queue_cap = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n > 0)
                    .ok_or("--queue-cap needs a positive integer")?;
            }
            "--export-state" => {
                let path = args.next().ok_or("--export-state needs a file path")?;
                if path.is_empty() {
                    return Err("--export-state needs a file path".into());
                }
                out.export_state = Some(path.into());
            }
            other => return Err(format!("unknown argument `{other}` (try --help)")),
        }
    }
    Ok(out)
}

fn die(msg: &str) -> ! {
    eprintln!("serve: {msg}");
    std::process::exit(2);
}

/// A deterministic dump of everything the durability guarantee covers:
/// event counters, every applied row in applied order, and the fused
/// aggregates. Versions, WAL stats, and overload gauges are *excluded* —
/// they legitimately differ between a straight run and a
/// crashed-and-recovered one whose state is nonetheless identical.
fn export_state(service: &LiveService) -> String {
    let snap = service.handle().snapshot();
    let g = service.gauges();
    let mut out = String::new();
    out.push_str(&format!("events_applied={}\n", service.events_applied()));
    out.push_str(&format!(
        "posted={} picked_up={} completed={}\n",
        g.posted, g.picked_up, g.completed
    ));
    out.push_str("rows:\n");
    for row in service.rows().iter() {
        crowd_core::csv::instance_record(row, &mut out);
    }
    out.push_str(&format!("fused={:?}\n", snap.view.fused));
    out
}

fn main() {
    let args = parse_args(std::env::args().skip(1)).unwrap_or_else(|e| die(&e));
    if args.help {
        println!(
            "usage: serve [--scale S] [--seed N] [--threads T] [--batch-events N] \
             [--readers M] [--checkpoint-dir DIR] [--checkpoint-every N] [--wal-dir DIR] \
             [--fsync-every N] [--shed-policy P] [--queue-cap N] [--resume] \
             [--export-state FILE] [--verify]"
        );
        println!("  --batch-events N     events per applied delta batch (default 8192)");
        println!("  --readers M          concurrent dashboard query threads (default 2)");
        println!("  --checkpoint-dir DIR persist periodic checkpoints under DIR");
        println!("  --checkpoint-every N checkpoint cadence in events (default 100000)");
        println!("  --wal-dir DIR        write-ahead log every batch under DIR (crash-safe)");
        println!("  --fsync-every N      WAL appends per fsync (default 1)");
        println!("  --wal-segment-bytes N  WAL segment rotation size (default 4 MiB)");
        println!("  --shed-policy P      overload policy: block|shed-oldest|degrade-stale");
        println!("  --queue-cap N        apply-queue capacity in batches (default 4)");
        println!("  --resume             recover from checkpoints (+ WAL tail) before ingesting");
        println!("  --export-state FILE  write a deterministic final-state dump to FILE");
        println!(
            "  --verify             rebuild the batch study and check the live view against it"
        );
        return;
    }
    args.opts.install_thread_pool().unwrap_or_else(|e| die(&e));

    let cfg = SimConfig::new(args.opts.seed, args.opts.scale);
    eprintln!("simulating feed at scale {} (seed {}) …", cfg.scale, cfg.seed);
    let feed = EventFeed::from_config(&cfg);
    let wire = feed.to_csv();
    eprintln!(
        "feed: {} events ({} completions), {:.1} MiB on the wire",
        feed.events.len(),
        feed.n_completed(),
        wire.len() as f64 / (1024.0 * 1024.0)
    );

    let wal_opts =
        WalOptions { fsync_every: args.fsync_every, segment_bytes: args.wal_segment_bytes };
    let mut service = if args.resume {
        let dir = args
            .checkpoint_dir
            .as_deref()
            .unwrap_or_else(|| die("--resume requires --checkpoint-dir"));
        let store = CheckpointStore::new(dir, cfg.seed);
        let started = Instant::now();
        let service = if let Some(wal_dir) = &args.wal_dir {
            let (service, report) = LiveService::restore_durable(
                store,
                args.checkpoint_every,
                Arc::clone(&feed.entities),
                wal_dir,
                wal_opts,
            )
            .unwrap_or_else(|e| die(&format!("recovery failed: {e}")));
            eprintln!(
                "recovered: checkpoint at {} events + {} WAL events ({} records{}){}",
                report.checkpoint_events,
                report.wal_events_replayed,
                report.wal_records,
                if report.torn_truncated { ", torn tail truncated" } else { "" },
                if report.checkpoint_faults.is_empty() {
                    String::new()
                } else {
                    format!(", stepped over {} bad checkpoint(s)", report.checkpoint_faults.len())
                },
            );
            service
        } else {
            match LiveService::restore(store, args.checkpoint_every) {
                Ok((service, faults)) => {
                    if !faults.is_empty() {
                        eprintln!("recovered past {} damaged checkpoint(s)", faults.len());
                    }
                    service
                }
                Err(ServeError::Checkpoint(crowd_serve::CheckpointError::NoValidCheckpoint {
                    ..
                })) => {
                    eprintln!("no checkpoint to resume from; starting fresh");
                    let store = CheckpointStore::new(dir, cfg.seed);
                    LiveService::new(Arc::clone(&feed.entities))
                        .with_checkpoints(store, args.checkpoint_every)
                }
                Err(e) => die(&format!("recovery failed: {e}")),
            }
        };
        println!("recovery_ms={:.1}", started.elapsed().as_secs_f64() * 1e3);
        service
    } else {
        let mut service = LiveService::new(Arc::clone(&feed.entities));
        if let Some(dir) = &args.checkpoint_dir {
            let store = CheckpointStore::new(dir, cfg.seed);
            service = service.with_checkpoints(store, args.checkpoint_every);
        }
        if let Some(wal_dir) = &args.wal_dir {
            service = service
                .with_wal(wal_dir, cfg.seed, wal_opts)
                .unwrap_or_else(|e| die(&format!("wal open failed: {e}")));
        }
        service
    };

    // Readers block on the next published version (condvar, not spin) and
    // render the full dashboard against each snapshot they observe.
    let stop = Arc::new(AtomicBool::new(false));
    let queries = Arc::new(AtomicU64::new(0));
    let entities = Arc::clone(&feed.entities);
    let readers: Vec<_> = (0..args.readers)
        .map(|_| {
            let handle = service.handle();
            let stop = Arc::clone(&stop);
            let queries = Arc::clone(&queries);
            let entities = Arc::clone(&entities);
            let first = service.version() + 1;
            std::thread::spawn(move || {
                let mut next_version = first;
                let mut latencies_us = Vec::new();
                while !stop.load(Ordering::Relaxed) {
                    let Some(snap) =
                        handle.wait_for_version(next_version, Duration::from_millis(50))
                    else {
                        continue;
                    };
                    let t = Instant::now();
                    assert!(snap.version >= next_version, "wait returned a stale snapshot");
                    next_version = snap.version + 1;
                    let dash = dashboard(&snap.view.fused, &entities);
                    assert_eq!(dash.n_instances, snap.view.rows as u64, "torn snapshot");
                    latencies_us.push(t.elapsed().as_micros() as u64);
                    queries.fetch_add(1, Ordering::Relaxed);
                }
                latencies_us
            })
        })
        .collect();

    // Decode the full wire stream (hardened path: retry, quarantine,
    // canonical reorder, digest), then apply only the tail this process
    // hasn't covered yet — on a fresh start that's everything.
    let log = load_events(&mut wire.as_bytes(), &feed.entities, &EventOptions::default())
        .unwrap_or_else(|e| die(&e.to_string()));
    let already = service.events_applied() as usize;
    if already > log.events.len() {
        die(&format!(
            "recovered state covers {already} events but the feed has {}",
            log.events.len()
        ));
    }
    let pending: Vec<Vec<MarketEvent>> =
        log.events[already..].chunks(args.batch_events).map(<[MarketEvent]>::to_vec).collect();

    // Producer pushes batches through the admission queue; this thread is
    // the single writer draining it under the configured shed policy.
    let queue = Arc::new(ApplyQueue::new(args.queue_cap, args.shed_policy));
    let producer = {
        let queue = Arc::clone(&queue);
        std::thread::spawn(move || {
            for batch in pending {
                queue.push(batch);
            }
            queue.close();
        })
    };

    let started = Instant::now();
    let mut batches = 0u64;
    let mut applied = 0u64;
    let mut seen_shed = (0u64, 0u64);
    loop {
        let popped = match args.shed_policy {
            ShedPolicy::DegradeStale => queue.pop_all(Duration::from_secs(5)),
            _ => queue.pop(Duration::from_secs(5)).map(|events| (events, 1)),
        };
        let Some((events, coalesced)) = popped else { break };
        let stats = queue.stats();
        if stats.shed_batches > seen_shed.0 {
            // Shed at admission: those events were never accepted.
            service.note_shed(stats.shed_batches - seen_shed.0, stats.shed_events - seen_shed.1);
            seen_shed = (stats.shed_batches, stats.shed_events);
        }
        let (_, lag) = queue.pending();
        service.set_lag(lag);
        service.apply_events(&events).unwrap_or_else(|e| die(&format!("apply failed: {e}")));
        batches += coalesced;
        applied += events.len() as u64;
    }
    service.wal_sync().unwrap_or_else(|e| die(&format!("wal sync failed: {e}")));
    let elapsed = started.elapsed();
    producer.join().expect("producer panicked");
    stop.store(true, Ordering::Relaxed);
    let mut latencies: Vec<u64> =
        readers.into_iter().flat_map(|r| r.join().expect("reader panicked")).collect();
    latencies.sort_unstable();

    let events_per_sec = applied as f64 / elapsed.as_secs_f64().max(1e-9);
    println!(
        "applied {applied} events in {batches} batches over {:.2}s — {:.0} events/s, final version {}",
        elapsed.as_secs_f64(),
        events_per_sec,
        service.version()
    );
    println!(
        "ingest: accepted {} repaired {} deduped {} quarantined {} (digest verified: {:?})",
        log.report.accepted,
        log.report.repaired,
        log.report.deduped,
        log.report.quarantined,
        log.report.verified
    );
    let gauges = service.gauges();
    if let Some(wal) = service.wal_stats() {
        println!(
            "wal: {} appends, {} fsyncs, {} rotations, {:.1} MiB, {} segments retired",
            wal.appends,
            wal.fsyncs,
            wal.rotations,
            wal.bytes_written as f64 / (1024.0 * 1024.0),
            wal.segments_retired
        );
    }
    let qstats = queue.stats();
    println!(
        "overload: policy {} — {} shed batches ({} events), {} blocked pushes, peak depth {}, final lag {}",
        args.shed_policy.name(),
        gauges.shed_batches,
        gauges.shed_events,
        qstats.blocked_pushes,
        qstats.peak_depth,
        gauges.lag_events
    );
    let total_queries = queries.load(Ordering::Relaxed);
    if !latencies.is_empty() {
        let pct = |p: f64| latencies[((latencies.len() - 1) as f64 * p) as usize];
        println!(
            "queries: {} dashboards across {} readers — p50 {}µs p99 {}µs",
            total_queries,
            args.readers,
            pct(0.50),
            pct(0.99)
        );
    }

    let snap = service.handle().snapshot();
    let dash = dashboard(&snap.view.fused, service.entities());
    println!(
        "live view: {} instances, {} workers, {} weeks, median trust {:.3}",
        dash.n_instances,
        dash.n_workers,
        snap.view.fused.n_weeks,
        dash.median_trust.unwrap_or(f64::NAN)
    );

    if let Some(path) = &args.export_state {
        let dump = export_state(&service);
        std::fs::write(path, dump).unwrap_or_else(|e| die(&format!("export failed: {e}")));
        eprintln!("state exported to {}", path.display());
    }

    if std::env::var("CROWD_KILL_REPORT").is_ok_and(|v| v == "1") {
        // The chaos harness reads this to learn the kill-point schedule
        // length of an uninterrupted run.
        println!("killpoints_passed={}", points_passed());
    }

    if args.verify {
        eprintln!("verify: rebuilding cold batch study …");
        if snap.view.fused != *service.batch_study().fused() {
            die("verify FAILED: live view diverged from the batch study");
        }
        println!("verify: live view ≡ batch study ✓");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_own_flags_and_common_opts() {
        let args = parse_args(
            ["--scale", "0.002", "--batch-events", "1000", "--readers", "0", "--verify"]
                .map(String::from),
        )
        .unwrap();
        assert_eq!(args.opts.scale, 0.002);
        assert_eq!(args.batch_events, 1000);
        assert_eq!(args.readers, 0);
        assert!(args.verify);
    }

    #[test]
    fn parses_durability_and_overload_flags() {
        let args = parse_args(
            [
                "--wal-dir",
                "w",
                "--fsync-every",
                "8",
                "--shed-policy",
                "degrade-stale",
                "--queue-cap",
                "16",
                "--resume",
                "--export-state",
                "dump.txt",
            ]
            .map(String::from),
        )
        .unwrap();
        assert_eq!(args.wal_dir.as_deref(), Some(std::path::Path::new("w")));
        assert_eq!(args.fsync_every, 8);
        assert_eq!(args.shed_policy, ShedPolicy::DegradeStale);
        assert_eq!(args.queue_cap, 16);
        assert!(args.resume);
        assert_eq!(args.export_state.as_deref(), Some(std::path::Path::new("dump.txt")));
    }

    #[test]
    fn rejects_bad_values() {
        assert!(parse_args(["--batch-events", "0"].map(String::from)).is_err());
        assert!(parse_args(["--frobnicate"].map(String::from)).is_err());
        assert!(parse_args(["--checkpoint-every", "0"].map(String::from)).is_err());
        assert!(parse_args(["--fsync-every", "0"].map(String::from)).is_err());
        assert!(parse_args(["--shed-policy", "panic"].map(String::from)).is_err());
        assert!(parse_args(["--queue-cap", "0"].map(String::from)).is_err());
        assert!(parse_args(["--wal-dir", ""].map(String::from)).is_err());
    }
}
