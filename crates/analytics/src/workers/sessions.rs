//! Work-session segmentation — the "attention spans" the paper names as a
//! §5 goal ("understanding worker attention spans, lifetimes, and general
//! behavior") and §7 future work ("a deeper understanding of worker
//! behavior by looking at phenomena such as worker anchoring, worker
//! learning, and interactions between various jobs").
//!
//! A session is a maximal run of one worker's instances where each next
//! instance starts within `gap` of the previous instance's end. Session
//! statistics quantify how long workers stay engaged once they sit down.

use crowd_core::time::Duration;
use crowd_stats::descriptive::median_sorted;

use crate::study::Study;

/// Default session-splitting gap: 30 minutes of inactivity.
pub const DEFAULT_GAP: Duration = Duration::from_mins(30);

/// One work session.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Session {
    /// Worker (dataset index).
    pub worker: u32,
    /// Instances completed within the session.
    pub instances: u32,
    /// Wall-clock span in seconds (first start → last end).
    pub span_secs: f64,
}

/// Aggregate session statistics.
#[derive(Debug, Clone, Default)]
pub struct SessionStats {
    /// All sessions.
    pub sessions: Vec<Session>,
    /// Median session span in minutes.
    pub median_span_mins: f64,
    /// Median instances per session.
    pub median_instances: f64,
    /// Mean sessions per active worker.
    pub mean_sessions_per_worker: f64,
    /// Fraction of sessions consisting of a single instance
    /// (drive-by participation).
    pub single_instance_fraction: f64,
}

/// Segments every worker's instances into sessions.
///
/// Interval lists come from the fused scan cache; only the sort and the
/// gap-dependent segmentation happen per call, so varying `gap` never
/// re-reads the instance table.
pub fn sessions(study: &Study, gap: Duration) -> SessionStats {
    let fused = study.fused();
    let mut out = SessionStats::default();
    let mut active_workers = 0usize;
    for (&worker, agg) in &fused.workers {
        active_workers += 1;
        // Stable sort: ties keep row order, like the index sort this
        // replaced.
        let mut intervals = agg.intervals.clone();
        intervals.sort_by_key(|&(start, _)| start);
        let (mut start, mut end) = intervals[0];
        let mut count = 1u32;
        for &(s, e) in intervals.iter().skip(1) {
            if s - end <= gap {
                count += 1;
                if e > end {
                    end = e;
                }
            } else {
                out.sessions.push(Session {
                    worker,
                    instances: count,
                    span_secs: (end - start).as_secs() as f64,
                });
                start = s;
                end = e;
                count = 1;
            }
        }
        out.sessions.push(Session {
            worker,
            instances: count,
            span_secs: (end - start).as_secs() as f64,
        });
    }

    // `median_sorted`, not `sorted[len / 2]`: the latter is the *upper*
    // central element on even-length lists, biasing both medians high.
    let mut spans: Vec<f64> = out.sessions.iter().map(|s| s.span_secs / 60.0).collect();
    spans.sort_by(f64::total_cmp);
    let mut counts: Vec<f64> = out.sessions.iter().map(|s| f64::from(s.instances)).collect();
    counts.sort_by(f64::total_cmp);
    // Both are `None` exactly when there are no sessions.
    let (Some(span_mins), Some(instances)) = (median_sorted(&spans), median_sorted(&counts)) else {
        return out;
    };
    out.median_span_mins = span_mins;
    out.median_instances = instances;
    out.mean_sessions_per_worker = out.sessions.len() as f64 / active_workers.max(1) as f64;
    out.single_instance_fraction =
        out.sessions.iter().filter(|s| s.instances == 1).count() as f64 / out.sessions.len() as f64;
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowd_core::prelude::*;

    fn study() -> &'static Study {
        crate::testutil::tiny_study()
    }

    /// Hand-built dataset: one worker with two clear sessions.
    fn two_session_dataset() -> Study {
        let mut b = DatasetBuilder::new();
        let s = b.add_source(Source::new("s", SourceKind::Dedicated));
        let c = b.add_country("X");
        let w = b.add_worker(Worker::new(s, c));
        let tt = b.add_task_type(TaskType::new("t"));
        let t0 = Timestamp::from_ymd(2015, 4, 1);
        let batch = b.add_batch(Batch::new(tt, t0).with_html("<p>q</p>"));
        // Session 1: three instances back-to-back; session 2 after 2 hours.
        let offsets = [(0i64, 60i64), (90, 150), (200, 260), (7_600, 7_700)];
        for (i, &(start, end)) in offsets.iter().enumerate() {
            b.add_instance(TaskInstance {
                batch,
                item: ItemId::new(i as u32),
                worker: w,
                start: t0 + Duration::from_secs(start),
                end: t0 + Duration::from_secs(end),
                trust: 0.9,
                answer: Answer::Choice(0),
            });
        }
        Study::new(b.finish().unwrap())
    }

    #[test]
    fn splits_on_the_gap() {
        let s = two_session_dataset();
        let stats = sessions(&s, DEFAULT_GAP);
        assert_eq!(stats.sessions.len(), 2);
        assert_eq!(stats.sessions[0].instances, 3);
        assert_eq!(stats.sessions[1].instances, 1);
        assert!((stats.sessions[0].span_secs - 260.0).abs() < 1e-9);
        assert_eq!(stats.mean_sessions_per_worker, 2.0);
        assert_eq!(stats.single_instance_fraction, 0.5);
    }

    #[test]
    fn giant_gap_merges_everything() {
        let s = two_session_dataset();
        let stats = sessions(&s, Duration::from_hours(6));
        assert_eq!(stats.sessions.len(), 1);
        assert_eq!(stats.sessions[0].instances, 4);
    }

    #[test]
    fn zero_gap_splits_everything_disjoint() {
        let s = two_session_dataset();
        let stats = sessions(&s, Duration::ZERO);
        // Instances don't touch exactly → every instance its own session.
        assert_eq!(stats.sessions.len(), 4);
    }

    #[test]
    fn simulated_world_has_plausible_sessions() {
        let stats = sessions(study(), DEFAULT_GAP);
        assert!(!stats.sessions.is_empty());
        assert!(stats.median_span_mins >= 0.0);
        assert!(stats.mean_sessions_per_worker >= 1.0);
        // §5.4: most workers put in < 1h per working day, so sessions are
        // typically short.
        assert!(stats.median_span_mins < 120.0, "median session {} mins", stats.median_span_mins);
        // Total instances across sessions equals the dataset.
        let total: u32 = stats.sessions.iter().map(|s| s.instances).sum();
        assert_eq!(total as usize, study().dataset().instances.len());
    }

    #[test]
    fn sessions_are_per_worker() {
        let stats = sessions(study(), DEFAULT_GAP);
        // No session may span more instances than its worker performed.
        let ds = study().dataset();
        let mut per_worker = vec![0u32; ds.workers.len()];
        for inst in &ds.instances {
            per_worker[inst.worker.index()] += 1;
        }
        for s in &stats.sessions {
            assert!(s.instances <= per_worker[s.worker as usize]);
        }
    }

    #[test]
    fn empty_dataset() {
        let s = Study::new(DatasetBuilder::new().finish().unwrap());
        let stats = sessions(&s, DEFAULT_GAP);
        assert!(stats.sessions.is_empty());
        assert_eq!(stats.median_span_mins, 0.0);
    }
}
