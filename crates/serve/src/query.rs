//! The service's read API: shaping one published snapshot into answers.
//!
//! Every function here takes an immutable [`Fused`] (from a
//! [`ViewSnapshot`](crowd_analytics::ViewSnapshot)) and computes pure
//! derived results — no locks, no service state. A reader thread grabs a
//! snapshot once and runs any number of queries against that consistent
//! version.

use std::sync::Arc;

use crowd_analytics::fused::Fused;
use crowd_core::dataset::Dataset;
use crowd_stats::descriptive::{median_inplace, percentile};

/// Weekly task throughput (paper Fig. 1's live counterpart).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WeekThroughput {
    /// Week offset from the service's first week.
    pub week: usize,
    /// Instances issued (batch-creation week).
    pub issued: u64,
    /// Instances completed (submission week).
    pub completed: u64,
}

/// Issued/completed counts per week.
pub fn throughput(f: &Fused) -> Vec<WeekThroughput> {
    (0..f.n_weeks)
        .map(|week| WeekThroughput {
            week,
            issued: f.issued.get(week).copied().unwrap_or(0),
            completed: f.completed.get(week).copied().unwrap_or(0),
        })
        .collect()
}

/// Distinct workers active per week (paper Fig. 26's live counterpart).
pub fn availability(f: &Fused) -> Vec<u64> {
    let mut active = vec![0u64; f.n_weeks];
    for agg in f.workers.values() {
        for &(week, _) in &agg.weeks {
            if let Some(slot) = active.get_mut(week) {
                *slot += 1;
            }
        }
    }
    active
}

/// One labor source's share of the applied work.
#[derive(Debug, Clone, PartialEq)]
pub struct SourceLoad {
    /// Raw source id.
    pub source: u32,
    /// Source name (from the entity tables).
    pub name: String,
    /// Instances performed by the source's workers.
    pub n_tasks: u64,
    /// Fraction of all applied instances.
    pub share: f64,
    /// Mean trust across the source's instances.
    pub mean_trust: f64,
}

/// Per-source load distribution, descending by task count.
pub fn source_load(f: &Fused, entities: &Dataset) -> Vec<SourceLoad> {
    let total: u64 = f.sources.values().map(|s| s.n_tasks).sum();
    let mut out: Vec<SourceLoad> = f
        .sources
        .iter()
        .map(|(&id, agg)| SourceLoad {
            source: id,
            name: entities.sources.get(id as usize).map(|s| s.name.clone()).unwrap_or_default(),
            n_tasks: agg.n_tasks,
            share: if total > 0 { agg.n_tasks as f64 / total as f64 } else { 0.0 },
            mean_trust: if agg.n_tasks > 0 { agg.trust_sum / agg.n_tasks as f64 } else { 0.0 },
        })
        .collect();
    out.sort_by(|a, b| b.n_tasks.cmp(&a.n_tasks).then(a.source.cmp(&b.source)));
    out
}

/// Empirical CDF over per-worker total work hours: `(hours, fraction of
/// workers with total ≤ hours)`, one point per worker.
pub fn worker_work_cdf(f: &Fused) -> Vec<(f64, f64)> {
    let mut hours: Vec<f64> = f.workers.values().map(|w| w.work_secs / 3600.0).collect();
    hours.sort_by(f64::total_cmp);
    let n = hours.len() as f64;
    hours.iter().enumerate().map(|(i, &h)| (h, (i + 1) as f64 / n)).collect()
}

/// Median of per-worker mean trust.
pub fn median_worker_trust(f: &Fused) -> Option<f64> {
    let mut means: Vec<f64> =
        f.workers.values().filter(|w| w.tasks > 0).map(|w| w.trust_sum / w.tasks as f64).collect();
    median_inplace(&mut means)
}

/// Median instances per worker.
pub fn median_worker_tasks(f: &Fused) -> Option<f64> {
    let mut tasks: Vec<f64> = f.workers.values().map(|w| w.tasks as f64).collect();
    median_inplace(&mut tasks)
}

/// The composite dashboard a reader renders per snapshot — also the unit
/// of work the `serve` benchmark times per query.
#[derive(Debug, Clone, PartialEq)]
pub struct Dashboard {
    /// Total instance rows covered.
    pub n_instances: u64,
    /// Distinct active workers.
    pub n_workers: usize,
    /// Weekly throughput series.
    pub throughput: Vec<WeekThroughput>,
    /// Active workers per week.
    pub availability: Vec<u64>,
    /// Per-source load, descending.
    pub sources: Vec<SourceLoad>,
    /// Median per-worker mean trust.
    pub median_trust: Option<f64>,
    /// Median instances per worker.
    pub median_tasks: Option<f64>,
    /// 90th percentile of per-worker work hours.
    pub p90_work_hours: Option<f64>,
}

/// Runs every query against one consistent snapshot.
pub fn dashboard(f: &Fused, entities: &Arc<Dataset>) -> Dashboard {
    let work_hours: Vec<f64> = f.workers.values().map(|w| w.work_secs / 3600.0).collect();
    Dashboard {
        n_instances: f.n_instances(),
        n_workers: f.workers.len(),
        throughput: throughput(f),
        availability: availability(f),
        sources: source_load(f, entities),
        median_trust: median_worker_trust(f),
        median_tasks: median_worker_tasks(f),
        p90_work_hours: percentile(&work_hours, 90.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replay::EventFeed;
    use crate::service::LiveService;
    use crowd_ingest::events::{load_events, EventOptions};
    use crowd_sim::SimConfig;

    #[test]
    fn dashboard_is_consistent_with_the_snapshot() {
        let feed = EventFeed::from_config(&SimConfig::tiny(61));
        let mut svc = LiveService::new(Arc::clone(&feed.entities));
        let log =
            load_events(&mut feed.to_csv().as_bytes(), &feed.entities, &EventOptions::default())
                .expect("clean feed");
        for chunk in log.events.chunks(5000) {
            svc.apply_events(chunk).expect("apply");
        }
        let snap = svc.handle().snapshot();
        let dash = dashboard(&snap.view.fused, svc.entities());

        assert_eq!(dash.n_instances, snap.view.rows as u64);
        let issued: u64 = dash.throughput.iter().map(|w| w.issued).sum();
        let completed: u64 = dash.throughput.iter().map(|w| w.completed).sum();
        assert_eq!(issued, dash.n_instances);
        assert_eq!(completed, dash.n_instances);
        let share: f64 = dash.sources.iter().map(|s| s.share).sum();
        assert!((share - 1.0).abs() < 1e-9, "shares must sum to 1, got {share}");
        assert!(dash.availability.iter().all(|&a| a <= dash.n_workers as u64));
        assert!(dash.sources.windows(2).all(|w| w[0].n_tasks >= w[1].n_tasks));
    }

    #[test]
    fn empty_snapshot_answers_empty_queries() {
        let feed = EventFeed::from_config(&SimConfig::tiny(62));
        let svc = LiveService::new(Arc::clone(&feed.entities));
        let snap = svc.handle().snapshot();
        let dash = dashboard(&snap.view.fused, svc.entities());
        assert_eq!(dash.n_instances, 0);
        assert_eq!(dash.n_workers, 0);
        assert_eq!(dash.median_trust, None);
        assert!(worker_work_cdf(&snap.view.fused).is_empty());
    }
}
