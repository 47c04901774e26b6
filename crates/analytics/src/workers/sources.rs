//! Labor-source analysis (paper §5.1; Figs 26, 27).

use crowd_core::prelude::*;
use crowd_stats::descriptive::median;

use crate::study::Study;

/// Per-source aggregate statistics (the Fig 27 panels).
#[derive(Debug, Clone)]
pub struct SourceStats {
    /// The source.
    pub source: SourceId,
    /// Source name.
    pub name: String,
    /// Workers recruited by the source who performed at least one task.
    pub n_workers: u64,
    /// Tasks performed by those workers.
    pub n_tasks: u64,
    /// Average tasks per worker (Fig 26a).
    pub avg_tasks_per_worker: f64,
    /// Mean trust over the source's instances (Fig 27b/c).
    pub mean_trust: f64,
    /// Mean relative task time: worker time divided by the batch median
    /// (Fig 27e/f).
    pub mean_relative_task_time: f64,
}

/// Computes per-source statistics over all sources with ≥1 task.
pub fn per_source(study: &Study) -> Vec<SourceStats> {
    let ds = study.dataset();
    let fused = study.fused();

    // Each worker belongs to exactly one source, so "distinct workers
    // seen per source" is a count over the fused per-worker aggregates.
    let mut active_workers = vec![0u64; ds.sources.len()];
    for &w in fused.workers.keys() {
        active_workers[ds.worker(WorkerId::new(w)).source.index()] += 1;
    }

    fused
        .sources
        .iter()
        .map(|(&s, agg)| {
            let workers = active_workers[s as usize];
            SourceStats {
                source: SourceId::new(s),
                name: ds.source(SourceId::new(s)).name.clone(),
                n_workers: workers,
                n_tasks: agg.n_tasks,
                avg_tasks_per_worker: agg.n_tasks as f64 / workers.max(1) as f64,
                mean_trust: agg.trust_sum / agg.n_tasks as f64,
                mean_relative_task_time: if agg.rel_time_n > 0 {
                    agg.rel_time_sum / agg.rel_time_n as f64
                } else {
                    0.0
                },
            }
        })
        .collect()
}

/// The top `n` sources by worker count (Fig 27a).
pub fn top_by_workers(stats: &[SourceStats], n: usize) -> Vec<&SourceStats> {
    let mut order: Vec<&SourceStats> = stats.iter().collect();
    order.sort_by_key(|s| std::cmp::Reverse(s.n_workers));
    order.truncate(n);
    order
}

/// The top `n` sources by task count (Fig 27d), plus their combined share
/// of all tasks (paper: top-10 ≈ 95%).
pub fn top_by_tasks(stats: &[SourceStats], n: usize) -> (Vec<&SourceStats>, f64) {
    let total: u64 = stats.iter().map(|s| s.n_tasks).sum();
    let mut order: Vec<&SourceStats> = stats.iter().collect();
    order.sort_by_key(|s| std::cmp::Reverse(s.n_tasks));
    order.truncate(n);
    let share = order.iter().map(|s| s.n_tasks).sum::<u64>() as f64 / total.max(1) as f64;
    (order, share)
}

/// Fig 26b: number of sources with active workers, per week.
#[derive(Debug, Clone, Default)]
pub struct ActiveSources {
    /// Week of each row.
    pub weeks: Vec<WeekIndex>,
    /// Sources with ≥1 instance that week.
    pub active_sources: Vec<u32>,
}

/// Computes the weekly active-source counts.
pub fn active_sources_weekly(study: &Study) -> ActiveSources {
    let ds = study.dataset();
    let fused = study.fused();
    let n = fused.n_weeks;
    if n == 0 {
        return ActiveSources::default();
    }
    let mut sets: Vec<std::collections::BTreeSet<u32>> = vec![std::collections::BTreeSet::new(); n];
    for (&w, agg) in &fused.workers {
        let src = ds.worker(WorkerId::new(w)).source.raw();
        for &(wk, _) in &agg.weeks {
            sets[wk].insert(src);
        }
    }
    ActiveSources {
        weeks: (0..n).map(|i| WeekIndex(fused.w0 + i as i32)).collect(),
        active_sources: sets.iter().map(|s| s.len() as u32).collect(),
    }
}

/// §5.1 headline statistics about source quality.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SourceQualityStats {
    /// Fraction of sources with mean trust below 0.8 (paper: ≈10%).
    pub low_trust_fraction: f64,
    /// Fraction of sources with mean relative task time ≥ 3 (paper: ≈5%).
    pub slow_fraction: f64,
    /// The internal pool's share of all tasks (paper: ≈2%).
    pub internal_task_share: f64,
    /// Median of the per-source mean relative task time (≈1 by design).
    pub median_relative_time: f64,
}

/// Computes §5.1 source-quality statistics.
pub fn quality_stats(study: &Study, stats: &[SourceStats]) -> SourceQualityStats {
    let ds = study.dataset();
    let n = stats.len().max(1) as f64;
    let low_trust = stats.iter().filter(|s| s.mean_trust < 0.8).count() as f64;
    let slow = stats.iter().filter(|s| s.mean_relative_task_time >= 3.0).count() as f64;
    let total: u64 = stats.iter().map(|s| s.n_tasks).sum();
    let internal: u64 =
        stats.iter().filter(|s| ds.source(s.source).is_internal()).map(|s| s.n_tasks).sum();
    let rels: Vec<f64> = stats.iter().map(|s| s.mean_relative_task_time).collect();
    SourceQualityStats {
        low_trust_fraction: low_trust / n,
        slow_fraction: slow / n,
        internal_task_share: internal as f64 / total.max(1) as f64,
        median_relative_time: median(&rels).unwrap_or(0.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn study() -> &'static Study {
        crate::testutil::default_study()
    }

    #[test]
    fn task_totals_match_dataset() {
        let s = study();
        let stats = per_source(s);
        let total: u64 = stats.iter().map(|x| x.n_tasks).sum();
        assert_eq!(total as usize, s.dataset().instances.len());
        assert!(stats.len() > 30, "many sources active: {}", stats.len());
    }

    #[test]
    fn top_sources_dominate_tasks() {
        // §5.1: "the most popular 10 sources account for 95% of the tasks".
        let s = study();
        let stats = per_source(s);
        let (_, share) = top_by_tasks(&stats, 10);
        assert!(share > 0.85, "top-10 task share {share}");
    }

    #[test]
    fn amt_is_slow_and_untrusted() {
        // Fig 27: amt has mean trust ≈0.75 and rel. task time > 5.
        let s = study();
        let stats = per_source(s);
        let amt = stats.iter().find(|x| x.name == "amt");
        if let Some(amt) = amt {
            assert!(amt.mean_trust < 0.82, "amt trust {}", amt.mean_trust);
            assert!(
                amt.mean_relative_task_time > 2.5,
                "amt rel time {}",
                amt.mean_relative_task_time
            );
        }
    }

    #[test]
    fn quality_stats_match_section_5_1() {
        let s = study();
        let stats = per_source(s);
        let q = quality_stats(s, &stats);
        assert!(q.internal_task_share < 0.10, "internal ≈2%: {}", q.internal_task_share);
        assert!(
            (0.5..=2.0).contains(&q.median_relative_time),
            "most sources ≈1×: {}",
            q.median_relative_time
        );
        assert!(q.low_trust_fraction < 0.35);
    }

    #[test]
    fn avg_tasks_per_worker_varies_widely() {
        // Fig 26a: dedicated sources do orders of magnitude more per
        // worker than on-demand ones.
        let s = study();
        let stats = per_source(s);
        let max = stats.iter().map(|x| x.avg_tasks_per_worker).fold(0.0, f64::max);
        let min = stats.iter().map(|x| x.avg_tasks_per_worker).fold(f64::INFINITY, f64::min);
        assert!(max / min > 10.0, "spread {max} / {min}");
    }

    #[test]
    fn active_sources_steadier_than_load() {
        // Fig 26b: "a relatively fixed number of active sources" while
        // task volume swings.
        let s = study();
        let a = active_sources_weekly(s);
        let post: Vec<f64> = a
            .weeks
            .iter()
            .zip(&a.active_sources)
            .filter(|(w, &c)| w.start() >= Timestamp::from_ymd(2015, 1, 1) && c > 0)
            .map(|(_, &c)| f64::from(c))
            .collect();
        let max = post.iter().copied().fold(0.0, f64::max);
        let med = median(&post).unwrap();
        assert!(max / med < 3.0, "source count stability: {}", max / med);
    }

    #[test]
    fn top_by_workers_is_sorted() {
        let s = study();
        let stats = per_source(s);
        let top = top_by_workers(&stats, 10);
        for w in top.windows(2) {
            assert!(w[0].n_workers >= w[1].n_workers);
        }
        assert_eq!(top.len().min(10), top.len());
        // NeoDev leads recruitment (§5.1).
        assert_eq!(top[0].name, "neodev");
    }
}
