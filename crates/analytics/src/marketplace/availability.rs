//! Worker availability and engagement splits (paper §3.2; Figs 4, 5b).

use crowd_core::prelude::*;

use crate::study::Study;

/// Weekly active-worker counts (Fig 4).
#[derive(Debug, Clone, Default)]
pub struct WeeklyWorkers {
    /// Week of each row.
    pub weeks: Vec<WeekIndex>,
    /// Distinct workers with ≥1 instance started that week.
    pub active_workers: Vec<u64>,
}

/// Computes distinct active workers per week.
pub fn weekly_workers(study: &Study) -> WeeklyWorkers {
    let fused = study.fused();
    if fused.n_weeks == 0 {
        return WeeklyWorkers::default();
    }
    // A worker is active in every week its per-week cells cover.
    let mut counts = vec![0u64; fused.n_weeks];
    for agg in fused.workers.values() {
        for &(wk, _) in &agg.weeks {
            counts[wk] += 1;
        }
    }
    WeeklyWorkers {
        weeks: (0..fused.n_weeks).map(|i| WeekIndex(fused.w0 + i as i32)).collect(),
        active_workers: counts,
    }
}

/// Fig 5b: weekly tasks and active time, split between the top-10% of
/// workers (by total tasks) and the rest.
#[derive(Debug, Clone, Default)]
pub struct EngagementSplit {
    /// Week of each row.
    pub weeks: Vec<WeekIndex>,
    /// Tasks completed by the top-10% workers.
    pub tasks_top10: Vec<u64>,
    /// Tasks completed by the bottom-90%.
    pub tasks_bot90: Vec<u64>,
    /// Active hours clocked by the top-10%.
    pub hours_top10: Vec<f64>,
    /// Active hours clocked by the bottom-90%.
    pub hours_bot90: Vec<f64>,
    /// Share of all tasks done by the top-10% (paper §5.2: > 80%).
    pub top10_task_share: f64,
}

/// Computes the engagement split.
pub fn engagement_split(study: &Study) -> EngagementSplit {
    let fused = study.fused();
    let n = fused.n_weeks;
    if n == 0 {
        return EngagementSplit::default();
    }

    // Rank active workers by total tasks (stable sort: ties stay in
    // ascending worker-id order, as the BTreeMap iterates).
    let mut active: Vec<(u32, u64)> = fused.workers.iter().map(|(&w, a)| (w, a.tasks)).collect();
    active.sort_by_key(|&(_, tasks)| std::cmp::Reverse(tasks));
    let cut = (active.len() / 10).max(1).min(active.len());

    let mut out = EngagementSplit {
        weeks: (0..n).map(|i| WeekIndex(fused.w0 + i as i32)).collect(),
        tasks_top10: vec![0; n],
        tasks_bot90: vec![0; n],
        hours_top10: vec![0.0; n],
        hours_bot90: vec![0.0; n],
        top10_task_share: 0.0,
    };
    let mut top_total = 0u64;
    for (rank, &(worker, tasks)) in active.iter().enumerate() {
        let top = rank < cut;
        if top {
            top_total += tasks;
        }
        for &(wk, cell) in &fused.workers[&worker].weeks {
            if top {
                out.tasks_top10[wk] += cell.tasks;
                out.hours_top10[wk] += cell.hours;
            } else {
                out.tasks_bot90[wk] += cell.tasks;
                out.hours_bot90[wk] += cell.hours;
            }
        }
    }
    // Fused row count, not `ds.instances.len()`: the latter is zero for a
    // columns-optional study and would inflate the share past 1.
    out.top10_task_share = top_total as f64 / fused.n_instances().max(1) as f64;
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowd_stats::descriptive::median;

    fn study() -> &'static Study {
        crate::testutil::default_study()
    }

    #[test]
    fn weekly_worker_counts_are_bounded() {
        let s = study();
        let w = weekly_workers(s);
        let max = *w.active_workers.iter().max().unwrap();
        assert!(max > 0);
        assert!(max as usize <= s.dataset().workers.len());
    }

    #[test]
    fn worker_counts_vary_less_than_load() {
        // Fig 4 vs Fig 2a: worker counts are far more stable than task
        // counts. Compare coefficient of max/median over post-regime weeks.
        let s = study();
        let workers = weekly_workers(s);
        let arrivals = crate::marketplace::arrivals::weekly(s);
        let cutoff = Timestamp::from_ymd(2015, 1, 1).week();
        let wv: Vec<f64> = workers
            .weeks
            .iter()
            .zip(&workers.active_workers)
            .filter(|(w, &c)| **w >= cutoff && c > 0)
            .map(|(_, &c)| c as f64)
            .collect();
        let av: Vec<f64> = arrivals
            .weeks
            .iter()
            .zip(&arrivals.instances)
            .filter(|(w, &c)| **w >= cutoff && c > 0)
            .map(|(_, &c)| c as f64)
            .collect();
        let ratio = |v: &[f64]| {
            let max = v.iter().copied().fold(0.0, f64::max);
            max / median(v).unwrap()
        };
        assert!(
            ratio(&wv) < ratio(&av),
            "workers steadier than load: {} vs {}",
            ratio(&wv),
            ratio(&av)
        );
    }

    #[test]
    fn top10_dominates_tasks() {
        let s = study();
        let e = engagement_split(s);
        assert!(
            e.top10_task_share > 0.6,
            "§5.2: top-10% carries most of the load, got {}",
            e.top10_task_share
        );
        let top: u64 = e.tasks_top10.iter().sum();
        let bot: u64 = e.tasks_bot90.iter().sum();
        assert_eq!((top + bot) as usize, s.dataset().instances.len());
    }

    #[test]
    fn top10_spends_more_active_time() {
        let s = study();
        let e = engagement_split(s);
        let top: f64 = e.hours_top10.iter().sum();
        let bot: f64 = e.hours_bot90.iter().sum();
        assert!(top > bot, "Fig 5b: top-10% clocks more hours: {top} vs {bot}");
    }

    #[test]
    fn empty_dataset() {
        let s = Study::new(crowd_core::DatasetBuilder::new().finish().unwrap());
        assert!(weekly_workers(&s).weeks.is_empty());
        assert_eq!(engagement_split(&s).top10_task_share, 0.0);
    }
}
