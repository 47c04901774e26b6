//! Task arrivals over time (paper §3.1; Figs 1, 2, 3).

use std::collections::BTreeSet;

use crowd_core::prelude::*;
use crowd_stats::descriptive::median;

use crate::study::Study;

// Instance-level series (issued/completed/pickup/weekday/daily counts)
// come from the study's fused scan cache; only the *batch* table — orders
// of magnitude smaller — is walked here.

/// Weekly arrival series (Figs 1, 2a, 2b): instances, batches, distinct
/// tasks (sampled and all), completions, and the median pickup overlay.
#[derive(Debug, Clone, Default)]
pub struct WeeklyArrivals {
    /// Week of each row (consecutive, covering the whole dataset).
    pub weeks: Vec<WeekIndex>,
    /// Task instances issued (attributed to their batch's creation week).
    pub instances: Vec<u64>,
    /// Task instances completed (by instance end time).
    pub completed: Vec<u64>,
    /// Batches created.
    pub batches: Vec<u64>,
    /// Distinct tasks with ≥1 batch this week — sampled batches only
    /// (Fig 1 "sampled" line).
    pub distinct_tasks_sampled: Vec<u64>,
    /// Distinct tasks with ≥1 batch this week — all batches (Fig 1 "all").
    pub distinct_tasks_all: Vec<u64>,
    /// Median pickup time (seconds) of instances issued this week
    /// (the red overlay of Figs 2a / 5a).
    pub median_pickup: Vec<Option<f64>>,
}

impl WeeklyArrivals {
    /// Restricts the series to weeks at or after `cutoff` (e.g. the
    /// post-Jan-2015 views of Figs 2b and 5a).
    pub fn since(&self, cutoff: Timestamp) -> WeeklyArrivals {
        let cut = cutoff.week();
        let keep: Vec<usize> = (0..self.weeks.len()).filter(|&i| self.weeks[i] >= cut).collect();
        WeeklyArrivals {
            weeks: keep.iter().map(|&i| self.weeks[i]).collect(),
            instances: keep.iter().map(|&i| self.instances[i]).collect(),
            completed: keep.iter().map(|&i| self.completed[i]).collect(),
            batches: keep.iter().map(|&i| self.batches[i]).collect(),
            distinct_tasks_sampled: keep.iter().map(|&i| self.distinct_tasks_sampled[i]).collect(),
            distinct_tasks_all: keep.iter().map(|&i| self.distinct_tasks_all[i]).collect(),
            median_pickup: keep.iter().map(|&i| self.median_pickup[i]).collect(),
        }
    }
}

/// Computes the weekly arrival series.
pub fn weekly(study: &Study) -> WeeklyArrivals {
    let ds = study.dataset();
    // The week axis comes from the fused scan: its window covers instance
    // end times, which an entities-only (columns-optional) dataset cannot
    // see. Identical to the dataset-derived axis when columns are
    // resident — the fused pass uses the same `time_min`/`time_max`.
    let fused = study.fused();
    let (w0, n) = (fused.w0, fused.n_weeks);
    if n == 0 {
        return WeeklyArrivals::default();
    }

    let mut out = WeeklyArrivals {
        weeks: (0..n).map(|i| WeekIndex(w0 + i as i32)).collect(),
        instances: vec![0; n],
        completed: vec![0; n],
        batches: vec![0; n],
        distinct_tasks_sampled: vec![0; n],
        distinct_tasks_all: vec![0; n],
        median_pickup: vec![None; n],
    };

    // Batches and distinct tasks per week, all vs sampled: a task counts
    // once in a week, on the first insert of its (week, type) pair.
    let mut seen_all = BTreeSet::new();
    let mut seen_sampled = BTreeSet::new();
    for b in &ds.batches {
        let w = (b.created_at.week().0 - w0) as usize;
        out.batches[w] += 1;
        if seen_all.insert((w, b.task_type)) {
            out.distinct_tasks_all[w] += 1;
        }
        if b.sampled && seen_sampled.insert((w, b.task_type)) {
            out.distinct_tasks_sampled[w] += 1;
        }
    }

    // Instances: issued (batch week) and completed (end week), plus pickup
    // overlay — all shaped from the fused scan.
    out.instances.copy_from_slice(&fused.issued);
    out.completed.copy_from_slice(&fused.completed);
    out.median_pickup.copy_from_slice(&fused.median_pickup);
    out
}

/// Fig 3: task instances issued per day of week.
pub fn by_weekday(study: &Study) -> [u64; 7] {
    study.fused().weekday
}

/// §3.1 takeaway: daily load statistics after a cutoff (paper: Jan 2015).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DailyLoad {
    /// Median instances per active day.
    pub median: f64,
    /// Busiest day's instances.
    pub max: f64,
    /// Lightest active day's instances.
    pub min: f64,
    /// `max / median` — the paper reports ≈ 30×.
    pub peak_ratio: f64,
    /// `min / median` — the paper reports ≈ 0.0004×.
    pub trough_ratio: f64,
    /// Number of active days measured.
    pub days: usize,
}

/// Computes daily load statistics for instances issued at or after
/// `since` (cutoff applied at day granularity — callers pass midnights).
/// Returns `None` when no instances qualify.
pub fn daily_load(study: &Study, since: Timestamp) -> Option<DailyLoad> {
    let cutoff = since.day_number();
    let counts: Vec<f64> = study
        .fused()
        .per_day
        .iter()
        .filter(|&&(day, _)| day >= cutoff)
        .map(|&(_, c)| c as f64)
        .collect();
    if counts.is_empty() {
        return None;
    }
    let med = median(&counts)?;
    let max = counts.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let min = counts.iter().copied().fold(f64::INFINITY, f64::min);
    Some(DailyLoad {
        median: med,
        max,
        min,
        peak_ratio: max / med,
        trough_ratio: min / med,
        days: counts.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn study() -> &'static Study {
        crate::testutil::default_study()
    }

    #[test]
    fn weekly_series_is_consistent() {
        let s = study();
        let w = weekly(s);
        assert!(!w.weeks.is_empty());
        let total_issued: u64 = w.instances.iter().sum();
        assert_eq!(total_issued as usize, s.dataset().instances.len());
        let total_completed: u64 = w.completed.iter().sum();
        assert_eq!(total_completed as usize, s.dataset().instances.len());
        let total_batches: u64 = w.batches.iter().sum();
        assert_eq!(total_batches as usize, s.dataset().batches.len());
        // sampled distinct ≤ all distinct, weekly.
        for i in 0..w.weeks.len() {
            assert!(w.distinct_tasks_sampled[i] <= w.distinct_tasks_all[i]);
        }
    }

    #[test]
    fn weekly_distinct_tasks_match_a_type_major_count() {
        // Walks type by type (production walks the batch table week by
        // week): every (type, week-with-a-batch) pair adds 1 to the week.
        let s = study();
        let w = weekly(s);
        let ds = s.dataset();
        let w0 = w.weeks[0].0;
        let mut all = vec![0u64; w.weeks.len()];
        let mut sampled = vec![0u64; w.weeks.len()];
        for t in 0..ds.task_types.len() {
            let batches: Vec<&Batch> =
                s.index().batches_of_type(TaskTypeId::from_usize(t)).map(|b| ds.batch(b)).collect();
            for (sampled_only, counts) in [(false, &mut all), (true, &mut sampled)] {
                let weeks: BTreeSet<i32> = batches
                    .iter()
                    .filter(|b| b.sampled || !sampled_only)
                    .map(|b| b.created_at.week().0)
                    .collect();
                for week in weeks {
                    counts[(week - w0) as usize] += 1;
                }
            }
        }
        assert_eq!(w.distinct_tasks_all, all);
        assert_eq!(w.distinct_tasks_sampled, sampled);
    }

    #[test]
    fn post_regime_carries_most_load() {
        let s = study();
        let w = weekly(s);
        let cutoff = Timestamp::from_ymd(2015, 1, 1);
        let post = w.since(cutoff);
        let pre_total: u64 = w.instances.iter().sum::<u64>() - post.instances.iter().sum::<u64>();
        let post_total: u64 = post.instances.iter().sum();
        assert!(post_total > pre_total * 2, "§3.1: sparse before Jan 2015");
    }

    #[test]
    fn pickup_overlay_present_on_active_weeks() {
        let s = study();
        let w = weekly(s);
        for i in 0..w.weeks.len() {
            assert_eq!(w.median_pickup[i].is_some(), w.instances[i] > 0);
        }
    }

    #[test]
    fn high_load_weeks_have_lower_pickup() {
        // Fig 5a: the marketplace moves faster under load.
        let s = study();
        let w = weekly(s).since(Timestamp::from_ymd(2015, 1, 1));
        let mut pairs: Vec<(f64, f64)> = w
            .instances
            .iter()
            .zip(&w.median_pickup)
            .filter_map(|(&n, p)| p.map(|p| (n as f64, p)))
            .filter(|&(n, _)| n > 0.0)
            .collect();
        pairs.sort_by(|a, b| a.0.total_cmp(&b.0));
        let lo: Vec<f64> = pairs[..pairs.len() / 3].iter().map(|&(_, p)| p).collect();
        let hi: Vec<f64> = pairs[pairs.len() * 2 / 3..].iter().map(|&(_, p)| p).collect();
        let (ml, mh) = (median(&lo).unwrap(), median(&hi).unwrap());
        assert!(mh < ml, "busy weeks pick up faster: {mh} vs {ml}");
    }

    #[test]
    fn weekday_distribution_declines_to_weekend() {
        let s = study();
        let by = by_weekday(s);
        let weekday_avg = by[..5].iter().sum::<u64>() as f64 / 5.0;
        let weekend_avg = by[5..].iter().sum::<u64>() as f64 / 2.0;
        assert!(weekday_avg > weekend_avg * 1.3, "Fig 3: weekdays up to 2× weekends: {by:?}");
        // The Mon > … > Fri decline is asserted on the generator weights
        // (crowd-sim calibration tests); instance totals at reduced scale
        // are too lumpy (a single bulk batch moves a whole weekday).
    }

    #[test]
    fn daily_load_ratios() {
        let s = study();
        let d = daily_load(s, Timestamp::from_ymd(2015, 1, 1)).unwrap();
        assert!(d.median > 0.0);
        assert!(d.peak_ratio > 3.0, "bursty: peak {}", d.peak_ratio);
        assert!(d.trough_ratio < 0.35, "troughs: {}", d.trough_ratio);
        assert!(d.days > 100);
    }

    #[test]
    fn daily_load_after_end_is_none() {
        let s = study();
        assert!(daily_load(s, Timestamp::from_ymd(2030, 1, 1)).is_none());
    }

    #[test]
    fn empty_dataset_yields_empty_series() {
        let ds = crowd_core::DatasetBuilder::new().finish().unwrap();
        let s = Study::new(ds);
        let w = weekly(&s);
        assert!(w.weeks.is_empty());
    }
}
