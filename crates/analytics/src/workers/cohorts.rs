//! Cohort retention: group workers by the month of their first activity
//! and track the fraction still active k months later.
//!
//! §5.3 shows lifetimes and working days in aggregate; the cohort view is
//! the standard sharper instrument (the paper's related work cites "a
//! cohort analysis of Mechanical Turk", reference \[16\]) and quantifies the takeaway
//! that "the availability of workers decreases exponentially with
//! experience".

use crowd_core::time::Timestamp;

use crate::study::Study;

/// One monthly cohort.
#[derive(Debug, Clone, PartialEq)]
pub struct Cohort {
    /// First day of the cohort month.
    pub month_start: Timestamp,
    /// Workers whose first activity fell in this month.
    pub size: u64,
    /// `retention[k]` = fraction of the cohort active in month
    /// `join + k`; `retention[0] == 1` by construction.
    pub retention: Vec<f64>,
}

#[cfg(test)]
use crate::fused::month_index;

fn month_start(index: i32) -> Timestamp {
    Timestamp::from_ymd(index.div_euclid(12), (index.rem_euclid(12) + 1) as u32, 1)
}

/// Computes monthly cohorts with retention horizons up to the end of the
/// dataset. Workers with zero instances are excluded (unobservable).
pub fn monthly_cohorts(study: &Study) -> Vec<Cohort> {
    let fused = study.fused();
    let Some(max_month) = fused.workers.values().filter_map(|a| a.months.last().copied()).max()
    else {
        return Vec::new();
    };

    // Group workers by join month (= their earliest active month).
    let mut cohorts: std::collections::BTreeMap<i32, Vec<u32>> = std::collections::BTreeMap::new();
    for (&w, agg) in &fused.workers {
        let Some(&join) = agg.months.first() else { continue };
        cohorts.entry(join).or_default().push(w);
    }

    cohorts
        .into_iter()
        .map(|(join_month, members)| {
            let horizon = (max_month - join_month) as usize + 1;
            let mut retention = vec![0.0; horizon];
            for &w in &members {
                for &m in &fused.workers[&w].months {
                    retention[(m - join_month) as usize] += 1.0;
                }
            }
            let size = members.len() as u64;
            for r in retention.iter_mut() {
                *r /= size as f64;
            }
            Cohort { month_start: month_start(join_month), size, retention }
        })
        .collect()
}

/// The mean retention curve across cohorts (simple average over cohorts
/// that reach horizon `k`), truncated to `max_months`.
pub fn mean_retention(cohorts: &[Cohort], max_months: usize) -> Vec<f64> {
    (0..max_months)
        .map(|k| {
            let with_horizon: Vec<f64> =
                cohorts.iter().filter(|c| c.retention.len() > k).map(|c| c.retention[k]).collect();
            if with_horizon.is_empty() {
                0.0
            } else {
                with_horizon.iter().sum::<f64>() / with_horizon.len() as f64
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn study() -> &'static Study {
        crate::testutil::tiny_study()
    }

    #[test]
    fn cohort_sizes_cover_active_workforce() {
        let s = study();
        let cohorts = monthly_cohorts(s);
        assert!(!cohorts.is_empty());
        let total: u64 = cohorts.iter().map(|c| c.size).sum();
        let active = {
            let ds = s.dataset();
            let mut seen = vec![false; ds.workers.len()];
            for inst in &ds.instances {
                seen[inst.worker.index()] = true;
            }
            seen.iter().filter(|&&x| x).count() as u64
        };
        assert_eq!(total, active);
    }

    #[test]
    fn retention_starts_at_one_and_is_bounded() {
        for c in monthly_cohorts(study()) {
            assert!((c.retention[0] - 1.0).abs() < 1e-12, "joiners are active at k=0");
            for &r in &c.retention {
                assert!((0.0..=1.0).contains(&r));
            }
        }
    }

    #[test]
    fn retention_decays_on_average() {
        // §5.3: "availability of workers decreases exponentially with
        // experience" — month-1 retention is far below month-0.
        let cohorts = monthly_cohorts(study());
        let mean = mean_retention(&cohorts, 6);
        assert!(mean[1] < 0.7, "m1 retention {}", mean[1]);
        assert!(mean[3] <= mean[1] + 0.1, "retention keeps decaying: {mean:?}");
    }

    #[test]
    fn cohorts_are_chronological() {
        let cohorts = monthly_cohorts(study());
        for w in cohorts.windows(2) {
            assert!(w[0].month_start < w[1].month_start);
        }
    }

    #[test]
    fn month_math_roundtrips() {
        for (y, m) in [(2012, 7), (2015, 1), (2016, 12)] {
            let t = Timestamp::from_ymd(y, m, 15);
            let idx = month_index(t);
            assert_eq!(month_start(idx).ymd(), (y, m, 1));
        }
    }

    #[test]
    fn empty_dataset() {
        let s = Study::new(crowd_core::DatasetBuilder::new().finish().unwrap());
        assert!(monthly_cohorts(&s).is_empty());
        assert_eq!(mean_retention(&[], 3), vec![0.0, 0.0, 0.0]);
    }
}
