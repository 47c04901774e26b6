//! The §4.9 predictive setting: bucketize each metric into 10 buckets
//! (by range and by percentiles) and predict the bucket with a decision
//! tree over simple design features, under 5-fold cross-validation.

use crowd_classify::bucketize::Bucketization;
use crowd_classify::crossval::{k_fold, CvReport};
use crowd_classify::tree::TreeParams;

use crate::design::methodology::eligible_clusters;
use crate::design::metrics::Metric;
use crate::study::{ClusterInfo, Study};

/// The two §4.9 bucketization schemes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scheme {
    /// Uniform-width buckets over the metric's value range.
    ByRange,
    /// Equal-population buckets.
    ByPercentiles,
}

/// Number of buckets (§4.9: "we bucketize the range of values into 10").
pub const N_BUCKETS: usize = 10;
/// Folds for cross-validation (§4.9: "5-fold cross-validation").
pub const N_FOLDS: usize = 5;

/// Outcome of one prediction experiment.
#[derive(Debug, Clone)]
pub struct PredictionResult {
    /// The metric predicted.
    pub metric: Metric,
    /// The bucketization scheme.
    pub scheme: Scheme,
    /// Upper bound of each bucket (the paper prints these).
    pub bucket_upper_bounds: Vec<f64>,
    /// Clusters per bucket.
    pub bucket_counts: Vec<usize>,
    /// Cross-validated accuracies.
    pub cv: CvReport,
    /// Clusters used.
    pub n_clusters: usize,
}

/// §4.9 feature sets per metric:
/// * disagreement — `{#items, has-example, #words, #text-boxes}`;
/// * task-time — `{#items, has-image, #text-boxes}`;
/// * pickup-time — `{#items, has-example, has-image}`.
pub fn feature_vector(metric: Metric, c: &ClusterInfo) -> Vec<f64> {
    let has_example = f64::from(c.examples > 0.0);
    let has_image = f64::from(c.images > 0.0);
    match metric {
        Metric::Disagreement => vec![c.items, has_example, c.words, c.text_boxes],
        Metric::TaskTime => vec![c.items, has_image, c.text_boxes],
        Metric::PickupTime => vec![c.items, has_example, has_image],
    }
}

/// Runs one §4.9 experiment. Returns `None` when there are too few
/// clusters or the metric is constant.
pub fn predict(
    study: &Study,
    metric: Metric,
    scheme: Scheme,
    seed: u64,
) -> Option<PredictionResult> {
    let (clusters, values): (Vec<&ClusterInfo>, Vec<f64>) =
        eligible_clusters(study, None).filter_map(|c| Some((c, metric.of_cluster(c)?))).unzip();
    if clusters.len() < N_FOLDS * 4 {
        return None;
    }
    let buckets = match scheme {
        Scheme::ByRange => Bucketization::by_range(&values, N_BUCKETS)?,
        Scheme::ByPercentiles => Bucketization::by_percentiles(&values, N_BUCKETS)?,
    };
    let y: Vec<usize> = values.iter().map(|&v| buckets.bucket_of(v)).collect();
    let x: Vec<Vec<f64>> = clusters.iter().map(|c| feature_vector(metric, c)).collect();
    let cv = k_fold(&x, &y, N_BUCKETS, N_FOLDS, seed, &TreeParams::default());
    Some(PredictionResult {
        metric,
        scheme,
        bucket_counts: buckets.counts(&values),
        bucket_upper_bounds: buckets.upper_bounds.clone(),
        cv,
        n_clusters: clusters.len(),
    })
}

/// Runs all six §4.9 experiments (3 metrics × 2 schemes).
pub fn predict_all(study: &Study, seed: u64) -> Vec<PredictionResult> {
    let mut out = Vec::new();
    for metric in Metric::ALL {
        for scheme in [Scheme::ByRange, Scheme::ByPercentiles] {
            if let Some(r) = predict(study, metric, scheme, seed) {
                out.push(r);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn study() -> &'static Study {
        crate::testutil::default_study()
    }

    #[test]
    fn range_buckets_concentrate_time_metrics() {
        // §4.9: range bucketization of pickup/task time puts nearly all
        // clusters into the first bucket (the reported distribution is
        // [2906, 17, 8, 5, 1, 0, 0, 0, 0, 1]).
        let s = study();
        let r = predict(s, Metric::PickupTime, Scheme::ByRange, 1).unwrap();
        let first = r.bucket_counts[0] as f64;
        let total: usize = r.bucket_counts.iter().sum();
        assert!(first / total as f64 > 0.65, "skew (98.9% at paper scale): {:?}", r.bucket_counts);
    }

    #[test]
    fn range_accuracy_is_high_for_time_metrics() {
        // §4.9: 95% (task-time) and 98% (pickup-time) exact-bucket accuracy
        // under range bucketization — driven by the skew.
        let s = study();
        let t = predict(s, Metric::TaskTime, Scheme::ByRange, 2).unwrap();
        assert!(t.cv.accuracy > 0.6, "task-time accuracy {}", t.cv.accuracy);
        let p = predict(s, Metric::PickupTime, Scheme::ByRange, 2).unwrap();
        assert!(p.cv.accuracy > 0.6, "pickup accuracy {}", p.cv.accuracy);
        assert!(p.cv.accuracy > 0.3, "well above the 10% chance floor");
    }

    #[test]
    fn disagreement_tolerance_boost() {
        // §4.9: disagreement at 39% exact / 62% within one bucket — the
        // tolerance materially helps.
        let s = study();
        let d = predict(s, Metric::Disagreement, Scheme::ByRange, 3).unwrap();
        assert!(d.cv.accuracy > 0.15, "better than chance: {}", d.cv.accuracy);
        assert!(
            d.cv.accuracy_within_1 > d.cv.accuracy + 0.05,
            "±1 bucket helps: {} vs {}",
            d.cv.accuracy_within_1,
            d.cv.accuracy
        );
    }

    #[test]
    fn percentile_scheme_is_harder() {
        // §4.9: "for the percentile-bucketization … the classification
        // problem is much harder".
        let s = study();
        for metric in [Metric::TaskTime, Metric::PickupTime] {
            let range = predict(s, metric, Scheme::ByRange, 4).unwrap();
            let pct = predict(s, metric, Scheme::ByPercentiles, 4).unwrap();
            assert!(
                pct.cv.accuracy < range.cv.accuracy,
                "{:?}: percentile {} < range {}",
                metric,
                pct.cv.accuracy,
                range.cv.accuracy
            );
        }
    }

    #[test]
    fn percentile_beats_chance_with_tolerance() {
        // §4.9: ~40% within-1 accuracy vs a 10-bucket chance floor.
        let s = study();
        let d = predict(s, Metric::Disagreement, Scheme::ByPercentiles, 5).unwrap();
        assert!(d.cv.accuracy_within_1 > 0.28, "{}", d.cv.accuracy_within_1);
    }

    #[test]
    fn all_six_experiments_run() {
        let s = study();
        let all = predict_all(s, 6);
        assert_eq!(all.len(), 6);
        for r in &all {
            assert_eq!(r.bucket_upper_bounds.len(), N_BUCKETS);
            assert_eq!(r.bucket_counts.iter().sum::<usize>(), r.n_clusters);
            assert_eq!(r.cv.folds, N_FOLDS);
        }
    }

    #[test]
    fn feature_vectors_match_paper_sets() {
        let s = study();
        let c = &s.clusters()[0];
        assert_eq!(feature_vector(Metric::Disagreement, c).len(), 4);
        assert_eq!(feature_vector(Metric::TaskTime, c).len(), 3);
        assert_eq!(feature_vector(Metric::PickupTime, c).len(), 3);
    }
}
