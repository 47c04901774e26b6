//! Redundancy analysis: how many judgments does the marketplace collect
//! per item, and does redundancy track task ambiguity?
//!
//! §4.1 motivates the disagreement metric as the signal requesters use to
//! set "the level of redundancy (e.g., more redundancy for confusing
//! questions)". This module measures the realized redundancy from the
//! instance rows.

use std::collections::BTreeMap;

use crowd_stats::descriptive::{median, Summary};

use crate::study::Study;

/// Redundancy statistics over a study.
#[derive(Debug, Clone)]
pub struct RedundancyStats {
    /// Judgments-per-item summary across all items.
    pub per_item: Summary,
    /// Median redundancy per cluster (aligned with `cluster_ids`).
    pub per_cluster_median: Vec<f64>,
    /// Cluster ids for `per_cluster_median`.
    pub cluster_ids: Vec<u32>,
    /// Fraction of items with at least two judgments (pairwise
    /// disagreement defined, §4.1).
    pub pairable_fraction: f64,
}

/// Computes redundancy statistics. `None` on an empty dataset.
pub fn redundancy(study: &Study) -> Option<RedundancyStats> {
    // Judgments per (batch, item), from the fused scan. Ascending key
    // order matters: `Summary::of` folds the counts in iteration order,
    // and a hash map's per-process random seed would wobble the
    // mean/stddev in the last ulp across processes. Emptiness is judged
    // on the fused counts too — `ds.instances` is empty for every
    // columns-optional study.
    let per_item = &study.fused().per_item;
    if per_item.is_empty() {
        return None;
    }
    let counts: Vec<f64> = per_item.iter().map(|&(_, c)| f64::from(c)).collect();
    let pairable = per_item.iter().filter(|&&(_, c)| c >= 2).count() as f64 / per_item.len() as f64;

    // Per-cluster medians.
    let mut batch_cluster: BTreeMap<u32, u32> = BTreeMap::new();
    for m in study.enriched_batches() {
        batch_cluster.insert(m.batch.raw(), m.cluster);
    }
    let mut by_cluster: BTreeMap<u32, Vec<f64>> = BTreeMap::new();
    for &((batch, _), count) in per_item {
        if let Some(&cluster) = batch_cluster.get(&batch) {
            by_cluster.entry(cluster).or_default().push(f64::from(count));
        }
    }
    let (cluster_ids, per_cluster_median) =
        by_cluster.iter().filter_map(|(&c, counts)| Some((c, median(counts)?))).unzip();

    Some(RedundancyStats {
        per_item: Summary::of(&counts)?,
        per_cluster_median,
        cluster_ids,
        pairable_fraction: pairable,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn study() -> &'static Study {
        crate::testutil::tiny_study()
    }

    #[test]
    fn redundancy_matches_marketplace_practice() {
        let r = redundancy(study()).unwrap();
        // The marketplace collects multiple judgments per item for
        // majority-vote aggregation (§4.1) — mean ≈ 3.
        assert!((2.0..=5.0).contains(&r.per_item.mean), "mean redundancy {}", r.per_item.mean);
        assert!(r.per_item.min >= 1.0);
        assert!(r.pairable_fraction > 0.98, "{}", r.pairable_fraction);
    }

    #[test]
    fn per_cluster_vectors_align() {
        let r = redundancy(study()).unwrap();
        assert_eq!(r.per_cluster_median.len(), r.cluster_ids.len());
        assert_eq!(r.cluster_ids.len(), study().clusters().len());
        for &m in &r.per_cluster_median {
            assert!(m >= 1.0);
        }
    }

    #[test]
    fn empty_dataset_yields_none() {
        let s = Study::new(crowd_core::DatasetBuilder::new().finish().unwrap());
        assert!(redundancy(&s).is_none());
    }
}
