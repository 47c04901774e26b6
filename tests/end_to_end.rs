//! End-to-end pipeline tests: simulate → CSV round-trip → enrich →
//! analyze, at test scale.

use std::sync::OnceLock;

use crowd_marketplace::analytics::Study;
use crowd_marketplace::prelude::*;

fn study() -> &'static Study {
    static S: OnceLock<Study> = OnceLock::new();
    S.get_or_init(|| Study::new(simulate(&SimConfig::tiny(2024))))
}

#[test]
fn simulation_is_deterministic_end_to_end() {
    let a = simulate(&SimConfig::tiny(5));
    let b = simulate(&SimConfig::tiny(5));
    assert_eq!(a.instances, b.instances);
    assert_eq!(a.batches, b.batches);
    assert_eq!(a.workers, b.workers);
}

#[test]
fn csv_roundtrip_preserves_everything() {
    let ds = simulate(&SimConfig::new(6, 0.0005));
    let dir = std::env::temp_dir().join(format!("crowd_e2e_{}", std::process::id()));
    crowd_core::csv::export_dir(&ds, &dir).expect("export");
    let opts = crowd_ingest::IngestOptions {
        budget: crowd_core::provenance::ErrorBudget::strict(),
        ..crowd_ingest::IngestOptions::default()
    };
    let ingested = crowd_ingest::ingest_dir(&dir, &opts).expect("import");
    assert!(ingested.report.is_clean(), "{}", ingested.report.summary());
    let back = ingested.dataset;
    assert_eq!(ds.instances.len(), back.instances.len());
    // Ingest puts instance rows in its canonical order, so the rows must
    // match as a multiset, record for record.
    let records = |d: &Dataset| {
        let mut out: Vec<String> = d
            .instances
            .iter()
            .map(|row| {
                let mut rec = String::new();
                crowd_core::csv::instance_record(row, &mut rec);
                rec
            })
            .collect();
        out.sort_unstable();
        out
    };
    assert_eq!(records(&ds), records(&back));
    assert_eq!(ds.batches, back.batches);
    assert_eq!(ds.task_types, back.task_types);
    assert_eq!(ds.workers, back.workers);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn enrichment_covers_the_sample() {
    let s = study();
    let sampled = s.dataset().batches.iter().filter(|b| b.sampled).count();
    assert_eq!(s.enriched_batches().count(), sampled);
    assert!(s.clusters().len() > 50);
    // Every instance is reachable through exactly one enriched batch.
    let total: u32 = s.enriched_batches().map(|m| m.n_instances).sum();
    assert_eq!(total as usize, s.dataset().instances.len());
}

#[test]
fn every_analysis_runs_on_the_same_study() {
    use crowd_marketplace::analytics::design::{
        drilldown, methodology, metrics, prediction, summary,
    };
    use crowd_marketplace::analytics::marketplace::{arrivals, availability, labels, load, trends};
    use crowd_marketplace::analytics::workers::{geography, lifetimes, sources, workload};

    let s = study();
    // §3
    assert!(!arrivals::weekly(s).weeks.is_empty());
    assert!(arrivals::by_weekday(s).iter().sum::<u64>() > 0);
    assert!(availability::weekly_workers(s).active_workers.iter().any(|&c| c > 0));
    assert!(availability::engagement_split(s).top10_task_share > 0.0);
    assert!(!load::cluster_load(s).batches_per_cluster.is_empty());
    assert!(!load::heavy_hitters(s, 10).is_empty());
    assert!(labels::goal_distribution(s).total() > 0);
    assert!(!trends::goal_trend(s).weeks.is_empty());
    // §4
    assert!(metrics::latency_decomposition(s).median_pickup_to_task_ratio > 1.0);
    assert_eq!(methodology::full_grid(s).len(), 15);
    assert_eq!(summary::disagreement_table(s).rows.len(), 4);
    assert_eq!(drilldown::fig25_panels(s).len(), 8);
    assert!(!prediction::predict_all(s, 1).is_empty());
    // §5
    assert!(!sources::per_source(s).is_empty());
    assert!(geography::distribution(s).total_workers > 0);
    assert!(!workload::distribution(s).tasks_by_rank.is_empty());
    assert!(!lifetimes::lifetime_stats(s).lifetimes_days.is_empty());
}

#[test]
fn html_enrichment_matches_batch_interfaces() {
    // The features the Study extracts from batch HTML must agree with an
    // independent extraction pass over the same markup.
    let s = study();
    for m in s.enriched_batches().take(100) {
        let html = s.dataset().batch(m.batch).html.as_ref().expect("sampled batch has HTML");
        let f = crowd_html::extract_features(html).expect("valid HTML");
        assert_eq!(f, m.features);
    }
}

#[test]
fn clusters_recover_planted_task_types() {
    // §3.3: the HTML-similarity clustering should recover the generator's
    // task types with high purity.
    let s = study();
    let ds = s.dataset();
    // Purity: for each cluster, the share of its batches belonging to the
    // cluster's majority type.
    let mut pure = 0usize;
    let mut total = 0usize;
    for c in s.clusters() {
        let mut counts = std::collections::HashMap::new();
        for &b in &c.batches {
            *counts.entry(ds.batch(b).task_type).or_insert(0usize) += 1;
        }
        let majority = counts.values().max().copied().unwrap_or(0);
        pure += majority;
        total += c.batches.len();
    }
    let purity = pure as f64 / total as f64;
    assert!(purity > 0.97, "cluster purity {purity}");
    // Completeness: few types split across many clusters.
    let mut clusters_of_type = std::collections::HashMap::new();
    for m in s.enriched_batches() {
        clusters_of_type
            .entry(ds.batch(m.batch).task_type)
            .or_insert_with(std::collections::HashSet::new)
            .insert(m.cluster);
    }
    let split = clusters_of_type.values().filter(|set| set.len() > 1).count();
    let frac = split as f64 / clusters_of_type.len() as f64;
    assert!(frac < 0.10, "split-type fraction {frac}");
}

#[test]
fn repro_pipeline_is_seed_sensitive() {
    let a = Study::new(simulate(&SimConfig::tiny(1)));
    let b = Study::new(simulate(&SimConfig::tiny(2)));
    assert_ne!(
        a.dataset().instances.len(),
        b.dataset().instances.len(),
        "different seeds produce different histories"
    );
}

#[test]
fn validation_rejects_corrupted_dataset() {
    let mut ds = simulate(&SimConfig::new(9, 0.0005));
    assert!(ds.validate().is_ok());
    ds.instances.set_trust(0, 7.0);
    assert!(ds.validate().is_err());
}
