//! Performance benches for the substrates: simulation throughput,
//! enrichment (clustering + metrics), HTML parsing/extraction,
//! statistics, the decision tree, and label aggregation (majority vote,
//! Dawid–Skene).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

use crowd_agg::{dawid_skene, majority_vote, DawidSkeneParams, Judgment};
use crowd_analytics::Study;
use crowd_bench::{bench_sim_config, bench_study};
use crowd_classify::tree::{DecisionTree, TreeParams};
use crowd_cluster::{ClusterParams, Clusterer};
use crowd_core::answer::{item_disagreement, Answer};
use crowd_html::extract_features;
use crowd_sim::simulate;
use crowd_stats::{welch_t_test, EmpiricalCdf};

fn bench_simulator(c: &mut Criterion) {
    let cfg = bench_sim_config();
    let n = simulate(&cfg).instances.len() as u64;
    let mut g = c.benchmark_group("simulator");
    g.sample_size(10);
    g.throughput(Throughput::Elements(n));
    g.bench_function("simulate_tiny", |b| b.iter(|| black_box(simulate(&cfg))));
    g.finish();
}

fn bench_enrichment(c: &mut Criterion) {
    let mut g = c.benchmark_group("enrichment");
    g.sample_size(10);
    g.bench_function("study_build", |b| {
        b.iter_batched(
            || simulate(&bench_sim_config()),
            |ds| black_box(Study::new(ds)),
            criterion::BatchSize::LargeInput,
        )
    });
    // Clustering alone.
    let study = bench_study();
    let docs: Vec<std::sync::Arc<str>> =
        study.dataset().batches.iter().filter_map(|b| b.html.clone()).collect();
    g.throughput(Throughput::Elements(docs.len() as u64));
    g.bench_function("cluster_batches", |b| {
        let clusterer = Clusterer::new(ClusterParams::default());
        b.iter(|| black_box(clusterer.cluster(&docs)))
    });
    g.bench_function("extract_features", |b| {
        b.iter(|| {
            for d in docs.iter().take(100) {
                black_box(extract_features(d).unwrap());
            }
        })
    });
    g.finish();
}

fn bench_primitives(c: &mut Criterion) {
    let mut g = c.benchmark_group("primitives");
    // Disagreement over a typical item answer set.
    let answers: Vec<Answer> = (0..5).map(|i| Answer::Choice(i % 3)).collect();
    g.bench_function("item_disagreement_k5", |b| b.iter(|| black_box(item_disagreement(&answers))));
    // Welch t-test on bin-sized samples.
    let a: Vec<f64> = (0..1_000).map(|i| (i % 97) as f64).collect();
    let bvals: Vec<f64> = (0..1_200).map(|i| (i % 89) as f64 + 3.0).collect();
    g.bench_function("welch_t_test_1k", |b| b.iter(|| black_box(welch_t_test(&a, &bvals))));
    // CDF construction.
    g.bench_function("cdf_build_1k", |b| b.iter(|| black_box(EmpiricalCdf::new(&a))));
    // Decision tree fit on §4.9-sized data.
    let x: Vec<Vec<f64>> = (0..3_000)
        .map(|i| vec![(i % 311) as f64, ((i * 7) % 101) as f64, f64::from(i % 2 == 0)])
        .collect();
    let y: Vec<usize> = (0..3_000).map(|i| (i % 311) / 32).collect();
    g.bench_function("tree_fit_3k", |b| {
        b.iter(|| black_box(DecisionTree::fit(&x, &y, 10, &TreeParams::default())))
    });
    g.finish();
}

fn bench_aggregation(c: &mut Criterion) {
    // A realistic batch: 500 items × 4 judgments, 40 workers, 3 classes.
    let judgments: Vec<Judgment> = (0..500u32)
        .flat_map(|item| {
            (0..4u32).map(move |r| Judgment {
                item,
                worker: (item * 7 + r * 13) % 40,
                label: (((item % 3) + u32::from(r == 3 && item % 5 == 0)) % 3) as u16,
            })
        })
        .collect();
    let mut g = c.benchmark_group("aggregation");
    g.bench_function("majority_2k_judgments", |b| {
        b.iter(|| black_box(majority_vote(&judgments, 3)))
    });
    g.bench_function("dawid_skene_2k_judgments", |b| {
        b.iter(|| black_box(dawid_skene(&judgments, 3, &DawidSkeneParams::default())))
    });
    g.finish();
}

criterion_group!(substrate, bench_simulator, bench_enrichment, bench_primitives, bench_aggregation);
criterion_main!(substrate);
