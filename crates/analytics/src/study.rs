//! The enriched study context (paper §2.4): clustering, design-parameter
//! extraction, and effectiveness metrics over a raw dataset.

use std::collections::{BTreeMap, HashMap};
use std::sync::OnceLock;

use crowd_cluster::{ClusterParams, Clusterer, Clustering};
use crowd_core::answer::{item_disagreement, item_disagreement_ref};
use crowd_core::prelude::*;
use crowd_html::{extract_features, ExtractedFeatures};
use crowd_stats::descriptive::{median, median_inplace};
use rayon::prelude::*;

use crate::fused::Fused;

/// Per-batch enrichment: extracted design features plus the three §4.1
/// effectiveness metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchMetrics {
    /// The batch.
    pub batch: BatchId,
    /// Cluster id assigned by HTML-similarity clustering (§3.3).
    pub cluster: u32,
    /// Instances observed in the batch.
    pub n_instances: u32,
    /// Distinct items the batch operated on (`#items`, §4.5).
    pub n_items: u32,
    /// Disagreement score (§4.1); `None` when no item has ≥ 2 judgments.
    pub disagreement: Option<f64>,
    /// Median task time in seconds (§4.1 "cost").
    pub task_time: Option<f64>,
    /// Median pickup time in seconds (§4.1 "latency").
    pub pickup_time: Option<f64>,
    /// Design parameters extracted from the batch's sample HTML (§2.4).
    pub features: ExtractedFeatures,
}

/// Cluster-level aggregate: medians across member batches (§4.2 step 1).
#[derive(Debug, Clone)]
pub struct ClusterInfo {
    /// Dense cluster id.
    pub id: u32,
    /// Member batches (sampled only), in dataset order.
    pub batches: Vec<BatchId>,
    /// Total instances across member batches.
    pub n_instances: u64,
    /// Whether manual labels are available (§2.4: ~83%).
    pub labeled: bool,
    /// Goal labels of the cluster's majority task type.
    pub goals: LabelSet<Goal>,
    /// Operator labels.
    pub operators: LabelSet<Operator>,
    /// Data-type labels.
    pub data_types: LabelSet<DataType>,
    /// Median `#words` across member batches.
    pub words: f64,
    /// Median `#text-box`.
    pub text_boxes: f64,
    /// Median `#examples`.
    pub examples: f64,
    /// Median `#images`.
    pub images: f64,
    /// Median `#items`.
    pub items: f64,
    /// Median disagreement across member batches.
    pub disagreement: Option<f64>,
    /// Median task-time (seconds).
    pub task_time: Option<f64>,
    /// Median pickup-time (seconds).
    pub pickup_time: Option<f64>,
    /// Week of the cluster's earliest batch (for §3.5 trends).
    pub first_week: WeekIndex,
}

/// The provider a columns-optional [`Study`] defers its fused scan to
/// (see [`Study::from_enrichment_streamed`]).
pub type FusedSource = Box<dyn Fn(&Study) -> Fused + Send + Sync>;

/// The enriched dataset all analyses run on.
///
/// A study normally holds the full instance table in `ds`. In
/// **columns-optional** mode
/// ([`from_enrichment_streamed`](Study::from_enrichment_streamed)) `ds`
/// carries only the entity tables — the instance rows live elsewhere (a
/// sharded snapshot file), [`n_instances`](Study::n_instances) reports the
/// true row count, and the fused scan is produced by an injected source
/// that streams the rows back one shard at a time. Analytics functions
/// that consume only the fused cache (all of them, post-§15) behave
/// identically in both modes.
pub struct Study {
    ds: Dataset,
    index: DatasetIndex,
    /// Parallel to `ds.batches`; `None` for unsampled batches.
    batch_metrics: Vec<Option<BatchMetrics>>,
    clusters: Vec<ClusterInfo>,
    /// Instance rows the study covers — `ds.instances.len()` when the
    /// columns are resident, the streamed row count otherwise.
    n_rows: usize,
    /// Columns-optional fused provider; `None` means scan `ds.instances`.
    fused_source: Option<FusedSource>,
    /// Raw instance-table aggregates from the one fused scan, computed on
    /// first use (most analytics functions only shape this cache). The
    /// instance rows are immutable once the study owns them, so the memo
    /// can never go stale.
    fused: OnceLock<Fused>,
    /// Load provenance when the dataset came through the resilient ingest
    /// path (`None` for simulated or trusted-import datasets).
    ingest: Option<IngestReport>,
}

impl Study {
    /// Enriches a dataset with default clustering parameters.
    pub fn new(ds: Dataset) -> Study {
        Study::with_cluster_params(ds, ClusterParams::default())
    }

    /// Enriches with explicit clustering parameters (the paper reports
    /// tuning the match threshold by inspection, §3.3).
    pub fn with_cluster_params(ds: Dataset, params: ClusterParams) -> Study {
        // ---- §3.3: cluster sampled batches by HTML similarity ----------
        let clustering = {
            let (_ids, docs) = sampled_docs(&ds);
            Clusterer::new(params).cluster(&docs)
        };
        let index = ds.index();
        let metrics = enrich_batches(&ds, &index, &clustering);
        Study::assemble(ds, index, metrics)
    }

    /// Columns-optional constructor, built from already computed per-batch
    /// enrichment: `entities` carries every table *except* instances (its
    /// instance table must be empty), `n_rows` is the true row count, and
    /// `fused_source` produces the fused scan on first use — typically by
    /// streaming shard sections back off disk, so no more than one shard
    /// of rows is ever resident. `metrics` must be the sampled batches in
    /// dataset order, with dense cluster ids, exactly as
    /// [`enrich_batches`] produces (and as `crowd-snapshot` validates on
    /// decode).
    ///
    /// # Panics
    /// If `entities` already holds instance rows (that would make
    /// [`n_instances`](Self::n_instances) ambiguous).
    pub fn from_enrichment_streamed(
        entities: Dataset,
        metrics: Vec<BatchMetrics>,
        n_rows: usize,
        fused_source: impl Fn(&Study) -> Fused + Send + Sync + 'static,
    ) -> Study {
        assert!(
            entities.instances.is_empty(),
            "columns-optional studies are built from entity-only datasets"
        );
        let index = entities.index();
        let mut study = Study::assemble(entities, index, metrics);
        study.n_rows = n_rows;
        study.fused_source = Some(Box::new(fused_source));
        study
    }

    /// Shared tail of every constructor: scatter metrics into the
    /// batch-indexed table and aggregate clusters.
    fn assemble(ds: Dataset, index: DatasetIndex, metrics: Vec<BatchMetrics>) -> Study {
        // Labels are dense, so the cluster count is one past the largest.
        let n_clusters = metrics.iter().map(|m| m.cluster).max().map_or(0, |m| m as usize + 1);
        let mut batch_metrics: Vec<Option<BatchMetrics>> = vec![None; ds.batches.len()];
        for metrics in metrics {
            let slot = metrics.batch.index();
            batch_metrics[slot] = Some(metrics);
        }
        let clusters = aggregate_clusters(&ds, &batch_metrics, n_clusters);
        let n_rows = ds.instances.len();
        Study {
            ds,
            index,
            batch_metrics,
            clusters,
            n_rows,
            fused_source: None,
            fused: OnceLock::new(),
            ingest: None,
        }
    }

    /// Attaches the [`IngestReport`] the dataset was loaded under, so every
    /// analysis downstream can state its input coverage.
    pub fn with_ingest_report(mut self, report: IngestReport) -> Study {
        self.ingest = Some(report);
        self
    }

    /// Load provenance, when the dataset came through resilient ingest.
    pub fn ingest_report(&self) -> Option<&IngestReport> {
        self.ingest.as_ref()
    }

    /// The fused instance-table aggregates (one [`ScanPass`] run, cached).
    ///
    /// Public so `crowd-testkit` can differential-test the fused engine
    /// against its straight-line oracles; analytics callers should prefer
    /// the shaped module functions. Data that changes belongs in a
    /// [`crate::view::FusedView`], which applies deltas instead of
    /// memoizing one scan.
    pub fn fused(&self) -> &Fused {
        self.fused.get_or_init(|| match &self.fused_source {
            Some(source) => source(self),
            None => crate::fused::compute(self),
        })
    }

    /// The underlying dataset. In columns-optional mode the instance table
    /// is empty — use [`n_instances`](Self::n_instances) for the row
    /// count, never `dataset().instances.len()`.
    pub fn dataset(&self) -> &Dataset {
        &self.ds
    }

    /// Instance rows the study covers, independent of whether the columns
    /// are resident.
    pub fn n_instances(&self) -> usize {
        self.n_rows
    }

    /// Navigation indexes.
    pub fn index(&self) -> &DatasetIndex {
        &self.index
    }

    /// Enrichment for one batch (`None` for unsampled batches).
    pub fn batch_metrics(&self, batch: BatchId) -> Option<&BatchMetrics> {
        self.batch_metrics[batch.index()].as_ref()
    }

    /// All enriched batches, in dataset order.
    pub fn enriched_batches(&self) -> impl Iterator<Item = &BatchMetrics> {
        self.batch_metrics.iter().flatten()
    }

    /// All clusters.
    pub fn clusters(&self) -> &[ClusterInfo] {
        &self.clusters
    }

    /// Labeled clusters only — the ~3,200 the paper's §4 analysis uses.
    pub fn labeled_clusters(&self) -> impl Iterator<Item = &ClusterInfo> {
        self.clusters.iter().filter(|c| c.labeled)
    }

    /// Pickup latency of an instance (start − batch creation).
    pub fn pickup_secs(&self, inst: InstanceRef<'_>) -> f64 {
        self.ds.pickup_time(inst).as_secs() as f64
    }
}

/// The sampled batches, in dataset order, paired with the HTML documents
/// clustering runs over (missing pages cluster as the empty string).
///
/// This is *the* positional contract shared by clustering, enrichment,
/// and the snapshot format: index `pos` in the returned vectors, in a
/// [`Clustering`], in `Derived::labels`, and in persisted metrics all
/// name the same batch.
pub fn sampled_docs(ds: &Dataset) -> (Vec<BatchId>, Vec<&str>) {
    let sampled: Vec<BatchId> = ds
        .batches
        .iter()
        .enumerate()
        .filter(|(_, b)| b.sampled)
        .map(|(i, _)| BatchId::from_usize(i))
        .collect();
    let docs: Vec<&str> =
        sampled.iter().map(|&b| ds.batch(b).html.as_deref().unwrap_or("")).collect();
    (sampled, docs)
}

/// §2.4 + §4.1: per-batch features and metrics for every sampled batch,
/// in dataset order. Enrichment is independent per batch: fan it out
/// across threads and collect in sampled order — the result is
/// position-determined, hence thread-count-invariant.
///
/// # Panics
/// If `clustering` was not computed over exactly the sampled batches
/// (one label per sampled batch, positionally).
pub fn enrich_batches(
    ds: &Dataset,
    index: &DatasetIndex,
    clustering: &Clustering,
) -> Vec<BatchMetrics> {
    let (sampled, _docs) = sampled_docs(ds);
    assert_eq!(
        clustering.labels().len(),
        sampled.len(),
        "clustering must cover exactly the sampled batches"
    );
    let indexed: Vec<(usize, BatchId)> = sampled.iter().copied().enumerate().collect();
    indexed
        .par_iter()
        .map(|&(pos, batch)| compute_batch_metrics(ds, index, batch, clustering.cluster_of(pos)))
        .collect()
}

thread_local! {
    /// Per-thread `(pickups, times, item_scores)` scratch for
    /// [`compute_batch_metrics`]: the float piles are cleared (capacity
    /// kept) between batches, so the parallel enrichment fan-out only
    /// allocates while a thread's high-water batch size still grows.
    /// `by_item` cannot join them — it borrows `&Answer` from the dataset,
    /// and a thread-local must be `'static`.
    static METRIC_SCRATCH: std::cell::RefCell<(Vec<f64>, Vec<f64>, Vec<f64>)> =
        const { std::cell::RefCell::new((Vec::new(), Vec::new(), Vec::new())) };
}

fn compute_batch_metrics(
    ds: &Dataset,
    index: &DatasetIndex,
    batch: BatchId,
    cluster: u32,
) -> BatchMetrics {
    METRIC_SCRATCH.with(|scratch| {
        let (pickups, times, item_scores) = &mut *scratch.borrow_mut();
        pickups.clear();
        times.clear();
        item_scores.clear();

        let created = ds.batch(batch).created_at;
        // BTreeMap, not HashMap: the disagreement average below sums floats in
        // map-iteration order, and f64 addition rounding depends on that order.
        // A randomized hash order would make the last ulp of the score vary
        // from run to run (and thread pool to thread pool); item-id order fixes
        // the sum bit-for-bit.
        let mut by_item: BTreeMap<u32, Vec<&Answer>> = BTreeMap::new();
        let mut n_instances = 0u32;
        for inst_id in index.instances_of_batch(batch) {
            let inst = ds.instance(inst_id);
            n_instances += 1;
            pickups.push((inst.start - created).as_secs() as f64);
            times.push(inst.work_time().as_secs() as f64);
            by_item.entry(inst.item.raw()).or_default().push(inst.answer);
        }
        let n_items = by_item.len() as u32;

        // §4.1: average item-level pairwise disagreement.
        for answers in by_item.values() {
            if let Some(score) = item_disagreement_ref(answers) {
                item_scores.push(score);
            }
        }
        let disagreement = if item_scores.is_empty() {
            None
        } else {
            Some(item_scores.iter().sum::<f64>() / item_scores.len() as f64)
        };

        let features = ds
            .batch(batch)
            .html
            .as_deref()
            .and_then(|h| extract_features(h).ok())
            .unwrap_or_default();

        BatchMetrics {
            batch,
            cluster,
            n_instances,
            n_items,
            disagreement,
            task_time: median(times),
            pickup_time: median(pickups),
            features,
        }
    })
}

/// Streaming replacement for the per-batch half of [`enrich_batches`]: a
/// [`ShardSink`] that folds each flushed shard into per-batch metric
/// piles during a cold build, so enrichment never needs the full instance
/// table resident. Feature extraction (batch-scale, HTML-driven) happens
/// in [`finish`](StreamingEnricher::finish), off the resident entity
/// tables.
///
/// Relies on the simulator's delivery contract: rows arrive grouped by
/// batch, batches in ascending id order — exactly the order
/// `DatasetIndex::instances_of_batch` replays them in, so every pile (and
/// every float fold over it) matches `compute_batch_metrics`
/// bit-for-bit. At most one batch's pile is open at a time; finished
/// batches reduce to a handful of scalars immediately.
pub struct StreamingEnricher {
    /// Batch creation times, copied from the entity tables (batch-scale).
    created: Vec<Timestamp>,
    /// Sampled flag per batch — only sampled batches get piles.
    sampled: Vec<bool>,
    /// The open pile (sampled batches only).
    current: Option<BatchPile>,
    /// Last batch id seen, for the grouped-ascending assertion.
    last_batch: Option<usize>,
    /// Reduced per-batch stats, indexed by batch id.
    cores: Vec<Option<BatchCore>>,
    rows: usize,
    /// Recycled pile buffers: closing a pile returns its float piles and
    /// per-item answer vectors here (cleared, capacity kept), so the
    /// one-open-pile-at-a-time loop stops allocating once the high-water
    /// batch shape has been seen.
    spare_pickups: Vec<f64>,
    spare_times: Vec<f64>,
    spare_scores: Vec<f64>,
    spare_answer_vecs: Vec<Vec<Answer>>,
}

/// The in-flight accumulation for one sampled batch.
struct BatchPile {
    batch: usize,
    created: Timestamp,
    n_instances: u32,
    pickups: Vec<f64>,
    times: Vec<f64>,
    by_item: BTreeMap<u32, Vec<Answer>>,
}

/// One sampled batch's reduced metrics (everything of [`BatchMetrics`]
/// that needs instance rows).
#[derive(Clone, Copy)]
struct BatchCore {
    n_instances: u32,
    n_items: u32,
    disagreement: Option<f64>,
    task_time: Option<f64>,
    pickup_time: Option<f64>,
}

impl StreamingEnricher {
    /// An enricher for the batches of `entities` (instance table ignored).
    pub fn new(entities: &Dataset) -> StreamingEnricher {
        StreamingEnricher {
            created: entities.batches.iter().map(|b| b.created_at).collect(),
            sampled: entities.batches.iter().map(|b| b.sampled).collect(),
            current: None,
            last_batch: None,
            cores: vec![None; entities.batches.len()],
            rows: 0,
            spare_pickups: Vec::new(),
            spare_times: Vec::new(),
            spare_scores: Vec::new(),
            spare_answer_vecs: Vec::new(),
        }
    }

    /// Rows folded so far.
    pub fn rows(&self) -> usize {
        self.rows
    }

    fn close_pile(&mut self) {
        let Some(mut pile) = self.current.take() else { return };
        // Mirror of `compute_batch_metrics`, fold for fold: same median
        // function, same item-id iteration order for the disagreement sum.
        let mut item_scores = std::mem::take(&mut self.spare_scores);
        item_scores.clear();
        for answers in pile.by_item.values() {
            if let Some(score) = item_disagreement(answers) {
                item_scores.push(score);
            }
        }
        let disagreement = if item_scores.is_empty() {
            None
        } else {
            Some(item_scores.iter().sum::<f64>() / item_scores.len() as f64)
        };
        self.cores[pile.batch] = Some(BatchCore {
            n_instances: pile.n_instances,
            n_items: pile.by_item.len() as u32,
            disagreement,
            task_time: median(&pile.times),
            pickup_time: median(&pile.pickups),
        });
        // Recycle the pile's buffers for the next sampled batch.
        self.spare_scores = item_scores;
        pile.pickups.clear();
        self.spare_pickups = pile.pickups;
        pile.times.clear();
        self.spare_times = pile.times;
        for (_, mut v) in std::mem::take(&mut pile.by_item) {
            v.clear();
            self.spare_answer_vecs.push(v);
        }
    }

    /// Closes the last pile and assembles [`BatchMetrics`] for **every**
    /// sampled batch of `entities` (zero-instance ones included), in
    /// dataset order with `clustering`'s positional labels — the exact
    /// output contract of [`enrich_batches`].
    ///
    /// # Panics
    /// If `clustering` does not cover exactly the sampled batches.
    pub fn finish(mut self, entities: &Dataset, clustering: &Clustering) -> Vec<BatchMetrics> {
        self.close_pile();
        let (sampled, _docs) = sampled_docs(entities);
        assert_eq!(
            clustering.labels().len(),
            sampled.len(),
            "clustering must cover exactly the sampled batches"
        );
        let indexed: Vec<(usize, BatchId)> = sampled.iter().copied().enumerate().collect();
        indexed
            .par_iter()
            .map(|&(pos, batch)| {
                let core = self.cores[batch.index()].unwrap_or(BatchCore {
                    n_instances: 0,
                    n_items: 0,
                    disagreement: None,
                    task_time: None,
                    pickup_time: None,
                });
                let features = entities
                    .batch(batch)
                    .html
                    .as_deref()
                    .and_then(|h| extract_features(h).ok())
                    .unwrap_or_default();
                BatchMetrics {
                    batch,
                    cluster: clustering.cluster_of(pos),
                    n_instances: core.n_instances,
                    n_items: core.n_items,
                    disagreement: core.disagreement,
                    task_time: core.task_time,
                    pickup_time: core.pickup_time,
                    features,
                }
            })
            .collect()
    }
}

impl ShardSink for StreamingEnricher {
    type Error = std::convert::Infallible;

    fn flush(
        &mut self,
        base: usize,
        shard: &InstanceColumns,
    ) -> std::result::Result<(), Self::Error> {
        assert_eq!(base, self.rows, "shards must arrive contiguously in ascending order");
        for row in shard.iter() {
            let bi = row.batch.index();
            if self.last_batch != Some(bi) {
                if let Some(last) = self.last_batch {
                    assert!(bi > last, "rows must arrive grouped by batch, batches ascending");
                }
                self.close_pile();
                self.last_batch = Some(bi);
                if self.sampled[bi] {
                    self.current = Some(BatchPile {
                        batch: bi,
                        created: self.created[bi],
                        n_instances: 0,
                        pickups: std::mem::take(&mut self.spare_pickups),
                        times: std::mem::take(&mut self.spare_times),
                        by_item: BTreeMap::new(),
                    });
                }
            }
            // Disjoint field borrows: the pool feeds `or_insert_with`
            // while the pile is mutably borrowed.
            let spare_answer_vecs = &mut self.spare_answer_vecs;
            if let Some(pile) = &mut self.current {
                pile.n_instances += 1;
                pile.pickups.push((row.start - pile.created).as_secs() as f64);
                pile.times.push(row.work_time().as_secs() as f64);
                pile.by_item
                    .entry(row.item.raw())
                    .or_insert_with(|| spare_answer_vecs.pop().unwrap_or_default())
                    .push(row.answer.clone());
            }
        }
        self.rows += shard.len();
        Ok(())
    }
}

fn aggregate_clusters(
    ds: &Dataset,
    batch_metrics: &[Option<BatchMetrics>],
    n_clusters: usize,
) -> Vec<ClusterInfo> {
    let mut members: Vec<Vec<&BatchMetrics>> = vec![Vec::new(); n_clusters];
    for m in batch_metrics.iter().flatten() {
        members[m.cluster as usize].push(m);
    }

    // Per-cluster medians are independent; compute them across threads in
    // cluster-id order (the nonempty list is ordered, and the parallel map
    // preserves input order, so output is thread-count-invariant).
    let nonempty: Vec<(usize, &Vec<&BatchMetrics>)> =
        members.iter().enumerate().filter(|(_, ms)| !ms.is_empty()).collect();
    nonempty
        .par_iter()
        .map(|&(id, ms)| {
            // Majority task type supplies the cluster's manual labels
            // (the paper labels one task per cluster, §3.4).
            let mut type_votes: HashMap<TaskTypeId, usize> = HashMap::new();
            for m in ms {
                *type_votes.entry(ds.batch(m.batch).task_type).or_insert(0) += 1;
            }
            let majority = type_votes
                .iter()
                .max_by_key(|&(_, &c)| c)
                .map(|(&t, _)| t)
                .expect("non-empty cluster");
            let tt = ds.task_type(majority);

            // Selection, not a full sort: these scratch vectors are
            // rebuilt per cluster, so the O(n log n) sort inside `median`
            // was pure overhead.
            let med = |f: &dyn Fn(&BatchMetrics) -> Option<f64>| {
                let mut vals: Vec<f64> = ms.iter().filter_map(|m| f(m)).collect();
                median_inplace(&mut vals)
            };
            let medf = |f: &dyn Fn(&BatchMetrics) -> f64| {
                let mut vals: Vec<f64> = ms.iter().map(|m| f(m)).collect();
                median_inplace(&mut vals).unwrap_or(0.0)
            };

            ClusterInfo {
                id: id as u32,
                batches: ms.iter().map(|m| m.batch).collect(),
                n_instances: ms.iter().map(|m| u64::from(m.n_instances)).sum(),
                labeled: tt.is_labeled(),
                goals: tt.goals,
                operators: tt.operators,
                data_types: tt.data_types,
                words: medf(&|m| f64::from(m.features.words)),
                text_boxes: medf(&|m| f64::from(m.features.text_boxes)),
                examples: medf(&|m| f64::from(m.features.examples)),
                images: medf(&|m| f64::from(m.features.images)),
                items: medf(&|m| f64::from(m.n_items)),
                disagreement: med(&|m| m.disagreement),
                task_time: med(&|m| m.task_time),
                pickup_time: med(&|m| m.pickup_time),
                first_week: ms
                    .iter()
                    .map(|m| ds.batch(m.batch).created_at.week())
                    .min()
                    .expect("non-empty cluster"),
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
    fn enriches_every_sampled_batch() {
        let s = study();
        let sampled = s.dataset().batches.iter().filter(|b| b.sampled).count();
        assert_eq!(s.enriched_batches().count(), sampled);
        for (i, b) in s.dataset().batches.iter().enumerate() {
            assert_eq!(
                s.batch_metrics(BatchId::from_usize(i)).is_some(),
                b.sampled,
                "metrics exactly for sampled batches"
            );
        }
    }

    #[test]
    fn metrics_are_plausible() {
        let s = study();
        for m in s.enriched_batches() {
            if let Some(d) = m.disagreement {
                assert!((0.0..=1.0).contains(&d), "disagreement {d}");
            }
            if let Some(t) = m.task_time {
                assert!(t > 0.0);
            }
            if let Some(p) = m.pickup_time {
                assert!(p > 0.0);
            }
            assert!(m.n_items <= m.n_instances);
        }
    }

    #[test]
    fn pickup_dominates_task_time_in_aggregate() {
        // Fig 13: pickup-time is orders of magnitude above task-time.
        let s = study();
        let pickups: Vec<f64> = s.enriched_batches().filter_map(|m| m.pickup_time).collect();
        let times: Vec<f64> = s.enriched_batches().filter_map(|m| m.task_time).collect();
        let mp = median(&pickups).unwrap();
        let mt = median(&times).unwrap();
        assert!(mp > mt * 3.0, "median pickup {mp} ≫ median task time {mt}");
    }

    #[test]
    fn clusters_cover_all_enriched_batches() {
        let s = study();
        let in_clusters: usize = s.clusters().iter().map(|c| c.batches.len()).sum();
        assert_eq!(in_clusters, s.enriched_batches().count());
        for c in s.clusters() {
            assert!(!c.batches.is_empty());
            assert!(c.n_instances > 0);
        }
    }

    #[test]
    fn clustering_recovers_task_types() {
        // Batches of one task type should overwhelmingly share a cluster.
        let s = study();
        let mut type_to_clusters: HashMap<u32, std::collections::HashSet<u32>> = HashMap::new();
        for m in s.enriched_batches() {
            let tt = s.dataset().batch(m.batch).task_type.raw();
            type_to_clusters.entry(tt).or_default().insert(m.cluster);
        }
        let split_types = type_to_clusters.values().filter(|set| set.len() > 1).count();
        let frac = split_types as f64 / type_to_clusters.len() as f64;
        assert!(frac < 0.12, "few types split across clusters: {frac}");
        // And the number of clusters is near the number of observed types.
        let n_types = type_to_clusters.len();
        let n_clusters = s.clusters().len();
        assert!(
            (n_clusters as f64) < n_types as f64 * 1.35,
            "clusters {n_clusters} vs types {n_types}"
        );
    }

    #[test]
    fn streaming_enricher_matches_enrich_batches_bitwise() {
        let ds = crowd_sim::simulate(&crowd_sim::SimConfig::tiny(1301));
        let clustering = {
            let (_ids, docs) = sampled_docs(&ds);
            crowd_cluster::Clusterer::new(ClusterParams::default()).cluster(&docs)
        };
        let index = ds.index();
        let monolithic = enrich_batches(&ds, &index, &clustering);

        // Entity-only view + shard-by-shard replay of the instance rows,
        // at several shard widths (the enricher is width-invariant).
        let mut entities = ds.clone();
        entities.instances = crowd_core::dataset::InstanceColumns::new();
        for shards in [1usize, 4, 16] {
            let plan = ShardPlan::new(ds.instances.len(), shards);
            let mut enricher = StreamingEnricher::new(&entities);
            for range in plan.ranges() {
                enricher.flush(range.start, &ds.instances.clone_range(range)).expect("infallible");
            }
            assert_eq!(enricher.rows(), ds.instances.len());
            let streamed = enricher.finish(&entities, &clustering);
            assert_eq!(streamed, monolithic, "shards={shards} plan={plan:?}");
        }
    }

    #[test]
    #[should_panic(expected = "ascending order")]
    fn streaming_enricher_rejects_gaps() {
        let ds = crowd_sim::simulate(&crowd_sim::SimConfig::tiny(1301));
        let mut entities = ds.clone();
        entities.instances = crowd_core::dataset::InstanceColumns::new();
        let mut enricher = StreamingEnricher::new(&entities);
        let _ = enricher.flush(ScanPass::CHUNK, &ds.instances);
    }

    #[test]
    fn columns_optional_study_reports_rows_and_streams_fused() {
        let ds = crowd_sim::simulate(&crowd_sim::SimConfig::tiny(1301));
        let n = ds.instances.len();
        let full = Study::new(ds.clone());
        let metrics: Vec<BatchMetrics> = full.enriched_batches().cloned().collect();

        let mut entities = ds.clone();
        entities.instances = crowd_core::dataset::InstanceColumns::new();
        let rows = std::sync::Arc::new(ds.instances.clone());
        let lean = Study::from_enrichment_streamed(entities, metrics, n, move |study| {
            // Stand-in for the snapshot reader: stream the held columns
            // back in CHUNK-aligned shards.
            let plan = ShardPlan::new(rows.len(), 7);
            let shards = plan
                .ranges()
                .map(|r| Ok::<_, std::convert::Infallible>((r.start, rows.clone_range(r))));
            let metrics: Vec<BatchMetrics> = study.enriched_batches().cloned().collect();
            crate::fused::compute_streamed(
                study.dataset(),
                &metrics,
                rows.end_col().iter().copied().max(),
                shards,
            )
            .expect("infallible stream")
        });

        assert_eq!(full.dataset().instances.len(), n);
        assert_eq!(lean.n_instances(), n);
        assert_eq!(full.n_instances(), n);
        assert!(lean.dataset().instances.is_empty());
        assert_eq!(lean.clusters().len(), full.clusters().len());
        assert_eq!(lean.fused(), full.fused(), "streamed fused is bit-identical");
    }

    #[test]
    fn labeled_cluster_fraction_near_83_percent() {
        let s = study();
        let labeled = s.labeled_clusters().count() as f64;
        let frac = labeled / s.clusters().len() as f64;
        assert!((0.70..=0.95).contains(&frac), "§2.4: ~83% labeled, got {frac}");
    }

    #[test]
    fn cluster_features_reflect_extraction() {
        let s = study();
        for c in s.clusters() {
            assert!(c.words > 0.0, "every interface has words");
            assert!(c.items >= 1.0);
        }
        // Some clusters have examples/images, most do not (§4.6, §4.7).
        let with_ex = s.clusters().iter().filter(|c| c.examples > 0.0).count();
        let with_im = s.clusters().iter().filter(|c| c.images > 0.0).count();
        assert!(with_ex < s.clusters().len() / 4);
        assert!(with_im > 0);
    }
}
