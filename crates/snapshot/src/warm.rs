//! Warm-start entry points: `Study` construction with read-on-hit /
//! write-on-miss snapshot caching.
//!
//! One decision tree serves every shard count; the store's shard count
//! ([`SnapshotStore::with_shards`]) only sets the file layout:
//!
//! * no store → plain cold build (simulate + cluster + enrich), nothing
//!   touched on disk;
//! * snapshot opens and its derived artifacts match the requested cluster
//!   parameters → only the meta payload (entities + persisted enrichment)
//!   loads. The instance rows stay on disk and the `Study` is
//!   *columns-optional*: on first use its fused aggregates stream back one
//!   shard section at a time from the file the
//!   [`ShardedSnapshotReader`](crate::ShardedSnapshotReader) opened and
//!   verified, so a warm start opens and decodes the file once. No
//!   simulation, shingling, LSH or feature extraction runs;
//! * anything else — no file, a file that fails **any** integrity check,
//!   or artifacts derived with other cluster parameters (or none) →
//!   streaming cold build (DESIGN.md §16): [`crowd_sim::prepare_streamed`]
//!   builds entities first, then each finished shard of rows is forked
//!   into a [`SnapshotWriter`] and a [`StreamingEnricher`], so the full
//!   instance table never exists in memory at once, and the published
//!   file replaces the old one;
//! * a shard section damaged after its meta verified is caught by its own
//!   checksum when the fused scan streams it; the scan then rebuilds and
//!   republishes the file through the same streaming build and scans the
//!   fresh file.
//!
//! Correctness never depends on the cache: a corrupt file costs one cold
//! run, not a wrong answer. Save errors are deliberately swallowed too (a
//! read-only cache directory degrades to cold-every-time, it does not
//! break the run), but each one is counted
//! ([`SnapshotStore::swallowed_saves`]). Only when the store cannot be
//! used — an IO failure during a build, or a rebuilt file that fails again
//! — does a study hold its whole instance table: it is then built in
//! memory, as with no store.

use std::sync::{Mutex, PoisonError};

use crowd_analytics::fused::Fused;
use crowd_analytics::study::{enrich_batches, sampled_docs, BatchMetrics, StreamingEnricher};
use crowd_analytics::Study;
use crowd_cluster::{ClusterParams, Clusterer};
use crowd_core::dataset::{Dataset, InstanceColumns};
use crowd_core::shard::ShardSink;
use crowd_sim::{simulate, SimConfig};

use crate::sharded::ShardSections;
use crate::{Derived, SnapshotError, SnapshotStore, SnapshotWriter};

/// [`Study::new`] with snapshot caching: read-on-hit, write-on-miss.
///
/// With `store == None` this is exactly `Study::new(simulate(cfg))`; with a
/// store, the result is bit-identical but a warm hit skips the entire
/// generative pipeline.
pub fn study_from_config(cfg: &SimConfig, store: Option<&SnapshotStore>) -> Study {
    study_with_params(cfg, ClusterParams::default(), store)
}

/// [`study_from_config`] with explicit clustering parameters.
pub fn study_with_params(
    cfg: &SimConfig,
    params: ClusterParams,
    store: Option<&SnapshotStore>,
) -> Study {
    let Some(store) = store else {
        return Study::with_cluster_params(simulate(cfg), params);
    };
    if let Ok(reader) = store.open_reader(cfg) {
        let n_rows = reader.directory().n_rows() as usize;
        match reader.into_parts() {
            // Full hit: entities + persisted enrichment only. The rows stay
            // on disk; the fused scan streams them back on first use.
            (entities, Some(d), sections) if d.params == params => {
                return Study::from_enrichment_streamed(
                    entities,
                    d.metrics,
                    n_rows,
                    fused_source(cfg, params, store, Some(sections)),
                );
            }
            _ => {}
        }
    }
    // Miss, integrity failure or other parameters: rebuild, rewrite.
    build_streamed(cfg, params, store)
}

/// Streaming cold build ([`publish_streamed`]) into a columns-optional
/// study over the published file. If the build fails on IO, the run
/// completes without the store: the no-store build, counted as a
/// swallowed save.
fn build_streamed(cfg: &SimConfig, params: ClusterParams, store: &SnapshotStore) -> Study {
    match publish_streamed(cfg, params, store) {
        Ok((entities, metrics, n_rows)) => Study::from_enrichment_streamed(
            entities,
            metrics,
            n_rows,
            fused_source(cfg, params, store, None),
        ),
        Err(_) => {
            store.note_swallowed_save();
            Study::with_cluster_params(simulate(cfg), params)
        }
    }
}

/// Streams a cold build into the store: entities are generated first,
/// clustering and shard layout come from them alone, and then each
/// finished shard of instance rows is flushed to the [`SnapshotWriter`]
/// *and* folded into the [`StreamingEnricher`] before the next shard is
/// produced, so peak memory is the entity tables plus ~one shard of rows.
/// Publishes the file and returns the entity tables, the per-batch
/// enrichment and the row count; on an IO error nothing is published and
/// the writer's temps are removed.
fn publish_streamed(
    cfg: &SimConfig,
    params: ClusterParams,
    store: &SnapshotStore,
) -> Result<(Dataset, Vec<BatchMetrics>, usize), SnapshotError> {
    let sim = crowd_sim::prepare_streamed(cfg);
    let mut writer = store.open_writer(cfg, sim.planned_rows())?;

    // Clustering needs only the batch HTML, which lives in the entity
    // tables — it runs before a single instance row exists.
    let clusterer = Clusterer::new(params);
    let (_ids, docs) = sampled_docs(sim.entities());
    let signatures = clusterer.signatures(&docs);
    let clustering = clusterer.cluster_signatures(&signatures);

    let mut enricher = StreamingEnricher::new(sim.entities());
    let shard_rows = writer.shard_rows();
    let mut sink = BuildSink { writer: &mut writer, enricher: &mut enricher };
    let entities = match sim.run(cfg, shard_rows, &mut sink) {
        Ok(entities) => entities,
        Err(e) => {
            writer.abort();
            return Err(e);
        }
    };

    let n_rows = writer.rows();
    let metrics = enricher.finish(&entities, &clustering);
    let derived = Derived {
        params,
        labels: clustering.labels().to_vec(),
        n_clusters: clustering.n_clusters(),
        signatures,
        metrics,
    };
    writer.finish(&entities, Some(&derived))?;
    Ok((entities, derived.metrics, n_rows))
}

/// Forks each finished shard to the snapshot writer and the streaming
/// enricher without cloning it — both sinks see the same borrow.
struct BuildSink<'a> {
    writer: &'a mut SnapshotWriter,
    enricher: &'a mut StreamingEnricher,
}

impl ShardSink for BuildSink<'_> {
    type Error = SnapshotError;

    fn flush(&mut self, base: usize, shard: &InstanceColumns) -> Result<(), SnapshotError> {
        self.writer.flush(base, shard)?;
        match self.enricher.flush(base, shard) {
            Ok(()) => Ok(()),
            Err(never) => match never {},
        }
    }
}

/// The fused provider a columns-optional `Study` defers to: stream the
/// shard sections of the snapshot — those the warm start already opened
/// and verified (`sections`), or, after a cold build, which holds no
/// reader, those of the file re-opened on first use. The shards decode
/// against the study's own entities and fold with its own batch metrics.
///
/// If a section fails its checksum, or the file is gone, the file is
/// rebuilt and republished by [`publish_streamed`] and the fresh file is
/// scanned — one slow (but correct) answer, never a wrong one, and the
/// next warm start reads a sound file again. If that rebuild cannot
/// publish, or its file fails too, the answer comes from an in-memory
/// build, counted as a swallowed save; there is no third attempt.
fn fused_source(
    cfg: &SimConfig,
    params: ClusterParams,
    store: &SnapshotStore,
    sections: Option<ShardSections<'static>>,
) -> impl Fn(&Study) -> Fused + Send + Sync + 'static {
    let (cfg, store) = (cfg.clone(), store.clone());
    let sections = Mutex::new(sections);
    move |study| {
        // The study memoizes its scan, so the held sections serve one
        // call; any later call re-opens the file.
        let held = sections.lock().unwrap_or_else(PoisonError::into_inner).take();
        let metrics: Vec<BatchMetrics> = study.enriched_batches().cloned().collect();
        let scan = |held: Option<ShardSections<'static>>| {
            held.map_or_else(|| store.open_reader(&cfg).map(|r| r.into_parts().2), Ok)
                .and_then(|mut sections| sections.fused(study.dataset(), &metrics))
        };
        scan(held)
            .or_else(|_| publish_streamed(&cfg, params, &store).and_then(|_| scan(None)))
            .unwrap_or_else(|_| {
                store.note_swallowed_save();
                Study::with_cluster_params(simulate(&cfg), params).fused().clone()
            })
    }
}

/// Computes every derived artifact the snapshot persists: minhash
/// signatures, the clustering, and the per-batch enrichment, all in
/// sampled-batch dataset order.
pub fn compute_derived(ds: &Dataset, params: ClusterParams) -> Derived {
    let clusterer = Clusterer::new(params);
    let (_ids, docs) = sampled_docs(ds);
    let signatures = clusterer.signatures(&docs);
    let clustering = clusterer.cluster_signatures(&signatures);
    let index = ds.index();
    let metrics = enrich_batches(ds, &index, &clustering);
    Derived {
        params,
        labels: clustering.labels().to_vec(),
        n_clusters: clustering.n_clusters(),
        signatures,
        metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Snapshot;

    fn temp_store(tag: &str) -> SnapshotStore {
        let dir =
            std::env::temp_dir().join(format!("crowd-snapshot-warm-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        SnapshotStore::new(dir)
    }

    /// Where the last shard section of `cfg`'s snapshot ends: the
    /// sections follow the header back to back.
    fn last_section_end(store: &SnapshotStore, cfg: &SimConfig) -> usize {
        let reader = store.open_reader(cfg).expect("pristine snapshot opens");
        let sections = reader.directory().sections();
        crate::format::HEADER_LEN + sections.iter().map(|s| s.byte_len as usize).sum::<usize>()
    }

    /// Cold build and warm hit agree bitwise with a never-cached run on
    /// every derived quantity at any shard count, neither holds the
    /// instance table, and the streamed file is byte-identical to an
    /// in-memory encoding at the same shard count.
    #[test]
    fn warm_equals_cold_bitwise() {
        let cfg = SimConfig::tiny(25);
        let baseline = Study::new(simulate(&cfg));
        let metrics = |s: &Study| -> Vec<_> { s.enriched_batches().cloned().collect() };
        let snap = Snapshot {
            dataset: simulate(&cfg),
            derived: Some(compute_derived(&simulate(&cfg), ClusterParams::default())),
        };
        for shards in [1, 4] {
            let store = temp_store(&format!("eq-{shards}")).with_shards(shards);
            let cold = study_from_config(&cfg, Some(&store)); // miss: streams build + write
            assert!(store.path_for(&cfg).exists(), "miss wrote a snapshot");
            assert_eq!(store.swallowed_saves(), 0, "nothing degraded");
            let warm = study_from_config(&cfg, Some(&store)); // hit: meta-only load

            for s in [&cold, &warm] {
                assert!(s.dataset().instances.is_empty(), "store-backed studies keep rows on disk");
                assert_eq!(s.n_instances(), baseline.n_instances());
                assert_eq!(metrics(s), metrics(&baseline));
                assert_eq!(s.clusters().len(), baseline.clusters().len());
                assert_eq!(s.fused(), baseline.fused(), "fused scan is bit-identical");
            }
            let streamed_bytes = std::fs::read(store.path_for(&cfg)).unwrap();
            let encoded = crate::encode_sharded(&snap, crate::fingerprint(&cfg), shards);
            assert_eq!(streamed_bytes, encoded, "shards={shards}");
            let _ = std::fs::remove_dir_all(store.dir());
        }
    }

    #[test]
    fn param_change_reuses_dataset_and_rewrites() {
        let cfg = SimConfig::tiny(22);
        // Different clustering parameters: the file is a miss, so the
        // streamed build rewrites it with the new derived section, and the
        // result matches a cold run at those parameters.
        let loose = ClusterParams { threshold: 0.3, ..ClusterParams::default() };
        let cold = Study::with_cluster_params(simulate(&cfg), loose);
        for shards in [1, 4] {
            let store = temp_store(&format!("params-{shards}")).with_shards(shards);
            let _ = study_from_config(&cfg, Some(&store));
            let relaxed = study_with_params(&cfg, loose, Some(&store));
            let reloaded = store.load(&cfg).expect("rewritten snapshot loads");
            let d = reloaded.derived.expect("derived present");
            assert_eq!(d.params, loose);
            assert_eq!(d.n_clusters, relaxed.clusters().len());
            assert_eq!(relaxed.clusters().len(), cold.clusters().len(), "shards={shards}");
            let _ = std::fs::remove_dir_all(store.dir());
        }
    }

    #[test]
    fn unwritable_store_degrades_to_cold_and_counts_the_swallow() {
        let cfg = SimConfig::tiny(24);
        let rows = simulate(&cfg).instances;
        for shards in [1, 4] {
            let blocker = std::env::temp_dir()
                .join(format!("crowd-snapshot-warm-blocker-{shards}-{}", std::process::id()));
            std::fs::write(&blocker, b"not a directory").unwrap();
            let store = SnapshotStore::new(blocker.join("store")).with_shards(shards);
            let study = study_from_config(&cfg, Some(&store));
            // Correctness never depends on the cache …
            assert_eq!(study.dataset().instances, rows);
            // … but the degradation is counted, not silent.
            assert_eq!(store.swallowed_saves(), 1, "shards={shards}");
            let _ = std::fs::remove_file(&blocker);
        }
    }

    /// A corrupt snapshot under the final name is refused by the open
    /// checks and the warm start rebuilds (and rewrites) cleanly; a shard
    /// damaged behind a valid meta is caught by the fused scan, which
    /// answers from a re-simulation and republishes the file.
    #[test]
    fn warm_start_survives_a_corrupt_snapshot() {
        let cfg = SimConfig::tiny(26);
        let store = temp_store("streamed-corrupt").with_shards(3);
        let _ = study_from_config(&cfg, Some(&store));
        let path = store.path_for(&cfg);
        let pristine = std::fs::read(&path).unwrap();

        // Torn final bytes: the loader refuses with a typed error, never a
        // partial dataset.
        std::fs::write(&path, &pristine[..pristine.len() - 11]).unwrap();
        assert!(matches!(
            store.open_reader(&cfg).and_then(|r| r.into_snapshot()),
            Err(crate::SnapshotError::Truncated)
        ));
        let rebuilt = study_from_config(&cfg, Some(&store));
        assert_eq!(rebuilt.n_instances(), simulate(&cfg).instances.len());
        assert_eq!(std::fs::read(&path).unwrap(), pristine, "fallback rewrote the snapshot");

        // Flipped byte inside a shard section: meta verifies, the damaged
        // shard is refused by its own checksum when the fused scan streams.
        let mut bent = pristine.clone();
        let at = last_section_end(&store, &cfg) - 20;
        bent[at] ^= 0x40;
        std::fs::write(&path, &bent).unwrap();
        let warm = study_from_config(&cfg, Some(&store));
        // The warm hit loaded only meta (valid), so the corruption
        // surfaces inside `fused_source`, which re-simulates.
        assert_eq!(warm.fused(), Study::new(simulate(&cfg)).fused());
        assert!(store.load(&cfg).is_ok(), "the fused fallback republished the snapshot");
        let _ = std::fs::remove_dir_all(store.dir());
    }

    /// The end of the fallback chain: a shard damaged behind a valid meta,
    /// in a store that can no longer be written, still answers from
    /// memory, and the republish that could not happen is counted.
    #[test]
    fn damaged_shard_in_an_unwritable_store_answers_from_memory() {
        let cfg = SimConfig::tiny(27);
        let store = temp_store("damaged-unwritable").with_shards(3);
        let _ = study_from_config(&cfg, Some(&store));
        let path = store.path_for(&cfg);
        let mut bent = std::fs::read(&path).unwrap();
        let at = last_section_end(&store, &cfg) - 20;
        bent[at] ^= 0x40;
        std::fs::write(&path, &bent).unwrap();
        let warm = study_from_config(&cfg, Some(&store));

        // A file where the store directory was: nothing can be written.
        let aside = store.dir().with_extension("aside");
        let _ = std::fs::remove_dir_all(&aside);
        std::fs::rename(store.dir(), &aside).unwrap();
        std::fs::write(store.dir(), b"not a directory").unwrap();
        assert_eq!(warm.fused(), Study::new(simulate(&cfg)).fused());
        assert_eq!(store.swallowed_saves(), 1);
        let _ = std::fs::remove_file(store.dir());
        let _ = std::fs::remove_dir_all(&aside);
    }
}
