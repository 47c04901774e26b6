//! `repro_cold` and `repro_warm`: the batch path, `repro all` at scale
//! 0.2 with 16 shards.
//!
//! Set-up renders every target from a no-snapshot `Study::new(simulate)`
//! reference and keeps one digest per target; `repro_warm` also primes
//! the snapshot store. Each measured child then builds its study the way
//! `repro --shards 16 --snapshot-dir` does (`warm::study_from_config`),
//! forces the streamed fused scan, renders the 30 targets and checks each
//! digest against the reference.
//!
//! The traced child builds the same study from the same public calls that
//! `warm::study_from_config` makes, each wrapped in a span, so the time
//! splits by layer: simulate, cluster, enrich, snapshot write, snapshot
//! open and shard reads, the fused fold, shaping and rendering.

use std::fs;
use std::path::{Path, PathBuf};
use std::time::Instant;

use crowd_analytics::fused::{compute_streamed, Fused};
use crowd_analytics::study::{sampled_docs, BatchMetrics, StreamingEnricher};
use crowd_analytics::Study;
use crowd_cluster::{ClusterParams, Clusterer};
use crowd_core::dataset::InstanceColumns;
use crowd_core::shard::ShardSink;
use crowd_sim::{simulate, SimConfig};
use crowd_snapshot::{warm, Derived, SnapshotError, SnapshotStore, SnapshotWriter};

use crate::targets::{render_target, ALL};
use crate::trace::{self, span};
use crate::{fnv1a, median, quantile, ChildOut};

/// Fraction of the paper's marketplace volume simulated.
pub const SCALE: f64 = 0.2;
/// Shards of the instance table (scan and snapshot layout).
pub const SHARDS: usize = 16;
/// Rayon pool width for the batch workloads.
pub const THREADS: usize = 2;

const REFERENCE: &str = "reference.txt";

fn config(seed: u64) -> SimConfig {
    SimConfig::new(seed, SCALE)
}

fn store(dir: PathBuf) -> SnapshotStore {
    SnapshotStore::new(dir).with_shards(SHARDS)
}

fn primed_store_dir(work: &Path) -> PathBuf {
    work.join("store")
}

/// Writes the reference digests and, for `repro_warm`, primes the store.
pub fn setup(warm: bool, seed: u64, work: &Path) -> Result<(), String> {
    let cfg = config(seed);
    let reference = Study::new(simulate(&cfg));
    let digests: String = ALL
        .iter()
        .map(|name| format!("{name} {:016x}\n", fnv1a(&render_target(name, &reference, SCALE))))
        .collect();
    drop(reference);
    fs::write(work.join(REFERENCE), digests).map_err(|e| format!("write reference: {e}"))?;
    if warm {
        let store = store(primed_store_dir(work));
        drop(warm::study_from_config(&cfg, Some(&store)));
        store.open_reader(&cfg).map_err(|e| format!("priming the snapshot store failed: {e}"))?;
    }
    Ok(())
}

fn read_reference(work: &Path) -> Result<Vec<(String, u64)>, String> {
    let text =
        fs::read_to_string(work.join(REFERENCE)).map_err(|e| format!("read reference: {e}"))?;
    let digests: Vec<(String, u64)> = text
        .lines()
        .filter_map(|line| {
            let (name, hex) = line.split_once(' ')?;
            Some((name.to_string(), u64::from_str_radix(hex, 16).ok()?))
        })
        .collect();
    if digests.len() != ALL.len() {
        return Err(format!("reference holds {} of {} targets", digests.len(), ALL.len()));
    }
    Ok(digests)
}

/// One measured `repro all`, cold (empty store) or warm (primed store).
pub fn child(warm: bool, seed: u64, work: &Path, out: &mut ChildOut) -> Result<(), String> {
    let cfg = config(seed);
    let reference = read_reference(work)?;
    let store = if warm {
        store(primed_store_dir(work))
    } else {
        let dir = work.join("cold-store");
        let _ = fs::remove_dir_all(&dir);
        store(dir)
    };

    let t0 = Instant::now();
    let mut failed = 0u64;
    let (mut fresh_ms, mut target_us) = (Vec::new(), Vec::new());
    let study = span("repro", || -> Result<Study, String> {
        let study = if trace::enabled() {
            traced_study(&cfg, &store, warm)?
        } else {
            warm::study_from_config(&cfg, Some(&store))
        };
        study.fused();
        for (name, want) in &reference {
            let t = Instant::now();
            let text = render_target(name, &study, SCALE);
            // A target's query latency, and when its output is fresh.
            target_us.push(t.elapsed().as_secs_f64() * 1e6);
            fresh_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            if fnv1a(&text) != *want {
                eprintln!("perfbench: target `{name}` differs from the no-snapshot reference");
                failed += 1;
            }
        }
        Ok(study)
    })?;
    let wall_s = t0.elapsed().as_secs_f64();
    out.set("wall_s", wall_s);
    out.set("fresh_p50_ms", median(&fresh_ms));
    out.set("fresh_p90_ms", quantile(&fresh_ms, 0.9));
    out.set("dashboard_p50_us", median(&target_us));
    out.set("dashboard_p99_us", quantile(&target_us, 0.99));
    out.set("capacity_events_per_s", study.n_instances() as f64 / wall_s);
    out.set("peak_rss_mb", crate::vmhwm_mb());
    drop(study);

    // Recovery: how long until the study can serve every figure again from
    // the snapshot this run left on disk: the warm start `repro` makes plus
    // the streamed fused scan the figures read. The warm start alone took
    // 40-60 ms and spread across seeds by more than its bound, even as the
    // fastest of ten; with the scan, the work follows the row count, which
    // holds steady across seeds.
    let t = Instant::now();
    let restarted = warm::study_from_config(&cfg, Some(&store));
    restarted.fused();
    out.set("recovery_ms", t.elapsed().as_secs_f64() * 1e3);
    drop(restarted);
    out.set("attempted", reference.len() as f64);
    out.set("failed", failed as f64);
    Ok(())
}

/// The study `warm::study_from_config` builds with a 16-shard store, made
/// from the same public calls with a span around each.
fn traced_study(cfg: &SimConfig, store: &SnapshotStore, warm: bool) -> Result<Study, String> {
    let params = ClusterParams::default();
    if warm {
        // Full hit: entities and persisted enrichment only.
        let reader = span("snapshot.open", || store.open_reader(cfg))
            .map_err(|e| format!("open primed snapshot: {e}"))?;
        let n_rows = reader.directory().n_rows() as usize;
        let (entities, derived, _) = reader.into_meta();
        let d = derived.filter(|d| d.params == params).ok_or("primed snapshot lacks enrichment")?;
        return Ok(span("study.assemble", || {
            Study::from_enrichment_streamed(entities, d.metrics, n_rows, traced_source(cfg, store))
        }));
    }

    // Streaming cold build: entities, clustering off the batch HTML, then
    // each finished shard flushed to the snapshot and the enricher.
    let sim = span("sim.entities", || crowd_sim::prepare_streamed(cfg));
    let mut writer = span("snapshot.write", || store.open_writer(cfg, sim.planned_rows()))
        .map_err(|e| format!("open snapshot writer: {e}"))?;
    let clusterer = Clusterer::new(params);
    let signatures = span("cluster.sign", || {
        let (_ids, docs) = sampled_docs(sim.entities());
        trace::count("cluster.docs", docs.len() as u64);
        clusterer.signatures(&docs)
    });
    let clustering = span("cluster.lsh", || clusterer.cluster_signatures(&signatures));
    trace::count("cluster.clusters", clustering.n_clusters() as u64);

    let mut enricher = span("enrich.fold", || StreamingEnricher::new(sim.entities()));
    let shard_rows = writer.shard_rows();
    let mut sink = TracedSink { writer: &mut writer, enricher: &mut enricher };
    let entities = span("sim.rows", || sim.run(cfg, shard_rows, &mut sink))
        .map_err(|e| format!("streamed build: {e}"))?;
    let n_rows = writer.rows();
    trace::count("sim.rows", n_rows as u64);

    let metrics = span("enrich.finish", || enricher.finish(&entities, &clustering));
    let derived = Derived {
        params,
        labels: clustering.labels().to_vec(),
        n_clusters: clustering.n_clusters(),
        signatures,
        metrics,
    };
    let path = span("snapshot.write", || writer.finish(&entities, Some(&derived)))
        .map_err(|e| format!("publish snapshot: {e}"))?;
    trace::count("snapshot.bytes", fs::metadata(path).map_or(0, |m| m.len()));
    Ok(span("study.assemble", || {
        Study::from_enrichment_streamed(
            entities,
            derived.metrics,
            n_rows,
            traced_source(cfg, store),
        )
    }))
}

/// Forks each finished shard to the snapshot writer and the enricher,
/// timing each side.
struct TracedSink<'a> {
    writer: &'a mut SnapshotWriter,
    enricher: &'a mut StreamingEnricher,
}

impl ShardSink for TracedSink<'_> {
    type Error = SnapshotError;

    fn flush(&mut self, base: usize, shard: &InstanceColumns) -> Result<(), SnapshotError> {
        span("snapshot.write", || self.writer.flush(base, shard))?;
        span("enrich.fold", || self.enricher.flush(base, shard))
            .unwrap_or_else(|never| match never {});
        Ok(())
    }
}

/// The fused source of a streamed study: re-open the snapshot and fold
/// its shard sections one at a time.
fn traced_source(
    cfg: &SimConfig,
    store: &SnapshotStore,
) -> impl Fn(&Study) -> Fused + Send + Sync + 'static {
    let (cfg, store) = (cfg.clone(), store.clone());
    move |study| {
        let mut reader = span("snapshot.open", || store.open_reader(&cfg))
            .expect("the snapshot this study was built from must open");
        span("scan.fold", || {
            let metrics: Vec<BatchMetrics> = study.enriched_batches().cloned().collect();
            let time_max = reader.time_max();
            let dir = reader.directory();
            let bases: Vec<usize> = (0..dir.n_shards()).map(|k| dir.base_row(k) as usize).collect();
            let shards = bases.into_iter().enumerate().map(|(k, base)| {
                let cols = span("snapshot.read", || reader.read_shard(k))?;
                trace::count("snapshot.shards_read", 1);
                trace::count("scan.rows", cols.len() as u64);
                Ok::<_, SnapshotError>((base, cols))
            });
            compute_streamed(study.dataset(), &metrics, time_max, shards)
        })
        .expect("every shard section must verify")
    }
}
