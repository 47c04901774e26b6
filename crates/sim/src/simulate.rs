//! Orchestrates a full simulation run into a [`Dataset`].

use std::sync::Arc;

use crowd_core::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rayon::prelude::*;

use crate::assignment::{assign_windowed, planned_instances, ASSIGN_WINDOW};
use crate::config::SimConfig;
use crate::geography::country_specs;
use crate::schedule::plan_batches;
use crate::sources::source_specs;
use crate::tasktypes::generate_task_types;
use crate::workers::generate_workers;

/// Domain tag for the per-batch HTML-variation streams.
const STREAM_HTML: u64 = 0x11B4;

/// Runs the full generative pipeline:
///
/// 1. task-type population (§2.4, §3.4–3.5);
/// 2. batch arrival schedule (§3.1, §3.3);
/// 3. worker population (§5);
/// 4. instance assignment with timing/trust/answer models (§4);
/// 5. assembly into a validated [`Dataset`].
///
/// Deterministic: equal configs yield bit-identical datasets.
pub fn simulate(cfg: &SimConfig) -> Dataset {
    simulate_with(cfg, |_| {})
}

/// [`simulate`] with a hook that may edit the task-type population before
/// scheduling — the A/B experimentation entry point (see
/// [`crate::intervention`]). The hook must not draw randomness of its own;
/// the RNG stream continues identically after it, so a control run and a
/// treated run stay paired sample-for-sample.
pub fn simulate_with(
    cfg: &SimConfig,
    hook: impl FnOnce(&mut Vec<crate::tasktypes::TaskTypeSpec>),
) -> Dataset {
    let prepared = prepare(cfg, hook);
    let mut b = entity_builder(&prepared);
    // Assignment streams in windows of sampled batches, each window
    // pushed straight into the builder's columns: only one window of
    // drafts is ever resident, instead of the whole dataset's draft
    // vector *and* its column copy. The reserve uses the schedule's
    // planned-volume estimate so the columns never reallocate mid-stream.
    // Window size, like thread count, is bit-invisible (per-batch RNG
    // streams, schedule-order delivery — see `assign_windowed`).
    b.reserve_instances(planned_instances(&prepared.types, &prepared.schedule));
    prepared.assign(cfg, |drafts| {
        for d in drafts {
            b.add_instance(draft_instance(d));
        }
    });
    b.finish().expect("generated dataset must be internally consistent")
}

/// Streams the simulation's instance rows into a [`ShardSink`] as
/// completed `shard_rows`-sized shards, returning the entity-only dataset
/// (sources, countries, workers, task types, batches — empty instance
/// table). The bounded-memory cold path: at most one shard of instances
/// is resident in the producer at any time, and the rows delivered —
/// concatenated across shards — are bit-identical to
/// [`simulate`]`(cfg).instances`.
///
/// A sink error aborts the stream (remaining windows are drained without
/// further flushes) and is returned.
///
/// # Panics
/// When `shard_rows` is zero or not a
/// [`ScanPass::CHUNK`](crowd_core::ScanPass::CHUNK) multiple — misaligned
/// shard boundaries would change the scan engine's float-merge order.
pub fn simulate_streamed<S: ShardSink>(
    cfg: &SimConfig,
    shard_rows: usize,
    sink: &mut S,
) -> std::result::Result<Dataset, S::Error> {
    prepare_streamed(cfg).run(cfg, shard_rows, sink)
}

/// The two-phase form of [`simulate_streamed`]: runs pipeline steps 1–3
/// (everything entity-scale) and stops *before* instance assignment, so a
/// caller can inspect the [`entities`](SimStream::entities) and size
/// resources off [`planned_rows`](SimStream::planned_rows) — a snapshot
/// writer's shard layout, a streaming enricher's batch context — and then
/// [`run`](SimStream::run) the assignment stage into its sink.
pub fn prepare_streamed(cfg: &SimConfig) -> SimStream {
    let prepared = prepare(cfg, |_| {});
    let entities =
        entity_builder(&prepared).finish().expect("generated entities must be consistent");
    SimStream { prepared, entities }
}

/// A simulation paused between entity generation and instance assignment
/// (see [`prepare_streamed`]).
pub struct SimStream {
    prepared: Prepared,
    entities: Dataset,
}

impl SimStream {
    /// The entity-only dataset (empty instance table) the run will emit
    /// rows against.
    pub fn entities(&self) -> &Dataset {
        &self.entities
    }

    /// The schedule's planned instance volume — an upper-bound estimate
    /// (the same one `simulate` reserves columns with), suitable for
    /// sizing a shard layout before the true row count is known.
    pub fn planned_rows(&self) -> usize {
        planned_instances(&self.prepared.types, &self.prepared.schedule)
    }

    /// Runs the assignment stage, streaming completed `shard_rows`-sized
    /// shards into `sink`, and returns the entity-only dataset. Behavior
    /// and panics are those of [`simulate_streamed`].
    pub fn run<S: ShardSink>(
        self,
        cfg: &SimConfig,
        shard_rows: usize,
        sink: &mut S,
    ) -> std::result::Result<Dataset, S::Error> {
        assert!(
            shard_rows > 0 && shard_rows.is_multiple_of(ScanPass::CHUNK),
            "shard_rows must be a non-zero CHUNK multiple to keep merge order fixed"
        );
        let SimStream { prepared, entities } = self;
        let mut buf = InstanceColumns::new();
        buf.reserve(shard_rows);
        let mut base = 0usize;
        let mut failed: Option<S::Error> = None;
        prepared.assign(cfg, |drafts| {
            if failed.is_some() {
                return; // drain remaining windows without flushing
            }
            for d in drafts {
                buf.push(draft_instance(d));
                if buf.len() == shard_rows {
                    if let Err(e) = sink.flush(base, &buf) {
                        failed = Some(e);
                        return;
                    }
                    base += buf.len();
                    // Reuse the shard buffer: truncate keeps the column
                    // capacity, so steady-state flushing reallocates only
                    // for the variable-width answers.
                    buf.truncate(0);
                }
            }
        });
        if let Some(e) = failed {
            return Err(e);
        }
        if !buf.is_empty() {
            sink.flush(base, &buf)?;
        }
        Ok(entities)
    }
}

/// Everything the generative pipeline derives before any instance exists:
/// task types, the batch schedule, worker specs, and rendered batch HTML.
/// These stay resident in both build modes — they are small (entity-scale,
/// not instance-scale).
struct Prepared {
    types: Vec<crate::tasktypes::TaskTypeSpec>,
    schedule: crate::schedule::Schedule,
    worker_specs: Vec<crate::workers::WorkerSpec>,
    rendered: Vec<Option<Arc<str>>>,
}

/// Pipeline steps 1–3 plus HTML rendering, in the fixed RNG order shared
/// by every build mode.
fn prepare(
    cfg: &SimConfig,
    hook: impl FnOnce(&mut Vec<crate::tasktypes::TaskTypeSpec>),
) -> Prepared {
    let mut rng = StdRng::seed_from_u64(cfg.seed);

    let mut types = generate_task_types(cfg, &mut rng);
    hook(&mut types);
    let types = types;
    let schedule = plan_batches(cfg, &types, &mut rng);
    let worker_specs = generate_workers(cfg, &schedule.weekly_load, &mut rng);

    // Batch HTML: the type's interface with per-batch incidental variation
    // (what makes §3.3 clustering non-trivial). The variation seed is a
    // dedicated per-batch stream: collision-resistant in `(seed, batch)`
    // — unlike an ad-hoc xor/shift mix — and independent of every other
    // consumer of the run seed. Rendering is pure per batch, so it fans
    // out across threads with output order fixed by the schedule.
    let html_domain = stream_seed(cfg.seed, STREAM_HTML);
    let indexed: Vec<(u64, &crate::schedule::BatchPlan)> =
        schedule.batches.iter().enumerate().map(|(i, p)| (i as u64, p)).collect();
    // Render straight into `Arc<str>`: the builder's arena interns shared
    // handles, so converting here (inside the fan-out) keeps the one
    // unavoidable copy off the serial assembly loop.
    let rendered: Vec<Option<Arc<str>>> = indexed
        .par_iter()
        .map(|&(i, plan)| {
            plan.sampled.then(|| {
                let t = &types[plan.type_idx as usize];
                Arc::from(t.interface(stream_seed(html_domain, i)).render())
            })
        })
        .collect();

    Prepared { types, schedule, worker_specs, rendered }
}

impl Prepared {
    /// Runs the windowed assignment stage, delivering each window's drafts
    /// to `sink` in schedule order.
    fn assign(&self, cfg: &SimConfig, sink: impl FnMut(Vec<crate::assignment::InstanceDraft>)) {
        assign_windowed(cfg, &self.types, &self.schedule, &self.worker_specs, ASSIGN_WINDOW, sink);
    }
}

/// A [`DatasetBuilder`] loaded with every entity table and batch — no
/// instances yet. Batch HTML handles are shared with `prepared` (`Arc`
/// clones), so this does not duplicate page text.
fn entity_builder(prepared: &Prepared) -> DatasetBuilder {
    let mut b = DatasetBuilder::new();
    for spec in source_specs() {
        b.add_source(Source::new(spec.name, spec.kind));
    }
    for spec in country_specs() {
        b.add_country(spec.name);
    }
    for w in &prepared.worker_specs {
        b.add_worker(Worker::new(SourceId::new(w.source), CountryId::new(w.country)));
    }
    for t in &prepared.types {
        let mut tt = TaskType::new(t.title.clone()).with_choice_arity(t.choice_arity);
        if t.labeled {
            tt.goals = t.goals;
            tt.operators = t.operators;
            tt.data_types = t.data_types;
        }
        b.add_task_type(tt);
    }
    for (plan, html) in prepared.schedule.batches.iter().zip(&prepared.rendered) {
        let mut batch = Batch::new(TaskTypeId::new(plan.type_idx), plan.created_at);
        batch = match html {
            Some(html) => batch.with_html(html.clone()),
            None => batch.unsampled(),
        };
        b.add_batch(batch);
    }
    b
}

/// The one place a draft becomes a [`TaskInstance`], shared by both build
/// modes so their rows cannot drift.
fn draft_instance(d: crate::assignment::InstanceDraft) -> TaskInstance {
    TaskInstance {
        batch: BatchId::new(d.batch),
        item: ItemId::new(d.item),
        worker: WorkerId::new(d.worker),
        start: d.start,
        end: d.end,
        trust: d.trust,
        answer: d.answer,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_run_is_consistent_and_nonempty() {
        let ds = simulate(&SimConfig::tiny(1));
        assert!(ds.validate().is_ok());
        assert_eq!(ds.sources.len(), 139, "Table 4");
        assert_eq!(ds.countries.len(), 148, "Fig 28");
        assert!(ds.instances.len() > 10_000, "got {}", ds.instances.len());
        assert!(ds.batches.iter().any(|b| b.sampled));
        assert!(ds.batches.iter().any(|b| !b.sampled));
    }

    #[test]
    fn deterministic_given_seed() {
        let a = simulate(&SimConfig::tiny(99));
        let b = simulate(&SimConfig::tiny(99));
        assert_eq!(a.instances.len(), b.instances.len());
        assert_eq!(a.instances.row(0).to_owned(), b.instances.row(0).to_owned());
        assert_eq!(a.batches[5], b.batches[5]);
        let c = simulate(&SimConfig::tiny(100));
        assert_ne!(a.instances.len(), c.instances.len());
    }

    #[test]
    fn streamed_build_is_bit_identical_to_monolithic() {
        let cfg = SimConfig::tiny(99);
        let monolithic = simulate(&cfg);
        for shards in [1usize, 3] {
            let plan = ShardPlan::new(monolithic.instances.len(), shards);
            let mut streamed = InstanceColumns::new();
            // A sink that re-collects the shards (keeps the pattern honest:
            // contiguous, ascending, chunk-aligned bases).
            struct Collect<'a>(&'a mut InstanceColumns);
            impl ShardSink for Collect<'_> {
                type Error = std::convert::Infallible;
                fn flush(
                    &mut self,
                    base: usize,
                    shard: &InstanceColumns,
                ) -> std::result::Result<(), Self::Error> {
                    assert_eq!(base, self.0.len());
                    self.0.extend_from(shard, 0..shard.len());
                    Ok(())
                }
            }
            let mut sink = Collect(&mut streamed);
            let entities =
                simulate_streamed(&cfg, plan.shard_rows(), &mut sink).expect("infallible sink");
            assert!(entities.instances.is_empty(), "entities carry no rows");
            assert_eq!(entities.batches, monolithic.batches);
            assert_eq!(entities.workers, monolithic.workers);
            assert_eq!(entities.task_types, monolithic.task_types);
            assert_eq!(streamed, monolithic.instances, "shards={shards}");
        }
    }

    #[test]
    fn prepare_streamed_sizes_the_run_before_instances_exist() {
        let cfg = SimConfig::tiny(99);
        let sim = prepare_streamed(&cfg);
        assert!(sim.entities().instances.is_empty());
        assert!(sim.entities().batches.iter().any(|b| b.sampled));
        let planned = sim.planned_rows();
        struct Count(usize);
        impl ShardSink for Count {
            type Error = std::convert::Infallible;
            fn flush(
                &mut self,
                _base: usize,
                shard: &InstanceColumns,
            ) -> std::result::Result<(), Self::Error> {
                self.0 += shard.len();
                Ok(())
            }
        }
        let mut sink = Count(0);
        let entities = sim.run(&cfg, ScanPass::CHUNK, &mut sink).expect("infallible sink");
        assert!(!entities.batches.is_empty());
        let ratio = sink.0 as f64 / planned as f64;
        assert!((0.8..=1.2).contains(&ratio), "planned {planned} vs actual {}", sink.0);
    }

    #[test]
    fn streamed_build_surfaces_sink_errors() {
        struct FailSecond(usize);
        impl ShardSink for FailSecond {
            type Error = &'static str;
            fn flush(
                &mut self,
                _base: usize,
                _shard: &InstanceColumns,
            ) -> std::result::Result<(), Self::Error> {
                self.0 += 1;
                if self.0 >= 2 {
                    Err("disk died")
                } else {
                    Ok(())
                }
            }
        }
        let got = simulate_streamed(&SimConfig::tiny(99), ScanPass::CHUNK, &mut FailSecond(0));
        assert_eq!(got.unwrap_err(), "disk died");
    }

    #[test]
    fn sampled_batches_have_parseable_html() {
        let ds = simulate(&SimConfig::tiny(2));
        let mut checked = 0;
        for batch in ds.batches.iter().filter(|b| b.sampled).take(50) {
            let html = batch.html.as_ref().unwrap();
            let feats = crowd_html::extract_features(html).unwrap();
            let t = &ds.task_types[batch.task_type.index()];
            let _ = t;
            assert!(feats.words > 0);
            checked += 1;
        }
        assert_eq!(checked, 50);
    }

    #[test]
    fn batches_of_same_type_have_similar_but_distinct_html() {
        let ds = simulate(&SimConfig::tiny(3));
        // Find a type with ≥2 sampled batches.
        let mut by_type: std::collections::HashMap<u32, Vec<&str>> =
            std::collections::HashMap::new();
        for batch in ds.batches.iter().filter(|b| b.sampled) {
            if let Some(h) = &batch.html {
                by_type.entry(batch.task_type.raw()).or_default().push(h);
            }
        }
        let multi = by_type.values().find(|v| v.len() >= 2).expect("some repeated type");
        assert_ne!(multi[0], multi[1], "per-batch seeds vary the HTML");
        let a = crowd_cluster::shingles(multi[0], 3);
        let b = crowd_cluster::shingles(multi[1], 3);
        assert!(
            crowd_cluster::jaccard(&a, &b) > 0.5,
            "same-type batches stay similar for §3.3 clustering"
        );
    }

    #[test]
    fn unlabeled_types_exist() {
        let ds = simulate(&SimConfig::tiny(4));
        let labeled = ds.task_types.iter().filter(|t| t.is_labeled()).count();
        let frac = labeled as f64 / ds.task_types.len() as f64;
        assert!((0.70..=0.95).contains(&frac), "≈83% labeled (§2.4): {frac}");
    }
}
