//! Field-by-field comparison of the fused engine against the oracles.
//!
//! Every in-repo comparison uses [`FloatMode::Bitwise`]: every float must
//! match to the last ulp. That is the claim for the batch engine against
//! itself at different thread and shard counts (the `ScanPass` contract),
//! for the batch engine against the straight-line oracle (the oracle
//! folds the fractional sums with the engine's documented chunk
//! discipline, [`crate::oracle`]), and for the live view against a batch
//! study (the view folds with the batch accumulator, in chunk order).
//!
//! [`FloatMode::OrderTolerant`] compares the fractional sums
//! (`trust_sum`, week `hours`, `rel_time_sum`) within a ulp bound scaled
//! by the number of summed terms, and everything else exactly. No suite
//! here uses it; it is kept for the benchmark's final live-versus-batch
//! check, which names it.

use crowd_analytics::fused::{compute_streamed, Fused};
use crowd_analytics::study::BatchMetrics;
use crowd_analytics::Study;
use crowd_core::prelude::*;

use crate::oracle::{oracle_fused, BatchRowMetrics};

/// How floats are compared; see the module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FloatMode {
    /// Every float must match to the bit (batch engine vs itself, vs the
    /// chunk-exact oracle, and vs the live view).
    Bitwise,
    /// Order-sensitive fractional sums get a term-scaled ulp bound (kept
    /// for the benchmark's final check; see the module docs).
    OrderTolerant,
}

/// True when `a` and `b` agree within a relative bound of
/// `(8 + terms)` ulps — the slack a sum of `terms` non-negative values
/// can legitimately accumulate when its addition order changes.
pub fn float_close(a: f64, b: f64, terms: u64) -> bool {
    a == b || (a - b).abs() <= a.abs().max(b.abs()) * f64::EPSILON * (8 + terms) as f64
}

/// Collects mismatch descriptions, capping the detail kept.
struct Reporter {
    diffs: Vec<String>,
    suppressed: usize,
}

impl Reporter {
    const CAP: usize = 64;

    fn new() -> Reporter {
        Reporter { diffs: Vec::new(), suppressed: 0 }
    }

    fn mismatch(&mut self, field: impl FnOnce() -> String) {
        if self.diffs.len() < Reporter::CAP {
            self.diffs.push(field());
        } else {
            self.suppressed += 1;
        }
    }

    fn float(&mut self, a: f64, b: f64, terms: u64, mode: FloatMode, field: impl Fn() -> String) {
        let ok = match mode {
            FloatMode::Bitwise => a.to_bits() == b.to_bits(),
            FloatMode::OrderTolerant => float_close(a, b, terms),
        };
        if !ok {
            self.mismatch(|| format!("{}: {a:?} vs {b:?}", field()));
        }
    }

    fn exact<T: PartialEq + std::fmt::Debug>(&mut self, a: &T, b: &T, field: impl Fn() -> String) {
        if a != b {
            self.mismatch(|| format!("{}: {a:?} vs {b:?}", field()));
        }
    }

    /// Both absent, or both present and equal to the bit.
    fn bits(&mut self, a: Option<f64>, b: Option<f64>, field: impl Fn() -> String) {
        if a.map(f64::to_bits) != b.map(f64::to_bits) {
            self.mismatch(|| format!("{}: {a:?} vs {b:?}", field()));
        }
    }

    fn finish(mut self) -> Vec<String> {
        if self.suppressed > 0 {
            self.diffs.push(format!("… and {} more mismatches", self.suppressed));
        }
        self.diffs
    }
}

/// Compares two [`Fused`] values field by field; returns one message per
/// mismatching field (empty when they agree under `mode`).
pub fn compare_fused(a: &Fused, b: &Fused, mode: FloatMode) -> Vec<String> {
    let mut r = Reporter::new();

    r.exact(&a.w0, &b.w0, || "w0".into());
    r.exact(&a.n_weeks, &b.n_weeks, || "n_weeks".into());
    r.exact(&a.issued, &b.issued, || "issued".into());
    r.exact(&a.completed, &b.completed, || "completed".into());
    r.exact(&a.weekday, &b.weekday, || "weekday".into());
    r.exact(&a.per_day, &b.per_day, || "per_day".into());
    r.exact(&a.per_item, &b.per_item, || "per_item".into());

    // Medians of identical multisets are bit-identical in either mode.
    r.exact(&a.median_pickup, &b.median_pickup, || "median_pickup".into());

    r.exact(&a.instance_latency.len(), &b.instance_latency.len(), || "instance_latency.len".into());
    for (i, (pa, pb)) in a.instance_latency.iter().zip(&b.instance_latency).enumerate() {
        r.exact(pa, pb, || format!("instance_latency[{i}]"));
    }

    let wa: Vec<u32> = a.workers.keys().copied().collect();
    let wb: Vec<u32> = b.workers.keys().copied().collect();
    r.exact(&wa, &wb, || "workers.keys".into());
    if wa == wb {
        for (id, (x, y)) in a.workers.iter().map(|(k, v)| (*k, (v, &b.workers[k]))) {
            r.exact(&x.tasks, &y.tasks, || format!("workers[{id}].tasks"));
            // Whole-second sums are exactly associative: exact in both modes.
            r.float(x.work_secs, y.work_secs, 0, FloatMode::Bitwise, || {
                format!("workers[{id}].work_secs")
            });
            r.float(x.trust_sum, y.trust_sum, x.tasks, mode, || format!("workers[{id}].trust_sum"));
            r.exact(&x.first_day, &y.first_day, || format!("workers[{id}].first_day"));
            r.exact(&x.last_day, &y.last_day, || format!("workers[{id}].last_day"));
            r.exact(&x.days, &y.days, || format!("workers[{id}].days"));
            r.exact(&x.months, &y.months, || format!("workers[{id}].months"));
            r.exact(&x.intervals, &y.intervals, || format!("workers[{id}].intervals"));
            let ka: Vec<usize> = x.weeks.iter().map(|c| c.0).collect();
            let kb: Vec<usize> = y.weeks.iter().map(|c| c.0).collect();
            r.exact(&ka, &kb, || format!("workers[{id}].weeks.keys"));
            if ka == kb {
                for (&(wk, ca), (_, cb)) in x.weeks.iter().zip(&y.weeks) {
                    r.exact(&ca.tasks, &cb.tasks, || format!("workers[{id}].weeks[{wk}].tasks"));
                    r.float(ca.hours, cb.hours, ca.tasks, mode, || {
                        format!("workers[{id}].weeks[{wk}].hours")
                    });
                }
            }
        }
    }

    let sa: Vec<u32> = a.sources.keys().copied().collect();
    let sb: Vec<u32> = b.sources.keys().copied().collect();
    r.exact(&sa, &sb, || "sources.keys".into());
    if sa == sb {
        for (id, (x, y)) in a.sources.iter().map(|(k, v)| (*k, (v, &b.sources[k]))) {
            r.exact(&x.n_tasks, &y.n_tasks, || format!("sources[{id}].n_tasks"));
            r.exact(&x.rel_time_n, &y.rel_time_n, || format!("sources[{id}].rel_time_n"));
            r.float(x.trust_sum, y.trust_sum, x.n_tasks, mode, || {
                format!("sources[{id}].trust_sum")
            });
            r.float(x.rel_time_sum, y.rel_time_sum, x.rel_time_n, mode, || {
                format!("sources[{id}].rel_time_sum")
            });
        }
    }

    r.finish()
}

/// Compares enriched batches with the §4.1 oracle
/// ([`batch_metrics`](crate::oracle::batch_metrics)): the same sampled
/// batches in the same order, counts exact and every metric to the bit.
/// Returns one message per mismatching field (empty when they agree).
pub fn compare_batch_metrics(engine: &[BatchMetrics], oracle: &[BatchRowMetrics]) -> Vec<String> {
    let mut r = Reporter::new();
    let ea: Vec<u32> = engine.iter().map(|m| m.batch.raw()).collect();
    let oa: Vec<u32> = oracle.iter().map(|m| m.batch.raw()).collect();
    r.exact(&ea, &oa, || "batches".into());
    if ea == oa {
        for (e, o) in engine.iter().zip(oracle) {
            let id = e.batch.raw();
            r.exact(&e.n_instances, &o.n_instances, || format!("batch[{id}].n_instances"));
            r.exact(&e.n_items, &o.n_items, || format!("batch[{id}].n_items"));
            r.bits(e.disagreement, o.disagreement, || format!("batch[{id}].disagreement"));
            r.bits(e.task_time, o.task_time, || format!("batch[{id}].task_time"));
            r.bits(e.pickup_time, o.pickup_time, || format!("batch[{id}].pickup_time"));
        }
    }
    r.finish()
}

/// Runs the fused engine on a clone of `ds` inside a rayon pool of
/// `threads` workers and returns the raw aggregates.
pub fn fused_with_threads(ds: &Dataset, threads: usize) -> Fused {
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("building a local rayon pool");
    pool.install(|| Study::new(ds.clone()).fused().clone())
}

/// Runs the fused engine over `ds` the way a snapshot-backed study does:
/// the instance table is cut into (at most) `shards` chunk-aligned
/// [`ShardPlan`] pieces that stream through [`compute_streamed`] against
/// an entity-only context, inside a rayon pool of `threads` workers. The
/// shard count is a layout knob only: the result must be bit-identical to
/// [`fused_with_threads`] for any combination.
pub fn fused_with_shards(ds: &Dataset, threads: usize, shards: usize) -> Fused {
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("building a local rayon pool");
    pool.install(|| {
        let study = Study::new(ds.clone());
        let metrics: Vec<BatchMetrics> = study.enriched_batches().cloned().collect();
        let mut entities = ds.clone();
        entities.instances = InstanceColumns::new();
        let plan = ShardPlan::new(ds.instances.len(), shards);
        let pieces = plan
            .ranges()
            .map(|r| Ok::<_, std::convert::Infallible>((r.start, ds.instances.clone_range(r))));
        match compute_streamed(&entities, &metrics, ds.time_max(), pieces) {
            Ok(fused) => fused,
            Err(never) => match never {},
        }
    })
}

/// The differential test proper: the fused engine at 1 and 4 threads must
/// be bit-identical, and both must match the straight-line oracle on every
/// field, every float to the bit.
///
/// Panics with the list of mismatching field names otherwise.
pub fn assert_study_matches_oracle(ds: &Dataset) {
    let oracle = oracle_fused(ds);
    let engine1 = fused_with_threads(ds, 1);
    let engine4 = fused_with_threads(ds, 4);

    let threading = compare_fused(&engine1, &engine4, FloatMode::Bitwise);
    assert!(
        threading.is_empty(),
        "fused engine differs between 1 and 4 threads:\n{}",
        threading.join("\n")
    );

    let diffs = compare_fused(&engine1, &oracle, FloatMode::Bitwise);
    assert!(diffs.is_empty(), "fused engine differs from oracle:\n{}", diffs.join("\n"));
}
