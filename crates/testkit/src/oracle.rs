//! Straight-line oracles for every fused accumulator family.
//!
//! Each function here re-derives one family of aggregates with a plain
//! single-threaded loop over [`Dataset::instances`] in row order — no
//! fusion, no parallelism, no shared state. The code is deliberately
//! naive: its only job is to be obviously correct so the differential
//! harness ([`crate::differential`]) can hold the optimized engine to it.
//!
//! The one piece of engine structure the oracles do copy is the
//! [`ScanPass::CHUNK`] float discipline, and only where it decides bits:
//! the fractional sums — worker `trust_sum`, week `hours` and source
//! `trust_sum` — fold from 0.0 in row order within each fixed 8192-row
//! chunk, and the chunk partials are added in chunk order
//! (`chunk_ranges`). That is the scan engine's documented contract, so
//! the engine must match these oracles bit for bit. Source
//! `rel_time_sum` needs no chunks: it is defined over exact whole-second
//! `(batch, source)` group sums, each divided once by its batch median
//! ([`source_aggregates`]), so row order and chunking cannot change it.
//!
//! Family → engine map (all in [`crowd_analytics::fused`] unless noted):
//!
//! | oracle function              | fused field(s)                  | figures |
//! |------------------------------|---------------------------------|---------|
//! | [`batch_task_time_medians`]  | batch medians `rel_time_sum` divides by | §4.1 |
//! | [`arrivals`]                 | `issued`/`completed`/`median_pickup` | Figs 1–2 |
//! | [`weekday_load`]             | `weekday`                       | Fig 4   |
//! | [`daily_load`]               | `per_day`                       | Fig 3   |
//! | [`worker_aggregates`]        | `workers` (lifetimes, sessions, workload, availability, cohorts) | Figs 26–30 |
//! | [`source_aggregates`]        | `sources` (trust/relative speed per labor source) | Table 4 |
//! | [`latency_splices`]          | `instance_latency`              | Fig 13b |
//! | [`redundancy_counts`]        | `per_item`                      | §4.1    |
//!
//! [`oracle_fused`] composes the families into a full [`Fused`] value for
//! field-by-field comparison.
//!
//! [`batch_metrics`] is the oracle for the other half of enrichment: the
//! §4.1 per-batch effectiveness metrics (disagreement, median task time,
//! median pickup time) that `Study::enriched_batches` and the streaming
//! enricher both produce.

use std::collections::{BTreeMap, BTreeSet};

use crowd_analytics::design::metrics::LatencyPoint;
use crowd_analytics::fused::{month_index, Fused, SourceAgg, WeekCell, WorkerAgg};
use crowd_core::prelude::*;
use crowd_stats::descriptive::median;

/// First week index and week count of the dataset's time span, exactly as
/// the engine derives them (`(0, 0)` for a dataset with no timestamps).
pub fn week_span(ds: &Dataset) -> (i32, usize) {
    match (ds.time_min(), ds.time_max()) {
        (Some(t0), Some(t1)) => (t0.week().0, (t1.week().0 - t0.week().0 + 1).max(0) as usize),
        _ => (0, 0),
    }
}

/// Week index of `t`, clamped into `[0, n_weeks)` like the engine's
/// arrival/availability binning. Callers must ensure `n_weeks > 0`.
fn clamped_week(w0: i32, n_weeks: usize, t: Timestamp) -> usize {
    ((t.week().0 - w0).max(0) as usize).min(n_weeks - 1)
}

/// Median task time per batch: `Some(median work-seconds)` for sampled
/// batches with instances, `None` otherwise.
///
/// The engine takes these from the enrichment pipeline
/// (`Study::enriched_batches`, which only covers sampled batches); the
/// oracle recomputes them from the raw rows. Both paths feed the same
/// value multiset into the same `median`, so the results agree bit for
/// bit.
pub fn batch_task_time_medians(ds: &Dataset) -> Vec<Option<f64>> {
    let mut times: Vec<Vec<f64>> = vec![Vec::new(); ds.batches.len()];
    for row in ds.instances.iter() {
        if ds.batch(row.batch).sampled {
            times[row.batch.index()].push(row.work_time().as_secs() as f64);
        }
    }
    times.iter().map(|pile| median(pile)).collect()
}

/// Weekly arrival series: instances issued per week (by batch-creation
/// week), completed per week (by instance end week), and the median pickup
/// seconds of the instances issued each week (Figs 1–2).
pub fn arrivals(ds: &Dataset) -> (Vec<u64>, Vec<u64>, Vec<Option<f64>>) {
    let (w0, n_weeks) = week_span(ds);
    let mut issued = vec![0u64; n_weeks];
    let mut completed = vec![0u64; n_weeks];
    let mut pickups: Vec<Vec<f64>> = vec![Vec::new(); n_weeks];
    if n_weeks > 0 {
        for row in ds.instances.iter() {
            let created = ds.batch(row.batch).created_at;
            issued[clamped_week(w0, n_weeks, created)] += 1;
            completed[clamped_week(w0, n_weeks, row.end)] += 1;
            pickups[clamped_week(w0, n_weeks, created)]
                .push((row.start - created).as_secs() as f64);
        }
    }
    let median_pickup = pickups.iter().map(|pile| median(pile)).collect();
    (issued, completed, median_pickup)
}

/// Instances issued per day of week, by batch-creation time (Fig 4).
pub fn weekday_load(ds: &Dataset) -> [u64; 7] {
    let mut out = [0u64; 7];
    for row in ds.instances.iter() {
        out[ds.batch(row.batch).created_at.weekday().index()] += 1;
    }
    out
}

/// Instances issued per day number, by batch-creation time (Fig 3).
pub fn daily_load(ds: &Dataset) -> BTreeMap<i64, u64> {
    let mut out = BTreeMap::new();
    for row in ds.instances.iter() {
        *out.entry(ds.batch(row.batch).created_at.day_number()).or_insert(0) += 1;
    }
    out
}

/// The row ranges of the scan engine's fixed chunks: `[k·CHUNK,
/// (k+1)·CHUNK)` clipped to the table, in ascending order.
fn chunk_ranges(ds: &Dataset) -> impl Iterator<Item = std::ops::Range<usize>> {
    let n = ds.instances.len();
    (0..n).step_by(ScanPass::CHUNK).map(move |lo| lo..(lo + ScanPass::CHUNK).min(n))
}

/// One worker's oracle state: the fields of [`WorkerAgg`], with the
/// distinct days, months and weeks gathered in ordered sets and maps.
struct WorkerSets {
    tasks: u64,
    work_secs: f64,
    trust_sum: f64,
    first_day: i64,
    last_day: i64,
    days: BTreeSet<i64>,
    months: BTreeSet<i32>,
    intervals: Vec<(Timestamp, Timestamp)>,
    weeks: BTreeMap<usize, WeekCell>,
}

impl WorkerSets {
    fn new() -> WorkerSets {
        WorkerSets {
            tasks: 0,
            work_secs: 0.0,
            trust_sum: 0.0,
            first_day: i64::MAX,
            last_day: i64::MIN,
            days: BTreeSet::new(),
            months: BTreeSet::new(),
            intervals: Vec::new(),
            weeks: BTreeMap::new(),
        }
    }

    /// The sets and maps in ascending order, as [`WorkerAgg`] holds them.
    fn into_agg(self) -> WorkerAgg {
        WorkerAgg {
            tasks: self.tasks,
            work_secs: self.work_secs,
            trust_sum: self.trust_sum,
            first_day: self.first_day,
            last_day: self.last_day,
            days: self.days.into_iter().collect(),
            months: self.months.into_iter().collect(),
            intervals: self.intervals,
            weeks: self.weeks.into_iter().collect(),
        }
    }
}

/// Per-worker aggregates: task counts and work time (workload, Fig 27),
/// trust sums (source quality), first/last day and distinct active
/// days/months (lifetimes and cohorts, Figs 29–30), instance intervals
/// (sessions), and per-week task/hour cells (availability, Fig 26).
///
/// Each chunk folds into its own partial map; partials add into the
/// total in chunk order (see the module docs).
pub fn worker_aggregates(ds: &Dataset) -> BTreeMap<u32, WorkerAgg> {
    let (w0, n_weeks) = week_span(ds);
    let mut out: BTreeMap<u32, WorkerSets> = BTreeMap::new();
    for chunk in chunk_ranges(ds) {
        let mut part: BTreeMap<u32, WorkerSets> = BTreeMap::new();
        for i in chunk {
            let row = ds.instances.row(i);
            let day = row.start.day_number();
            let w = part.entry(row.worker.raw()).or_insert_with(WorkerSets::new);
            w.tasks += 1;
            w.work_secs += row.work_time().as_secs() as f64;
            w.trust_sum += f64::from(row.trust);
            w.first_day = w.first_day.min(day);
            w.last_day = w.last_day.max(day);
            w.days.insert(day);
            w.months.insert(month_index(row.start));
            w.intervals.push((row.start, row.end));
            if n_weeks > 0 {
                let cell: &mut WeekCell =
                    w.weeks.entry(clamped_week(w0, n_weeks, row.start)).or_default();
                cell.tasks += 1;
                cell.hours += row.work_time().as_hours_f64();
            }
        }
        for (id, p) in part {
            let w = out.entry(id).or_insert_with(WorkerSets::new);
            w.tasks += p.tasks;
            w.work_secs += p.work_secs;
            w.trust_sum += p.trust_sum;
            w.first_day = w.first_day.min(p.first_day);
            w.last_day = w.last_day.max(p.last_day);
            w.days.extend(p.days);
            w.months.extend(p.months);
            w.intervals.extend(p.intervals);
            for (wk, c) in p.weeks {
                let cell = w.weeks.entry(wk).or_default();
                cell.tasks += c.tasks;
                cell.hours += c.hours;
            }
        }
    }
    out.into_iter().map(|(id, w)| (id, w.into_agg())).collect()
}

/// Per-source aggregates: task counts and trust sums (chunked like
/// [`worker_aggregates`]), and relative task time (Table 4, Fig 27): the
/// rows are grouped by `(batch, source)`, and each source adds, over its
/// groups in ascending batch id, the group's whole work seconds divided
/// by the batch median, skipping batches whose median is absent or not
/// positive; `rel_time_n` counts the rows of the groups it added.
/// `batch_median` is the [`batch_task_time_medians`] vector.
pub fn source_aggregates(ds: &Dataset, batch_median: &[Option<f64>]) -> BTreeMap<u32, SourceAgg> {
    let mut out: BTreeMap<u32, SourceAgg> = BTreeMap::new();
    for chunk in chunk_ranges(ds) {
        let mut part: BTreeMap<u32, SourceAgg> = BTreeMap::new();
        for i in chunk {
            let row = ds.instances.row(i);
            let s = part.entry(ds.worker(row.worker).source.raw()).or_default();
            s.n_tasks += 1;
            s.trust_sum += f64::from(row.trust);
        }
        for (id, p) in part {
            let s = out.entry(id).or_default();
            s.n_tasks += p.n_tasks;
            s.trust_sum += p.trust_sum;
        }
    }

    let mut groups: BTreeMap<(u32, u32), (f64, u64)> = BTreeMap::new();
    for row in ds.instances.iter() {
        let g = groups.entry((row.batch.raw(), ds.worker(row.worker).source.raw())).or_default();
        g.0 += row.work_time().as_secs() as f64;
        g.1 += 1;
    }
    for ((batch, source), (secs, rows)) in groups {
        if let Some(med) = batch_median[batch as usize] {
            if med > 0.0 {
                let s = out.get_mut(&source).expect("every grouped row counted its source");
                s.rel_time_sum += secs / med;
                s.rel_time_n += rows;
            }
        }
    }
    out
}

/// Instance-level latency decomposition (Fig 13b): instances bucketed into
/// half-decade log splices of end-to-end time, with the median pickup and
/// task components per splice.
pub fn latency_splices(ds: &Dataset) -> Vec<LatencyPoint> {
    let mut buckets: BTreeMap<i32, (Vec<f64>, Vec<f64>)> = BTreeMap::new();
    for row in ds.instances.iter() {
        let created = ds.batch(row.batch).created_at;
        let p = ((row.start - created).as_secs() as f64).max(1.0);
        let task = row.work_time().as_secs().max(1) as f64;
        let splice = (2.0 * (p + task).log10()).floor() as i32;
        let bucket = buckets.entry(splice).or_default();
        bucket.0.push(p);
        bucket.1.push(task);
    }
    buckets
        .into_iter()
        .filter_map(|(splice, (pickups, tasks))| {
            Some(LatencyPoint {
                end_to_end: 10f64.powf(f64::from(splice) / 2.0 + 0.25),
                pickup: median(&pickups)?,
                task: median(&tasks)?,
            })
        })
        .collect()
}

/// Judgments per `(batch, item)` pair — the redundancy distribution §4.1
/// draws agreement curves from.
pub fn redundancy_counts(ds: &Dataset) -> BTreeMap<(u32, u32), u32> {
    let mut out = BTreeMap::new();
    for row in ds.instances.iter() {
        *out.entry((row.batch.raw(), row.item.raw())).or_insert(0) += 1;
    }
    out
}

/// The full oracle: every family composed into a [`Fused`] value for
/// field-by-field comparison against `Study::fused()`.
pub fn oracle_fused(ds: &Dataset) -> Fused {
    let (w0, n_weeks) = week_span(ds);
    let batch_median = batch_task_time_medians(ds);
    let (issued, completed, median_pickup) = arrivals(ds);
    Fused {
        w0,
        n_weeks,
        workers: worker_aggregates(ds),
        sources: source_aggregates(ds, &batch_median),
        issued,
        completed,
        median_pickup,
        weekday: weekday_load(ds),
        per_day: daily_load(ds).into_iter().collect(),
        instance_latency: latency_splices(ds),
        per_item: redundancy_counts(ds).into_iter().collect(),
    }
}

/// The five fields of one sampled batch's
/// [`BatchMetrics`](crowd_analytics::BatchMetrics) that come from its
/// instance rows (§4.1); cluster ids and design features come from the
/// batch HTML instead.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchRowMetrics {
    /// The batch.
    pub batch: BatchId,
    /// Instances of the batch.
    pub n_instances: u32,
    /// Distinct items the batch's instances operate on.
    pub n_items: u32,
    /// Mean item disagreement over the items with at least two answers.
    pub disagreement: Option<f64>,
    /// Median work seconds.
    pub task_time: Option<f64>,
    /// Median pickup seconds (start − batch creation).
    pub pickup_time: Option<f64>,
}

/// §4.1 per-batch metrics for every sampled batch, in dataset order
/// (zero-instance batches included, with every metric `None`).
///
/// One pass over the rows piles each sampled batch's work and pickup
/// seconds and its answers per item. An item's disagreement is the
/// pairwise definition itself — the mean of [`Answer::disagreement`]
/// over all `n·(n−1)/2` pairs of its answers, `None` below two answers —
/// and the batch score is the mean of its items' scores, added in
/// ascending item id. Pair counts are whole numbers, so the numerator is
/// exact and the score equals the engine's counting shortcut bit for
/// bit. Medians go through [`median`].
pub fn batch_metrics(ds: &Dataset) -> Vec<BatchRowMetrics> {
    struct Pile<'a> {
        times: Vec<f64>,
        pickups: Vec<f64>,
        by_item: BTreeMap<u32, Vec<&'a Answer>>,
    }
    let mut piles: Vec<Pile<'_>> = ds
        .batches
        .iter()
        .map(|_| Pile { times: Vec::new(), pickups: Vec::new(), by_item: BTreeMap::new() })
        .collect();
    for row in ds.instances.iter() {
        let batch = ds.batch(row.batch);
        if !batch.sampled {
            continue;
        }
        let pile = &mut piles[row.batch.index()];
        pile.times.push(row.work_time().as_secs() as f64);
        pile.pickups.push((row.start - batch.created_at).as_secs() as f64);
        pile.by_item.entry(row.item.raw()).or_default().push(row.answer);
    }

    let mut out = Vec::new();
    for (i, pile) in piles.iter().enumerate() {
        if !ds.batches[i].sampled {
            continue;
        }
        let mut scores: Vec<f64> = Vec::new();
        for answers in pile.by_item.values() {
            let n = answers.len();
            if n < 2 {
                continue;
            }
            let mut differing = 0.0;
            for a in 0..n {
                for b in a + 1..n {
                    differing += answers[a].disagreement(answers[b]);
                }
            }
            scores.push(differing / (n * (n - 1) / 2) as f64);
        }
        let disagreement = if scores.is_empty() {
            None
        } else {
            let mut sum = 0.0;
            for s in &scores {
                sum += s;
            }
            Some(sum / scores.len() as f64)
        };
        out.push(BatchRowMetrics {
            batch: BatchId::from_usize(i),
            n_instances: pile.times.len() as u32,
            n_items: pile.by_item.len() as u32,
            disagreement,
            task_time: median(&pile.times),
            pickup_time: median(&pile.pickups),
        });
    }
    out
}
