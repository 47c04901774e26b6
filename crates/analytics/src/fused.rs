//! The fused analytics pass: every instance-table aggregate the paper's
//! figures need, computed in **one** deterministic [`ScanPass`].
//!
//! Before this module each analytics function re-walked `ds.instances`
//! on its own (~28 full-table scans for a full reproduction run). Now a
//! single composite accumulator (`FusedAcc`) gathers the raw per-worker,
//! per-source, per-week, per-day, per-splice and per-item aggregates in
//! one pass, and the public functions in [`crate::marketplace`],
//! [`crate::workers`] and [`crate::design`] *shape* their outputs from the
//! cached [`Fused`] result (held in a `OnceLock` on [`Study`]). The same
//! accumulator folds the streamed snapshot scan ([`compute_streamed`])
//! and the live view ([`crate::view::FusedView`]), so all three paths
//! produce bit-identical aggregates over the same rows.
//!
//! ## Determinism
//!
//! The engine inherits the `ScanPass` contract: fixed-size chunks folded
//! in row order, merged sequentially in chunk order — so every float sum
//! here is bit-identical at any thread count. Keyed scan state is
//! index-addressed (dense tables, ascending runs), never hashed, and the
//! outputs are `BTreeMap`/`BTreeSet`, so shaping iterates in a
//! process-independent order (a `HashMap`'s random seed must never decide
//! the order in which floats are added or rows are exported).
//!
//! Two rules let the live view finish the aggregates at any prefix of
//! the rows and match a batch scan over that prefix. Week offsets count
//! from the first batch week, floored at 0 and never clamped above; the
//! weekly vectors grow as rows arrive and are padded to the configured
//! span at the end. Relative task time (`rel_time_sum`) is kept as exact
//! whole-second sums per `(batch, source)` and divided by the batch
//! medians once, when the scan finishes, so it does not depend on row
//! order or chunking either.
//!
//! The raw aggregate types here are public so that `crowd-testkit` can
//! compare the fused engine field-by-field against straight-line oracle
//! re-implementations (differential testing); analytics callers should
//! keep consuming the shaped outputs in [`crate::marketplace`],
//! [`crate::workers`] and [`crate::design`] instead.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use crowd_core::prelude::*;
use crowd_stats::descriptive::median_inplace;

use crate::design::metrics::LatencyPoint;
use crate::study::Study;

/// Months since year 0, for cohort bucketing.
pub fn month_index(t: Timestamp) -> i32 {
    let (y, m, _) = t.ymd();
    y * 12 + (m as i32 - 1)
}

/// Tasks and active hours of one worker inside one week.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct WeekCell {
    /// Instances started this week.
    pub tasks: u64,
    /// Work-time hours clocked this week.
    pub hours: f64,
}

/// Raw per-worker aggregates (only workers with ≥ 1 instance appear).
#[derive(Debug, Clone, PartialEq)]
pub struct WorkerAgg {
    /// Instances performed.
    pub tasks: u64,
    /// Total work time in seconds (integer-valued, so order-exact).
    pub work_secs: f64,
    /// Sum of trust scores.
    pub trust_sum: f64,
    /// Day number of the first activity.
    pub first_day: i64,
    /// Day number of the last activity.
    pub last_day: i64,
    /// Distinct active day numbers.
    pub days: BTreeSet<i64>,
    /// Distinct active months (see [`month_index`]).
    pub months: BTreeSet<i32>,
    /// `(start, end)` of every instance, in row order (for sessions).
    pub intervals: Vec<(Timestamp, Timestamp)>,
    /// Per-week activity, keyed by week offset from the dataset's first
    /// week (floored at 0 like the availability figures).
    pub weeks: BTreeMap<usize, WeekCell>,
}

/// Raw per-source aggregates (only sources with ≥ 1 instance appear).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SourceAgg {
    /// Instances performed by the source's workers.
    pub n_tasks: u64,
    /// Sum of trust scores.
    pub trust_sum: f64,
    /// Relative task time: over the sampled batches in ascending batch
    /// id, the whole work seconds of this source's rows in the batch
    /// divided by the batch's median task time (medians > 0 only).
    pub rel_time_sum: f64,
    /// Instances contributing to `rel_time_sum`.
    pub rel_time_n: u64,
}

/// Everything the analytics layer needs from the instance table, gathered
/// in one scan and cached on the [`Study`].
#[derive(Debug, Clone, PartialEq)]
pub struct Fused {
    /// First week index of the dataset (0 when empty).
    pub w0: i32,
    /// Number of weeks covered (0 when empty).
    pub n_weeks: usize,
    /// Per-worker aggregates, keyed by raw worker id (ascending).
    pub workers: BTreeMap<u32, WorkerAgg>,
    /// Per-source aggregates, keyed by raw source id (ascending).
    pub sources: BTreeMap<u32, SourceAgg>,
    /// Instances issued per week (attributed to the batch-creation week).
    pub issued: Vec<u64>,
    /// Instances completed per week (by instance end time).
    pub completed: Vec<u64>,
    /// Median pickup seconds of instances issued per week.
    pub median_pickup: Vec<Option<f64>>,
    /// Instances issued per day of week (of the batch creation time).
    pub weekday: [u64; 7],
    /// Instances issued per day number (of the batch creation time).
    pub per_day: BTreeMap<i64, u64>,
    /// Fig 13b instance-level latency points, one per end-to-end splice.
    pub instance_latency: Vec<LatencyPoint>,
    /// Judgments per `(batch, item)`.
    pub per_item: BTreeMap<(u32, u32), u32>,
}

impl Fused {
    /// Total instance rows the scan covered — the authoritative count for
    /// consumers that must work when the study runs columns-optional (the
    /// weekday histogram counts every row exactly once).
    pub fn n_instances(&self) -> u64 {
        self.weekday.iter().sum()
    }
}

/// Scan-wide configuration shared by every chunk's working copy.
struct ScanConfig {
    w0: i32,
    /// The least week span of the output; rows can only extend it.
    n_weeks: usize,
    /// Median task time per batch (`None` for unsampled batches), indexed
    /// by batch id: what the scan's own [`Accumulator::finish`] divides
    /// by. The live view passes the medians of its prefix instead.
    batch_median: Vec<Option<f64>>,
}

impl ScanConfig {
    /// Weeks from `w0`, floored at 0 and not clamped above: the weekly
    /// vectors grow to fit.
    fn week_of(&self, t: Timestamp) -> usize {
        (t.week().0 - self.w0).max(0) as usize
    }
}

/// The composite accumulator feeding [`Fused`] from one [`ScanPass`].
///
/// State is flat and index-addressed (DESIGN.md §18): a chunk groups its
/// rows by worker into [`Runs`], the merge folds those runs into a dense
/// [`WorkerSlot`] table indexed by worker id, and every other keyed
/// family is either a dense vector or an ascending `(key, count)` run.
/// The ordered [`BTreeMap`]s of [`Fused`] are built once, in `finish`.
///
/// The batch scan, the streamed scan and the live view
/// ([`crate::view::FusedView`]) all fold with this one accumulator.
#[derive(Clone)]
pub(crate) struct FusedAcc {
    cfg: Arc<ScanConfig>,
    /// Rows taken one at a time through `accept`; folded as one unit at
    /// the next merge or finish.
    pending: Option<Box<Pending>>,
    /// Per-worker state of the rows this copy folded itself.
    runs: Runs,
    /// Merged per-worker state, indexed by raw worker id.
    table: Vec<WorkerSlot>,
    /// Indexed by raw source id (`n_tasks == 0` = absent); the
    /// `rel_time_*` fields stay 0 until `finish`.
    sources: Vec<SourceAgg>,
    /// `((batch, source), (whole work seconds, rows))`, ascending. The
    /// seconds are integers, so the sums are exact in any order.
    rel_time: Vec<((u32, u32), (f64, u64))>,
    /// Weekly series, indexed by week offset and grown as rows arrive.
    issued: Vec<u64>,
    completed: Vec<u64>,
    pickups: Vec<Vec<f64>>,
    weekday: [u64; 7],
    /// `(day number, instances)`, ascending.
    per_day: Vec<(i64, u64)>,
    /// (pickup secs, task secs) piles, indexed by half-decade log-splice.
    buckets: Vec<(Vec<f64>, Vec<f64>)>,
    /// `((batch, item), judgments)`, ascending.
    per_item: Vec<((u32, u32), u32)>,
}

/// Rows staged by the row-at-a-time path, with their entity lookups.
#[derive(Clone, Default)]
struct Pending {
    rows: InstanceColumns,
    created: Vec<Timestamp>,
    source: Vec<u32>,
}

/// One fold unit: column slices plus the batch creation time and worker
/// source of every row.
struct Rows<'a> {
    batch: &'a [BatchId],
    item: &'a [ItemId],
    worker: &'a [WorkerId],
    start: &'a [Timestamp],
    end: &'a [Timestamp],
    trust: &'a [f32],
    created: &'a [Timestamp],
    source: &'a [u32],
}

impl<'a> Rows<'a> {
    fn of(
        cols: &'a InstanceColumns,
        range: std::ops::Range<usize>,
        created: &'a [Timestamp],
        source: &'a [u32],
    ) -> Rows<'a> {
        Rows {
            batch: &cols.batch_col()[range.clone()],
            item: &cols.item_col()[range.clone()],
            worker: &cols.worker_col()[range.clone()],
            start: &cols.start_col()[range.clone()],
            end: &cols.end_col()[range.clone()],
            trust: &cols.trust_col()[range],
            created,
            source,
        }
    }
}

/// One worker's state over a contiguous row range, borrowed: a chunk's
/// run or a merged slot. Key slices are ascending and duplicate-free;
/// `intervals` is in row order.
#[derive(Clone, Copy)]
struct Run<'a> {
    work_secs: f64,
    trust_sum: f64,
    days: &'a [i64],
    weeks: &'a [(usize, WeekCell)],
    intervals: &'a [(Timestamp, Timestamp)],
}

/// The end offsets of one run's slices in [`Runs`].
#[derive(Clone)]
struct RunHead {
    worker: u32,
    work_secs: f64,
    trust_sum: f64,
    days: usize,
    weeks: usize,
    intervals: usize,
}

/// One fold unit's per-worker state: heads in ascending worker id, each
/// owning the next slice of every flat key array.
#[derive(Clone, Default)]
struct Runs {
    heads: Vec<RunHead>,
    days: Vec<i64>,
    weeks: Vec<(usize, WeekCell)>,
    intervals: Vec<(Timestamp, Timestamp)>,
}

impl Runs {
    /// Groups `r` by worker with one sort of `(worker, row)` keys — so
    /// each worker's rows keep their row order — and folds each group
    /// into a run. Float sums start from 0.0 and add in row order.
    fn build(r: &Rows<'_>, work_secs: &[f64], cfg: &ScanConfig) -> Runs {
        let n = r.worker.len();
        let mut order: Vec<u64> =
            r.worker.iter().enumerate().map(|(i, w)| u64::from(w.raw()) << 32 | i as u64).collect();
        order.sort_unstable();
        let mut runs = Runs { intervals: Vec::with_capacity(n), ..Runs::default() };
        for group in order.chunk_by(|a, b| a >> 32 == b >> 32) {
            let rows = || group.iter().map(|&k| (k & 0xFFFF_FFFF) as usize);
            let (mut work, mut trust) = (0.0, 0.0);
            for i in rows() {
                work += work_secs[i];
                trust += f64::from(r.trust[i]);
                runs.intervals.push((r.start[i], r.end[i]));
            }

            let d0 = runs.days.len();
            let days = rows().map(|i| r.start[i].day_number());
            if !extend_ascending(&mut runs.days, d0, days.clone(), |d| *d, |_, _| {}) {
                let mut sorted: Vec<i64> = days.collect();
                sorted.sort_unstable();
                sorted.dedup();
                runs.days.extend(sorted);
            }
            let k0 = runs.weeks.len();
            let cells = rows().map(|i| {
                let hours = (r.end[i] - r.start[i]).as_hours_f64();
                (cfg.week_of(r.start[i]), WeekCell { tasks: 1, hours })
            });
            if !extend_ascending(&mut runs.weeks, k0, cells.clone(), |c| c.0, add_cells) {
                // Stable by week: each week's hours still add in row order.
                let mut sorted: Vec<(usize, WeekCell)> = cells.collect();
                sorted.sort_by_key(|c| c.0);
                extend_ascending(&mut runs.weeks, k0, sorted.into_iter(), |c| c.0, add_cells);
            }

            runs.heads.push(RunHead {
                worker: (group[0] >> 32) as u32,
                work_secs: work,
                trust_sum: trust,
                days: runs.days.len(),
                weeks: runs.weeks.len(),
                intervals: runs.intervals.len(),
            });
        }
        runs
    }

    /// `(worker id, run)` in ascending worker order.
    fn iter(&self) -> impl Iterator<Item = (usize, Run<'_>)> {
        let mut at = (0, 0, 0);
        self.heads.iter().map(move |h| {
            let run = Run {
                work_secs: h.work_secs,
                trust_sum: h.trust_sum,
                days: &self.days[at.0..h.days],
                weeks: &self.weeks[at.1..h.weeks],
                intervals: &self.intervals[at.2..h.intervals],
            };
            at = (h.days, h.weeks, h.intervals);
            (h.worker as usize, run)
        })
    }
}

/// Adds a chunk's week cell into the running cell (running total first).
fn add_cells(total: &mut (usize, WeekCell), part: &(usize, WeekCell)) {
    total.1.tasks += part.1.tasks;
    total.1.hours += part.1.hours;
}

/// Adds a `(batch, source)` group's seconds and rows into the running one.
fn add_groups(total: &mut ((u32, u32), (f64, u64)), part: &((u32, u32), (f64, u64))) {
    total.1 .0 += part.1 .0;
    total.1 .1 += part.1 .1;
}

/// Appends `items` to the ascending, key-unique tail `v[from..]`, adding
/// each item into the entry of its key when the key repeats the last
/// one. Returns `false`, with the tail dropped, if a key ever descends.
fn extend_ascending<E, K: Ord>(
    v: &mut Vec<E>,
    from: usize,
    items: impl Iterator<Item = E>,
    key: impl Fn(&E) -> K,
    add: impl Fn(&mut E, &E),
) -> bool {
    for item in items {
        match v[from..].last_mut() {
            Some(last) if key(last) == key(&item) => add(last, &item),
            Some(last) if key(last) > key(&item) => {
                v.truncate(from);
                return false;
            }
            _ => v.push(item),
        }
    }
    true
}

/// Merges the ascending, key-unique `run` into the ascending, key-unique
/// `total`, combining equal keys with `add(total_entry, run_entry)`.
/// A run that starts at or after `total`'s last key appends — always the
/// case for rows arriving in time order; any other order merges the
/// overlapping tail.
fn merge_run<E: Copy, K: Ord>(
    total: &mut Vec<E>,
    run: &[E],
    key: impl Fn(&E) -> K,
    add: impl Fn(&mut E, &E),
) {
    let Some(first) = run.first() else { return };
    let at = match total.last() {
        Some(last) if key(last) >= key(first) => total.partition_point(|e| key(e) < key(first)),
        _ => total.len(),
    };
    if at == total.len() {
        return total.extend_from_slice(run);
    }
    if at + 1 == total.len() && key(&total[at]) == key(first) {
        add(&mut total[at], first);
        return total.extend_from_slice(&run[1..]);
    }
    let tail = total.split_off(at);
    let (mut i, mut j) = (0, 0);
    while i < tail.len() && j < run.len() {
        match key(&tail[i]).cmp(&key(&run[j])) {
            std::cmp::Ordering::Less => {
                total.push(tail[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                total.push(run[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                let mut e = tail[i];
                add(&mut e, &run[j]);
                total.push(e);
                i += 1;
                j += 1;
            }
        }
    }
    total.extend_from_slice(&tail[i..]);
    total.extend_from_slice(&run[j..]);
}

/// `(key, multiplicity)` of each distinct key of an ascending slice.
fn tally<K: Copy + PartialEq, C: Copy + From<u8> + std::ops::AddAssign>(
    sorted: &[K],
) -> Vec<(K, C)> {
    let mut out: Vec<(K, C)> = Vec::new();
    for &k in sorted {
        match out.last_mut() {
            Some((last, c)) if *last == k => *c += C::from(1),
            _ => out.push((k, C::from(1))),
        }
    }
    out
}

/// `v[i]`, growing `v` with defaults as needed.
fn slot<T: Default>(v: &mut Vec<T>, i: usize) -> &mut T {
    if v.len() <= i {
        v.resize_with(i + 1, T::default);
    }
    &mut v[i]
}

/// One worker's merged state in the dense table (empty = no rows).
#[derive(Clone, Default)]
struct WorkerSlot {
    work_secs: f64,
    trust_sum: f64,
    days: Vec<i64>,
    weeks: Vec<(usize, WeekCell)>,
    intervals: Vec<(Timestamp, Timestamp)>,
}

impl WorkerSlot {
    /// Adds the state of rows after this slot's rows.
    fn absorb(&mut self, run: Run<'_>) {
        self.work_secs += run.work_secs;
        self.trust_sum += run.trust_sum;
        merge_run(&mut self.days, run.days, |d| *d, |_, _| {});
        merge_run(&mut self.weeks, run.weeks, |c| c.0, add_cells);
        self.intervals.extend_from_slice(run.intervals);
    }

    fn run(&self) -> Run<'_> {
        Run {
            work_secs: self.work_secs,
            trust_sum: self.trust_sum,
            days: &self.days,
            weeks: &self.weeks,
            intervals: &self.intervals,
        }
    }

    /// The public aggregate; `None` for a worker without rows. Months
    /// are those of the distinct days.
    fn into_agg(self) -> Option<WorkerAgg> {
        let (&first_day, &last_day) = (self.days.first()?, self.days.last()?);
        let months = self
            .days
            .iter()
            .map(|&d| month_index(Timestamp::from_secs(d * crowd_core::time::SECS_PER_DAY)))
            .collect();
        Some(WorkerAgg {
            tasks: self.intervals.len() as u64,
            work_secs: self.work_secs,
            trust_sum: self.trust_sum,
            first_day,
            last_day,
            days: self.days.into_iter().collect(),
            months,
            intervals: self.intervals,
            weeks: self.weeks.into_iter().collect(),
        })
    }
}

impl FusedAcc {
    /// The prototype for a scan over rows of `ds`'s entities. The week
    /// window runs from the first batch creation to the later of
    /// `time_max` and `ds.time_max()`, or further if rows end later;
    /// `batch_metrics` supply the batch median task times.
    pub(crate) fn proto<'a>(
        ds: &Dataset,
        batch_metrics: impl IntoIterator<Item = &'a crate::study::BatchMetrics>,
        time_max: Option<Timestamp>,
    ) -> FusedAcc {
        let t1 = [time_max, ds.time_max()].into_iter().flatten().max();
        let (w0, n_weeks) = match (ds.time_min(), t1) {
            (Some(t0), Some(t1)) => (t0.week().0, (t1.week().0 - t0.week().0 + 1).max(0) as usize),
            _ => (0, 0),
        };
        let mut batch_median: Vec<Option<f64>> = vec![None; ds.batches.len()];
        for m in batch_metrics {
            if let Some(t) = m.task_time {
                batch_median[m.batch.index()] = Some(t);
            }
        }
        FusedAcc::blank(Arc::new(ScanConfig { w0, n_weeks, batch_median }))
    }

    fn blank(cfg: Arc<ScanConfig>) -> FusedAcc {
        FusedAcc {
            cfg,
            pending: None,
            runs: Runs::default(),
            table: Vec::new(),
            sources: Vec::new(),
            rel_time: Vec::new(),
            issued: Vec::new(),
            completed: Vec::new(),
            pickups: Vec::new(),
            weekday: [0; 7],
            per_day: Vec::new(),
            buckets: Vec::new(),
            per_item: Vec::new(),
        }
    }

    /// Folds one unit of rows into a fresh partial: every family from
    /// zero, rows in ascending order within each family.
    fn fold(cfg: &Arc<ScanConfig>, r: Rows<'_>) -> FusedAcc {
        let mut acc = FusedAcc::blank(Arc::clone(cfg));
        let work_secs: Vec<f64> =
            r.start.iter().zip(r.end).map(|(&s, &e)| (e - s).as_secs() as f64).collect();
        let pickup: Vec<f64> =
            r.start.iter().zip(r.created).map(|(&s, &c)| (s - c).as_secs() as f64).collect();

        // ---- per worker -------------------------------------------------
        acc.runs = Runs::build(&r, &work_secs, cfg);

        // ---- per source -------------------------------------------------
        for (&src, &trust) in r.source.iter().zip(r.trust) {
            let s = slot(&mut acc.sources, src as usize);
            s.n_tasks += 1;
            s.trust_sum += f64::from(trust);
        }
        let mut groups: Vec<((u32, u32), (f64, u64))> = r
            .batch
            .iter()
            .zip(r.source)
            .zip(&work_secs)
            .map(|((b, &src), &ws)| ((b.raw(), src), (ws, 1)))
            .collect();
        groups.sort_unstable_by_key(|g| g.0);
        extend_ascending(&mut acc.rel_time, 0, groups.into_iter(), |g| g.0, add_groups);

        // ---- arrival / load series --------------------------------------
        for (i, &pk) in pickup.iter().enumerate() {
            let wi = cfg.week_of(r.created[i]);
            *slot(&mut acc.issued, wi) += 1;
            *slot(&mut acc.completed, cfg.week_of(r.end[i])) += 1;
            slot(&mut acc.pickups, wi).push(pk);
        }
        for c in r.created {
            acc.weekday[c.weekday().index()] += 1;
        }
        let mut days: Vec<i64> = r.created.iter().map(|c| c.day_number()).collect();
        days.sort_unstable();
        acc.per_day = tally(&days);

        // ---- latency decomposition (Fig 13b) ----------------------------
        for (&pk, &ws) in pickup.iter().zip(&work_secs) {
            let p = pk.max(1.0);
            let task = ws.max(1.0);
            // p + task ≥ 2, so the splice is never negative.
            let splice = (2.0 * (p + task).log10()).floor() as usize;
            let bucket = slot(&mut acc.buckets, splice);
            bucket.0.push(p);
            bucket.1.push(task);
        }

        // ---- redundancy -------------------------------------------------
        let mut keys: Vec<(u32, u32)> =
            r.batch.iter().zip(r.item).map(|(b, it)| (b.raw(), it.raw())).collect();
        keys.sort_unstable();
        acc.per_item = tally(&keys);
        acc
    }

    /// Folds rows staged by `accept` as one unit.
    fn seal(&mut self) {
        if let Some(p) = self.pending.take() {
            let part = FusedAcc::fold(
                &self.cfg,
                Rows::of(&p.rows, 0..p.rows.len(), &p.created, &p.source),
            );
            self.merge(part);
        }
    }

    /// Moves this copy's own runs into the dense table.
    fn settle_runs(&mut self) {
        let runs = std::mem::take(&mut self.runs);
        for (worker, run) in runs.iter() {
            slot(&mut self.table, worker).absorb(run);
        }
    }

    /// The [`Fused`] of every row folded so far, with `batch_median`
    /// (indexed by batch id) dividing the relative-time groups: each
    /// source adds its groups' `seconds / median` in ascending batch id,
    /// skipping batches without a positive median. The weekly vectors are
    /// padded to the configured span.
    pub(crate) fn finish_with(mut self, batch_median: &[Option<f64>]) -> Fused {
        self.seal();
        self.settle_runs();
        for &((batch, source), (secs, rows)) in &self.rel_time {
            if let Some(med) = batch_median[batch as usize].filter(|&m| m > 0.0) {
                let s = &mut self.sources[source as usize];
                s.rel_time_sum += secs / med;
                s.rel_time_n += rows;
            }
        }
        let n_weeks = [self.issued.len(), self.completed.len(), self.pickups.len()]
            .into_iter()
            .fold(self.cfg.n_weeks, usize::max);
        self.issued.resize(n_weeks, 0);
        self.completed.resize(n_weeks, 0);
        self.pickups.resize(n_weeks, Vec::new());
        let workers = self
            .table
            .into_iter()
            .enumerate()
            .filter_map(|(id, s)| Some((id as u32, s.into_agg()?)))
            .collect();
        let sources = self
            .sources
            .into_iter()
            .enumerate()
            .filter(|(_, s)| s.n_tasks > 0)
            .map(|(id, s)| (id as u32, s))
            .collect();
        let median_pickup = self.pickups.iter_mut().map(|pile| median_inplace(pile)).collect();
        let instance_latency = self
            .buckets
            .iter_mut()
            .enumerate()
            .filter_map(|(splice, (pickups, tasks))| {
                let e2e = 10f64.powf(splice as f64 / 2.0 + 0.25);
                Some(LatencyPoint {
                    end_to_end: e2e,
                    pickup: median_inplace(pickups)?,
                    task: median_inplace(tasks)?,
                })
            })
            .collect();
        Fused {
            w0: self.cfg.w0,
            n_weeks,
            workers,
            sources,
            issued: self.issued,
            completed: self.completed,
            median_pickup,
            weekday: self.weekday,
            per_day: self.per_day.into_iter().collect(),
            instance_latency,
            per_item: self.per_item.into_iter().collect(),
        }
    }
}

impl Accumulator for FusedAcc {
    type Output = Fused;

    fn init(&self) -> Self {
        FusedAcc::blank(Arc::clone(&self.cfg))
    }

    fn accept(&mut self, ds: &Dataset, _id: InstanceId, row: InstanceRef<'_>) {
        let p = self.pending.get_or_insert_with(Default::default);
        p.created.push(ds.batch(row.batch).created_at);
        p.source.push(ds.worker(row.worker).source.raw());
        p.rows.push(row.to_owned());
    }

    /// Columnar fold of one chunk: gathers each row's batch creation time
    /// and worker source, then folds every state family in its own
    /// ascending-row loop (the families write disjoint state).
    fn accept_chunk(
        &mut self,
        ds: &Dataset,
        _base: usize,
        cols: &InstanceColumns,
        range: std::ops::Range<usize>,
    ) {
        let created: Vec<Timestamp> =
            cols.batch_col()[range.clone()].iter().map(|&b| ds.batch(b).created_at).collect();
        let source: Vec<u32> =
            cols.worker_col()[range.clone()].iter().map(|&w| ds.worker(w).source.raw()).collect();
        let part = FusedAcc::fold(&self.cfg, Rows::of(cols, range, &created, &source));
        self.merge(part);
    }

    fn merge(&mut self, mut other: Self) {
        other.seal();
        self.seal();
        if self.weekday == [0; 7] {
            // No rows yet: take the partial as the total. Adding it to
            // zeros would give the same bits (0.0 + x == x for every
            // partial sum here), only slower.
            *self = other;
            return;
        }
        self.settle_runs();
        for (worker, s) in other.table.iter().enumerate() {
            if !s.intervals.is_empty() {
                slot(&mut self.table, worker).absorb(s.run());
            }
        }
        for (worker, run) in other.runs.iter() {
            slot(&mut self.table, worker).absorb(run);
        }
        for (id, s) in other.sources.iter().enumerate().filter(|(_, s)| s.n_tasks > 0) {
            let mine = slot(&mut self.sources, id);
            mine.n_tasks += s.n_tasks;
            mine.trust_sum += s.trust_sum;
        }
        merge_run(&mut self.rel_time, &other.rel_time, |g| g.0, add_groups);
        for (week, n) in other.issued.into_iter().enumerate() {
            *slot(&mut self.issued, week) += n;
        }
        for (week, n) in other.completed.into_iter().enumerate() {
            *slot(&mut self.completed, week) += n;
        }
        for (week, pile) in other.pickups.into_iter().enumerate() {
            slot(&mut self.pickups, week).extend_from_slice(&pile);
        }
        for (mine, theirs) in self.weekday.iter_mut().zip(other.weekday) {
            *mine += theirs;
        }
        merge_run(&mut self.per_day, &other.per_day, |e| e.0, |a, b| a.1 += b.1);
        for (splice, (pickups, tasks)) in other.buckets.into_iter().enumerate() {
            let mine = slot(&mut self.buckets, splice);
            mine.0.extend_from_slice(&pickups);
            mine.1.extend_from_slice(&tasks);
        }
        merge_run(&mut self.per_item, &other.per_item, |e| e.0, |a, b| a.1 += b.1);
    }

    fn finish(self, _ds: &Dataset) -> Fused {
        let cfg = Arc::clone(&self.cfg);
        self.finish_with(&cfg.batch_median)
    }
}

/// Runs the fused pass for a study. Called once per `Study` (memoized).
pub fn compute(study: &Study) -> Fused {
    let ds = study.dataset();
    let proto = FusedAcc::proto(ds, study.enriched_batches(), None);
    ScanPass::run(ds, &proto)
}

/// Runs the fused pass over a stream of owned shards — the bounded-memory
/// snapshot path, where per-shard file sections feed the scan directly and
/// the full instance table is never resident. `ds` supplies the entity
/// context (batches, workers); `batch_metrics` the per-batch median task
/// times ([`crate::study::BatchMetrics::task_time`]) the source aggregates
/// need; `time_max` the dataset-wide latest instance end, which an
/// entity-only dataset cannot reproduce (it sees only batch creation
/// times) — pass the persisted value so the week window matches the
/// materialized scan's. Bit-identical to [`compute`] on the equivalent
/// monolithic study.
pub fn compute_streamed<E>(
    ds: &Dataset,
    batch_metrics: &[crate::study::BatchMetrics],
    time_max: Option<Timestamp>,
    shards: impl Iterator<Item = std::result::Result<(usize, InstanceColumns), E>>,
) -> std::result::Result<Fused, E> {
    let proto = FusedAcc::proto(ds, batch_metrics, time_max);
    ScanPass::run_stream(ds, &proto, shards)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fused_is_computed_once_and_totals_match() {
        let s = crate::testutil::tiny_study();
        let ds = s.dataset();
        let before = ScanPass::full_scan_count();
        let f = s.fused();
        let g = s.fused();
        assert!(ScanPass::full_scan_count() - before <= 1, "memoized");
        assert_eq!(f.workers.len(), g.workers.len());

        let n = ds.instances.len() as u64;
        assert_eq!(f.workers.values().map(|w| w.tasks).sum::<u64>(), n);
        assert_eq!(f.sources.values().map(|s| s.n_tasks).sum::<u64>(), n);
        assert_eq!(f.issued.iter().sum::<u64>(), n);
        assert_eq!(f.completed.iter().sum::<u64>(), n);
        assert_eq!(f.weekday.iter().sum::<u64>(), n);
        assert_eq!(f.per_day.values().sum::<u64>(), n);
        assert_eq!(f.per_item.values().map(|&c| u64::from(c)).sum::<u64>(), n);
        let intervals: usize = f.workers.values().map(|w| w.intervals.len()).sum();
        assert_eq!(intervals, ds.instances.len());
    }

    /// `FusedAcc` without its columnar override: the trait's default
    /// `accept_chunk` feeds `accept` one row at a time.
    struct RowPath(FusedAcc);

    impl Accumulator for RowPath {
        type Output = Fused;

        fn init(&self) -> Self {
            RowPath(self.0.init())
        }

        fn accept(&mut self, ds: &Dataset, id: InstanceId, row: InstanceRef<'_>) {
            self.0.accept(ds, id, row);
        }

        fn merge(&mut self, other: Self) {
            self.0.merge(other.0);
        }

        fn finish(self, ds: &Dataset) -> Fused {
            self.0.finish(ds)
        }
    }

    fn assert_bit_identical(a: &Fused, b: &Fused) {
        assert_eq!(a, b);
        for (x, y) in a.workers.values().zip(b.workers.values()) {
            assert_eq!(x.trust_sum.to_bits(), y.trust_sum.to_bits());
            assert_eq!(x.work_secs.to_bits(), y.work_secs.to_bits());
            for (cx, cy) in x.weeks.values().zip(y.weeks.values()) {
                assert_eq!(cx.hours.to_bits(), cy.hours.to_bits());
            }
        }
        for (x, y) in a.sources.values().zip(b.sources.values()) {
            assert_eq!(x.trust_sum.to_bits(), y.trust_sum.to_bits());
            assert_eq!(x.rel_time_sum.to_bits(), y.rel_time_sum.to_bits());
        }
    }

    /// The engine's chunk schedule, run sequentially without touching
    /// the process-wide scan counter other tests here assert on.
    fn chunked_scan<A: Accumulator>(ds: &Dataset, proto: &A) -> A::Output {
        let n = ds.instances.len();
        let mut total = proto.init();
        for lo in (0..n).step_by(ScanPass::CHUNK) {
            let mut part = proto.init();
            part.accept_chunk(ds, 0, &ds.instances, lo..(lo + ScanPass::CHUNK).min(n));
            total.merge(part);
        }
        total.finish(ds)
    }

    #[test]
    fn row_path_and_columnar_chunks_are_bit_identical() {
        let s = crate::testutil::tiny_study();
        let ds = s.dataset();
        assert!(ds.instances.len() > 3 * ScanPass::CHUNK, "several chunks");
        // Reversed rows take every sorted-merge fallback.
        let mut reversed = ds.clone();
        reversed.instances = InstanceColumns::new();
        for i in (0..ds.instances.len()).rev() {
            reversed.instances.push(ds.instances.row(i).to_owned());
        }
        let [forward, backward] = [ds, &reversed].map(|ds| {
            let proto = FusedAcc::proto(ds, s.enriched_batches(), None);
            let rows = chunked_scan(ds, &RowPath(proto.init()));
            let columnar = chunked_scan(ds, &proto);
            assert!(columnar.sources.values().any(|s| s.rel_time_n > 0), "rel_time exercised");
            assert_bit_identical(&rows, &columnar);
            columnar
        });
        // Exact whole-second group sums, each divided once: relative time
        // depends on which rows were folded, not on their order or chunks.
        let differ = forward
            .sources
            .values()
            .zip(backward.sources.values())
            .filter(|(f, b)| f.rel_time_sum.to_bits() != b.rel_time_sum.to_bits())
            .count();
        let n = forward.sources.len();
        assert_eq!(differ, 0, "{differ} of {n} sources' rel_time_sum depend on row order");
    }

    #[test]
    fn worker_aggregates_are_internally_consistent() {
        let s = crate::testutil::tiny_study();
        for agg in s.fused().workers.values() {
            assert!(agg.tasks > 0);
            assert!(agg.first_day <= agg.last_day);
            assert!(!agg.days.is_empty());
            assert!(agg.days.len() as u64 <= agg.tasks);
            assert!(!agg.months.is_empty());
            assert_eq!(agg.intervals.len() as u64, agg.tasks);
            assert_eq!(agg.weeks.values().map(|c| c.tasks).sum::<u64>(), agg.tasks);
        }
    }
}
