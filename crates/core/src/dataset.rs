//! The dataset container: all entity tables plus derived indexes.
//!
//! The instance table — by far the hottest and largest — is stored as a
//! struct-of-arrays [`InstanceColumns`] so analytical scans touch only the
//! columns they read and vectorize naturally; [`InstanceRef`] row views keep
//! the ergonomic row-at-a-time API at call sites.

use std::collections::HashSet;
use std::sync::Arc;

use crate::answer::Answer;
use crate::error::{CoreError, Result};
use crate::id::{BatchId, CountryId, InstanceId, ItemId, SourceId, TaskTypeId, WorkerId};
use crate::task::{Batch, TaskType};
use crate::time::{Duration, Timestamp};
use crate::worker::{Country, Source, Worker};

/// One completed task instance: a single worker's unit of work on one item
/// (paper §2, §2.3 "Task instance attributes").
///
/// This owned row form is the construction/interchange currency; at rest the
/// instance table is columnar ([`InstanceColumns`]) and reads hand out
/// [`InstanceRef`] views instead.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskInstance {
    /// The batch this instance belongs to.
    pub batch: BatchId,
    /// The item the instance's question operates on, scoped to the batch's
    /// task type: equal `(task_type, item)` pairs denote the same datum.
    pub item: ItemId,
    /// The worker who performed the instance.
    pub worker: WorkerId,
    /// When the worker started the instance.
    pub start: Timestamp,
    /// When the worker submitted the instance.
    pub end: Timestamp,
    /// Marketplace-assigned trust score in `[0, 1]` — accuracy on hidden
    /// test questions, the paper's only proxy for worker accuracy (§2.3).
    pub trust: f32,
    /// The worker's answer.
    pub answer: Answer,
}

impl TaskInstance {
    /// Time the worker spent on the instance.
    #[inline]
    pub fn work_time(&self) -> Duration {
        self.end - self.start
    }
}

/// A borrowed row view over one instance in [`InstanceColumns`].
///
/// The hot fixed-width fields are copied out (they are each ≤ 8 bytes, so a
/// copy is cheaper than a pointer chase); the variable-width answer stays
/// borrowed. Field access syntax is identical to [`TaskInstance`], which is
/// what lets call sites migrate incrementally.
#[derive(Debug, Clone, Copy)]
pub struct InstanceRef<'a> {
    /// The batch this instance belongs to.
    pub batch: BatchId,
    /// The item the instance operates on (scoped to the batch's task type).
    pub item: ItemId,
    /// The worker who performed the instance.
    pub worker: WorkerId,
    /// When the worker started the instance.
    pub start: Timestamp,
    /// When the worker submitted the instance.
    pub end: Timestamp,
    /// Marketplace-assigned trust score in `[0, 1]`.
    pub trust: f32,
    /// The worker's answer.
    pub answer: &'a Answer,
}

impl InstanceRef<'_> {
    /// Time the worker spent on the instance.
    #[inline]
    pub fn work_time(&self) -> Duration {
        self.end - self.start
    }

    /// Materializes an owned [`TaskInstance`] (clones the answer).
    pub fn to_owned(&self) -> TaskInstance {
        TaskInstance {
            batch: self.batch,
            item: self.item,
            worker: self.worker,
            start: self.start,
            end: self.end,
            trust: self.trust,
            answer: self.answer.clone(),
        }
    }
}

/// Struct-of-arrays instance store: one dense column per [`TaskInstance`]
/// field, all the same length.
///
/// Scans that read a subset of fields (most analytics do) touch only those
/// columns; [`InstanceColumns::row`] / [`Dataset::instance`] reassemble a
/// full row view when row-at-a-time access is clearer.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct InstanceColumns {
    batch: Vec<BatchId>,
    item: Vec<ItemId>,
    worker: Vec<WorkerId>,
    start: Vec<Timestamp>,
    end: Vec<Timestamp>,
    trust: Vec<f32>,
    answer: Vec<Answer>,
}

/// Every column of an [`InstanceColumns`], borrowed for appending — see
/// [`InstanceColumns::append_columns`].
#[derive(Debug)]
pub struct ColumnsMut<'a> {
    /// Batch of each row.
    pub batch: &'a mut Vec<BatchId>,
    /// Item of each row.
    pub item: &'a mut Vec<ItemId>,
    /// Worker of each row.
    pub worker: &'a mut Vec<WorkerId>,
    /// Start time of each row.
    pub start: &'a mut Vec<Timestamp>,
    /// End time of each row.
    pub end: &'a mut Vec<Timestamp>,
    /// Trust score of each row.
    pub trust: &'a mut Vec<f32>,
    /// Answer of each row.
    pub answer: &'a mut Vec<Answer>,
}

impl InstanceColumns {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of instances.
    #[inline]
    pub fn len(&self) -> usize {
        self.batch.len()
    }

    /// True when there are no instances.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.batch.is_empty()
    }

    /// Reserves capacity for `additional` more instances in every column.
    pub fn reserve(&mut self, additional: usize) {
        self.batch.reserve(additional);
        self.item.reserve(additional);
        self.worker.reserve(additional);
        self.start.reserve(additional);
        self.end.reserve(additional);
        self.trust.reserve(additional);
        self.answer.reserve(additional);
    }

    /// Appends `rows` rows one whole column at a time — the bulk-load
    /// path of snapshot decoding, which writes each decoded column
    /// straight onto the end of this store's. Every column is reserved for
    /// `rows` more rows first, so a store truncated for reuse whose
    /// capacity already covers them does not allocate.
    ///
    /// `fill` must push exactly `rows` values onto every column. If it
    /// fails, or pushes any other number, every column is cut back to its
    /// previous length, so the store is never left ragged; a wrong count
    /// fails with [`CoreError::ColumnLengthMismatch`]. Referential
    /// integrity is *not* checked here — run [`Dataset::validate`] on the
    /// containing dataset for that.
    pub fn append_columns<E: From<CoreError>>(
        &mut self,
        rows: usize,
        fill: impl FnOnce(ColumnsMut<'_>) -> std::result::Result<(), E>,
    ) -> std::result::Result<(), E> {
        let old = self.len();
        self.reserve(rows);
        let filled = fill(ColumnsMut {
            batch: &mut self.batch,
            item: &mut self.item,
            worker: &mut self.worker,
            start: &mut self.start,
            end: &mut self.end,
            trust: &mut self.trust,
            answer: &mut self.answer,
        });
        let lens = [
            self.batch.len(),
            self.item.len(),
            self.worker.len(),
            self.start.len(),
            self.end.len(),
            self.trust.len(),
            self.answer.len(),
        ];
        let expected = old + rows;
        let appended = filled.and_then(|()| match lens.into_iter().find(|&l| l != expected) {
            Some(got) => Err(CoreError::ColumnLengthMismatch { expected, got }.into()),
            None => Ok(()),
        });
        if appended.is_err() {
            self.truncate(old);
        }
        appended
    }

    /// Splits the store at `at`, returning the tail `[at, len)` and
    /// keeping `[0, at)` — column-wise [`Vec::split_off`], so rows move,
    /// they are never cloned.
    ///
    /// # Panics
    /// When `at > len()`.
    pub fn split_off(&mut self, at: usize) -> InstanceColumns {
        InstanceColumns {
            batch: self.batch.split_off(at),
            item: self.item.split_off(at),
            worker: self.worker.split_off(at),
            start: self.start.split_off(at),
            end: self.end.split_off(at),
            trust: self.trust.split_off(at),
            answer: self.answer.split_off(at),
        }
    }

    /// Drops every row past `len` (no-op when `len >= len()`) — column-wise
    /// [`Vec::truncate`]. The restore path's "rewind to the checkpointed
    /// prefix" primitive.
    pub fn truncate(&mut self, len: usize) {
        self.batch.truncate(len);
        self.item.truncate(len);
        self.worker.truncate(len);
        self.start.truncate(len);
        self.end.truncate(len);
        self.trust.truncate(len);
        self.answer.truncate(len);
    }

    /// Copies rows `range` of `other` onto the end of `self` — the
    /// append-aware growth path live delta application uses (columns stay
    /// contiguous; no per-row re-boxing).
    ///
    /// # Panics
    /// When `range` is out of bounds for `other`.
    pub fn extend_from(&mut self, other: &InstanceColumns, range: std::ops::Range<usize>) {
        self.batch.extend_from_slice(&other.batch[range.clone()]);
        self.item.extend_from_slice(&other.item[range.clone()]);
        self.worker.extend_from_slice(&other.worker[range.clone()]);
        self.start.extend_from_slice(&other.start[range.clone()]);
        self.end.extend_from_slice(&other.end[range.clone()]);
        self.trust.extend_from_slice(&other.trust[range.clone()]);
        self.answer.extend_from_slice(&other.answer[range]);
    }

    /// A new store holding a copy of rows `range`, in order — the prefix
    /// extraction the differential view-vs-batch oracles are built on.
    ///
    /// # Panics
    /// When `range` is out of bounds.
    pub fn clone_range(&self, range: std::ops::Range<usize>) -> InstanceColumns {
        let mut out = InstanceColumns::new();
        out.extend_from(self, range);
        out
    }

    /// Moves every row of `other` onto the end of `self`, leaving `other`
    /// empty — column-wise [`Vec::append`]. Inverse of
    /// [`split_off`](Self::split_off).
    pub fn append(&mut self, other: &mut InstanceColumns) {
        self.batch.append(&mut other.batch);
        self.item.append(&mut other.item);
        self.worker.append(&mut other.worker);
        self.start.append(&mut other.start);
        self.end.append(&mut other.end);
        self.trust.append(&mut other.trust);
        self.answer.append(&mut other.answer);
    }

    /// Appends one instance, decomposing it into the columns.
    pub fn push(&mut self, inst: TaskInstance) {
        self.batch.push(inst.batch);
        self.item.push(inst.item);
        self.worker.push(inst.worker);
        self.start.push(inst.start);
        self.end.push(inst.end);
        self.trust.push(inst.trust);
        self.answer.push(inst.answer);
    }

    /// Row view at position `i`. Panics when out of bounds.
    #[inline]
    pub fn row(&self, i: usize) -> InstanceRef<'_> {
        InstanceRef {
            batch: self.batch[i],
            item: self.item[i],
            worker: self.worker[i],
            start: self.start[i],
            end: self.end[i],
            trust: self.trust[i],
            answer: &self.answer[i],
        }
    }

    /// Row view at position `i`, or `None` when out of bounds.
    pub fn get(&self, i: usize) -> Option<InstanceRef<'_>> {
        (i < self.len()).then(|| self.row(i))
    }

    /// Iterates row views in storage order.
    pub fn iter(&self) -> InstanceIter<'_> {
        InstanceIter { cols: self, next: 0 }
    }

    /// The batch-id column.
    #[inline]
    pub fn batch_col(&self) -> &[BatchId] {
        &self.batch
    }

    /// The item-id column.
    #[inline]
    pub fn item_col(&self) -> &[ItemId] {
        &self.item
    }

    /// The worker-id column.
    #[inline]
    pub fn worker_col(&self) -> &[WorkerId] {
        &self.worker
    }

    /// The start-timestamp column.
    #[inline]
    pub fn start_col(&self) -> &[Timestamp] {
        &self.start
    }

    /// The end-timestamp column.
    #[inline]
    pub fn end_col(&self) -> &[Timestamp] {
        &self.end
    }

    /// The trust column.
    #[inline]
    pub fn trust_col(&self) -> &[f32] {
        &self.trust
    }

    /// The answer column.
    #[inline]
    pub fn answer_col(&self) -> &[Answer] {
        &self.answer
    }

    /// Overwrites the worker id of row `i`.
    pub fn set_worker(&mut self, i: usize, worker: WorkerId) {
        self.worker[i] = worker;
    }

    /// Overwrites the start timestamp of row `i`.
    pub fn set_start(&mut self, i: usize, start: Timestamp) {
        self.start[i] = start;
    }

    /// Overwrites the end timestamp of row `i`.
    pub fn set_end(&mut self, i: usize, end: Timestamp) {
        self.end[i] = end;
    }

    /// Overwrites the trust score of row `i`.
    pub fn set_trust(&mut self, i: usize, trust: f32) {
        self.trust[i] = trust;
    }

    /// Overwrites the answer of row `i`.
    pub fn set_answer(&mut self, i: usize, answer: Answer) {
        self.answer[i] = answer;
    }
}

impl FromIterator<TaskInstance> for InstanceColumns {
    fn from_iter<I: IntoIterator<Item = TaskInstance>>(iter: I) -> Self {
        let mut cols = InstanceColumns::new();
        for inst in iter {
            cols.push(inst);
        }
        cols
    }
}

/// Iterator over [`InstanceRef`] row views; see [`InstanceColumns::iter`].
#[derive(Debug, Clone)]
pub struct InstanceIter<'a> {
    cols: &'a InstanceColumns,
    next: usize,
}

impl<'a> Iterator for InstanceIter<'a> {
    type Item = InstanceRef<'a>;

    fn next(&mut self) -> Option<Self::Item> {
        let row = self.cols.get(self.next)?;
        self.next += 1;
        Some(row)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rest = self.cols.len() - self.next;
        (rest, Some(rest))
    }
}

impl ExactSizeIterator for InstanceIter<'_> {}

impl<'a> IntoIterator for &'a InstanceColumns {
    type Item = InstanceRef<'a>;
    type IntoIter = InstanceIter<'a>;

    fn into_iter(self) -> InstanceIter<'a> {
        self.iter()
    }
}

/// Interning arena for batch HTML: identical pages share one allocation.
///
/// The 12k-batch sample re-issues the same rendered task page across many
/// batches of a task type; storing each copy separately multiplied resident
/// memory by the re-issue factor. The builder routes every
/// [`Batch::html`] through this arena, so equal strings collapse to one
/// refcounted `Arc<str>` and dataset slices/clones share it.
#[derive(Debug, Clone, Default)]
pub struct HtmlArena {
    set: HashSet<Arc<str>>,
}

impl HtmlArena {
    /// Creates an empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the canonical shared handle for `html`, inserting on first
    /// sight.
    pub fn intern(&mut self, html: Arc<str>) -> Arc<str> {
        match self.set.get(&html) {
            Some(existing) => existing.clone(),
            None => {
                self.set.insert(html.clone());
                html
            }
        }
    }

    /// Number of distinct strings interned.
    pub fn len(&self) -> usize {
        self.set.len()
    }

    /// True when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.set.is_empty()
    }
}

/// The full relational dataset: dense entity tables linked by typed ids.
///
/// Construct through [`DatasetBuilder`], which validates referential
/// integrity; a `Dataset` in hand is therefore always consistent.
#[derive(Debug, Clone, Default)]
pub struct Dataset {
    /// Labor sources (paper Table 4).
    pub sources: Vec<Source>,
    /// Worker countries (paper Fig. 28).
    pub countries: Vec<Country>,
    /// Workers.
    pub workers: Vec<Worker>,
    /// Distinct task types.
    pub task_types: Vec<TaskType>,
    /// Batches, in creation-time order.
    pub batches: Vec<Batch>,
    /// Task instances, stored column-wise.
    pub instances: InstanceColumns,
}

impl Dataset {
    /// Looks up a batch row.
    #[inline]
    pub fn batch(&self, id: BatchId) -> &Batch {
        &self.batches[id.index()]
    }

    /// Looks up a task-type row.
    #[inline]
    pub fn task_type(&self, id: TaskTypeId) -> &TaskType {
        &self.task_types[id.index()]
    }

    /// Looks up a worker row.
    #[inline]
    pub fn worker(&self, id: WorkerId) -> &Worker {
        &self.workers[id.index()]
    }

    /// Looks up a source row.
    #[inline]
    pub fn source(&self, id: SourceId) -> &Source {
        &self.sources[id.index()]
    }

    /// Looks up a country row.
    #[inline]
    pub fn country(&self, id: CountryId) -> &Country {
        &self.countries[id.index()]
    }

    /// Row view of an instance by id.
    #[inline]
    pub fn instance(&self, id: InstanceId) -> InstanceRef<'_> {
        self.instances.row(id.index())
    }

    /// Pickup latency of an instance: time from batch creation to the
    /// worker starting the instance (paper §4.1 "Median Pickup Time").
    #[inline]
    pub fn pickup_time(&self, inst: InstanceRef<'_>) -> Duration {
        inst.start - self.batch(inst.batch).created_at
    }

    /// Earliest batch creation time, if any batches exist.
    pub fn time_min(&self) -> Option<Timestamp> {
        self.batches.iter().map(|b| b.created_at).min()
    }

    /// Latest instance end time (falling back to batch creation times).
    pub fn time_max(&self) -> Option<Timestamp> {
        let inst_max = self.instances.end_col().iter().copied().max();
        let batch_max = self.batches.iter().map(|b| b.created_at).max();
        inst_max.into_iter().chain(batch_max).max()
    }

    /// Builds the derived navigation indexes (CSR adjacency per batch,
    /// task type, and worker). O(instances + batches).
    pub fn index(&self) -> DatasetIndex {
        let batch_col = self.instances.batch_col();
        let worker_col = self.instances.worker_col();
        let by_batch =
            Csr::build(self.batches.len(), self.instances.len(), |i| batch_col[i].index());
        let by_worker =
            Csr::build(self.workers.len(), self.instances.len(), |i| worker_col[i].index());
        let batches_by_type = Csr::build(self.task_types.len(), self.batches.len(), |b| {
            self.batches[b].task_type.index()
        });
        DatasetIndex { by_batch, by_worker, batches_by_type }
    }

    /// Summary counts, as the paper reports in §2.2.
    pub fn summary(&self) -> DatasetSummary {
        let sampled_batches = self.batches.iter().filter(|b| b.sampled).count();
        let mut type_seen = vec![false; self.task_types.len()];
        let mut type_sampled = vec![false; self.task_types.len()];
        for b in &self.batches {
            type_seen[b.task_type.index()] = true;
            if b.sampled {
                type_sampled[b.task_type.index()] = true;
            }
        }
        DatasetSummary {
            sources: self.sources.len(),
            countries: self.countries.len(),
            workers: self.workers.len(),
            distinct_tasks: type_seen.iter().filter(|&&x| x).count(),
            distinct_tasks_sampled: type_sampled.iter().filter(|&&x| x).count(),
            batches: self.batches.len(),
            batches_sampled: sampled_batches,
            instances: self.instances.len(),
            time_min: self.time_min(),
            time_max: self.time_max(),
        }
    }

    /// Validates referential integrity and value ranges; returns the first
    /// violation found. [`DatasetBuilder::finish`] runs this automatically.
    pub fn validate(&self) -> Result<()> {
        for w in &self.workers {
            if w.source.index() >= self.sources.len() {
                return Err(CoreError::DanglingReference {
                    table: "sources",
                    index: w.source.index(),
                    len: self.sources.len(),
                });
            }
            if w.country.index() >= self.countries.len() {
                return Err(CoreError::DanglingReference {
                    table: "countries",
                    index: w.country.index(),
                    len: self.countries.len(),
                });
            }
        }
        for (bi, b) in self.batches.iter().enumerate() {
            if b.task_type.index() >= self.task_types.len() {
                return Err(CoreError::DanglingReference {
                    table: "task_types",
                    index: b.task_type.index(),
                    len: self.task_types.len(),
                });
            }
            if b.sampled && b.html.is_none() {
                return Err(CoreError::SampledBatchWithoutHtml { batch: bi });
            }
        }
        for (ii, inst) in self.instances.iter().enumerate() {
            if inst.batch.index() >= self.batches.len() {
                return Err(CoreError::DanglingReference {
                    table: "batches",
                    index: inst.batch.index(),
                    len: self.batches.len(),
                });
            }
            if inst.worker.index() >= self.workers.len() {
                return Err(CoreError::DanglingReference {
                    table: "workers",
                    index: inst.worker.index(),
                    len: self.workers.len(),
                });
            }
            if inst.end < inst.start {
                return Err(CoreError::NegativeDuration { instance: ii });
            }
            if !(0.0..=1.0).contains(&inst.trust) || inst.trust.is_nan() {
                return Err(CoreError::TrustOutOfRange { instance: ii, value: inst.trust });
            }
        }
        Ok(())
    }
}

/// Compressed-sparse-row adjacency: for each of `n` keys, the list of row
/// indices mapping to it, in stable (row) order.
#[derive(Debug, Clone)]
pub struct Csr {
    offsets: Vec<u32>,
    rows: Vec<u32>,
}

impl Csr {
    /// Builds by counting sort: `key(i)` gives the bucket of row `i`.
    pub fn build(n_keys: usize, n_rows: usize, key: impl Fn(usize) -> usize) -> Csr {
        let mut counts = vec![0u32; n_keys + 1];
        for i in 0..n_rows {
            counts[key(i) + 1] += 1;
        }
        for k in 0..n_keys {
            counts[k + 1] += counts[k];
        }
        let offsets = counts.clone();
        let mut cursor = counts;
        let mut rows = vec![0u32; n_rows];
        for i in 0..n_rows {
            let k = key(i);
            rows[cursor[k] as usize] = i as u32;
            cursor[k] += 1;
        }
        Csr { offsets, rows }
    }

    /// Rows mapped to `key`.
    #[inline]
    pub fn get(&self, key: usize) -> &[u32] {
        &self.rows[self.offsets[key] as usize..self.offsets[key + 1] as usize]
    }

    /// Number of keys.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// True when there are no keys.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Derived navigation indexes over a [`Dataset`].
#[derive(Debug, Clone)]
pub struct DatasetIndex {
    by_batch: Csr,
    by_worker: Csr,
    batches_by_type: Csr,
}

impl DatasetIndex {
    /// Instance row indices belonging to `batch`.
    pub fn instances_of_batch(&self, batch: BatchId) -> impl Iterator<Item = InstanceId> + '_ {
        self.by_batch.get(batch.index()).iter().map(|&r| InstanceId::new(r))
    }

    /// Instance row indices performed by `worker`.
    pub fn instances_of_worker(&self, worker: WorkerId) -> impl Iterator<Item = InstanceId> + '_ {
        self.by_worker.get(worker.index()).iter().map(|&r| InstanceId::new(r))
    }

    /// Batch row indices instantiating `task_type`.
    pub fn batches_of_type(&self, tt: TaskTypeId) -> impl Iterator<Item = BatchId> + '_ {
        self.batches_by_type.get(tt.index()).iter().map(|&r| BatchId::new(r))
    }

    /// Number of instances in `batch`.
    pub fn batch_size(&self, batch: BatchId) -> usize {
        self.by_batch.get(batch.index()).len()
    }

    /// Number of instances performed by `worker`.
    pub fn worker_load(&self, worker: WorkerId) -> usize {
        self.by_worker.get(worker.index()).len()
    }
}

/// Headline dataset counts (paper §2.2).
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetSummary {
    /// Number of labor sources.
    pub sources: usize,
    /// Number of countries with at least one registered worker row.
    pub countries: usize,
    /// Number of workers.
    pub workers: usize,
    /// Distinct task types with at least one batch.
    pub distinct_tasks: usize,
    /// Distinct task types with at least one *sampled* batch.
    pub distinct_tasks_sampled: usize,
    /// Total batches.
    pub batches: usize,
    /// Batches inside the fully observed sample.
    pub batches_sampled: usize,
    /// Total task instances (sampled batches only carry instances).
    pub instances: usize,
    /// Earliest batch creation time.
    pub time_min: Option<Timestamp>,
    /// Latest activity time.
    pub time_max: Option<Timestamp>,
}

/// Incremental, validating constructor for [`Dataset`].
#[derive(Debug, Default)]
pub struct DatasetBuilder {
    ds: Dataset,
    arena: HtmlArena,
}

impl DatasetBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a source, returning its id.
    pub fn add_source(&mut self, source: Source) -> SourceId {
        self.ds.sources.push(source);
        SourceId::from_usize(self.ds.sources.len() - 1)
    }

    /// Appends a country, returning its id.
    pub fn add_country(&mut self, name: impl Into<String>) -> CountryId {
        self.ds.countries.push(Country::new(name));
        CountryId::from_usize(self.ds.countries.len() - 1)
    }

    /// Appends a worker, returning its id.
    pub fn add_worker(&mut self, worker: Worker) -> WorkerId {
        self.ds.workers.push(worker);
        WorkerId::from_usize(self.ds.workers.len() - 1)
    }

    /// Appends a task type, returning its id.
    pub fn add_task_type(&mut self, tt: TaskType) -> TaskTypeId {
        self.ds.task_types.push(tt);
        TaskTypeId::from_usize(self.ds.task_types.len() - 1)
    }

    /// Appends a batch, returning its id. Batch HTML is routed through the
    /// builder's [`HtmlArena`], so re-issued identical pages share storage.
    pub fn add_batch(&mut self, mut batch: Batch) -> BatchId {
        if let Some(html) = batch.html.take() {
            batch.html = Some(self.arena.intern(html));
        }
        self.ds.batches.push(batch);
        BatchId::from_usize(self.ds.batches.len() - 1)
    }

    /// Appends a task instance, returning its id.
    pub fn add_instance(&mut self, inst: TaskInstance) -> InstanceId {
        self.ds.instances.push(inst);
        InstanceId::from_usize(self.ds.instances.len() - 1)
    }

    /// Reserves capacity in the instance table (the hot one).
    pub fn reserve_instances(&mut self, additional: usize) {
        self.ds.instances.reserve(additional);
    }

    /// Creation time of an already-added batch. Panics when `batch` was not
    /// produced by this builder (used by [`crate::fixture`] to express
    /// instance times as batch-relative offsets).
    pub fn batch_created_at(&self, batch: BatchId) -> Timestamp {
        self.ds.batches[batch.index()].created_at
    }

    /// Distinct HTML pages interned so far (diagnostics).
    pub fn distinct_html(&self) -> usize {
        self.arena.len()
    }

    /// Validates and returns the dataset.
    pub fn finish(self) -> Result<Dataset> {
        self.ds.validate()?;
        Ok(self.ds)
    }

    /// Returns the dataset without validation (for trusted bulk loads;
    /// prefer [`DatasetBuilder::finish`]).
    pub fn finish_unchecked(self) -> Dataset {
        self.ds
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::labels::Goal;

    fn tiny() -> Dataset {
        let mut b = DatasetBuilder::new();
        let s = b.add_source(Source::new("neodev", crate::worker::SourceKind::Dedicated));
        let c = b.add_country("USA");
        let w1 = b.add_worker(Worker::new(s, c));
        let w2 = b.add_worker(Worker::new(s, c));
        let tt = b.add_task_type(TaskType::new("label cats").with_goal(Goal::QualityAssurance));
        let t0 = Timestamp::from_ymd(2015, 2, 1);
        let batch = b.add_batch(Batch::new(tt, t0).with_html("<p>cat?</p>"));
        for (w, offset, ans) in [(w1, 60, 0u16), (w2, 120, 0), (w1, 300, 1)] {
            b.add_instance(TaskInstance {
                batch,
                item: ItemId::new(if ans == 1 { 1 } else { 0 }),
                worker: w,
                start: t0 + Duration::from_secs(offset),
                end: t0 + Duration::from_secs(offset + 30),
                trust: 0.9,
                answer: Answer::Choice(ans),
            });
        }
        b.finish().unwrap()
    }

    #[test]
    fn builder_produces_consistent_dataset() {
        let ds = tiny();
        assert_eq!(ds.instances.len(), 3);
        assert_eq!(ds.summary().distinct_tasks, 1);
        assert_eq!(ds.summary().batches_sampled, 1);
    }

    #[test]
    fn row_views_match_pushed_rows() {
        let ds = tiny();
        let first = ds.instances.row(0);
        assert_eq!(first.worker, WorkerId::new(0));
        assert_eq!(first.answer, &Answer::Choice(0));
        assert_eq!(first.to_owned().work_time(), Duration::from_secs(30));
        assert_eq!(ds.instance(InstanceId::new(2)).item, ItemId::new(1));
        assert!(ds.instances.get(3).is_none());
        let via_iter: Vec<_> = ds.instances.iter().map(|r| r.worker).collect();
        assert_eq!(via_iter, ds.instances.worker_col());
    }

    #[test]
    fn columns_roundtrip_through_from_iterator() {
        let ds = tiny();
        let rows: Vec<TaskInstance> = ds.instances.iter().map(|r| r.to_owned()).collect();
        let rebuilt: InstanceColumns = rows.into_iter().collect();
        assert_eq!(rebuilt, ds.instances);
    }

    #[test]
    fn extend_from_and_clone_range_copy_rows_in_order() {
        let ds = tiny();
        let prefix = ds.instances.clone_range(0..2);
        assert_eq!(prefix.len(), 2);
        assert_eq!(prefix.row(1).to_owned(), ds.instances.row(1).to_owned());
        let mut grown = prefix.clone();
        grown.extend_from(&ds.instances, 2..3);
        assert_eq!(grown, ds.instances);
        assert_eq!(grown.clone_range(0..0).len(), 0);
    }

    #[test]
    fn append_columns_appends_whole_columns_or_nothing() {
        let ds = tiny();
        let mut cols = ds.instances.clone_range(0..1);
        let rest = ds.instances.clone_range(1..3);
        let copy = |c: ColumnsMut<'_>| -> Result<()> {
            c.batch.extend_from_slice(rest.batch_col());
            c.item.extend_from_slice(rest.item_col());
            c.worker.extend_from_slice(rest.worker_col());
            c.start.extend_from_slice(rest.start_col());
            c.end.extend_from_slice(rest.end_col());
            c.trust.extend_from_slice(rest.trust_col());
            c.answer.extend_from_slice(rest.answer_col());
            Ok(())
        };
        cols.append_columns(2, copy).unwrap();
        assert_eq!(cols, ds.instances);

        // A short column and a failing fill both leave the store as it was.
        let ragged = cols.append_columns(1, |c: ColumnsMut<'_>| -> Result<()> {
            c.batch.push(BatchId::new(0));
            Ok(())
        });
        assert_eq!(ragged, Err(CoreError::ColumnLengthMismatch { expected: 4, got: 3 }));
        let failed = cols.append_columns(1, |c: ColumnsMut<'_>| -> Result<()> {
            c.trust.push(0.5);
            Err(CoreError::NegativeDuration { instance: 3 })
        });
        assert_eq!(failed, Err(CoreError::NegativeDuration { instance: 3 }));
        assert_eq!(cols, ds.instances);
    }

    #[test]
    fn validation_catches_dangling_worker() {
        let mut ds = tiny();
        ds.instances.set_worker(0, WorkerId::new(99));
        assert!(matches!(
            ds.validate(),
            Err(CoreError::DanglingReference { table: "workers", .. })
        ));
    }

    #[test]
    fn validation_catches_negative_duration() {
        let mut ds = tiny();
        let start = ds.instances.row(1).start;
        ds.instances.set_end(1, start - Duration::from_secs(1));
        assert_eq!(ds.validate(), Err(CoreError::NegativeDuration { instance: 1 }));
    }

    #[test]
    fn validation_catches_bad_trust() {
        let mut ds = tiny();
        ds.instances.set_trust(2, 1.5);
        assert!(matches!(ds.validate(), Err(CoreError::TrustOutOfRange { instance: 2, .. })));
        ds.instances.set_trust(2, f32::NAN);
        assert!(matches!(ds.validate(), Err(CoreError::TrustOutOfRange { .. })));
    }

    #[test]
    fn validation_catches_sampled_batch_without_html() {
        let mut ds = tiny();
        ds.batches[0].html = None;
        assert_eq!(ds.validate(), Err(CoreError::SampledBatchWithoutHtml { batch: 0 }));
    }

    #[test]
    fn pickup_and_work_time() {
        let ds = tiny();
        let inst = ds.instances.row(0);
        assert_eq!(ds.pickup_time(inst), Duration::from_secs(60));
        assert_eq!(inst.work_time(), Duration::from_secs(30));
    }

    #[test]
    fn html_is_interned_across_batches() {
        let mut b = DatasetBuilder::new();
        let tt = b.add_task_type(TaskType::new("t"));
        let t0 = Timestamp::from_ymd(2015, 2, 1);
        let page = "<p>same page</p>".repeat(10);
        let b1 = b.add_batch(Batch::new(tt, t0).with_html(page.clone()));
        let b2 = b.add_batch(Batch::new(tt, t0).with_html(page.clone()));
        let b3 = b.add_batch(Batch::new(tt, t0).with_html("<p>other</p>"));
        assert_eq!(b.distinct_html(), 2, "two distinct pages across three batches");
        let ds = b.finish().unwrap();
        let h1 = ds.batch(b1).html.clone().unwrap();
        let h2 = ds.batch(b2).html.clone().unwrap();
        let h3 = ds.batch(b3).html.clone().unwrap();
        assert!(Arc::ptr_eq(&h1, &h2), "identical pages share one allocation");
        assert!(!Arc::ptr_eq(&h1, &h3));
    }

    #[test]
    fn index_navigation() {
        let ds = tiny();
        let idx = ds.index();
        assert_eq!(idx.batch_size(BatchId::new(0)), 3);
        assert_eq!(idx.worker_load(WorkerId::new(0)), 2);
        assert_eq!(idx.worker_load(WorkerId::new(1)), 1);
        let batches: Vec<_> = idx.batches_of_type(TaskTypeId::new(0)).collect();
        assert_eq!(batches, vec![BatchId::new(0)]);
        // CSR preserves row order within a bucket.
        let rows: Vec<_> = idx.instances_of_batch(BatchId::new(0)).collect();
        assert_eq!(rows, vec![InstanceId::new(0), InstanceId::new(1), InstanceId::new(2)]);
    }

    #[test]
    fn csr_handles_empty_buckets() {
        let csr = Csr::build(3, 2, |i| i * 2); // keys 0 and 2; key 1 empty
        assert_eq!(csr.get(0), &[0]);
        assert_eq!(csr.get(1), &[] as &[u32]);
        assert_eq!(csr.get(2), &[1]);
        assert_eq!(csr.len(), 3);
    }

    #[test]
    fn index_handles_empty_batch_and_idle_worker_and_bare_type() {
        // Boundaries the columnar swap must not break: a batch with zero
        // instances, a worker who never worked, a task type with no batches.
        let mut b = DatasetBuilder::new();
        let s = b.add_source(Source::new("s", crate::worker::SourceKind::Dedicated));
        let c = b.add_country("X");
        let worked = b.add_worker(Worker::new(s, c));
        let idle = b.add_worker(Worker::new(s, c));
        let tt_used = b.add_task_type(TaskType::new("used"));
        let tt_bare = b.add_task_type(TaskType::new("bare"));
        let t0 = Timestamp::from_ymd(2015, 3, 1);
        let full = b.add_batch(Batch::new(tt_used, t0).with_html("<p/>"));
        let empty = b.add_batch(Batch::new(tt_used, t0).with_html("<p/>"));
        b.add_instance(TaskInstance {
            batch: full,
            item: ItemId::new(0),
            worker: worked,
            start: t0,
            end: t0 + Duration::from_secs(10),
            trust: 1.0,
            answer: Answer::Choice(0),
        });
        let ds = b.finish().unwrap();
        let idx = ds.index();
        assert_eq!(idx.batch_size(empty), 0);
        assert_eq!(idx.instances_of_batch(empty).count(), 0);
        assert_eq!(idx.worker_load(idle), 0);
        assert_eq!(idx.instances_of_worker(idle).count(), 0);
        assert_eq!(idx.batches_of_type(tt_bare).count(), 0);
        assert_eq!(idx.batches_of_type(tt_used).count(), 2);
        assert_eq!(idx.worker_load(worked), 1);
    }

    #[test]
    fn summary_time_range() {
        let ds = tiny();
        let s = ds.summary();
        assert_eq!(s.time_min.unwrap(), Timestamp::from_ymd(2015, 2, 1));
        assert!(s.time_max.unwrap() > s.time_min.unwrap());
    }

    #[test]
    fn empty_dataset_is_valid() {
        let ds = DatasetBuilder::new().finish().unwrap();
        assert_eq!(ds.summary().instances, 0);
        assert_eq!(ds.time_min(), None);
        assert_eq!(ds.time_max(), None);
    }
}
