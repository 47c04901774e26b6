//! Fused, deterministic, parallel scans over the instance table.
//!
//! Analytics historically re-walked `Dataset.instances` once per figure
//! (~28 full-table scans for a full reproduction run). The scan engine
//! inverts that: any number of [`Accumulator`]s are registered on a
//! [`ScanPass`] and all of them are fed from **one** pass over the columns.
//!
//! ## Determinism contract
//!
//! The pipeline guarantees bit-identical results at any thread count
//! (see `DESIGN.md` §10). Floating-point accumulation is order-sensitive,
//! so the engine never lets the thread count influence evaluation order:
//!
//! 1. The table is split into **fixed-size** chunks of [`ScanPass::CHUNK`]
//!    rows — chunk boundaries depend only on the table length, never on
//!    the number of worker threads.
//! 2. Each chunk folds its rows in ascending row order into a fresh
//!    accumulator cloned from the registered prototype
//!    ([`Accumulator::init`]), in one [`Accumulator::accept_chunk`] call
//!    — the trait's only fold.
//! 3. Chunk results are merged **sequentially, in chunk order**
//!    ([`Accumulator::merge`]), exactly as if the chunks had been
//!    processed one after another on a single thread.
//!
//! Threads only decide *who* computes a chunk, not *what* is computed or
//! *in which order* results combine.
//!
//! ## The pipeline
//!
//! Both entry points run one engine. The calling thread pulls shards
//! from the input (for a snapshot: reads, checksums and decodes them) and
//! publishes each; the pool's width of scoped fold threads take chunks
//! one at a time; and a single merge step folds every finished partial
//! into the running total in global chunk order, run by whichever fold
//! thread finds the total free. Two bounds keep memory flat: a fold
//! thread starts chunk `c` only while `c` is fewer than `AHEAD × width`
//! chunks past the merge frontier, and the caller reads shard `s + 2`
//! only after shard `s` has merged, so at most two shards are resident —
//! the one being folded and the one being read. Neither bound changes
//! what merges or in which order, so both are bit-invisible.
//!
//! ## Shard reduction
//!
//! Sharding composes with the same discipline (DESIGN.md §15): a streamed
//! scan ([`ScanPass::run_stream`]) folds each shard's chunks exactly as
//! above and merges **chunk-level** partials into one running total in
//! global chunk order. Because shard boundaries are always
//! [`ScanPass::CHUNK`] multiples (see [`crate::shard::ShardPlan`]), the
//! chunk decomposition — and therefore every float-merge pairing — is
//! *identical* to the monolithic scan: shard count is bit-invisible by
//! construction, not by accident. The merge unit is the fixed chunk;
//! shards only bound how many rows are resident at once.

use std::borrow::Borrow;
use std::cell::Cell;
use std::collections::{BTreeMap, VecDeque};
use std::convert::Infallible;
use std::ops::Range;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

use crate::dataset::{Dataset, InstanceColumns};

thread_local! {
    /// Full-table scans started on this thread; a diagnostic aid for
    /// asserting scan-fusion budgets. Per thread, so concurrently running
    /// tests never see each other's scans.
    static FULL_SCANS: Cell<u64> = const { Cell::new(0) };
}

/// Counts one full-table scan against the calling thread.
fn count_scan() {
    FULL_SCANS.with(|n| n.set(n.get() + 1));
}

/// Chunks each fold thread may run ahead of the merge: at most
/// `AHEAD × width` chunk partials are outstanding (folding or waiting to
/// merge) at any time.
const AHEAD: usize = 2;

/// A streaming aggregate computed in one pass over the instance table.
///
/// Implementations are *prototypes*: the value registered on a
/// [`ScanPass`] carries configuration (cutoffs, lookup tables, …) and
/// [`Accumulator::init`] clones a blank working copy of it per chunk, so
/// parallel workers never share mutable state.
///
/// `merge` must be associative with `init()` as identity in the sense that
/// folding chunk results left-to-right equals a single sequential fold —
/// the engine relies on nothing stronger (float addition is fine).
pub trait Accumulator: Send + Sync {
    /// The shaped result extracted once the scan completes.
    type Output;

    /// A blank working copy carrying this prototype's configuration.
    fn init(&self) -> Self
    where
        Self: Sized;

    /// Folds local rows `range` of `cols` into the running state; `base`
    /// offsets local row indices into global instance ids (row `i` is
    /// instance `base + i`). The engine calls this once per chunk, so
    /// `range` never exceeds [`ScanPass::CHUNK`] rows.
    ///
    /// An implementation may read the chunk row by row
    /// ([`InstanceColumns::row`]) or in columnar sub-loops over the
    /// chunk's column slices (DESIGN.md §18). Either way, rows fold in
    /// ascending order *within* every independently accumulated family —
    /// that order is part of the determinism contract (module docs);
    /// disjoint families may interleave differently, as their
    /// accumulation sequences share no state.
    fn accept_chunk(
        &mut self,
        ds: &Dataset,
        base: usize,
        cols: &InstanceColumns,
        range: std::ops::Range<usize>,
    );

    /// Absorbs the state of `other`, which covers the rows immediately
    /// after this accumulator's rows.
    fn merge(&mut self, other: Self)
    where
        Self: Sized;

    /// Shapes the merged state into the final output.
    fn finish(self, ds: &Dataset) -> Self::Output
    where
        Self: Sized;
}

/// Executes [`Accumulator`]s over a dataset's instance table in one fused,
/// chunked, deterministic parallel pass.
///
/// To fuse several heterogeneous accumulators into a single pass, register
/// them as a tuple (arities 2–8 implement [`Accumulator`] element-wise) or
/// as one struct delegating to per-field accumulators.
#[derive(Debug, Clone, Copy, Default)]
pub struct ScanPass;

impl ScanPass {
    /// Rows per chunk. Fixed (thread-count independent) so float merges
    /// happen in the same order no matter how wide the pool is.
    pub const CHUNK: usize = 8192;

    /// Runs `proto` over every instance of `ds` and returns its output.
    pub fn run<A: Accumulator>(ds: &Dataset, proto: &A) -> A::Output {
        let table = std::iter::once(Ok::<_, Infallible>((0, &ds.instances)));
        match Self::pipeline(ds, proto, table) {
            Ok(out) => out,
            Err(never) => match never {},
        }
    }

    /// Runs `proto` over a stream of owned shards — `(global_base, rows)`
    /// in ascending base order, each base a [`CHUNK`](Self::CHUNK)
    /// multiple. The calling thread pulls the next shard while the pool
    /// folds the previous one, and at most two shards are resident, so
    /// peak memory is two shards plus accumulator state. This is the
    /// zero-copy snapshot load path: shards come straight off per-shard
    /// file sections and never assemble into a full table.
    ///
    /// The first `Err` from the stream stops the scan; it is returned once
    /// every fold thread has finished.
    ///
    /// # Panics
    /// When a shard's base is not chunk-aligned or not strictly after the
    /// previous shard's rows (out-of-order merges would change float
    /// pairings), and when an accumulator panics.
    pub fn run_stream<A: Accumulator, E>(
        ds: &Dataset,
        proto: &A,
        shards: impl Iterator<Item = Result<(usize, InstanceColumns), E>>,
    ) -> Result<A::Output, E> {
        Self::pipeline(ds, proto, shards)
    }

    /// The one engine behind [`run`](Self::run) and
    /// [`run_stream`](Self::run_stream): the calling thread feeds shards,
    /// `width` scoped threads fold and merge chunks (module docs).
    fn pipeline<A, C, E>(
        ds: &Dataset,
        proto: &A,
        shards: impl Iterator<Item = Result<(usize, C), E>>,
    ) -> Result<A::Output, E>
    where
        A: Accumulator,
        C: Borrow<InstanceColumns> + Send + Sync,
    {
        count_scan();
        // The calling thread's width: `ThreadPool::install` is
        // thread-local, so the fold threads would not see it.
        let width = rayon::current_num_threads().max(1);
        let pipe = Pipeline::new(proto.init(), AHEAD * width);
        std::thread::scope(|scope| {
            let folds: Vec<_> = (0..width).map(|_| scope.spawn(|| pipe.fold(ds, proto))).collect();
            let fed = pipe.feed(shards);
            // Join by hand so a fold's panic resurfaces with its own payload.
            let mut panic = None;
            for fold in folds {
                if let Err(payload) = fold.join() {
                    panic.get_or_insert(payload);
                }
            }
            if let Some(payload) = panic {
                std::panic::resume_unwind(payload);
            }
            fed
        })?;
        Ok(pipe.into_total().finish(ds))
    }

    /// Number of full-table scans started on the calling thread so far.
    pub fn full_scan_count() -> u64 {
        FULL_SCANS.with(Cell::get)
    }
}

/// State shared by the calling thread and the fold threads of one scan.
struct Pipeline<C, A> {
    state: Mutex<State<C, A>>,
    /// Signalled on every publish, merge step, close and abort.
    progress: Condvar,
    /// Most chunks handed out past the merge frontier.
    ahead: usize,
}

struct State<C, A> {
    /// Published shards with chunks still to hand out, as `(base, rows)`.
    queue: VecDeque<(usize, Arc<C>)>,
    /// Offset into the front shard of the next chunk to hand out.
    next_row: usize,
    /// Folded partials waiting for every earlier chunk, by chunk index.
    ready: BTreeMap<usize, A>,
    /// Global index of the next chunk to merge; every earlier one is in
    /// `total`.
    merged: usize,
    /// The running total; `None` while a fold thread merges into it.
    total: Option<A>,
    /// The caller has published its last shard.
    closed: bool,
    /// A fold panicked or the input failed: hand out no more chunks.
    abort: bool,
}

/// One chunk to fold: its global index and rows `range` of a shard based
/// at global row `base`.
struct Job<C> {
    chunk: usize,
    base: usize,
    rows: Arc<C>,
    range: Range<usize>,
}

impl<C, A> Pipeline<C, A> {
    fn lock(&self) -> MutexGuard<'_, State<C, A>> {
        // No accumulator code runs under the lock and every update is a
        // plain field write, so the state is whole even if a thread
        // panicked while holding it; the scan re-raises that panic once
        // every thread has stopped.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn wait<'a>(&self, state: MutexGuard<'a, State<C, A>>) -> MutexGuard<'a, State<C, A>> {
        self.progress.wait(state).unwrap_or_else(PoisonError::into_inner)
    }

    /// Stops the scan: no more chunks are handed out and every waiter
    /// wakes up.
    fn abort(&self) {
        self.lock().abort = true;
        self.progress.notify_all();
    }
}

/// Aborts the scan if the thread holding it unwinds, so no other thread
/// waits forever for a chunk that will never merge.
struct AbortOnUnwind<'a, C, A>(&'a Pipeline<C, A>);

impl<C, A> Drop for AbortOnUnwind<'_, C, A> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.abort();
        }
    }
}

impl<C: Borrow<InstanceColumns>, A: Accumulator> Pipeline<C, A> {
    fn new(total: A, ahead: usize) -> Self {
        Pipeline {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                next_row: 0,
                ready: BTreeMap::new(),
                merged: 0,
                total: Some(total),
                closed: false,
                abort: false,
            }),
            progress: Condvar::new(),
            ahead,
        }
    }

    /// The calling thread's side: pulls, checks and publishes shards in
    /// order. Shard `s + 2` is pulled only after shard `s` has merged.
    fn feed<E>(&self, mut shards: impl Iterator<Item = Result<(usize, C), E>>) -> Result<(), E> {
        let _guard = AbortOnUnwind(self);
        let mut next_base = 0;
        // One past the last chunk of each of the two shards published
        // last, older first (0 before there are two).
        let mut ends = (0, 0);
        loop {
            let mut state = self.lock();
            while state.merged < ends.0 && !state.abort {
                state = self.wait(state);
            }
            if state.abort {
                // A fold panicked; the caller re-raises its panic.
                return Ok(());
            }
            drop(state);
            let Some(item) = shards.next() else { break };
            let (base, rows) = match item {
                Ok(shard) => shard,
                Err(e) => {
                    self.abort();
                    return Err(e);
                }
            };
            assert_eq!(base, next_base, "shards must arrive contiguously in ascending order");
            assert_eq!(
                base % ScanPass::CHUNK,
                0,
                "shard boundaries must be CHUNK-aligned to keep merge order fixed"
            );
            next_base = base + rows.borrow().len();
            if next_base == base {
                continue;
            }
            ends = (ends.1, next_base.div_ceil(ScanPass::CHUNK));
            self.lock().queue.push_back((base, Arc::new(rows)));
            self.progress.notify_all();
        }
        self.lock().closed = true;
        self.progress.notify_all();
        Ok(())
    }

    /// A fold thread: folds chunks into fresh partials until the input
    /// is exhausted, merging each as soon as its turn comes.
    fn fold(&self, ds: &Dataset, proto: &A) {
        let _guard = AbortOnUnwind(self);
        while let Some(Job { chunk, base, rows, range }) = self.next_job() {
            let mut part = proto.init();
            part.accept_chunk(ds, base, (*rows).borrow(), range);
            drop(rows);
            self.merge(chunk, part);
        }
    }

    /// Blocks until a chunk may be folded; `None` once none is left.
    fn next_job(&self) -> Option<Job<C>> {
        let mut state = self.lock();
        loop {
            if state.abort {
                return None;
            }
            if let Some((base, rows)) = state.queue.front() {
                let (base, lo) = (*base, state.next_row);
                let chunk = (base + lo) / ScanPass::CHUNK;
                if chunk < state.merged + self.ahead {
                    let rows = Arc::clone(rows);
                    let len = (*rows).borrow().len();
                    let hi = (lo + ScanPass::CHUNK).min(len);
                    if hi == len {
                        state.queue.pop_front();
                        state.next_row = 0;
                    } else {
                        state.next_row = hi;
                    }
                    return Some(Job { chunk, base, rows, range: lo..hi });
                }
            } else if state.closed {
                return None;
            }
            state = self.wait(state);
        }
    }

    /// Files `part` as chunk `chunk`'s partial, then merges partials into
    /// the total for as long as the next one in chunk order is ready.
    /// While another thread holds the total, that thread merges `part`
    /// before it lets go.
    fn merge(&self, chunk: usize, part: A) {
        let mut state = self.lock();
        state.ready.insert(chunk, part);
        while state.total.is_some() {
            let next = state.merged;
            let Some(part) = state.ready.remove(&next) else { return };
            let mut total = state.total.take().expect("checked by the loop");
            drop(state);
            total.merge(part);
            state = self.lock();
            state.merged = next + 1;
            state.total = Some(total);
            self.progress.notify_all();
        }
    }

    /// The merged total, once every fold thread has finished.
    fn into_total(self) -> A {
        let state = self.state.into_inner().unwrap_or_else(PoisonError::into_inner);
        debug_assert!(state.ready.is_empty(), "every partial merged");
        state.total.expect("no merge is in flight once the fold threads are joined")
    }
}

macro_rules! impl_accumulator_tuple {
    ($($name:ident . $idx:tt),+) => {
        impl<$($name: Accumulator),+> Accumulator for ($($name,)+) {
            type Output = ($($name::Output,)+);

            fn init(&self) -> Self {
                ($(self.$idx.init(),)+)
            }

            fn accept_chunk(
                &mut self,
                ds: &Dataset,
                base: usize,
                cols: &InstanceColumns,
                range: std::ops::Range<usize>,
            ) {
                // Element states are disjoint, and each element sees the
                // chunk's rows in ascending order.
                $(self.$idx.accept_chunk(ds, base, cols, range.clone());)+
            }

            fn merge(&mut self, other: Self) {
                $(self.$idx.merge(other.$idx);)+
            }

            fn finish(self, ds: &Dataset) -> Self::Output {
                ($(self.$idx.finish(ds),)+)
            }
        }
    };
}

impl_accumulator_tuple!(A.0, B.1);
impl_accumulator_tuple!(A.0, B.1, C.2);
impl_accumulator_tuple!(A.0, B.1, C.2, D.3);
impl_accumulator_tuple!(A.0, B.1, C.2, D.3, E.4);
impl_accumulator_tuple!(A.0, B.1, C.2, D.3, E.4, F.5);
impl_accumulator_tuple!(A.0, B.1, C.2, D.3, E.4, F.5, G.6);
impl_accumulator_tuple!(A.0, B.1, C.2, D.3, E.4, F.5, G.6, H.7);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::answer::Answer;
    use crate::dataset::{DatasetBuilder, TaskInstance};
    use crate::id::{InstanceId, ItemId};
    use crate::task::{Batch, TaskType};
    use crate::time::{Duration, Timestamp};
    use crate::worker::{Source, SourceKind, Worker};
    use rayon::ThreadPoolBuilder;

    /// Order-sensitive float sum: catches any merge-order wobble.
    #[derive(Debug, Default)]
    struct TrustSum {
        sum: f64,
    }

    impl Accumulator for TrustSum {
        type Output = f64;

        fn init(&self) -> Self {
            TrustSum::default()
        }

        fn accept_chunk(
            &mut self,
            _ds: &Dataset,
            _base: usize,
            cols: &InstanceColumns,
            range: std::ops::Range<usize>,
        ) {
            for i in range {
                let row = cols.row(i);
                self.sum += f64::from(row.trust);
            }
        }

        fn merge(&mut self, other: Self) {
            self.sum += other.sum;
        }

        fn finish(self, _ds: &Dataset) -> f64 {
            self.sum
        }
    }

    /// Config-carrying prototype: counts rows at or after a cutoff.
    #[derive(Debug, Clone)]
    struct CountSince {
        cutoff: Timestamp,
        n: u64,
    }

    impl Accumulator for CountSince {
        type Output = u64;

        fn init(&self) -> Self {
            CountSince { cutoff: self.cutoff, n: 0 }
        }

        fn accept_chunk(
            &mut self,
            _ds: &Dataset,
            _base: usize,
            cols: &InstanceColumns,
            range: std::ops::Range<usize>,
        ) {
            for i in range {
                let row = cols.row(i);
                if row.start >= self.cutoff {
                    self.n += 1;
                }
            }
        }

        fn merge(&mut self, other: Self) {
            self.n += other.n;
        }

        fn finish(self, _ds: &Dataset) -> u64 {
            self.n
        }
    }

    fn dataset(rows: usize) -> Dataset {
        let mut b = DatasetBuilder::new();
        let s = b.add_source(Source::new("s", SourceKind::Dedicated));
        let c = b.add_country("X");
        let w = b.add_worker(Worker::new(s, c));
        let tt = b.add_task_type(TaskType::new("t"));
        let t0 = Timestamp::from_ymd(2015, 1, 1);
        let batch = b.add_batch(Batch::new(tt, t0).with_html("<p/>"));
        b.reserve_instances(rows);
        for i in 0..rows {
            let start = t0 + Duration::from_secs(i as i64);
            b.add_instance(TaskInstance {
                batch,
                item: ItemId::new(0),
                worker: w,
                start,
                end: start + Duration::from_secs(30),
                // Varied magnitudes make float addition order-sensitive.
                trust: if i % 3 == 0 { 1.0e-4 } else { 0.875 },
                answer: Answer::Choice((i % 2) as u16),
            });
        }
        b.finish().unwrap()
    }

    #[test]
    fn matches_sequential_fold() {
        let ds = dataset(20_001); // several chunks plus a remainder
        let expected: f64 = ds.instances.trust_col().iter().map(|&t| f64::from(t)).sum();
        // Same chunking as the engine, folded sequentially.
        let got = ScanPass::run(&ds, &TrustSum::default());
        let mut manual = 0.0;
        for lo in (0..ds.instances.len()).step_by(ScanPass::CHUNK) {
            let hi = (lo + ScanPass::CHUNK).min(ds.instances.len());
            let mut part = 0.0;
            for i in lo..hi {
                part += f64::from(ds.instances.trust_col()[i]);
            }
            manual += part;
        }
        assert_eq!(got.to_bits(), manual.to_bits());
        assert!((got - expected).abs() < 1e-6);
    }

    #[test]
    fn bit_identical_across_thread_counts() {
        let ds = dataset(50_000);
        let mut baseline = None;
        for threads in [1, 2, 3, 4, 7] {
            let pool = ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
            let sum = pool.install(|| ScanPass::run(&ds, &TrustSum::default()));
            let bits = sum.to_bits();
            match baseline {
                None => baseline = Some(bits),
                Some(b) => assert_eq!(bits, b, "threads = {threads}"),
            }
        }
    }

    #[test]
    fn tuple_fusion_runs_one_pass() {
        let ds = dataset(10_000);
        let before = ScanPass::full_scan_count();
        let cutoff = Timestamp::from_ymd(2015, 1, 1) + Duration::from_secs(5_000);
        let proto = (TrustSum::default(), CountSince { cutoff, n: 0 });
        let (sum, since) = ScanPass::run(&ds, &proto);
        assert_eq!(ScanPass::full_scan_count() - before, 1, "fused = one pass");
        assert!(sum > 0.0);
        assert_eq!(since, 5_000);
    }

    /// Columnar twin of [`TrustSum`]: a tight fold over the trust column
    /// slice instead of row views — same values, same order, so the float
    /// bits must match the row loop exactly.
    #[derive(Debug, Default)]
    struct ColumnarTrustSum {
        sum: f64,
    }

    impl Accumulator for ColumnarTrustSum {
        type Output = f64;

        fn init(&self) -> Self {
            ColumnarTrustSum::default()
        }

        fn accept_chunk(
            &mut self,
            _ds: &Dataset,
            _base: usize,
            cols: &InstanceColumns,
            range: std::ops::Range<usize>,
        ) {
            for &t in &cols.trust_col()[range] {
                self.sum += f64::from(t);
            }
        }

        fn merge(&mut self, other: Self) {
            self.sum += other.sum;
        }

        fn finish(self, _ds: &Dataset) -> f64 {
            self.sum
        }
    }

    #[test]
    fn columnar_override_is_bit_identical_to_row_loop() {
        let ds = dataset(3 * ScanPass::CHUNK + 4321);
        let row_loop = ScanPass::run(&ds, &TrustSum::default()).to_bits();
        let columnar = ScanPass::run(&ds, &ColumnarTrustSum::default()).to_bits();
        assert_eq!(columnar, row_loop);
        // And inside a tuple: the macro forwards accept_chunk per element.
        let (a, b) = ScanPass::run(&ds, &(ColumnarTrustSum::default(), TrustSum::default()));
        assert_eq!(a.to_bits(), row_loop);
        assert_eq!(b.to_bits(), row_loop);
    }

    #[test]
    fn empty_table_is_fine() {
        let ds = DatasetBuilder::new().finish().unwrap();
        assert_eq!(ScanPass::run(&ds, &TrustSum::default()), 0.0);
    }

    /// `(base, rows)` pieces of `ds.instances` cut per a [`ShardPlan`].
    fn pieces(ds: &Dataset, shards: usize) -> Vec<(usize, InstanceColumns)> {
        let plan = crate::shard::ShardPlan::new(ds.instances.len(), shards);
        plan.ranges().map(|r| (r.start, ds.instances.clone_range(r))).collect()
    }

    #[test]
    fn shard_count_is_bit_invisible() {
        // The heart of the sharding contract: streamed scans reproduce the
        // monolithic float bits at any shard count crossed with any thread
        // count.
        let ds = dataset(3 * ScanPass::CHUNK + 1234);
        let baseline = ScanPass::run(&ds, &TrustSum::default()).to_bits();
        for threads in [1, 4] {
            let pool = ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
            pool.install(|| {
                for shards in [1, 2, 3, 8, 100] {
                    let blocks = pieces(&ds, shards).into_iter().map(Ok::<_, ()>);
                    let streamed = ScanPass::run_stream(&ds, &TrustSum::default(), blocks).unwrap();
                    assert_eq!(streamed.to_bits(), baseline, "stream {shards}x{threads}");
                }
            });
        }
    }

    #[test]
    fn long_tables_merge_in_chunk_order_at_any_width() {
        // Many more chunks than the fold threads may run ahead of the
        // merge, plus a remainder: the pipelined merge must equal one
        // sequential left-to-right chunk fold at every width.
        let ds = dataset(65 * ScanPass::CHUNK + 5);
        let mut manual = 0.0f64;
        for lo in (0..ds.instances.len()).step_by(ScanPass::CHUNK) {
            let hi = (lo + ScanPass::CHUNK).min(ds.instances.len());
            let part = ds.instances.trust_col()[lo..hi].iter().fold(0.0, |a, &t| a + f64::from(t));
            manual += part;
        }
        for threads in [1, 2, 3] {
            let pool = ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
            let got = pool.install(|| ScanPass::run(&ds, &TrustSum::default()));
            assert_eq!(got.to_bits(), manual.to_bits(), "threads = {threads}");
        }
    }

    #[test]
    fn sharded_scans_count_as_one_pass_and_ids_stay_global() {
        let ds = dataset(2 * ScanPass::CHUNK + 10);
        // Accumulator that records the largest id it saw: proves shard
        // bases offset local rows back into global instance ids.
        #[derive(Debug, Default)]
        struct MaxId(u64);
        impl Accumulator for MaxId {
            type Output = u64;
            fn init(&self) -> Self {
                MaxId::default()
            }
            fn accept_chunk(
                &mut self,
                _ds: &Dataset,
                base: usize,
                _cols: &InstanceColumns,
                range: std::ops::Range<usize>,
            ) {
                for i in range {
                    let id = InstanceId::from_usize(base + i);
                    self.0 = self.0.max(u64::from(id.raw()));
                }
            }
            fn merge(&mut self, other: Self) {
                self.0 = self.0.max(other.0);
            }
            fn finish(self, _ds: &Dataset) -> u64 {
                self.0
            }
        }
        let before = ScanPass::full_scan_count();
        let blocks = pieces(&ds, 3).into_iter().map(Ok::<_, ()>);
        let max_id = ScanPass::run_stream(&ds, &MaxId::default(), blocks).unwrap();
        assert_eq!(ScanPass::full_scan_count() - before, 1, "one fused pass");
        assert_eq!(max_id, ds.instances.len() as u64 - 1);
    }

    #[test]
    fn stream_errors_abort_the_scan() {
        let ds = dataset(ScanPass::CHUNK);
        let blocks = vec![Ok((0, ds.instances.clone())), Err("disk died")];
        let got = ScanPass::run_stream(&ds, &TrustSum::default(), blocks.into_iter());
        assert_eq!(got.unwrap_err(), "disk died");
    }

    #[test]
    #[should_panic(expected = "CHUNK-aligned")]
    fn misaligned_shard_boundary_is_rejected() {
        // A short (non-CHUNK-multiple) shard followed by another would
        // split a chunk across shards — exactly the float-order hazard
        // the alignment invariant exists to prevent.
        let ds = dataset(100);
        let blocks = vec![Ok::<_, ()>((0, ds.instances.clone())), Ok((100, ds.instances.clone()))];
        let _ = ScanPass::run_stream(&ds, &TrustSum::default(), blocks.into_iter());
    }

    #[test]
    #[should_panic(expected = "ascending order")]
    fn out_of_order_shards_are_rejected() {
        let ds = dataset(ScanPass::CHUNK);
        let blocks = vec![Ok::<_, ()>((ScanPass::CHUNK, ds.instances.clone()))];
        let _ = ScanPass::run_stream(&ds, &TrustSum::default(), blocks.into_iter());
    }

    // ---- pipeline interleavings -----------------------------------------
    //
    // Each test forces an order of events across the calling thread and
    // the fold threads with counters the accumulator and the shard
    // iterator share. A wait that never ends fails the test after `HANG`
    // instead of hanging it.

    const HANG: std::time::Duration = std::time::Duration::from_secs(60);

    /// A count that threads bump and wait on.
    #[derive(Default)]
    struct Count {
        n: Mutex<usize>,
        changed: Condvar,
    }

    impl Count {
        fn bump(&self) {
            *self.n.lock().unwrap() += 1;
            self.changed.notify_all();
        }

        fn set(&self, n: usize) {
            *self.n.lock().unwrap() = n;
            self.changed.notify_all();
        }

        fn get(&self) -> usize {
            *self.n.lock().unwrap()
        }

        /// Waits until the count reaches `n` or `limit` passes; true if
        /// it reached `n`.
        fn wait_until(&self, n: usize, limit: std::time::Duration) -> bool {
            let guard = self.n.lock().unwrap();
            let (guard, _) = self.changed.wait_timeout_while(guard, limit, |k| *k < n).unwrap();
            *guard >= n
        }

        /// Waits until the count reaches `n`; panics with `what` if it
        /// never does.
        fn wait_for(&self, n: usize, what: &str) {
            assert!(self.wait_until(n, HANG), "{what}");
        }
    }

    /// Runs `f` on its own thread: its result or panic, or a test failure
    /// if it has not finished after `HANG`.
    fn within<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> std::thread::Result<T> {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let _ = tx.send(std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)));
        });
        rx.recv_timeout(HANG).expect("the scan hung")
    }

    fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
        payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default()
    }

    fn chunk_of(base: usize, range: &std::ops::Range<usize>) -> usize {
        (base + range.start) / ScanPass::CHUNK
    }

    /// [`TrustSum`] that also logs the chunks it covers in merge order;
    /// chunk 0's fold waits until chunk 1's has finished.
    struct ChunkLog {
        sum: f64,
        chunks: Vec<usize>,
        chunk1_done: Arc<Count>,
    }

    impl Accumulator for ChunkLog {
        type Output = (f64, Vec<usize>);

        fn init(&self) -> Self {
            ChunkLog { sum: 0.0, chunks: Vec::new(), chunk1_done: Arc::clone(&self.chunk1_done) }
        }

        fn accept_chunk(
            &mut self,
            _ds: &Dataset,
            base: usize,
            cols: &InstanceColumns,
            range: std::ops::Range<usize>,
        ) {
            let chunk = chunk_of(base, &range);
            if chunk == 0 {
                self.chunk1_done.wait_for(1, "chunk 1 was not folded beside chunk 0");
            }
            for i in range {
                let row = cols.row(i);
                self.sum += f64::from(row.trust);
            }
            self.chunks.push(chunk);
            if chunk == 1 {
                self.chunk1_done.bump();
            }
        }

        fn merge(&mut self, other: Self) {
            self.sum += other.sum;
            self.chunks.extend(other.chunks);
        }

        fn finish(self, _ds: &Dataset) -> (f64, Vec<usize>) {
            (self.sum, self.chunks)
        }
    }

    #[test]
    fn partials_merge_in_chunk_order_not_completion_order() {
        // Chunk 1 finishes before chunk 0 does; merging partials as they
        // complete would put it first.
        let ds = dataset(4 * ScanPass::CHUNK + 17);
        let mut sequential = 0.0f64;
        for lo in (0..ds.instances.len()).step_by(ScanPass::CHUNK) {
            let hi = (lo + ScanPass::CHUNK).min(ds.instances.len());
            sequential +=
                ds.instances.trust_col()[lo..hi].iter().fold(0.0, |a, &t| a + f64::from(t));
        }
        let pool = ThreadPoolBuilder::new().num_threads(2).build().unwrap();
        for shards in [None, Some(1), Some(3)] {
            let proto =
                ChunkLog { sum: 0.0, chunks: Vec::new(), chunk1_done: Arc::new(Count::default()) };
            let (sum, chunks) = pool.install(|| match shards {
                None => ScanPass::run(&ds, &proto),
                Some(n) => {
                    let blocks = pieces(&ds, n).into_iter().map(Ok::<_, ()>);
                    ScanPass::run_stream(&ds, &proto, blocks).unwrap()
                }
            });
            assert_eq!(chunks, vec![0, 1, 2, 3, 4], "shards = {shards:?}");
            assert_eq!(sum.to_bits(), sequential.to_bits(), "shards = {shards:?}");
        }
    }

    /// What the residency test's accumulator and shard iterator share.
    #[derive(Default)]
    struct Progress {
        /// Rows `0..merged_rows` are in the total.
        merged_rows: Count,
        /// Chunk folds started and partials merged.
        started: Count,
        merged: Count,
        /// Shards the scan has pulled.
        pulled: Count,
    }

    /// Tracks how far the total reaches and how many partials are out.
    /// Its fold of chunk 0 holds shard 0 unmerged until shard 1 has been
    /// pulled, and then until shard 2 has been too — which a bounded
    /// engine never does first — or `GRACE` has passed.
    struct Reach {
        end: usize,
        width: usize,
        progress: Arc<Progress>,
    }

    /// How long chunk 0's fold gives an unbounded engine to pull shard 2.
    /// A bounded one waits this out once per run.
    const GRACE: std::time::Duration = std::time::Duration::from_millis(100);

    impl Accumulator for Reach {
        type Output = usize;

        fn init(&self) -> Self {
            Reach { end: 0, width: self.width, progress: Arc::clone(&self.progress) }
        }

        fn accept_chunk(
            &mut self,
            _ds: &Dataset,
            base: usize,
            _cols: &InstanceColumns,
            range: std::ops::Range<usize>,
        ) {
            let p = &self.progress;
            p.started.bump();
            let out = p.started.get() - p.merged.get();
            assert!(out <= AHEAD * self.width, "{out} partials outstanding");
            if chunk_of(base, &range) == 0 {
                // The caller reads the next shard while the pool folds …
                p.pulled.wait_for(2, "shard 1 was not read while shard 0 folded");
                // … but not the one after: the iterator's check fails if so.
                p.pulled.wait_until(3, GRACE);
            }
            self.end = base + range.end;
        }

        fn merge(&mut self, other: Self) {
            self.end = other.end;
            let p = &self.progress;
            p.merged.bump();
            p.merged_rows.set(self.end);
        }

        fn finish(self, _ds: &Dataset) -> usize {
            self.end
        }
    }

    #[test]
    fn at_most_two_shards_are_resident() {
        // Four shards of three chunks each: the caller may read shard
        // s + 1 while shard s folds, but never shard s + 2 before shard s
        // has fully merged.
        let ds = dataset(12 * ScanPass::CHUNK);
        for width in [1, 2, 3] {
            let blocks = pieces(&ds, 4);
            let ends: Vec<usize> = blocks.iter().map(|(base, rows)| base + rows.len()).collect();
            assert_eq!(ends.len(), 4);
            let progress = Arc::new(Progress::default());
            let proto = Reach { end: 0, width, progress: Arc::clone(&progress) };
            let shards = blocks.into_iter().enumerate().map(|(k, block)| {
                if k >= 2 {
                    let (need, have) = (ends[k - 2], progress.merged_rows.get());
                    assert!(have >= need, "shard {k} read with rows {have}..{need} unmerged");
                }
                progress.pulled.bump();
                Ok::<_, ()>(block)
            });
            let pool = ThreadPoolBuilder::new().num_threads(width).build().unwrap();
            let end = pool.install(|| ScanPass::run_stream(&ds, &proto, shards)).unwrap();
            assert_eq!(end, ds.instances.len(), "width = {width}");
            assert_eq!(progress.merged.get(), 12, "width = {width}");
        }
    }

    /// Panics in its fold of chunk 0, but only once the other fold thread
    /// has run as far ahead of the merge as it may.
    struct Boom {
        width: usize,
        folded: Arc<Count>,
    }

    impl Accumulator for Boom {
        type Output = ();

        fn init(&self) -> Self {
            Boom { width: self.width, folded: Arc::clone(&self.folded) }
        }

        fn accept_chunk(
            &mut self,
            _ds: &Dataset,
            base: usize,
            _cols: &InstanceColumns,
            range: std::ops::Range<usize>,
        ) {
            if chunk_of(base, &range) == 0 {
                let ahead = AHEAD * self.width - 1;
                self.folded.wait_for(ahead, "the other fold threads did not run ahead");
                panic!("fold failed on chunk 0");
            }
            self.folded.bump();
        }

        fn merge(&mut self, _other: Self) {}

        fn finish(self, _ds: &Dataset) {}
    }

    #[test]
    fn a_panicking_fold_fails_the_scan_instead_of_hanging_it() {
        // The fold threads past chunk 0 end up waiting for the merge to
        // catch up, which it never will: the panic must wake them.
        for stream in [false, true] {
            let got = within(move || {
                let ds = dataset(3 * AHEAD * ScanPass::CHUNK);
                let proto = Boom { width: 2, folded: Arc::new(Count::default()) };
                let pool = ThreadPoolBuilder::new().num_threads(2).build().unwrap();
                pool.install(|| {
                    if stream {
                        let blocks = pieces(&ds, 3).into_iter().map(Ok::<_, ()>);
                        let _ = ScanPass::run_stream(&ds, &proto, blocks);
                    } else {
                        ScanPass::run(&ds, &proto);
                    }
                });
            });
            let payload = got.expect_err("the scan must panic");
            assert_eq!(panic_message(&*payload), "fold failed on chunk 0", "stream = {stream}");
        }
    }

    /// Counts folds started and finished; the fold of chunk 2 waits until
    /// the input has failed.
    struct Joined {
        started: Arc<Count>,
        finished: Arc<Count>,
        failed: Arc<Count>,
    }

    impl Accumulator for Joined {
        type Output = ();

        fn init(&self) -> Self {
            Joined {
                started: Arc::clone(&self.started),
                finished: Arc::clone(&self.finished),
                failed: Arc::clone(&self.failed),
            }
        }

        fn accept_chunk(
            &mut self,
            _ds: &Dataset,
            base: usize,
            _cols: &InstanceColumns,
            range: std::ops::Range<usize>,
        ) {
            self.started.bump();
            if chunk_of(base, &range) == 2 {
                self.failed.wait_for(1, "the input never failed");
            }
            self.finished.bump();
        }

        fn merge(&mut self, _other: Self) {}

        fn finish(self, _ds: &Dataset) {}
    }

    #[test]
    fn an_input_error_is_returned_after_every_fold_finishes() {
        let got = within(|| {
            let ds = dataset(3 * ScanPass::CHUNK);
            let proto = Joined {
                started: Arc::new(Count::default()),
                finished: Arc::new(Count::default()),
                failed: Arc::new(Count::default()),
            };
            let mut blocks: Vec<_> = pieces(&ds, 3).into_iter().map(Ok).collect();
            assert_eq!(blocks.len(), 3);
            blocks.push(Err("disk died"));
            let shards = blocks.into_iter().inspect(|item| {
                if item.is_err() {
                    proto.failed.bump();
                }
            });
            let pool = ThreadPoolBuilder::new().num_threads(2).build().unwrap();
            let got = pool.install(|| ScanPass::run_stream(&ds, &proto, shards));
            (got, proto.started.get(), proto.finished.get())
        });
        let (got, started, finished) = got.expect("the scan must not panic");
        assert_eq!(got, Err("disk died"));
        assert_eq!(started, finished, "a fold outlived the scan");
    }
}
