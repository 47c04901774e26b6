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
//! 2. Each chunk folds rows in ascending row order into a fresh
//!    accumulator cloned from the registered prototype
//!    ([`Accumulator::init`]).
//! 3. Chunk results are merged **sequentially, in chunk order**
//!    ([`Accumulator::merge`]), exactly as if the chunks had been
//!    processed one after another on a single thread.
//!
//! Threads only decide *who* computes a chunk, not *what* is computed or
//! *in which order* results combine.
//!
//! Chunk partials are computed and merged in fixed windows of
//! `MERGE_WINDOW` chunks, so at most one window of partials is resident
//! however long the table is. Windows merge in the same chunk order, so
//! the window size is bit-invisible too.
//!
//! ## Shard reduction
//!
//! Sharding composes with the same discipline (DESIGN.md §15): a streamed
//! scan ([`ScanPass::run_stream`], [`StreamFold`]) folds each shard's
//! chunks exactly as above and merges **chunk-level** partials into one
//! running total in global chunk order. Because shard boundaries are
//! always [`ScanPass::CHUNK`] multiples (see [`crate::shard::ShardPlan`]),
//! the chunk decomposition — and therefore every float-merge pairing — is
//! *identical* to the monolithic scan: shard count is bit-invisible by
//! construction, not by accident. The merge unit is the fixed chunk;
//! shards only bound how many rows are resident at once.

use std::cell::Cell;

use rayon::prelude::*;

use crate::dataset::{Dataset, InstanceColumns, InstanceRef};
use crate::id::InstanceId;
use crate::shard::ShardSink;

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

/// Chunk partials folded in parallel and merged before the next window
/// starts: bounds resident partials to this many per scan.
const MERGE_WINDOW: usize = 64;

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

    /// Folds one row into the running state. Rows arrive in ascending row
    /// order within a chunk.
    fn accept(&mut self, ds: &Dataset, id: InstanceId, row: InstanceRef<'_>);

    /// Folds local rows `range` of `cols` into the running state; `base`
    /// offsets local row indices into global instance ids. The engine
    /// calls this once per chunk, so `range` never exceeds
    /// [`ScanPass::CHUNK`] rows.
    ///
    /// The default implementation loops [`accept`](Self::accept) in
    /// ascending row order. Accumulators on the hot path may override it
    /// with columnar sub-loops over the chunk's column slices
    /// (DESIGN.md §18) — an override must be observably identical to the
    /// default, state and float bits included: same per-row values, and
    /// ascending row order preserved *within* every independently
    /// accumulated family (disjoint families may interleave differently;
    /// their accumulation sequences don't share state).
    fn accept_chunk(
        &mut self,
        ds: &Dataset,
        base: usize,
        cols: &InstanceColumns,
        range: std::ops::Range<usize>,
    ) {
        for i in range {
            self.accept(ds, InstanceId::from_usize(base + i), cols.row(i));
        }
    }

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
        count_scan();
        let mut total = proto.init();
        Self::fold_range(ds, &ds.instances, 0, 0..ds.instances.len(), proto, &mut total);
        total.finish(ds)
    }

    /// Runs `proto` over a stream of owned shards — `(global_base, rows)`
    /// in ascending base order, each base a [`CHUNK`](Self::CHUNK)
    /// multiple — dropping each shard after folding it, so peak memory is
    /// one shard plus accumulator state. This is the zero-copy snapshot
    /// load path: shards come straight off per-shard file sections and
    /// never assemble into a full table.
    ///
    /// The first `Err` from the stream aborts the scan and is returned.
    ///
    /// # Panics
    /// When a shard's base is not chunk-aligned or not strictly after the
    /// previous shard's rows (out-of-order merges would change float
    /// pairings).
    pub fn run_stream<A: Accumulator, E>(
        ds: &Dataset,
        proto: &A,
        shards: impl Iterator<Item = Result<(usize, InstanceColumns), E>>,
    ) -> Result<A::Output, E> {
        let mut fold = StreamFold::new(ds, proto);
        for item in shards {
            let (base, cols) = item?;
            fold.flush(base, &cols).expect("StreamFold never fails");
        }
        Ok(fold.finish())
    }

    /// Folds local rows `range` of `cols` (global ids offset by `base`)
    /// into `total`: chunk partials computed in parallel one
    /// `MERGE_WINDOW` at a time, merged sequentially in chunk order. Every
    /// public entry point reduces to this, so the merge order — hence
    /// every float bit — is shared by the monolithic and streamed scans.
    fn fold_range<A: Accumulator>(
        ds: &Dataset,
        cols: &InstanceColumns,
        base: usize,
        range: std::ops::Range<usize>,
        proto: &A,
        total: &mut A,
    ) {
        assert_eq!(
            (base + range.start) % Self::CHUNK,
            0,
            "shard boundaries must be CHUNK-aligned to keep merge order fixed"
        );
        let (lo, hi) = (range.start, range.end);
        let chunks: Vec<(usize, usize)> = (0..(hi - lo).div_ceil(Self::CHUNK))
            .map(|c| (lo + c * Self::CHUNK, (lo + (c + 1) * Self::CHUNK).min(hi)))
            .collect();
        for window in chunks.chunks(MERGE_WINDOW) {
            let parts: Vec<A> = window
                .par_iter()
                .map(|&(clo, chi)| {
                    let mut acc = proto.init();
                    acc.accept_chunk(ds, base, cols, clo..chi);
                    acc
                })
                .collect();
            for part in parts {
                total.merge(part);
            }
        }
    }

    /// Number of full-table scans started on the calling thread so far.
    pub fn full_scan_count() -> u64 {
        FULL_SCANS.with(Cell::get)
    }
}

/// A [`ShardSink`] that folds arriving shards into an [`Accumulator`] —
/// the push-style dual of [`ScanPass::run_stream`], for producers (the
/// simulator's shard-flushing build) that *deliver* shards rather than
/// being iterated.
///
/// Each flushed shard goes through the same `fold_range` (chunk partials
/// in parallel, merged sequentially in global chunk order) as
/// [`ScanPass::run`], so the finished output is bit-identical to a
/// monolithic scan over the concatenated rows. Constructing a
/// `StreamFold` counts as one full-table scan toward
/// [`ScanPass::full_scan_count`] on the constructing thread.
pub struct StreamFold<'a, A: Accumulator> {
    ds: &'a Dataset,
    proto: &'a A,
    total: A,
    next_base: usize,
}

impl<'a, A: Accumulator> StreamFold<'a, A> {
    /// A fold ready to accept shard 0. `ds` supplies entity context only;
    /// the rows come from the flushed shards.
    pub fn new(ds: &'a Dataset, proto: &'a A) -> StreamFold<'a, A> {
        count_scan();
        StreamFold { ds, proto, total: proto.init(), next_base: 0 }
    }

    /// Rows folded so far (= the base the next shard must start at).
    pub fn rows(&self) -> usize {
        self.next_base
    }

    /// Shapes the merged state into the accumulator's final output.
    pub fn finish(self) -> A::Output {
        self.total.finish(self.ds)
    }
}

impl<A: Accumulator> ShardSink for StreamFold<'_, A> {
    type Error = std::convert::Infallible;

    /// # Panics
    /// When `base` is not chunk-aligned or not exactly [`rows`](Self::rows)
    /// (out-of-order merges would change float pairings).
    fn flush(&mut self, base: usize, shard: &InstanceColumns) -> Result<(), Self::Error> {
        assert_eq!(base, self.next_base, "shards must arrive contiguously in ascending order");
        ScanPass::fold_range(self.ds, shard, base, 0..shard.len(), self.proto, &mut self.total);
        self.next_base = base + shard.len();
        Ok(())
    }
}

macro_rules! impl_accumulator_tuple {
    ($($name:ident . $idx:tt),+) => {
        impl<$($name: Accumulator),+> Accumulator for ($($name,)+) {
            type Output = ($($name::Output,)+);

            fn init(&self) -> Self {
                ($(self.$idx.init(),)+)
            }

            fn accept(&mut self, ds: &Dataset, id: InstanceId, row: InstanceRef<'_>) {
                $(self.$idx.accept(ds, id, row);)+
            }

            fn accept_chunk(
                &mut self,
                ds: &Dataset,
                base: usize,
                cols: &InstanceColumns,
                range: std::ops::Range<usize>,
            ) {
                // Forward per element (not via the default row loop), so a
                // fused member with a columnar kernel keeps it inside a
                // tuple. Element states are disjoint, and each element
                // still sees the chunk's rows in ascending order.
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
    use crate::id::ItemId;
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

        fn accept(&mut self, _ds: &Dataset, _id: InstanceId, row: InstanceRef<'_>) {
            self.sum += f64::from(row.trust);
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

        fn accept(&mut self, _ds: &Dataset, _id: InstanceId, row: InstanceRef<'_>) {
            if row.start >= self.cutoff {
                self.n += 1;
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

    /// Columnar twin of [`TrustSum`]: overrides `accept_chunk` with a
    /// tight fold over the trust column slice — same values, same order,
    /// so the float bits must match the row-loop default exactly.
    #[derive(Debug, Default)]
    struct ColumnarTrustSum {
        sum: f64,
    }

    impl Accumulator for ColumnarTrustSum {
        type Output = f64;

        fn init(&self) -> Self {
            ColumnarTrustSum::default()
        }

        fn accept(&mut self, _ds: &Dataset, _id: InstanceId, row: InstanceRef<'_>) {
            self.sum += f64::from(row.trust);
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
    fn merge_window_is_bit_invisible() {
        // More chunks than one merge window, plus a remainder: windowed
        // merging must equal one sequential left-to-right chunk fold.
        let ds = dataset((MERGE_WINDOW + 1) * ScanPass::CHUNK + 5);
        let mut manual = 0.0f64;
        for lo in (0..ds.instances.len()).step_by(ScanPass::CHUNK) {
            let hi = (lo + ScanPass::CHUNK).min(ds.instances.len());
            let part = ds.instances.trust_col()[lo..hi].iter().fold(0.0, |a, &t| a + f64::from(t));
            manual += part;
        }
        let got = ScanPass::run(&ds, &TrustSum::default());
        assert_eq!(got.to_bits(), manual.to_bits());
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
            fn accept(&mut self, _ds: &Dataset, id: InstanceId, _row: InstanceRef<'_>) {
                self.0 = self.0.max(u64::from(id.raw()));
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
    fn stream_fold_sink_matches_monolithic_scan() {
        let ds = dataset(3 * ScanPass::CHUNK + 77);
        let baseline = ScanPass::run(&ds, &TrustSum::default()).to_bits();
        for shards in [1, 2, 5] {
            let proto = TrustSum::default();
            let before = ScanPass::full_scan_count();
            let mut fold = StreamFold::new(&ds, &proto);
            for (base, shard) in pieces(&ds, shards) {
                assert_eq!(fold.rows(), base);
                fold.flush(base, &shard).unwrap();
            }
            assert_eq!(fold.rows(), ds.instances.len());
            assert_eq!(fold.finish().to_bits(), baseline, "shards={shards}");
            assert_eq!(ScanPass::full_scan_count() - before, 1, "fold = one pass");
        }
    }

    #[test]
    #[should_panic(expected = "ascending order")]
    fn stream_fold_rejects_gaps() {
        let ds = dataset(ScanPass::CHUNK);
        let proto = TrustSum::default();
        let mut fold = StreamFold::new(&ds, &proto);
        let _ = fold.flush(ScanPass::CHUNK, &ds.instances);
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
}
