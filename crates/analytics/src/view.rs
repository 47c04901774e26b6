//! The live, versioned fused view: the aggregates of
//! [`Study::fused`](crate::Study::fused) maintained **incrementally**
//! under a stream of appended instance rows, instead of one memoized scan
//! over a frozen table.
//!
//! ## Equivalence contract
//!
//! After every applied delta, [`FusedView::apply`] publishes a snapshot
//! whose [`Fused`] is bit-identical to a cold batch
//! [`Study`](crate::Study) built over the same row prefix (same entities,
//! same rows, same order). The view folds with the batch scan's own
//! accumulator (`FusedAcc`), and three rules make its folds the batch
//! scan's folds:
//!
//! * **Chunk discipline.** Rows fold into [`ScanPass::CHUNK`]-row chunks
//!   merged in chunk order, exactly like the batch scan. The view keeps a
//!   running total of the *full* chunks plus a sub-chunk tail; each
//!   publish folds the tail into a copy of the total, last, as the batch
//!   scan folds its final partial chunk. Every float sum therefore adds
//!   the same terms in the same order.
//! * **Growing week window.** A week offset is `max(week - w0, 0)`, with
//!   `w0` the first week of the batch schedule; it is not clamped above.
//!   A batch scan's window ends at the dataset's latest timestamp, which
//!   bounds every offset, so an upper clamp would never bind there. The
//!   weekly vectors grow as rows arrive, and finishing pads them to the
//!   batch schedule's span, extended by any later row end.
//! * **Publish-time medians.** `rel_time_sum` divides each `(batch,
//!   source)` group's whole work seconds by the batch's median task time,
//!   which shifts as rows arrive. The accumulator keeps the group sums
//!   (integers, exact in any order) and divides once, when it finishes;
//!   the view passes the medians of its per-batch work-time piles, the
//!   same multisets the batch enrichment takes medians of, through the
//!   same sort-based [`median`].
//!
//! ## Concurrency
//!
//! A [`FusedView`] has one owner, the writer: [`FusedView::apply`] takes
//! `&mut self`. A publish builds the complete immutable [`ViewSnapshot`]
//! and keeps an `Arc` to it for [`FusedView::snapshot`]. The view does
//! not share it with other threads itself; its owner does that (in
//! `crowd-serve`, `LiveService` publishes each snapshot through its
//! `ServiceHandle`), so every snapshot has one publisher.

use std::sync::Arc;

use crowd_core::prelude::*;
use crowd_stats::descriptive::median;

use crate::fused::{Fused, FusedAcc};

/// One published, immutable state of the view.
#[derive(Debug)]
pub struct ViewSnapshot {
    /// Publish counter: 0 for the empty view, +1 per [`FusedView::apply`].
    pub version: u64,
    /// Instance rows folded into this snapshot.
    pub rows: usize,
    /// The fused aggregates over exactly those rows — equal to what a
    /// batch [`Study`](crate::Study) over the same prefix computes.
    pub fused: Fused,
}

/// The incremental fused view (see module docs).
pub struct FusedView {
    entities: Arc<Dataset>,
    /// Running total over every *full* chunk of the row log.
    total: FusedAcc,
    /// Rows past the last full chunk boundary (< [`ScanPass::CHUNK`]).
    tail: InstanceColumns,
    /// Work seconds of each sampled batch's rows, indexed by batch id: the
    /// piles the publish-time batch medians are taken from.
    batch_times: Vec<Vec<f64>>,
    /// The latest published snapshot.
    snapshot: Arc<ViewSnapshot>,
}

impl FusedView {
    /// An empty view over an entity-only dataset (batches, workers,
    /// sources present; instance table empty). Publishes version 0, which
    /// already equals the batch fused pass over zero rows.
    ///
    /// # Panics
    /// If `entities` carries instance rows — the view owns the row log.
    pub fn new(entities: Arc<Dataset>) -> FusedView {
        assert!(
            entities.instances.is_empty(),
            "FusedView is built over an entity-only dataset; rows arrive as deltas"
        );
        let total = FusedAcc::proto(&entities, [], None);
        let fused = total.clone().finish_with(&[]);
        FusedView {
            total,
            tail: InstanceColumns::new(),
            batch_times: vec![Vec::new(); entities.batches.len()],
            snapshot: Arc::new(ViewSnapshot { version: 0, rows: 0, fused }),
            entities,
        }
    }

    /// The entity context rows are resolved against.
    pub fn entities(&self) -> &Arc<Dataset> {
        &self.entities
    }

    /// Rows applied so far.
    pub fn rows(&self) -> usize {
        self.snapshot.rows
    }

    /// Version of the latest published snapshot.
    pub fn version(&self) -> u64 {
        self.snapshot.version
    }

    /// The latest published snapshot.
    pub fn snapshot(&self) -> Arc<ViewSnapshot> {
        Arc::clone(&self.snapshot)
    }

    /// Applies one delta batch of completed rows (appended to the log in
    /// order) and publishes a new snapshot — empty deltas publish too, so
    /// a heartbeat delta still bumps the version. Returns the snapshot.
    pub fn apply(&mut self, delta: &InstanceColumns) -> Arc<ViewSnapshot> {
        for row in delta.iter() {
            if self.entities.batch(row.batch).sampled {
                self.batch_times[row.batch.index()].push(row.work_time().as_secs() as f64);
            }
        }
        self.tail.extend_from(delta, 0..delta.len());
        // Fold every completed CHUNK of the tail into the running total,
        // in chunk order — the batch scan's exact discipline.
        while self.tail.len() >= ScanPass::CHUNK {
            let rest = self.tail.split_off(ScanPass::CHUNK);
            let chunk = std::mem::replace(&mut self.tail, rest);
            self.total.accept_chunk(&self.entities, 0, &chunk, 0..chunk.len());
        }

        let mut acc = self.total.clone();
        if !self.tail.is_empty() {
            acc.accept_chunk(&self.entities, 0, &self.tail, 0..self.tail.len());
        }
        let medians: Vec<Option<f64>> = self.batch_times.iter().map(|pile| median(pile)).collect();
        self.snapshot = Arc::new(ViewSnapshot {
            version: self.snapshot.version + 1,
            rows: self.snapshot.rows + delta.len(),
            fused: acc.finish_with(&medians),
        });
        self.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Study;
    use crowd_core::fixture::{order_sensitive, Fixture};

    fn entities_of(ds: &Dataset) -> Dataset {
        let mut e = ds.clone();
        e.instances = InstanceColumns::new();
        e
    }

    fn prefix_study(ds: &Dataset, rows: &InstanceColumns, n: usize) -> Study {
        let mut prefix = entities_of(ds);
        prefix.instances = rows.clone_range(0..n);
        Study::new(prefix)
    }

    #[test]
    fn empty_view_matches_batch_over_entities() {
        let mut f = Fixture::new();
        f.add_workers(2);
        f.add_batch(Duration::ZERO);
        f.add_batch(Duration::from_days(20));
        let ds = f.finish();
        let view = FusedView::new(Arc::new(entities_of(&ds)));
        let snap = view.snapshot();
        let batch = Study::new(entities_of(&ds));
        assert_eq!(snap.version, 0);
        assert_eq!(&snap.fused, batch.fused(), "empty view equals batch over zero rows");
    }

    #[test]
    fn single_delta_matches_batch_exactly() {
        let mut f = Fixture::new();
        let ws = f.add_workers(3);
        let b0 = f.add_batch(Duration::ZERO);
        let b1 = f.add_batch(Duration::from_days(9));
        for i in 0..40i64 {
            f.instance(
                if i % 2 == 0 { b0 } else { b1 },
                (i % 7) as u32,
                ws[(i % 3) as usize],
                i * 937,
                30 + i,
            );
        }
        let ds = f.finish();
        let mut view = FusedView::new(Arc::new(entities_of(&ds)));
        let snap = view.apply(&ds.instances);
        let batch = Study::new(ds.clone());
        assert_eq!(&snap.fused, batch.fused(), "one-delta view is bitwise equal to batch");
    }

    #[test]
    fn chunk_boundary_deltas_stay_bitwise_equal() {
        // Order-sensitive trust magnitudes across a 2·CHUNK+1 log: any
        // deviation from the batch chunk/merge discipline shows up in the
        // last ulp of the sums.
        let ds = order_sensitive(2 * ScanPass::CHUNK + 1);
        let mut view = FusedView::new(Arc::new(entities_of(&ds)));
        let cuts = [1usize, ScanPass::CHUNK - 1, ScanPass::CHUNK + 3, 2 * ScanPass::CHUNK + 1];
        let mut done = 0usize;
        for cut in cuts {
            let delta = ds.instances.clone_range(done..cut);
            done = cut;
            let snap = view.apply(&delta);
            let oracle = prefix_study(&ds, &ds.instances, cut);
            assert_eq!(snap.rows, cut);
            assert_eq!(&snap.fused, oracle.fused(), "prefix {cut} must match batch");
        }
    }

    #[test]
    fn empty_deltas_bump_versions_without_changing_state() {
        let ds = order_sensitive(10);
        let mut view = FusedView::new(Arc::new(entities_of(&ds)));
        let a = view.apply(&ds.instances);
        let b = view.apply(&InstanceColumns::new());
        assert_eq!(b.version, a.version + 1);
        assert_eq!(a.fused, b.fused, "empty delta leaves the aggregates untouched");
        assert_eq!(view.snapshot().version, b.version);
    }
}
