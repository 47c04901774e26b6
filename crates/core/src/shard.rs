//! Deterministic partitioning of the instance store into contiguous,
//! chunk-aligned shards.
//!
//! A shard is a horizontal slice of [`InstanceColumns`]: shard `k` owns
//! global rows `[k · shard_rows, (k+1) · shard_rows)` (the last shard may
//! be short). Two invariants make shard count — like thread count — a
//! pure performance knob that can never leak into results:
//!
//! 1. **Chunk alignment.** `shard_rows` is always a multiple of
//!    [`ScanPass::CHUNK`](crate::query::ScanPass::CHUNK). The fused scan
//!    folds rows into fixed-size chunk accumulators and merges them in
//!    global chunk order; aligned shard boundaries mean a sharded table
//!    has *exactly* the same chunk decomposition as the monolithic one,
//!    so every float is added in the same order and the results are
//!    bit-identical at any shard count.
//! 2. **Determinism of the plan.** [`ShardPlan::new`] is a pure function
//!    of `(n_rows, requested_shards)` — no host property participates —
//!    so the same config always produces the same snapshot file layout.
//!
//! The plan may produce *fewer* shards than requested: a table shorter
//! than `requested · CHUNK` rows cannot be cut into `requested` aligned
//! non-empty pieces. Callers treat the request as an upper bound.

use crate::dataset::InstanceColumns;
use crate::query::ScanPass;

/// Receives completed, chunk-aligned shards one at a time, in ascending
/// base order.
///
/// Producers (the simulator's shard-flushing assignment loop, a snapshot
/// reader replaying sections) call [`flush`](Self::flush) once per shard
/// with the shard's first global row and its columns, then drop the
/// columns — so a producer-plus-sink pipeline never holds more than one
/// shard of instances. Sinks that cannot fail (in-memory accumulation)
/// use [`std::convert::Infallible`] as their error; fallible sinks (an
/// incremental snapshot writer) surface IO errors to the producer.
///
/// The contract mirrors [`ScanPass::run_stream`](crate::query::ScanPass):
/// bases must be `CHUNK` multiples and arrive contiguously in ascending
/// order, so a sink folding into scan accumulators reproduces the
/// monolithic chunk decomposition — and every float bit — exactly.
pub trait ShardSink {
    /// Error surfaced to the producer, aborting the stream.
    type Error;

    /// Accepts the completed shard whose first row is global row `base`.
    fn flush(&mut self, base: usize, shard: &InstanceColumns) -> Result<(), Self::Error>;
}

impl<S: ShardSink + ?Sized> ShardSink for &mut S {
    type Error = S::Error;

    fn flush(&mut self, base: usize, shard: &InstanceColumns) -> Result<(), Self::Error> {
        (**self).flush(base, shard)
    }
}

/// A deterministic, chunk-aligned partition of `n_rows` into contiguous
/// shards of `shard_rows` rows each (last shard short).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardPlan {
    n_rows: usize,
    shard_rows: usize,
}

impl ShardPlan {
    /// Plans `n_rows` into at most `requested` shards, each a multiple of
    /// [`ScanPass::CHUNK`] rows (except the last, which takes the
    /// remainder). `requested` is clamped to at least 1.
    pub fn new(n_rows: usize, requested: usize) -> ShardPlan {
        let requested = requested.max(1);
        // Smallest chunk-aligned shard size that covers n_rows in at most
        // `requested` pieces.
        let target = n_rows.div_ceil(requested).max(1);
        let shard_rows = target.div_ceil(ScanPass::CHUNK) * ScanPass::CHUNK;
        ShardPlan { n_rows, shard_rows }
    }

    /// Total rows covered.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Rows per shard (always a [`ScanPass::CHUNK`] multiple).
    pub fn shard_rows(&self) -> usize {
        self.shard_rows
    }

    /// Number of shards (0 for an empty table).
    pub fn n_shards(&self) -> usize {
        self.n_rows.div_ceil(self.shard_rows)
    }

    /// Global row range of shard `k`.
    ///
    /// # Panics
    /// When `k >= n_shards()`.
    pub fn bounds(&self, k: usize) -> std::ops::Range<usize> {
        assert!(k < self.n_shards(), "shard {k} out of {}", self.n_shards());
        let lo = k * self.shard_rows;
        lo..((lo + self.shard_rows).min(self.n_rows))
    }

    /// Iterates every shard's global row range, in shard order.
    pub fn ranges(&self) -> impl Iterator<Item = std::ops::Range<usize>> + '_ {
        (0..self.n_shards()).map(|k| self.bounds(k))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CHUNK: usize = ScanPass::CHUNK;

    #[test]
    fn plan_is_chunk_aligned_and_covers_all_rows() {
        for n_rows in [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 10 * CHUNK + 17, 123_456] {
            for requested in [1, 2, 3, 8, 16, 1000] {
                let plan = ShardPlan::new(n_rows, requested);
                assert_eq!(plan.shard_rows() % CHUNK, 0, "rows={n_rows} req={requested}");
                assert!(plan.n_shards() <= requested, "request is an upper bound");
                let covered: usize = plan.ranges().map(|r| r.len()).sum();
                assert_eq!(covered, n_rows);
                // Contiguous and ordered.
                let mut next = 0;
                for r in plan.ranges() {
                    assert_eq!(r.start, next);
                    assert!(!r.is_empty());
                    next = r.end;
                }
            }
        }
    }

    #[test]
    fn plan_is_deterministic_and_empty_is_zero_shards() {
        assert_eq!(ShardPlan::new(50_000, 4), ShardPlan::new(50_000, 4));
        assert_eq!(ShardPlan::new(0, 8).n_shards(), 0);
        assert_eq!(ShardPlan::new(3 * CHUNK + 5, 1).n_shards(), 1);
    }
}
