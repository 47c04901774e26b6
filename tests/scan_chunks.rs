//! Chunk-boundary regression tests for the fused scan engine.
//!
//! `ScanPass` splits the instance table into fixed 8192-row chunks and
//! merges chunk results sequentially in chunk order; that is the whole
//! determinism contract. These tests pin the behaviour exactly at the
//! lengths where the chunking logic can go wrong (empty table, one row,
//! one row either side of a boundary, a boundary plus one) using an
//! order-sensitive float accumulator, and check merge-order independence
//! by running the same scan under 1-thread and 4-thread rayon pools.

use crowd_core::fixture::order_sensitive;
use crowd_core::prelude::*;

const CHUNK: usize = ScanPass::CHUNK;

/// Sums √trust — an order-sensitive f64 fold (square roots carry full
/// 53-bit mantissas, so every addition rounds and any regrouping shifts
/// the low bits) — and counts rows, which must be exact at any length.
#[derive(Default)]
struct TrustProbe {
    sum: f64,
    rows: u64,
}

impl Accumulator for TrustProbe {
    type Output = (f64, u64);

    fn init(&self) -> Self {
        TrustProbe::default()
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
            self.sum += f64::from(row.trust).sqrt();
            self.rows += 1;
        }
    }

    fn merge(&mut self, other: Self) {
        self.sum += other.sum;
        self.rows += other.rows;
    }

    fn finish(self, _ds: &Dataset) -> (f64, u64) {
        (self.sum, self.rows)
    }
}

/// The scan result computed by hand with the engine's contract: fold each
/// fixed-size chunk sequentially, then merge the chunk sums in order.
fn manual_chunked(ds: &Dataset) -> (f64, u64) {
    let trust = ds.instances.trust_col();
    let mut total = 0.0f64;
    for chunk in trust.chunks(CHUNK) {
        let mut part = 0.0f64;
        for &t in chunk {
            part += f64::from(t).sqrt();
        }
        total += part;
    }
    (total, trust.len() as u64)
}

fn scan_in_pool(ds: &Dataset, threads: usize) -> (f64, u64) {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("local rayon pool")
        .install(|| ScanPass::run(ds, &TrustProbe::default()))
}

#[test]
fn boundary_lengths_match_manual_chunked_fold() {
    for len in [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1] {
        let ds = order_sensitive(len);
        assert_eq!(ds.instances.len(), len);
        let (sum, rows) = ScanPass::run(&ds, &TrustProbe::default());
        let (want_sum, want_rows) = manual_chunked(&ds);
        assert_eq!(rows, want_rows, "len {len}");
        assert_eq!(sum.to_bits(), want_sum.to_bits(), "len {len}: {sum} vs {want_sum}");
    }
}

#[test]
fn boundary_lengths_are_thread_count_invariant() {
    for len in [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1] {
        let ds = order_sensitive(len);
        let (s1, r1) = scan_in_pool(&ds, 1);
        let (s4, r4) = scan_in_pool(&ds, 4);
        assert_eq!(r1, r4, "len {len}");
        assert_eq!(s1.to_bits(), s4.to_bits(), "len {len}: 1-thread {s1} vs 4-thread {s4}");
    }
}

#[test]
fn chunked_sum_differs_from_plain_sequential_sum_past_one_chunk() {
    // Meta-check that the probe is actually order-sensitive: once a later
    // chunk holds more than one row, the engine's per-chunk partial sums
    // round differently from a naive row-by-row fold — if no multi-chunk
    // length shows a bitwise difference, these tests could never catch a
    // chunking bug. (At CHUNK+1 the trailing chunk has a single row, so
    // the two folds coincide there by construction.)
    let mut diverged = false;
    for len in [CHUNK + 2, 2 * CHUNK, 2 * CHUNK + 1] {
        let ds = order_sensitive(len);
        let (engine, _) = ScanPass::run(&ds, &TrustProbe::default());
        let sequential: f64 = ds.instances.trust_col().iter().map(|&t| f64::from(t).sqrt()).sum();
        // Equal as real numbers to ~ulp-scale tolerance…
        assert!((engine - sequential).abs() <= engine.abs() * 1e-12, "len {len}");
        // …but not necessarily bit-for-bit.
        diverged |= engine.to_bits() != sequential.to_bits();
    }
    assert!(diverged, "fixture no longer distinguishes chunked from sequential summation");
}
