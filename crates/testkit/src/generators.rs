//! Adversarial dataset generation: deterministic edge cases plus seeded
//! random [`Strategy`]s.
//!
//! The simulator only emits "plausible marketplace" shapes; the corners
//! where aggregate code breaks (empty tables, one-row tables, ties at
//! medians, duplicate timestamps, zero durations, chunk-boundary sizes)
//! never occur there. This module manufactures those corners on purpose,
//! so the differential suite exercises the fused engine where it is most
//! likely to disagree with a straight-line re-implementation.

use crowd_core::fixture::{order_sensitive, Fixture};
use crowd_core::prelude::*;
use proptest::{Strategy, TestRng};

/// One row of [`crowd_core::query::ScanPass`]'s chunking: 8192 instances.
const CHUNK: usize = 8192;

/// Named deterministic edge-case datasets, each targeting one failure
/// class. All are valid per [`Dataset::validate`].
pub fn edge_case_datasets() -> Vec<(&'static str, Dataset)> {
    let mut out: Vec<(&'static str, Dataset)> = Vec::new();

    // No entities at all: every aggregate must come out empty, not panic.
    out.push(("empty", DatasetBuilder::new().finish().expect("empty dataset is valid")));

    // Entities but zero instances: batches/workers exist with no activity.
    let mut f = Fixture::new();
    f.add_workers(3);
    f.add_batch(Duration::ZERO);
    f.add_batch(Duration::from_days(10));
    f.add_unsampled_batch(Duration::from_days(2));
    out.push(("entities-no-instances", f.finish()));

    // The minimal non-trivial dataset.
    let mut f = Fixture::new();
    let w = f.add_worker();
    let b = f.add_batch(Duration::ZERO);
    f.instance(b, 0, w, 60, 30);
    out.push(("single-instance", f.finish()));

    // Zero pickup and zero work time: batch creation, start and end all
    // coincide (exercises `max(1)` floors in the latency splices).
    let mut f = Fixture::new();
    let w = f.add_worker();
    let b = f.add_batch(Duration::ZERO);
    for item in 0..4 {
        f.instance(b, item, w, 0, 0);
    }
    out.push(("zero-durations", f.finish()));

    // Many instances with byte-identical timestamps.
    let mut f = Fixture::new();
    let ws = f.add_workers(3);
    let b = f.add_batch(Duration::ZERO);
    for i in 0..30 {
        f.instance(b, i % 5, ws[i as usize % 3], 3600, 45);
    }
    out.push(("duplicate-timestamps", f.finish()));

    // A single worker owning every instance across several weeks.
    let mut f = Fixture::new();
    let w = f.add_worker();
    for week in 0..4 {
        let b = f.add_batch(Duration::from_days(7 * week));
        for item in 0..6 {
            f.instance(b, item, w, 60 * (i64::from(item) + 1), 20 + week);
        }
    }
    out.push(("all-same-worker", f.finish()));

    // Work times tied exactly at the batch median, so `rel_time` ratios
    // are exactly 1 and the median sits on repeated values.
    let mut f = Fixture::new();
    let ws = f.add_workers(2);
    let b = f.add_batch(Duration::ZERO);
    for i in 0..9 {
        f.instance(b, i, ws[i as usize % 2], 120, 30);
    }
    f.instance(b, 9, ws[0], 120, 29);
    f.instance(b, 10, ws[1], 120, 31);
    out.push(("tie-at-median", f.finish()));

    // An unsampled batch carrying instances: no HTML, no enrichment, so
    // its rows must take the `batch_median = None` path.
    let mut f = Fixture::new();
    let w = f.add_worker();
    let sampled = f.add_batch(Duration::ZERO);
    let shadow = f.add_unsampled_batch(Duration::from_days(1));
    f.instance(sampled, 0, w, 60, 30);
    f.instance(shadow, 0, w, 60, 30);
    f.instance(shadow, 1, w, 90, 10);
    out.push(("unsampled-with-activity", f.finish()));

    // Instance started *before* its batch was created (the marketplace
    // data can contain this; `validate` allows it). Pickup is negative.
    let mut f = Fixture::new();
    let w = f.add_worker();
    let b = f.add_batch(Duration::from_days(3));
    f.instance(b, 0, w, -7200, 40);
    f.instance(b, 1, w, 600, 40);
    out.push(("negative-pickup", f.finish()));

    // Trust pinned to the closed interval's endpoints.
    let mut f = Fixture::new();
    let w = f.add_worker();
    let b = f.add_batch(Duration::ZERO);
    f.instance_full(b, 0, w, 60, 30, 0.0, Answer::Choice(0));
    f.instance_full(b, 1, w, 60, 30, 1.0, Answer::Choice(1));
    f.instance_full(b, 2, w, 60, 30, 1.0, Answer::Skipped);
    out.push(("trust-extremes", f.finish()));

    // Chunk-boundary sizes around the ScanPass chunk width, built from
    // the order-sensitive fixture so any merge-order bug shows up in the
    // float sums.
    out.push(("chunk-minus-one", order_sensitive(CHUNK - 1)));
    out.push(("chunk-exact", order_sensitive(CHUNK)));
    out.push(("chunk-plus-one", order_sensitive(CHUNK + 1)));
    out.push(("two-chunks-plus-one", order_sensitive(2 * CHUNK + 1)));

    out
}

/// `ds` with its instance rows rearranged into `order` (row `i` of the
/// result is row `order[i]` of `ds`); entity tables unchanged.
fn permuted(ds: &Dataset, order: &[usize]) -> Dataset {
    let mut out = ds.clone();
    out.instances = InstanceColumns::new();
    out.instances.reserve(order.len());
    for &i in order {
        out.instances.push(ds.instances.row(i).to_owned());
    }
    out
}

/// Row orders the simulator never produces, each at least three
/// `CHUNK`s long. Simulated rows arrive batch by batch, so every
/// worker's days, months and weeks — and every `(batch, item)` key —
/// mostly ascend across chunks; these cases break that on purpose.
///
/// * `sim-reversed` — a simulated study with its rows reversed;
/// * `sim-shuffled` — the same study under a seeded shuffle;
/// * `descending-worker` — one worker whose days, months and weeks
///   descend across (and within) chunks, with batch keys descending across
///   chunks and one `(batch, item)` straddling a chunk boundary.
pub fn out_of_order_datasets() -> Vec<(&'static str, Dataset)> {
    let sim = crowd_sim::simulate(&crowd_sim::SimConfig::tiny(5));
    let n = sim.instances.len();
    assert!(n >= 3 * CHUNK, "the simulated study must span at least three chunks");

    let reversed: Vec<usize> = (0..n).rev().collect();
    let mut shuffled: Vec<usize> = (0..n).collect();
    let mut rng = TestRng::new(0x5EED_0F0F, 0);
    for i in (1..n).rev() {
        shuffled.swap(i, rng.below(i as u64 + 1) as usize);
    }

    vec![
        ("sim-reversed", permuted(&sim, &reversed)),
        ("sim-shuffled", permuted(&sim, &shuffled)),
        ("descending-worker", descending_worker()),
    ]
}

/// Three full chunks plus a tail. Chunk `k` draws from batch `2 − k`
/// (created 35·(2 − k) days after the origin), so the focus worker's
/// days, months and weeks, and the `(batch, item)` keys, all descend
/// from chunk to chunk; inside each chunk the focus worker's pickups
/// descend too. The last two rows of chunk 1 and the first two of chunk
/// 2 share `(batch 1, item 0)`.
fn descending_worker() -> Dataset {
    let mut f = Fixture::new();
    let focus = f.add_worker();
    let others = f.add_workers(3);
    let batches: Vec<BatchId> = (0..3).map(|k| f.add_batch(Duration::from_days(35 * k))).collect();
    let trust = |i: usize| if i.is_multiple_of(3) { 1.0e-4 } else { 0.875 };
    for chunk in 0..4usize {
        let batch = batches[2 - chunk.min(2)];
        let rows = if chunk == 3 { 77 } else { CHUNK };
        for r in 0..rows {
            let global = chunk * CHUNK + r;
            let straddle = (chunk == 1 && r >= CHUNK - 2) || (chunk == 2 && r < 2);
            let (batch, item) =
                if straddle { (batches[1], 0) } else { (batch, (r % 97) as u32 + 1) };
            let (worker, pickup) = if r % 4 == 0 {
                // The focus worker: later rows start earlier.
                (focus, (rows - r) as i64 * 97)
            } else {
                (others[r % 3], r as i64 * 13)
            };
            let work = 5 + (global % 311) as i64;
            f.instance_full(batch, item, worker, pickup, work, trust(global), Answer::Choice(0));
        }
    }
    f.finish()
}

/// A seeded random-dataset strategy for the vendored `proptest` engine.
///
/// The knobs skew generation toward degenerate shapes: duplicate
/// timestamps, tied work times, zero durations, negative pickups, skipped
/// answers, unsampled batches with activity.
#[derive(Debug, Clone)]
pub struct DatasetStrategy {
    max_workers: u64,
    max_batches: u64,
    max_instances: u64,
    /// Days the batch creation times spread over (0 = all simultaneous).
    spread_days: u64,
    /// Probability that an instance reuses a degenerate "tied" time pair
    /// instead of a random one.
    tie_bias: f64,
}

/// General small adversarial datasets: a handful of entities, up to ~120
/// instances, a multi-week timeline.
pub fn small_adversarial() -> DatasetStrategy {
    DatasetStrategy {
        max_workers: 6,
        max_batches: 5,
        max_instances: 120,
        spread_days: 45,
        tie_bias: 0.35,
    }
}

/// Heavily tied datasets: one creation instant, most instances sharing
/// identical pickup/work times — medians land on repeated values and
/// every week bin collapses to one.
pub fn ties_and_duplicates() -> DatasetStrategy {
    DatasetStrategy {
        max_workers: 3,
        max_batches: 2,
        max_instances: 80,
        spread_days: 0,
        tie_bias: 0.9,
    }
}

/// Sparse long timelines: few instances scattered over a year, so most
/// week bins are empty and clamping at both ends is exercised.
pub fn sparse_timeline() -> DatasetStrategy {
    DatasetStrategy {
        max_workers: 4,
        max_batches: 6,
        max_instances: 12,
        spread_days: 365,
        tie_bias: 0.1,
    }
}

impl Strategy for DatasetStrategy {
    type Value = Dataset;

    fn sample(&self, rng: &mut TestRng) -> Dataset {
        let mut f = Fixture::new();
        let extra_source = f.add_source("adversarial", SourceKind::OnDemand);
        let extra_country = f.add_country("Elsewhere");

        let n_workers = 1 + rng.below(self.max_workers) as usize;
        let workers: Vec<WorkerId> = (0..n_workers)
            .map(|i| {
                if i % 2 == 0 {
                    f.add_worker()
                } else {
                    f.add_worker_from(extra_source, extra_country)
                }
            })
            .collect();

        let n_batches = 1 + rng.below(self.max_batches) as usize;
        let batches: Vec<BatchId> = (0..n_batches)
            .map(|_| {
                let offset = Duration::from_days(rng.below(self.spread_days + 1) as i64)
                    + Duration::from_secs(rng.below(86_400) as i64);
                if rng.unit() < 0.2 {
                    f.add_unsampled_batch(offset)
                } else {
                    f.add_batch(offset)
                }
            })
            .collect();

        let n_instances = rng.below(self.max_instances + 1) as usize;
        for _ in 0..n_instances {
            let batch = batches[rng.below(batches.len() as u64) as usize];
            let worker = workers[rng.below(workers.len() as u64) as usize];
            let item = rng.below(7) as u32;
            let (pickup, work) = if rng.unit() < self.tie_bias {
                // Degenerate pool: duplicates, zeros, negative pickups.
                let pool: [(i64, i64); 5] =
                    [(3_600, 30), (3_600, 30), (0, 0), (-1_800, 30), (86_400, 1)];
                pool[rng.below(pool.len() as u64) as usize]
            } else {
                (rng.below(14 * 86_400) as i64 - 3_600, rng.below(600) as i64)
            };
            let trust = match rng.below(4) {
                0 => 0.0,
                1 => 1.0,
                _ => (rng.below(1_000) as f32) / 1_000.0,
            };
            let answer = match rng.below(6) {
                0 => Answer::Skipped,
                1 => Answer::Text(format!("t{}", rng.below(3))),
                _ => Answer::Choice(rng.below(3) as u16),
            };
            f.instance_full(batch, item, worker, pickup, work, trust, answer);
        }
        f.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edge_cases_are_valid_and_distinctly_named() {
        let cases = edge_case_datasets();
        let names: std::collections::HashSet<&str> = cases.iter().map(|(n, _)| *n).collect();
        assert_eq!(names.len(), cases.len(), "names are unique");
        for (name, ds) in &cases {
            ds.validate().unwrap_or_else(|e| panic!("{name}: {e:?}"));
        }
    }

    #[test]
    fn out_of_order_cases_are_valid_and_span_three_chunks() {
        for (name, ds) in out_of_order_datasets() {
            ds.validate().unwrap_or_else(|e| panic!("{name}: {e:?}"));
            assert!(ds.instances.len() > 3 * CHUNK, "{name} spans at least three chunks");
        }
    }

    #[test]
    fn strategies_generate_valid_datasets() {
        for (i, strat) in
            [small_adversarial(), ties_and_duplicates(), sparse_timeline()].iter().enumerate()
        {
            let mut rng = TestRng::new(0xD1FF ^ i as u64, 0);
            for case in 0..8 {
                let ds = strat.sample(&mut rng);
                ds.validate().unwrap_or_else(|e| panic!("strategy {i} case {case}: {e:?}"));
            }
        }
    }

    #[test]
    fn strategies_are_deterministic_per_seed() {
        let strat = small_adversarial();
        let a = strat.sample(&mut TestRng::new(7, 3));
        let b = strat.sample(&mut TestRng::new(7, 3));
        assert_eq!(a.instances, b.instances);
        assert_eq!(a.batches.len(), b.batches.len());
    }
}
