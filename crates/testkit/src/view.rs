//! Live-view differential harness: incremental [`FusedView`] vs cold
//! batch [`Study`], at every delta boundary.
//!
//! The `crowd-serve` pipeline's headline guarantee is *incremental =
//! batch*: after every applied delta the view's published aggregates
//! equal what a fresh batch scan over the same event prefix computes.
//! [`assert_view_matches_batch`] enforces that guarantee the hard way:
//!
//! 1. the dataset is replayed as a marketplace event stream, then
//!    *damaged in transit* — records reversed (every completion arrives
//!    out of order) and a subset replayed (duplicates) — and recovered
//!    through the `crowd-ingest` event loader's canonical reordering,
//!    dedup, and digest verification;
//! 2. the recovered completion rows are applied to a [`FusedView`] in
//!    delta batches (including an empty heartbeat delta);
//! 3. at **every** batch boundary the published snapshot is compared
//!    field-by-field ([`compare_fused`]) against a cold [`Study`] over
//!    exactly the rows applied so far, every float to the bit
//!    ([`FloatMode::Bitwise`]): the view folds with the batch scan's own
//!    accumulator in the batch scan's chunk order;
//! 4. the final state is additionally checked, to the bit, against the
//!    batch engine at 1 and 4 worker threads, tying the live path into
//!    the same thread-invariance contract as the rest of the engine.

use std::sync::Arc;

use crowd_analytics::{FusedView, Study};
use crowd_core::dataset::{Dataset, InstanceColumns};
use crowd_ingest::events::{event_log_to_csv, events_from_dataset, load_events_str};

use crate::differential::{compare_fused, fused_with_threads, FloatMode};

/// Entity tables of `ds` with the instance table emptied.
fn entities_of(ds: &Dataset) -> Dataset {
    Dataset {
        sources: ds.sources.clone(),
        countries: ds.countries.clone(),
        workers: ds.workers.clone(),
        task_types: ds.task_types.clone(),
        batches: ds.batches.clone(),
        instances: InstanceColumns::default(),
    }
}

/// Delta boundaries for `n` rows split into `deltas` batches, with a
/// deliberate duplicate boundary in the middle (an empty delta) and the
/// final boundary always at `n`.
pub fn delta_cuts(n: usize, deltas: usize) -> Vec<usize> {
    let deltas = deltas.max(1);
    let mut cuts: Vec<usize> = (1..=deltas).map(|i| n * i / deltas).collect();
    // Repeat the middle boundary: the view must publish a version with
    // unchanged aggregates on an empty delta.
    let mid = cuts[cuts.len() / 2];
    cuts.insert(cuts.len() / 2, mid);
    if *cuts.last().unwrap() != n {
        cuts.push(n);
    }
    cuts
}

/// Routes `ds` through a damaged-in-transit event stream, applies the
/// recovered rows to a [`FusedView`] in `deltas` batches, and asserts
/// batch equivalence at every boundary (plus thread invariance at the
/// end). Panics with the field-level diff on any divergence.
pub fn assert_view_matches_batch(ds: &Dataset, deltas: usize) {
    let entities = Arc::new(entities_of(ds));

    // Producer-side serialization, then transit damage: reverse every
    // record (worst-case out-of-order arrival) and replay every 7th.
    let clean = event_log_to_csv(&events_from_dataset(ds));
    let mut lines: Vec<&str> = clean.lines().collect();
    let header = lines.remove(0);
    let trailer = lines.pop().expect("stream always has a trailer");
    lines.reverse();
    let replays: Vec<&str> = lines.iter().copied().step_by(7).collect();
    let mut wire = String::with_capacity(clean.len() * 2);
    for chunk in [&[header][..], &lines, &replays, &[trailer][..]] {
        for line in chunk {
            wire.push_str(line);
            wire.push('\n');
        }
    }

    let log = load_events_str(&wire, &entities).expect("damaged stream must recover");
    assert_eq!(
        log.report.verified,
        Some(true),
        "recovered stream must verify against the producer digest"
    );
    if !ds.instances.is_empty() {
        assert!(log.report.repaired > 0, "reversal must register as repaired inversions");
        assert!(log.report.deduped > 0, "replays must register as deduped");
    }
    let rows = log.completed_rows();
    assert_eq!(rows.len(), ds.instances.len(), "every completion must survive transit");

    // Apply in deltas; compare at every published boundary.
    let mut view = FusedView::new(Arc::clone(&entities));
    let mut prev = 0usize;
    for (i, &cut) in delta_cuts(rows.len(), deltas).iter().enumerate() {
        let delta = rows.clone_range(prev..cut);
        let snap = view.apply(&delta);
        prev = cut;

        assert_eq!(snap.rows, cut, "snapshot row count tracks the applied prefix");
        assert_eq!(snap.version, i as u64 + 1, "one version per published delta");

        let mut prefix = entities_of(ds);
        prefix.instances = rows.clone_range(0..cut);
        let batch = Study::new(prefix);
        let diffs = compare_fused(&snap.fused, batch.fused(), FloatMode::Bitwise);
        assert!(
            diffs.is_empty(),
            "view diverged from batch study at boundary {cut}/{} rows:\n{}",
            rows.len(),
            diffs.join("\n")
        );
    }

    // Final state vs the batch engine at 1 and 4 threads: the live path
    // obeys the same thread-invariance contract as the batch scan.
    let mut full = entities_of(ds);
    full.instances = rows.clone_range(0..rows.len());
    let final_snap = view.snapshot();
    for threads in [1usize, 4] {
        let engine = fused_with_threads(&full, threads);
        let diffs = compare_fused(&final_snap.fused, &engine, FloatMode::Bitwise);
        assert!(
            diffs.is_empty(),
            "drained view diverged from the {threads}-thread batch engine:\n{}",
            diffs.join("\n")
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowd_core::fixture::Fixture;
    use crowd_core::Duration;

    #[test]
    fn cuts_cover_the_row_range_and_repeat_one_boundary() {
        let cuts = delta_cuts(100, 4);
        assert_eq!(*cuts.last().unwrap(), 100);
        assert!(cuts.windows(2).all(|w| w[0] <= w[1]), "monotone boundaries");
        assert!(cuts.windows(2).any(|w| w[0] == w[1]), "one empty delta");
        assert_eq!(delta_cuts(0, 3).last(), Some(&0));
    }

    #[test]
    fn harness_accepts_a_small_fixture() {
        let mut f = Fixture::new();
        let ws = f.add_workers(2);
        let b0 = f.add_batch(Duration::ZERO);
        let b1 = f.add_batch(Duration::from_days(8));
        for i in 0..20 {
            f.instance(b0, i % 5, ws[i as usize % 2], 60 * i64::from(i), 30 + i64::from(i));
        }
        f.instance(b1, 0, ws[0], -600, 45);
        assert_view_matches_batch(&f.finish(), 3);
    }

    #[test]
    fn harness_accepts_the_empty_dataset() {
        assert_view_matches_batch(&crowd_core::dataset::DatasetBuilder::new().finish().unwrap(), 2);
    }
}
