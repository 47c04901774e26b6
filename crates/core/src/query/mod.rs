//! Dataset querying: slicing to sub-populations and the fused scan engine.
//!
//! Two access patterns cover the study's needs:
//!
//! * **Slicing** materializes a sub-dataset (a time window, a labor source)
//!   as a standalone [`Dataset`] so any analysis runs on it unchanged.
//! * **Scanning** ([`scan`]) streams the instance table once through any
//!   number of registered [`scan::Accumulator`]s, so producing N analytics
//!   outputs costs one deterministic parallel pass instead of N.

pub mod scan;

pub use scan::{Accumulator, ScanPass};

use crate::dataset::{Dataset, DatasetBuilder};
use crate::id::{BatchId, SourceId};
use crate::time::Timestamp;

impl Dataset {
    /// The sub-dataset of batches created in `[from, to)` and their
    /// instances.
    pub fn slice_window(&self, from: Timestamp, to: Timestamp) -> Dataset {
        self.slice_by(|ds, batch| {
            let t = ds.batch(batch).created_at;
            t >= from && t < to
        })
    }

    /// The sub-dataset of instances performed by workers of one source.
    /// Batch rows are kept when they retain at least one instance (or had
    /// none to begin with and are dropped).
    pub fn slice_source(&self, source: SourceId) -> Dataset {
        // Keep batches that have ≥1 instance from this source.
        let mut keep = vec![false; self.batches.len()];
        for inst in &self.instances {
            if self.worker(inst.worker).source == source {
                keep[inst.batch.index()] = true;
            }
        }
        let filtered = self.slice_by(|_, b| keep[b.index()]);
        // Also drop instances not from the source (a batch may mix).
        let mut b = DatasetBuilder::new();
        copy_entities(&filtered, &mut b);
        for batch in &filtered.batches {
            b.add_batch(batch.clone());
        }
        for inst in &filtered.instances {
            if filtered.worker(inst.worker).source == source {
                b.add_instance(inst.to_owned());
            }
        }
        b.finish_unchecked()
    }

    /// Generic batch-predicate slice.
    pub fn slice_by(&self, keep_batch: impl Fn(&Dataset, BatchId) -> bool) -> Dataset {
        let mut b = DatasetBuilder::new();
        copy_entities(self, &mut b);
        // Remap kept batches to dense ids.
        let mut remap: Vec<Option<BatchId>> = vec![None; self.batches.len()];
        for (i, batch) in self.batches.iter().enumerate() {
            if keep_batch(self, BatchId::from_usize(i)) {
                remap[i] = Some(b.add_batch(batch.clone()));
            }
        }
        for inst in &self.instances {
            if let Some(new_batch) = remap[inst.batch.index()] {
                let mut owned = inst.to_owned();
                owned.batch = new_batch;
                b.add_instance(owned);
            }
        }
        b.finish_unchecked()
    }
}

fn copy_entities(ds: &Dataset, b: &mut DatasetBuilder) {
    for s in &ds.sources {
        b.add_source(s.clone());
    }
    for c in &ds.countries {
        b.add_country(c.name.clone());
    }
    for w in &ds.workers {
        b.add_worker(*w);
    }
    for t in &ds.task_types {
        b.add_task_type(t.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::answer::Answer;
    use crate::dataset::TaskInstance;
    use crate::id::ItemId;
    use crate::task::{Batch, TaskType};
    use crate::time::Duration;
    use crate::worker::{Source, SourceKind, Worker};

    fn build() -> Dataset {
        let mut b = DatasetBuilder::new();
        let s1 = b.add_source(Source::new("alpha", SourceKind::Dedicated));
        let s2 = b.add_source(Source::new("beta", SourceKind::OnDemand));
        let c = b.add_country("X");
        let w1 = b.add_worker(Worker::new(s1, c));
        let w2 = b.add_worker(Worker::new(s2, c));
        let tt = b.add_task_type(TaskType::new("t"));
        let jan = Timestamp::from_ymd(2015, 1, 10);
        let jun = Timestamp::from_ymd(2015, 6, 10);
        let b1 = b.add_batch(Batch::new(tt, jan).with_html("<p>a</p>"));
        let b2 = b.add_batch(Batch::new(tt, jun).with_html("<p>b</p>"));
        for (batch, worker, t0) in [(b1, w1, jan), (b1, w2, jan), (b2, w1, jun)] {
            b.add_instance(TaskInstance {
                batch,
                item: ItemId::new(0),
                worker,
                start: t0 + Duration::from_secs(100),
                end: t0 + Duration::from_secs(160),
                trust: 0.9,
                answer: Answer::Choice(0),
            });
        }
        b.finish().unwrap()
    }

    #[test]
    fn window_slice_keeps_only_in_range_batches() {
        let ds = build();
        let s = ds.slice_window(Timestamp::from_ymd(2015, 1, 1), Timestamp::from_ymd(2015, 3, 1));
        assert_eq!(s.batches.len(), 1);
        assert_eq!(s.instances.len(), 2);
        assert!(s.validate().is_ok(), "slices stay consistent");
        // Instances were re-pointed at the dense batch id.
        assert!(s.instances.iter().all(|i| i.batch == BatchId::new(0)));
    }

    #[test]
    fn window_slice_is_half_open() {
        let ds = build();
        let jan = Timestamp::from_ymd(2015, 1, 10);
        let empty = ds.slice_window(jan - Duration::from_days(5), jan);
        assert_eq!(empty.batches.len(), 0, "end-exclusive");
        let one = ds.slice_window(jan, jan + Duration::from_secs(1));
        assert_eq!(one.batches.len(), 1, "start-inclusive");
    }

    #[test]
    fn source_slice_keeps_only_that_sources_instances() {
        let ds = build();
        let alpha = ds.slice_source(SourceId::new(0));
        assert_eq!(alpha.instances.len(), 2, "w1's instances in both batches");
        for inst in &alpha.instances {
            assert_eq!(alpha.worker(inst.worker).source, SourceId::new(0));
        }
        assert!(alpha.validate().is_ok());
        let beta = ds.slice_source(SourceId::new(1));
        assert_eq!(beta.instances.len(), 1);
        assert_eq!(beta.batches.len(), 1, "only the batch beta touched");
    }

    #[test]
    fn entity_tables_are_preserved_whole() {
        let ds = build();
        let s = ds.slice_window(Timestamp::from_ymd(2020, 1, 1), Timestamp::from_ymd(2021, 1, 1));
        assert_eq!(s.workers.len(), ds.workers.len());
        assert_eq!(s.sources.len(), ds.sources.len());
        assert_eq!(s.task_types.len(), ds.task_types.len());
        assert_eq!(s.instances.len(), 0);
    }

    #[test]
    fn slice_of_slice_composes() {
        let ds = build();
        let all = ds.slice_window(Timestamp::from_ymd(2014, 1, 1), Timestamp::from_ymd(2016, 1, 1));
        let narrowed = all.slice_source(SourceId::new(0));
        assert_eq!(narrowed.instances.len(), 2);
    }
}
