//! # crowd-core
//!
//! Core data model for the crowdsourcing-marketplace study reproduction
//! (Jain, Das Sarma, Parameswaran, Widom — VLDB 2017).
//!
//! This crate defines the *observable* schema of the marketplace dataset the
//! paper analyzes: labor [`Source`]s, [`Worker`]s, distinct [`TaskType`]s,
//! [`Batch`]es of task instances, and the per-instance rows carrying worker
//! answers, start/end times and marketplace-assigned trust scores
//! (paper §2.3, "Dataset Attributes").
//!
//! Everything *latent* (true worker skill, task difficulty, arrival-process
//! parameters) lives in `crowd-sim`; analyses in `crowd-analytics` consume
//! only the types defined here, mirroring the authors' position of seeing
//! rows but not the mechanisms that produced them.
//!
//! ## Quick tour
//!
//! ```
//! use crowd_core::prelude::*;
//!
//! let mut b = DatasetBuilder::new();
//! let src = b.add_source(Source::new("clixsense", SourceKind::OnDemand));
//! let us = b.add_country("USA");
//! let w = b.add_worker(Worker::new(src, us));
//! let tt = b.add_task_type(TaskType::new("flag images")
//!     .with_goal(Goal::QualityAssurance)
//!     .with_operator(Operator::Filter)
//!     .with_data_type(DataType::Image));
//! let t0 = Timestamp::from_ymd_hms(2015, 3, 2, 9, 0, 0);
//! let batch = b.add_batch(Batch::new(tt, t0).with_html("<p>flag it</p>"));
//! b.add_instance(TaskInstance {
//!     batch,
//!     item: ItemId::new(0),
//!     worker: w,
//!     start: t0 + Duration::from_secs(120),
//!     end: t0 + Duration::from_secs(180),
//!     trust: 0.97,
//!     answer: Answer::Choice(1),
//! });
//! let ds = b.finish().expect("consistent dataset");
//! assert_eq!(ds.instances.len(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod answer;
pub mod csv;
pub mod dataset;
pub mod error;
pub mod fixture;
pub mod id;
pub mod labels;
pub mod provenance;
pub mod query;
pub mod rng;
pub mod shard;
pub mod task;
pub mod time;
pub mod worker;

pub use answer::Answer;
pub use dataset::{
    Dataset, DatasetBuilder, DatasetIndex, DatasetSummary, HtmlArena, InstanceColumns, InstanceRef,
    TaskInstance,
};
pub use error::{CoreError, FaultClass, Result};
pub use id::{BatchId, CountryId, InstanceId, ItemId, SourceId, TaskTypeId, WorkerId};
pub use labels::{Complexity, DataType, Goal, LabelSet, Operator};
pub use provenance::{ErrorBudget, IngestReport, QuarantinedRow, TableReport};
pub use query::{Accumulator, ScanPass};
pub use rng::stream_seed;
pub use shard::{ShardPlan, ShardSink};
pub use task::{Batch, DesignFeatures, TaskType};
pub use time::{Duration, Timestamp, WeekIndex, Weekday};
pub use worker::{Country, Source, SourceKind, Worker};

/// Convenience re-exports for downstream crates and examples.
pub mod prelude {
    pub use crate::answer::Answer;
    pub use crate::dataset::{
        Dataset, DatasetBuilder, DatasetIndex, DatasetSummary, HtmlArena, InstanceColumns,
        InstanceRef, TaskInstance,
    };
    pub use crate::error::{CoreError, FaultClass, Result};
    pub use crate::id::{BatchId, CountryId, InstanceId, ItemId, SourceId, TaskTypeId, WorkerId};
    pub use crate::labels::{Complexity, DataType, Goal, LabelSet, Operator};
    pub use crate::provenance::{ErrorBudget, IngestReport, QuarantinedRow, TableReport};
    pub use crate::query::{Accumulator, ScanPass};
    pub use crate::rng::stream_seed;
    pub use crate::shard::{ShardPlan, ShardSink};
    pub use crate::task::{Batch, DesignFeatures, TaskType};
    pub use crate::time::{Duration, Timestamp, WeekIndex, Weekday};
    pub use crate::worker::{Country, Source, SourceKind, Worker};
}
