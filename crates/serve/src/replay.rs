//! Event-feed generation: replaying a simulated dataset as the live
//! stream a marketplace would have emitted.
//!
//! A [`SimConfig`] deterministically produces a finished dataset; this
//! module splits that dataset into the *entity tables* (known to the
//! service up front, like a platform's registration databases) and the
//! *event stream* (what arrives over the wire while the marketplace
//! runs). The stream goes through [`crowd_ingest::events`]' CSV format,
//! so every feed a test or benchmark replays has passed the same
//! retry/quarantine/reorder/digest discipline as a real ingest.

use std::sync::Arc;

use crowd_core::dataset::{Dataset, InstanceColumns};
use crowd_ingest::events::{event_log_to_csv, events_from_dataset};
use crowd_ingest::MarketEvent;
use crowd_sim::{simulate, SimConfig};

/// A dataset's entity tables with the instance table emptied — the
/// static context a [`crate::LiveService`] starts from.
pub fn entities_only(ds: &Dataset) -> Dataset {
    Dataset {
        sources: ds.sources.clone(),
        countries: ds.countries.clone(),
        workers: ds.workers.clone(),
        task_types: ds.task_types.clone(),
        batches: ds.batches.clone(),
        instances: InstanceColumns::default(),
    }
}

/// A replayable event feed: entity tables plus the event stream that
/// produces a known dataset when fully applied.
#[derive(Debug, Clone)]
pub struct EventFeed {
    /// Entity tables (empty instance table).
    pub entities: Arc<Dataset>,
    /// The full event stream in producer order.
    pub events: Vec<MarketEvent>,
}

impl EventFeed {
    /// Derives the feed for a simulation config: the dataset
    /// [`simulate()`] produces, split into entities + events.
    pub fn from_config(cfg: &SimConfig) -> EventFeed {
        EventFeed::from_dataset(&simulate(cfg))
    }

    /// Splits an existing dataset into entities + events.
    pub fn from_dataset(ds: &Dataset) -> EventFeed {
        EventFeed { entities: Arc::new(entities_only(ds)), events: events_from_dataset(ds) }
    }

    /// Serializes the feed to the event-stream wire format (header,
    /// records, digest trailer).
    pub fn to_csv(&self) -> String {
        event_log_to_csv(&self.events)
    }

    /// Number of `Completed` events — the rows the fully-applied view
    /// will cover.
    pub fn n_completed(&self) -> usize {
        self.events.iter().filter(|e| matches!(e, MarketEvent::Completed { .. })).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn feed_splits_entities_from_instances() {
        let cfg = SimConfig::tiny(41);
        let ds = simulate(&cfg);
        let feed = EventFeed::from_config(&cfg);
        assert!(feed.entities.instances.is_empty());
        assert_eq!(feed.entities.batches.len(), ds.batches.len());
        assert_eq!(feed.entities.workers.len(), ds.workers.len());
        assert_eq!(feed.n_completed(), ds.instances.len());
        assert_eq!(feed.events.len(), ds.batches.len() + 2 * ds.instances.len());
    }

    #[test]
    fn feed_round_trips_through_the_wire_format() {
        let feed = EventFeed::from_config(&SimConfig::tiny(42));
        let log = crowd_ingest::load_events_str(&feed.to_csv(), &feed.entities)
            .expect("clean feed loads");
        assert_eq!(log.report.verified, Some(true));
        assert_eq!(log.events.len(), feed.events.len());
        assert_eq!(log.completed_rows().len(), feed.n_completed());
    }
}
