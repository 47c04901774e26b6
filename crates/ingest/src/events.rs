//! Live marketplace event stream: serialization, resilient loading, and
//! canonical replay ordering for the `crowd-serve` incremental pipeline.
//!
//! The paper's dataset is a *post-hoc* export; a live marketplace instead
//! emits an event feed — batches get posted, instances get picked up, and
//! completions arrive whenever workers submit. This module defines that
//! feed as a typed [`MarketEvent`] stream with a CSV wire format, plus a
//! loader that applies the same resilience discipline as the table loader
//! in [`crate::loader`]:
//!
//! - transient IO errors are retried with bounded backoff;
//! - malformed / dangling / semantically invalid records are quarantined
//!   under the [`ErrorBudget`], never silently dropped;
//! - byte-identical replayed records are deduplicated (counted, not
//!   quarantined);
//! - out-of-order arrivals are restored to the *canonical event order*
//!   `(event time, kind, sequence number)` and the number of repaired
//!   inversions is reported;
//! - an optional digest trailer (`T,<n>,<hex>`) proves the recovered
//!   stream identical to what the producer emitted — the digest is an
//!   order-invariant, duplicate-sensitive sum of per-record hashes, so a
//!   reordered or replayed stream verifies once restored while a dropped
//!   or altered record does not.
//!
//! Wire format (header `kind,seq,payload`):
//!
//! ```text
//! P,<seq>,<batch>                                  batch posted
//! U,<seq>,<batch>,<worker>,<at-secs>               instance picked up
//! C,<seq>,<batch>,<item>,<worker>,<start>,<end>,<trust>,<answer>
//! T,<n>,<digest-hex>                               trailer (optional)
//! ```
//!
//! `Completed` payloads reuse the canonical `instances` record layout from
//! [`crowd_core::csv`], so a completed event carries exactly the row that
//! lands in [`InstanceColumns`] — the `crowd-serve` delta path feeds these
//! rows straight into a `FusedView`.

use std::cmp::Ordering;
use std::fmt;
use std::io::Read;
use std::sync::Arc;

use crowd_core::csv::{self, record_hash};
use crowd_core::dataset::{Dataset, InstanceColumns, TaskInstance};
use crowd_core::error::{CoreError, FaultClass};
use crowd_core::provenance::{ErrorBudget, QuarantinedRow, TableReport};
use crowd_core::{BatchId, InstanceId, Timestamp, WorkerId};

use crate::loader::{check_instance, civil, line_of, quarantine};
use crate::retry::{read_all_with_retry, Backoff, Clock, SystemClock};

/// Table name events are reported and quarantined under.
pub const EVENTS_TABLE: &str = "events";

/// Expected header line of an event stream.
pub const EVENTS_HEADER: &str = "kind,seq,payload";

// ---------------------------------------------------------------------------
// Events
// ---------------------------------------------------------------------------

/// One timestamped marketplace event.
///
/// `seq` is the producer-assigned sequence number; it breaks ties between
/// events that share a timestamp and kind, making the canonical order total
/// and replay deterministic.
#[derive(Debug, Clone, PartialEq)]
pub enum MarketEvent {
    /// A requester posted a batch. The event time is the batch's creation
    /// timestamp (resolved against the entity tables at load).
    Posted {
        /// Producer sequence number.
        seq: u64,
        /// The posted batch.
        batch: BatchId,
    },
    /// A worker picked up an instance from a batch.
    PickedUp {
        /// Producer sequence number.
        seq: u64,
        /// The batch the instance belongs to.
        batch: BatchId,
        /// The worker who picked it up.
        worker: WorkerId,
        /// When the pickup happened.
        at: Timestamp,
    },
    /// A worker submitted a completed instance. The payload is the full
    /// canonical instance row; the event time is its submission time.
    Completed {
        /// Producer sequence number.
        seq: u64,
        /// The completed instance row.
        row: TaskInstance,
    },
}

impl MarketEvent {
    /// The producer sequence number.
    pub fn seq(&self) -> u64 {
        match self {
            MarketEvent::Posted { seq, .. }
            | MarketEvent::PickedUp { seq, .. }
            | MarketEvent::Completed { seq, .. } => *seq,
        }
    }

    /// Canonical kind rank: posted < picked-up < completed at equal times.
    fn kind_rank(&self) -> u8 {
        match self {
            MarketEvent::Posted { .. } => 0,
            MarketEvent::PickedUp { .. } => 1,
            MarketEvent::Completed { .. } => 2,
        }
    }

    /// The event's timestamp, resolving `Posted` against the batch table.
    ///
    /// Panics if a `Posted` batch id is out of range — the loader
    /// quarantines dangling ids before ordering, so this only fires on
    /// hand-built events.
    pub fn at(&self, entities: &Dataset) -> Timestamp {
        match self {
            MarketEvent::Posted { batch, .. } => entities.batch(*batch).created_at,
            MarketEvent::PickedUp { at, .. } => *at,
            MarketEvent::Completed { row, .. } => row.end,
        }
    }

    /// Appends the event's canonical serialization (one CSV record plus
    /// newline) to `out`.
    pub fn serialize(&self, out: &mut String) {
        use fmt::Write;
        match self {
            MarketEvent::Posted { seq, batch } => {
                let _ = writeln!(out, "P,{seq},{}", batch.raw());
            }
            MarketEvent::PickedUp { seq, batch, worker, at } => {
                let _ = writeln!(out, "U,{seq},{},{},{}", batch.raw(), worker.raw(), at.as_secs());
            }
            MarketEvent::Completed { seq, row } => {
                let _ = write!(out, "C,{seq},");
                csv::instance_record(
                    crowd_core::dataset::InstanceRef {
                        batch: row.batch,
                        item: row.item,
                        worker: row.worker,
                        start: row.start,
                        end: row.end,
                        trust: row.trust,
                        answer: &row.answer,
                    },
                    out,
                );
            }
        }
    }

    fn canon(&self) -> String {
        let mut s = String::new();
        self.serialize(&mut s);
        s
    }
}

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// Typed failure of an event-stream load.
#[derive(Debug)]
pub enum EventStreamError {
    /// The underlying read failed (transient retries exhausted, or a
    /// non-transient IO error) or the quarantine budget was exceeded —
    /// carries the typed [`CoreError`] and the report accumulated so far.
    Failed {
        /// The underlying error.
        error: CoreError,
        /// Load state at the point of failure.
        report: TableReport,
    },
    /// The stream's first record was not the `kind,seq,payload` header.
    MissingHeader {
        /// What the first record actually was.
        got: String,
    },
    /// The trailer digest did not cover the recovered stream: a record was
    /// dropped, altered, or fabricated (reordering and duplication alone
    /// cannot trigger this — the digest is order-invariant and replays are
    /// deduplicated first).
    DigestMismatch {
        /// Record count the producer wrote.
        expected_rows: u64,
        /// Records the loader accepted.
        rows: u64,
        /// Digest the producer wrote.
        expected: u64,
        /// Digest over the accepted records.
        actual: u64,
    },
}

impl fmt::Display for EventStreamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EventStreamError::Failed { error, .. } => {
                write!(f, "event stream load failed: {error}")
            }
            EventStreamError::MissingHeader { got } => {
                write!(f, "event stream: expected header `{EVENTS_HEADER}`, got `{got}`")
            }
            EventStreamError::DigestMismatch { expected_rows, rows, expected, actual } => write!(
                f,
                "event stream digest mismatch: trailer covers {expected_rows} records \
                 (digest {expected:016x}), recovered {rows} (digest {actual:016x})"
            ),
        }
    }
}

impl std::error::Error for EventStreamError {}

// ---------------------------------------------------------------------------
// Loaded log
// ---------------------------------------------------------------------------

/// A recovered event stream in canonical order, with full provenance.
#[derive(Debug, Clone)]
pub struct EventLog {
    /// Events in canonical `(time, kind, seq)` order.
    pub events: Vec<MarketEvent>,
    /// Accept/repair/dedup/quarantine accounting for the stream.
    pub report: TableReport,
    /// Detail on quarantined records (capped at
    /// [`QUARANTINE_DETAIL_CAP`](crowd_core::provenance::QUARANTINE_DETAIL_CAP);
    /// the report counts stay exact).
    pub quarantine: Vec<QuarantinedRow>,
}

impl EventLog {
    /// The completed-instance rows, in canonical event order — the delta
    /// feed for an incremental `FusedView`.
    pub fn completed_rows(&self) -> InstanceColumns {
        let mut cols = InstanceColumns::default();
        for ev in &self.events {
            if let MarketEvent::Completed { row, .. } = ev {
                cols.push(row.clone());
            }
        }
        cols
    }

    /// Number of `Posted` events.
    pub fn n_posted(&self) -> usize {
        self.events.iter().filter(|e| matches!(e, MarketEvent::Posted { .. })).count()
    }

    /// Number of `PickedUp` events.
    pub fn n_picked(&self) -> usize {
        self.events.iter().filter(|e| matches!(e, MarketEvent::PickedUp { .. })).count()
    }

    /// Number of `Completed` events.
    pub fn n_completed(&self) -> usize {
        self.events.iter().filter(|e| matches!(e, MarketEvent::Completed { .. })).count()
    }
}

// ---------------------------------------------------------------------------
// Producer side
// ---------------------------------------------------------------------------

/// Derives the event stream a live marketplace would have emitted while
/// producing `ds`: one `Posted` per batch, one `PickedUp` + one `Completed`
/// per instance. Sequence numbers are assigned in table order (batches
/// first), so the canonical event order is reproducible from the dataset
/// alone.
pub fn events_from_dataset(ds: &Dataset) -> Vec<MarketEvent> {
    let n_batches = ds.batches.len() as u64;
    let mut events = Vec::with_capacity(ds.batches.len() + 2 * ds.instances.len());
    for i in 0..ds.batches.len() {
        events.push(MarketEvent::Posted { seq: i as u64, batch: BatchId::from_usize(i) });
    }
    for i in 0..ds.instances.len() {
        let row = ds.instance(InstanceId::from_usize(i)).to_owned();
        events.push(MarketEvent::PickedUp {
            seq: n_batches + 2 * i as u64,
            batch: row.batch,
            worker: row.worker,
            at: row.start,
        });
        events.push(MarketEvent::Completed { seq: n_batches + 2 * i as u64 + 1, row });
    }
    events
}

/// Serializes events to the wire format: header, one record per event in
/// the given order, and the digest trailer.
pub fn event_log_to_csv(events: &[MarketEvent]) -> String {
    let mut out = String::with_capacity(64 * events.len() + 64);
    out.push_str(EVENTS_HEADER);
    out.push('\n');
    let mut digest = 0u64;
    for ev in events {
        let start = out.len();
        ev.serialize(&mut out);
        digest = digest.wrapping_add(record_hash(&out[start..]));
    }
    use fmt::Write;
    let _ = writeln!(out, "T,{},{digest:016x}", events.len());
    out
}

// ---------------------------------------------------------------------------
// Consumer side
// ---------------------------------------------------------------------------

/// Knobs for one event-stream load.
#[derive(Clone)]
pub struct EventOptions {
    /// Quarantine budget for the stream.
    pub budget: ErrorBudget,
    /// Retry policy for transient IO errors.
    pub backoff: Backoff,
    /// Clock backing the backoff sleeps (inject [`crate::ManualClock`] in
    /// tests for zero wall-clock time).
    pub clock: Arc<dyn Clock>,
}

impl Default for EventOptions {
    fn default() -> EventOptions {
        EventOptions {
            budget: ErrorBudget::default(),
            backoff: Backoff::default(),
            clock: Arc::new(SystemClock),
        }
    }
}

impl fmt::Debug for EventOptions {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EventOptions")
            .field("budget", &self.budget)
            .field("backoff", &self.backoff)
            .finish_non_exhaustive()
    }
}

struct Trailer {
    line: usize,
    n: u64,
    digest: u64,
}

/// Loads an event stream from `reader`, recovering what the resilience
/// machinery can and reporting the rest.
///
/// `entities` supplies the already-loaded entity tables: dangling batch /
/// worker references are quarantined against them, and `Posted` events take
/// their timestamp from the batch table. The instance row a `Completed`
/// event carries must pass the table loader's row rule.
pub fn load_events(
    reader: &mut dyn Read,
    entities: &Dataset,
    opts: &EventOptions,
) -> Result<EventLog, EventStreamError> {
    let mut report = TableReport::new(EVENTS_TABLE);
    let mut qlog = Vec::new();

    let (bytes, retries) =
        read_all_with_retry(reader, EVENTS_TABLE, &opts.backoff, opts.clock.as_ref())
            .map_err(|error| EventStreamError::Failed { error, report: report.clone() })?;
    report.retries = retries;
    let text = String::from_utf8_lossy(&bytes);

    let mut records = csv::parse_records_lossy(&text);
    match records.next() {
        Some(Ok((_, f))) if f.join(",") == EVENTS_HEADER => {}
        Some(Ok((_, f))) => return Err(EventStreamError::MissingHeader { got: f.join(",") }),
        Some(Err(e)) => return Err(EventStreamError::MissingHeader { got: e.to_string() }),
        None => return Err(EventStreamError::MissingHeader { got: String::new() }),
    }

    // Parse + validate, quarantining under budget. Keyed: (at, rank, seq).
    let mut keyed: Vec<(i64, u8, u64, MarketEvent)> = Vec::new();
    let mut trailer: Option<Trailer> = None;
    for rec in records {
        let parsed = match rec {
            Ok((line, f)) => {
                parse_event(&f, line, entities).map_err(|(fault, message)| (line, fault, message))
            }
            Err(e) => Err((line_of(&e), FaultClass::Malformed, e.to_string())),
        };
        match parsed {
            Ok(Parsed::Event(ev)) => {
                let at = ev.at(entities).as_secs();
                keyed.push((at, ev.kind_rank(), ev.seq(), ev));
            }
            Ok(Parsed::Trailer(t)) => trailer = Some(t),
            Err((line, fault, message)) => {
                quarantine(&mut report, &mut qlog, opts.budget, line, fault, message)
                    .map_err(|error| EventStreamError::Failed { error, report: report.clone() })?;
            }
        }
    }

    // Restore canonical order, counting the inversions the sort repairs.
    // Ties beyond (at, kind, seq) break on the serialized record so equal
    // keys with different payloads still order deterministically.
    let key_cmp = |a: &(i64, u8, u64, MarketEvent), b: &(i64, u8, u64, MarketEvent)| {
        (a.0, a.1, a.2).cmp(&(b.0, b.1, b.2)).then_with(|| a.3.canon().cmp(&b.3.canon()))
    };
    report.repaired =
        keyed.windows(2).filter(|w| key_cmp(&w[0], &w[1]) == Ordering::Greater).count() as u64;
    keyed.sort_by(key_cmp);

    // Dedup byte-identical replays (adjacent after the sort) and fold the
    // content digest over what remains. Each record serializes into one
    // reused buffer, swapped with the last kept record's; a serialized
    // record is never empty, so the empty start matches none.
    let mut events = Vec::with_capacity(keyed.len());
    let mut digest = 0u64;
    let (mut canon, mut last_canon) = (String::new(), String::new());
    for (_, _, _, ev) in keyed {
        canon.clear();
        ev.serialize(&mut canon);
        if canon == last_canon {
            report.deduped += 1;
            continue;
        }
        digest = digest.wrapping_add(record_hash(&canon));
        std::mem::swap(&mut canon, &mut last_canon);
        events.push(ev);
    }
    report.accepted = events.len() as u64;

    // Trailer verification: with a clean quarantine the recovered stream
    // must be provably identical to what the producer emitted; with
    // quarantined records it provably is not, so record `Some(false)`
    // rather than failing a load that already reported its losses.
    if let Some(t) = trailer {
        let matches = t.n == report.accepted && t.digest == digest;
        if !matches && report.quarantined == 0 {
            return Err(EventStreamError::DigestMismatch {
                expected_rows: t.n,
                rows: report.accepted,
                expected: t.digest,
                actual: digest,
            });
        }
        let _ = t.line;
        report.verified = Some(matches);
    }

    Ok(EventLog { events, report, quarantine: qlog })
}

/// Loads an event stream from a CSV string with default options.
pub fn load_events_str(text: &str, entities: &Dataset) -> Result<EventLog, EventStreamError> {
    load_events(&mut text.as_bytes(), entities, &EventOptions::default())
}

enum Parsed {
    Event(MarketEvent),
    Trailer(Trailer),
}

/// Parses one wire-format event record (no trailer allowed) — the WAL
/// replay path decodes checksummed payloads through the same grammar the
/// stream loader uses, so a WAL record can never smuggle in an event the
/// ingest path would have rejected.
pub(crate) fn parse_wire_event(
    f: &[String],
    line: usize,
    entities: &Dataset,
) -> Result<MarketEvent, String> {
    match parse_event(f, line, entities) {
        Ok(Parsed::Event(ev)) => Ok(ev),
        Ok(Parsed::Trailer(_)) => Err("trailer record inside a WAL payload".into()),
        Err((fault, message)) => Err(format!("{fault:?}: {message}")),
    }
}

fn parse_event(
    f: &[String],
    line: usize,
    entities: &Dataset,
) -> Result<Parsed, (FaultClass, String)> {
    if f.len() == 1 && f[0].is_empty() {
        return Err((FaultClass::Malformed, "blank record".into()));
    }
    let arity = |want: usize| {
        if f.len() == want {
            Ok(())
        } else {
            Err((FaultClass::Arity, format!("expected {want} fields, got {}", f.len())))
        }
    };
    let num = |field: &str, what: &str| -> Result<u64, (FaultClass, String)> {
        field.parse::<u64>().map_err(|_| (FaultClass::Numeric, format!("bad {what} `{field}`")))
    };
    let batch_in_range = |raw: u64| -> Result<BatchId, (FaultClass, String)> {
        if (raw as usize) < entities.batches.len() {
            Ok(BatchId::new(raw as u32))
        } else {
            Err((FaultClass::Dangling, format!("batch b{raw} out of range")))
        }
    };
    match f[0].as_str() {
        "P" => {
            arity(3)?;
            let seq = num(&f[1], "seq")?;
            let batch = batch_in_range(num(&f[2], "batch id")?)?;
            Ok(Parsed::Event(MarketEvent::Posted { seq, batch }))
        }
        "U" => {
            arity(5)?;
            let seq = num(&f[1], "seq")?;
            let batch = batch_in_range(num(&f[2], "batch id")?)?;
            let worker_raw = num(&f[3], "worker id")?;
            if worker_raw as usize >= entities.workers.len() {
                return Err((FaultClass::Dangling, format!("worker w{worker_raw} out of range")));
            }
            let at: i64 = f[4]
                .parse()
                .map_err(|_| (FaultClass::Numeric, format!("bad pickup time `{}`", f[4])))?;
            let at = civil(Timestamp::from_secs(at))?;
            Ok(Parsed::Event(MarketEvent::PickedUp {
                seq,
                batch,
                worker: WorkerId::new(worker_raw as u32),
                at,
            }))
        }
        "C" => {
            arity(9)?;
            let seq = num(&f[1], "seq")?;
            let row = csv::parse_instance_row(&f[2..9], line).map_err(|e| match e {
                CoreError::Csv { message, .. } => (FaultClass::Numeric, message),
                other => (FaultClass::Numeric, other.to_string()),
            })?;
            check_instance(&row, entities.batches.len(), entities.workers.len())?;
            Ok(Parsed::Event(MarketEvent::Completed { seq, row }))
        }
        "T" => {
            arity(3)?;
            let n = num(&f[1], "trailer count")?;
            let digest = u64::from_str_radix(&f[2], 16)
                .map_err(|_| (FaultClass::Numeric, format!("bad trailer digest `{}`", f[2])))?;
            Ok(Parsed::Trailer(Trailer { line, n, digest }))
        }
        other => Err((FaultClass::Numeric, format!("bad event kind `{other}`"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{Fault, FaultPlan};
    use crate::retry::ManualClock;
    use crate::ChaosReader;
    use crowd_core::fixture::Fixture;
    use crowd_core::Duration;

    fn dataset() -> Dataset {
        let mut fx = Fixture::new();
        let w0 = fx.add_worker();
        let w1 = fx.add_worker();
        let b0 = fx.add_batch(Duration::ZERO);
        let b1 = fx.add_batch(Duration::from_days(2));
        fx.instance(b0, 0, w0, 60, 30);
        fx.instance(b0, 1, w1, 120, 45);
        fx.instance(b1, 0, w0, 30, 20);
        fx.finish()
    }

    #[test]
    fn round_trip_restores_the_event_stream() {
        let ds = dataset();
        let events = events_from_dataset(&ds);
        let csv_text = event_log_to_csv(&events);
        let log = load_events_str(&csv_text, &ds).expect("clean load");
        assert_eq!(log.report.accepted, events.len() as u64);
        assert_eq!(log.report.quarantined, 0);
        assert_eq!(log.report.verified, Some(true));
        assert_eq!(log.n_posted(), ds.batches.len());
        assert_eq!(log.n_picked(), ds.instances.len());
        assert_eq!(log.n_completed(), ds.instances.len());
        assert_eq!(log.completed_rows().len(), ds.instances.len());
        // Canonical order is a permutation of the producer's events.
        let mut want: Vec<String> = events.iter().map(MarketEvent::canon).collect();
        let mut got: Vec<String> = log.events.iter().map(MarketEvent::canon).collect();
        want.sort();
        got.sort();
        assert_eq!(want, got);
    }

    #[test]
    fn shuffled_and_replayed_records_restore_and_verify() {
        let ds = dataset();
        let events = events_from_dataset(&ds);
        let csv_text = event_log_to_csv(&events);
        let mut lines: Vec<&str> = csv_text.lines().collect();
        let trailer = lines.pop().unwrap();
        // Reverse the records and replay two of them.
        let header = lines.remove(0);
        lines.reverse();
        let dup_a = lines[0];
        let dup_b = lines[lines.len() - 1];
        let mut shuffled = format!("{header}\n");
        for l in &lines {
            shuffled.push_str(l);
            shuffled.push('\n');
        }
        shuffled.push_str(dup_a);
        shuffled.push('\n');
        shuffled.push_str(dup_b);
        shuffled.push('\n');
        shuffled.push_str(trailer);
        shuffled.push('\n');

        let log = load_events_str(&shuffled, &ds).expect("recoverable load");
        assert_eq!(log.report.accepted, events.len() as u64);
        assert_eq!(log.report.deduped, 2);
        assert!(log.report.repaired > 0, "reversed stream must count repairs");
        assert_eq!(log.report.verified, Some(true));

        let clean = load_events_str(&event_log_to_csv(&events), &ds).unwrap();
        assert_eq!(clean.events, log.events);
    }

    #[test]
    fn canonical_order_is_time_then_kind_then_seq() {
        let ds = dataset();
        let log = load_events_str(&event_log_to_csv(&events_from_dataset(&ds)), &ds).unwrap();
        let keys: Vec<(i64, u8, u64)> =
            log.events.iter().map(|e| (e.at(&ds).as_secs(), e.kind_rank(), e.seq())).collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
        // The first event is the earliest batch posting.
        assert!(matches!(log.events[0], MarketEvent::Posted { .. }));
    }

    #[test]
    fn bad_records_quarantine_by_class_under_budget() {
        let ds = dataset();
        let mut events = events_from_dataset(&ds);
        events.truncate(3);
        let mut text = event_log_to_csv(&events);
        text.truncate(text.rfind("T,").unwrap()); // drop the trailer
        text.push_str("X,9,0\n"); // unknown kind -> Numeric
        text.push_str("P,10\n"); // wrong arity -> Arity
        text.push_str("P,11,99\n"); // dangling batch -> Dangling
        text.push_str("U,12,0,99,1000\n"); // dangling worker -> Dangling
        text.push_str("C,13,0,0,0,2000,1000,0.5,S\n"); // ends before start -> Semantic
        text.push_str("C,14,0,0,0,1000,2000,1.5,S\n"); // trust out of range -> Semantic
        text.push('\n'); // blank -> Malformed

        // Past 9999-12-31 -> Semantic (week arithmetic would overflow).
        text.push_str("C,15,0,0,0,9000000000000000000,9000000000000000000,0.5,S\n");
        text.push_str("U,16,0,0,-5\n"); // before 1970 -> Semantic

        let log = load_events_str(&text, &ds).expect("within budget");
        assert_eq!(log.report.accepted, 3);
        assert_eq!(log.report.quarantined, 9);
        assert_eq!(log.report.verified, None);
        let classes: Vec<FaultClass> = log.quarantine.iter().map(|q| q.fault).collect();
        assert_eq!(
            classes,
            vec![
                FaultClass::Numeric,
                FaultClass::Arity,
                FaultClass::Dangling,
                FaultClass::Dangling,
                FaultClass::Semantic,
                FaultClass::Semantic,
                FaultClass::Malformed,
                FaultClass::Semantic,
                FaultClass::Semantic,
            ]
        );

        let tight = EventOptions {
            budget: ErrorBudget { max_quarantined_per_table: 2 },
            ..Default::default()
        };
        let err = load_events(&mut text.as_bytes(), &ds, &tight).unwrap_err();
        match err {
            EventStreamError::Failed {
                error: CoreError::BudgetExceeded { quarantined, budget, .. },
                ..
            } => {
                assert_eq!((quarantined, budget), (3, 2));
            }
            other => panic!("expected budget failure, got {other}"),
        }
    }

    #[test]
    fn altered_record_fails_the_digest() {
        let ds = dataset();
        let events = events_from_dataset(&ds);
        // Nudge the trust fields: every record still parses and validates,
        // but the content no longer matches what the producer hashed.
        let csv_text = event_log_to_csv(&events).replace(",0.9,", ",0.8,");
        assert_ne!(csv_text, event_log_to_csv(&events), "fixture must contain the pattern");
        let err = load_events_str(&csv_text, &ds).unwrap_err();
        assert!(
            matches!(err, EventStreamError::DigestMismatch { .. }),
            "expected digest mismatch, got {err}"
        );
    }

    #[test]
    fn replays_dedup_against_the_reused_buffer_and_an_altered_replay_fails() {
        let ds = dataset();
        let events = events_from_dataset(&ds);
        let csv_text = event_log_to_csv(&events);
        let mut lines: Vec<String> = csv_text.lines().map(str::to_owned).collect();
        let trailer = lines.pop().unwrap();
        let header = lines.remove(0);
        // Every record twice in a row: each second copy is a byte-identical
        // replay of the record serialized just before it.
        let doubled = |lines: &[String]| {
            let mut text = format!("{header}\n");
            for l in lines {
                text.push_str(&format!("{l}\n{l}\n"));
            }
            text + &trailer + "\n"
        };
        let log = load_events_str(&doubled(&lines), &ds).expect("replays dedup");
        assert_eq!(log.report.deduped, events.len() as u64);
        assert_eq!(log.report.accepted, events.len() as u64);
        assert_eq!(log.report.verified, Some(true), "digest over the kept records");

        // One replay altered: a record the producer never hashed.
        let at = lines.iter().position(|l| l.starts_with("C,")).unwrap();
        let mut text = doubled(&lines);
        let altered = lines[at].replace(",0.9,", ",0.8,");
        assert_ne!(altered, lines[at], "fixture must contain the pattern");
        let twice = format!("{0}\n{0}\n", lines[at]);
        text = text.replacen(&twice, &format!("{}\n{altered}\n", lines[at]), 1);
        match load_events_str(&text, &ds).unwrap_err() {
            EventStreamError::DigestMismatch { expected_rows, rows, .. } => {
                assert_eq!((expected_rows, rows), (events.len() as u64, events.len() as u64 + 1));
            }
            other => panic!("expected digest mismatch, got {other}"),
        }
    }

    #[test]
    fn dropped_record_fails_the_digest_row_count() {
        let ds = dataset();
        let events = events_from_dataset(&ds);
        let csv_text = event_log_to_csv(&events);
        let mut lines: Vec<&str> = csv_text.lines().collect();
        lines.remove(2); // drop one record, keep header + trailer
        let text = lines.join("\n") + "\n";
        let err = load_events_str(&text, &ds).unwrap_err();
        match err {
            EventStreamError::DigestMismatch { expected_rows, rows, .. } => {
                assert_eq!(expected_rows, events.len() as u64);
                assert_eq!(rows, events.len() as u64 - 1);
            }
            other => panic!("expected digest mismatch, got {other}"),
        }
    }

    #[test]
    fn missing_header_is_a_typed_error() {
        let ds = dataset();
        let err = load_events_str("P,0,0\n", &ds).unwrap_err();
        assert!(matches!(err, EventStreamError::MissingHeader { .. }));
    }

    #[test]
    fn transient_io_errors_retry_without_wall_clock_sleeps() {
        let ds = dataset();
        let csv_text = event_log_to_csv(&events_from_dataset(&ds));
        let plan =
            FaultPlan::single(Fault::Transient { first_call: 0, times: 2, would_block: false });
        let mut reader = ChaosReader::new(csv_text.as_bytes(), &plan);
        let clock = Arc::new(ManualClock::new());
        let opts = EventOptions {
            backoff: Backoff::default(),
            clock: clock.clone(),
            ..Default::default()
        };
        let log = load_events(&mut reader, &ds, &opts).expect("recovers transient faults");
        assert_eq!(log.report.retries, 2);
        assert_eq!(log.report.verified, Some(true));
        assert!(!clock.slept().is_empty(), "backoff must use the injected clock");
    }
}
