//! The resilient loader: streaming table ingest with retry, quarantine,
//! dedup, canonical reordering, and manifest verification.
//!
//! Outcome contract (what the chaos matrix asserts):
//!
//! - A recoverable stream (transient IO, replayed rows, out-of-order
//!   instance records) loads to a dataset *provably identical* to the
//!   clean input — the export manifest's row counts and content digests
//!   must agree after recovery.
//! - An unrecoverable stream (truncation, silent corruption, quarantine
//!   over budget) returns a typed [`CoreError`] carrying the full
//!   [`IngestReport`] accumulated so far — never a panic, never a
//!   silently partial dataset.

use std::cmp::Ordering;
use std::fmt;
use std::path::Path;
use std::sync::Arc;

use crowd_core::answer::Answer;
use crowd_core::csv::{self, LossyRecords, Manifest, Table, TableDigest, MANIFEST_FILE};
use crowd_core::dataset::{Dataset, DatasetBuilder, InstanceRef, TaskInstance};
use crowd_core::error::{CoreError, FaultClass};
use crowd_core::provenance::{
    ErrorBudget, IngestReport, QuarantinedRow, TableReport, QUARANTINE_DETAIL_CAP,
};
use crowd_core::time::Timestamp;
use rayon::prelude::*;

use crate::retry::{read_all_with_retry, Backoff, Clock, SystemClock};
use crate::source::{DirSource, TableSource};

/// Fixed chunk size for the parallel instance decode — the same
/// discipline as `ScanPass::CHUNK`, so results are position-determined
/// and bit-identical at any thread count.
pub const CHUNK: usize = 8192;

/// Knobs for one resilient load.
#[derive(Clone)]
pub struct IngestOptions {
    /// Per-table quarantine budget.
    pub budget: ErrorBudget,
    /// Retry policy for transient IO errors.
    pub backoff: Backoff,
    /// Clock backing the backoff sleeps (inject [`crate::ManualClock`]
    /// in tests for zero wall-clock time).
    pub clock: Arc<dyn Clock>,
    /// Verify row counts + content digests against `manifest.csv` when
    /// present (strongly recommended; `false` skips reading it).
    pub verify_manifest: bool,
}

impl Default for IngestOptions {
    fn default() -> IngestOptions {
        IngestOptions {
            budget: ErrorBudget::default(),
            backoff: Backoff::default(),
            clock: Arc::new(SystemClock),
            verify_manifest: true,
        }
    }
}

impl fmt::Debug for IngestOptions {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("IngestOptions")
            .field("budget", &self.budget)
            .field("backoff", &self.backoff)
            .field("verify_manifest", &self.verify_manifest)
            .finish_non_exhaustive()
    }
}

/// A successful load: the dataset plus its coverage statement.
#[derive(Debug)]
pub struct Ingested {
    /// The validated dataset.
    pub dataset: Dataset,
    /// What it took to load it.
    pub report: IngestReport,
}

/// A failed load: the typed error plus everything learned before it.
#[derive(Debug)]
pub struct IngestFailure {
    /// Why the load aborted.
    pub error: CoreError,
    /// Per-table coverage and quarantine detail up to the failure point.
    pub report: IngestReport,
}

impl fmt::Display for IngestFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ingest failed: {} ({})", self.error, self.report.summary())
    }
}

impl std::error::Error for IngestFailure {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.error)
    }
}

/// Loads the dataset directory `dir` resiliently.
pub fn ingest_dir(dir: &Path, opts: &IngestOptions) -> Result<Ingested, IngestFailure> {
    ingest(&DirSource::new(dir), opts)
}

/// Loads the six tables from `source` under `opts`.
pub fn ingest(source: &dyn TableSource, opts: &IngestOptions) -> Result<Ingested, IngestFailure> {
    let mut report = IngestReport::new(opts.budget);
    match ingest_inner(source, opts, &mut report) {
        Ok(dataset) => Ok(Ingested { dataset, report }),
        Err(error) => Err(IngestFailure { error, report }),
    }
}

struct LoadCtx<'a> {
    source: &'a dyn TableSource,
    opts: &'a IngestOptions,
    manifest: Option<&'a Manifest>,
}

/// Entity-table row counts accepted so far, for forward-reference checks.
#[derive(Default)]
struct EntityCounts {
    sources: usize,
    countries: usize,
    workers: usize,
    task_types: usize,
    batches: usize,
}

fn ingest_inner(
    source: &dyn TableSource,
    opts: &IngestOptions,
    report: &mut IngestReport,
) -> Result<Dataset, CoreError> {
    let manifest = read_manifest(source, opts)?;
    report.manifest_present = manifest.is_some();
    let ctx = LoadCtx { source, opts, manifest: manifest.as_ref() };

    let mut b = DatasetBuilder::new();
    let mut counts = EntityCounts::default();
    for table in Table::ALL {
        let mut tr = TableReport::new(table.name());
        let result = load_table(&ctx, table, &mut b, &mut counts, &mut report.quarantine, &mut tr);
        report.tables.push(tr);
        result?;
    }
    // Backstop: the builder re-validates everything (the checks above are
    // a superset, so this only fires on a loader bug).
    b.finish()
}

fn read_manifest(
    source: &dyn TableSource,
    opts: &IngestOptions,
) -> Result<Option<Manifest>, CoreError> {
    if !opts.verify_manifest {
        return Ok(None);
    }
    let reader = source
        .open_manifest()
        .map_err(|e| CoreError::Csv { line: 0, message: format!("{MANIFEST_FILE}: {e}") })?;
    let Some(mut r) = reader else { return Ok(None) };
    let (bytes, _retries) = read_all_with_retry(&mut *r, "manifest", &opts.backoff, &*opts.clock)?;
    Manifest::parse(&String::from_utf8_lossy(&bytes)).map(Some)
}

fn load_table(
    ctx: &LoadCtx<'_>,
    table: Table,
    b: &mut DatasetBuilder,
    counts: &mut EntityCounts,
    qlog: &mut Vec<QuarantinedRow>,
    tr: &mut TableReport,
) -> Result<(), CoreError> {
    let reader = ctx
        .source
        .open(table)
        .map_err(|e| CoreError::Csv { line: 0, message: format!("{}: {e}", table.file_name()) })?;
    let mut reader = reader;
    let (bytes, retries) =
        read_all_with_retry(&mut *reader, table.name(), &ctx.opts.backoff, &*ctx.opts.clock)?;
    tr.retries = retries;
    // Lossy decode: a bit flip inside a UTF-8 sequence degrades to a
    // replacement character, which then fails parsing or digest
    // verification like any other corruption, instead of aborting the
    // whole load untyped.
    let text = String::from_utf8_lossy(&bytes);

    let mut records = csv::parse_records_lossy(&text);
    check_header(&mut records, table)?;
    let budget = ctx.opts.budget;
    let digest = if table == Table::Instances {
        load_instances(records, b, counts, budget, qlog, tr)?
    } else {
        load_entities(records, table, b, counts, budget, qlog, tr)?
    };

    if let Some(entry) = ctx.manifest.and_then(|m| m.entry(table)) {
        let digest_ok = entry.digest == digest;
        let ok = digest_ok && entry.rows == tr.accepted;
        tr.verified = Some(ok);
        if !ok {
            return Err(CoreError::ManifestMismatch {
                table: table.name(),
                expected_rows: entry.rows,
                got_rows: tr.accepted,
                digest_ok,
            });
        }
    }
    Ok(())
}

fn check_header(records: &mut LossyRecords<'_>, table: Table) -> Result<(), CoreError> {
    match records.next() {
        Some(Ok((_, f))) if f.join(",") == table.header() => Ok(()),
        Some(Ok((line, f))) => Err(CoreError::Csv {
            line,
            message: format!(
                "{}: expected header `{}`, got `{}`",
                table.file_name(),
                table.header(),
                f.join(",")
            ),
        }),
        Some(Err(e)) => Err(e),
        None => {
            Err(CoreError::Csv { line: 1, message: format!("{}: empty file", table.file_name()) })
        }
    }
}

/// The line a record-level parse error points at (0 when it has none).
pub(crate) fn line_of(e: &CoreError) -> usize {
    match e {
        CoreError::Csv { line, .. } => *line,
        _ => 0,
    }
}

/// Records one quarantined record of `tr`'s table (a dataset table or the
/// event stream); fails the load once the table's budget is exhausted.
/// Detail entries are capped per table, counts stay exact.
pub(crate) fn quarantine(
    tr: &mut TableReport,
    qlog: &mut Vec<QuarantinedRow>,
    budget: ErrorBudget,
    line: usize,
    fault: FaultClass,
    message: String,
) -> Result<(), CoreError> {
    tr.quarantined += 1;
    if qlog.iter().filter(|q| q.table == tr.table).count() < QUARANTINE_DETAIL_CAP {
        qlog.push(QuarantinedRow { table: tr.table, line, fault, message });
    }
    if tr.quarantined > budget.max_quarantined_per_table {
        return Err(CoreError::BudgetExceeded {
            table: tr.table,
            quarantined: tr.quarantined,
            budget: budget.max_quarantined_per_table,
        });
    }
    Ok(())
}

fn load_entities(
    records: LossyRecords<'_>,
    table: Table,
    b: &mut DatasetBuilder,
    counts: &mut EntityCounts,
    budget: ErrorBudget,
    qlog: &mut Vec<QuarantinedRow>,
    tr: &mut TableReport,
) -> Result<u64, CoreError> {
    let mut digest = TableDigest::new(table);
    let mut rec = String::new();
    for item in records {
        let (line, fields) = match item {
            Ok(x) => x,
            Err(e) => {
                quarantine(tr, qlog, budget, line_of(&e), FaultClass::Malformed, e.to_string())?;
                continue;
            }
        };
        if fields.len() == 1 && fields[0].is_empty() {
            quarantine(tr, qlog, budget, line, FaultClass::Malformed, "blank record".into())?;
            continue;
        }
        if fields.len() != table.arity() {
            let msg = format!("expected {} fields, got {}", table.arity(), fields.len());
            quarantine(tr, qlog, budget, line, FaultClass::Arity, msg)?;
            continue;
        }
        // Parse, reference-check, and (on acceptance) serialize the
        // canonical form into `rec` for the content digest.
        let reject: Option<(FaultClass, String)> = match table {
            Table::Sources => match csv::parse_source_row(&fields, line) {
                Ok(s) => {
                    rec.clear();
                    csv::source_record(&s, &mut rec);
                    b.add_source(s);
                    counts.sources += 1;
                    None
                }
                Err(e) => Some((FaultClass::Numeric, e.to_string())),
            },
            Table::Countries => match csv::parse_country_row(&fields, line) {
                Ok(name) => {
                    rec.clear();
                    csv::country_record(&name, &mut rec);
                    b.add_country(name);
                    counts.countries += 1;
                    None
                }
                Err(e) => Some((FaultClass::Numeric, e.to_string())),
            },
            Table::Workers => match csv::parse_worker_row(&fields, line) {
                Ok(w) if w.source.index() >= counts.sources => Some((
                    FaultClass::Dangling,
                    format!("source {} out of range ({} loaded)", w.source.raw(), counts.sources),
                )),
                Ok(w) if w.country.index() >= counts.countries => Some((
                    FaultClass::Dangling,
                    format!(
                        "country {} out of range ({} loaded)",
                        w.country.raw(),
                        counts.countries
                    ),
                )),
                Ok(w) => {
                    rec.clear();
                    csv::worker_record(&w, &mut rec);
                    b.add_worker(w);
                    counts.workers += 1;
                    None
                }
                Err(e) => Some((FaultClass::Numeric, e.to_string())),
            },
            Table::TaskTypes => match csv::parse_task_type_row(&fields, line) {
                Ok(tt) => {
                    rec.clear();
                    csv::task_type_record(&tt, &mut rec);
                    b.add_task_type(tt);
                    counts.task_types += 1;
                    None
                }
                Err(e) => Some((FaultClass::Numeric, e.to_string())),
            },
            Table::Batches => match csv::parse_batch_row(&fields, line) {
                Ok(batch) if batch.task_type.index() >= counts.task_types => Some((
                    FaultClass::Dangling,
                    format!(
                        "task type {} out of range ({} loaded)",
                        batch.task_type.raw(),
                        counts.task_types
                    ),
                )),
                Ok(batch) if !batch.created_at.is_civil() => {
                    Some((FaultClass::Semantic, outside_civil_range(batch.created_at)))
                }
                Ok(batch) if batch.sampled && batch.html.is_none() => {
                    Some((FaultClass::Semantic, "sampled batch without task HTML".into()))
                }
                Ok(batch) => {
                    rec.clear();
                    csv::batch_record(&batch, &mut rec);
                    b.add_batch(batch);
                    counts.batches += 1;
                    None
                }
                Err(e) => Some((FaultClass::Numeric, e.to_string())),
            },
            Table::Instances => unreachable!("instances go through load_instances"),
        };
        match reject {
            None => {
                digest.update(&rec);
                tr.accepted += 1;
            }
            Some((fault, msg)) => quarantine(tr, qlog, budget, line, fault, msg)?,
        }
    }
    Ok(digest.finish())
}

type RawRecord = crowd_core::Result<(usize, Vec<String>)>;
type ParsedRow = Result<TaskInstance, (usize, FaultClass, String)>;

fn parse_one(item: &RawRecord, counts: &EntityCounts) -> ParsedRow {
    let (line, fields) = match item {
        Ok((line, fields)) => (*line, fields),
        Err(e) => return Err((line_of(e), FaultClass::Malformed, e.to_string())),
    };
    if fields.len() == 1 && fields[0].is_empty() {
        return Err((line, FaultClass::Malformed, "blank record".into()));
    }
    if fields.len() != Table::Instances.arity() {
        let msg = format!("expected {} fields, got {}", Table::Instances.arity(), fields.len());
        return Err((line, FaultClass::Arity, msg));
    }
    let inst = csv::parse_instance_row(fields, line)
        .map_err(|e| (line, FaultClass::Numeric, e.to_string()))?;
    check_instance(&inst, counts.batches, counts.workers)
        .map_err(|(fault, msg)| (line, fault, msg))?;
    Ok(inst)
}

/// The one rule for accepting a parsed instance row, given how many
/// batches and workers exist: both ids in range, start and end civil, end
/// not before start, trust in `[0, 1]`, checked in that order. The table
/// loader and the event loader (and so WAL replay) both apply it.
pub(crate) fn check_instance(
    i: &TaskInstance,
    batches: usize,
    workers: usize,
) -> Result<(), (FaultClass, String)> {
    if i.batch.index() >= batches {
        return Err((
            FaultClass::Dangling,
            format!("batch {} out of range ({batches} loaded)", i.batch.raw()),
        ));
    }
    if i.worker.index() >= workers {
        return Err((
            FaultClass::Dangling,
            format!("worker {} out of range ({workers} loaded)", i.worker.raw()),
        ));
    }
    civil(i.start)?;
    civil(i.end)?;
    if i.end < i.start {
        return Err((FaultClass::Semantic, "ends before it starts".into()));
    }
    if i.trust.is_nan() || !(0.0..=1.0).contains(&i.trust) {
        return Err((FaultClass::Semantic, format!("trust {} outside [0, 1]", i.trust)));
    }
    Ok(())
}

/// `t` when it lies in the civil range ingest accepts
/// ([`Timestamp::is_civil`]); a `Semantic` fault otherwise.
pub(crate) fn civil(t: Timestamp) -> Result<Timestamp, (FaultClass, String)> {
    if t.is_civil() {
        Ok(t)
    } else {
        Err((FaultClass::Semantic, outside_civil_range(t)))
    }
}

/// The quarantine message for a timestamp outside [`Timestamp::is_civil`].
fn outside_civil_range(t: Timestamp) -> String {
    format!("timestamp {} outside 1970-01-01..=9999-12-31", t.as_secs())
}

fn answer_key(a: &Answer) -> (u8, u16, &str) {
    match a {
        Answer::Skipped => (0, 0, ""),
        Answer::Choice(i) => (1, *i, ""),
        Answer::Text(t) => (2, 0, t.as_str()),
    }
}

/// Total order over instance rows: every field participates, so equal keys
/// mean byte-identical records and the sort is deterministic regardless of
/// arrival order or thread count. `trust` is in `[0, 1]` (validated), so
/// its bit pattern orders consistently with its value.
fn canonical_cmp(a: &TaskInstance, b: &TaskInstance) -> Ordering {
    let ka = (
        a.batch.raw(),
        a.item.raw(),
        a.worker.raw(),
        a.start.as_secs(),
        a.end.as_secs(),
        a.trust.to_bits(),
    );
    let kb = (
        b.batch.raw(),
        b.item.raw(),
        b.worker.raw(),
        b.start.as_secs(),
        b.end.as_secs(),
        b.trust.to_bits(),
    );
    ka.cmp(&kb).then_with(|| answer_key(&a.answer).cmp(&answer_key(&b.answer)))
}

fn load_instances(
    records: LossyRecords<'_>,
    b: &mut DatasetBuilder,
    counts: &EntityCounts,
    budget: ErrorBudget,
    qlog: &mut Vec<QuarantinedRow>,
    tr: &mut TableReport,
) -> Result<u64, CoreError> {
    // Record framing is inherently serial (quoting); field decode and the
    // row rule are not. Fixed-size chunks + order-preserving parallel map
    // keep the result position-determined, hence identical at 1 and N
    // threads.
    let recs: Vec<RawRecord> = records.collect();
    let chunks: Vec<&[RawRecord]> = recs.chunks(CHUNK).collect();
    let parsed: Vec<Vec<ParsedRow>> = chunks
        .par_iter()
        .map(|chunk| chunk.iter().map(|rec| parse_one(rec, counts)).collect())
        .collect();

    let mut accepted: Vec<TaskInstance> = Vec::with_capacity(recs.len());
    for row in parsed.into_iter().flatten() {
        match row {
            Ok(inst) => accepted.push(inst),
            Err((line, fault, msg)) => quarantine(tr, qlog, budget, line, fault, msg)?,
        }
    }

    // Restore canonical order (tolerating reordered arrivals), then drop
    // byte-identical replays. `repaired` counts the arrival-order
    // inversions the sort undid.
    tr.repaired =
        accepted.windows(2).filter(|w| canonical_cmp(&w[1], &w[0]) == Ordering::Less).count()
            as u64;
    accepted.sort_by(canonical_cmp);
    let before = accepted.len();
    accepted.dedup();
    tr.deduped = (before - accepted.len()) as u64;

    let mut digest = TableDigest::new(Table::Instances);
    let mut rec = String::new();
    b.reserve_instances(accepted.len());
    for inst in accepted {
        rec.clear();
        csv::instance_record(
            InstanceRef {
                batch: inst.batch,
                item: inst.item,
                worker: inst.worker,
                start: inst.start,
                end: inst.end,
                trust: inst.trust,
                answer: &inst.answer,
            },
            &mut rec,
        );
        digest.update(&rec);
        tr.accepted += 1;
        b.add_instance(inst);
    }
    Ok(digest.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{Fault, FaultPlan};
    use crate::retry::ManualClock;
    use crate::source::ChaosSource;
    use crowd_core::csv::ManifestEntry;
    use crowd_core::prelude::*;
    use std::collections::HashMap;
    use std::io::{self, Cursor, Read};

    fn sample() -> Dataset {
        let mut b = DatasetBuilder::new();
        let s = b.add_source(Source::new("clix", SourceKind::Dedicated));
        let c = b.add_country("USA");
        let w = b.add_worker(Worker::new(s, c));
        let tt = b.add_task_type(
            TaskType::new("find \"urls\", quickly\nplease")
                .with_goal(Goal::LanguageUnderstanding)
                .with_operator(Operator::Gather)
                .with_data_type(DataType::Webpage),
        );
        let t0 = Timestamp::from_ymd(2015, 6, 1);
        let batch =
            b.add_batch(Batch::new(tt, t0).with_html("<div class=\"a,b\">\n<p>hi</p></div>"));
        b.add_batch(Batch::new(tt, t0 + Duration::from_days(1)).unsampled());
        b.add_instance(TaskInstance {
            batch,
            item: ItemId::new(0),
            worker: w,
            start: t0 + Duration::from_secs(100),
            end: t0 + Duration::from_secs(160),
            trust: 0.875,
            answer: Answer::Text("http://example.com, \"the\" site".into()),
        });
        b.add_instance(TaskInstance {
            batch,
            item: ItemId::new(0),
            worker: w,
            start: t0 + Duration::from_secs(400),
            end: t0 + Duration::from_secs(460),
            trust: 0.5,
            answer: Answer::Skipped,
        });
        b.finish().unwrap()
    }

    /// An in-memory [`TableSource`] seeded from a rendered dataset.
    struct MemSource {
        tables: HashMap<Table, Vec<u8>>,
        manifest: Option<Vec<u8>>,
    }

    impl MemSource {
        fn from_dataset(ds: &Dataset) -> MemSource {
            let mut tables = HashMap::new();
            let mut entries = Vec::new();
            for t in Table::ALL {
                let (text, entry) = csv::render_table(ds, t);
                tables.insert(t, text.into_bytes());
                entries.push(entry);
            }
            let manifest = Manifest { entries }.to_csv().into_bytes();
            MemSource { tables, manifest: Some(manifest) }
        }

        fn text(&self, table: Table) -> String {
            String::from_utf8(self.tables[&table].clone()).unwrap()
        }

        fn set(&mut self, table: Table, text: &str) {
            self.tables.insert(table, text.as_bytes().to_vec());
        }
    }

    impl TableSource for MemSource {
        fn open(&self, table: Table) -> io::Result<Box<dyn Read + '_>> {
            match self.tables.get(&table) {
                Some(b) => Ok(Box::new(Cursor::new(b.clone()))),
                None => Err(io::Error::new(io::ErrorKind::NotFound, "missing table")),
            }
        }

        fn open_manifest(&self) -> io::Result<Option<Box<dyn Read + '_>>> {
            Ok(self.manifest.clone().map(|b| Box::new(Cursor::new(b)) as Box<dyn Read>))
        }
    }

    fn test_opts() -> IngestOptions {
        IngestOptions { clock: Arc::new(ManualClock::new()), ..IngestOptions::default() }
    }

    fn assert_same_dataset(a: &Dataset, b: &Dataset) {
        for t in Table::ALL {
            assert_eq!(
                csv::render_table(a, t).0,
                csv::render_table(b, t).0,
                "{} differs",
                t.name()
            );
        }
    }

    #[test]
    fn clean_input_ingests_clean_and_verified() {
        let ds = sample();
        let src = MemSource::from_dataset(&ds);
        let out = ingest(&src, &test_opts()).unwrap();
        assert_same_dataset(&out.dataset, &ds);
        assert!(out.report.is_clean(), "clean input: {}", out.report.summary());
        assert!(out.report.manifest_present);
        assert_eq!(out.report.coverage(), 1.0);
        for tr in &out.report.tables {
            assert_eq!(tr.verified, Some(true), "{} unverified", tr.table);
        }
    }

    #[test]
    fn missing_manifest_loads_unverified() {
        let ds = sample();
        let mut src = MemSource::from_dataset(&ds);
        src.manifest = None;
        let out = ingest(&src, &test_opts()).unwrap();
        assert!(!out.report.manifest_present);
        assert!(out.report.tables.iter().all(|tr| tr.verified.is_none()));
        assert_same_dataset(&out.dataset, &ds);
    }

    #[test]
    fn bad_rows_are_quarantined_with_the_right_class() {
        let ds = sample();
        let mut src = MemSource::from_dataset(&ds);
        let mut workers = src.text(Table::Workers);
        workers.push_str("0\n"); // arity
        workers.push_str("x,y\n"); // numeric
        workers.push_str("9,0\n"); // dangling source
        src.set(Table::Workers, &workers);
        let out = ingest(&src, &test_opts()).unwrap();
        let tr = out.report.table("workers").unwrap();
        assert_eq!(tr.quarantined, 3);
        assert_eq!(tr.accepted, 1, "original row still accepted");
        assert_eq!(tr.verified, Some(true), "quarantined rows never enter the digest");
        let faults: Vec<FaultClass> = out
            .report
            .quarantine
            .iter()
            .filter(|q| q.table == "workers")
            .map(|q| q.fault)
            .collect();
        assert_eq!(faults, vec![FaultClass::Arity, FaultClass::Numeric, FaultClass::Dangling]);
        assert!(out.report.coverage() < 1.0);
    }

    #[test]
    fn timestamps_outside_the_civil_range_are_semantic() {
        let ds = sample();
        let mut src = MemSource::from_dataset(&ds);
        let mut batches = src.text(Table::Batches);
        batches.push_str("0,253402300800,0,\n"); // 10000-01-01, one second past the range
        src.set(Table::Batches, &batches);
        let mut instances = src.text(Table::Instances);
        instances.push_str("0,0,0,9000000000000000000,9000000000000000000,0.5,S\n");
        instances.push_str("0,0,0,-60,0,0.5,S\n"); // before 1970
        src.set(Table::Instances, &instances);
        let out = ingest(&src, &test_opts()).unwrap();
        for (table, n) in [("batches", 1), ("instances", 2)] {
            let tr = out.report.table(table).unwrap();
            assert_eq!(tr.quarantined, n, "{table}");
            assert_eq!(tr.verified, Some(true), "{table}: quarantined rows never enter the digest");
        }
        assert!(out.report.quarantine.iter().all(|q| q.fault == FaultClass::Semantic));
        assert_same_dataset(&out.dataset, &ds);
    }

    #[test]
    fn strict_budget_fails_fast_with_report() {
        let ds = sample();
        let mut src = MemSource::from_dataset(&ds);
        let mut workers = src.text(Table::Workers);
        workers.push_str("x,y\n");
        src.set(Table::Workers, &workers);
        let opts = IngestOptions { budget: ErrorBudget::strict(), ..test_opts() };
        let failure = ingest(&src, &opts).unwrap_err();
        assert!(matches!(
            failure.error,
            CoreError::BudgetExceeded { table: "workers", quarantined: 1, budget: 0 }
        ));
        let tr = failure.report.table("workers").unwrap();
        assert_eq!(tr.quarantined, 1);
        assert_eq!(failure.report.quarantine.len(), 1);
        assert!(failure.to_string().contains("error budget"));
    }

    #[test]
    fn duplicated_and_reordered_instances_recover_to_the_clean_dataset() {
        let ds = sample();
        let src = ChaosSource::new(MemSource::from_dataset(&ds)).with_plan(
            Table::Instances,
            FaultPlan {
                faults: vec![
                    Fault::DuplicateRecord { record: 1 },
                    Fault::SwapWithNext { record: 1 },
                ],
            },
        );
        let out = ingest(&src, &test_opts()).unwrap();
        assert_same_dataset(&out.dataset, &ds);
        let tr = out.report.table("instances").unwrap();
        assert_eq!(tr.deduped, 1, "replayed row dropped");
        assert!(tr.repaired >= 1, "arrival-order inversion counted");
        assert_eq!(tr.verified, Some(true), "recovery is digest-verified");
        assert!(!out.report.is_clean());
    }

    #[test]
    fn transient_reads_recover_with_counted_retries() {
        let ds = sample();
        let src = ChaosSource::new(MemSource::from_dataset(&ds)).with_plan(
            Table::Instances,
            FaultPlan::single(Fault::Transient { first_call: 0, times: 2, would_block: false }),
        );
        let clock = Arc::new(ManualClock::new());
        let opts = IngestOptions { clock: clock.clone(), ..IngestOptions::default() };
        let out = ingest(&src, &opts).unwrap();
        assert_same_dataset(&out.dataset, &ds);
        assert_eq!(out.report.table("instances").unwrap().retries, 2);
        assert_eq!(out.report.total_retries(), 2);
        assert!(!out.report.is_clean());
        assert_eq!(clock.slept().len(), 2, "backoff consulted the injected clock");
    }

    #[test]
    fn truncation_is_a_manifest_mismatch() {
        let ds = sample();
        let len = {
            let src = MemSource::from_dataset(&ds);
            src.text(Table::Instances).len() as u64
        };
        let src = ChaosSource::new(MemSource::from_dataset(&ds))
            .with_plan(Table::Instances, FaultPlan::single(Fault::TruncateAt { at: len - 4 }));
        let failure = ingest(&src, &test_opts()).unwrap_err();
        match failure.error {
            CoreError::ManifestMismatch { table, expected_rows, got_rows, .. } => {
                assert_eq!(table, "instances");
                assert_eq!(expected_rows, 2);
                assert!(got_rows < 2);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(
            failure.report.total_quarantined() > 0 || {
                let tr = failure.report.table("instances").unwrap();
                tr.accepted < 2
            }
        );
    }

    #[test]
    fn silent_bit_corruption_is_a_manifest_mismatch() {
        let ds = sample();
        let at = {
            let src = MemSource::from_dataset(&ds);
            src.text(Table::Instances).find("example").unwrap() as u64
        };
        let src = ChaosSource::new(MemSource::from_dataset(&ds))
            .with_plan(Table::Instances, FaultPlan::single(Fault::FlipBit { at, bit: 1 }));
        let failure = ingest(&src, &test_opts()).unwrap_err();
        match failure.error {
            CoreError::ManifestMismatch { table: "instances", digest_ok, .. } => {
                assert!(!digest_ok, "content digest must catch the flip");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn ingest_dir_roundtrips_an_exported_dataset() {
        let ds = sample();
        let dir = std::env::temp_dir().join(format!("crowd_ingest_rt_{}", std::process::id()));
        csv::export_dir(&ds, &dir).unwrap();
        let out = ingest_dir(&dir, &test_opts()).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        assert_same_dataset(&out.dataset, &ds);
        assert!(out.report.is_clean());
        assert!(out.report.manifest_present);
    }

    #[test]
    fn missing_table_is_a_typed_error_not_a_panic() {
        let ds = sample();
        let mut src = MemSource::from_dataset(&ds);
        src.tables.remove(&Table::Batches);
        let failure = ingest(&src, &test_opts()).unwrap_err();
        assert!(matches!(failure.error, CoreError::Csv { line: 0, .. }));
        assert!(failure.error.to_string().contains("batches.csv"));
    }

    #[test]
    fn empty_and_misheaded_tables_are_typed_errors() {
        let ds = sample();
        let mut src = MemSource::from_dataset(&ds);
        src.set(Table::Sources, "");
        let failure = ingest(&src, &test_opts()).unwrap_err();
        assert!(failure.error.to_string().contains("empty file"));

        let mut src = MemSource::from_dataset(&ds);
        src.set(Table::Sources, "wrong,header\n");
        let failure = ingest(&src, &test_opts()).unwrap_err();
        assert!(failure.error.to_string().contains("expected header"));
    }

    #[test]
    fn manifest_roundtrip_entry_matches_loader_digest() {
        // The digest the loader computes over accepted rows must equal the
        // exporter's, or verification would reject clean data.
        let ds = sample();
        let src = MemSource::from_dataset(&ds);
        let out = ingest(&src, &test_opts()).unwrap();
        for t in Table::ALL {
            let (_, entry) = csv::render_table(&out.dataset, t);
            let ManifestEntry { rows, .. } = entry;
            assert_eq!(rows, out.report.table(t.name()).unwrap().accepted);
        }
    }
}
