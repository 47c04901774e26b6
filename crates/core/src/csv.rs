//! CSV export of datasets (RFC-4180-style quoting) and the record
//! parsers that read them back.
//!
//! The marketplace delivered its data as per-batch flat files (paper §2.3);
//! this module provides the equivalent interchange format so datasets can be
//! moved between the simulator, external tooling, and the analytics layer.
//! Six tables are written: `sources`, `countries`, `workers`, `task_types`,
//! `batches`, `instances`, plus a [`Manifest`] (`manifest.csv`, written
//! last) recording each table's row count and content digest so a resilient
//! reader can tell recovered data from silently damaged data.
//!
//! Every file lands via a temp sibling + rename, so an interrupted export
//! never leaves a torn table: either the old file survives intact or the
//! new one is complete.
//!
//! An exported directory loads through `crowd_ingest::ingest_dir`, which
//! runs these record parsers under a quarantine budget. There is no second,
//! trusting loader: a strict load is `ingest_dir` with
//! `ErrorBudget::strict()`, where the first rejected record fails the load.

use std::fmt::Write as _;
use std::fs;
use std::io::{self};
use std::path::Path;

use crate::answer::Answer;
use crate::dataset::{Dataset, TaskInstance};
use crate::error::{CoreError, Result};
use crate::id::{BatchId, CountryId, ItemId, SourceId, TaskTypeId, WorkerId};
use crate::labels::LabelSet;
use crate::task::{Batch, TaskType};
use crate::time::Timestamp;
use crate::worker::{Source, SourceKind, Worker};

/// Escapes one CSV field: quotes when it contains a comma, quote, CR or LF.
pub fn escape_field(field: &str, out: &mut String) {
    if field.contains([',', '"', '\n', '\r']) {
        out.push('"');
        for ch in field.chars() {
            if ch == '"' {
                out.push('"');
            }
            out.push(ch);
        }
        out.push('"');
    } else {
        out.push_str(field);
    }
}

/// Splits one CSV record (which may span multiple physical lines when quoted
/// fields contain newlines) into fields. `records` iterates a whole document.
pub fn parse_records(text: &str) -> CsvRecords<'_> {
    CsvRecords { rest: text, line: 0 }
}

/// Iterator over CSV records; yields `(line_number, fields)`.
///
/// The scanner walks bytes: every byte it acts on (`,`, `"`, CR, LF) is
/// ASCII, which never occurs inside a multi-byte UTF-8 sequence, so each
/// run between two of them is appended as one `&str` slice. Outside
/// quotes a CR is dropped wherever it occurs (CRLF tolerance); inside
/// quotes it is kept, and every LF there counts a line. A malformed
/// record leaves the iterator at the record's start (see
/// [`parse_records_lossy`] for recovery).
pub struct CsvRecords<'a> {
    rest: &'a str,
    line: usize,
}

impl<'a> Iterator for CsvRecords<'a> {
    type Item = Result<(usize, Vec<String>)>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.rest.is_empty() {
            return None;
        }
        self.line += 1;
        let start_line = self.line;
        let (text, bytes) = (self.rest, self.rest.as_bytes());
        let newlines = |span: &[u8]| span.iter().filter(|&&b| b == b'\n').count();
        let mut fields = Vec::new();
        let mut cur = String::new();
        let mut at = 0;
        let mut after_quote = false; // just closed a quote; expect , or EOL
        loop {
            let run = bytes[at..]
                .iter()
                .position(|b| matches!(b, b',' | b'"' | b'\r' | b'\n'))
                .map_or(bytes.len(), |n| at + n);
            if run > at {
                if after_quote {
                    return CsvRecords::error(start_line, "data after closing quote");
                }
                cur.push_str(&text[at..run]);
                at = run;
            }
            let Some(&byte) = bytes.get(at) else {
                self.rest = "";
                fields.push(cur);
                return Some(Ok((start_line, fields)));
            };
            at += 1;
            match byte {
                b',' => {
                    fields.push(std::mem::take(&mut cur));
                    after_quote = false;
                }
                b'\r' => {} // tolerate CRLF
                b'\n' => {
                    self.rest = &text[at..];
                    fields.push(cur);
                    return Some(Ok((start_line, fields)));
                }
                _ if !cur.is_empty() || after_quote => {
                    return CsvRecords::error(start_line, "stray quote inside unquoted field");
                }
                // An opening quote: up to each next quote, which either
                // doubles (a literal quote) or closes the field.
                _ => loop {
                    let Some(q) = bytes[at..].iter().position(|&b| b == b'"').map(|n| at + n)
                    else {
                        self.line += newlines(&bytes[at..]);
                        return CsvRecords::error(start_line, "unterminated quoted field");
                    };
                    self.line += newlines(&bytes[at..q]);
                    cur.push_str(&text[at..q]);
                    at = q + 1;
                    if bytes.get(at) != Some(&b'"') {
                        after_quote = true;
                        break;
                    }
                    cur.push('"');
                    at += 1;
                },
            }
        }
    }
}

impl CsvRecords<'_> {
    /// A malformed record starting at `line`.
    fn error(line: usize, message: &str) -> Option<Result<(usize, Vec<String>)>> {
        Some(Err(CoreError::Csv { line, message: message.into() }))
    }

    /// Skips past the next physical line boundary so iteration can continue
    /// after a malformed record. Always makes progress.
    fn recover(&mut self) {
        match self.rest.find('\n') {
            Some(pos) => self.rest = &self.rest[pos + 1..],
            None => self.rest = "",
        }
    }
}

/// Like [`parse_records`], but a malformed record is reported once and then
/// skipped (to the next physical line) instead of poisoning the iterator —
/// the record-level recovery primitive the quarantining ingest path needs.
pub fn parse_records_lossy(text: &str) -> LossyRecords<'_> {
    LossyRecords { inner: parse_records(text) }
}

/// Iterator over CSV records with per-record error recovery.
pub struct LossyRecords<'a> {
    inner: CsvRecords<'a>,
}

impl Iterator for LossyRecords<'_> {
    type Item = Result<(usize, Vec<String>)>;

    fn next(&mut self) -> Option<Self::Item> {
        let item = self.inner.next()?;
        if item.is_err() {
            self.inner.recover();
        }
        Some(item)
    }
}

fn write_record(out: &mut String, fields: &[&str]) {
    for (i, f) in fields.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        escape_field(f, out);
    }
    out.push('\n');
}

fn answer_to_field(a: &Answer) -> String {
    match a {
        Answer::Choice(i) => format!("C:{i}"),
        Answer::Text(t) => format!("T:{t}"),
        Answer::Skipped => "S".to_owned(),
    }
}

fn answer_from_field(s: &str, line: usize) -> Result<Answer> {
    if s == "S" {
        return Ok(Answer::Skipped);
    }
    if let Some(rest) = s.strip_prefix("C:") {
        return rest
            .parse()
            .map(Answer::Choice)
            .map_err(|_| CoreError::Csv { line, message: format!("bad choice `{rest}`") });
    }
    if let Some(rest) = s.strip_prefix("T:") {
        return Ok(Answer::Text(rest.to_owned()));
    }
    Err(CoreError::Csv { line, message: format!("bad answer `{s}`") })
}

fn kind_to_str(k: SourceKind) -> &'static str {
    k.name()
}

fn kind_from_str(s: &str, line: usize) -> Result<SourceKind> {
    SourceKind::ALL
        .into_iter()
        .find(|k| k.name() == s)
        .ok_or_else(|| CoreError::Csv { line, message: format!("bad source kind `{s}`") })
}

// ---------------------------------------------------------------------------
// Tables
// ---------------------------------------------------------------------------

/// The six dataset tables, in dependency (load) order: referenced tables
/// come before their referrers, so a single forward pass can validate ids.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Table {
    /// Labor sources (`sources.csv`).
    Sources,
    /// Worker countries (`countries.csv`).
    Countries,
    /// Workers (`workers.csv`); references sources + countries.
    Workers,
    /// Distinct task types (`task_types.csv`).
    TaskTypes,
    /// Batches (`batches.csv`); references task types.
    Batches,
    /// Task instances (`instances.csv`); references batches + workers.
    Instances,
}

impl Table {
    /// All tables, in load order.
    pub const ALL: [Table; 6] = [
        Table::Sources,
        Table::Countries,
        Table::Workers,
        Table::TaskTypes,
        Table::Batches,
        Table::Instances,
    ];

    /// Stable table name (manifest and report rendering).
    pub fn name(self) -> &'static str {
        match self {
            Table::Sources => "sources",
            Table::Countries => "countries",
            Table::Workers => "workers",
            Table::TaskTypes => "task_types",
            Table::Batches => "batches",
            Table::Instances => "instances",
        }
    }

    /// The table's file name inside a dataset directory.
    pub fn file_name(self) -> &'static str {
        match self {
            Table::Sources => "sources.csv",
            Table::Countries => "countries.csv",
            Table::Workers => "workers.csv",
            Table::TaskTypes => "task_types.csv",
            Table::Batches => "batches.csv",
            Table::Instances => "instances.csv",
        }
    }

    /// The expected header record.
    pub fn header(self) -> &'static str {
        match self {
            Table::Sources => "name,kind",
            Table::Countries => "name",
            Table::Workers => "source,country",
            Table::TaskTypes => "title,goals,operators,data_types,choice_arity",
            Table::Batches => "task_type,created_at,sampled,html",
            Table::Instances => "batch,item,worker,start,end,trust,answer",
        }
    }

    /// Number of fields per record.
    pub fn arity(self) -> usize {
        self.header().split(',').count()
    }

    /// Whether row *position* is meaningful: entity tables are referenced
    /// by row index, so their digest is order-sensitive; instances carry
    /// explicit ids and may arrive out of order, so their digest is over
    /// the row multiset (order-invariant).
    pub fn positional(self) -> bool {
        !matches!(self, Table::Instances)
    }

    /// Looks a table up by its stable [`Table::name`].
    pub fn from_name(name: &str) -> Option<Table> {
        Table::ALL.into_iter().find(|t| t.name() == name)
    }
}

// ---------------------------------------------------------------------------
// Per-record serializers (shared by export, digests, and re-verification)
// ---------------------------------------------------------------------------

/// Appends one `sources` record (including trailing newline).
pub fn source_record(s: &Source, out: &mut String) {
    write_record(out, &[&s.name, kind_to_str(s.kind)]);
}

/// Appends one `countries` record.
pub fn country_record(name: &str, out: &mut String) {
    write_record(out, &[name]);
}

/// Appends one `workers` record.
pub fn worker_record(w: &Worker, out: &mut String) {
    write_record(out, &[&w.source.raw().to_string(), &w.country.raw().to_string()]);
}

/// Appends one `task_types` record.
pub fn task_type_record(t: &TaskType, out: &mut String) {
    write_record(
        out,
        &[
            &t.title,
            &t.goals.bits().to_string(),
            &t.operators.bits().to_string(),
            &t.data_types.bits().to_string(),
            &t.choice_arity.to_string(),
        ],
    );
}

/// Appends one `batches` record.
pub fn batch_record(b: &Batch, out: &mut String) {
    write_record(
        out,
        &[
            &b.task_type.raw().to_string(),
            &b.created_at.as_secs().to_string(),
            if b.sampled { "1" } else { "0" },
            b.html.as_deref().unwrap_or(""),
        ],
    );
}

/// Appends one `instances` record.
pub fn instance_record(i: crate::dataset::InstanceRef<'_>, out: &mut String) {
    let mut trust_buf = String::new();
    let _ = write!(trust_buf, "{}", i.trust);
    write_record(
        out,
        &[
            &i.batch.raw().to_string(),
            &i.item.raw().to_string(),
            &i.worker.raw().to_string(),
            &i.start.as_secs().to_string(),
            &i.end.as_secs().to_string(),
            &trust_buf,
            &answer_to_field(i.answer),
        ],
    );
}

// ---------------------------------------------------------------------------
// Content digests + manifest
// ---------------------------------------------------------------------------

/// splitmix64 finalizer: full-avalanche 64-bit mix.
fn mix64(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Hash of one serialized record (FNV-1a folded through `mix64`).
pub fn record_hash(record: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in record.as_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    mix64(h)
}

/// Streaming content digest over a table's serialized records.
///
/// Entity tables chain record hashes (order-sensitive: their ids are row
/// positions); the instances table uses a wrapping *sum* of record hashes,
/// which is order-invariant but still duplicate-sensitive — so a reordered
/// stream verifies once restored, while a dropped, altered, or extra row
/// does not.
#[derive(Debug, Clone)]
pub struct TableDigest {
    positional: bool,
    state: u64,
}

impl TableDigest {
    /// Fresh digest for `table`.
    pub fn new(table: Table) -> TableDigest {
        TableDigest { positional: table.positional(), state: 0x9e37_79b9_7f4a_7c15 }
    }

    /// Folds one serialized record in.
    pub fn update(&mut self, record: &str) {
        let h = record_hash(record);
        self.state =
            if self.positional { mix64(self.state ^ h) } else { self.state.wrapping_add(h) };
    }

    /// The digest value.
    pub fn finish(&self) -> u64 {
        self.state
    }
}

/// File name of the export manifest inside a dataset directory.
pub const MANIFEST_FILE: &str = "manifest.csv";

/// Header record of [`MANIFEST_FILE`].
const MANIFEST_HEADER: &str = "table,rows,digest";

/// One manifest row: a table's exported row count and content digest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ManifestEntry {
    /// Which table.
    pub table: Table,
    /// Rows the exporter wrote (excluding the header).
    pub rows: u64,
    /// [`TableDigest`] over the exported records.
    pub digest: u64,
}

/// The export manifest: what the exporter wrote, so a reader can tell
/// recovered-in-full data from silently damaged data.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Manifest {
    /// Per-table entries, in [`Table::ALL`] order as exported.
    pub entries: Vec<ManifestEntry>,
}

impl Manifest {
    /// The entry for `table`, if present.
    pub fn entry(&self, table: Table) -> Option<&ManifestEntry> {
        self.entries.iter().find(|e| e.table == table)
    }

    /// Serializes the manifest (digest as 16-digit lower hex).
    pub fn to_csv(&self) -> String {
        let mut out = format!("{MANIFEST_HEADER}\n");
        for e in &self.entries {
            let _ = writeln!(out, "{},{},{:016x}", e.table.name(), e.rows, e.digest);
        }
        out
    }

    /// Parses a manifest document. A wrong header, a record without
    /// exactly three fields, an unknown table name or an unparsable count
    /// or digest is a [`CoreError::Csv`] naming its line.
    pub fn parse(text: &str) -> Result<Manifest> {
        let mut records = parse_records(text);
        match records.next() {
            Some(Ok((_, f))) if f.join(",") == MANIFEST_HEADER => {}
            Some(Ok((line, _))) => {
                return Err(CoreError::Csv {
                    line,
                    message: format!("expected header `{MANIFEST_HEADER}`"),
                })
            }
            Some(Err(e)) => return Err(e),
            None => return Err(CoreError::Csv { line: 1, message: "empty file".into() }),
        }
        let mut entries = Vec::new();
        for rec in records {
            let (line, f) = rec?;
            let [table, rows, digest] = f.as_slice() else {
                return Err(CoreError::Csv {
                    line,
                    message: format!("expected 3 fields, got {}", f.len()),
                });
            };
            let table = Table::from_name(table).ok_or_else(|| CoreError::Csv {
                line,
                message: format!("unknown table `{table}`"),
            })?;
            let rows = parse_num(rows, line, "row count")?;
            let digest = u64::from_str_radix(digest, 16)
                .map_err(|_| CoreError::Csv { line, message: format!("bad digest `{digest}`") })?;
            entries.push(ManifestEntry { table, rows, digest });
        }
        Ok(Manifest { entries })
    }
}

/// Serializes one table and computes its manifest entry in the same pass.
pub fn render_table(ds: &Dataset, table: Table) -> (String, ManifestEntry) {
    let mut out = String::with_capacity(if table == Table::Instances {
        // Preallocate roughly: ~40 bytes per row.
        ds.instances.len() * 40 + 64
    } else {
        1024
    });
    out.push_str(table.header());
    out.push('\n');
    let mut digest = TableDigest::new(table);
    let mut rows = 0u64;
    let mut rec = String::new();
    macro_rules! push {
        ($serialize:expr) => {{
            rec.clear();
            $serialize;
            digest.update(&rec);
            out.push_str(&rec);
            rows += 1;
        }};
    }
    match table {
        Table::Sources => {
            for s in &ds.sources {
                push!(source_record(s, &mut rec));
            }
        }
        Table::Countries => {
            for c in &ds.countries {
                push!(country_record(&c.name, &mut rec));
            }
        }
        Table::Workers => {
            for w in &ds.workers {
                push!(worker_record(w, &mut rec));
            }
        }
        Table::TaskTypes => {
            for t in &ds.task_types {
                push!(task_type_record(t, &mut rec));
            }
        }
        Table::Batches => {
            for b in &ds.batches {
                push!(batch_record(b, &mut rec));
            }
        }
        Table::Instances => {
            for i in &ds.instances {
                push!(instance_record(i, &mut rec));
            }
        }
    }
    (out, ManifestEntry { table, rows, digest: digest.finish() })
}

/// Writes `content` to `path` via a temp sibling + rename, so a crash mid-
/// write leaves either the previous file intact or the new one complete —
/// never a torn table.
fn write_atomic(path: &Path, content: &str) -> io::Result<()> {
    let mut tmp_name = path.file_name().map(|n| n.to_os_string()).unwrap_or_default();
    tmp_name.push(".tmp");
    let tmp = path.with_file_name(tmp_name);
    fs::write(&tmp, content)?;
    fs::rename(&tmp, path)
}

/// Writes the six tables as `<name>.csv` files under `dir`, each landed
/// atomically (temp sibling + rename), plus a [`MANIFEST_FILE`] — written
/// last, so a manifest's presence implies every table landed in full.
pub fn export_dir(ds: &Dataset, dir: &Path) -> io::Result<()> {
    fs::create_dir_all(dir)?;
    let mut manifest = Manifest::default();
    for table in Table::ALL {
        let (csv, entry) = render_table(ds, table);
        write_atomic(&dir.join(table.file_name()), &csv)?;
        manifest.entries.push(entry);
    }
    write_atomic(&dir.join(MANIFEST_FILE), &manifest.to_csv())
}

fn parse_num<T: std::str::FromStr>(s: &str, line: usize, what: &str) -> Result<T> {
    s.parse().map_err(|_| CoreError::Csv { line, message: format!("bad {what} `{s}`") })
}

fn expect_arity(f: &[String], table: Table, line: usize) -> Result<()> {
    if f.len() != table.arity() {
        return Err(CoreError::Csv {
            line,
            message: format!("expected {} fields, got {}", table.arity(), f.len()),
        });
    }
    Ok(())
}

/// Parses one `sources` record.
pub fn parse_source_row(f: &[String], line: usize) -> Result<Source> {
    expect_arity(f, Table::Sources, line)?;
    Ok(Source::new(&f[0], kind_from_str(&f[1], line)?))
}

/// Parses one `countries` record (the country name).
pub fn parse_country_row(f: &[String], line: usize) -> Result<String> {
    expect_arity(f, Table::Countries, line)?;
    Ok(f[0].clone())
}

/// Parses one `workers` record.
pub fn parse_worker_row(f: &[String], line: usize) -> Result<Worker> {
    expect_arity(f, Table::Workers, line)?;
    Ok(Worker::new(
        SourceId::new(parse_num(&f[0], line, "source id")?),
        CountryId::new(parse_num(&f[1], line, "country id")?),
    ))
}

/// Parses one `task_types` record.
pub fn parse_task_type_row(f: &[String], line: usize) -> Result<TaskType> {
    expect_arity(f, Table::TaskTypes, line)?;
    let mut tt = TaskType::new(&f[0]);
    tt.goals = LabelSet::from_bits(parse_num(&f[1], line, "goal bits")?)?;
    tt.operators = LabelSet::from_bits(parse_num(&f[2], line, "operator bits")?)?;
    tt.data_types = LabelSet::from_bits(parse_num(&f[3], line, "data-type bits")?)?;
    tt.choice_arity = parse_num(&f[4], line, "choice arity")?;
    Ok(tt)
}

/// Parses one `batches` record. The sampled flag is strict (`0`/`1`): a
/// corrupted flag should be caught, not silently read as "unsampled".
pub fn parse_batch_row(f: &[String], line: usize) -> Result<Batch> {
    expect_arity(f, Table::Batches, line)?;
    let mut batch = Batch::new(
        TaskTypeId::new(parse_num(&f[0], line, "task type id")?),
        Timestamp::from_secs(parse_num(&f[1], line, "created_at")?),
    );
    batch.sampled = match f[2].as_str() {
        "1" => true,
        "0" => false,
        other => {
            return Err(CoreError::Csv { line, message: format!("bad sampled flag `{other}`") })
        }
    };
    if !f[3].is_empty() {
        batch.html = Some(f[3].as_str().into());
    }
    Ok(batch)
}

/// Parses one `instances` record.
pub fn parse_instance_row(f: &[String], line: usize) -> Result<TaskInstance> {
    expect_arity(f, Table::Instances, line)?;
    Ok(TaskInstance {
        batch: BatchId::new(parse_num(&f[0], line, "batch id")?),
        item: ItemId::new(parse_num(&f[1], line, "item id")?),
        worker: WorkerId::new(parse_num(&f[2], line, "worker id")?),
        start: Timestamp::from_secs(parse_num(&f[3], line, "start")?),
        end: Timestamp::from_secs(parse_num(&f[4], line, "end")?),
        trust: parse_num(&f[5], line, "trust")?,
        answer: answer_from_field(&f[6], line)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::DatasetBuilder;
    use crate::labels::{DataType, Goal, Operator};
    use crate::time::Duration;

    fn sample() -> Dataset {
        let mut b = DatasetBuilder::new();
        let s = b.add_source(Source::new("clix,sense \"quoted\"", SourceKind::Dedicated));
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

    #[test]
    fn escape_roundtrip_simple() {
        let mut out = String::new();
        escape_field("plain", &mut out);
        assert_eq!(out, "plain");
    }

    #[test]
    fn escape_roundtrip_tricky() {
        let mut out = String::new();
        escape_field("a,\"b\"\nc", &mut out);
        assert_eq!(out, "\"a,\"\"b\"\"\nc\"");
        let parsed: Vec<_> = parse_records(&out).map(|r| r.unwrap().1).collect();
        assert_eq!(parsed, vec![vec!["a,\"b\"\nc".to_string()]]);
    }

    #[test]
    fn parse_multiline_record_counts_lines() {
        let doc = "a,\"x\ny\"\nb,c\n";
        let recs: Vec<_> = parse_records(doc).map(|r| r.unwrap()).collect();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].1, vec!["a", "x\ny"]);
        assert_eq!(recs[1].1, vec!["b", "c"]);
    }

    #[test]
    fn parse_rejects_unterminated_quote() {
        let doc = "a,\"open\n";
        let err = parse_records(doc).next().unwrap().unwrap_err();
        assert!(matches!(err, CoreError::Csv { .. }));
    }

    #[test]
    fn parse_rejects_stray_quote() {
        let doc = "ab\"c,d\n";
        assert!(parse_records(doc).next().unwrap().is_err());
    }

    #[test]
    fn answer_field_roundtrip() {
        for a in [Answer::Choice(7), Answer::Text("x,y".into()), Answer::Skipped] {
            let f = answer_to_field(&a);
            assert_eq!(answer_from_field(&f, 1).unwrap(), a);
        }
        assert!(answer_from_field("Q:9", 1).is_err());
        assert!(answer_from_field("C:notanum", 1).is_err());
    }

    #[test]
    fn export_writes_a_matching_manifest() {
        let ds = sample();
        let dir = std::env::temp_dir().join(format!("crowd_csv_manifest_{}", std::process::id()));
        export_dir(&ds, &dir).unwrap();
        let text = std::fs::read_to_string(dir.join(MANIFEST_FILE)).unwrap();
        let m = Manifest::parse(&text).unwrap();
        assert_eq!(m.entries.len(), Table::ALL.len());
        assert_eq!(m.entry(Table::Instances).unwrap().rows, ds.instances.len() as u64);
        // Recompute each table's digest from the rendered CSV: must agree.
        for table in Table::ALL {
            let (_, entry) = render_table(&ds, table);
            assert_eq!(m.entry(table), Some(&entry), "{}", table.name());
        }
        // No temp siblings left behind.
        for f in std::fs::read_dir(&dir).unwrap() {
            let name = f.unwrap().file_name();
            assert!(!name.to_string_lossy().ends_with(".tmp"), "stale {name:?}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn positional_digest_is_order_sensitive_orderless_is_not() {
        let mut a = TableDigest::new(Table::Workers);
        let mut b = TableDigest::new(Table::Workers);
        a.update("1,2\n");
        a.update("3,4\n");
        b.update("3,4\n");
        b.update("1,2\n");
        assert_ne!(a.finish(), b.finish(), "entity digests are positional");

        let mut a = TableDigest::new(Table::Instances);
        let mut b = TableDigest::new(Table::Instances);
        a.update("1,2\n");
        a.update("3,4\n");
        b.update("3,4\n");
        b.update("1,2\n");
        assert_eq!(a.finish(), b.finish(), "instance digest is order-invariant");

        // … but still duplicate-sensitive.
        b.update("1,2\n");
        assert_ne!(a.finish(), b.finish(), "duplicates change the digest");
    }

    #[test]
    fn lossy_parse_recovers_after_malformed_records() {
        let doc = "a,b\nbad\"quote,x\nc,d\n";
        let items: Vec<_> = parse_records_lossy(doc).collect();
        assert_eq!(items.len(), 3);
        assert_eq!(items[0].as_ref().unwrap().1, vec!["a", "b"]);
        assert!(items[1].is_err());
        assert_eq!(items[2].as_ref().unwrap().1, vec!["c", "d"]);
    }

    #[test]
    fn lossy_parse_terminates_on_unterminated_quote() {
        let doc = "a,b\n\"open never closes\nc,d\n";
        let items: Vec<_> = parse_records_lossy(doc).collect();
        assert!(items.iter().any(|r| r.is_err()));
        assert!(items.len() <= 4, "bounded output, no hang");
    }

    #[test]
    fn row_parsers_reject_wrong_arity_with_line() {
        let f = vec!["1".to_string()];
        for (name, err) in [
            ("workers", parse_worker_row(&f, 7).unwrap_err()),
            ("instances", parse_instance_row(&f, 7).unwrap_err()),
            ("batches", parse_batch_row(&f, 7).unwrap_err()),
        ] {
            match err {
                CoreError::Csv { line, message } => {
                    assert_eq!(line, 7, "{name}");
                    assert!(message.contains("fields"), "{name}: {message}");
                }
                other => panic!("{name}: unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn batch_row_sampled_flag_is_strict() {
        let f: Vec<String> = ["0", "100", "2", "<p>x</p>"].iter().map(|s| s.to_string()).collect();
        assert!(parse_batch_row(&f, 3).is_err());
    }

    #[test]
    fn table_enum_is_consistent() {
        for t in Table::ALL {
            assert_eq!(t.arity(), t.header().split(',').count());
            assert!(t.file_name().starts_with(t.name()));
            assert_eq!(Table::from_name(t.name()), Some(t));
        }
        assert_eq!(Table::from_name("nope"), None);
        assert!(!Table::Instances.positional());
        assert!(Table::Workers.positional());
    }

    #[test]
    fn manifest_roundtrips_through_csv() {
        let m = Manifest {
            entries: vec![
                ManifestEntry { table: Table::Sources, rows: 3, digest: 0xdead_beef },
                ManifestEntry { table: Table::Instances, rows: 9, digest: u64::MAX },
            ],
        };
        assert_eq!(Manifest::parse(&m.to_csv()).unwrap(), m);
        assert!(Manifest::parse("table,rows,digest\nnope,1,00\n").is_err());
        assert!(Manifest::parse("table,rows,digest\nsources,1,zz\n").is_err());
        assert!(matches!(Manifest::parse("table,rows\n"), Err(CoreError::Csv { line: 1, .. })));
        assert!(matches!(
            Manifest::parse("table,rows,digest\nsources,1\n"),
            Err(CoreError::Csv { line: 2, .. })
        ));
    }
}
