//! Ingest provenance: the coverage metadata a resilient load attaches to
//! the data it produced.
//!
//! The paper's raw logs (27M instances over 2012–2016) needed cleaning
//! before analysis; a loader that silently drops bad rows would let every
//! downstream figure compute over partial data without anyone knowing.
//! [`IngestReport`] is the antidote: per-table counts of what was
//! accepted, repaired, deduplicated, and quarantined, plus retry and
//! budget state, threaded through to the `Study` so analytics carry their
//! own coverage statement.
//!
//! The types live in `crowd-core` (not in the `crowd-ingest` loader crate)
//! so `crowd-analytics` can hold a report without depending on the loader.

use std::fmt;

use crate::error::FaultClass;

/// Per-table cap on quarantined rows before ingest aborts with
/// [`crate::error::CoreError::BudgetExceeded`].
///
/// A budget of zero means strict mode: the first quarantined record fails
/// the load. The default (100) tolerates scattered damage while refusing
/// to synthesize a study out of a mostly-destroyed table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ErrorBudget {
    /// Maximum quarantined rows per table.
    pub max_quarantined_per_table: u64,
}

impl Default for ErrorBudget {
    fn default() -> ErrorBudget {
        ErrorBudget { max_quarantined_per_table: 100 }
    }
}

impl ErrorBudget {
    /// Strict mode: any quarantined record fails the load.
    pub const fn strict() -> ErrorBudget {
        ErrorBudget { max_quarantined_per_table: 0 }
    }
}

/// One quarantined record: where it came from and why it was rejected.
#[derive(Debug, Clone, PartialEq)]
pub struct QuarantinedRow {
    /// Table name (`"sources"`, …, `"instances"`).
    pub table: &'static str,
    /// 1-based line number of the record in its file.
    pub line: usize,
    /// Fault classification.
    pub fault: FaultClass,
    /// Human-readable detail (parse message, offending value).
    pub message: String,
}

impl fmt::Display for QuarantinedRow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{} [{}] {}", self.table, self.line, self.fault, self.message)
    }
}

/// Ingest outcome for one table.
#[derive(Debug, Clone, PartialEq)]
pub struct TableReport {
    /// Table name.
    pub table: &'static str,
    /// Rows accepted into the dataset.
    pub accepted: u64,
    /// Out-of-order arrivals restored to canonical order (instances only;
    /// counted as arrival-order inversions the canonical sort repaired).
    pub repaired: u64,
    /// Byte-identical replayed rows dropped by deduplication.
    pub deduped: u64,
    /// Rows rejected and quarantined.
    pub quarantined: u64,
    /// Transient-IO retries spent reading the table's stream.
    pub retries: u32,
    /// Manifest verification: `None` when no manifest covered the table,
    /// otherwise whether row count and content digest both matched.
    pub verified: Option<bool>,
}

impl TableReport {
    /// An empty report for `table`.
    pub fn new(table: &'static str) -> TableReport {
        TableReport {
            table,
            accepted: 0,
            repaired: 0,
            deduped: 0,
            quarantined: 0,
            retries: 0,
            verified: None,
        }
    }

    /// Rows observed in the stream (accepted + deduped + quarantined).
    pub fn observed(&self) -> u64 {
        self.accepted + self.deduped + self.quarantined
    }
}

/// Cap on stored [`QuarantinedRow`] detail entries per table; counts in
/// [`TableReport`] stay exact past the cap.
pub const QUARANTINE_DETAIL_CAP: usize = 32;

/// The full coverage statement of one resilient load.
#[derive(Debug, Clone, PartialEq)]
pub struct IngestReport {
    /// Per-table outcomes, in load order (sources → … → instances).
    pub tables: Vec<TableReport>,
    /// Detail for quarantined rows, capped at [`QUARANTINE_DETAIL_CAP`]
    /// per table (the per-table counts remain exact).
    pub quarantine: Vec<QuarantinedRow>,
    /// The budget the load ran under.
    pub budget: ErrorBudget,
    /// Whether an export manifest was found and used for verification.
    pub manifest_present: bool,
}

impl IngestReport {
    /// An empty report under `budget`.
    pub fn new(budget: ErrorBudget) -> IngestReport {
        IngestReport { tables: Vec::new(), quarantine: Vec::new(), budget, manifest_present: false }
    }

    /// The report for `table`, if that table was processed.
    pub fn table(&self, table: &str) -> Option<&TableReport> {
        self.tables.iter().find(|t| t.table == table)
    }

    /// Total rows accepted across tables.
    pub fn total_accepted(&self) -> u64 {
        self.tables.iter().map(|t| t.accepted).sum()
    }

    /// Total rows quarantined across tables.
    pub fn total_quarantined(&self) -> u64 {
        self.tables.iter().map(|t| t.quarantined).sum()
    }

    /// Total replayed rows dropped across tables.
    pub fn total_deduped(&self) -> u64 {
        self.tables.iter().map(|t| t.deduped).sum()
    }

    /// Total transient-IO retries across tables.
    pub fn total_retries(&self) -> u32 {
        self.tables.iter().map(|t| t.retries).sum()
    }

    /// True when nothing was deduplicated, quarantined, or retried: every
    /// observed row was kept and the stream never faulted. (`repaired` is
    /// excluded: restoring canonical instance order is a normalization
    /// that also fires on legitimate unsorted input, not damage.)
    pub fn is_clean(&self) -> bool {
        self.tables.iter().all(|t| t.deduped == 0 && t.quarantined == 0 && t.retries == 0)
    }

    /// Fraction of observed rows that were accepted, in `[0, 1]`; `1.0`
    /// for an empty load. Deduplicated replays count as covered (the
    /// canonical row was kept).
    pub fn coverage(&self) -> f64 {
        let observed: u64 = self.tables.iter().map(|t| t.observed()).sum();
        if observed == 0 {
            return 1.0;
        }
        let kept: u64 = self.tables.iter().map(|t| t.accepted + t.deduped).sum();
        kept as f64 / observed as f64
    }

    /// One-line human summary (CLI banners).
    pub fn summary(&self) -> String {
        format!(
            "accepted {} rows ({} repaired, {} deduped, {} quarantined, {} retries, coverage {:.4})",
            self.total_accepted(),
            self.tables.iter().map(|t| t.repaired).sum::<u64>(),
            self.total_deduped(),
            self.total_quarantined(),
            self.total_retries(),
            self.coverage(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coverage_counts_dedup_as_covered() {
        let mut r = IngestReport::new(ErrorBudget::default());
        let mut t = TableReport::new("instances");
        t.accepted = 90;
        t.deduped = 5;
        t.quarantined = 5;
        r.tables.push(t);
        assert!((r.coverage() - 0.95).abs() < 1e-12);
        assert_eq!(r.total_accepted(), 90);
        assert!(!r.is_clean());
    }

    #[test]
    fn empty_report_is_clean_with_full_coverage() {
        let r = IngestReport::new(ErrorBudget::strict());
        assert!(r.is_clean());
        assert_eq!(r.coverage(), 1.0);
        assert!(r.table("instances").is_none());
    }

    #[test]
    fn summary_mentions_the_counts() {
        let mut r = IngestReport::new(ErrorBudget::default());
        let mut t = TableReport::new("workers");
        t.accepted = 7;
        t.quarantined = 2;
        t.retries = 3;
        r.tables.push(t);
        let s = r.summary();
        assert!(s.contains("7 rows"), "{s}");
        assert!(s.contains("2 quarantined"), "{s}");
        assert!(s.contains("3 retries"), "{s}");
    }

    #[test]
    fn quarantined_row_renders_location_and_class() {
        let q = QuarantinedRow {
            table: "instances",
            line: 42,
            fault: FaultClass::Numeric,
            message: "bad trust `x`".into(),
        };
        let s = q.to_string();
        assert!(s.contains("instances:42"));
        assert!(s.contains("numeric"));
    }
}
