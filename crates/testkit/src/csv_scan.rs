//! Frozen reference copy of the CSV record scanner.
//!
//! This is `crowd_core::csv`'s original char-at-a-time scanner, copied
//! here verbatim before that scanner was rewritten to walk bytes and
//! append whole unquoted runs as slices. It pushes every field char by
//! char and peeks for doubled quotes through a `char_indices` walk. The
//! rewritten scanner must yield the same records, with the same line
//! numbers, and fail with the same `CoreError::Csv` line and message on
//! every input, strict and lossy; `tests/csv_scan_differential.rs` holds
//! it to this copy.
//!
//! The copy keeps the original's quirks on purpose: outside quotes a CR
//! is dropped wherever it occurs, and a failed record's line count
//! includes the newlines its quoted fields consumed before the error, so
//! the record after a lossy recovery is numbered from there.

use crowd_core::error::{CoreError, Result};

/// [`crowd_core::csv::parse_records`], as first written.
pub fn naive_records(text: &str) -> NaiveRecords<'_> {
    NaiveRecords { rest: text, line: 0 }
}

/// [`crowd_core::csv::parse_records_lossy`], as first written: a
/// malformed record is reported once, then skipped to the next physical
/// line.
pub fn naive_records_lossy(text: &str) -> NaiveLossyRecords<'_> {
    NaiveLossyRecords { inner: naive_records(text) }
}

/// Iterator over CSV records; yields `(line_number, fields)`.
pub struct NaiveRecords<'a> {
    rest: &'a str,
    line: usize,
}

impl Iterator for NaiveRecords<'_> {
    type Item = Result<(usize, Vec<String>)>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.rest.is_empty() {
            return None;
        }
        self.line += 1;
        let start_line = self.line;
        let mut fields = Vec::new();
        let mut cur = String::new();
        let mut chars = self.rest.char_indices();
        let mut in_quotes = false;
        let mut after_quote = false; // just closed a quote; expect , or EOL
        loop {
            match chars.next() {
                None => {
                    if in_quotes {
                        return Some(Err(CoreError::Csv {
                            line: start_line,
                            message: "unterminated quoted field".into(),
                        }));
                    }
                    self.rest = "";
                    fields.push(std::mem::take(&mut cur));
                    return Some(Ok((start_line, fields)));
                }
                Some((pos, ch)) => {
                    if in_quotes {
                        if ch == '"' {
                            // Peek: doubled quote = literal quote.
                            if self.rest[pos + 1..].starts_with('"') {
                                cur.push('"');
                                chars.next();
                            } else {
                                in_quotes = false;
                                after_quote = true;
                            }
                        } else {
                            if ch == '\n' {
                                self.line += 1;
                            }
                            cur.push(ch);
                        }
                        continue;
                    }
                    match ch {
                        '"' if cur.is_empty() && !after_quote => in_quotes = true,
                        '"' => {
                            return Some(Err(CoreError::Csv {
                                line: start_line,
                                message: "stray quote inside unquoted field".into(),
                            }))
                        }
                        ',' => {
                            fields.push(std::mem::take(&mut cur));
                            after_quote = false;
                        }
                        '\r' => {} // tolerate CRLF
                        '\n' => {
                            self.rest = &self.rest[pos + 1..];
                            fields.push(std::mem::take(&mut cur));
                            return Some(Ok((start_line, fields)));
                        }
                        _ if after_quote => {
                            return Some(Err(CoreError::Csv {
                                line: start_line,
                                message: "data after closing quote".into(),
                            }))
                        }
                        _ => cur.push(ch),
                    }
                }
            }
        }
    }
}

impl NaiveRecords<'_> {
    /// Skips past the next physical line boundary so iteration can continue
    /// after a malformed record. Always makes progress.
    fn recover(&mut self) {
        match self.rest.find('\n') {
            Some(pos) => self.rest = &self.rest[pos + 1..],
            None => self.rest = "",
        }
    }
}

/// Iterator over CSV records with per-record error recovery.
pub struct NaiveLossyRecords<'a> {
    inner: NaiveRecords<'a>,
}

impl Iterator for NaiveLossyRecords<'_> {
    type Item = Result<(usize, Vec<String>)>;

    fn next(&mut self) -> Option<Self::Item> {
        let item = self.inner.next()?;
        if item.is_err() {
            self.inner.recover();
        }
        Some(item)
    }
}
