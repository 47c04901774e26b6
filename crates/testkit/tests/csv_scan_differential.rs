//! Differential tests pinning `crowd_core::csv`'s byte scanner to the
//! frozen char-at-a-time scanner in [`crowd_testkit::csv_scan`]: the
//! same records with the same line numbers, and the same
//! `CoreError::Csv` line and message, strict and lossy, on every input.

use crowd_core::csv::{parse_records, parse_records_lossy};
use crowd_core::error::Result;
use crowd_testkit::csv_scan::{naive_records, naive_records_lossy};
use proptest::prelude::*;

type Record = Result<(usize, Vec<String>)>;

/// Strict iteration up to and including the first error: a strict
/// scanner does not advance past a malformed record.
fn strict(records: impl Iterator<Item = Record>) -> Vec<Record> {
    let mut out = Vec::new();
    for rec in records {
        let failed = rec.is_err();
        out.push(rec);
        if failed {
            break;
        }
    }
    out
}

fn assert_same(doc: &str) {
    assert_eq!(strict(parse_records(doc)), strict(naive_records(doc)), "strict: {doc:?}");
    assert_eq!(
        parse_records_lossy(doc).collect::<Vec<_>>(),
        naive_records_lossy(doc).collect::<Vec<_>>(),
        "lossy: {doc:?}"
    );
}

/// Quotes, doubled quotes, CR/LF/CRLF, stray quotes, multi-byte UTF-8 and
/// unterminated fields, alone and at record edges.
const EDGE_DOCS: &[&str] = &[
    "",
    "\n",
    "\n\n",
    "a",
    "a\n",
    "a,b,c\nd,e,f\n",
    "a\r\nb\r\n",
    "a\rb,c\r\r\n",
    "\r",
    ",",
    ",,\n,",
    "\"\"",
    "\"\",\"\"\n",
    "\"a\"\"b\"\n",
    "\"\"\"\"\n",
    "\"a,b\",c\n",
    "\"multi\nline\",x\ny\n",
    "\"multi\r\nline\"\r\n",
    "\"a\"b\nc\n",
    "\"a\"\"\nb\n",
    "\"a\"\r,b\n",
    "\"a\" ,b\n",
    "a\"b,c\nd\n",
    "\r\"a\",b\n",
    "\"a\"\"",
    "\"open",
    "\"open\nstill\nopen",
    "ok\n\"open\nnext\n",
    "\"x\ny\"z\nw,v\n",
    "\"x\ny\"\"\nz\"q\nw\n",
    "é,中,🦀\n\"é\"\"中\",\"🦀\n🦀\"\n",
    "x,\"é\"ß\n",
    "中\"文\n",
];

#[test]
fn edge_documents_scan_alike() {
    for doc in EDGE_DOCS {
        assert_same(doc);
    }
}

/// Record pieces the generated documents are built from.
const TOKENS: &[&str] = &[
    "a",
    "bc",
    "17",
    "0.5",
    " ",
    "é",
    "ß",
    "中",
    "🦀",
    ",",
    "\"",
    "\"\"",
    "\r",
    "\n",
    "\r\n",
    "\"q\"",
    "\"a,b\"",
    "\"l1\nl2\"",
    "x\"y",
    "T:",
];

proptest! {
    #[test]
    fn generated_documents_scan_alike(picks in prop::collection::vec(0usize..TOKENS.len(), 0..48)) {
        let doc: String = picks.iter().map(|&i| TOKENS[i]).collect();
        assert_same(&doc);
    }

    #[test]
    fn generated_lines_scan_alike(
        lines in prop::collection::vec("\\PC{0,24}", 0..6),
        ends in prop::collection::vec(0usize..3, 6..7),
    ) {
        let doc: String = lines
            .iter()
            .zip(&ends)
            .map(|(line, &end)| format!("{line}{}", ["\n", "\r\n", ""][end]))
            .collect();
        assert_same(&doc);
    }
}
