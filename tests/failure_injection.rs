//! Failure-injection tests: malformed inputs, degenerate datasets, and
//! boundary conditions across the pipeline.

use crowd_marketplace::analytics::design::{methodology, prediction, summary};
use crowd_marketplace::analytics::marketplace::{arrivals, labels, load, trends};
use crowd_marketplace::analytics::workers::{geography, lifetimes, sources, workload};
use crowd_marketplace::analytics::Study;
use crowd_marketplace::prelude::*;

/// A dataset with a single batch, single worker, single instance.
fn minimal_dataset() -> Dataset {
    let mut b = DatasetBuilder::new();
    let s = b.add_source(Source::new("solo", SourceKind::OnDemand));
    let c = b.add_country("Nowhere");
    let w = b.add_worker(Worker::new(s, c));
    let tt = b.add_task_type(TaskType::new("only task").with_goal(Goal::QualityAssurance));
    let t0 = Timestamp::from_ymd(2015, 6, 1);
    let batch = b.add_batch(Batch::new(tt, t0).with_html("<p>judge this</p>"));
    b.add_instance(TaskInstance {
        batch,
        item: ItemId::new(0),
        worker: w,
        start: t0 + Duration::from_secs(60),
        end: t0 + Duration::from_secs(90),
        trust: 0.8,
        answer: Answer::Choice(0),
    });
    b.finish().unwrap()
}

#[test]
fn every_analysis_survives_an_empty_dataset() {
    let s = Study::new(DatasetBuilder::new().finish().unwrap());
    assert!(arrivals::weekly(&s).weeks.is_empty());
    assert_eq!(arrivals::by_weekday(&s), [0; 7]);
    assert!(arrivals::daily_load(&s, Timestamp::from_ymd(2015, 1, 1)).is_none());
    assert!(load::cluster_load(&s).batches_per_cluster.is_empty());
    assert!(load::heavy_hitters(&s, 10).is_empty());
    assert_eq!(labels::goal_distribution(&s).total(), 0);
    assert!(trends::goal_trend(&s).weeks.is_empty());
    assert!(methodology::full_grid(&s).is_empty());
    assert!(summary::disagreement_table(&s).rows.is_empty());
    assert!(prediction::predict_all(&s, 1).is_empty());
    assert!(sources::per_source(&s).is_empty());
    assert_eq!(geography::distribution(&s).total_workers, 0);
    assert!(workload::distribution(&s).tasks_by_rank.is_empty());
    assert!(lifetimes::lifetime_stats(&s).lifetimes_days.is_empty());
    assert!(lifetimes::active_trust(&s).is_none());
}

#[test]
fn every_analysis_survives_a_single_instance() {
    let s = Study::new(minimal_dataset());
    // One instance: disagreement undefined (no pair), but nothing panics.
    let m = s.enriched_batches().next().unwrap();
    assert_eq!(m.disagreement, None, "one answer has no pairs");
    assert_eq!(m.n_items, 1);
    let w = arrivals::weekly(&s);
    assert_eq!(w.instances.iter().sum::<u64>(), 1);
    assert_eq!(geography::distribution(&s).total_workers, 1);
    let l = lifetimes::lifetime_stats(&s);
    assert_eq!(l.one_day_fraction, 1.0);
    // Experiments need ≥8 clusters: they decline gracefully.
    assert!(methodology::full_grid(&s).is_empty());
}

#[test]
fn malformed_batch_html_degrades_to_default_features() {
    let mut ds = minimal_dataset();
    ds.batches[0].html = Some("<div <<< not html".into());
    let s = Study::new(ds);
    let m = s.enriched_batches().next().unwrap();
    assert_eq!(m.features, crowd_html::ExtractedFeatures::default());
}

#[test]
fn clock_skewed_instances_are_rejected_at_build() {
    let mut ds = minimal_dataset();
    let skewed_end = ds.instances.row(0).start - Duration::from_secs(10);
    ds.instances.set_end(0, skewed_end);
    assert!(ds.validate().is_err());
}

#[test]
fn instance_predating_its_batch_is_tolerated_by_analytics() {
    // Real-world logs contain clock skew; pickup time goes negative but
    // the analyses must not panic.
    let mut ds = minimal_dataset();
    let skewed_start = ds.batches[0].created_at - Duration::from_secs(30);
    ds.instances.set_start(0, skewed_start);
    ds.instances.set_end(0, skewed_start + Duration::from_secs(10));
    let s = Study::new(ds);
    let m = s.enriched_batches().next().unwrap();
    assert!(m.pickup_time.unwrap() < 0.0);
    let _ = arrivals::weekly(&s);
    let _ = crowd_marketplace::analytics::design::metrics::latency_decomposition(&s);
}

#[test]
fn unlabeled_world_yields_no_design_experiments() {
    let mut ds = simulate(&SimConfig::new(3, 0.0005));
    for t in &mut ds.task_types {
        t.goals = LabelSet::empty();
        t.operators = LabelSet::empty();
        t.data_types = LabelSet::empty();
    }
    let s = Study::new(ds);
    assert_eq!(s.labeled_clusters().count(), 0);
    assert!(methodology::full_grid(&s).is_empty());
    assert_eq!(labels::goal_distribution(&s).total(), 0);
}

#[test]
fn single_worker_marketplace() {
    // All instances by one worker: engagement split and workload must not
    // divide by zero.
    let mut b = DatasetBuilder::new();
    let src = b.add_source(Source::new("one", SourceKind::Dedicated));
    let c = b.add_country("X");
    let w = b.add_worker(Worker::new(src, c));
    let tt = b.add_task_type(TaskType::new("t"));
    let t0 = Timestamp::from_ymd(2015, 3, 2);
    let batch = b.add_batch(Batch::new(tt, t0).with_html("<p>q</p>"));
    for i in 0..10 {
        b.add_instance(TaskInstance {
            batch,
            item: ItemId::new(i / 2),
            worker: w,
            start: t0 + Duration::from_secs(100 + i64::from(i) * 50),
            end: t0 + Duration::from_secs(130 + i64::from(i) * 50),
            trust: 0.9,
            answer: Answer::Choice(0),
        });
    }
    let s = Study::new(b.finish().unwrap());
    let e = crowd_marketplace::analytics::marketplace::availability::engagement_split(&s);
    assert_eq!(e.top10_task_share, 1.0, "the single worker is the top decile");
    let wl = workload::distribution(&s);
    assert_eq!(wl.tasks_by_rank, vec![10]);
    assert_eq!(wl.top10_share, 1.0);
}

#[test]
fn all_skipped_answers_give_full_disagreement() {
    let mut ds = minimal_dataset();
    // Add a second judgment on the same item, both skipped.
    ds.instances.set_answer(0, Answer::Skipped);
    let mut extra = ds.instances.row(0).to_owned();
    extra.answer = Answer::Skipped;
    ds.instances.push(extra);
    let s = Study::new(ds);
    let m = s.enriched_batches().next().unwrap();
    assert_eq!(m.disagreement, Some(1.0), "skips never agree (§4.1)");
}

// Strict ingest failure paths: every table × {truncated header, wrong field
// count, unparsable value, dangling id}, loaded through `ingest_dir` under
// `ErrorBudget::strict()`, must come back as a typed `CoreError` naming the
// right line — never a panic, never a partial load.
// ---------------------------------------------------------------------------

mod import_faults {
    use super::minimal_dataset;
    use crowd_marketplace::core::csv::{export_dir, Table};
    use crowd_marketplace::core::error::{CoreError, FaultClass};
    use crowd_marketplace::core::provenance::{ErrorBudget, QuarantinedRow};
    use crowd_marketplace::ingest::{ingest_dir, IngestFailure, IngestOptions};
    use std::path::{Path, PathBuf};

    fn exported(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("crowd_failinj_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        export_dir(&minimal_dataset(), &dir).unwrap();
        dir
    }

    fn corrupt(dir: &Path, table: Table, f: impl FnOnce(String) -> String) {
        let path = dir.join(table.file_name());
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, f(text)).unwrap();
    }

    /// 1-based line number the next appended record will start on.
    fn next_line(dir: &Path, table: Table) -> usize {
        let text = std::fs::read_to_string(dir.join(table.file_name())).unwrap();
        text.matches('\n').count() + 1
    }

    /// Loads `dir` under the strict budget, which must fail.
    fn strict_failure(dir: &Path, context: &str) -> IngestFailure {
        let opts = IngestOptions { budget: ErrorBudget::strict(), ..IngestOptions::default() };
        match ingest_dir(dir, &opts) {
            Err(failure) => failure,
            Ok(_) => panic!("{context}: a strict load of damaged input must fail"),
        }
    }

    fn expect_csv_error(dir: &Path, want_line: usize, want_msg: &str, context: &str) {
        match strict_failure(dir, context).error {
            CoreError::Csv { line, message } => {
                assert_eq!(line, want_line, "{context}: wrong line in `{message}`");
                assert!(
                    message.contains(want_msg),
                    "{context}: `{message}` does not mention `{want_msg}`"
                );
            }
            other => panic!("{context}: expected a CSV error, got {other:?}"),
        }
    }

    /// The one record a strict load quarantined before giving up.
    fn expect_quarantined(dir: &Path, table: Table, context: &str) -> QuarantinedRow {
        let failure = strict_failure(dir, context);
        match failure.error {
            CoreError::BudgetExceeded { table: t, quarantined: 1, budget: 0 } => {
                assert_eq!(t, table.name(), "{context}: wrong table over budget");
            }
            other => panic!("{context}: expected BudgetExceeded, got {other:?}"),
        }
        assert_eq!(failure.report.quarantine.len(), 1, "{context}");
        failure.report.quarantine[0].clone()
    }

    fn expect_rejected(dir: &Path, table: Table, want: (usize, FaultClass, &str), context: &str) {
        let (want_line, want_fault, want_msg) = want;
        let q = expect_quarantined(dir, table, context);
        assert_eq!(q.line, want_line, "{context}: wrong line in `{}`", q.message);
        assert_eq!(q.fault, want_fault, "{context}: `{}`", q.message);
        assert!(
            q.message.contains(want_msg),
            "{context}: `{}` does not mention `{want_msg}`",
            q.message
        );
    }

    #[test]
    fn truncated_headers_are_typed_errors_on_line_one() {
        for table in Table::ALL {
            let dir = exported("hdr");
            corrupt(&dir, table, |text| {
                let header = text.lines().next().unwrap();
                let keep = header.len() / 2;
                format!("{}\n{}", &header[..keep], text.split_once('\n').unwrap().1)
            });
            expect_csv_error(&dir, 1, "expected header", table.name());
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn wrong_field_counts_are_typed_errors_with_the_right_line() {
        for table in Table::ALL {
            let dir = exported("arity");
            let line = next_line(&dir, table);
            corrupt(&dir, table, |mut text| {
                // One more field than any table has.
                text.push_str(&"x,".repeat(Table::Instances.arity() + 1));
                text.push_str("x\n");
                text
            });
            expect_rejected(&dir, table, (line, FaultClass::Arity, "fields"), table.name());
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn unparsable_values_are_typed_errors_with_the_right_line() {
        // A right-arity record whose typed field cannot parse. `countries`
        // has no typed field, so its slot is an unterminated quote — the
        // lexer-level equivalent.
        let bad: [(Table, &str, FaultClass, &str); 6] = [
            (Table::Sources, "nm,badkind", FaultClass::Numeric, "bad source kind"),
            (
                Table::Countries,
                "\"unterminated",
                FaultClass::Malformed,
                "unterminated quoted field",
            ),
            (Table::Workers, "x,y", FaultClass::Numeric, "bad source id"),
            (Table::TaskTypes, "t,x,0,0,2", FaultClass::Numeric, "bad goal bits"),
            (Table::Batches, "0,notatime,1,<p>x</p>", FaultClass::Numeric, "bad created_at"),
            (Table::Instances, "0,0,0,100,200,zz,S", FaultClass::Numeric, "bad trust"),
        ];
        for (table, row, fault, msg) in bad {
            let dir = exported("value");
            let line = next_line(&dir, table);
            corrupt(&dir, table, |mut text| {
                text.push_str(row);
                text.push('\n');
                text
            });
            expect_rejected(&dir, table, (line, fault, msg), table.name());
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn dangling_ids_are_typed_errors_naming_the_referenced_table() {
        // Rows that parse but point at entities that do not exist: the row
        // rule rejects them against the tables loaded before them.
        let bad: [(Table, &str, &str); 3] = [
            (Table::Workers, "9,0", "source 9"),
            (Table::Batches, "9,1000,0,", "task type 9"),
            (Table::Instances, "9,0,0,100,200,0.5,S", "batch 9"),
        ];
        for (table, row, referenced) in bad {
            let dir = exported("dangling");
            let line = next_line(&dir, table);
            corrupt(&dir, table, |mut text| {
                text.push_str(row);
                text.push('\n');
                text
            });
            expect_rejected(&dir, table, (line, FaultClass::Dangling, referenced), table.name());
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn sampled_flag_corruption_is_a_typed_error() {
        let dir = exported("flag");
        let line = next_line(&dir, Table::Batches);
        corrupt(&dir, Table::Batches, |mut text| {
            text.push_str("0,1000,yes,<p>x</p>\n");
            text
        });
        expect_rejected(
            &dir,
            Table::Batches,
            (line, FaultClass::Numeric, "bad sampled flag"),
            "batches",
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
