//! The 30 `repro all` targets, shaped and rendered to text.
//!
//! Each target makes the same analytics calls and builds the same charts
//! and tables as the `repro` binary, but returns its text instead of
//! printing it, so the benchmark can time and digest every target. Calls
//! into the analytics modules run inside `shape` spans (`shape.grid` for
//! the §4 feature × metric grid, `shape.predict` for the §4.9 prediction);
//! building and rendering charts runs inside `report.render` spans.

use std::fmt::Write as _;

use crowd_analytics::design::{drilldown, methodology, metrics, prediction, summary};
use crowd_analytics::marketplace::{arrivals, availability, labels, load, trends};
use crowd_analytics::workers::{cohorts, geography, lifetimes, sessions, sources, workload};
use crowd_analytics::Study;
use crowd_core::time::{Timestamp, WeekIndex, Weekday};
use crowd_report::{BarChart, LinePlot, Series, StackedBars, TextTable};

use crate::trace::span;

/// Target names in `repro all` order.
pub const ALL: [&str; 30] = [
    "summary",
    "fig1",
    "fig2",
    "fig3",
    "load",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "fig14",
    "tables",
    "fig25",
    "predict",
    "table4",
    "fig26",
    "fig27",
    "fig28",
    "fig29",
    "fig30",
    "trust",
    "sessions",
    "cohorts",
    "forecast",
    "redundancy",
];

fn shape<R>(f: impl FnOnce() -> R) -> R {
    span("shape", f)
}

fn render(out: &mut String, f: impl FnOnce() -> String) {
    let text = span("report.render", f);
    out.push_str(&text);
    out.push('\n');
}

/// Renders target `name` of `study`; `scale` is the simulated fraction of
/// the paper's volume (counts extrapolate by its inverse).
pub fn render_target(name: &str, study: &Study, scale: f64) -> String {
    let mut out = String::new();
    let o = &mut out;
    let x = 1.0 / scale;
    match name {
        "summary" => summary_table(o, study, x),
        "fig1" => fig1(o, study),
        "fig2" => fig2(o, study),
        "fig3" => fig3(o, study),
        "load" => daily_load(o, study, x),
        "fig4" => fig4(o, study),
        "fig5" => fig5(o, study),
        "fig6" => fig6(o, study),
        "fig7" => fig7(o, study),
        "fig8" => fig8(o, study),
        "fig9" => fig9(o, study),
        "fig10" => fig10_11(o, study, false),
        "fig11" => fig10_11(o, study, true),
        "fig12" => fig12(o, study),
        "fig13" => fig13(o, study),
        "fig14" => fig14(o, study),
        "tables" => tables(o, study),
        "fig25" => fig25(o, study),
        "predict" => predict(o, study),
        "table4" => table4(o, study),
        "fig26" => fig26(o, study),
        "fig27" => fig27(o, study),
        "fig28" => fig28(o, study),
        "fig29" => fig29(o, study),
        "fig30" => fig30(o, study),
        "trust" => trust(o, study),
        "sessions" => work_sessions(o, study),
        "cohorts" => monthly_cohorts(o, study),
        "forecast" => forecast(o, study),
        "redundancy" => redundancy(o, study),
        other => panic!("unknown target `{other}`"),
    }
    out
}

fn week_series(weeks: &[WeekIndex], ys: impl Iterator<Item = f64>) -> Vec<(f64, f64)> {
    weeks.iter().zip(ys).map(|(w, y)| (f64::from(w.0), y)).collect()
}

fn counts(v: &[u64]) -> impl Iterator<Item = f64> + '_ {
    v.iter().map(|&c| c as f64)
}

fn summary_table(o: &mut String, study: &Study, x: f64) {
    let s = shape(|| study.dataset().summary());
    render(o, || {
        let mut t = TextTable::new(
            "§2.2 Dataset summary (raw · extrapolated to paper scale · paper)",
            &["quantity", "raw", "extrapolated", "paper"],
        );
        let row = |label: &str, raw: usize, factor: f64, paper: &str| {
            vec![label.into(), raw.to_string(), format!("{:.0}", raw as f64 * factor), paper.into()]
        };
        t.add_row(row("task instances (sampled)", study.n_instances(), x, "27M"));
        t.add_row(row("batches (total)", s.batches, x.sqrt(), "58k"));
        t.add_row(row("batches (sampled)", s.batches_sampled, x.sqrt(), "12k"));
        t.add_row(row("distinct tasks", s.distinct_tasks, x.sqrt(), "6,600"));
        t.add_row(row("distinct tasks in sample", s.distinct_tasks_sampled, x.sqrt(), "~5,000"));
        t.add_row(row("workers", s.workers, x.sqrt(), "~69,000"));
        t.add_row(row("labor sources", s.sources, 1.0, "139"));
        t.add_row(row("countries", s.countries, 1.0, "148"));
        t.render()
    });
}

fn fig1(o: &mut String, study: &Study) {
    let w = shape(|| arrivals::weekly(study));
    render(o, || {
        LinePlot::new("Fig 1: distinct tasks per week — all vs sampled")
            .with_labels("week", "# distinct tasks")
            .add(Series::new("all", week_series(&w.weeks, counts(&w.distinct_tasks_all))))
            .add(Series::new("sampled", week_series(&w.weeks, counts(&w.distinct_tasks_sampled))))
            .render()
    });
}

fn fig2(o: &mut String, study: &Study) {
    let (w, post) = shape(|| {
        let w = arrivals::weekly(study);
        let post = w.since(Timestamp::from_ymd(2015, 1, 1));
        (w, post)
    });
    render(o, || {
        LinePlot::new("Fig 2a: task instances issued per week (log y) + median pickup")
            .log_y()
            .with_labels("week", "# instances / pickup secs")
            .add(Series::new("instances", week_series(&w.weeks, counts(&w.instances))))
            .add(Series::new(
                "median pickup (s)",
                w.weeks
                    .iter()
                    .zip(&w.median_pickup)
                    .filter_map(|(wk, p)| p.map(|p| (f64::from(wk.0), p)))
                    .collect(),
            ))
            .render()
    });
    render(o, || {
        LinePlot::new("Fig 2b: instances vs batches vs distinct tasks (post Jan'15, log y)")
            .log_y()
            .with_labels("week", "count")
            .add(Series::new("instances", week_series(&post.weeks, counts(&post.instances))))
            .add(Series::new("batches", week_series(&post.weeks, counts(&post.batches))))
            .add(Series::new(
                "distinct tasks",
                week_series(&post.weeks, counts(&post.distinct_tasks_all)),
            ))
            .render()
    });
}

fn fig3(o: &mut String, study: &Study) {
    let by = shape(|| arrivals::by_weekday(study));
    render(o, || {
        BarChart::new("Fig 3: task instances by day of week")
            .bars(Weekday::ALL.iter().map(|d| (d.abbrev().to_string(), by[d.index()] as f64)))
            .render()
    });
}

fn daily_load(o: &mut String, study: &Study, x: f64) {
    let Some(d) = shape(|| arrivals::daily_load(study, Timestamp::from_ymd(2015, 1, 1))) else {
        return;
    };
    render(o, || {
        let mut t = TextTable::new(
            "§3.1 Daily load, post Jan'15 (paper: median 30k, max 30×, min 0.0004×)",
            &["statistic", "value", "extrapolated"],
        );
        t.add_row(vec![
            "median instances/day".into(),
            format!("{:.0}", d.median),
            format!("{:.0}", d.median * x),
        ]);
        t.add_row(vec!["peak/median".into(), format!("{:.1}×", d.peak_ratio), "-".into()]);
        t.add_row(vec!["trough/median".into(), format!("{:.4}×", d.trough_ratio), "-".into()]);
        t.add_row(vec!["active days".into(), d.days.to_string(), "-".into()]);
        t.render()
    });
}

fn fig4(o: &mut String, study: &Study) {
    let w = shape(|| availability::weekly_workers(study));
    render(o, || {
        LinePlot::new("Fig 4: workers performing tasks, per week")
            .with_labels("week", "# workers")
            .add(Series::new("active workers", week_series(&w.weeks, counts(&w.active_workers))))
            .render()
    });
}

fn fig5(o: &mut String, study: &Study) {
    let e = shape(|| availability::engagement_split(study));
    render(o, || {
        LinePlot::new("Fig 5b: weekly tasks — top-10% vs bottom-90% of workers (log y)")
            .log_y()
            .with_labels("week", "# tasks")
            .add(Series::new("top-10%", week_series(&e.weeks, counts(&e.tasks_top10))))
            .add(Series::new("bottom-90%", week_series(&e.weeks, counts(&e.tasks_bot90))))
            .render()
    });
    let _ = writeln!(o, "top-10% task share: {:.1}% (paper: >80%)", e.top10_task_share * 100.0);
    render(o, || {
        LinePlot::new("Fig 5b (2): weekly active hours — top-10% vs bottom-90%")
            .with_labels("week", "hours")
            .add(Series::new("top-10%", week_series(&e.weeks, e.hours_top10.iter().copied())))
            .add(Series::new("bottom-90%", week_series(&e.weeks, e.hours_bot90.iter().copied())))
            .render()
    });
}

fn loglog_clusters(title: &str, x_label: &str, hist: &[(u64, u64)]) -> String {
    LinePlot::new(title)
        .log_x()
        .log_y()
        .with_labels(x_label, "# clusters")
        .add(Series::new(
            "clusters",
            hist.iter().map(|&(s, c)| (s.max(1) as f64, c as f64)).collect(),
        ))
        .render()
}

fn fig6(o: &mut String, study: &Study) {
    let (l, hist) = shape(|| {
        let l = load::cluster_load(study);
        let sizes: Vec<u64> = l.batches_per_cluster.iter().map(|&b| u64::from(b)).collect();
        let hist = load::log_histogram(&sizes);
        (l, hist)
    });
    render(o, || {
        loglog_clusters("Fig 6: # batches per cluster (log-log)", "cluster size (batches)", &hist)
    });
    let _ = writeln!(
        o,
        "one-off clusters (<10 batches): {} · clusters >100 batches: {}",
        l.one_off_clusters, l.clusters_over_100_batches
    );
}

fn fig7(o: &mut String, study: &Study) {
    let (l, hist) = shape(|| {
        let l = load::cluster_load(study);
        let hist = load::log_histogram(&l.instances_per_cluster);
        (l, hist)
    });
    render(o, || {
        loglog_clusters("Fig 7: # instances per cluster (log-log)", "instances in cluster", &hist)
    });
    let _ = writeln!(
        o,
        "median instances/cluster: {:.0} (paper: ~400 at full scale)",
        l.median_instances_per_cluster
    );
}

fn fig8(o: &mut String, study: &Study) {
    let hh = shape(|| load::heavy_hitters(study, 10));
    render(o, || {
        let mut plot = LinePlot::new(
            "Fig 8: cumulative instances of the top-10 heavy-hitter clusters (log y)",
        )
        .log_y()
        .with_labels("week", "cumulative instances");
        for h in &hh {
            plot = plot.add(Series::new(
                format!("cluster {} ({} batches)", h.cluster, h.n_batches),
                h.cumulative.iter().map(|&(w, c)| (f64::from(w.0), c as f64)).collect(),
            ));
        }
        plot.render()
    });
}

fn fig9(o: &mut String, study: &Study) {
    let dists = shape(|| {
        [
            labels::goal_distribution(study),
            labels::data_distribution(study),
            labels::operator_distribution(study),
        ]
    });
    for d in dists {
        render(o, || {
            BarChart::new(format!("Fig 9: instances per {} label", d.category))
                .bars(d.counts.iter().map(|&(l, c)| (l.to_string(), c as f64)))
                .render()
        });
    }
}

fn stacked(m: &labels::CrossMatrix, title: &str) -> String {
    let mut chart =
        StackedBars::new(title.to_string(), m.col_labels.iter().map(|s| s.to_string()).collect());
    let pct = m.row_percentages();
    for (r, label) in m.row_labels.iter().enumerate() {
        chart = chart.row(label.to_string(), pct[r].clone());
    }
    chart.render()
}

/// Figs 10 and 11 are the same three cross matrices; Fig 11 transposes
/// them.
fn fig10_11(o: &mut String, study: &Study, transposed: bool) {
    let titles = if transposed {
        [
            "Fig 11a: goals per data type (%)",
            "Fig 11b: goals per operator (%)",
            "Fig 11c: data types per operator (%)",
        ]
    } else {
        [
            "Fig 10a: data types per goal (%)",
            "Fig 10b: operators per goal (%)",
            "Fig 10c: operators per data type (%)",
        ]
    };
    let matrices = shape(|| {
        let m = [
            labels::data_given_goal(study),
            labels::operator_given_goal(study),
            labels::operator_given_data(study),
        ];
        if transposed {
            m.map(|m| m.transposed())
        } else {
            m
        }
    });
    for (m, title) in matrices.iter().zip(titles) {
        render(o, || stacked(m, title));
    }
}

fn fig12(o: &mut String, study: &Study) {
    let ts = shape(|| {
        [trends::goal_trend(study), trends::operator_trend(study), trends::data_trend(study)]
    });
    for t in ts {
        render(o, || {
            LinePlot::new(format!("Fig 12: cumulative clusters, simple vs complex {}", t.category))
                .with_labels("week", "cumulative clusters")
                .add(Series::new("simple", week_series(&t.weeks, counts(&t.simple))))
                .add(Series::new("complex", week_series(&t.weeks, counts(&t.complex))))
                .render()
        });
        let (s, c) = t.totals();
        let _ = writeln!(o, "totals — simple: {s}, complex: {c}");
    }
}

fn fig13(o: &mut String, study: &Study) {
    let d = shape(|| metrics::latency_decomposition(study));
    render(o, || {
        LinePlot::new("Fig 13b: median pickup vs task time by end-to-end splice (log-log)")
            .log_x()
            .log_y()
            .with_labels("end-to-end secs", "secs")
            .add(Series::new(
                "pickup-time",
                d.instance_level.iter().map(|p| (p.end_to_end, p.pickup)).collect(),
            ))
            .add(Series::new(
                "task-time",
                d.instance_level.iter().map(|p| (p.end_to_end, p.task)).collect(),
            ))
            .render()
    });
    let _ = writeln!(
        o,
        "median pickup/task ratio: {:.1}× (paper: orders of magnitude)",
        d.median_pickup_to_task_ratio
    );
}

fn fig14(o: &mut String, study: &Study) {
    let grid = span("shape.grid", || methodology::full_grid(study));
    for e in grid.iter().filter(|e| e.significant) {
        render(o, || {
            LinePlot::new(format!(
                "Fig 14: CDF of {} split by {} at {:.1} (p = {:.1e})",
                e.metric.name(),
                e.feature.name(),
                e.split_value,
                e.p_value
            ))
            .with_labels(e.metric.name(), "P(value ≤ x)")
            .add(Series::new(format!("{} low", e.feature.name()), e.cdf1.clone()))
            .add(Series::new(format!("{} high", e.feature.name()), e.cdf2.clone()))
            .render()
        });
    }
}

fn summary_table_text(t: &summary::SummaryTable, title: &str, unit: &str) -> String {
    let m1 = format!("m1 ({unit})");
    let m2 = format!("m2 ({unit})");
    let mut out = TextTable::new(
        title,
        &["bin-1", "n1", "bin-2", "n2", m1.as_str(), m2.as_str(), "p", "sig"],
    );
    for r in &t.rows {
        out.add_row(vec![
            r.bin1_desc.clone(),
            r.bin1_n.to_string(),
            r.bin2_desc.clone(),
            r.bin2_n.to_string(),
            format!("{:.3}", r.bin1_median),
            format!("{:.3}", r.bin2_median),
            format!("{:.1e}", r.p_value),
            if r.significant { "✔".into() } else { "·".into() },
        ]);
    }
    out.render()
}

fn tables(o: &mut String, study: &Study) {
    let t = shape(|| {
        [
            summary::disagreement_table(study),
            summary::task_time_table(study),
            summary::pickup_time_table(study),
        ]
    });
    let heads = [
        ("Table 1: disagreement score (paper: 0.147/0.108 · 0.169/0.086 · 0.102/0.160 · 0.128/0.101)", "score"),
        ("Table 2: median task time (paper: 230/136 · 119/286 · 184/129 s)", "s"),
        ("Table 3: median pickup time (paper: 4521/8132 · 6303/1353 · 7838/2431 s)", "s"),
    ];
    for (table, (title, unit)) in t.iter().zip(heads) {
        render(o, || summary_table_text(table, title, unit));
    }
}

fn fig25(o: &mut String, study: &Study) {
    let panels = shape(|| drilldown::fig25_panels(study));
    render(o, || {
        let mut text = String::new();
        for p in &panels {
            let letter = (b'a' + p.index as u8) as char;
            let _ = match &p.experiment {
                Some(e) => writeln!(
                    text,
                    "Fig 25({letter}): {:<50} m1 {:>9.3}  m2 {:>9.3}  p {:.1e}{}",
                    p.description,
                    e.bin1.median,
                    e.bin2.median,
                    e.p_value,
                    if e.significant { "  ✔" } else { "" }
                ),
                None => writeln!(
                    text,
                    "Fig 25({letter}): {:<50} (insufficient clusters at this scale)",
                    p.description
                ),
            };
        }
        text
    });
}

fn predict(o: &mut String, study: &Study) {
    // `repro` runs the prediction twice: once for the accuracy table and
    // once for the bucket distributions.
    let table_runs = span("shape.predict", || prediction::predict_all(study, 0xC0DE));
    render(o, || {
        let mut t = TextTable::new(
            "§4.9 Decision-tree prediction, 10 buckets, 5-fold CV\n(paper: range 39/95/98% exact; percentile 20/16/15% exact, 44/40/39% ±1)",
            &["metric", "scheme", "exact", "±1 bucket", "clusters"],
        );
        for r in &table_runs {
            t.add_row(vec![
                r.metric.name().into(),
                format!("{:?}", r.scheme),
                format!("{:.1}%", r.cv.accuracy * 100.0),
                format!("{:.1}%", r.cv.accuracy_within_1 * 100.0),
                r.n_clusters.to_string(),
            ]);
        }
        t.render()
    });
    let bucket_runs = span("shape.predict", || prediction::predict_all(study, 0xC0DE));
    for r in &bucket_runs {
        let _ = writeln!(
            o,
            "{} / {:?}: bounds {:?} counts {:?}",
            r.metric.name(),
            r.scheme,
            r.bucket_upper_bounds.iter().map(|b| format!("{b:.3}")).collect::<Vec<_>>(),
            r.bucket_counts
        );
    }
}

fn table4(o: &mut String, study: &Study) {
    let names: Vec<&str> = study.dataset().sources.iter().map(|s| s.name.as_str()).collect();
    let _ = writeln!(o, "Table 4: the {} labor sources", names.len());
    for chunk in names.chunks(8) {
        let _ = writeln!(o, "  {}", chunk.join(" "));
    }
}

fn fig26(o: &mut String, study: &Study) {
    let (stats, active) = shape(|| {
        let mut stats = sources::per_source(study);
        stats.sort_by(|a, b| b.avg_tasks_per_worker.total_cmp(&a.avg_tasks_per_worker));
        (stats, sources::active_sources_weekly(study))
    });
    render(o, || {
        BarChart::new("Fig 26a: average tasks per worker by source (log, top 20)")
            .log_scale()
            .bars(stats.iter().take(20).map(|s| (s.name.clone(), s.avg_tasks_per_worker)))
            .render()
    });
    render(o, || {
        LinePlot::new("Fig 26b: active sources per week")
            .with_labels("week", "# sources")
            .add(Series::new(
                "active sources",
                week_series(&active.weeks, active.active_sources.iter().map(|&v| f64::from(v))),
            ))
            .render()
    });
}

fn fig27(o: &mut String, study: &Study) {
    let stats = shape(|| sources::per_source(study));
    let (top_w, (top_t, share), q) = shape(|| {
        (
            sources::top_by_workers(&stats, 10),
            sources::top_by_tasks(&stats, 10),
            sources::quality_stats(study, &stats),
        )
    });
    render(o, || {
        BarChart::new("Fig 27a: workers from the top-10 sources")
            .bars(top_w.iter().map(|s| (s.name.clone(), s.n_workers as f64)))
            .render()
    });
    render(o, || {
        let mut t = TextTable::new(
            "Fig 27b/e: quality of the major sources (paper: amt trust 0.75, rel time >5)",
            &["source", "workers", "tasks", "mean trust", "rel task time"],
        );
        let amt = stats.iter().find(|s| s.name == "amt");
        for s in top_w.iter().copied().chain(amt) {
            t.add_row(vec![
                s.name.clone(),
                s.n_workers.to_string(),
                s.n_tasks.to_string(),
                format!("{:.3}", s.mean_trust),
                format!("{:.2}×", s.mean_relative_task_time),
            ]);
        }
        t.render()
    });
    let _ = writeln!(
        o,
        "Fig 27d: top-10 sources by tasks carry {:.1}% of all tasks (paper ≈95%): {}",
        share * 100.0,
        top_t.iter().map(|s| s.name.as_str()).collect::<Vec<_>>().join(", ")
    );
    let _ = writeln!(
        o,
        "Fig 27c/f: sources with mean trust <0.8: {:.1}% (paper ~10%) · rel time ≥3×: {:.1}% (paper ~5%) · internal task share {:.2}% (paper ~2%)",
        q.low_trust_fraction * 100.0,
        q.slow_fraction * 100.0,
        q.internal_task_share * 100.0
    );
}

fn fig28(o: &mut String, study: &Study) {
    let g = shape(|| geography::distribution(study));
    render(o, || {
        BarChart::new(format!(
            "Fig 28: workers by country (top 15 of {}; top-5 share {:.1}%, paper ≈50%)",
            g.n_countries(),
            g.top_share(5) * 100.0
        ))
        .bars(g.countries.iter().take(15).map(|(_, name, c)| (name.clone(), *c as f64)))
        .render()
    });
}

fn fig29(o: &mut String, study: &Study) {
    let d = shape(|| workload::distribution(study));
    render(o, || {
        let rank_points: Vec<(f64, f64)> =
            d.tasks_by_rank.iter().enumerate().map(|(i, &c)| ((i + 1) as f64, c as f64)).collect();
        LinePlot::new("Fig 29a: tasks per worker by rank (log-log)")
            .log_x()
            .log_y()
            .with_labels("worker rank", "# tasks")
            .add(Series::new("workers", rank_points))
            .render()
    });
    let _ = writeln!(
        o,
        "top-10% share: {:.1}% (paper >80%) · workers under 1h/working day: {:.1}% (paper >90%)",
        d.top10_share * 100.0,
        d.under_one_hour_fraction * 100.0
    );
}

fn fig30(o: &mut String, study: &Study) {
    let (l, hist) = shape(|| {
        let l = lifetimes::lifetime_stats(study);
        let mut hist = crowd_stats::Histogram::new(
            crowd_stats::HistogramKind::Linear { lo: 0.0, hi: 1_500.0 },
            30,
        );
        hist.extend(&l.lifetimes_days.iter().map(|&d| f64::from(d)).collect::<Vec<_>>());
        (l, hist)
    });
    render(o, || {
        LinePlot::new("Fig 30a: worker lifetimes (days, log y)")
            .log_y()
            .with_labels("lifetime (days)", "# workers")
            .add(Series::new(
                "workers",
                hist.points().iter().map(|&(x, c)| (x, c as f64)).collect(),
            ))
            .render()
    });
    render(o, || {
        let mut t = TextTable::new("§5.3 lifetime statistics", &["statistic", "value", "paper"]);
        for (label, value, paper) in [
            ("one-day workers", l.one_day_fraction, "52.7%"),
            ("their task share", l.one_day_task_share, "2.4%"),
            ("lifetime <100 days", l.short_lifetime_fraction, "79%"),
            ("active (>10 days) workers", l.active_worker_fraction, "~15%"),
            ("active task share", l.active_task_share, "83%"),
            ("active working ≥weekly", l.weekly_active_fraction, ">43%"),
        ] {
            t.add_row(vec![label.into(), format!("{:.1}%", value * 100.0), paper.into()]);
        }
        t.render()
    });
}

fn trust(o: &mut String, study: &Study) {
    let _ = match shape(|| lifetimes::active_trust(study)) {
        Some(t) => writeln!(
            o,
            "§5.4 active-worker trust: mean {:.3} (paper ≥0.91) · median {:.3} · p10 {:.3} (paper: 90% >0.84) · n={}",
            t.mean, t.median, t.p10, t.n
        ),
        None => writeln!(o, "§5.4: no active workers at this scale"),
    };
}

fn work_sessions(o: &mut String, study: &Study) {
    let st = shape(|| sessions::sessions(study, sessions::DEFAULT_GAP));
    let _ = writeln!(
        o,
        "§5.3 work sessions (30-min gap): {} sessions, median span {:.1} min, median {:.0} instances/session, {:.1} sessions/worker, {:.0}% single-instance",
        st.sessions.len(),
        st.median_span_mins,
        st.median_instances,
        st.mean_sessions_per_worker,
        st.single_instance_fraction * 100.0
    );
}

fn monthly_cohorts(o: &mut String, study: &Study) {
    let (n, mean) = shape(|| {
        let cs = cohorts::monthly_cohorts(study);
        (cs.len(), cohorts::mean_retention(&cs, 12))
    });
    let _ = writeln!(
        o,
        "§5.3 cohort retention ({n} monthly cohorts): mean retention by month {}",
        mean.iter().map(|r| format!("{:.0}%", r * 100.0)).collect::<Vec<_>>().join(" ")
    );
}

fn forecast(o: &mut String, study: &Study) {
    use crowd_analytics::design::forecast::{fit_pickup, PickupProfile};
    let fits: Vec<_> = shape(|| {
        PickupProfile::all().filter_map(|p| fit_pickup(study, p).map(|f| (p, f))).collect()
    });
    render(o, || {
        let mut t = TextTable::new(
            "pickup forecasts by design profile (lognormal fit over clusters)",
            &["examples", "images", "large batch", "median", "p90", "80% done by", "n"],
        );
        let yes = |b: bool| if b { "yes" } else { "-" }.to_string();
        for (profile, f) in &fits {
            t.add_row(vec![
                yes(profile.has_examples),
                yes(profile.has_images),
                yes(profile.large_batch),
                format!("{:.0}s", f.median_secs()),
                format!("{:.0}s", f.quantile(0.9)),
                format!("{:.1}h", f.quantile(0.8) / 3_600.0),
                f.n_clusters.to_string(),
            ]);
        }
        t.render()
    });
}

fn redundancy(o: &mut String, study: &Study) {
    use crowd_analytics::design::redundancy;
    if let Some(r) = shape(|| redundancy::redundancy(study)) {
        let _ = writeln!(
            o,
            "§4.1 redundancy: mean {:.2} judgments/item (median {:.0}, max {:.0}); {:.1}% of items have ≥2 judgments (pairwise disagreement defined)",
            r.per_item.mean,
            r.per_item.median,
            r.per_item.max,
            r.pairable_fraction * 100.0
        );
    }
}
