//! `repro` — regenerates every table and figure of the VLDB'17
//! crowdsourcing-marketplace study from a simulated dataset.
//!
//! ```text
//! repro [--scale S] [--seed N] [--threads T] [--snapshot-dir DIR]
//!       [--no-snapshot] [--input-dir DIR] [--shards N] [TARGET...]
//!
//! TARGETS (default: all)
//!   fig1 fig2 fig3 fig4 fig5 fig6 fig7 fig8 fig9 fig10 fig11 fig12
//!   fig13 fig14 fig25 fig26 fig27 fig28 fig29 fig30
//!   tables     Tables 1–3 (feature/metric summaries)
//!   predict    §4.9 predictive setting
//!   table4     labor-source registry
//!   load       §3.1 daily-load statistics
//!   trust      §5.4 active-worker trust
//!   sessions   work-session (attention-span) statistics (§5.3)
//!   cohorts    monthly cohort retention (§5.3 extension)
//!   forecast   pickup-latency forecasts per design profile (§6 extension)
//!   redundancy judgments-per-item statistics (§4.1)
//!   summary    dataset headline counts (§2.2)
//! ```

use std::collections::BTreeSet;

use crowd_analytics::design::{drilldown, methodology, metrics, prediction, summary};
use crowd_analytics::marketplace::{arrivals, availability, labels, load, trends};
use crowd_analytics::workers::{geography, lifetimes, sources, workload};
use crowd_analytics::Study;
use crowd_core::time::Timestamp;
use crowd_marketplace::cli::CommonOpts;
use crowd_report::{BarChart, LinePlot, Series, StackedBars, TextTable};

const ALL_TARGETS: [&str; 30] = [
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

/// Parsed command line. Separated from `main` so the parsing and
/// validation rules are unit-testable without spawning the binary. The
/// `--scale`/`--seed`/`--threads` rules live in [`CommonOpts`], shared
/// with `export`.
#[derive(Debug, Clone, PartialEq, Default)]
struct Args {
    opts: CommonOpts,
    targets: BTreeSet<String>,
    help: bool,
}

fn parse_args(argv: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut out = Args::default();
    let mut args = argv.into_iter();
    while let Some(arg) = args.next() {
        if out.opts.accept(&arg, &mut args)? {
            continue;
        }
        match arg.as_str() {
            "--help" | "-h" => out.help = true,
            t if t == "all" || ALL_TARGETS.contains(&t) => {
                out.targets.insert(t.to_string());
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if out.targets.is_empty() || out.targets.contains("all") {
        out.targets = ALL_TARGETS.iter().map(|s| s.to_string()).collect();
    }
    Ok(out)
}

fn main() {
    let args = parse_args(std::env::args().skip(1)).unwrap_or_else(|e| die(&e));
    if args.help {
        println!(
            "usage: repro [--scale S] [--seed N] [--threads T] \
             [--snapshot-dir DIR] [--no-snapshot] [--input-dir DIR] [--shards N] [TARGET...]"
        );
        println!("  --snapshot-dir DIR  cache simulated datasets in DIR (or $CROWD_SNAPSHOT_DIR)");
        println!("  --no-snapshot       always simulate from scratch");
        println!(
            "  --input-dir DIR     load an exported dataset (resilient ingest) instead of simulating"
        );
        println!(
            "  --shards N          split the snapshot file's instance table into N sections \
             (file layout only;\n\
             \x20                     results are bit-identical). Every snapshot-backed build \
             streams: cold runs\n\
             \x20                     flush each finished section to the snapshot as it \
             completes, warm runs load\n\
             \x20                     entities + enrichment only, and no path holds more than \
             ~one section of rows."
        );
        println!("targets: all {}", ALL_TARGETS.join(" "));
        return;
    }
    let Args { opts, targets, .. } = args;
    opts.install_thread_pool().unwrap_or_else(|e| die(&e));
    let scale = opts.scale;

    let study = opts.build_study().unwrap_or_else(|e| die(&e));
    // `n_instances`, not `dataset().instances.len()`: a snapshot-backed
    // study keeps the rows on disk and the resident table is empty.
    eprintln!(
        "enriched: {} instances, {} sampled batches, {} clusters\n",
        study.n_instances(),
        study.enriched_batches().count(),
        study.clusters().len()
    );

    // Counts extrapolate linearly with scale when comparing to the paper.
    let x = 1.0 / scale;

    for t in &ALL_TARGETS {
        if !targets.contains(*t) {
            continue;
        }
        match *t {
            "summary" => print_summary(&study, x),
            "fig1" => fig1(&study),
            "fig2" => fig2(&study),
            "fig3" => fig3(&study),
            "load" => print_load(&study, x),
            "fig4" => fig4(&study),
            "fig5" => fig5(&study),
            "fig6" => fig6(&study),
            "fig7" => fig7(&study),
            "fig8" => fig8(&study),
            "fig9" => fig9(&study),
            "fig10" => fig10(&study),
            "fig11" => fig11(&study),
            "fig12" => fig12(&study),
            "fig13" => fig13(&study),
            "fig14" => fig14(&study),
            "tables" => print_tables(&study),
            "fig25" => fig25(&study),
            "predict" => print_prediction(&study),
            "table4" => table4(&study),
            "fig26" => fig26(&study),
            "fig27" => fig27(&study),
            "fig28" => fig28(&study),
            "fig29" => fig29(&study),
            "fig30" => fig30(&study),
            "trust" => print_trust(&study),
            "sessions" => print_sessions(&study),
            "cohorts" => print_cohorts(&study),
            "forecast" => print_forecast(&study),
            "redundancy" => print_redundancy(&study),
            other => eprintln!("unknown target `{other}` (see --help)"),
        }
        println!();
    }
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2)
}

fn week_series(
    weeks: &[crowd_core::time::WeekIndex],
    ys: impl Iterator<Item = f64>,
) -> Vec<(f64, f64)> {
    weeks.iter().zip(ys).map(|(w, y)| (f64::from(w.0), y)).collect()
}

fn print_summary(study: &Study, x: f64) {
    let s = study.dataset().summary();
    let mut t = TextTable::new(
        "§2.2 Dataset summary (raw · extrapolated to paper scale · paper)",
        &["quantity", "raw", "extrapolated", "paper"],
    );
    let row = |label: &str, raw: usize, factor: f64, paper: &str| {
        vec![
            label.to_string(),
            raw.to_string(),
            format!("{:.0}", raw as f64 * factor),
            paper.to_string(),
        ]
    };
    t.add_row(row("task instances (sampled)", study.n_instances(), x, "27M"));
    t.add_row(row("batches (total)", s.batches, x.sqrt(), "58k"));
    t.add_row(row("batches (sampled)", s.batches_sampled, x.sqrt(), "12k"));
    t.add_row(row("distinct tasks", s.distinct_tasks, x.sqrt(), "6,600"));
    t.add_row(row("distinct tasks in sample", s.distinct_tasks_sampled, x.sqrt(), "~5,000"));
    t.add_row(row("workers", s.workers, x.sqrt(), "~69,000"));
    t.add_row(row("labor sources", s.sources, 1.0, "139"));
    t.add_row(row("countries", s.countries, 1.0, "148"));
    println!("{}", t.render());
}

fn fig1(study: &Study) {
    let w = arrivals::weekly(study);
    let plot = LinePlot::new("Fig 1: distinct tasks per week — all vs sampled")
        .with_labels("week", "# distinct tasks")
        .add(Series::new(
            "all",
            week_series(&w.weeks, w.distinct_tasks_all.iter().map(|&v| v as f64)),
        ))
        .add(Series::new(
            "sampled",
            week_series(&w.weeks, w.distinct_tasks_sampled.iter().map(|&v| v as f64)),
        ));
    println!("{}", plot.render());
}

fn fig2(study: &Study) {
    let w = arrivals::weekly(study);
    let plot = LinePlot::new("Fig 2a: task instances issued per week (log y) + median pickup")
        .log_y()
        .with_labels("week", "# instances / pickup secs")
        .add(Series::new("instances", week_series(&w.weeks, w.instances.iter().map(|&v| v as f64))))
        .add(Series::new(
            "median pickup (s)",
            w.weeks
                .iter()
                .zip(&w.median_pickup)
                .filter_map(|(wk, p)| p.map(|p| (f64::from(wk.0), p)))
                .collect(),
        ));
    println!("{}", plot.render());
    let post = w.since(Timestamp::from_ymd(2015, 1, 1));
    let plot2 =
        LinePlot::new("Fig 2b: instances vs batches vs distinct tasks (post Jan'15, log y)")
            .log_y()
            .with_labels("week", "count")
            .add(Series::new(
                "instances",
                week_series(&post.weeks, post.instances.iter().map(|&v| v as f64)),
            ))
            .add(Series::new(
                "batches",
                week_series(&post.weeks, post.batches.iter().map(|&v| v as f64)),
            ))
            .add(Series::new(
                "distinct tasks",
                week_series(&post.weeks, post.distinct_tasks_all.iter().map(|&v| v as f64)),
            ));
    println!("{}", plot2.render());
}

fn fig3(study: &Study) {
    let by = arrivals::by_weekday(study);
    let chart = BarChart::new("Fig 3: task instances by day of week").bars(
        crowd_core::time::Weekday::ALL
            .iter()
            .map(|d| (d.abbrev().to_string(), by[d.index()] as f64)),
    );
    println!("{}", chart.render());
}

fn print_load(study: &Study, x: f64) {
    if let Some(d) = arrivals::daily_load(study, Timestamp::from_ymd(2015, 1, 1)) {
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
        println!("{}", t.render());
    }
}

fn fig4(study: &Study) {
    let w = availability::weekly_workers(study);
    let plot = LinePlot::new("Fig 4: workers performing tasks, per week")
        .with_labels("week", "# workers")
        .add(Series::new(
            "active workers",
            week_series(&w.weeks, w.active_workers.iter().map(|&v| v as f64)),
        ));
    println!("{}", plot.render());
}

fn fig5(study: &Study) {
    let e = availability::engagement_split(study);
    let plot = LinePlot::new("Fig 5b: weekly tasks — top-10% vs bottom-90% of workers (log y)")
        .log_y()
        .with_labels("week", "# tasks")
        .add(Series::new("top-10%", week_series(&e.weeks, e.tasks_top10.iter().map(|&v| v as f64))))
        .add(Series::new(
            "bottom-90%",
            week_series(&e.weeks, e.tasks_bot90.iter().map(|&v| v as f64)),
        ));
    println!("{}", plot.render());
    println!("top-10% task share: {:.1}% (paper: >80%)\n", e.top10_task_share * 100.0);
    let hours = LinePlot::new("Fig 5b (2): weekly active hours — top-10% vs bottom-90%")
        .with_labels("week", "hours")
        .add(Series::new("top-10%", week_series(&e.weeks, e.hours_top10.iter().copied())))
        .add(Series::new("bottom-90%", week_series(&e.weeks, e.hours_bot90.iter().copied())));
    println!("{}", hours.render());
}

fn fig6(study: &Study) {
    let l = load::cluster_load(study);
    let sizes: Vec<u64> = l.batches_per_cluster.iter().map(|&b| u64::from(b)).collect();
    let hist = load::log_histogram(&sizes);
    let plot = LinePlot::new("Fig 6: # batches per cluster (log-log)")
        .log_x()
        .log_y()
        .with_labels("cluster size (batches)", "# clusters")
        .add(Series::new(
            "clusters",
            hist.iter().map(|&(s, c)| (s.max(1) as f64, c as f64)).collect(),
        ));
    println!("{}", plot.render());
    println!(
        "one-off clusters (<10 batches): {} · clusters >100 batches: {}",
        l.one_off_clusters, l.clusters_over_100_batches
    );
}

fn fig7(study: &Study) {
    let l = load::cluster_load(study);
    let hist = load::log_histogram(&l.instances_per_cluster);
    let plot = LinePlot::new("Fig 7: # instances per cluster (log-log)")
        .log_x()
        .log_y()
        .with_labels("instances in cluster", "# clusters")
        .add(Series::new(
            "clusters",
            hist.iter().map(|&(s, c)| (s.max(1) as f64, c as f64)).collect(),
        ));
    println!("{}", plot.render());
    println!(
        "median instances/cluster: {:.0} (paper: ~400 at full scale)",
        l.median_instances_per_cluster
    );
}

fn fig8(study: &Study) {
    let hh = load::heavy_hitters(study, 10);
    let mut plot =
        LinePlot::new("Fig 8: cumulative instances of the top-10 heavy-hitter clusters (log y)")
            .log_y()
            .with_labels("week", "cumulative instances");
    for h in &hh {
        plot = plot.add(Series::new(
            format!("cluster {} ({} batches)", h.cluster, h.n_batches),
            h.cumulative.iter().map(|&(w, c)| (f64::from(w.0), c as f64)).collect(),
        ));
    }
    println!("{}", plot.render());
}

fn fig9(study: &Study) {
    for d in [
        labels::goal_distribution(study),
        labels::data_distribution(study),
        labels::operator_distribution(study),
    ] {
        let chart = BarChart::new(format!("Fig 9: instances per {} label", d.category))
            .bars(d.counts.iter().map(|&(l, c)| (l.to_string(), c as f64)));
        println!("{}", chart.render());
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

fn fig10(study: &Study) {
    println!("{}", stacked(&labels::data_given_goal(study), "Fig 10a: data types per goal (%)"));
    println!("{}", stacked(&labels::operator_given_goal(study), "Fig 10b: operators per goal (%)"));
    println!(
        "{}",
        stacked(&labels::operator_given_data(study), "Fig 10c: operators per data type (%)")
    );
}

fn fig11(study: &Study) {
    println!(
        "{}",
        stacked(&labels::data_given_goal(study).transposed(), "Fig 11a: goals per data type (%)")
    );
    println!(
        "{}",
        stacked(
            &labels::operator_given_goal(study).transposed(),
            "Fig 11b: goals per operator (%)"
        )
    );
    println!(
        "{}",
        stacked(
            &labels::operator_given_data(study).transposed(),
            "Fig 11c: data types per operator (%)"
        )
    );
}

fn fig12(study: &Study) {
    for t in [trends::goal_trend(study), trends::operator_trend(study), trends::data_trend(study)] {
        let plot =
            LinePlot::new(format!("Fig 12: cumulative clusters, simple vs complex {}", t.category))
                .with_labels("week", "cumulative clusters")
                .add(Series::new(
                    "simple",
                    week_series(&t.weeks, t.simple.iter().map(|&v| v as f64)),
                ))
                .add(Series::new(
                    "complex",
                    week_series(&t.weeks, t.complex.iter().map(|&v| v as f64)),
                ));
        println!("{}", plot.render());
        let (s, c) = t.totals();
        println!("totals — simple: {s}, complex: {c}");
    }
}

fn fig13(study: &Study) {
    let d = metrics::latency_decomposition(study);
    let plot = LinePlot::new("Fig 13b: median pickup vs task time by end-to-end splice (log-log)")
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
        ));
    println!("{}", plot.render());
    println!(
        "median pickup/task ratio: {:.1}× (paper: orders of magnitude)",
        d.median_pickup_to_task_ratio
    );
}

fn fig14(study: &Study) {
    for e in methodology::full_grid(study) {
        if !e.significant {
            continue;
        }
        let plot = LinePlot::new(format!(
            "Fig 14: CDF of {} split by {} at {:.1} (p = {:.1e})",
            e.metric.name(),
            e.feature.name(),
            e.split_value,
            e.p_value
        ))
        .with_labels(e.metric.name(), "P(value ≤ x)")
        .add(Series::new(format!("{} low", e.feature.name()), e.cdf1.clone()))
        .add(Series::new(format!("{} high", e.feature.name()), e.cdf2.clone()));
        println!("{}", plot.render());
    }
}

fn summary_table_text(t: &summary::SummaryTable, title: &str, unit: &str) -> String {
    let mut out = TextTable::new(
        title.to_string(),
        &[
            "bin-1",
            "n1",
            "bin-2",
            "n2",
            &format!("m1 ({unit})"),
            &format!("m2 ({unit})"),
            "p",
            "sig",
        ],
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

fn print_tables(study: &Study) {
    println!(
        "{}",
        summary_table_text(
            &summary::disagreement_table(study),
            "Table 1: disagreement score (paper: 0.147/0.108 · 0.169/0.086 · 0.102/0.160 · 0.128/0.101)",
            "score"
        )
    );
    println!(
        "{}",
        summary_table_text(
            &summary::task_time_table(study),
            "Table 2: median task time (paper: 230/136 · 119/286 · 184/129 s)",
            "s"
        )
    );
    println!(
        "{}",
        summary_table_text(
            &summary::pickup_time_table(study),
            "Table 3: median pickup time (paper: 4521/8132 · 6303/1353 · 7838/2431 s)",
            "s"
        )
    );
}

fn fig25(study: &Study) {
    for p in drilldown::fig25_panels(study) {
        match p.experiment {
            Some(e) => println!(
                "Fig 25({}): {:<50} m1 {:>9.3}  m2 {:>9.3}  p {:.1e}{}",
                (b'a' + p.index as u8) as char,
                p.description,
                e.bin1.median,
                e.bin2.median,
                e.p_value,
                if e.significant { "  ✔" } else { "" }
            ),
            None => println!(
                "Fig 25({}): {:<50} (insufficient clusters at this scale)",
                (b'a' + p.index as u8) as char,
                p.description
            ),
        }
    }
}

fn print_prediction(study: &Study) {
    let mut t = TextTable::new(
        "§4.9 Decision-tree prediction, 10 buckets, 5-fold CV\n(paper: range 39/95/98% exact; percentile 20/16/15% exact, 44/40/39% ±1)",
        &["metric", "scheme", "exact", "±1 bucket", "clusters"],
    );
    for r in prediction::predict_all(study, 0xC0DE) {
        t.add_row(vec![
            r.metric.name().into(),
            format!("{:?}", r.scheme),
            format!("{:.1}%", r.cv.accuracy * 100.0),
            format!("{:.1}%", r.cv.accuracy_within_1 * 100.0),
            r.n_clusters.to_string(),
        ]);
    }
    println!("{}", t.render());
    // Bucket distributions, as the paper prints them.
    for r in prediction::predict_all(study, 0xC0DE) {
        println!(
            "{} / {:?}: bounds {:?} counts {:?}",
            r.metric.name(),
            r.scheme,
            r.bucket_upper_bounds.iter().map(|b| format!("{b:.3}")).collect::<Vec<_>>(),
            r.bucket_counts
        );
    }
}

fn table4(study: &Study) {
    let names: Vec<&str> = study.dataset().sources.iter().map(|s| s.name.as_str()).collect();
    println!("Table 4: the {} labor sources", names.len());
    for chunk in names.chunks(8) {
        println!("  {}", chunk.join(" "));
    }
}

fn fig26(study: &Study) {
    let stats = sources::per_source(study);
    let mut by_avg: Vec<&sources::SourceStats> = stats.iter().collect();
    by_avg.sort_by(|a, b| b.avg_tasks_per_worker.total_cmp(&a.avg_tasks_per_worker));
    let chart = BarChart::new("Fig 26a: average tasks per worker by source (log, top 20)")
        .log_scale()
        .bars(by_avg.iter().take(20).map(|s| (s.name.clone(), s.avg_tasks_per_worker)));
    println!("{}", chart.render());
    let a = sources::active_sources_weekly(study);
    let plot = LinePlot::new("Fig 26b: active sources per week")
        .with_labels("week", "# sources")
        .add(Series::new(
            "active sources",
            week_series(&a.weeks, a.active_sources.iter().map(|&v| f64::from(v))),
        ));
    println!("{}", plot.render());
}

fn fig27(study: &Study) {
    let stats = sources::per_source(study);
    let top_w = sources::top_by_workers(&stats, 10);
    let chart = BarChart::new("Fig 27a: workers from the top-10 sources")
        .bars(top_w.iter().map(|s| (s.name.clone(), s.n_workers as f64)));
    println!("{}", chart.render());
    let mut t = TextTable::new(
        "Fig 27b/e: quality of the major sources (paper: amt trust 0.75, rel time >5)",
        &["source", "workers", "tasks", "mean trust", "rel task time"],
    );
    for s in &top_w {
        t.add_row(vec![
            s.name.clone(),
            s.n_workers.to_string(),
            s.n_tasks.to_string(),
            format!("{:.3}", s.mean_trust),
            format!("{:.2}×", s.mean_relative_task_time),
        ]);
    }
    if let Some(amt) = stats.iter().find(|s| s.name == "amt") {
        t.add_row(vec![
            "amt".into(),
            amt.n_workers.to_string(),
            amt.n_tasks.to_string(),
            format!("{:.3}", amt.mean_trust),
            format!("{:.2}×", amt.mean_relative_task_time),
        ]);
    }
    println!("{}", t.render());
    let (top_t, share) = sources::top_by_tasks(&stats, 10);
    println!(
        "Fig 27d: top-10 sources by tasks carry {:.1}% of all tasks (paper ≈95%): {}",
        share * 100.0,
        top_t.iter().map(|s| s.name.as_str()).collect::<Vec<_>>().join(", ")
    );
    let q = sources::quality_stats(study, &stats);
    println!(
        "Fig 27c/f: sources with mean trust <0.8: {:.1}% (paper ~10%) · rel time ≥3×: {:.1}% (paper ~5%) · internal task share {:.2}% (paper ~2%)",
        q.low_trust_fraction * 100.0,
        q.slow_fraction * 100.0,
        q.internal_task_share * 100.0
    );
}

fn fig28(study: &Study) {
    let g = geography::distribution(study);
    let chart = BarChart::new(format!(
        "Fig 28: workers by country (top 15 of {}; top-5 share {:.1}%, paper ≈50%)",
        g.n_countries(),
        g.top_share(5) * 100.0
    ))
    .bars(g.countries.iter().take(15).map(|(_, name, c)| (name.clone(), *c as f64)));
    println!("{}", chart.render());
}

fn fig29(study: &Study) {
    let d = workload::distribution(study);
    let rank_points: Vec<(f64, f64)> =
        d.tasks_by_rank.iter().enumerate().map(|(i, &c)| ((i + 1) as f64, c as f64)).collect();
    let plot = LinePlot::new("Fig 29a: tasks per worker by rank (log-log)")
        .log_x()
        .log_y()
        .with_labels("worker rank", "# tasks")
        .add(Series::new("workers", rank_points));
    println!("{}", plot.render());
    println!(
        "top-10% share: {:.1}% (paper >80%) · workers under 1h/working day: {:.1}% (paper >90%)",
        d.top10_share * 100.0,
        d.under_one_hour_fraction * 100.0
    );
}

fn fig30(study: &Study) {
    let l = lifetimes::lifetime_stats(study);
    let mut hist = crowd_stats::Histogram::new(
        crowd_stats::HistogramKind::Linear { lo: 0.0, hi: 1_500.0 },
        30,
    );
    hist.extend(&l.lifetimes_days.iter().map(|&d| f64::from(d)).collect::<Vec<_>>());
    let plot = LinePlot::new("Fig 30a: worker lifetimes (days, log y)")
        .log_y()
        .with_labels("lifetime (days)", "# workers")
        .add(Series::new("workers", hist.points().iter().map(|&(x, c)| (x, c as f64)).collect()));
    println!("{}", plot.render());
    let mut t = TextTable::new("§5.3 lifetime statistics", &["statistic", "value", "paper"]);
    t.add_row(vec![
        "one-day workers".into(),
        format!("{:.1}%", l.one_day_fraction * 100.0),
        "52.7%".into(),
    ]);
    t.add_row(vec![
        "their task share".into(),
        format!("{:.1}%", l.one_day_task_share * 100.0),
        "2.4%".into(),
    ]);
    t.add_row(vec![
        "lifetime <100 days".into(),
        format!("{:.1}%", l.short_lifetime_fraction * 100.0),
        "79%".into(),
    ]);
    t.add_row(vec![
        "active (>10 days) workers".into(),
        format!("{:.1}%", l.active_worker_fraction * 100.0),
        "~15%".into(),
    ]);
    t.add_row(vec![
        "active task share".into(),
        format!("{:.1}%", l.active_task_share * 100.0),
        "83%".into(),
    ]);
    t.add_row(vec![
        "active working ≥weekly".into(),
        format!("{:.1}%", l.weekly_active_fraction * 100.0),
        ">43%".into(),
    ]);
    println!("{}", t.render());
}

fn print_sessions(study: &Study) {
    use crowd_analytics::workers::sessions;
    let st = sessions::sessions(study, sessions::DEFAULT_GAP);
    println!(
        "§5.3 work sessions (30-min gap): {} sessions, median span {:.1} min,          median {:.0} instances/session, {:.1} sessions/worker, {:.0}% single-instance",
        st.sessions.len(),
        st.median_span_mins,
        st.median_instances,
        st.mean_sessions_per_worker,
        st.single_instance_fraction * 100.0
    );
}

fn print_cohorts(study: &Study) {
    use crowd_analytics::workers::cohorts;
    let cs = cohorts::monthly_cohorts(study);
    let mean = cohorts::mean_retention(&cs, 12);
    println!(
        "§5.3 cohort retention ({} monthly cohorts): mean retention by month {}",
        cs.len(),
        mean.iter().map(|r| format!("{:.0}%", r * 100.0)).collect::<Vec<_>>().join(" ")
    );
}

fn print_forecast(study: &Study) {
    use crowd_analytics::design::forecast::{fit_pickup, PickupProfile};
    let mut t = TextTable::new(
        "pickup forecasts by design profile (lognormal fit over clusters)",
        &["examples", "images", "large batch", "median", "p90", "80% done by", "n"],
    );
    for profile in PickupProfile::all() {
        if let Some(f) = fit_pickup(study, profile) {
            t.add_row(vec![
                if profile.has_examples { "yes" } else { "-" }.into(),
                if profile.has_images { "yes" } else { "-" }.into(),
                if profile.large_batch { "yes" } else { "-" }.into(),
                format!("{:.0}s", f.median_secs()),
                format!("{:.0}s", f.quantile(0.9)),
                format!("{:.1}h", f.quantile(0.8) / 3_600.0),
                f.n_clusters.to_string(),
            ]);
        }
    }
    println!("{}", t.render());
}

fn print_redundancy(study: &Study) {
    use crowd_analytics::design::redundancy;
    if let Some(r) = redundancy::redundancy(study) {
        println!(
            "§4.1 redundancy: mean {:.2} judgments/item (median {:.0}, max {:.0});              {:.1}% of items have ≥2 judgments (pairwise disagreement defined)",
            r.per_item.mean,
            r.per_item.median,
            r.per_item.max,
            r.pairable_fraction * 100.0
        );
    }
}

fn print_trust(study: &Study) {
    match lifetimes::active_trust(study) {
        Some(t) => println!(
            "§5.4 active-worker trust: mean {:.3} (paper ≥0.91) · median {:.3} · p10 {:.3} (paper: 90% >0.84) · n={}",
            t.mean, t.median, t.p10, t.n
        ),
        None => println!("§5.4: no active workers at this scale"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(argv: &[&str]) -> Result<Args, String> {
        parse_args(argv.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults_select_all_targets() {
        let args = parse(&[]).unwrap();
        assert_eq!(args.opts, CommonOpts::default());
        assert_eq!(args.targets.len(), ALL_TARGETS.len());
        assert!(!args.help);
    }

    #[test]
    fn explicit_flags_parse() {
        let args = parse(&["--scale", "0.5", "--seed", "7", "--threads", "4", "fig1"]).unwrap();
        assert_eq!(
            args.opts,
            CommonOpts { scale: 0.5, seed: 7, threads: Some(4), ..CommonOpts::default() }
        );
        assert_eq!(args.targets.iter().collect::<Vec<_>>(), ["fig1"]);
    }

    #[test]
    fn scale_bounds_are_enforced() {
        assert!(parse(&["--scale", "0"]).is_err(), "zero scale is an empty marketplace");
        assert!(parse(&["--scale", "-0.1"]).is_err());
        assert!(parse(&["--scale", "1.5"]).is_err(), "above paper scale");
        assert!(parse(&["--scale", "NaN"]).is_err());
        assert!(parse(&["--scale", "inf"]).is_err());
        assert!(parse(&["--scale"]).is_err(), "missing value");
        assert!(parse(&["--scale", "abc"]).is_err(), "non-numeric");
        assert!(parse(&["--scale", "1"]).is_ok(), "paper scale itself is valid");
        assert!(parse(&["--scale", "0.001"]).is_ok());
    }

    #[test]
    fn threads_must_be_positive() {
        assert!(parse(&["--threads", "0"]).is_err());
        assert!(parse(&["--threads", "-1"]).is_err());
        assert!(parse(&["--threads"]).is_err());
        assert_eq!(parse(&["--threads", "1"]).unwrap().opts.threads, Some(1));
    }

    #[test]
    fn seed_requires_integer() {
        assert!(parse(&["--seed", "x"]).is_err());
        assert!(parse(&["--seed"]).is_err());
        assert_eq!(parse(&["--seed", "42"]).unwrap().opts.seed, 42);
    }

    #[test]
    fn all_keyword_expands() {
        let args = parse(&["all", "fig1"]).unwrap();
        assert_eq!(args.targets.len(), ALL_TARGETS.len());
    }

    #[test]
    fn unknown_arguments_are_errors() {
        assert_eq!(parse(&["fig99"]).unwrap_err(), "unknown argument `fig99`");
        assert_eq!(parse(&["--scael", "0.5", "fig1"]).unwrap_err(), "unknown argument `--scael`");
    }

    #[test]
    fn help_flag() {
        assert!(parse(&["--help"]).unwrap().help);
        assert!(parse(&["-h"]).unwrap().help);
    }
}
