//! `export` — writes the study's core series and tables as CSV files, for
//! re-plotting the figures with external tooling (gnuplot, matplotlib, R).
//!
//! ```text
//! export [--scale S] [--seed N] [--out DIR] [--threads T]
//!        [--snapshot-dir DIR] [--no-snapshot] [--input-dir DIR]
//!        [--shards N]
//! ```
//!
//! With `--input-dir`, the dataset is loaded from a previously exported
//! directory through the resilient ingest path instead of simulated.
//! With `--snapshot-dir`, the build streams (DESIGN.md §16): cold runs
//! flush each finished shard to the snapshot as it completes, warm runs
//! load entities + enrichment only, and the CSVs are byte-identical
//! either way (`tests/streamed_equivalence.rs`). `--shards N` only sets
//! how many sections the snapshot file splits the instance table into.
//!
//! Files written into `DIR` (default `./export`):
//! `weekly.csv` (Figs 1/2/4/5 series), `weekday.csv` (Fig 3),
//! `cluster_sizes.csv` (Figs 6/7), `heavy_hitters.csv` (Fig 8),
//! `labels.csv` (Fig 9), `trends.csv` (Fig 12),
//! `experiments.csv` (Fig 14 / Tables 1–3), `prediction.csv` (§4.9),
//! `sources.csv` (Figs 26/27), `geography.csv` (Fig 28),
//! `lifetimes.csv` (Fig 30), `cohorts.csv` (§5.3 extension).

use std::fmt::Write as _;
use std::path::PathBuf;

use crowd_analytics::design::{methodology, prediction};
use crowd_analytics::marketplace::{arrivals, availability, labels, load, trends};
use crowd_analytics::workers::{cohorts, geography, lifetimes, sources};
use crowd_marketplace::cli::CommonOpts;
use crowd_report::{series_to_csv, Series};

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2)
}

fn main() {
    let mut opts = CommonOpts::default();
    let mut out = PathBuf::from("export");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match opts.accept(&arg, &mut args) {
            Ok(true) => {}
            Ok(false) => match arg.as_str() {
                "--out" => {
                    out = PathBuf::from(args.next().unwrap_or_else(|| die("--out needs DIR")));
                }
                other => die(&format!("unknown argument `{other}`")),
            },
            Err(e) => die(&e),
        }
    }
    opts.install_thread_pool().unwrap_or_else(|e| die(&e));
    std::fs::create_dir_all(&out).expect("create output dir");

    let study = opts.build_study().unwrap_or_else(|e| die(&e));
    let write = |name: &str, content: String| {
        let path = out.join(name);
        std::fs::write(&path, content).expect("write csv");
        eprintln!("wrote {}", path.display());
    };

    // Weekly series (Figs 1, 2, 4, 5).
    let w = arrivals::weekly(&study);
    let workers = availability::weekly_workers(&study);
    let engagement = availability::engagement_split(&study);
    let wk = |i: &crowd_core::time::WeekIndex| f64::from(i.0);
    write(
        "weekly.csv",
        series_to_csv(&[
            Series::new(
                "instances",
                w.weeks.iter().zip(&w.instances).map(|(k, &v)| (wk(k), v as f64)).collect(),
            ),
            Series::new(
                "batches",
                w.weeks.iter().zip(&w.batches).map(|(k, &v)| (wk(k), v as f64)).collect(),
            ),
            Series::new(
                "distinct_all",
                w.weeks
                    .iter()
                    .zip(&w.distinct_tasks_all)
                    .map(|(k, &v)| (wk(k), v as f64))
                    .collect(),
            ),
            Series::new(
                "distinct_sampled",
                w.weeks
                    .iter()
                    .zip(&w.distinct_tasks_sampled)
                    .map(|(k, &v)| (wk(k), v as f64))
                    .collect(),
            ),
            Series::new(
                "median_pickup_s",
                w.weeks
                    .iter()
                    .zip(&w.median_pickup)
                    .filter_map(|(k, p)| p.map(|p| (wk(k), p)))
                    .collect(),
            ),
            Series::new(
                "active_workers",
                workers
                    .weeks
                    .iter()
                    .zip(&workers.active_workers)
                    .map(|(k, &v)| (wk(k), v as f64))
                    .collect(),
            ),
            Series::new(
                "tasks_top10",
                engagement
                    .weeks
                    .iter()
                    .zip(&engagement.tasks_top10)
                    .map(|(k, &v)| (wk(k), v as f64))
                    .collect(),
            ),
            Series::new(
                "tasks_bot90",
                engagement
                    .weeks
                    .iter()
                    .zip(&engagement.tasks_bot90)
                    .map(|(k, &v)| (wk(k), v as f64))
                    .collect(),
            ),
        ]),
    );

    // Fig 3.
    let by = arrivals::by_weekday(&study);
    let mut s = String::from("weekday,instances\n");
    for d in crowd_core::time::Weekday::ALL {
        let _ = writeln!(s, "{},{}", d.abbrev(), by[d.index()]);
    }
    write("weekday.csv", s);

    // Figs 6/7.
    let cl = load::cluster_load(&study);
    let mut s = String::from("cluster,batches,instances\n");
    for (i, (b, n)) in cl.batches_per_cluster.iter().zip(&cl.instances_per_cluster).enumerate() {
        let _ = writeln!(s, "{i},{b},{n}");
    }
    write("cluster_sizes.csv", s);

    // Fig 8.
    let hh = load::heavy_hitters(&study, 10);
    write(
        "heavy_hitters.csv",
        series_to_csv(
            &hh.iter()
                .map(|h| {
                    Series::new(
                        format!("cluster_{}", h.cluster),
                        h.cumulative.iter().map(|&(k, c)| (f64::from(k.0), c as f64)).collect(),
                    )
                })
                .collect::<Vec<_>>(),
        ),
    );

    // Fig 9.
    let mut s = String::from("category,label,instances\n");
    for d in [
        labels::goal_distribution(&study),
        labels::data_distribution(&study),
        labels::operator_distribution(&study),
    ] {
        for (label, count) in &d.counts {
            let _ = writeln!(s, "{},{label},{count}", d.category);
        }
    }
    write("labels.csv", s);

    // Fig 12.
    let mut all = Vec::new();
    for t in
        [trends::goal_trend(&study), trends::operator_trend(&study), trends::data_trend(&study)]
    {
        all.push(Series::new(
            format!("{}_simple", t.category),
            t.weeks.iter().zip(&t.simple).map(|(k, &v)| (wk(k), v as f64)).collect(),
        ));
        all.push(Series::new(
            format!("{}_complex", t.category),
            t.weeks.iter().zip(&t.complex).map(|(k, &v)| (wk(k), v as f64)).collect(),
        ));
    }
    write("trends.csv", series_to_csv(&all));

    // Fig 14 / Tables 1–3.
    let mut s = String::from("feature,metric,split,n1,n2,median1,median2,p,significant\n");
    for e in methodology::full_grid(&study) {
        let _ = writeln!(
            s,
            "{},{},{},{},{},{},{},{:e},{}",
            e.feature.name(),
            e.metric.name(),
            e.split_value,
            e.bin1.n,
            e.bin2.n,
            e.bin1.median,
            e.bin2.median,
            e.p_value,
            e.significant
        );
    }
    write("experiments.csv", s);

    // §4.9.
    let mut s = String::from("metric,scheme,exact,within1,clusters\n");
    for r in prediction::predict_all(&study, 0xC0DE) {
        let _ = writeln!(
            s,
            "{},{:?},{},{},{}",
            r.metric.name(),
            r.scheme,
            r.cv.accuracy,
            r.cv.accuracy_within_1,
            r.n_clusters
        );
    }
    write("prediction.csv", s);

    // Figs 26/27.
    let st = sources::per_source(&study);
    let mut s =
        String::from("source,workers,tasks,avg_tasks_per_worker,mean_trust,rel_task_time\n");
    for x in &st {
        let _ = writeln!(
            s,
            "{},{},{},{},{},{}",
            x.name,
            x.n_workers,
            x.n_tasks,
            x.avg_tasks_per_worker,
            x.mean_trust,
            x.mean_relative_task_time
        );
    }
    write("sources.csv", s);

    // Fig 28.
    let g = geography::distribution(&study);
    let mut s = String::from("country,workers\n");
    for (_, name, count) in &g.countries {
        let _ = writeln!(s, "{name},{count}");
    }
    write("geography.csv", s);

    // Fig 30.
    let l = lifetimes::lifetime_stats(&study);
    let mut s = String::from("lifetime_days,working_days,active_fraction,tasks\n");
    for i in 0..l.lifetimes_days.len() {
        let _ = writeln!(
            s,
            "{},{},{},{}",
            l.lifetimes_days[i], l.working_days[i], l.active_fraction[i], l.tasks[i]
        );
    }
    write("lifetimes.csv", s);

    // Cohorts.
    let cs = cohorts::monthly_cohorts(&study);
    let mut s = String::from("cohort_month,size,month_offset,retention\n");
    for c in &cs {
        for (k, r) in c.retention.iter().enumerate() {
            let _ = writeln!(s, "{},{},{k},{r}", c.month_start.month_year_label(), c.size);
        }
    }
    write("cohorts.csv", s);

    eprintln!("done: 12 files in {}", out.display());
}
