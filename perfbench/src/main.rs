//! End-to-end benchmark of the batch (`repro all`) and live (`serve`)
//! paths. See `README.md` next to this package for the workloads, the
//! metrics and how each layer maps onto them.
//!
//! ```text
//! perfbench --workload <repro_cold|repro_warm|live_feed> --seed N --seconds S --trace 0|1
//! perfbench --self-test [--seed N]
//! ```
//!
//! A run sets up its inputs from the seed, then measures fresh child
//! processes (this binary re-executed with `--child`) for about `--seconds`
//! seconds, so each child's peak RSS is its own and no allocator or page
//! cache state of one measurement leaks into the next. The last line of
//! standard output is one JSON object: `correct`, `attempted`, `failed`
//! and the end-to-end metrics (`--trace 0`) or the per-layer metrics of a
//! traced child (`--trace 1`).

mod live;
mod repro;
mod targets;
mod trace;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};

/// Where runs keep their scratch files, relative to the working directory.
const WORK_ROOT: &str = ".perfbench_work";

/// End-to-end metrics, reported on every workload by `--trace 0`.
const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("wall_s", "s"),
    ("fresh_p50_ms", "ms"),
    ("fresh_p90_ms", "ms"),
    ("capacity_events_per_s", "1/s"),
    ("recovery_ms", "ms"),
];

/// Per-layer metrics, reported on every workload by `--trace 1` (0 for a
/// layer the workload does not run). The dashboard latencies are here, not
/// end to end: their cost follows each seed's worker population, so they
/// spread across seeds by more than any bound allows.
const PER_LAYER: [(&str, &str); 49] = [
    ("dashboard_p50_us", "us"),
    ("dashboard_p99_us", "us"),
    ("sim.entities_ms", "ms"),
    ("sim.rows_ms", "ms"),
    ("sim.rows", "count"),
    ("cluster.sign_ms", "ms"),
    ("cluster.lsh_ms", "ms"),
    ("cluster.docs", "count"),
    ("cluster.clusters", "count"),
    ("enrich.fold_ms", "ms"),
    ("enrich.finish_ms", "ms"),
    ("snapshot.write_ms", "ms"),
    ("snapshot.bytes", "B"),
    ("study.assemble_ms", "ms"),
    ("snapshot.open_ms", "ms"),
    ("snapshot.read_ms", "ms"),
    ("snapshot.shards_read", "count"),
    ("scan.fold_ms", "ms"),
    ("scan.rows", "count"),
    ("scan.rows_per_s", "1/s"),
    ("shape.ms", "ms"),
    ("shape.predict_ms", "ms"),
    ("shape.grid_ms", "ms"),
    ("report.render_ms", "ms"),
    ("ingest.decode_ms", "ms"),
    ("ingest.events", "count"),
    ("ingest.quarantined", "count"),
    ("wal.appends", "count"),
    ("wal.fsyncs", "count"),
    ("wal.rotations", "count"),
    ("wal.bytes", "B"),
    ("wal.segments_retired", "count"),
    ("serve.wait_ms", "ms"),
    ("serve.apply_ms", "ms"),
    ("serve.apply_p50_ms", "ms"),
    ("serve.apply_growth", "ratio"),
    ("serve.lateness_p90_ms", "ms"),
    ("serve.versions", "count"),
    ("serve.checkpoints", "count"),
    ("view.apply_ms", "ms"),
    ("view.apply_growth", "ratio"),
    ("recovery.checkpoint_events", "count"),
    ("recovery.wal_events_replayed", "count"),
    ("recovery.wal_records", "count"),
    ("query.dashboards", "count"),
    ("trace.total_ms", "ms"),
    ("trace.other_ms", "ms"),
    ("trace.overhead_ms", "ms"),
    ("trace.spans", "count"),
];

/// Counts that must repeat exactly across traced runs of one seed.
const DETERMINISTIC: [&str; 13] = [
    "sim.rows",
    "cluster.docs",
    "cluster.clusters",
    "scan.rows",
    "snapshot.shards_read",
    "snapshot.bytes",
    "ingest.events",
    "wal.appends",
    "wal.bytes",
    "serve.versions",
    "recovery.checkpoint_events",
    "recovery.wal_events_replayed",
    "recovery.wal_records",
];

#[derive(Debug, Clone, Copy, PartialEq)]
enum Workload {
    ReproCold,
    ReproWarm,
    LiveFeed,
}

impl Workload {
    const ALL: [Workload; 3] = [Workload::ReproCold, Workload::ReproWarm, Workload::LiveFeed];

    fn name(self) -> &'static str {
        match self {
            Workload::ReproCold => "repro_cold",
            Workload::ReproWarm => "repro_warm",
            Workload::LiveFeed => "live_feed",
        }
    }

    fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Rayon pool width: two for the batch path; the live path runs one
    /// writer and one reader thread and no pool.
    fn threads(self) -> usize {
        match self {
            Workload::LiveFeed => 1,
            _ => repro::THREADS,
        }
    }

    /// Measured children per run at the least. A `live_feed` child replays
    /// the feed once (about 13 s); its tail metrics need the median of
    /// three replays to ride out a few slow seconds of a shared host.
    fn min_children(self) -> u32 {
        match self {
            Workload::LiveFeed => 3,
            _ => 1,
        }
    }

    /// Set-ups per run; the median is reported. Batch set-up builds and
    /// renders a whole reference study (seconds of work), so it runs once.
    fn setups(self) -> usize {
        match self {
            Workload::LiveFeed => 5,
            _ => 1,
        }
    }

    fn setup(self, seed: u64, work: &Path) -> Result<(), String> {
        match self {
            Workload::ReproCold => repro::setup(false, seed, work),
            Workload::ReproWarm => repro::setup(true, seed, work),
            Workload::LiveFeed => live::setup(seed, work),
        }
    }

    fn child(self, seed: u64, work: &Path, out: &mut ChildOut) -> Result<(), String> {
        match self {
            Workload::ReproCold => repro::child(false, seed, work, out),
            Workload::ReproWarm => repro::child(true, seed, work, out),
            Workload::LiveFeed => live::child(seed, work, out),
        }
    }

    /// The root span of a traced child.
    fn root(self) -> &'static str {
        match self {
            Workload::LiveFeed => "live",
            _ => "repro",
        }
    }
}

/// What one measured child reports: named values, one `name value` line
/// each on its standard output.
#[derive(Debug, Default, Clone)]
pub struct ChildOut(BTreeMap<String, f64>);

impl ChildOut {
    pub fn set(&mut self, name: &str, value: f64) {
        self.0.insert(name.to_string(), value);
    }

    fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    fn emit(&self) -> String {
        self.0.iter().map(|(k, v)| format!("{k} {v}\n")).collect()
    }

    fn parse(text: &str) -> Result<ChildOut, String> {
        let mut out = ChildOut::default();
        for line in text.lines() {
            let (name, value) = line.split_once(' ').ok_or(format!("bad child line `{line}`"))?;
            out.set(name, value.parse().map_err(|e| format!("bad child line `{line}`: {e}"))?);
        }
        Ok(out)
    }
}

/// 64-bit FNV-1a of a rendered text.
pub fn fnv1a(text: &str) -> u64 {
    text.bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// Linear-interpolated quantile `q` in [0, 1] (0 for an empty slice).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Peak resident set size of this process so far, in MiB (`VmHWM`).
pub fn vmhwm_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn die(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    std::process::exit(2)
}

const USAGE: &str = "usage: perfbench --workload <repro_cold|repro_warm|live_feed> --seed N \
                     --seconds S --trace 0|1\n       perfbench --self-test [--seed N]";

struct Opts {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--child") {
        child_main(&args[1..]);
        return;
    }
    if args.first().map(String::as_str) == Some("--self-test") {
        let seed = match args.get(1).map(String::as_str) {
            Some("--seed") => {
                args.get(2).and_then(|v| v.parse().ok()).unwrap_or_else(|| die(USAGE))
            }
            None => 1,
            Some(_) => die(USAGE),
        };
        std::process::exit(if self_test(seed) { 0 } else { 1 });
    }
    let opts = parse_opts(&args).unwrap_or_else(|e| die(&format!("{e}\n{USAGE}")));
    match run(&opts) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", opts.workload.name());
            std::process::exit(1);
        }
    }
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(value).ok_or(format!("unknown workload `{value}`"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed needs an integer")?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .ok()
                        .filter(|&s| s > 0)
                        .ok_or("--seconds needs a positive integer")?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace needs 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Opts {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// `--child <workload> <seed> <0|1|setup> <work dir>`: one measured
/// execution (traced with `1`), or one set-up.
fn child_main(args: &[String]) {
    let (Some(workload), Some(seed), Some(mode), Some(work)) = (
        args.first().and_then(|w| Workload::parse(w)),
        args.get(1).and_then(|s| s.parse::<u64>().ok()),
        args.get(2).map(String::as_str),
        args.get(3).map(PathBuf::from),
    ) else {
        die("bad --child arguments")
    };
    rayon::ThreadPoolBuilder::new()
        .num_threads(workload.threads())
        .build_global()
        .unwrap_or_else(|_| die("thread pool"));
    if mode == "setup" {
        if let Err(e) = workload.setup(seed, &work) {
            die(&e);
        }
        return;
    }
    let traced = mode == "1";
    if traced {
        trace::enable();
    }
    let mut out = ChildOut::default();
    if let Err(e) = workload.child(seed, &work, &mut out) {
        die(&e);
    }
    if traced {
        let (spans, counts) = trace::take();
        let selfs = trace::self_times(&spans);
        let ms = |ns: u64| ns as f64 / 1e6;
        let total = trace::root_ns(&spans, workload.root());
        if selfs.values().sum::<u64>() != total {
            die("span self times do not add up to the traced total");
        }
        for (name, ns) in &selfs {
            let key =
                if *name == workload.root() { "trace.other".into() } else { name.to_string() };
            out.set(&format!("{key}_ms"), ms(*ns));
        }
        let shaping =
            ["shape", "shape.predict", "shape.grid"].map(|n| selfs.get(n).copied().unwrap_or(0));
        out.set("shape.ms", ms(shaping.iter().sum()));
        out.set("trace.total_ms", ms(total));
        out.set("trace.spans", spans.len() as f64);
        for (name, n) in counts {
            out.set(name, n as f64);
        }
        let fold_s = out.get("scan.fold_ms") / 1e3;
        if fold_s > 0.0 {
            out.set("scan.rows_per_s", out.get("scan.rows") / fold_s);
        }
        let dump = work.parent().unwrap_or(&work).join(format!("trace-{}.tsv", workload.name()));
        let _ = std::fs::write(dump, trace::to_tsv(&spans));
    }
    print!("{}", out.emit());
}

/// Runs this binary as `--child` and returns its standard output.
fn run_child(workload: Workload, seed: u64, mode: &str, work: &Path) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .arg("--child")
        .arg(workload.name())
        .arg(seed.to_string())
        .arg(mode)
        .arg(work)
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn child: {e}"))?;
    if !output.status.success() {
        return Err(format!("child exited with {}", output.status));
    }
    Ok(String::from_utf8_lossy(&output.stdout).into_owned())
}

/// Spawns one measured child and parses its report.
fn measure(workload: Workload, seed: u64, traced: bool, work: &Path) -> Result<ChildOut, String> {
    ChildOut::parse(&run_child(workload, seed, if traced { "1" } else { "0" }, work)?)
}

/// Runs one set-up in a fresh child process, like a measurement, so no
/// allocator state of one set-up carries into the next; returns its wall
/// time in seconds.
fn setup(workload: Workload, seed: u64, work: &Path) -> Result<f64, String> {
    let t = Instant::now();
    run_child(workload, seed, "setup", work)?;
    Ok(t.elapsed().as_secs_f64())
}

/// A run's scratch directory; removed again when dropped.
struct WorkDir(PathBuf);

impl WorkDir {
    fn create(workload: Workload) -> Result<WorkDir, String> {
        let dir = Path::new(WORK_ROOT).join(format!("{}-{}", workload.name(), std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Runs set-up, then measured children until `--seconds` is used up (at
/// least one; with `--trace 1`, untraced and traced children alternate and
/// at least one of each runs). Returns the JSON result line.
fn run(opts: &Opts) -> Result<String, String> {
    let w = opts.workload;
    let work = WorkDir::create(w)?;
    let setup_s =
        (0..w.setups()).map(|_| setup(w, opts.seed, &work.0)).collect::<Result<Vec<_>, _>>()?;

    let budget = Duration::from_secs(opts.seconds);
    let min_children = if opts.trace { 2 } else { w.min_children() };
    let started = Instant::now();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let (mut attempted, mut failed) = (0u64, 0u64);
    for k in 0u32.. {
        let is_traced = opts.trace && k % 2 == 1;
        match measure(w, opts.seed, is_traced, &work.0) {
            Ok(out) => {
                eprintln!(
                    "perfbench: child {k}{}: wall {:.3} s, peak {:.0} MB",
                    if is_traced { " (traced)" } else { "" },
                    out.get("wall_s"),
                    out.get("peak_rss_mb")
                );
                attempted += out.get("attempted") as u64;
                failed += out.get("failed") as u64;
                if is_traced {
                    traced.push(out)
                } else {
                    plain.push(out)
                }
            }
            Err(e) => {
                eprintln!("perfbench: measured child failed: {e}");
                attempted += 1;
                failed += 1;
            }
        }
        let elapsed = started.elapsed();
        let next = elapsed / (k + 1);
        if k + 1 >= min_children && elapsed + next > budget {
            break;
        }
    }
    if plain.is_empty() || (opts.trace && traced.is_empty()) {
        return Err("no measured child succeeded".into());
    }

    let metrics: Vec<(&str, f64, &str)> = if opts.trace {
        // Per-layer values come from one representative traced child (the
        // median traced total), so its layer self times add up exactly.
        traced.sort_by(|a, b| a.get("trace.total_ms").total_cmp(&b.get("trace.total_ms")));
        let mut rep = traced[(traced.len() - 1) / 2].clone();
        let untraced_ms = median(&plain.iter().map(|c| c.get("wall_s") * 1e3).collect::<Vec<_>>());
        rep.set("trace.overhead_ms", rep.get("trace.total_ms") - untraced_ms);
        for other in &traced {
            for name in DETERMINISTIC {
                if other.get(name) != rep.get(name) {
                    eprintln!("perfbench: count {name} differs between traced runs of one seed");
                    failed += 1;
                }
            }
        }
        PER_LAYER.iter().map(|&(name, unit)| (name, rep.get(name), unit)).collect()
    } else {
        // Each child reports its own percentiles; the run reports the
        // median over children. Recovery is the fastest of the run: some
        // child processes restored about 40% slower throughout than others
        // on the same state, so a median over three flipped between the two.
        END_TO_END
            .iter()
            .map(|&(name, unit)| {
                let per_child = plain.iter().map(|c| c.get(name));
                let value = match name {
                    "setup_s" => median(&setup_s),
                    "recovery_ms" => per_child.fold(f64::INFINITY, f64::min),
                    _ => median(&per_child.collect::<Vec<_>>()),
                };
                (name, value, unit)
            })
            .collect()
    };

    eprintln!(
        "perfbench: {} seed {} — {} untraced + {} traced children, {} of {} operations failed (error_rate {})",
        w.name(),
        opts.seed,
        plain.len(),
        traced.len(),
        failed,
        attempted,
        failed as f64 / attempted.max(1) as f64
    );
    for (name, value, unit) in &metrics {
        eprintln!("  {name:<30} {value:>16.4} {unit}");
    }
    Ok(result_json(failed == 0, attempted, failed, &metrics))
}

fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, f64, &str)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let v = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        body.join(", ")
    )
}

/// Two traced children per workload at one seed must report exactly equal
/// deterministic counts.
fn self_test(seed: u64) -> bool {
    let mut ok = true;
    for w in Workload::ALL {
        let result = (|| -> Result<Vec<String>, String> {
            let work = WorkDir::create(w)?;
            setup(w, seed, &work.0)?;
            let a = measure(w, seed, true, &work.0)?;
            let b = measure(w, seed, true, &work.0)?;
            Ok(DETERMINISTIC
                .iter()
                .filter(|name| a.get(name) != b.get(name))
                .map(|name| format!("{name}: {} vs {}", a.get(name), b.get(name)))
                .collect())
        })();
        match result {
            Ok(diffs) if diffs.is_empty() => println!("{}: deterministic counts repeat", w.name()),
            Ok(diffs) => {
                ok = false;
                println!("{}: counts differ — {}", w.name(), diffs.join(", "));
            }
            Err(e) => {
                ok = false;
                println!("{}: self-test failed: {e}", w.name());
            }
        }
    }
    ok
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric lists here and in `BENCHMARK.json` name the same metrics
    /// with the same units.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let json =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json next to the package");
        let listed = json.matches("\"unit\"").count();
        assert_eq!(listed, END_TO_END.len() + PER_LAYER.len());
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            let entry = format!("\"name\": \"{name}\",\n      \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "{name} ({unit}) missing from BENCHMARK.json");
        }
    }

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(quantile(&[0.0, 10.0], 0.9), 9.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }
}
