//! Sharded-store memory and wall-clock profile (DESIGN.md §15, §16): cold
//! build (streamed at every shard count), repro-shaped cold build + fused
//! scan, warm start, streamed fused scan, and single-shard load, across
//! scale × shard-count combinations. Numbers land in `BENCH_shard.json`
//! by hand.
//!
//! Peak RSS cannot be measured in-process after the fact — the high-water
//! mark of the parent would be contaminated by earlier configurations —
//! so every measured operation runs in a fresh child process (this same
//! binary re-executed with `--child`) and reports its own `VmHWM` from
//! `/proc/self/status` plus its wall-clock time on stdout.
//!
//! Scales 0.05 and 0.2 run by default; the paper-scale 1.0 point only
//! runs when `CROWD_BENCH_FULL` is set (it simulates ~27M instances).

use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

use crowd_sim::SimConfig;
use crowd_snapshot::{warm, SnapshotStore};

const SEED: u64 = 2017;
const SHARD_COUNTS: [usize; 3] = [1, 4, 16];

fn cfg(scale: f64) -> SimConfig {
    SimConfig::new(SEED, scale)
}

/// Peak resident set size of this process so far, in kilobytes.
fn vmhwm_kb() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status")
}

/// One measured operation, executed inside a fresh child process.
fn run_child(mode: &str, scale: f64, shards: usize, dir: &Path) {
    let store = SnapshotStore::new(dir).with_shards(shards);
    let c = cfg(scale);
    let t0 = Instant::now();
    match mode {
        // Simulate + enrich + write the sharded snapshot (cache priming):
        // the *streaming* build (DESIGN.md §16), entities plus ~one shard
        // resident, sections flushed to disk as they finish.
        "cold_build" => {
            let study = warm::study_from_config(&c, Some(&store));
            black_box(study.n_instances());
        }
        // Cold build *plus* a forced fused scan — the full `repro`-shaped
        // cold run. Separated from `cold_build` because the fused
        // accumulators (per-worker interval lists above all) dominate peak
        // RSS at large scales regardless of how the rows streamed.
        "cold_fused" => {
            let study = warm::study_from_config(&c, Some(&store));
            black_box(study.fused().n_instances());
        }
        // Warm start, as `repro`/`export` do it: entities + enrichment
        // only (columns-optional Study), at every shard count.
        "warm_study" => {
            let study = warm::study_from_config(&c, Some(&store));
            black_box(study.n_instances());
        }
        // Full materializing load: every shard verified and appended into
        // one table (`store.load`) — what derived-parameter rewrites pay.
        // Kept separate from `warm_study`, which never materializes rows.
        "warm_full_load" => {
            let snap = store.load(&c).expect("snapshot must exist and verify");
            black_box(snap.dataset.instances.len());
        }
        // Streamed fused scan: every shard is read, scanned, and dropped
        // in turn — the full instance-level aggregate at a peak RSS of
        // roughly one shard plus accumulator state.
        "warm_fused_stream" => {
            let mut reader = store.open_reader(&c).expect("snapshot must exist and verify");
            let fused = reader.fused().expect("streamed fused scan");
            black_box(format!("{fused:?}").len());
        }
        // Partial load: verify the header and meta, then read exactly one
        // shard — the "touch only what the query needs" path.
        "warm_one_shard" => {
            let mut reader = store.open_reader(&c).expect("snapshot must exist and verify");
            let shard = reader.read_shard(0).expect("shard 0 must verify");
            black_box(shard.len());
        }
        other => panic!("unknown child mode `{other}`"),
    }
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    println!("CHILD_RESULT mode={mode} wall_ms={wall_ms:.1} vmhwm_kb={}", vmhwm_kb());
}

/// Spawns this binary as a measurement child and parses its report.
fn measure(mode: &str, scale: f64, shards: usize, dir: &Path) -> (f64, u64) {
    let out = Command::new(std::env::current_exe().expect("current exe"))
        .args(["--child", mode])
        .arg(scale.to_string())
        .arg(shards.to_string())
        .arg(dir)
        .output()
        .expect("spawn measurement child");
    assert!(
        out.status.success(),
        "child {mode} scale={scale} shards={shards} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout
        .lines()
        .find(|l| l.starts_with("CHILD_RESULT"))
        .unwrap_or_else(|| panic!("no CHILD_RESULT in child output:\n{stdout}"));
    let field = |key: &str| {
        line.split_whitespace()
            .find_map(|w| w.strip_prefix(&format!("{key}=")))
            .unwrap_or_else(|| panic!("missing {key} in `{line}`"))
            .to_string()
    };
    (field("wall_ms").parse().expect("wall_ms"), field("vmhwm_kb").parse().expect("vmhwm_kb"))
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if let Some(i) = args.iter().position(|a| a == "--child") {
        let mode = &args[i + 1];
        let scale: f64 = args[i + 2].parse().expect("scale");
        let shards: usize = args[i + 3].parse().expect("shards");
        run_child(mode, scale, shards, Path::new(&args[i + 4]));
        return;
    }

    let mut scales = vec![0.05, 0.2];
    if std::env::var_os("CROWD_BENCH_FULL").is_some() {
        scales.push(1.0);
    } else {
        eprintln!("note: scale 1.0 skipped — set CROWD_BENCH_FULL to include it");
    }

    let base: PathBuf =
        std::env::temp_dir().join(format!("crowd-bench-shard-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);

    println!("{:>5} {:>6} {:>18} {:>12} {:>12}", "scale", "shards", "mode", "wall_ms", "vmhwm_kb");
    for &scale in &scales {
        for shards in SHARD_COUNTS {
            let dir = base.join(format!("s{scale}-n{shards}"));
            // Cold primes the store; the warm modes then reuse it. Each
            // warm mode runs twice and keeps the faster run (page cache
            // warm, same policy as taking a median with tiny samples).
            let (wall, rss) = measure("cold_build", scale, shards, &dir);
            println!("{scale:>5} {shards:>6} {:>18} {wall:>12.1} {rss:>12}", "cold_build");
            for mode in ["warm_study", "warm_full_load", "warm_fused_stream", "warm_one_shard"] {
                let (w1, r1) = measure(mode, scale, shards, &dir);
                let (w2, r2) = measure(mode, scale, shards, &dir);
                let (wall, rss) = (w1.min(w2), r1.max(r2));
                println!("{scale:>5} {shards:>6} {mode:>18} {wall:>12.1} {rss:>12}");
            }
            let _ = std::fs::remove_dir_all(&dir);
            // The repro-shaped cold run needs its own empty store.
            let fused_dir = base.join(format!("s{scale}-n{shards}-fused"));
            let (wall, rss) = measure("cold_fused", scale, shards, &fused_dir);
            println!("{scale:>5} {shards:>6} {:>18} {wall:>12.1} {rss:>12}", "cold_fused");
            let _ = std::fs::remove_dir_all(&fused_dir);
        }
    }
    let _ = std::fs::remove_dir_all(&base);
}
