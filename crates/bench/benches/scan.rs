//! Scan-engine bench: one fused [`crowd_core::ScanPass`] carrying several
//! accumulators versus the pre-refactor shape of one full-table pass per
//! analytics module. The six accumulators (see [`crowd_bench::shapes`])
//! mirror the state the analytics layer actually folds — the same shapes
//! the CI perf gate (`benches/gate.rs`) re-measures against the baseline.
//!
//! Besides the criterion timings, the run measures rows-scanned/sec for
//! both shapes directly, plus the real fused pass's throughput growth from
//! scale 0.05 to 0.2 (`fused_throughput_scale_ratio`), and writes them to
//! `BENCH_scan.json` at the workspace root, next to `BENCH_parallel.json`.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use crowd_bench::bench_study;
use crowd_bench::shapes::{fused_scale, measure, run_fused, run_per_module, scan_speedup, MODULES};
use crowd_core::dataset::Dataset;

fn write_report(ds: &Dataset) {
    let (fused_s, fused_rows) = measure(5, || run_fused(ds));
    let (seq_s, seq_rows) = measure(5, || run_per_module(ds));
    let speedup = scan_speedup(ds);
    let (small_rps, large_rps, scale_ratio) = fused_scale();
    let json = format!(
        r#"{{
  "benchmark": "crates/bench/benches/scan.rs",
  "command": "cargo bench -p crowd-bench --bench scan",
  "workload": "SimConfig::tiny(BENCH_SEED), {n} instances, {modules} analytics-shaped accumulators",
  "results": {{
    "fused_one_pass": {{ "median_ms": {fused_ms:.1}, "rows_scanned": {fused_rows}, "rows_per_sec": {fused_rps:.0} }},
    "per_module_passes": {{ "median_ms": {seq_ms:.1}, "rows_scanned": {seq_rows}, "rows_per_sec": {seq_rps:.0} }}
  }},
  "speedup_to_same_outputs": {speedup:.2},
  "fused_scale": {{ "rows_per_sec_at_0.05": {small_rps:.0}, "rows_per_sec_at_0.2": {large_rps:.0} }},
  "fused_throughput_scale_ratio": {scale_ratio:.2},
  "note": "rows_per_sec is raw scan throughput; the fused pass reaches the same {modules} outputs having scanned {modules}x fewer rows. repro/export fuse all instance-level analytics into one such pass (tests/scan_fusion.rs). speedup_to_same_outputs is the median over 51 rounds, each timing both sides back to back and alternating which runs first, of per-module time over fused time (median_ms are medians of 5 separate runs). fused_scale is the full fused pass (crowd_analytics::fused::compute) at SimConfig::new(BENCH_SEED, scale), one process and pool, both scales timed in each of 15 such rounds: rows_per_sec at each side's median time, fused_throughput_scale_ratio the median of the per-round ratios. The CI perf gate re-measures both ratios the same way."
}}
"#,
        n = ds.instances.len(),
        modules = MODULES,
        fused_ms = fused_s * 1e3,
        fused_rps = fused_rows as f64 / fused_s,
        seq_ms = seq_s * 1e3,
        seq_rows = seq_rows,
        seq_rps = seq_rows as f64 / seq_s,
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_scan.json");
    match std::fs::write(path, json) {
        Ok(()) => eprintln!("[scan] wrote {path}"),
        Err(e) => eprintln!("[scan] could not write {path}: {e}"),
    }
}

fn bench_scan(c: &mut Criterion) {
    let ds = bench_study().dataset();
    let n = ds.instances.len() as u64;
    let mut g = c.benchmark_group("scan");
    g.sample_size(10);
    g.throughput(Throughput::Elements(n));
    g.bench_function("fused_one_pass", |b| b.iter(|| run_fused(ds)));
    g.throughput(Throughput::Elements(MODULES * n));
    g.bench_function("per_module_passes", |b| b.iter(|| run_per_module(ds)));
    g.finish();
    write_report(ds);
}

criterion_group!(scan, bench_scan);
criterion_main!(scan);
