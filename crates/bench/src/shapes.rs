//! Analytics-shaped accumulators shared by the scan bench and the perf
//! gate: the six states the analytics layer actually folds (daily arrival
//! counts, weekday histogram, trust and work-time sums, per-worker and
//! per-item tallies), plus the fused-vs-per-module runners built on them.
//! Keeping them in one place means the checked-in `BENCH_scan.json`
//! baseline and the CI regression gate measure the identical workload.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use crowd_analytics::FusedView;
use crowd_core::dataset::{Dataset, InstanceColumns};
use crowd_core::{Accumulator, ScanPass};

/// Instances issued per day — `arrivals::daily_load` shape.
#[derive(Debug, Default)]
pub struct DailyIssued(pub BTreeMap<i64, u64>);

impl Accumulator for DailyIssued {
    type Output = BTreeMap<i64, u64>;
    fn init(&self) -> Self {
        DailyIssued::default()
    }
    fn accept_chunk(
        &mut self,
        _ds: &Dataset,
        _base: usize,
        cols: &InstanceColumns,
        range: std::ops::Range<usize>,
    ) {
        for s in &cols.start_col()[range] {
            *self.0.entry(s.day_number()).or_insert(0) += 1;
        }
    }
    fn merge(&mut self, other: Self) {
        for (day, n) in other.0 {
            *self.0.entry(day).or_insert(0) += n;
        }
    }
    fn finish(self, _ds: &Dataset) -> Self::Output {
        self.0
    }
}

/// Instances by day of week — `arrivals::by_weekday` shape.
#[derive(Debug, Default)]
pub struct WeekdayHist(pub [u64; 7]);

impl Accumulator for WeekdayHist {
    type Output = [u64; 7];
    fn init(&self) -> Self {
        WeekdayHist::default()
    }
    fn accept_chunk(
        &mut self,
        _ds: &Dataset,
        _base: usize,
        cols: &InstanceColumns,
        range: std::ops::Range<usize>,
    ) {
        for s in &cols.start_col()[range] {
            self.0[s.weekday().index()] += 1;
        }
    }
    fn merge(&mut self, other: Self) {
        for (a, b) in self.0.iter_mut().zip(other.0) {
            *a += b;
        }
    }
    fn finish(self, _ds: &Dataset) -> Self::Output {
        self.0
    }
}

/// Order-sensitive float fold — `sources`/`lifetimes` trust shape.
#[derive(Debug, Default)]
pub struct TrustSum(pub f64);

impl Accumulator for TrustSum {
    type Output = f64;
    fn init(&self) -> Self {
        TrustSum::default()
    }
    fn accept_chunk(
        &mut self,
        _ds: &Dataset,
        _base: usize,
        cols: &InstanceColumns,
        range: std::ops::Range<usize>,
    ) {
        for &t in &cols.trust_col()[range] {
            self.0 += f64::from(t);
        }
    }
    fn merge(&mut self, other: Self) {
        self.0 += other.0;
    }
    fn finish(self, _ds: &Dataset) -> Self::Output {
        self.0
    }
}

/// Total seconds worked — `availability::engagement_split` hours shape.
#[derive(Debug, Default)]
pub struct WorkSecs(pub f64);

impl Accumulator for WorkSecs {
    type Output = f64;
    fn init(&self) -> Self {
        WorkSecs::default()
    }
    fn accept_chunk(
        &mut self,
        _ds: &Dataset,
        _base: usize,
        cols: &InstanceColumns,
        range: std::ops::Range<usize>,
    ) {
        let starts = &cols.start_col()[range.clone()];
        let ends = &cols.end_col()[range];
        for (&s, &e) in starts.iter().zip(ends) {
            self.0 += (e - s).as_secs() as f64;
        }
    }
    fn merge(&mut self, other: Self) {
        self.0 += other.0;
    }
    fn finish(self, _ds: &Dataset) -> Self::Output {
        self.0
    }
}

/// Tasks per worker — `workload::distribution` shape.
#[derive(Debug, Default)]
pub struct PerWorkerTasks(pub BTreeMap<u32, u64>);

impl Accumulator for PerWorkerTasks {
    type Output = BTreeMap<u32, u64>;
    fn init(&self) -> Self {
        PerWorkerTasks::default()
    }
    fn accept_chunk(
        &mut self,
        _ds: &Dataset,
        _base: usize,
        cols: &InstanceColumns,
        range: std::ops::Range<usize>,
    ) {
        for w in &cols.worker_col()[range] {
            *self.0.entry(w.raw()).or_insert(0) += 1;
        }
    }
    fn merge(&mut self, other: Self) {
        for (w, n) in other.0 {
            *self.0.entry(w).or_insert(0) += n;
        }
    }
    fn finish(self, _ds: &Dataset) -> Self::Output {
        self.0
    }
}

/// Judgments per item — `redundancy` shape.
#[derive(Debug, Default)]
pub struct PerItemJudgments(pub BTreeMap<(u32, u32), u32>);

impl Accumulator for PerItemJudgments {
    type Output = BTreeMap<(u32, u32), u32>;
    fn init(&self) -> Self {
        PerItemJudgments::default()
    }
    fn accept_chunk(
        &mut self,
        _ds: &Dataset,
        _base: usize,
        cols: &InstanceColumns,
        range: std::ops::Range<usize>,
    ) {
        let batches = &cols.batch_col()[range.clone()];
        let items = &cols.item_col()[range];
        for (b, i) in batches.iter().zip(items) {
            *self.0.entry((b.raw(), i.raw())).or_insert(0) += 1;
        }
    }
    fn merge(&mut self, other: Self) {
        for (k, n) in other.0 {
            *self.0.entry(k).or_insert(0) += n;
        }
    }
    fn finish(self, _ds: &Dataset) -> Self::Output {
        self.0
    }
}

/// Number of analytics modules the per-module shape simulates.
pub const MODULES: u64 = 6;

/// One fused pass carrying all six accumulators; returns rows scanned.
pub fn run_fused(ds: &Dataset) -> u64 {
    let proto = (
        DailyIssued::default(),
        WeekdayHist::default(),
        TrustSum::default(),
        WorkSecs::default(),
        PerWorkerTasks::default(),
        PerItemJudgments::default(),
    );
    let out = ScanPass::run(ds, &proto);
    black_box(&out);
    ds.instances.len() as u64
}

/// The pre-refactor shape: one full-table pass per module.
pub fn run_per_module(ds: &Dataset) -> u64 {
    black_box(ScanPass::run(ds, &DailyIssued::default()));
    black_box(ScanPass::run(ds, &WeekdayHist::default()));
    black_box(ScanPass::run(ds, &TrustSum::default()));
    black_box(ScanPass::run(ds, &WorkSecs::default()));
    black_box(ScanPass::run(ds, &PerWorkerTasks::default()));
    black_box(ScanPass::run(ds, &PerItemJudgments::default()));
    MODULES * ds.instances.len() as u64
}

/// Incremental refresh vs rebuild-from-zero for the live fused view:
/// applies `rows` to a [`FusedView`] in `delta`-row batches once, then
/// rebuilds a fresh view over the full prefix at every one of those same
/// boundaries — the cost a naive "recompute on refresh" service pays.
/// Returns rebuild-time / incremental-time (bigger is better), the median
/// of 21 rounds that time both sides back to back ([`median_of_rounds`]).
///
/// The shape of the ratio is what the gate pins: with D equal deltas the
/// rebuild side scans ~D/2 times more rows, so the ratio collapses
/// toward 1 exactly when `FusedView::apply` degrades into re-folding the
/// whole accumulated prefix per delta — the regression this guards.
pub fn view_rebuild_ratio(entities: &Arc<Dataset>, rows: &InstanceColumns, delta: usize) -> f64 {
    let n = rows.len();
    assert!(n > 0 && delta > 0, "ratio needs a non-empty workload");
    let mut cuts = Vec::new();
    let mut at = 0;
    while at < n {
        at = (at + delta).min(n);
        cuts.push(at);
    }
    let deltas: Vec<InstanceColumns> = cuts
        .iter()
        .scan(0, |prev, &cut| {
            let d = rows.clone_range(*prev..cut);
            *prev = cut;
            Some(d)
        })
        .collect();
    let prefixes: Vec<InstanceColumns> = cuts.iter().map(|&cut| rows.clone_range(0..cut)).collect();

    let incremental = || {
        let mut view = FusedView::new(Arc::clone(entities));
        let mut last = 0;
        for d in &deltas {
            last = view.apply(d).fused.n_instances();
        }
        assert_eq!(last, n as u64);
        last
    };
    let rebuild = || {
        let mut last = 0;
        for p in &prefixes {
            let mut view = FusedView::new(Arc::clone(entities));
            last = view.apply(p).fused.n_instances();
        }
        last
    };
    let rounds = alternating_rounds(21, incremental, rebuild);
    median_of_rounds(&rounds, |incremental, rebuild| rebuild / incremental)
}

/// Median wall-clock of `runs` calls to `f`, with the value `f` returned.
pub fn measure(runs: usize, mut f: impl FnMut() -> u64) -> (f64, u64) {
    let mut times: Vec<f64> = Vec::with_capacity(runs);
    let mut out = 0;
    for _ in 0..runs {
        let t = Instant::now();
        out = f();
        times.push(t.elapsed().as_secs_f64());
    }
    times.sort_by(f64::total_cmp);
    (times[times.len() / 2], out)
}

/// Seconds taken by `a` and by `b` in each of `rounds` rounds that time
/// the two back to back, alternating which of them runs first.
pub fn alternating_rounds(
    rounds: usize,
    mut a: impl FnMut() -> u64,
    mut b: impl FnMut() -> u64,
) -> Vec<(f64, f64)> {
    let time = |f: &mut dyn FnMut() -> u64| {
        let t = Instant::now();
        black_box(f());
        t.elapsed().as_secs_f64()
    };
    (0..rounds)
        .map(|round| {
            if round % 2 == 0 {
                let ta = time(&mut a);
                (ta, time(&mut b))
            } else {
                let tb = time(&mut b);
                (time(&mut a), tb)
            }
        })
        .collect()
}

/// The median over `rounds` of `f(seconds of a, seconds of b)`. Pairing
/// the sides round by round makes host noise that outlasts a round slow
/// both sides of it alike, and the median drops the rounds a shorter
/// burst hit. On a shared 2-core host this holds a ratio steadier than
/// dividing two separately taken medians or minima, and minima bias it:
/// the shorter side is likelier to hit a quiet spell.
pub fn median_of_rounds(rounds: &[(f64, f64)], f: impl Fn(f64, f64) -> f64) -> f64 {
    let mut v: Vec<f64> = rounds.iter().map(|&(a, b)| f(a, b)).collect();
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

/// `speedup_to_same_outputs`: one pass per module over one fused pass on
/// `ds`, the median of 51 paired rounds (a side takes ~5 ms on the bench
/// study).
pub fn scan_speedup(ds: &Dataset) -> f64 {
    let rounds = alternating_rounds(51, || run_fused(ds), || run_per_module(ds));
    median_of_rounds(&rounds, |fused, per_module| per_module / fused)
}

/// Fused-pass throughput from scale 0.05 to 0.2: the full pass
/// (`crowd_analytics::fused::compute`) over studies simulated at
/// `SimConfig::new(BENCH_SEED, scale)`, both timed in each of 15
/// alternating rounds in the current rayon pool. Returns rows/s at 0.05
/// and at 0.2, each at its median time, and
/// `fused_throughput_scale_ratio`: the median over rounds of the 0.2
/// rows/s over the 0.05 rows/s. A scan linear in its rows scores ≈ 1;
/// state that grows faster than the rows (a merge quadratic in the keys,
/// per-chunk state that scales with the table) drags the large side
/// down, which fixed-size throughput ratios cannot see.
pub fn fused_scale() -> (f64, f64, f64) {
    let study = |scale| {
        crowd_analytics::Study::new(crowd_sim::simulate(&crowd_sim::SimConfig::new(
            crate::BENCH_SEED,
            scale,
        )))
    };
    let (small, large) = (study(0.05), study(0.2));
    let (n_small, n_large) = (small.n_instances() as f64, large.n_instances() as f64);
    let scan = |s: &crowd_analytics::Study| {
        black_box(crowd_analytics::fused::compute(s));
        s.n_instances() as u64
    };
    let rounds = alternating_rounds(15, || scan(&small), || scan(&large));
    (
        n_small / median_of_rounds(&rounds, |s, _| s),
        n_large / median_of_rounds(&rounds, |_, l| l),
        median_of_rounds(&rounds, |s, l| (n_large / l) / (n_small / s)),
    )
}

/// `fused_throughput_scale_ratio` alone (see [`fused_scale`]).
pub fn fused_scale_ratio() -> f64 {
    fused_scale().2
}
