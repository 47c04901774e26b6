//! # crowd-bench
//!
//! Criterion benches (under `benches/`) and their shared fixtures: the CI
//! perf gate and the runs behind the `BENCH_*.json` baselines, substrate
//! timings, and the design-choice ablations. The cost of regenerating the
//! figures themselves is measured end to end by perfbench.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod shapes;

use std::sync::OnceLock;

use crowd_analytics::Study;
use crowd_sim::{simulate, SimConfig};

/// Fixed seed used by every benchmark, for comparable runs.
pub const BENCH_SEED: u64 = 0xBE7C;

/// A lazily built, process-wide benchmark study at test scale
/// (≈30k instances) so criterion iterations measure analysis, not
/// simulation.
pub fn bench_study() -> &'static Study {
    static STUDY: OnceLock<Study> = OnceLock::new();
    STUDY.get_or_init(|| Study::new(simulate(&SimConfig::tiny(BENCH_SEED))))
}

/// A small config for benchmarking the simulator itself.
pub fn bench_sim_config() -> SimConfig {
    SimConfig::tiny(BENCH_SEED)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixture_builds_once_and_is_nonempty() {
        let a = bench_study() as *const Study;
        let b = bench_study() as *const Study;
        assert_eq!(a, b, "cached");
        assert!(!bench_study().clusters().is_empty());
    }
}
