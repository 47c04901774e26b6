//! Simulation configuration.

use crowd_core::rng::stream_seed;
use crowd_core::time::Timestamp;

/// Configuration of one simulated marketplace history.
///
/// `scale` controls the *volume* of the dataset relative to the paper's
/// full scale (27M sampled instances at `scale = 1.0`). Instance and batch
/// counts shrink linearly with `scale`; population counts (workers, task
/// types) shrink with `scale.sqrt()` so that per-entity distributions stay
/// populated at small scales. Fractions, medians and effect ratios — the
/// quantities compared against the paper — are scale-invariant.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// RNG seed; equal configs produce bit-identical datasets.
    pub seed: u64,
    /// Volume relative to the paper's dataset (1.0 = full 27M instances).
    pub scale: f64,
    /// First day of the simulated history (paper: July 2012).
    pub start: Timestamp,
    /// Last day (exclusive) of the simulated history (paper: July 2016).
    pub end: Timestamp,
    /// The activity regime change the paper observes around January 2015
    /// (§3.1: "the task arrival plot is relatively sparse until Jan 2015").
    pub regime_change: Timestamp,
    /// Fraction of batches that are fully observed ("sampled", §2.2:
    /// 12k of 58k batches).
    pub sample_fraction: f64,
    /// Fraction of clusters that receive manual labels (§2.4: ~83% of
    /// batches, ~3,200 of the clusters).
    pub label_fraction: f64,
    /// Fraction of judgments routed via the *push* mechanism (§2.1: "the
    /// marketplace makes use of both push and pull mechanisms"; §3.1: push
    /// "reduces latencies for requesters and clears backlogged tasks"). Pushed judgments go to the engaged elite pool with a
    /// fraction of the pull pickup latency. Default 0 (pure pull), as the
    /// §4 latency calibration assumes the typical pull setting.
    pub push_fraction: f64,
}

impl SimConfig {
    /// The paper's timeline with a given seed and scale.
    pub fn new(seed: u64, scale: f64) -> SimConfig {
        assert!(scale > 0.0 && scale <= 1.0, "scale must be in (0, 1]");
        SimConfig {
            seed,
            scale,
            start: Timestamp::from_ymd(2012, 7, 2), // first Monday of July '12
            end: Timestamp::from_ymd(2016, 7, 1),
            regime_change: Timestamp::from_ymd(2015, 1, 1),
            sample_fraction: 12_000.0 / 58_000.0,
            label_fraction: 0.83,
            push_fraction: 0.0,
        }
    }

    /// Default experimentation scale: 1% of the paper's volume
    /// (~270k instances) — large enough for every distributional analysis,
    /// small enough to simulate in seconds.
    pub fn default_scale(seed: u64) -> SimConfig {
        SimConfig::new(seed, 0.01)
    }

    /// Tiny scale for unit/integration tests (~30k instances).
    pub fn tiny(seed: u64) -> SimConfig {
        SimConfig::new(seed, 0.001)
    }

    /// Conformance scale: 5% of the paper's volume (~1.4M instances).
    /// The `crowd-testkit` paper-invariant suite runs at this scale across
    /// several seeds, so effect directions are measured with enough power
    /// to be stable, deterministically per seed.
    pub fn conformance(seed: u64) -> SimConfig {
        SimConfig::new(seed, 0.05)
    }

    /// Full paper scale (27M instances; needs several GB of memory).
    pub fn full(seed: u64) -> SimConfig {
        SimConfig::new(seed, 1.0)
    }

    /// Number of whole weeks in the simulated timeline.
    pub fn n_weeks(&self) -> usize {
        (self.end.week().0 - self.start.week().0).max(0) as usize
    }

    /// Number of days in the simulated timeline.
    pub fn n_days(&self) -> usize {
        (self.end.day_number() - self.start.day_number()).max(0) as usize
    }

    /// Scale factor for population-like counts (workers, task types).
    pub fn population_scale(&self) -> f64 {
        self.scale.sqrt()
    }

    /// Week index (0-based from `start`) of an absolute timestamp.
    pub fn week_of(&self, t: Timestamp) -> usize {
        (t.week().0 - self.start.week().0).max(0) as usize
    }

    /// Day index (0-based from `start`) of an absolute timestamp.
    pub fn day_of(&self, t: Timestamp) -> usize {
        (t.day_number() - self.start.day_number()).max(0) as usize
    }

    /// Week index of the regime change.
    pub fn regime_week(&self) -> usize {
        self.week_of(self.regime_change)
    }

    /// Collision-resistant digest of every generative knob.
    ///
    /// Two configs share a fingerprint exactly when [`crate::simulate()`]
    /// would produce bit-identical datasets from them, so the value can key
    /// caches of simulation output (`crowd-snapshot` does). Thread count,
    /// host, and process state play no part — the digest covers config
    /// fields only.
    pub fn fingerprint(&self) -> u64 {
        // Destructure so adding a SimConfig field without extending the
        // digest is a compile error, not a silent stale-cache hazard.
        let SimConfig {
            seed,
            scale,
            start,
            end,
            regime_change,
            sample_fraction,
            label_fraction,
            push_fraction,
        } = self;
        let mut h = stream_seed(0x534E_4150, *seed); // "SNAP" domain tag
        for field in [
            scale.to_bits(),
            start.as_secs() as u64,
            end.as_secs() as u64,
            regime_change.as_secs() as u64,
            sample_fraction.to_bits(),
            label_fraction.to_bits(),
            push_fraction.to_bits(),
        ] {
            h = stream_seed(h, field);
        }
        h
    }

    /// Enables push routing for a fraction of judgments (builder style).
    #[must_use]
    pub fn with_push_fraction(mut self, fraction: f64) -> SimConfig {
        assert!((0.0..=1.0).contains(&fraction), "push fraction must be in [0, 1]");
        self.push_fraction = fraction;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timeline_spans_the_study() {
        let c = SimConfig::default_scale(1);
        assert_eq!(c.start.ymd(), (2012, 7, 2));
        assert_eq!(c.end.ymd(), (2016, 7, 1));
        // ~4 years of weeks.
        assert!((205..=212).contains(&c.n_weeks()), "weeks = {}", c.n_weeks());
        assert_eq!(c.n_days(), 1460);
    }

    #[test]
    fn regime_change_is_mid_timeline() {
        let c = SimConfig::default_scale(1);
        let rw = c.regime_week();
        assert!(rw > 100 && rw < c.n_weeks(), "regime week {rw}");
    }

    #[test]
    fn week_and_day_indexing() {
        let c = SimConfig::default_scale(1);
        assert_eq!(c.week_of(c.start), 0);
        assert_eq!(c.day_of(c.start), 0);
        assert_eq!(c.day_of(Timestamp::from_ymd(2012, 7, 3)), 1);
    }

    #[test]
    fn population_scale_is_sqrt() {
        let c = SimConfig::new(1, 0.04);
        assert!((c.population_scale() - 0.2).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "scale")]
    fn zero_scale_rejected() {
        let _ = SimConfig::new(1, 0.0);
    }

    #[test]
    fn fingerprint_covers_every_knob() {
        let base = SimConfig::new(7, 0.01);
        assert_eq!(base.fingerprint(), SimConfig::new(7, 0.01).fingerprint());
        let variants = [
            SimConfig::new(8, 0.01),
            SimConfig::new(7, 0.02),
            SimConfig { start: Timestamp::from_ymd(2012, 7, 3), ..base.clone() },
            SimConfig { end: Timestamp::from_ymd(2016, 6, 30), ..base.clone() },
            SimConfig { regime_change: Timestamp::from_ymd(2015, 1, 2), ..base.clone() },
            SimConfig { sample_fraction: 0.5, ..base.clone() },
            SimConfig { label_fraction: 0.5, ..base.clone() },
            base.clone().with_push_fraction(0.25),
        ];
        let mut seen = std::collections::HashSet::new();
        seen.insert(base.fingerprint());
        for (i, v) in variants.iter().enumerate() {
            assert!(seen.insert(v.fingerprint()), "variant {i} collided");
        }
    }
}
