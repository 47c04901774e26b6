//! Bounded retry with exponential backoff, on an injected clock.
//!
//! Transient IO errors (`Interrupted`, `WouldBlock`) are retried in place
//! with exponentially growing delays; everything else is surfaced
//! immediately. The clock is a trait so tests drive the policy with a
//! [`ManualClock`] that records sleeps instead of performing them — the
//! whole retry suite runs in zero wall-clock time.

use std::io::{self, Read};
use std::sync::Mutex;
use std::time::Duration;

use crowd_core::error::CoreError;

/// Sleep provider for backoff delays.
pub trait Clock: Send + Sync {
    /// Waits for `d` (or pretends to).
    fn sleep(&self, d: Duration);
}

/// The real clock: `std::thread::sleep`.
#[derive(Debug, Clone, Copy, Default)]
pub struct SystemClock;

impl Clock for SystemClock {
    fn sleep(&self, d: Duration) {
        std::thread::sleep(d);
    }
}

/// A test clock: records requested sleeps, never blocks.
#[derive(Debug, Default)]
pub struct ManualClock {
    slept: Mutex<Vec<Duration>>,
}

impl ManualClock {
    /// A fresh manual clock.
    pub fn new() -> ManualClock {
        ManualClock::default()
    }

    /// Every sleep requested so far, in order.
    pub fn slept(&self) -> Vec<Duration> {
        self.slept.lock().expect("clock lock").clone()
    }

    /// Total virtual time slept.
    pub fn total_slept(&self) -> Duration {
        self.slept().iter().sum()
    }
}

impl Clock for ManualClock {
    fn sleep(&self, d: Duration) {
        self.slept.lock().expect("clock lock").push(d);
    }
}

/// Exponential backoff policy: retry `r` waits `min(cap, base · factor^r)`,
/// optionally jittered (seeded, deterministic) so concurrent retriers
/// hitting the same contended resource don't synchronize their retries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Backoff {
    /// Retries allowed after the initial attempt.
    pub max_retries: u32,
    /// Delay before the first retry.
    pub base: Duration,
    /// Multiplier between consecutive delays.
    pub factor: u32,
    /// Upper bound on any single delay.
    pub cap: Duration,
    /// When set, each delay is jittered into `[delay/2, delay]` by a
    /// deterministic function of `(seed, retry)` — replayable in tests,
    /// decorrelated across retriers that use distinct seeds.
    pub jitter_seed: Option<u64>,
}

impl Default for Backoff {
    fn default() -> Backoff {
        Backoff {
            max_retries: 4,
            base: Duration::from_millis(10),
            factor: 2,
            cap: Duration::from_secs(1),
            jitter_seed: None,
        }
    }
}

impl Backoff {
    /// No retries: the first transient error is terminal.
    pub const fn none() -> Backoff {
        Backoff {
            max_retries: 0,
            base: Duration::ZERO,
            factor: 1,
            cap: Duration::ZERO,
            jitter_seed: None,
        }
    }

    /// Enables seeded jitter. Give each concurrent retrier its own seed
    /// (stream id, table index, thread ordinal) so their schedules
    /// decorrelate; the same seed always produces the same schedule.
    pub fn with_jitter(mut self, seed: u64) -> Backoff {
        self.jitter_seed = Some(seed);
        self
    }

    /// Delay before retry number `retry` (0-based). With jitter enabled
    /// the exponential delay `d` becomes a deterministic point in
    /// `[d/2, d]`, so jitter never exceeds the un-jittered schedule (and
    /// therefore never exceeds `cap`).
    pub fn delay(&self, retry: u32) -> Duration {
        let mult = self.factor.saturating_pow(retry.min(20));
        let full = self.base.saturating_mul(mult).min(self.cap);
        let Some(seed) = self.jitter_seed else { return full };
        let nanos = u64::try_from(full.as_nanos()).unwrap_or(u64::MAX);
        if nanos < 2 {
            return full;
        }
        let half = nanos / 2;
        let offset = crowd_core::rng::stream_seed(seed, u64::from(retry)) % (nanos - half + 1);
        Duration::from_nanos(half + offset)
    }
}

/// Whether an IO error is worth retrying in place (`Interrupted`,
/// `WouldBlock`), as opposed to a permanent failure.
pub fn is_transient(e: &io::Error) -> bool {
    matches!(e.kind(), io::ErrorKind::Interrupted | io::ErrorKind::WouldBlock)
}

/// Runs `op`, retrying transient errors under `backoff` on `clock`.
/// Returns `op`'s last result plus the number of retries spent; any other
/// error, or a transient one once the retries run out, ends the loop.
/// `op` must be safe to run again from the start after a failure.
pub fn retry_transient<T>(
    backoff: &Backoff,
    clock: &dyn Clock,
    mut op: impl FnMut() -> io::Result<T>,
) -> (io::Result<T>, u32) {
    let mut retries = 0u32;
    loop {
        match op() {
            Err(e) if is_transient(&e) && retries < backoff.max_retries => {
                clock.sleep(backoff.delay(retries));
                retries += 1;
            }
            result => return (result, retries),
        }
    }
}

/// Reads `r` to the end, retrying transient errors under `backoff` on
/// `clock`. Returns the bytes plus the number of retries spent.
///
/// Hand-rolled rather than `read_to_end` because std swallows
/// `Interrupted` silently — the whole point here is to *count* and bound
/// those, then surface exhaustion as a typed
/// [`CoreError::IoExhausted`].
pub fn read_all_with_retry(
    r: &mut dyn Read,
    table: &'static str,
    backoff: &Backoff,
    clock: &dyn Clock,
) -> Result<(Vec<u8>, u32), CoreError> {
    let mut buf = Vec::new();
    let mut chunk = [0u8; 8192];
    let mut retries = 0u32;
    loop {
        match r.read(&mut chunk) {
            Ok(0) => return Ok((buf, retries)),
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) if is_transient(&e) => {
                if retries >= backoff.max_retries {
                    return Err(CoreError::IoExhausted {
                        table,
                        attempts: retries + 1,
                        message: e.to_string(),
                    });
                }
                clock.sleep(backoff.delay(retries));
                retries += 1;
            }
            Err(e) => {
                return Err(CoreError::Csv { line: 0, message: format!("{table}: {e}") });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{ChaosReader, Fault, FaultPlan};
    use std::io::Cursor;

    #[test]
    fn delays_grow_exponentially_and_cap() {
        let b = Backoff {
            max_retries: 10,
            base: Duration::from_millis(10),
            factor: 2,
            cap: Duration::from_millis(55),
            jitter_seed: None,
        };
        assert_eq!(b.delay(0), Duration::from_millis(10));
        assert_eq!(b.delay(1), Duration::from_millis(20));
        assert_eq!(b.delay(2), Duration::from_millis(40));
        assert_eq!(b.delay(3), Duration::from_millis(55), "capped");
        assert_eq!(b.delay(31), Duration::from_millis(55), "no overflow");
    }

    #[test]
    fn jittered_delays_are_deterministic_per_seed_and_stay_in_band() {
        let base = Backoff {
            max_retries: 10,
            base: Duration::from_millis(10),
            factor: 2,
            cap: Duration::from_millis(400),
            jitter_seed: None,
        };
        let a = base.with_jitter(7);
        let b = base.with_jitter(7);
        let c = base.with_jitter(8);
        for retry in 0..8 {
            let full = base.delay(retry);
            let jittered = a.delay(retry);
            assert_eq!(jittered, b.delay(retry), "same seed, same schedule");
            assert!(
                jittered >= full / 2 && jittered <= full,
                "retry {retry}: {jittered:?} outside [{:?}, {full:?}]",
                full / 2
            );
            assert!(jittered <= base.cap, "jitter must respect the cap");
        }
        // Distinct seeds must actually decorrelate: at least one retry in
        // the schedule differs.
        assert!(
            (0..8).any(|r| a.delay(r) != c.delay(r)),
            "seeds 7 and 8 produced identical schedules"
        );
    }

    #[test]
    fn jittered_schedule_is_pinned_per_seed_on_a_manual_clock() {
        // The exact virtual schedule for seed 42 is part of the contract:
        // a change to the jitter function shows up here, not as an
        // unexplained flake in a chaos run.
        let plan =
            FaultPlan::single(Fault::Transient { first_call: 1, times: 3, would_block: true });
        let mut r = ChaosReader::new(Cursor::new(b"hello world".to_vec()), &plan);
        let clock = ManualClock::new();
        let backoff = Backoff::default().with_jitter(42);
        let (bytes, retries) = read_all_with_retry(&mut r, "workers", &backoff, &clock).unwrap();
        assert_eq!(bytes, b"hello world");
        assert_eq!(retries, 3);
        let expect: Vec<Duration> = (0..3).map(|r| backoff.delay(r)).collect();
        assert_eq!(clock.slept(), expect, "sleeps must follow the seeded schedule exactly");
        // And that schedule is genuinely jittered relative to the raw one.
        let raw = Backoff::default();
        assert!(
            (0..3).any(|r| backoff.delay(r) != raw.delay(r)),
            "seed 42 left the schedule unjittered"
        );
    }

    #[test]
    fn transient_errors_are_retried_to_success() {
        let plan =
            FaultPlan::single(Fault::Transient { first_call: 1, times: 3, would_block: true });
        let mut r = ChaosReader::new(Cursor::new(b"hello world".to_vec()), &plan);
        let clock = ManualClock::new();
        let (bytes, retries) =
            read_all_with_retry(&mut r, "workers", &Backoff::default(), &clock).unwrap();
        assert_eq!(bytes, b"hello world");
        assert_eq!(retries, 3);
        let slept = clock.slept();
        assert_eq!(slept.len(), 3, "one sleep per retry");
        assert!(slept[0] < slept[1] && slept[1] < slept[2], "growing delays");
    }

    #[test]
    fn exhaustion_is_a_typed_error() {
        let plan =
            FaultPlan::single(Fault::Transient { first_call: 0, times: 99, would_block: false });
        let mut r = ChaosReader::new(Cursor::new(b"data".to_vec()), &plan);
        let clock = ManualClock::new();
        let backoff = Backoff { max_retries: 2, ..Backoff::default() };
        let err = read_all_with_retry(&mut r, "batches", &backoff, &clock).unwrap_err();
        match err {
            CoreError::IoExhausted { table, attempts, .. } => {
                assert_eq!(table, "batches");
                assert_eq!(attempts, 3, "initial try + 2 retries");
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(clock.slept().len(), 2);
    }

    #[test]
    fn zero_retry_policy_fails_immediately() {
        let plan =
            FaultPlan::single(Fault::Transient { first_call: 0, times: 1, would_block: false });
        let mut r = ChaosReader::new(Cursor::new(b"data".to_vec()), &plan);
        let clock = ManualClock::new();
        let err = read_all_with_retry(&mut r, "sources", &Backoff::none(), &clock).unwrap_err();
        assert!(matches!(err, CoreError::IoExhausted { attempts: 1, .. }));
        assert!(clock.slept().is_empty(), "no sleeps on a zero-retry policy");
    }

    #[test]
    fn clean_stream_spends_no_retries() {
        let mut r = Cursor::new(b"a,b\n1,2\n".to_vec());
        let clock = ManualClock::new();
        let (bytes, retries) =
            read_all_with_retry(&mut r, "sources", &Backoff::default(), &clock).unwrap();
        assert_eq!(retries, 0);
        assert_eq!(bytes.len(), 8);
        assert_eq!(clock.total_slept(), Duration::ZERO);
    }
}
