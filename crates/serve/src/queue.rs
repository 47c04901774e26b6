//! Bounded admission queue between event producers and the single
//! writer, with an explicit overload policy.
//!
//! The live service is single-writer by design; when producers outpace
//! `apply_events`, *something* has to give. This queue makes that
//! something a named, counted policy instead of unbounded memory growth:
//!
//! - [`ShedPolicy::Block`] — lossless backpressure: `push` blocks until
//!   the writer drains a slot. Producers slow to the apply rate.
//! - [`ShedPolicy::ShedOldest`] — bounded loss: a full queue drops its
//!   *oldest* queued batch to admit the new one, keeping the served view
//!   fresh at the cost of a gap. Shed batches are counted and are **not
//!   accepted** — they never reach the WAL, so the durability guarantee
//!   ("every accepted event survives a crash") is unaffected.
//! - [`ShedPolicy::DegradeStale`] — lossless, unbounded admission: the
//!   queue grows past its cap and the served snapshot goes stale; the
//!   writer catches up with coalesced applies ([`ApplyQueue::pop_all`])
//!   and the lag is read from [`ApplyQueue::pending`].
//!
//! The queue is the one owner of its counters: [`QueueStats`] and
//! [`ApplyQueue::pending`]. The serve binary prints them from here; no
//! other struct keeps a copy.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

use crowd_ingest::MarketEvent;

/// What to do when producers outpace the writer and the queue is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ShedPolicy {
    /// Block the producer until the writer frees a slot (lossless).
    #[default]
    Block,
    /// Drop the oldest queued batch to admit the new one (bounded loss,
    /// freshest-wins; shed events are never accepted).
    ShedOldest,
    /// Admit unboundedly and let the served snapshot go stale; the lag is
    /// observable through [`ApplyQueue::pending`].
    DegradeStale,
}

impl ShedPolicy {
    /// Parses the `--shed-policy` CLI spelling.
    pub fn parse(s: &str) -> Option<ShedPolicy> {
        match s {
            "block" => Some(ShedPolicy::Block),
            "shed-oldest" => Some(ShedPolicy::ShedOldest),
            "degrade-stale" => Some(ShedPolicy::DegradeStale),
            _ => None,
        }
    }

    /// The CLI spelling.
    pub fn name(self) -> &'static str {
        match self {
            ShedPolicy::Block => "block",
            ShedPolicy::ShedOldest => "shed-oldest",
            ShedPolicy::DegradeStale => "degrade-stale",
        }
    }
}

/// Outcome of one [`ApplyQueue::push`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// The batch was queued (possibly after blocking).
    Admitted,
    /// The batch was queued, and the *oldest* queued batch was dropped to
    /// make room (`ShedPolicy::ShedOldest` on a full queue).
    Shed {
        /// Events inside the dropped batch.
        dropped_events: u64,
    },
    /// The queue was closed; the batch was refused.
    Closed,
}

/// Monotone queue counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Batches admitted.
    pub admitted_batches: u64,
    /// Events inside admitted batches.
    pub admitted_events: u64,
    /// Batches dropped by `ShedOldest`.
    pub shed_batches: u64,
    /// Events inside dropped batches.
    pub shed_events: u64,
    /// Pushes that had to block (`Block` policy on a full queue).
    pub blocked_pushes: u64,
    /// Deepest the queue has been, in batches.
    pub peak_depth: u64,
}

struct Inner {
    queue: VecDeque<Vec<MarketEvent>>,
    pending_events: u64,
    closed: bool,
    stats: QueueStats,
}

/// A bounded multi-producer / single-consumer batch queue with a
/// [`ShedPolicy`]. See the module docs for the policy semantics.
pub struct ApplyQueue {
    cap: usize,
    policy: ShedPolicy,
    inner: Mutex<Inner>,
    not_full: Condvar,
    not_empty: Condvar,
}

impl ApplyQueue {
    /// A queue holding at most `cap` batches (`DegradeStale` treats the
    /// cap as the staleness threshold rather than a hard bound).
    pub fn new(cap: usize, policy: ShedPolicy) -> ApplyQueue {
        assert!(cap > 0, "queue capacity must be positive");
        ApplyQueue {
            cap,
            policy,
            inner: Mutex::new(Inner {
                queue: VecDeque::new(),
                pending_events: 0,
                closed: false,
                stats: QueueStats::default(),
            }),
            not_full: Condvar::new(),
            not_empty: Condvar::new(),
        }
    }

    /// The configured capacity in batches.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// The configured policy.
    pub fn policy(&self) -> ShedPolicy {
        self.policy
    }

    /// Offers one batch under the queue's policy. Only `Block` can block;
    /// the other policies return immediately.
    pub fn push(&self, batch: Vec<MarketEvent>) -> Admission {
        let n = batch.len() as u64;
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        if inner.closed {
            return Admission::Closed;
        }
        let mut dropped = None;
        match self.policy {
            ShedPolicy::Block => {
                if inner.queue.len() >= self.cap {
                    inner.stats.blocked_pushes += 1;
                    while inner.queue.len() >= self.cap && !inner.closed {
                        inner = self.not_full.wait(inner).unwrap_or_else(PoisonError::into_inner);
                    }
                    if inner.closed {
                        return Admission::Closed;
                    }
                }
            }
            ShedPolicy::ShedOldest => {
                if inner.queue.len() >= self.cap {
                    if let Some(old) = inner.queue.pop_front() {
                        inner.pending_events -= old.len() as u64;
                        inner.stats.shed_batches += 1;
                        inner.stats.shed_events += old.len() as u64;
                        dropped = Some(old.len() as u64);
                    }
                }
            }
            ShedPolicy::DegradeStale => {}
        }
        inner.queue.push_back(batch);
        inner.pending_events += n;
        inner.stats.admitted_batches += 1;
        inner.stats.admitted_events += n;
        inner.stats.peak_depth = inner.stats.peak_depth.max(inner.queue.len() as u64);
        drop(inner);
        self.not_empty.notify_one();
        match dropped {
            Some(dropped_events) => Admission::Shed { dropped_events },
            None => Admission::Admitted,
        }
    }

    /// Takes the oldest queued batch, waiting up to `timeout` for one to
    /// arrive. `None` means timeout, or closed-and-drained.
    pub fn pop(&self, timeout: Duration) -> Option<Vec<MarketEvent>> {
        let deadline = Instant::now() + timeout;
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if let Some(batch) = inner.queue.pop_front() {
                inner.pending_events -= batch.len() as u64;
                drop(inner);
                self.not_full.notify_one();
                return Some(batch);
            }
            if inner.closed {
                return None;
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            let (guard, timed_out) = self
                .not_empty
                .wait_timeout(inner, deadline - now)
                .unwrap_or_else(PoisonError::into_inner);
            inner = guard;
            if timed_out.timed_out() && inner.queue.is_empty() {
                return None;
            }
        }
    }

    /// Takes *everything* queued right now, concatenated in order — the
    /// coalesced catch-up apply for `DegradeStale`. Returns the events
    /// plus how many batches were coalesced; `None` when nothing arrives
    /// within `timeout`.
    pub fn pop_all(&self, timeout: Duration) -> Option<(Vec<MarketEvent>, u64)> {
        let first = self.pop(timeout)?;
        let mut events = first;
        let mut batches = 1u64;
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        while let Some(batch) = inner.queue.pop_front() {
            inner.pending_events -= batch.len() as u64;
            events.extend(batch);
            batches += 1;
        }
        drop(inner);
        self.not_full.notify_all();
        Some((events, batches))
    }

    /// Batches and events currently queued (admitted, not yet applied) —
    /// the staleness reading under `DegradeStale`.
    pub fn pending(&self) -> (u64, u64) {
        let inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        (inner.queue.len() as u64, inner.pending_events)
    }

    /// Closes the queue: future pushes are refused, waiting producers and
    /// the consumer wake. Queued batches stay poppable (drain-then-exit).
    pub fn close(&self) {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner).closed = true;
        self.not_full.notify_all();
        self.not_empty.notify_all();
    }

    /// Counters so far.
    pub fn stats(&self) -> QueueStats {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner).stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn batch(n: usize) -> Vec<MarketEvent> {
        // Queue semantics don't inspect events; length-n posted markers
        // are enough.
        use crowd_core::id::BatchId;
        (0..n)
            .map(|i| MarketEvent::Posted { seq: i as u64, batch: BatchId::from_usize(i) })
            .collect()
    }

    #[test]
    fn block_policy_blocks_until_the_writer_drains() {
        let q = Arc::new(ApplyQueue::new(2, ShedPolicy::Block));
        assert_eq!(q.push(batch(1)), Admission::Admitted);
        assert_eq!(q.push(batch(1)), Admission::Admitted);
        let producer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.push(batch(3)))
        };
        // The producer must be parked, not shedding.
        std::thread::sleep(Duration::from_millis(50));
        assert!(!producer.is_finished(), "full queue must block the producer");
        assert_eq!(q.pop(Duration::from_secs(1)).unwrap().len(), 1);
        assert_eq!(producer.join().unwrap(), Admission::Admitted);
        let stats = q.stats();
        assert_eq!(stats.blocked_pushes, 1);
        assert_eq!(stats.shed_batches, 0, "block policy never sheds");
        assert_eq!(stats.admitted_events, 5);
    }

    #[test]
    fn shed_oldest_drops_the_oldest_and_keeps_the_freshest() {
        let q = ApplyQueue::new(2, ShedPolicy::ShedOldest);
        q.push(batch(1));
        q.push(batch(2));
        assert_eq!(q.push(batch(3)), Admission::Shed { dropped_events: 1 });
        let stats = q.stats();
        assert_eq!((stats.shed_batches, stats.shed_events), (1, 1));
        // The survivors are the two newest, in order.
        assert_eq!(q.pop(Duration::ZERO).unwrap().len(), 2);
        assert_eq!(q.pop(Duration::ZERO).unwrap().len(), 3);
        assert!(q.pop(Duration::ZERO).is_none());
    }

    #[test]
    fn degrade_stale_admits_past_the_cap_and_reports_lag() {
        let q = ApplyQueue::new(2, ShedPolicy::DegradeStale);
        for _ in 0..5 {
            assert_eq!(q.push(batch(2)), Admission::Admitted);
        }
        assert_eq!(q.pending(), (5, 10), "lag is visible, nothing shed");
        assert_eq!(q.stats().peak_depth, 5);
        // The coalesced catch-up takes everything in order.
        let (events, batches) = q.pop_all(Duration::ZERO).unwrap();
        assert_eq!((events.len(), batches), (10, 5));
        assert_eq!(q.pending(), (0, 0));
    }

    #[test]
    fn close_wakes_blocked_producers_and_drains_cleanly() {
        let q = Arc::new(ApplyQueue::new(1, ShedPolicy::Block));
        q.push(batch(4));
        let producer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.push(batch(1)))
        };
        std::thread::sleep(Duration::from_millis(50));
        q.close();
        assert_eq!(producer.join().unwrap(), Admission::Closed);
        assert_eq!(q.push(batch(1)), Admission::Closed, "closed queue refuses");
        // The queued batch is still poppable; then the drain ends.
        assert_eq!(q.pop(Duration::ZERO).unwrap().len(), 4);
        assert!(q.pop(Duration::from_secs(1)).is_none(), "closed + empty ends the drain");
    }

    #[test]
    fn pop_times_out_on_an_idle_queue() {
        let q = ApplyQueue::new(4, ShedPolicy::Block);
        let start = Instant::now();
        assert!(q.pop(Duration::from_millis(30)).is_none());
        assert!(start.elapsed() >= Duration::from_millis(25));
    }
}
