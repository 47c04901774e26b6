//! In-memory span recorder for the traced run.
//!
//! The benchmark wraps each call into a layer's public API in [`span`].
//! When tracing is off (the default), `span` only calls its closure. When
//! it is on, every span records its name, start, end and parent (the span
//! open around it on the same thread). Spans stay in memory until
//! [`take`] drains them at the end of a run. [`count`] adds to named
//! counters at the same boundaries.
//!
//! A layer's self time is its spans' durations minus the parts their
//! child spans cover. On one thread the self times of a root span and
//! all its descendants therefore add up to the root's duration exactly.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static COUNTS: Mutex<BTreeMap<&'static str, u64>> = Mutex::new(BTreeMap::new());
static EPOCH: OnceLock<Instant> = OnceLock::new();

thread_local! {
    /// Ids of the spans open on this thread, innermost last.
    static OPEN: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
}

/// One recorded span; times are nanoseconds since the recorder started.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Turns recording on for the rest of the process.
pub fn enable() {
    EPOCH.get_or_init(Instant::now);
    ENABLED.store(true, Ordering::SeqCst);
}

pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Runs `f` inside a span named `name`.
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    if !enabled() {
        return f();
    }
    let parent = OPEN.with(|open| open.borrow().last().copied());
    let id = {
        let mut spans = SPANS.lock().expect("span log poisoned");
        spans.push(Span { name, start_ns: now_ns(), end_ns: 0, parent });
        spans.len() - 1
    };
    OPEN.with(|open| open.borrow_mut().push(id));
    let out = f();
    OPEN.with(|open| open.borrow_mut().pop());
    SPANS.lock().expect("span log poisoned")[id].end_ns = now_ns();
    out
}

/// Adds `n` to the counter `name` (no-op when tracing is off).
pub fn count(name: &'static str, n: u64) {
    if enabled() {
        *COUNTS.lock().expect("counter map poisoned").entry(name).or_default() += n;
    }
}

/// Drains the recorded spans and counters.
pub fn take() -> (Vec<Span>, BTreeMap<&'static str, u64>) {
    let spans = std::mem::take(&mut *SPANS.lock().expect("span log poisoned"));
    let counts = std::mem::take(&mut *COUNTS.lock().expect("counter map poisoned"));
    (spans, counts)
}

/// Self time in nanoseconds per span name, summed over every span with
/// that name.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.dur_ns();
        }
    }
    let mut out: BTreeMap<&'static str, u64> = BTreeMap::new();
    for (s, children) in spans.iter().zip(child_ns) {
        *out.entry(s.name).or_default() += s.dur_ns() - children;
    }
    out
}

/// Total duration of the root spans (no parent) named `name`.
pub fn root_ns(spans: &[Span], name: &str) -> u64 {
    spans.iter().filter(|s| s.parent.is_none() && s.name == name).map(Span::dur_ns).sum()
}

/// Tab-separated dump: `id parent name start_ns end_ns`, one span a line.
pub fn to_tsv(spans: &[Span]) -> String {
    let mut out = String::from("id\tparent\tname\tstart_ns\tend_ns\n");
    for (id, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
        let _ = writeln!(out, "{id}\t{parent}\t{}\t{}\t{}", s.name, s.start_ns, s.end_ns);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_partition_the_root() {
        enable();
        span("root", || {
            span("a", || std::thread::sleep(std::time::Duration::from_millis(2)));
            span("b", || span("a", || std::thread::sleep(std::time::Duration::from_millis(1))));
        });
        count("things", 3);
        let (spans, counts) = take();
        let selfs = self_times(&spans);
        assert_eq!(selfs.values().sum::<u64>(), root_ns(&spans, "root"));
        assert!(selfs["a"] >= 3_000_000);
        assert_eq!(counts["things"], 3);
    }
}
