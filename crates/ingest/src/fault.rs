//! Deterministic, seeded fault injection over byte streams.
//!
//! A [`FaultPlan`] is an explicit schedule of faults; [`ChaosReader`] wraps
//! any `io::Read` and applies the schedule byte-for-byte, so a given
//! `(input, plan)` pair always produces the same corrupted stream and the
//! same injected errors — chaos tests replay exactly from a seed.
//!
//! Record-level faults (duplicate, swap) are quote-aware: a record boundary
//! is a newline outside a quoted field, matching the CSV grammar, so
//! multi-line HTML fields are moved as a unit.

use std::collections::VecDeque;
use std::io::{self, Read};

/// One injected fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// The stream ends early: bytes at offsets `>= at` are dropped.
    TruncateAt {
        /// First byte offset not delivered.
        at: u64,
    },
    /// One bit of the byte at offset `at` is XOR-flipped.
    FlipBit {
        /// Byte offset to corrupt.
        at: u64,
        /// Bit index (taken mod 8).
        bit: u8,
    },
    /// CSV record `record` (0 = header) is emitted twice.
    DuplicateRecord {
        /// Zero-based record index.
        record: u64,
    },
    /// CSV record `record` swaps places with its successor.
    SwapWithNext {
        /// Zero-based record index.
        record: u64,
    },
    /// Read calls `first_call .. first_call + times` fail transiently.
    Transient {
        /// Zero-based index of the first failing `read` call.
        first_call: u64,
        /// How many consecutive calls fail.
        times: u32,
        /// `WouldBlock` instead of `Interrupted`.
        would_block: bool,
    },
}

/// The five fault families the chaos matrix sweeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// Partial upload: the stream stops early.
    Truncation,
    /// Silent byte corruption.
    BitFlip,
    /// A record is replayed.
    Duplicate,
    /// Two adjacent records arrive out of order.
    Reorder,
    /// Transient `Interrupted`/`WouldBlock` IO errors.
    Transient,
}

impl FaultKind {
    /// Every fault family, in matrix order.
    pub const ALL: [FaultKind; 5] = [
        FaultKind::Truncation,
        FaultKind::BitFlip,
        FaultKind::Duplicate,
        FaultKind::Reorder,
        FaultKind::Transient,
    ];

    /// Stable lower-case name (test matrix labels).
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::Truncation => "truncation",
            FaultKind::BitFlip => "bit_flip",
            FaultKind::Duplicate => "duplicate",
            FaultKind::Reorder => "reorder",
            FaultKind::Transient => "transient",
        }
    }
}

/// A deterministic schedule of faults for one stream.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// The scheduled faults.
    pub faults: Vec<Fault>,
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl FaultPlan {
    /// No faults: the stream passes through unchanged.
    pub fn clean() -> FaultPlan {
        FaultPlan::default()
    }

    /// A plan with exactly one fault.
    pub fn single(fault: Fault) -> FaultPlan {
        FaultPlan { faults: vec![fault] }
    }

    /// Derives one fault of family `kind` from `seed`, positioned inside a
    /// stream of roughly `len` bytes / `records` records (header included).
    /// The same arguments always yield the same plan.
    ///
    /// Record-level faults avoid record 0 (the header) so the injected
    /// damage lands in data, not table framing.
    pub fn seeded(seed: u64, kind: FaultKind, len: u64, records: u64) -> FaultPlan {
        let mut s = seed ^ 0xcafe_f00d_d15e_a5e5;
        // Burn a few draws so nearby seeds diverge.
        splitmix(&mut s);
        let draw = |s: &mut u64, lo: u64, hi: u64| {
            // Uniform-ish in [lo, hi); hi > lo required.
            lo + splitmix(s) % (hi - lo).max(1)
        };
        let fault = match kind {
            FaultKind::Truncation => {
                // Cut somewhere in the back half so the header survives.
                let at = draw(&mut s, len / 2, len.max(1));
                Fault::TruncateAt { at }
            }
            FaultKind::BitFlip => {
                let at = draw(&mut s, 0, len.max(1));
                let bit = (splitmix(&mut s) % 8) as u8;
                Fault::FlipBit { at, bit }
            }
            FaultKind::Duplicate => {
                let record = draw(&mut s, 1, records.max(2));
                Fault::DuplicateRecord { record }
            }
            FaultKind::Reorder => {
                // Needs a successor: stay below the last record.
                let record = draw(&mut s, 1, (records.saturating_sub(1)).max(2));
                Fault::SwapWithNext { record }
            }
            FaultKind::Transient => {
                let first_call = draw(&mut s, 0, 4);
                let times = 1 + (splitmix(&mut s) % 2) as u32;
                let would_block = splitmix(&mut s).is_multiple_of(2);
                Fault::Transient { first_call, times, would_block }
            }
        };
        FaultPlan::single(fault)
    }
}

struct TransientState {
    first_call: u64,
    times: u32,
    emitted: u32,
    would_block: bool,
}

/// An `io::Read` adapter that applies a [`FaultPlan`] to the wrapped
/// stream. Deterministic: the output depends only on the inner bytes and
/// the plan, never on read-call chunking (record faults are resolved
/// against a quote-aware record index, byte faults against absolute input
/// offsets).
pub struct ChaosReader<R> {
    inner: R,
    truncate_at: Option<u64>,
    flips: Vec<(u64, u8)>,
    dups: Vec<u64>,
    swaps: Vec<u64>,
    transients: Vec<TransientState>,
    in_pos: u64,
    record_idx: u64,
    in_quotes: bool,
    cur: Vec<u8>,
    held: Option<Vec<u8>>,
    out: VecDeque<u8>,
    read_calls: u64,
    inner_done: bool,
}

impl<R: Read> ChaosReader<R> {
    /// Wraps `inner` under `plan`.
    pub fn new(inner: R, plan: &FaultPlan) -> ChaosReader<R> {
        let mut r = ChaosReader {
            inner,
            truncate_at: None,
            flips: Vec::new(),
            dups: Vec::new(),
            swaps: Vec::new(),
            transients: Vec::new(),
            in_pos: 0,
            record_idx: 0,
            in_quotes: false,
            cur: Vec::new(),
            held: None,
            out: VecDeque::new(),
            read_calls: 0,
            inner_done: false,
        };
        for &f in &plan.faults {
            match f {
                Fault::TruncateAt { at } => {
                    r.truncate_at = Some(r.truncate_at.map_or(at, |t| t.min(at)));
                }
                Fault::FlipBit { at, bit } => r.flips.push((at, bit & 7)),
                Fault::DuplicateRecord { record } => r.dups.push(record),
                Fault::SwapWithNext { record } => r.swaps.push(record),
                Fault::Transient { first_call, times, would_block } => {
                    r.transients.push(TransientState { first_call, times, emitted: 0, would_block })
                }
            }
        }
        r
    }

    fn emit(&mut self, bytes: &[u8]) {
        self.out.extend(bytes.iter().copied());
    }

    /// A record just completed (terminating newline included in `cur`).
    fn complete_record(&mut self) {
        let idx = self.record_idx;
        self.record_idx += 1;
        let rec = std::mem::take(&mut self.cur);
        if self.swaps.contains(&idx) {
            // Hold this record; it is emitted after its successor. If a
            // record is already held (overlapping swaps), release it first
            // so nothing is ever lost.
            if let Some(prev) = self.held.take() {
                self.emit(&prev);
            }
            if self.dups.contains(&idx) {
                self.emit(&rec);
            }
            self.held = Some(rec);
            return;
        }
        self.emit(&rec);
        if self.dups.contains(&idx) {
            self.emit(&rec);
        }
        if let Some(h) = self.held.take() {
            self.emit(&h);
        }
    }

    /// Drains any held/partial record at end of stream.
    fn flush(&mut self) {
        if let Some(h) = self.held.take() {
            self.emit(&h);
        }
        if !self.cur.is_empty() {
            let tail = std::mem::take(&mut self.cur);
            self.emit(&tail);
        }
    }

    /// Pulls one chunk from the inner reader through the fault pipeline.
    fn pump(&mut self) -> io::Result<()> {
        let mut tmp = [0u8; 4096];
        let n = self.inner.read(&mut tmp)?;
        if n == 0 {
            self.inner_done = true;
            self.flush();
            return Ok(());
        }
        for &raw in &tmp[..n] {
            let pos = self.in_pos;
            self.in_pos += 1;
            if let Some(t) = self.truncate_at {
                if pos >= t {
                    self.inner_done = true;
                    self.flush();
                    return Ok(());
                }
            }
            let mut b = raw;
            for &(at, bit) in &self.flips {
                if at == pos {
                    b ^= 1 << bit;
                }
            }
            if b == b'"' {
                self.in_quotes = !self.in_quotes;
            }
            self.cur.push(b);
            if b == b'\n' && !self.in_quotes {
                self.complete_record();
            }
        }
        Ok(())
    }
}

impl<R: Read> Read for ChaosReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let call = self.read_calls;
        self.read_calls += 1;
        for t in &mut self.transients {
            if call >= t.first_call && t.emitted < t.times {
                t.emitted += 1;
                let kind = if t.would_block {
                    io::ErrorKind::WouldBlock
                } else {
                    io::ErrorKind::Interrupted
                };
                return Err(io::Error::new(kind, "injected transient fault"));
            }
        }
        while self.out.is_empty() && !self.inner_done {
            self.pump()?;
        }
        let n = buf.len().min(self.out.len());
        for slot in buf.iter_mut().take(n) {
            let Some(byte) = self.out.pop_front() else { break };
            *slot = byte;
        }
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn drain(plan: &FaultPlan, input: &str) -> String {
        let mut r = ChaosReader::new(Cursor::new(input.as_bytes().to_vec()), plan);
        let mut out = Vec::new();
        let mut buf = [0u8; 7]; // odd size: exercise chunk boundaries
        loop {
            match r.read(&mut buf) {
                Ok(0) => break,
                Ok(n) => out.extend_from_slice(&buf[..n]),
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::Interrupted | io::ErrorKind::WouldBlock
                    ) => {}
                Err(e) => panic!("unexpected {e}"),
            }
        }
        String::from_utf8(out).unwrap()
    }

    const DOC: &str = "h\na,1\nb,2\nc,3\n";

    #[test]
    fn clean_plan_passes_through() {
        assert_eq!(drain(&FaultPlan::clean(), DOC), DOC);
    }

    #[test]
    fn truncation_cuts_the_stream() {
        let plan = FaultPlan::single(Fault::TruncateAt { at: 6 });
        assert_eq!(drain(&plan, DOC), "h\na,1\n");
    }

    #[test]
    fn bit_flip_changes_exactly_one_byte() {
        let plan = FaultPlan::single(Fault::FlipBit { at: 2, bit: 0 });
        let out = drain(&plan, DOC);
        assert_eq!(out.len(), DOC.len());
        assert_eq!(&out[..2], &DOC[..2]);
        assert_eq!(out.as_bytes()[2], DOC.as_bytes()[2] ^ 1);
        assert_eq!(&out[3..], &DOC[3..]);
    }

    #[test]
    fn duplicate_replays_a_record() {
        let plan = FaultPlan::single(Fault::DuplicateRecord { record: 2 });
        assert_eq!(drain(&plan, DOC), "h\na,1\nb,2\nb,2\nc,3\n");
    }

    #[test]
    fn swap_reorders_adjacent_records() {
        let plan = FaultPlan::single(Fault::SwapWithNext { record: 1 });
        assert_eq!(drain(&plan, DOC), "h\nb,2\na,1\nc,3\n");
    }

    #[test]
    fn swap_of_last_record_degenerates_to_identity() {
        let plan = FaultPlan::single(Fault::SwapWithNext { record: 3 });
        assert_eq!(drain(&plan, DOC), DOC);
    }

    #[test]
    fn swap_respects_quoted_newlines() {
        let doc = "h\na,\"x\ny\"\nb,2\n";
        let plan = FaultPlan::single(Fault::SwapWithNext { record: 1 });
        assert_eq!(drain(&plan, doc), "h\nb,2\na,\"x\ny\"\n");
    }

    #[test]
    fn transient_errors_then_data_flows() {
        let plan =
            FaultPlan::single(Fault::Transient { first_call: 0, times: 2, would_block: false });
        let mut r = ChaosReader::new(Cursor::new(DOC.as_bytes().to_vec()), &plan);
        let mut buf = [0u8; 64];
        assert_eq!(r.read(&mut buf).unwrap_err().kind(), io::ErrorKind::Interrupted);
        assert_eq!(r.read(&mut buf).unwrap_err().kind(), io::ErrorKind::Interrupted);
        let n = r.read(&mut buf).unwrap();
        assert!(n > 0, "stream recovers after the scheduled failures");
    }

    #[test]
    fn seeded_plans_are_reproducible_and_distinct() {
        for kind in FaultKind::ALL {
            let a = FaultPlan::seeded(42, kind, 1000, 50);
            let b = FaultPlan::seeded(42, kind, 1000, 50);
            assert_eq!(a, b, "{}", kind.name());
            let c = FaultPlan::seeded(43, kind, 1000, 50);
            // Different seeds usually differ (not guaranteed per-kind, but
            // the matrix as a whole must not collapse to one plan).
            let _ = c;
        }
        let plans: Vec<FaultPlan> =
            (0..16).map(|s| FaultPlan::seeded(s, FaultKind::BitFlip, 10_000, 50)).collect();
        let distinct: std::collections::HashSet<String> =
            plans.iter().map(|p| format!("{p:?}")).collect();
        assert!(distinct.len() > 8, "seeds spread bit-flip positions");
    }

    #[test]
    fn chaos_output_is_chunking_invariant() {
        let plan = FaultPlan::single(Fault::SwapWithNext { record: 2 });
        let baseline = drain(&plan, DOC);
        let mut r = ChaosReader::new(Cursor::new(DOC.as_bytes().to_vec()), &plan);
        let mut out = Vec::new();
        let mut one = [0u8; 1];
        while r.read(&mut one).unwrap() == 1 {
            out.push(one[0]);
        }
        assert_eq!(String::from_utf8(out).unwrap(), baseline);
    }
}
