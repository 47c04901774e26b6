//! Durable write-ahead event log for the live service.
//!
//! The checkpoint path (`crowd-serve`) persists a full service state every
//! N events; everything applied *since* the newest checkpoint used to be
//! lost on a crash. The WAL closes that hole: every event batch is
//! serialized, checksummed, and appended to a rotating segment file
//! **before** the service folds it into the live view. On restart,
//! recovery loads the newest checkpoint and replays the WAL tail past it,
//! so an accepted event survives the process dying at any instant.
//!
//! On-disk format, all little-endian:
//!
//! ```text
//! segment file  wal-<stream:016x>-<start_seq:020>.log
//!   header (32 bytes)
//!     magic "CRWDWAL1" | stream_id u64 | start_seq u64 | fnv64 of the first 24 bytes
//!   records, back to back
//!     len u32 | n_events u32 | seq_base u64 | fnv64 checksum | payload [len bytes]
//! ```
//!
//! The payload is the batch's events in the canonical CSV wire format
//! (one record per line, same grammar as `events.csv`); the checksum
//! covers the header fields *and* the payload, so a bit flip anywhere in
//! a record is detected. `seq_base` is the stream-wide event ordinal of
//! the record's first event — replay verifies the ordinals chain without
//! gaps, and a restore skips records a checkpoint already covers (slicing
//! the one record that straddles the checkpoint boundary). A batch whose
//! payload exceeds the record bound is logged as consecutive records,
//! each within it; the chain makes them replay as one run of events.
//!
//! Fsync is batched: `WalOptions::fsync_every` appends share one
//! `sync_all`. A crash of the *process* loses nothing regardless — the
//! page cache survives `SIGKILL` — so the batching knob only trades
//! durability against whole-machine failure for append throughput.
//!
//! Recovery is honest about damage, mirroring the §14 `FaultClass`
//! discipline: a record cut off by the end of the log is a
//! [`WalFault::TornTail`] — the expected artifact of dying mid-append —
//! and recovery truncates it away and continues. A record whose bytes are
//! all present but fail validation (bit flip, mangled length field,
//! broken ordinal chain) is [`WalFault::Corrupt`]/[`WalFault::SeqGap`]:
//! that is damage no crash produces, so replay refuses to serve past it
//! and surfaces the typed fault instead of guessing. Nothing in this
//! module panics on untrusted bytes (`wal_fuzz.rs` holds it to that).
//!
//! Segments are *retired* (deleted) once a checkpoint covers every event
//! they hold, bounding disk to roughly one checkpoint interval of events
//! plus the active segment.

use std::fmt;
use std::fs;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};

use crowd_core::csv::parse_records_lossy;
use crowd_core::dataset::Dataset;

use crate::events::{parse_wire_event, MarketEvent};
use crate::killpoint::kill_point;

/// Magic bytes opening every WAL segment.
pub const WAL_MAGIC: [u8; 8] = *b"CRWDWAL1";

/// Segment header size: magic + stream id + start seq + checksum.
const SEG_HEADER_LEN: u64 = 32;

/// Record header size: len + n_events + seq_base + checksum.
const REC_HEADER_LEN: u64 = 24;

/// Bound on one record's payload. A length field claiming more than this
/// is corruption, not a large batch: appends cut a larger batch into
/// several records.
const MAX_RECORD_LEN: u32 = 1 << 26;

/// FNV-1a over bytes. Single-byte changes always change the hash: each
/// step is a bijection of the running state for a fixed input byte, so
/// differing states never re-converge.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// The `W` bytes at `at` of a fixed-width header, for `from_le_bytes`.
fn field<const N: usize, const W: usize>(header: &[u8; N], at: usize) -> [u8; W] {
    std::array::from_fn(|i| header[at + i])
}

fn record_checksum(len: u32, n_events: u32, seq_base: u64, payload: &[u8]) -> u64 {
    let mut head = [0u8; 16];
    head[..4].copy_from_slice(&len.to_le_bytes());
    head[4..8].copy_from_slice(&n_events.to_le_bytes());
    head[8..16].copy_from_slice(&seq_base.to_le_bytes());
    let mut h = fnv1a(&head);
    // Continue the same FNV stream over the payload.
    for &b in payload {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

// ---------------------------------------------------------------------------
// Faults and errors
// ---------------------------------------------------------------------------

/// What exactly was wrong with an unreadable piece of the log —
/// the WAL counterpart of §14's `FaultClass`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalCorruptKind {
    /// Segment header magic bytes are wrong.
    Magic,
    /// Segment header checksum mismatch.
    HeaderChecksum,
    /// Segment belongs to a different event stream.
    StreamMismatch,
    /// Record length field is absurd or inconsistent.
    Length,
    /// Record checksum mismatch (bit flip in header or payload).
    RecordChecksum,
    /// Checksummed payload failed to decode back into events.
    Decode,
    /// A structurally valid piece appeared where the crash model cannot
    /// produce one (for example a torn-shaped hole before later segments).
    Order,
}

impl fmt::Display for WalCorruptKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            WalCorruptKind::Magic => "bad magic",
            WalCorruptKind::HeaderChecksum => "header checksum mismatch",
            WalCorruptKind::StreamMismatch => "stream id mismatch",
            WalCorruptKind::Length => "bad record length",
            WalCorruptKind::RecordChecksum => "record checksum mismatch",
            WalCorruptKind::Decode => "payload decode failure",
            WalCorruptKind::Order => "ordering violation",
        };
        f.write_str(s)
    }
}

/// Typed damage found while replaying a WAL.
#[derive(Debug)]
pub enum WalFault {
    /// The log ends inside a record (or inside the final segment's
    /// header): the normal artifact of a crash mid-append. `offset` is
    /// the last valid record boundary — recovery truncates the segment
    /// there and loses only the batch whose append never returned.
    TornTail {
        /// The torn segment.
        segment: PathBuf,
        /// Last valid record boundary (byte offset in the segment).
        offset: u64,
    },
    /// Bytes are fully present but fail validation — a bit flip or
    /// external mangling, which no crash produces. Replay refuses to
    /// serve anything past this point.
    Corrupt {
        /// The damaged segment.
        segment: PathBuf,
        /// Byte offset of the damaged header or record.
        offset: u64,
        /// What failed.
        kind: WalCorruptKind,
        /// Human-readable detail.
        message: String,
    },
    /// The surviving segments do not cover the requested replay start —
    /// events between `expected` and `got` are unrecoverable.
    SeqGap {
        /// First event ordinal the caller needs.
        expected: u64,
        /// First ordinal the log actually covers from there.
        got: u64,
    },
}

impl WalFault {
    /// Whether this fault is the benign crash artifact (a torn tail) that
    /// recovery may truncate and step past. Everything else must refuse.
    pub fn is_torn_tail(&self) -> bool {
        matches!(self, WalFault::TornTail { .. })
    }
}

impl fmt::Display for WalFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WalFault::TornTail { segment, offset } => {
                write!(f, "torn tail in {} at byte {offset}", segment.display())
            }
            WalFault::Corrupt { segment, offset, kind, message } => {
                write!(f, "corrupt WAL {} at byte {offset}: {kind} ({message})", segment.display())
            }
            WalFault::SeqGap { expected, got } => {
                write!(f, "WAL sequence gap: need events from {expected}, log starts at {got}")
            }
        }
    }
}

/// Filesystem failure of a WAL operation.
#[derive(Debug)]
pub struct WalError {
    /// The file or directory involved.
    pub path: PathBuf,
    /// The underlying IO error.
    pub error: io::Error,
}

impl fmt::Display for WalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "wal io on {}: {}", self.path.display(), self.error)
    }
}

impl std::error::Error for WalError {}

fn io_err(path: &Path) -> impl FnOnce(io::Error) -> WalError + '_ {
    move |error| WalError { path: path.to_path_buf(), error }
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

/// Durability knobs for a [`WalWriter`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalOptions {
    /// Appends per `fsync` (1 = sync every batch before it is applied;
    /// larger values batch the sync and only risk data on whole-machine
    /// failure, never on process death).
    pub fsync_every: u64,
    /// Rotate to a fresh segment once the active one exceeds this size.
    pub segment_bytes: u64,
}

impl Default for WalOptions {
    fn default() -> WalOptions {
        WalOptions { fsync_every: 1, segment_bytes: 4 << 20 }
    }
}

/// Monotone writer-side counters, surfaced through the service gauges.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalStats {
    /// Record appends.
    pub appends: u64,
    /// `sync_all` calls issued.
    pub fsyncs: u64,
    /// Segment rotations (including the first segment).
    pub rotations: u64,
    /// Payload + header bytes written.
    pub bytes_written: u64,
    /// Segments deleted by [`WalWriter::retire_through`].
    pub segments_retired: u64,
}

struct ActiveSegment {
    path: PathBuf,
    file: fs::File,
    bytes: u64,
}

/// Appending side of the log: owns the active segment, rotates and
/// retires segments, batches fsync.
pub struct WalWriter {
    dir: PathBuf,
    stream_id: u64,
    opts: WalOptions,
    next_seq: u64,
    active: Option<ActiveSegment>,
    unsynced: u64,
    stats: WalStats,
}

impl WalWriter {
    /// Opens a writer for `stream_id` under `dir`, with the next append
    /// carrying event ordinal `next_seq`. The directory is created; the
    /// first segment is created lazily on the first append (so a restore
    /// that never applies new events leaves no empty segment behind).
    pub fn open(
        dir: impl Into<PathBuf>,
        stream_id: u64,
        opts: WalOptions,
        next_seq: u64,
    ) -> Result<WalWriter, WalError> {
        assert!(opts.fsync_every > 0, "fsync_every must be positive");
        let dir = dir.into();
        fs::create_dir_all(&dir).map_err(io_err(&dir))?;
        Ok(WalWriter {
            dir,
            stream_id,
            opts,
            next_seq,
            active: None,
            unsynced: 0,
            stats: WalStats::default(),
        })
    }

    /// The log directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The stream this log belongs to.
    pub fn stream_id(&self) -> u64 {
        self.stream_id
    }

    /// Event ordinal the next appended batch starts at.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Writer-side counters so far.
    pub fn stats(&self) -> WalStats {
        self.stats
    }

    /// Closes out the active segment and opens the next, returning it.
    fn rotate(&mut self) -> Result<&mut ActiveSegment, WalError> {
        // Close out the old segment durably before abandoning it: closed
        // segments are never re-synced, so this is their last chance.
        self.sync()?;
        let path = segment_path(&self.dir, self.stream_id, self.next_seq);
        let file = fs::File::create(&path).map_err(io_err(&path))?;
        let mut header = Vec::with_capacity(SEG_HEADER_LEN as usize);
        header.extend_from_slice(&WAL_MAGIC);
        header.extend_from_slice(&self.stream_id.to_le_bytes());
        header.extend_from_slice(&self.next_seq.to_le_bytes());
        header.extend_from_slice(&fnv1a(&header).to_le_bytes());
        let mut active = ActiveSegment { path, file, bytes: SEG_HEADER_LEN };
        active.file.write_all(&header).map_err(io_err(&active.path))?;
        self.stats.rotations += 1;
        self.stats.bytes_written += SEG_HEADER_LEN;
        kill_point("wal.rotate");
        Ok(self.active.insert(active))
    }

    /// Appends one event batch. The batch is on disk (modulo fsync
    /// batching) when this returns — callers apply it to live state only
    /// afterwards. Empty batches are a no-op: heartbeat publishes carry
    /// no state worth logging. A batch whose payload exceeds the record
    /// bound is logged as several consecutive records; an event that
    /// alone exceeds it is an error, and then nothing is written.
    pub fn append(&mut self, events: &[MarketEvent]) -> Result<(), WalError> {
        self.append_bounded(events, MAX_RECORD_LEN as usize)
    }

    /// [`append`](WalWriter::append) with the record bound as a parameter,
    /// so tests can cut small batches.
    fn append_bounded(&mut self, events: &[MarketEvent], bound: usize) -> Result<(), WalError> {
        // Serialize the whole batch once, noting where each event ends,
        // and refuse an event that cannot fit any record before a byte
        // reaches the log.
        let mut payload = String::with_capacity(64 * events.len());
        let mut ends = Vec::with_capacity(events.len());
        for (i, ev) in events.iter().enumerate() {
            let start = payload.len();
            ev.serialize(&mut payload);
            let size = payload.len() - start;
            if size > bound {
                let seq = self.next_seq + i as u64;
                return Err(self.unloggable(format!(
                    "event {seq} serializes to {size} bytes, over the WAL record bound of {bound}"
                )));
            }
            ends.push(payload.len());
        }
        // Cut the payload into consecutive records of at most `bound`
        // bytes, each holding whole events.
        let (mut first, mut from) = (0, 0);
        while first < ends.len() {
            let n = ends[first..].partition_point(|&end| end - from <= bound);
            let to = ends[first + n - 1];
            self.append_record(&payload.as_bytes()[from..to], n)?;
            (first, from) = (first + n, to);
        }
        Ok(())
    }

    /// Writes one record of `n_events` events whose serialized form is
    /// `payload`, at most the record bound long.
    fn append_record(&mut self, payload: &[u8], n_events: usize) -> Result<(), WalError> {
        let (Ok(len), Ok(n_events)) = (u32::try_from(payload.len()), u32::try_from(n_events))
        else {
            return Err(self.unloggable("record length over u32".into()));
        };
        let seq_base = self.next_seq;
        let sum = record_checksum(len, n_events, seq_base, payload);
        let mut header = [0u8; REC_HEADER_LEN as usize];
        header[..4].copy_from_slice(&len.to_le_bytes());
        header[4..8].copy_from_slice(&n_events.to_le_bytes());
        header[8..16].copy_from_slice(&seq_base.to_le_bytes());
        header[16..24].copy_from_slice(&sum.to_le_bytes());

        let active = match &mut self.active {
            Some(active) if active.bytes < self.opts.segment_bytes => active,
            _ => self.rotate()?,
        };
        active.file.write_all(&header).map_err(io_err(&active.path))?;
        // A crash here leaves a header with no payload: the torn-tail
        // shape recovery truncates away.
        kill_point("wal.append.torn");
        active.file.write_all(payload).map_err(io_err(&active.path))?;
        active.bytes += REC_HEADER_LEN + u64::from(len);
        self.stats.appends += 1;
        self.stats.bytes_written += REC_HEADER_LEN + u64::from(len);
        self.next_seq += u64::from(n_events);
        self.unsynced += 1;
        if self.unsynced >= self.opts.fsync_every {
            self.sync()?;
        }
        kill_point("wal.append");
        Ok(())
    }

    /// The typed error for input the record format cannot hold.
    fn unloggable(&self, message: String) -> WalError {
        WalError {
            path: self.dir.clone(),
            error: io::Error::new(io::ErrorKind::InvalidInput, message),
        }
    }

    /// Flushes any unsynced appends to stable storage.
    pub fn sync(&mut self) -> Result<(), WalError> {
        let Some(active) = self.active.as_mut().filter(|_| self.unsynced > 0) else {
            return Ok(());
        };
        active.file.sync_all().map_err(io_err(&active.path))?;
        self.stats.fsyncs += 1;
        self.unsynced = 0;
        kill_point("wal.fsync");
        Ok(())
    }

    /// Deletes every *closed* segment fully covered by a checkpoint at
    /// event ordinal `through_seq` (exclusive upper bound on applied
    /// events). The active segment survives even when covered. Returns
    /// how many segments were removed.
    pub fn retire_through(&mut self, through_seq: u64) -> Result<u64, WalError> {
        let files = segment_files(&self.dir, self.stream_id).map_err(io_err(&self.dir))?;
        let mut removed = 0;
        for pair in files.windows(2) {
            let (_, ref path) = pair[0];
            let (next_start, _) = pair[1];
            let is_active = self.active.as_ref().is_some_and(|a| a.path == *path);
            if next_start <= through_seq && !is_active {
                fs::remove_file(path).map_err(io_err(path))?;
                removed += 1;
                self.stats.segments_retired += 1;
                kill_point("wal.retire");
            }
        }
        Ok(removed)
    }
}

// ---------------------------------------------------------------------------
// Replay
// ---------------------------------------------------------------------------

/// Outcome of a [`replay`]: the recovered tail, where it ends, and the
/// first fault (if any) that stopped the scan.
#[derive(Debug)]
pub struct WalReplay {
    /// Events with ordinal ≥ the requested `from_seq`, in log order.
    pub events: Vec<MarketEvent>,
    /// One past the last event ordinal the valid log covers (never below
    /// the requested `from_seq`).
    pub next_seq: u64,
    /// Valid records scanned, including ones wholly before `from_seq`.
    pub records: u64,
    /// Segment files scanned (fully or partially).
    pub segments: u64,
    /// The fault that stopped the scan, if the log was damaged. When
    /// `Some`, `events` still holds the valid prefix — whether to use it
    /// is the caller's policy ([`WalFault::is_torn_tail`] is the benign
    /// case; everything else should refuse).
    pub fault: Option<WalFault>,
}

/// Segment files for `stream_id` under `dir`, sorted by start ordinal.
pub fn segment_files(dir: &Path, stream_id: u64) -> io::Result<Vec<(u64, PathBuf)>> {
    let mut out = Vec::new();
    let entries = match fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(out),
        Err(e) => return Err(e),
    };
    let prefix = format!("wal-{stream_id:016x}-");
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(rest) = name.strip_prefix(&prefix) {
            if let Some(seq) = rest.strip_suffix(".log").and_then(|s| s.parse::<u64>().ok()) {
                out.push((seq, entry.path()));
            }
        }
    }
    out.sort();
    Ok(out)
}

fn segment_path(dir: &Path, stream_id: u64, start_seq: u64) -> PathBuf {
    dir.join(format!("wal-{stream_id:016x}-{start_seq:020}.log"))
}

/// Replays the log tail for `stream_id`, returning every event with
/// ordinal ≥ `from_seq` (a checkpoint's `events_applied`). Scans
/// segments in order, verifies every checksum and the ordinal chain, and
/// stops at the first fault — classifying it as a truncatable torn tail
/// or as corruption that must refuse. Never panics on damaged bytes.
pub fn replay(
    dir: &Path,
    stream_id: u64,
    from_seq: u64,
    entities: &Dataset,
) -> Result<WalReplay, WalError> {
    let files = segment_files(dir, stream_id).map_err(io_err(dir))?;
    let mut out =
        WalReplay { events: Vec::new(), next_seq: from_seq, records: 0, segments: 0, fault: None };
    if files.is_empty() {
        return Ok(out);
    }
    if files[0].0 > from_seq {
        out.fault = Some(WalFault::SeqGap { expected: from_seq, got: files[0].0 });
        return Ok(out);
    }
    let mut expected_seq: Option<u64> = None;
    let last = files.len() - 1;
    'segments: for (idx, (start_seq, path)) in files.iter().enumerate() {
        let is_final = idx == last;
        let bytes = fs::read(path).map_err(io_err(path))?;
        out.segments += 1;
        // --- segment header ------------------------------------------------
        let Some(header) = bytes.first_chunk::<{ SEG_HEADER_LEN as usize }>() else {
            out.fault = Some(if is_final {
                // A crash during segment creation tears the header; the
                // whole file is the tail to truncate.
                WalFault::TornTail { segment: path.clone(), offset: 0 }
            } else {
                WalFault::Corrupt {
                    segment: path.clone(),
                    offset: 0,
                    kind: WalCorruptKind::Order,
                    message: format!(
                        "segment is {} bytes (shorter than its header) yet later segments exist",
                        bytes.len()
                    ),
                }
            });
            break 'segments;
        };
        let corrupt = |offset: u64, kind: WalCorruptKind, message: String| WalFault::Corrupt {
            segment: path.clone(),
            offset,
            kind,
            message,
        };
        if header[..8] != WAL_MAGIC {
            out.fault = Some(corrupt(0, WalCorruptKind::Magic, "segment magic".into()));
            break 'segments;
        }
        let u64_at = |off: usize| u64::from_le_bytes(field(header, off));
        if fnv1a(&header[..24]) != u64_at(24) {
            out.fault = Some(corrupt(0, WalCorruptKind::HeaderChecksum, "segment header".into()));
            break 'segments;
        }
        if u64_at(8) != stream_id {
            out.fault = Some(corrupt(
                0,
                WalCorruptKind::StreamMismatch,
                format!("segment stream {:#x}, expected {stream_id:#x}", u64_at(8)),
            ));
            break 'segments;
        }
        let header_start = u64_at(16);
        if header_start != *start_seq {
            out.fault = Some(corrupt(
                0,
                WalCorruptKind::Order,
                format!("header start {header_start} disagrees with filename {start_seq}"),
            ));
            break 'segments;
        }
        if let Some(expected) = expected_seq {
            if header_start != expected {
                out.fault = Some(if header_start > expected {
                    WalFault::SeqGap { expected, got: header_start }
                } else {
                    corrupt(
                        0,
                        WalCorruptKind::Order,
                        format!("segment restarts at {header_start}, already covered {expected}"),
                    )
                });
                break 'segments;
            }
        }
        let mut seq = header_start;
        // --- records -------------------------------------------------------
        let mut off = SEG_HEADER_LEN;
        let file_len = bytes.len() as u64;
        while off < file_len {
            let rem = file_len - off;
            let o = off as usize;
            let Some(head) = bytes[o..].first_chunk::<{ REC_HEADER_LEN as usize }>() else {
                out.fault = Some(if is_final {
                    WalFault::TornTail { segment: path.clone(), offset: off }
                } else {
                    corrupt(
                        off,
                        WalCorruptKind::Order,
                        "truncated record inside a non-final segment".into(),
                    )
                });
                break 'segments;
            };
            let len = u32::from_le_bytes(field(head, 0));
            let n_events = u32::from_le_bytes(field(head, 4));
            let seq_base = u64::from_le_bytes(field(head, 8));
            let sum = u64::from_le_bytes(field(head, 16));
            if len > MAX_RECORD_LEN || n_events == 0 {
                out.fault = Some(corrupt(
                    off,
                    WalCorruptKind::Length,
                    format!("record claims {len} bytes / {n_events} events"),
                ));
                break 'segments;
            }
            if rem < REC_HEADER_LEN + u64::from(len) {
                out.fault = Some(if is_final {
                    WalFault::TornTail { segment: path.clone(), offset: off }
                } else {
                    corrupt(
                        off,
                        WalCorruptKind::Order,
                        "record payload truncated inside a non-final segment".into(),
                    )
                });
                break 'segments;
            }
            let payload =
                &bytes[o + REC_HEADER_LEN as usize..o + (REC_HEADER_LEN + u64::from(len)) as usize];
            if record_checksum(len, n_events, seq_base, payload) != sum {
                out.fault = Some(corrupt(off, WalCorruptKind::RecordChecksum, "record".into()));
                break 'segments;
            }
            if seq_base != seq {
                out.fault = Some(corrupt(
                    off,
                    WalCorruptKind::Order,
                    format!("record seq_base {seq_base}, expected {seq}"),
                ));
                break 'segments;
            }
            let rec_end = seq_base + u64::from(n_events);
            if rec_end > from_seq {
                // Decode the payload; take only the events past from_seq.
                match decode_payload(payload, n_events, entities) {
                    Ok(events) => {
                        let skip = from_seq.saturating_sub(seq_base) as usize;
                        out.events.extend(events.into_iter().skip(skip));
                    }
                    Err(message) => {
                        out.fault = Some(corrupt(off, WalCorruptKind::Decode, message));
                        break 'segments;
                    }
                }
            }
            out.records += 1;
            seq = rec_end;
            out.next_seq = seq.max(from_seq);
            off += REC_HEADER_LEN + u64::from(len);
        }
        expected_seq = Some(seq);
    }
    Ok(out)
}

/// Physically truncates a torn tail at its last valid record boundary.
/// Returns `true` if the fault was a torn tail and the segment was
/// truncated, `false` (doing nothing) for every other fault.
pub fn truncate_torn(fault: &WalFault) -> Result<bool, WalError> {
    let WalFault::TornTail { segment, offset } = fault else { return Ok(false) };
    if *offset == 0 {
        // The tear is inside the segment header: the file holds no
        // records at all (a crash between create and header write), so
        // keeping a zero-length stub would just re-classify as torn on
        // every future replay. Remove it outright.
        fs::remove_file(segment).map_err(io_err(segment))?;
    } else {
        let file = fs::OpenOptions::new().write(true).open(segment).map_err(io_err(segment))?;
        file.set_len(*offset).map_err(io_err(segment))?;
        file.sync_all().map_err(io_err(segment))?;
    }
    kill_point("wal.truncate");
    Ok(true)
}

fn decode_payload(
    payload: &[u8],
    n_events: u32,
    entities: &Dataset,
) -> Result<Vec<MarketEvent>, String> {
    let text = std::str::from_utf8(payload).map_err(|e| format!("payload not UTF-8: {e}"))?;
    let mut events = Vec::with_capacity(n_events as usize);
    for rec in parse_records_lossy(text) {
        let (line, f) = rec.map_err(|e| e.to_string())?;
        events.push(parse_wire_event(&f, line, entities)?);
    }
    if events.len() != n_events as usize {
        return Err(format!(
            "payload decodes to {} events, header claims {n_events}",
            events.len()
        ));
    }
    Ok(events)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::events_from_dataset;
    use crowd_core::fixture::Fixture;
    use crowd_core::Duration;

    fn dataset() -> Dataset {
        let mut fx = Fixture::new();
        let ws = fx.add_workers(3);
        let b0 = fx.add_batch(Duration::ZERO);
        let b1 = fx.add_batch(Duration::from_days(1));
        for (i, &b) in [b0, b1].iter().enumerate() {
            for item in 0..4u32 {
                fx.instance(b, item, ws[(item as usize + i) % 3], 600 + 60 * i64::from(item), 45);
            }
        }
        fx.finish()
    }

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("crowd-wal-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    /// Writes `events` in batches of `batch`, forcing rotation with tiny
    /// segments. Returns the writer for further poking.
    fn write_log(dir: &Path, events: &[MarketEvent], batch: usize, opts: WalOptions) -> WalWriter {
        let mut w = WalWriter::open(dir, 0xabc, opts, 0).unwrap();
        for chunk in events.chunks(batch) {
            w.append(chunk).unwrap();
        }
        w.sync().unwrap();
        w
    }

    fn canon_all(events: &[MarketEvent]) -> Vec<String> {
        events
            .iter()
            .map(|e| {
                let mut s = String::new();
                e.serialize(&mut s);
                s
            })
            .collect()
    }

    fn small() -> WalOptions {
        WalOptions { fsync_every: 1, segment_bytes: 256 }
    }

    #[test]
    fn round_trips_across_rotated_segments() {
        let ds = dataset();
        let events = events_from_dataset(&ds);
        let dir = tmp("roundtrip");
        let w = write_log(&dir, &events, 3, small());
        assert!(w.stats().rotations >= 2, "256-byte segments must rotate");
        assert_eq!(w.next_seq(), events.len() as u64);

        let replayed = replay(&dir, 0xabc, 0, &ds).unwrap();
        assert!(replayed.fault.is_none(), "clean log: {:?}", replayed.fault);
        assert_eq!(replayed.next_seq, events.len() as u64);
        assert_eq!(canon_all(&replayed.events), canon_all(&events));
        assert!(replayed.segments >= 2);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn replay_from_mid_stream_slices_the_straddling_batch() {
        let ds = dataset();
        let events = events_from_dataset(&ds);
        let dir = tmp("slice");
        write_log(&dir, &events, 4, small());
        // from_seq = 6 lands mid-batch (batches are 4 wide).
        let replayed = replay(&dir, 0xabc, 6, &ds).unwrap();
        assert!(replayed.fault.is_none());
        assert_eq!(canon_all(&replayed.events), canon_all(&events[6..]));
        assert_eq!(replayed.next_seq, events.len() as u64);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_truncates_to_the_last_valid_boundary() {
        let ds = dataset();
        let events = events_from_dataset(&ds);
        let dir = tmp("torn");
        // One big segment so the tear lands in the final segment.
        write_log(&dir, &events, 3, WalOptions::default());
        let (_, path) = segment_files(&dir, 0xabc).unwrap().pop().unwrap();
        let pristine = fs::read(&path).unwrap();
        // Tear mid-way through the last record's payload.
        fs::write(&path, &pristine[..pristine.len() - 5]).unwrap();

        let replayed = replay(&dir, 0xabc, 0, &ds).unwrap();
        let fault = replayed.fault.expect("torn log must fault");
        assert!(fault.is_torn_tail(), "expected torn tail, got {fault}");
        let n_prefix = replayed.events.len();
        assert!(n_prefix < events.len() && n_prefix >= events.len() - 3);
        assert_eq!(canon_all(&replayed.events), canon_all(&events[..n_prefix]));

        assert!(truncate_torn(&fault).unwrap());
        let clean = replay(&dir, 0xabc, 0, &ds).unwrap();
        assert!(clean.fault.is_none(), "truncated log must replay clean: {:?}", clean.fault);
        assert_eq!(clean.events.len(), n_prefix);
        assert_eq!(clean.next_seq, n_prefix as u64);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bit_flip_is_corrupt_not_torn_and_stops_replay() {
        let ds = dataset();
        let events = events_from_dataset(&ds);
        let dir = tmp("flip");
        write_log(&dir, &events, 3, small());
        let files = segment_files(&dir, 0xabc).unwrap();
        assert!(files.len() >= 2);
        // Flip one payload byte in the FIRST segment: all bytes present,
        // later segments valid — must refuse, not truncate.
        let (_, first) = &files[0];
        let mut bytes = fs::read(first).unwrap();
        let at = bytes.len() - 3;
        bytes[at] ^= 0x40;
        fs::write(first, &bytes).unwrap();

        let replayed = replay(&dir, 0xabc, 0, &ds).unwrap();
        let fault = replayed.fault.expect("bit flip must fault");
        assert!(!fault.is_torn_tail(), "bit flip is not a torn tail: {fault}");
        assert!(matches!(fault, WalFault::Corrupt { kind: WalCorruptKind::RecordChecksum, .. }));
        assert!(!truncate_torn(&fault).unwrap(), "corruption must not truncate");
        // Only records before the flip survive; nothing from later
        // segments is served past the damage.
        assert!(replayed.events.len() < events.len());
        assert_eq!(canon_all(&replayed.events), canon_all(&events[..replayed.events.len()]));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_oldest_segment_is_a_seq_gap() {
        let ds = dataset();
        let events = events_from_dataset(&ds);
        let dir = tmp("gap");
        write_log(&dir, &events, 3, small());
        let files = segment_files(&dir, 0xabc).unwrap();
        assert!(files.len() >= 2);
        fs::remove_file(&files[0].1).unwrap();
        let replayed = replay(&dir, 0xabc, 0, &ds).unwrap();
        assert!(matches!(replayed.fault, Some(WalFault::SeqGap { expected: 0, .. })));
        assert!(replayed.events.is_empty());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn retire_deletes_only_fully_covered_closed_segments() {
        let ds = dataset();
        let events = events_from_dataset(&ds);
        let dir = tmp("retire");
        let mut w = write_log(&dir, &events, 2, small());
        let before = segment_files(&dir, 0xabc).unwrap();
        assert!(before.len() >= 3);
        // A checkpoint at the second segment's start covers exactly the
        // first segment.
        let covered_through = before[1].0;
        let removed = w.retire_through(covered_through).unwrap();
        assert_eq!(removed, 1);
        let after = segment_files(&dir, 0xabc).unwrap();
        assert_eq!(after.len(), before.len() - 1);
        assert_eq!(after[0].0, before[1].0, "oldest survivor starts at the checkpoint");
        // Everything past the checkpoint still replays.
        let replayed = replay(&dir, 0xabc, covered_through, &ds).unwrap();
        assert!(replayed.fault.is_none());
        assert_eq!(canon_all(&replayed.events), canon_all(&events[covered_through as usize..]));
        // Retiring through the whole stream keeps the active segment.
        w.retire_through(events.len() as u64).unwrap();
        assert!(!segment_files(&dir, 0xabc).unwrap().is_empty());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fsync_batching_counts_and_rotation_forces_a_sync() {
        let ds = dataset();
        let events = events_from_dataset(&ds);
        let dir = tmp("fsync");
        // Big segments: no rotation syncs interfere.
        let opts = WalOptions { fsync_every: 4, segment_bytes: 1 << 20 };
        let mut w = WalWriter::open(&dir, 0xabc, opts, 0).unwrap();
        for chunk in events.chunks(2) {
            w.append(chunk).unwrap();
        }
        let appends = w.stats().appends;
        assert_eq!(w.stats().fsyncs, appends / 4, "one sync per fsync_every appends");
        w.sync().unwrap();
        let synced = w.stats().fsyncs;
        w.sync().unwrap();
        assert_eq!(w.stats().fsyncs, synced, "sync with nothing unsynced is free");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_dir_and_empty_appends_are_clean() {
        let ds = dataset();
        let dir = tmp("empty");
        fs::create_dir_all(&dir).unwrap();
        let replayed = replay(&dir, 0xabc, 7, &ds).unwrap();
        assert!(replayed.fault.is_none());
        assert!(replayed.events.is_empty());
        assert_eq!(replayed.next_seq, 7);

        let mut w = WalWriter::open(&dir, 0xabc, WalOptions::default(), 7).unwrap();
        w.append(&[]).unwrap();
        assert_eq!(w.stats().appends, 0, "empty batches are not logged");
        assert!(segment_files(&dir, 0xabc).unwrap().is_empty(), "no segment until a real append");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_batch_over_the_record_bound_is_cut_into_records_that_replay_in_order() {
        let ds = dataset();
        let events = events_from_dataset(&ds);
        let dir = tmp("split");
        let mut w = WalWriter::open(&dir, 0xabc, WalOptions::default(), 0).unwrap();
        // 100 bytes hold a few events, so one batch becomes many records.
        w.append_bounded(&events, 100).unwrap();
        w.sync().unwrap();
        let records = w.stats().appends;
        assert!(records > 1, "the batch must have been cut");
        assert_eq!(w.next_seq(), events.len() as u64);

        let replayed = replay(&dir, 0xabc, 0, &ds).unwrap();
        assert!(replayed.fault.is_none(), "cut batch: {:?}", replayed.fault);
        assert_eq!(replayed.records, records);
        assert_eq!(replayed.next_seq, events.len() as u64);
        assert_eq!(canon_all(&replayed.events), canon_all(&events));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn an_event_over_the_record_bound_is_an_error_and_logs_nothing() {
        let ds = dataset();
        let events = events_from_dataset(&ds);
        let dir = tmp("oversized");
        let mut w = WalWriter::open(&dir, 0xabc, WalOptions::default(), 0).unwrap();
        // `P` records fit in 8 bytes; the first `U` record does not.
        let err = w.append_bounded(&events, 8).unwrap_err();
        assert_eq!(err.error.kind(), io::ErrorKind::InvalidInput, "{err}");
        assert_eq!(w.stats().appends, 0);
        assert_eq!(w.next_seq(), 0);
        assert!(segment_files(&dir, 0xabc).unwrap().is_empty(), "no byte reached the log");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn wrong_stream_id_refuses() {
        let ds = dataset();
        let events = events_from_dataset(&ds);
        let dir = tmp("stream");
        write_log(&dir, &events, 4, WalOptions::default());
        // Same directory, different stream: no files match the prefix.
        let other = replay(&dir, 0xdef, 0, &ds).unwrap();
        assert!(other.events.is_empty() && other.fault.is_none());
        // Rename a segment to the other stream's prefix: header refuses.
        let (start, path) = segment_files(&dir, 0xabc).unwrap().remove(0);
        let renamed = segment_path(&dir, 0xdef, start);
        fs::rename(&path, &renamed).unwrap();
        let replayed = replay(&dir, 0xdef, 0, &ds).unwrap();
        assert!(matches!(
            replayed.fault,
            Some(WalFault::Corrupt { kind: WalCorruptKind::StreamMismatch, .. })
        ));
        fs::remove_dir_all(&dir).ok();
    }
}
