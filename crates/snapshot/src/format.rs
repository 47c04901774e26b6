//! Little-endian byte-level primitives shared by the encoder and decoder.
//!
//! Everything in the snapshot file reduces to four shapes: fixed-width
//! scalars, length-prefixed byte strings, length-prefixed homogeneous
//! arrays of scalars, and the payload checksum. [`ByteWriter`] and
//! [`ByteReader`] implement those shapes symmetrically; the section codecs
//! in `codec` never touch raw bytes directly. The fixed file
//! header has one writer (`header`) and one parser (`read_header`),
//! shared by the in-memory and streaming encoders and decoders.
//!
//! The reader is written for the hostile-input case: every read is
//! bounds-checked and returns [`SnapshotError::Truncated`] instead of
//! panicking, because a corrupt or short file must fall back to a fresh
//! simulation, never abort the process.

use crate::{SnapshotError, FORMAT_VERSION, MAGIC};

/// Bytes of the fixed file header in front of the meta payload.
pub(crate) const HEADER_LEN: usize = 40;

/// The file header for `meta`: magic, format version, reserved flags (0),
/// config fingerprint, meta payload length and meta payload checksum.
pub(crate) fn header(fingerprint: u64, meta: &[u8]) -> [u8; HEADER_LEN] {
    let mut out = [0u8; HEADER_LEN];
    out[..8].copy_from_slice(&MAGIC);
    out[8..12].copy_from_slice(&FORMAT_VERSION.to_le_bytes());
    out[16..24].copy_from_slice(&fingerprint.to_le_bytes());
    out[24..32].copy_from_slice(&(meta.len() as u64).to_le_bytes());
    out[32..40].copy_from_slice(&checksum(meta).to_le_bytes());
    out
}

/// Parses the header at the start of `bytes`, checking in order magic,
/// format version and `fingerprint`, and returns the meta payload's
/// length and stored checksum. Input that ends inside the header fails
/// as [`SnapshotError::Truncated`] at the first field it cuts.
pub(crate) fn read_header(bytes: &[u8], fingerprint: u64) -> Result<(u64, u64), SnapshotError> {
    let mut r = ByteReader::new(bytes);
    if r.take(MAGIC.len())? != MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    let version = r.u32()?;
    if version != FORMAT_VERSION {
        return Err(SnapshotError::VersionMismatch { found: version });
    }
    let _flags = r.u32()?;
    let found = r.u64()?;
    if found != fingerprint {
        return Err(SnapshotError::FingerprintMismatch { found, expected: fingerprint });
    }
    let len = r.u64()?;
    let sum = r.u64()?;
    Ok((len, sum))
}

/// Appends little-endian values to a growing byte buffer.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// An empty writer with room for `capacity` bytes.
    pub fn with_capacity(capacity: usize) -> ByteWriter {
        ByteWriter { buf: Vec::with_capacity(capacity) }
    }

    /// The bytes written so far.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Current length in bytes.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Writes one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a `u16` little-endian.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u32` little-endian.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u64` little-endian.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes an `i64` little-endian.
    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes an `f32` as its little-endian bit pattern (exact round-trip).
    pub fn f32(&mut self, v: f32) {
        self.u32(v.to_bits());
    }

    /// Writes an `f64` as its little-endian bit pattern (exact round-trip).
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Writes a length-prefixed (u32) byte string.
    pub fn bytes(&mut self, v: &[u8]) {
        self.u32(v.len() as u32);
        self.buf.extend_from_slice(v);
    }

    /// Writes a length-prefixed UTF-8 string.
    pub fn str(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }

    /// Writes a length-prefixed array of `u32`s.
    pub fn u32_slice(&mut self, vs: &[u32]) {
        self.u32(vs.len() as u32);
        self.buf.reserve(vs.len() * 4);
        for &v in vs {
            self.buf.extend_from_slice(&v.to_le_bytes());
        }
    }

    /// Writes a length-prefixed array of `u64`s.
    pub fn u64_slice(&mut self, vs: &[u64]) {
        self.u32(vs.len() as u32);
        self.buf.reserve(vs.len() * 8);
        for &v in vs {
            self.buf.extend_from_slice(&v.to_le_bytes());
        }
    }
}

/// Bounds-checked cursor over an immutable byte slice.
#[derive(Debug, Clone, Copy)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// A reader positioned at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> ByteReader<'a> {
        ByteReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Takes the next `n` raw bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        if self.remaining() < n {
            return Err(SnapshotError::Truncated);
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, SnapshotError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("2 bytes")))
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    /// Reads a little-endian `i64`.
    pub fn i64(&mut self) -> Result<i64, SnapshotError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    /// Reads an `f32` bit pattern.
    pub fn f32(&mut self) -> Result<f32, SnapshotError> {
        Ok(f32::from_bits(self.u32()?))
    }

    /// Reads an `f64` bit pattern.
    pub fn f64(&mut self) -> Result<f64, SnapshotError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a length prefix that promises `width`-byte elements, rejecting
    /// lengths the remaining input cannot possibly hold (so corrupt huge
    /// lengths fail fast instead of attempting a giant allocation).
    pub fn len_prefix(&mut self, width: usize) -> Result<usize, SnapshotError> {
        let n = self.u32()? as usize;
        if n.saturating_mul(width) > self.remaining() {
            return Err(SnapshotError::Truncated);
        }
        Ok(n)
    }

    /// Reads a length-prefixed byte string.
    pub fn bytes(&mut self) -> Result<&'a [u8], SnapshotError> {
        let n = self.len_prefix(1)?;
        self.take(n)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<&'a str, SnapshotError> {
        std::str::from_utf8(self.bytes()?).map_err(|_| SnapshotError::Corrupt("invalid utf-8"))
    }

    /// Reads a length-prefixed array of `u32`s.
    pub fn u32_vec(&mut self) -> Result<Vec<u32>, SnapshotError> {
        let n = self.len_prefix(4)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.u32()?);
        }
        Ok(out)
    }

    /// Reads a length-prefixed array of `u64`s.
    pub fn u64_vec(&mut self) -> Result<Vec<u64>, SnapshotError> {
        let n = self.len_prefix(8)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.u64()?);
        }
        Ok(out)
    }
}

/// One step of the splitmix64 output function: a bijective `u64` finalizer
/// with full avalanche (same construction as `crowd_core::rng`).
#[inline]
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// 64-bit payload checksum: splitmix64-mixed 8-byte blocks, seeded with the
/// payload length.
///
/// Not cryptographic — it guards against torn writes, truncation, and
/// bit rot, where any flipped bit avalanches through the mix. Processing
/// whole words keeps it ~8× faster than a byte-at-a-time FNV over the
/// tens-of-megabytes instance section, which matters because the checksum
/// is verified on every warm start.
pub fn checksum(bytes: &[u8]) -> u64 {
    let mut h = mix(0xC0FF_EE00_5EED ^ bytes.len() as u64);
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        h = mix(h ^ u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
    }
    let rem = chunks.remainder();
    if !rem.is_empty() {
        let mut last = [0u8; 8];
        last[..rem.len()].copy_from_slice(rem);
        h = mix(h ^ u64::from_le_bytes(last));
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        let mut w = ByteWriter::default();
        w.u8(7);
        w.u16(65_535);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX - 1);
        w.i64(-12345);
        w.f32(0.25);
        w.f64(-0.0);
        w.str("héllo");
        w.u32_slice(&[1, 2, 3]);
        w.u64_slice(&[]);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u16().unwrap(), 65_535);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.i64().unwrap(), -12345);
        assert_eq!(r.f32().unwrap(), 0.25);
        assert_eq!(r.f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(r.str().unwrap(), "héllo");
        assert_eq!(r.u32_vec().unwrap(), vec![1, 2, 3]);
        assert_eq!(r.u64_vec().unwrap(), Vec::<u64>::new());
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn short_reads_are_truncation_errors() {
        let mut r = ByteReader::new(&[1, 2, 3]);
        assert!(matches!(r.u64(), Err(SnapshotError::Truncated)));
        // A length prefix promising more than the buffer holds is rejected
        // before any allocation.
        let mut w = ByteWriter::default();
        w.u32(u32::MAX);
        let bytes = w.into_bytes();
        assert!(matches!(ByteReader::new(&bytes).u64_vec(), Err(SnapshotError::Truncated)));
    }

    #[test]
    fn checksum_sees_every_bit() {
        let payload: Vec<u8> = (0..1024u32).map(|i| (i % 251) as u8).collect();
        let base = checksum(&payload);
        for flip in [0usize, 7, 512, 1023] {
            let mut corrupt = payload.clone();
            corrupt[flip] ^= 0x01;
            assert_ne!(checksum(&corrupt), base, "flip at byte {flip}");
        }
        assert_ne!(checksum(&payload[..1023]), base, "truncation changes the sum");
        assert_eq!(checksum(&payload), base, "deterministic");
    }
}
