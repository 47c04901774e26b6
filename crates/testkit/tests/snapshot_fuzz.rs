//! Snapshot fuzzing: every single-byte mutation and every truncation of a
//! valid snapshot must fail as a typed `SnapshotError` — never decode,
//! never panic (the snapshot counterpart of `wal_fuzz.rs`).
//!
//! The format makes the oracle sharp: every byte of a snapshot is covered
//! by a check. The header has its magic, version, zero flags and
//! fingerprint; each shard section and the meta payload have their
//! checksums; the trailer has its end magic, its offsets (which must tile
//! the file) and the meta checksum it stores. So *any* effective
//! single-byte change must surface, each as the failure class of the
//! region it hit, and a damaged section must name its shard.

use std::path::PathBuf;
use std::sync::OnceLock;

use crowd_cluster::ClusterParams;
use crowd_core::fixture::Fixture;
use crowd_core::prelude::{Answer, Duration};
use crowd_sim::SimConfig;
use crowd_snapshot::format::{HEADER_LEN, TRAILER_LEN};
use crowd_snapshot::{
    decode, encode, encode_sharded, warm, ShardedSnapshotReader, Snapshot, SnapshotError,
};
use proptest::prelude::*;

const FP: u64 = 0x5AF3_F022;

/// What a single-byte flip XORs in: the low bit, the high bit, every bit.
const MASKS: [u8; 3] = [0x01, 0x80, 0xFF];

/// A small snapshot, one shard with a derived section: a few KB.
fn small() -> &'static [u8] {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| {
        let mut f = Fixture::new();
        let ws = f.add_workers(3);
        let tt = f.add_task_type("label the image", 2);
        let pages = ["<p>pick one</p><input>", "<h1>Rate</h1><img src=a.png>", "<p>pick one</p>"];
        for (i, html) in pages.iter().enumerate() {
            let b = f.add_batch_of(tt, Duration::from_hours(6 * i as i64), html);
            for item in 0..4u32 {
                let answer = match item {
                    3 => Answer::Text("a cat".into()),
                    _ => Answer::Choice(item as u16 % 2),
                };
                let worker = ws[(item as usize + i) % ws.len()];
                f.instance_full(b, item, worker, 60 + 30 * i64::from(item), 45, 0.8, answer);
            }
        }
        let dataset = f.finish();
        let derived = warm::compute_derived(&dataset, ClusterParams::default());
        let bytes = encode(&Snapshot { dataset, derived: Some(derived) }, FP);
        assert!(bytes.len() < 16 << 10, "fixture must stay small: {} bytes", bytes.len());
        bytes
    })
}

/// A simulated snapshot spanning several shards, and where each shard's
/// section starts (plus where the last one ends).
fn multi_shard() -> &'static (Vec<u8>, Vec<usize>) {
    static FIX: OnceLock<(Vec<u8>, Vec<usize>)> = OnceLock::new();
    FIX.get_or_init(|| {
        let dataset = crowd_sim::simulate(&SimConfig::new(31, 0.002));
        let bytes = encode_sharded(&Snapshot { dataset, derived: None }, FP, 100);
        let path = write_case("multi", &bytes);
        let reader = ShardedSnapshotReader::open(&path, FP).expect("pristine snapshot opens");
        let mut starts = vec![HEADER_LEN];
        for s in reader.directory().sections() {
            starts.push(starts[starts.len() - 1] + s.byte_len as usize);
        }
        let _ = std::fs::remove_file(&path);
        assert!(starts.len() > 3, "fixture must span at least 3 shards");
        (bytes, starts)
    })
}

/// Where the meta payload starts: the trailer's first field.
fn meta_offset(bytes: &[u8]) -> usize {
    let trailer = &bytes[bytes.len() - TRAILER_LEN..];
    u64::from_le_bytes(trailer[..8].try_into().unwrap()) as usize
}

/// `bytes` with `mask` XORed into byte `at`.
fn flipped(bytes: &[u8], at: usize, mask: u8) -> Vec<u8> {
    let mut out = bytes.to_vec();
    out[at] ^= mask;
    out
}

fn write_case(tag: &str, bytes: &[u8]) -> PathBuf {
    let path =
        std::env::temp_dir().join(format!("crowd_snapshot_fuzz_{tag}_{}.bin", std::process::id()));
    std::fs::write(&path, bytes).unwrap();
    path
}

/// Whether `err` is the failure class of a flip at byte `at` of `bytes`.
fn is_class_of_region(err: &SnapshotError, bytes: &[u8], at: usize) -> bool {
    let meta_at = meta_offset(bytes);
    if at < HEADER_LEN {
        matches!(
            err,
            SnapshotError::BadMagic
                | SnapshotError::VersionMismatch { .. }
                | SnapshotError::Corrupt("header flags")
                | SnapshotError::FingerprintMismatch { .. }
        )
    } else if at < meta_at {
        matches!(err, SnapshotError::ShardCorrupt { shard: 0 })
    } else if at < bytes.len() - TRAILER_LEN {
        matches!(err, SnapshotError::ChecksumMismatch)
    } else {
        matches!(
            err,
            SnapshotError::Truncated | SnapshotError::Corrupt(_) | SnapshotError::ChecksumMismatch
        )
    }
}

/// The file path: open, then materialize every shard.
fn read_file(tag: &str, bytes: &[u8]) -> Result<Snapshot, SnapshotError> {
    let path = write_case(tag, bytes);
    let read =
        ShardedSnapshotReader::open(&path, FP).and_then(ShardedSnapshotReader::into_snapshot);
    let _ = std::fs::remove_file(&path);
    read
}

#[test]
fn the_fixtures_decode() {
    assert!(decode(small(), FP).is_ok());
    assert!(read_file("clean", small()).is_ok());
    assert!(decode(&multi_shard().0, FP).is_ok());
}

#[test]
fn every_single_byte_flip_fails_decode_as_its_region() {
    let bytes = small();
    for at in 0..bytes.len() {
        for mask in MASKS {
            match decode(&flipped(bytes, at, mask), FP) {
                Ok(_) => panic!("flip {mask:#04x} at byte {at} of {} decoded", bytes.len()),
                Err(e) => {
                    assert!(is_class_of_region(&e, bytes, at), "flip at byte {at}: {e}");
                }
            }
        }
    }
}

#[test]
fn every_truncation_fails_decode_as_truncated() {
    let bytes = small();
    for cut in 0..bytes.len() {
        match decode(&bytes[..cut], FP) {
            Err(SnapshotError::Truncated) => {}
            other => panic!("cut at {cut}: expected Truncated, got {:?}", other.map(|_| "Ok")),
        }
    }
}

#[test]
fn every_header_and_trailer_flip_fails_the_file_reader() {
    let bytes = small();
    let ends = (0..HEADER_LEN).chain(bytes.len() - TRAILER_LEN..bytes.len());
    for at in ends {
        for mask in MASKS {
            match read_file("ends", &flipped(bytes, at, mask)) {
                Ok(_) => panic!("flip {mask:#04x} at byte {at} read clean"),
                Err(e) => assert!(is_class_of_region(&e, bytes, at), "flip at byte {at}: {e}"),
            }
        }
    }
}

proptest! {
    #[test]
    fn sampled_meta_and_section_flips_fail_the_file_reader(
        offset in 0usize..1 << 16,
        mask in 1u32..256,
    ) {
        let bytes = small();
        let body = HEADER_LEN..bytes.len() - TRAILER_LEN;
        let at = body.start + offset % body.len();
        match read_file("body", &flipped(bytes, at, mask as u8)) {
            Ok(_) => prop_assert!(false, "flip {:#04x} at byte {} read clean", mask, at),
            Err(e) => prop_assert!(is_class_of_region(&e, bytes, at), "flip at byte {}: {}", at, e),
        }
    }

    #[test]
    fn sampled_section_flips_name_the_damaged_shard(
        offset in 0usize..1 << 24,
        mask in 1u32..256,
    ) {
        let (bytes, starts) = multi_shard();
        let sections = starts[0]..starts[starts.len() - 1];
        let at = sections.start + offset % sections.len();
        let shard = starts.partition_point(|&s| s <= at) - 1;
        match decode(&flipped(bytes, at, mask as u8), FP) {
            Err(SnapshotError::ShardCorrupt { shard: named }) => prop_assert_eq!(named, shard),
            other => prop_assert!(
                false,
                "flip at byte {} (shard {}): {:?}", at, shard, other.map(|_| "Ok")
            ),
        }
    }
}
