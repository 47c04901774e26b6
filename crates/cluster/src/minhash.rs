//! MinHash signatures for fast Jaccard estimation.
//!
//! A signature of `n` independent min-hashes estimates Jaccard similarity
//! as the fraction of agreeing positions, with standard error
//! `O(1/√n)`. Signatures make the §3.3 clustering scale to tens of
//! thousands of batches without quadratic exact-set comparisons.
//!
//! ## Hot-path kernel (DESIGN.md §18)
//!
//! [`MinHasher::sign`] is the blocked kernel: hash parameters live in
//! struct-of-arrays layout (`a[]`/`b[]`), shingles are pre-mixed in
//! fixed-width stack batches, and the inner loop updates `LANES` running
//! minima at a time with straight-line `wrapping_mul`/`wrapping_add`/`min`
//! — no branches, no table lookups — which the autovectorizer lifts to
//! SIMD. The min-reduction over shingles is order-invariant, so the
//! signature is bit-identical to the original per-shingle × per-function
//! scalar loop (frozen as `crowd_testkit::kernels::naive_signature` and
//! differentially tested against it).

use std::collections::HashSet;
use std::fmt;

use rayon::prelude::*;

/// Hash functions updated together in the blocked kernel's inner loop.
const LANES: usize = 8;

/// Shingles pre-mixed per batch into a stack buffer by the blocked kernel.
const BATCH: usize = 64;

/// Two signatures of different lengths were compared — they come from
/// different hash families, so positionwise agreement is undefined.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LengthMismatch {
    /// Length of the left (receiver) signature.
    pub left: usize,
    /// Length of the right signature.
    pub right: usize,
}

impl fmt::Display for LengthMismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "signature lengths differ: {} vs {}", self.left, self.right)
    }
}

impl std::error::Error for LengthMismatch {}

/// A MinHash signature: position `i` holds the minimum of hash function
/// `h_i` over the document's shingles.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Signature(pub Vec<u64>);

impl Signature {
    /// Number of hash functions.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True for a zero-function signature.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Estimated Jaccard similarity: fraction of matching positions.
    /// Zero-function signatures estimate 0.0 (no evidence of similarity).
    ///
    /// Signatures of different lengths come from different hash families;
    /// comparing them is a caller bug, reported as [`LengthMismatch`]
    /// instead of a library panic.
    pub fn estimate_jaccard(&self, other: &Signature) -> Result<f64, LengthMismatch> {
        if self.0.len() != other.0.len() {
            return Err(LengthMismatch { left: self.0.len(), right: other.0.len() });
        }
        if self.0.is_empty() {
            return Ok(0.0);
        }
        let matching = self.0.iter().zip(&other.0).filter(|(a, b)| a == b).count();
        Ok(matching as f64 / self.0.len() as f64)
    }
}

/// A family of `n` pairwise-independent hash functions
/// `h_i(x) = a_i·x + b_i (mod 2^64, odd a)` with deterministic parameters
/// derived from a seed via splitmix64. Parameters are stored
/// struct-of-arrays so the signing kernel streams them lane-blocked.
#[derive(Debug, Clone)]
pub struct MinHasher {
    a: Vec<u64>,
    b: Vec<u64>,
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Spreads a shingle's bits so the linear hash family acts on mixed input
/// (fmix64 finalizer). Shared by the blocked kernel and the naive oracle.
#[inline]
fn premix(s: u64) -> u64 {
    let mut x = s;
    x ^= x >> 33;
    x = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    x ^ (x >> 33)
}

impl MinHasher {
    /// Creates `n_hashes` hash functions from `seed`.
    pub fn new(n_hashes: usize, seed: u64) -> MinHasher {
        assert!(n_hashes > 0, "need at least one hash function");
        let mut state = seed ^ 0xD6E8_FEB8_6659_FD93;
        let mut a = Vec::with_capacity(n_hashes);
        let mut b = Vec::with_capacity(n_hashes);
        for _ in 0..n_hashes {
            a.push(splitmix64(&mut state) | 1); // odd multiplier
            b.push(splitmix64(&mut state));
        }
        MinHasher { a, b }
    }

    /// Number of hash functions.
    pub fn n_hashes(&self) -> usize {
        self.a.len()
    }

    /// Signs a shingle slice into `sig` (cleared and resized), reusing its
    /// capacity. Duplicate or unsorted shingles are fine — the min fold is
    /// order- and multiplicity-invariant — so any slice with the same
    /// *set* of values yields the identical signature. An empty slice
    /// yields the all-`u64::MAX` signature.
    pub fn sign_into(&self, shingles: &[u64], sig: &mut Vec<u64>) {
        let n = self.a.len();
        sig.clear();
        sig.resize(n, u64::MAX);
        let mut mixed = [0u64; BATCH];
        for batch in shingles.chunks(BATCH) {
            for (m, &s) in mixed.iter_mut().zip(batch) {
                *m = premix(s);
            }
            let mixed = &mixed[..batch.len()];
            let mut lane = 0;
            while lane + LANES <= n {
                let mut am = [0u64; LANES];
                let mut bm = [0u64; LANES];
                let mut mins = [0u64; LANES];
                am.copy_from_slice(&self.a[lane..lane + LANES]);
                bm.copy_from_slice(&self.b[lane..lane + LANES]);
                mins.copy_from_slice(&sig[lane..lane + LANES]);
                for &x in mixed {
                    for j in 0..LANES {
                        mins[j] = mins[j].min(am[j].wrapping_mul(x).wrapping_add(bm[j]));
                    }
                }
                sig[lane..lane + LANES].copy_from_slice(&mins);
                lane += LANES;
            }
            for ((slot, &a), &b) in sig.iter_mut().zip(&self.a).zip(&self.b).skip(lane) {
                let mut min = *slot;
                for &x in mixed {
                    min = min.min(a.wrapping_mul(x).wrapping_add(b));
                }
                *slot = min;
            }
        }
    }

    /// Computes the signature of a shingle slice via the blocked kernel.
    /// See [`sign_into`](Self::sign_into) for the input contract.
    pub fn sign(&self, shingles: &[u64]) -> Signature {
        let mut sig = Vec::new();
        self.sign_into(shingles, &mut sig);
        Signature(sig)
    }

    /// Computes the signature of a shingle set. An empty set yields the
    /// all-`u64::MAX` signature (matching only other empty sets).
    ///
    /// Compatibility wrapper: collects the set and delegates to
    /// [`sign`](Self::sign) (identical output — the min fold does not see
    /// iteration order).
    pub fn signature(&self, shingles: &HashSet<u64>) -> Signature {
        let vals: Vec<u64> = shingles.iter().copied().collect();
        self.sign(&vals)
    }

    /// Computes signatures for many shingle sets at once, fanning the
    /// (embarrassingly parallel) per-document work out across threads.
    /// Output order matches input order exactly, so results are identical
    /// to mapping [`MinHasher::signature`] sequentially.
    pub fn signatures(&self, docs: &[HashSet<u64>]) -> Vec<Signature> {
        docs.par_iter().map(|s| self.signature(s)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shingle::{jaccard, shingles};

    fn set(vals: &[u64]) -> HashSet<u64> {
        vals.iter().copied().collect()
    }

    #[test]
    fn identical_sets_get_identical_signatures() {
        let mh = MinHasher::new(64, 1);
        let s = set(&[1, 2, 3, 4, 5]);
        assert_eq!(mh.signature(&s), mh.signature(&s));
        assert_eq!(mh.signature(&s).estimate_jaccard(&mh.signature(&s)), Ok(1.0));
    }

    #[test]
    fn deterministic_across_instances() {
        let a = MinHasher::new(32, 9).signature(&set(&[10, 20, 30]));
        let b = MinHasher::new(32, 9).signature(&set(&[10, 20, 30]));
        assert_eq!(a, b);
        let c = MinHasher::new(32, 10).signature(&set(&[10, 20, 30]));
        assert_ne!(a, c, "different seed family");
    }

    #[test]
    fn sign_ignores_order_and_duplicates() {
        let mh = MinHasher::new(96, 11); // not a LANES multiple: tail lanes covered
        let sorted = mh.sign(&[1, 2, 3, 4, 5]);
        let shuffled = mh.sign(&[5, 3, 1, 4, 2]);
        let duplicated = mh.sign(&[5, 5, 3, 1, 1, 4, 2, 3]);
        assert_eq!(sorted, shuffled);
        assert_eq!(sorted, duplicated);
    }

    #[test]
    fn sign_handles_batch_boundaries() {
        // Exactly BATCH, BATCH±1, and multi-batch inputs agree with the
        // set-based wrapper (one pass, different chunkings internally).
        let mh = MinHasher::new(40, 3);
        for n in [1u64, 63, 64, 65, 128, 200] {
            let vals: Vec<u64> = (0..n).map(|i| i * 0x9E37_79B9 + 7).collect();
            let from_slice = mh.sign(&vals);
            let from_set = mh.signature(&vals.iter().copied().collect());
            assert_eq!(from_slice, from_set, "n = {n}");
        }
    }

    #[test]
    fn estimate_tracks_exact_jaccard() {
        let mh = MinHasher::new(256, 7);
        // Build sets with known overlap: |A∩B| = 50, |A∪B| = 150 → J = 1/3.
        let a: HashSet<u64> = (0..100u64).map(|i| i * 7 + 1).collect();
        let b: HashSet<u64> = (50..150u64).map(|i| i * 7 + 1).collect();
        let exact = jaccard(&a, &b);
        assert!((exact - 1.0 / 3.0).abs() < 1e-12);
        let est = mh.signature(&a).estimate_jaccard(&mh.signature(&b)).unwrap();
        assert!((est - exact).abs() < 0.12, "est {est} vs exact {exact}");
    }

    #[test]
    fn estimate_on_real_shingles() {
        let mh = MinHasher::new(256, 3);
        let d1 = "please search for the official website of the business and copy its address";
        let d2 = "please search for the official website of the person and copy its address";
        let (s1, s2) = (shingles(d1, 3), shingles(d2, 3));
        let exact = jaccard(&s1, &s2);
        let est = mh.signature(&s1).estimate_jaccard(&mh.signature(&s2)).unwrap();
        assert!((est - exact).abs() < 0.15, "est {est} vs exact {exact}");
    }

    #[test]
    fn empty_sets() {
        let mh = MinHasher::new(16, 1);
        let empty = mh.signature(&HashSet::new());
        assert!(empty.0.iter().all(|&v| v == u64::MAX));
        assert_eq!(empty.estimate_jaccard(&empty), Ok(1.0));
        let nonempty = mh.signature(&set(&[1]));
        assert!(empty.estimate_jaccard(&nonempty).unwrap() < 1.0);
    }

    #[test]
    fn mismatched_lengths_are_an_error_not_a_panic() {
        let a = Signature(vec![1, 2]);
        let b = Signature(vec![1]);
        assert_eq!(a.estimate_jaccard(&b), Err(LengthMismatch { left: 2, right: 1 }));
        assert_eq!(b.estimate_jaccard(&a), Err(LengthMismatch { left: 1, right: 2 }));
        let msg = a.estimate_jaccard(&b).unwrap_err().to_string();
        assert!(msg.contains("2 vs 1"), "{msg}");
    }

    #[test]
    fn zero_length_signatures_estimate_zero() {
        let a = Signature(Vec::new());
        assert_eq!(a.estimate_jaccard(&a), Ok(0.0));
    }

    #[test]
    fn disjoint_sets_estimate_near_zero() {
        let mh = MinHasher::new(256, 5);
        let a: HashSet<u64> = (0..200u64).collect();
        let b: HashSet<u64> = (1000..1200u64).collect();
        let est = mh.signature(&a).estimate_jaccard(&mh.signature(&b)).unwrap();
        assert!(est < 0.05, "disjoint sets: {est}");
    }
}
