//! A deterministic, fast hasher for simulation-internal maps.
//!
//! `std`'s default `RandomState` seeds SipHash per process — fine for
//! DoS resistance, wrong for a simulator that promises bit-identical
//! runs across processes and machines, and needlessly slow for the
//! small integer keys the protocol state machines use. [`FxHasher`]
//! implements the rustc-hash (Firefox) multiply-rotate scheme: a pure
//! function of the key bytes, several times faster than SipHash on
//! word-sized keys.
//!
//! Note hash maps are still unordered: any behaviour-relevant iteration
//! must sort, hasher or no hasher. The determinism win is defence in
//! depth; the throughput win is the point.
//!
//! [`Fnv1a`] is the workspace's one *digest*: a fixed function whose
//! values are written down — in golden files, cache keys and campaign
//! store fingerprints — so it must never change.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Multiplicative constant from rustc-hash (the golden-ratio based
/// Fibonacci hashing constant for 64-bit words).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The rustc-hash / FxHash word-at-a-time hasher: deterministic across
/// processes and fast on small keys. Not collision-resistant against
/// adversaries — simulation state only.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in chunks.by_ref() {
            self.add_to_hash(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut last = [0u8; 8];
            last[..rem.len()].copy_from_slice(rem);
            self.add_to_hash(u64::from_le_bytes(last));
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add_to_hash(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add_to_hash(n as u64);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add_to_hash(n as u64);
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add_to_hash(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// `HashMap` keyed by the deterministic [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// `HashSet` keyed by the deterministic [`FxHasher`].
pub type FxHashSet<T> = HashSet<T, BuildHasherDefault<FxHasher>>;

/// Incremental 64-bit FNV-1a. Tiny and stable across platforms and
/// releases (unlike std's hasher), which is what a digest that lands
/// on disk needs; not collision-resistant against adversaries.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    #[inline]
    fn default() -> Fnv1a {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv1a {
    /// Folds raw bytes into the digest.
    #[inline]
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds a `u64` (little-endian bytes).
    #[inline]
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// Folds an `f64` by exact bit pattern (no rounding ambiguity).
    #[inline]
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    /// Folds a string, length first, so adjacent strings cannot run
    /// into each other.
    #[inline]
    pub fn write_str(&mut self, s: &str) {
        self.write_u64(s.len() as u64);
        self.write(s.as_bytes());
    }

    /// The digest so far.
    #[inline]
    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_builders() {
        let mut a = FxHasher::default();
        let mut b = FxHasher::default();
        a.write_u64(0xDEAD_BEEF);
        b.write_u64(0xDEAD_BEEF);
        assert_eq!(a.finish(), b.finish());
        assert_ne!(a.finish(), 0);
    }

    #[test]
    fn tuple_keys_work_in_maps() {
        let mut m: FxHashMap<(usize, u64), f64> = FxHashMap::default();
        for i in 0..1000usize {
            m.insert((i, (i * 7) as u64), i as f64);
        }
        assert_eq!(m.len(), 1000);
        for i in 0..1000usize {
            assert_eq!(m.get(&(i, (i * 7) as u64)), Some(&(i as f64)));
        }
    }

    #[test]
    fn fnv1a_matches_the_reference_vectors() {
        // The published FNV-1a 64-bit test vectors.
        let digest = |bytes: &[u8]| {
            let mut h = Fnv1a::default();
            h.write(bytes);
            h.finish()
        };
        assert_eq!(digest(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(digest(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(digest(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn byte_tail_is_hashed() {
        let mut a = FxHasher::default();
        a.write(b"hello wor");
        let mut b = FxHasher::default();
        b.write(b"hello wox");
        assert_ne!(a.finish(), b.finish());
    }
}
