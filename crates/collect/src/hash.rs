//! Seed-free FxHash-style mixing.
//!
//! The standard library's default hasher (`RandomState`) draws OS entropy
//! once per process, which library code may not use: the same program would lay
//! out its tables differently on every run. [`FxHasher`] is the classic
//! rustc hash instead — a fixed multiply-rotate mixer with no seed at
//! all, so hash values (and therefore probe sequences) are a pure
//! function of the key bytes. It is not DoS-resistant, which is fine
//! here: keys come from the simulation itself, not from adversarial
//! network input.

use std::hash::{Hash, Hasher};

/// The Fx multiplier: a 64-bit constant derived from the golden ratio,
/// the same one rustc uses.
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

const ROTATE: u32 = 5;

/// A deterministic, seed-free hasher.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    /// A fresh hasher with the zero state.
    #[must_use]
    pub fn new() -> Self {
        FxHasher::default()
    }

    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(ROTATE) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in chunks.by_ref() {
            let mut word = [0u8; 8];
            word.copy_from_slice(chunk);
            self.add_to_hash(u64::from_le_bytes(word));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut word = [0u8; 8];
            word[..rem.len()].copy_from_slice(rem);
            self.add_to_hash(u64::from_le_bytes(word));
        }
        self.add_to_hash(bytes.len() as u64);
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add_to_hash(u64::from(n));
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.add_to_hash(u64::from(n));
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add_to_hash(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add_to_hash(n);
    }

    #[inline]
    fn write_u128(&mut self, n: u128) {
        self.add_to_hash(n as u64);
        self.add_to_hash((n >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add_to_hash(n as u64);
    }

    #[inline]
    fn write_i8(&mut self, n: i8) {
        self.add_to_hash(n as u8 as u64);
    }

    #[inline]
    fn write_i16(&mut self, n: i16) {
        self.add_to_hash(n as u16 as u64);
    }

    #[inline]
    fn write_i32(&mut self, n: i32) {
        self.add_to_hash(n as u32 as u64);
    }

    #[inline]
    fn write_i64(&mut self, n: i64) {
        self.add_to_hash(n as u64);
    }

    #[inline]
    fn write_isize(&mut self, n: isize) {
        self.add_to_hash(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// Hashes one value with the deterministic mixer.
#[inline]
#[must_use]
pub fn hash_one<T: Hash + ?Sized>(value: &T) -> u64 {
    let mut hasher = FxHasher::new();
    value.hash(&mut hasher);
    hasher.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_inputs_hash_identically() {
        assert_eq!(hash_one("throughput"), hash_one("throughput"));
        assert_eq!(hash_one(&42u64), hash_one(&42u64));
    }

    #[test]
    fn different_inputs_usually_differ() {
        assert_ne!(hash_one("a"), hash_one("b"));
        assert_ne!(hash_one(&1u64), hash_one(&2u64));
        // Prefix padding must not collide with the padded remainder.
        assert_ne!(hash_one("abcdefgh"), hash_one("abcdefgh\0"));
    }

    #[test]
    fn hash_is_a_pure_function_of_bytes() {
        // The load-bearing property: no per-process seeding. A fixed
        // input must map to a fixed output, forever.
        let h = hash_one("metrics.outputs");
        for _ in 0..100 {
            assert_eq!(hash_one("metrics.outputs"), h);
        }
    }
}
