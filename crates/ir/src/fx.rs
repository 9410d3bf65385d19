//! A vendored, deterministic FxHash-style 64-bit hasher.
//!
//! The optimizer's seen-set and the transformation index's dispatch buckets
//! hash small fixed-width keys (`u64` structural hashes, gate-pair tags) millions
//! of times per search. `std`'s default SipHash is keyed per-process and
//! DoS-resistant — properties those interior hash tables do not need — and
//! measurably slower on tiny keys. This module vendors the multiply-rotate
//! scheme popularized by Firefox's `FxHasher` (and rustc's `rustc-hash`):
//! one rotate, one xor, one multiply per word.
//!
//! Two properties matter here and are asserted by tests:
//!
//! - **Deterministic**: no per-process seed, so hash values — and therefore
//!   any iteration-order-sensitive *bucket* behavior — are identical across
//!   runs and platforms of the same word size. (The optimizer never iterates
//!   its hash sets in a way that reaches output, but determinism removes the
//!   whole class of doubt.)
//! - **Cheap on small keys**: hashing a `u64` is three ALU ops, no byte
//!   loop, no finalization rounds.
//!
//! Not a cryptographic hash and not collision-resistant against adversarial
//! keys; the seen-set stores splitmix64-finalized structural hashes which
//! are already uniformly spread, so table behavior stays good.

use std::hash::{BuildHasherDefault, Hasher};

/// The multiplier from Firefox's FxHash (a 64-bit odd constant with good
/// bit diffusion under multiplication).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Number of bits to rotate the accumulator before each xor-multiply step.
const ROTATE: u32 = 5;

/// A fast, deterministic, non-cryptographic [`Hasher`] for interior hash
/// tables keyed by small values.
///
/// # Examples
///
/// ```
/// use quartz_ir::fx::FxHashSet;
///
/// let mut seen: FxHashSet<u64> = FxHashSet::default();
/// assert!(seen.insert(0xdead_beef));
/// assert!(!seen.insert(0xdead_beef));
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(ROTATE) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            let word = u64::from_le_bytes(chunk.try_into().expect("exact 8-byte chunk"));
            self.add_to_hash(word);
        }
        let tail = chunks.remainder();
        if !tail.is_empty() {
            let mut word = [0u8; 8];
            word[..tail.len()].copy_from_slice(tail);
            // Mix the tail length so "ab" and "ab\0" cannot collide through
            // the zero padding alone.
            self.add_to_hash(u64::from_le_bytes(word) ^ ((tail.len() as u64) << 56));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_u128(&mut self, i: u128) {
        self.add_to_hash(i as u64);
        self.add_to_hash((i >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }
}

/// [`std::hash::BuildHasher`] producing [`FxHasher`]s (stateless, so every
/// table built from it hashes identically).
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A [`std::collections::HashSet`] keyed by [`FxHasher`].
pub type FxHashSet<T> = std::collections::HashSet<T, FxBuildHasher>;

/// A [`std::collections::HashMap`] keyed by [`FxHasher`].
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

/// Hashes one value with [`FxHasher`] from the empty state. Convenience for
/// tests and for callers that want the raw deterministic hash of a key.
pub fn fx_hash_u64(word: u64) -> u64 {
    let mut h = FxHasher::default();
    h.write_u64(word);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The hash function is pure: no per-process or per-instance seeding.
    #[test]
    fn hashing_is_deterministic_across_instances() {
        let a = fx_hash_u64(0x0123_4567_89ab_cdef);
        let b = fx_hash_u64(0x0123_4567_89ab_cdef);
        assert_eq!(a, b);
        let build = FxBuildHasher::default();
        use std::hash::BuildHasher;
        assert_eq!(build.hash_one(42u64), build.hash_one(42u64));
    }

    /// Pin the exact constants and the exact value of one hash so any
    /// accidental change to the scheme fails loudly (table determinism is
    /// part of the engine's reproducibility story).
    #[test]
    fn hash_constants_and_values_are_pinned() {
        assert_eq!(SEED, 0x51_7c_c1_b7_27_22_0a_95);
        assert_eq!(ROTATE, 5);
        // h = (0 rotl 5 ^ w) * SEED for a single u64 write.
        let w = 0x0123_4567_89ab_cdefu64;
        assert_eq!(fx_hash_u64(w), w.wrapping_mul(SEED));
    }

    /// Byte-slice writes agree with themselves regardless of chunk split
    /// points only when written identically — and tail padding cannot alias
    /// a longer write that happens to end in zeros.
    #[test]
    fn byte_writes_distinguish_tail_lengths() {
        fn hash_bytes(bytes: &[u8]) -> u64 {
            let mut h = FxHasher::default();
            h.write(bytes);
            h.finish()
        }
        assert_eq!(hash_bytes(b"abcdefgh"), hash_bytes(b"abcdefgh"));
        assert_ne!(hash_bytes(b"ab"), hash_bytes(b"ab\0"));
        assert_ne!(hash_bytes(b"abcdefgh"), hash_bytes(b"abcdefg"));
    }

    /// Sets and maps built on the aliases behave like the std ones.
    #[test]
    fn set_and_map_aliases_work() {
        let mut set: FxHashSet<u64> = FxHashSet::default();
        assert!(set.insert(1));
        assert!(set.insert(2));
        assert!(!set.insert(1));
        assert_eq!(set.len(), 2);

        let mut map: FxHashMap<&str, usize> = FxHashMap::default();
        map.insert("a", 1);
        map.insert("b", 2);
        assert_eq!(map.get("a"), Some(&1));
        assert_eq!(map.len(), 2);
    }
}
