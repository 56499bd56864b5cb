//! A fast, deterministic, dependency-free hasher for hot-path maps.
//!
//! `std`'s default `SipHash` is keyed per-process and costs ~1ns per word of
//! input even for tiny keys; the simulator's hot maps are keyed by `u32`
//! handles ([`crate::CompId`]), small tuples and short strings, where a
//! multiply-rotate hash is several times faster and — unlike `SipHash` —
//! produces the same table order in every run, which the deterministic
//! engine cares about. The construction is the well-known `FxHash`
//! (Firefox's `rustc-hash`): fold each 8-byte word into the state with a
//! rotate, xor and a multiply by a large odd constant.
//!
//! None of these maps are exposed to adversarial keys, so the lack of DoS
//! resistance is fine; anything parsing untrusted input keeps `SipHash`.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// The multiply-rotate hash state. See the module docs.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

/// The FxHash multiply constant (a large odd number with good bit mixing,
/// `pi` in hex).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

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
        for chunk in &mut chunks {
            let word = u64::from_le_bytes(
                chunk
                    .try_into()
                    .unwrap_or_else(|_| unreachable!("chunks_exact yields 8-byte chunks")),
            );
            self.add_to_hash(word);
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            // Pack the remainder into the HIGH bytes and the length into the
            // low byte: a difference in the previous chunk reaches only the
            // low bits of this round (via the rotate), so keeping the
            // remainder's difference in the high bits prevents the two from
            // cancelling — the dominant collision mode for families of
            // similar strings. The length byte distinguishes "ab" from
            // "ab\0".
            let mut word = [0u8; 8];
            word[8 - rest.len()..].copy_from_slice(rest);
            word[0] |= rest.len() as u8;
            self.add_to_hash(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }

    /// Rotates the state so its best-mixed bits become the low bits.
    ///
    /// A multiply carries entropy only upward, so the state's low bits depend
    /// on the low bytes of each word alone. `std`'s table picks the bucket
    /// from the low bits, and a family like `member-0` … `member-19999`
    /// differs only in high bytes: unrotated, its 20 000 keys fell into 657
    /// of 32 768 buckets and every insert walked a long probe chain, which
    /// made spawning n named processes quadratic. Rotated by 20, the same
    /// keys reach about as many buckets as random hashes would, and integer
    /// and tuple keys stay as spread as before.
    #[inline]
    fn finish(&self) -> u64 {
        self.hash.rotate_left(20)
    }
}

/// `HashMap` keyed through [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// `HashSet` keyed through [`FxHasher`].
pub type FxHashSet<T> = HashSet<T, BuildHasherDefault<FxHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(v: &T) -> u64 {
        BuildHasherDefault::<FxHasher>::default().hash_one(v)
    }

    #[test]
    fn deterministic_across_instances() {
        assert_eq!(hash_of(&42u32), hash_of(&42u32));
        assert_eq!(hash_of(&"pbcom"), hash_of(&"pbcom"));
    }

    #[test]
    fn distinguishes_nearby_keys() {
        assert_ne!(hash_of(&1u32), hash_of(&2u32));
        assert_ne!(hash_of(&"ab"), hash_of(&"ba"));
        assert_ne!(hash_of(&"ab"), hash_of(&"ab\0"));
        assert_ne!(hash_of(&("fd", 1u32)), hash_of(&("fd", 2u32)));
    }

    #[test]
    fn maps_and_sets_work() {
        let mut m: FxHashMap<u32, &str> = FxHashMap::default();
        m.insert(7, "seven");
        assert_eq!(m.get(&7), Some(&"seven"));
        let mut s: FxHashSet<(u32, u32)> = FxHashSet::default();
        assert!(s.insert((1, 2)));
        assert!(!s.insert((1, 2)));
    }

    #[test]
    fn similar_names_spread_over_the_low_bits() {
        // The table's bucket index is the hash's low bits. 20 000 random
        // hashes hit ~14 900 of 2^15 buckets; without the finishing rotate
        // these keys hit 657.
        for prefix in ["member-", "a"] {
            let buckets: std::collections::HashSet<u64> = (0..20_000)
                .map(|i| hash_of(&format!("{prefix}{i}")) & 0x7FFF)
                .collect();
            assert!(
                buckets.len() > 10_000,
                "{prefix}: {} buckets",
                buckets.len()
            );
        }
    }

    #[test]
    fn integer_keys_never_collide() {
        // The hot-path keys are u32/u64 handles: a single multiply by an odd
        // constant, which is injective mod 2^64.
        let mut seen = std::collections::HashSet::new();
        for i in 0..100_000u32 {
            assert!(seen.insert(hash_of(&i)));
        }
    }

    #[test]
    fn long_keys_spread_enough() {
        // FxHash is not collision-free on similar strings (a top-bit
        // difference can cancel against the next word's low bits), but the
        // rate must stay far below anything that would degrade a map. String
        // keys are only hashed at the intern boundary anyway.
        let mut seen = std::collections::HashSet::new();
        for i in 0..1000 {
            seen.insert(hash_of(&format!("component-name-{i}")));
        }
        assert!(seen.len() >= 980, "only {} distinct of 1000", seen.len());
    }
}
