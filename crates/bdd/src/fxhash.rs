//! A small multiply-rotate hasher in the style of FxHash (the hasher of
//! `rustc` and Firefox), for the manager's unique table and operation
//! caches.
//!
//! The kernel's tables are keyed by a few `u32` arena indices. SipHash,
//! the `std` default, spends more time hashing such a key than the table
//! spends finding it; one multiply per word is enough here. SipHash's
//! extra cost buys resistance to keys chosen to collide, which these
//! tables do not need: their keys are node ids, variable ids and
//! operation tags that the manager assigns itself, never raw input.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` hashed with [`FxHasher`].
pub(crate) type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// Odd 64-bit multiplier with well-spread bits (the one of
/// `rustc-hash` 2).
const K: u64 = 0xf135_7aea_2e62_a9c5;

/// Folds each word into the state with an add and a multiply; `finish`
/// rotates the well-mixed high bits down, because `HashMap` takes its
/// bucket index from the low bits.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = self.hash.wrapping_add(word).wrapping_mul(K);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            let mut word = [0u8; 8];
            word.copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash.rotate_left(26)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(t: &T) -> u64 {
        BuildHasherDefault::<FxHasher>::default().hash_one(t)
    }

    #[test]
    fn deterministic_and_key_sensitive() {
        assert_eq!(hash_of(&(1u32, 2u32, 3u32)), hash_of(&(1u32, 2u32, 3u32)));
        assert_ne!(hash_of(&(1u32, 2u32, 3u32)), hash_of(&(1u32, 3u32, 2u32)));
        assert_ne!(hash_of(&(0u32, 0u32, 1u32)), hash_of(&(0u32, 1u32, 0u32)));
    }

    #[test]
    fn byte_writes_cover_every_byte() {
        let mut a = FxHasher::default();
        a.write(&[1, 2, 3, 4, 5, 6, 7, 8, 9]);
        let mut b = FxHasher::default();
        b.write(&[1, 2, 3, 4, 5, 6, 7, 8, 10]);
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn sequential_node_keys_spread_over_buckets() {
        // Unique-table keys are dense runs of small ids; their low bits
        // (the bucket index) must not collapse onto a few buckets.
        let mask = 1023u64;
        let mut buckets = vec![0u32; 1024];
        for low in 0..64u32 {
            for high in 0..64u32 {
                buckets[(hash_of(&(7u32, low, high)) & mask) as usize] += 1;
            }
        }
        let max = buckets.iter().copied().max().unwrap_or(0);
        // 4096 keys over 1024 buckets: 4 per bucket on average.
        assert!(max <= 16, "worst bucket holds {max} keys");
    }

    #[test]
    fn works_as_map_hasher() {
        let mut m: FxHashMap<(u32, u32, u32), u32> = FxHashMap::default();
        for i in 0..1000u32 {
            m.insert((i % 7, i, i + 1), i);
        }
        assert_eq!(m.len(), 1000);
        assert_eq!(m.get(&(3, 500, 501)), Some(&500));
    }
}
