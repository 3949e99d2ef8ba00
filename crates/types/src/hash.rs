//! One fixed hasher for the id-keyed tables of the protocol and the
//! simulator.
//!
//! Those tables are keyed by small integers the program allocates itself
//! (rumor ids, timer ids, correlation ids, node pairs), are probed on every
//! message, and must behave the same in every process. std's default
//! `RandomState` fits none of that: SipHash is slow for one-word keys and
//! its per-process random seed makes any iteration order irreproducible.
//! [`FoldHasher`] folds each written word into one 64-bit state and
//! finishes with [`mix64`], the SplitMix64 finaliser behind
//! [`crate::shard_hash`]. It is unkeyed, so it offers no protection against
//! keys crafted to collide: keep std's hasher for tables keyed by input
//! from outside the program.

use std::hash::{BuildHasherDefault, Hasher};

/// The SplitMix64 output function: adds the golden-ratio increment, then
/// two xor-shift-multiply rounds. Every input bit reaches every output bit,
/// so dense small integers spread over the whole 64-bit range.
#[inline]
pub fn mix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Odd multiplier of the per-word fold (the FxHash constant).
const FOLD: u64 = 0x517c_c1b7_2722_0a95;

/// A deterministic, unkeyed [`Hasher`]: one rotate-xor-multiply per written
/// word, [`mix64`] on [`Hasher::finish`]. See the module docs for where it
/// may be used.
#[derive(Debug, Clone, Copy, Default)]
pub struct FoldHasher {
    state: u64,
}

impl Hasher for FoldHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.write_u64(u64::from(n));
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.write_u64(u64::from(n));
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.state = (self.state.rotate_left(5) ^ n).wrapping_mul(FOLD);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        mix64(self.state)
    }
}

/// A `HashMap` hashed by [`FoldHasher`]; `FastMap::default()` allocates
/// nothing.
#[allow(clippy::disallowed_types)] // the one sanctioned std map: the alias itself
pub type FastMap<K, V> = std::collections::HashMap<K, V, BuildHasherDefault<FoldHasher>>;

/// A `HashSet` hashed by [`FoldHasher`]; `FastSet::default()` allocates
/// nothing.
#[allow(clippy::disallowed_types)] // the one sanctioned std set: the alias itself
pub type FastSet<T> = std::collections::HashSet<T, BuildHasherDefault<FoldHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{NodeId, ObjectId};
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(value: &T) -> u64 {
        BuildHasherDefault::<FoldHasher>::default().hash_one(value)
    }

    /// The hasher is unkeyed: the same key hashes the same in every process
    /// and every release, which is what makes the tables reproducible.
    #[test]
    fn hashes_are_pinned() {
        assert_eq!(hash_of(&0u64), 16294208416658607535);
        assert_eq!(hash_of(&7u64), 5909264208457564944);
        assert_eq!(hash_of(&(NodeId(3), 9u64)), 8545892439391014240);
    }

    #[test]
    fn narrow_writes_fold_as_words() {
        let mut narrow = FoldHasher::default();
        narrow.write_u32(0xdead_beef);
        let mut wide = FoldHasher::default();
        wide.write_u64(0xdead_beef);
        assert_eq!(narrow.finish(), wide.finish());
        // Byte input folds eight little-endian bytes per word, the last
        // word zero-padded.
        let mut bytes = FoldHasher::default();
        bytes.write(&[1, 0, 0, 0, 0, 0, 0, 0, 2]);
        let mut words = FoldHasher::default();
        words.write_u64(1);
        words.write_u64(2);
        assert_eq!(bytes.finish(), words.finish());
    }

    /// Dense ids — the tables' real keys — must not collide, and must
    /// spread over a hash table's low bits (its bucket index) and high
    /// bits (its control tag) alike.
    #[test]
    fn dense_ids_spread_over_low_and_high_bits() {
        let hashes: Vec<u64> = (0..4096u64).map(|i| hash_of(&ObjectId(i))).collect();
        let distinct: FastSet<u64> = hashes.iter().copied().collect();
        assert_eq!(distinct.len(), hashes.len());
        for shift in [0, 57] {
            let mut buckets = [0usize; 128];
            for h in &hashes {
                buckets[((h >> shift) & 127) as usize] += 1;
            }
            // 32 expected per bucket; a lockstep pattern would leave most empty.
            assert!(buckets.iter().all(|&b| (8..=64).contains(&b)), "shift {shift}: {buckets:?}");
        }
    }

    #[test]
    fn default_tables_allocate_nothing() {
        let map: FastMap<u64, u64> = FastMap::default();
        let set: FastSet<u64> = FastSet::default();
        assert_eq!(map.capacity(), 0);
        assert_eq!(set.capacity(), 0);
    }
}
