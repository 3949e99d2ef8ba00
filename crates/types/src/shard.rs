//! Shard identity and the object → shard routing hash.
//!
//! Replica stores, per-object protocol state and the threaded engine's
//! per-node mailboxes are all partitioned by the *same* function of the
//! [`ObjectId`], so "which shard owns object X" has exactly one answer
//! everywhere in the system. The function must be stable across runs (it
//! participates in deterministic simulation) and cheap (it sits on every
//! message-routing hot path), so it is a fixed SplitMix64 finaliser rather
//! than anything keyed or configurable.

use crate::hash::mix64;
use crate::ids::ObjectId;
use std::fmt;

/// Identity of one store/runtime shard within a node.
///
/// Shards are dense indices `0..S`; `S` is a per-node deployment choice
/// (`IdeaConfig::store_shards` in `idea-core`, `ThreadedConfig::shards` in
/// `idea-net`) and every layer routing by object must agree on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ShardId(pub u32);

impl ShardId {
    /// The shard owning `object` among `shards` shards. With one shard
    /// that is shard 0 without hashing: every delivered message is routed
    /// through here, and most nodes run one shard.
    ///
    /// # Panics
    /// Panics if `shards` is zero.
    #[inline]
    pub fn of(object: ObjectId, shards: usize) -> ShardId {
        assert!(shards > 0, "shard count must be positive");
        if shards == 1 {
            return ShardId(0);
        }
        ShardId((shard_hash(object) % shards as u64) as u32)
    }

    /// Returns the raw index, for indexing dense per-shard tables.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ShardId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// The stable 64-bit mix behind [`ShardId::of`] ([`mix64`], the SplitMix64
/// finaliser).
///
/// Object ids are often dense small integers; taking them modulo `S`
/// directly would stripe consecutive objects across shards in lockstep with
/// any workload periodicity, so they are mixed first.
#[inline]
pub fn shard_hash(object: ObjectId) -> u64 {
    mix64(object.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn routing_is_stable_across_calls() {
        for obj in 0..64u64 {
            let a = ShardId::of(ObjectId(obj), 8);
            let b = ShardId::of(ObjectId(obj), 8);
            assert_eq!(a, b);
            assert!(a.index() < 8);
        }
    }

    #[test]
    fn single_shard_owns_everything() {
        for obj in [0u64, 1, 17, u64::MAX] {
            assert_eq!(ShardId::of(ObjectId(obj), 1), ShardId(0));
        }
    }

    proptest::proptest! {
        /// The one-shard shortcut answers what the hash would (any hash
        /// modulo one is zero), for any object id.
        #[test]
        fn one_shard_is_shard_zero_for_every_object(id in 0u64..u64::MAX) {
            proptest::prop_assert_eq!(ShardId::of(ObjectId(id), 1), ShardId(0));
        }
    }

    #[test]
    fn hash_spreads_dense_ids() {
        // Dense object ids must not all land on one shard.
        let mut counts = [0usize; 4];
        for obj in 0..256u64 {
            counts[ShardId::of(ObjectId(obj), 4).index()] += 1;
        }
        for (s, &c) in counts.iter().enumerate() {
            assert!(c > 32, "shard {s} got only {c}/256 dense objects");
        }
    }

    #[test]
    fn hash_is_pinned() {
        // The routing function is part of the wire-visible behaviour of the
        // sharded runtime (mailbox selection); pin its values so a silent
        // change cannot reshuffle ownership between releases.
        assert_eq!(shard_hash(ObjectId(0)), 16294208416658607535);
        assert_eq!(shard_hash(ObjectId(1)), 10451216379200822465);
    }

    #[test]
    #[should_panic(expected = "shard count must be positive")]
    fn zero_shards_panics() {
        let _ = ShardId::of(ObjectId(1), 0);
    }

    #[test]
    fn display_form() {
        assert_eq!(ShardId(3).to_string(), "s3");
    }
}
