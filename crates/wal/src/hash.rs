//! The cheap rolling state hash: a splitmix64 fold per update, combined by
//! XOR so the digest is independent of writer interleaving (any delivery
//! order that applies the same update *set* hashes identically) and
//! supports O(1) incremental add/remove. One `u64` per node pins recovery
//! and rejoin equivalence in tests; the fault-injection harness on the
//! roadmap builds on the same digest.

use idea_types::{ObjectId, Update, UpdatePayload};

const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// The splitmix64 finalizer: a cheap, well-mixed 64-bit permutation.
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(GOLDEN);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Chains a value into a running hash (order-dependent, used *within* one
/// update where field order is fixed).
pub(crate) fn mix(h: u64, v: u64) -> u64 {
    splitmix64(h ^ v.wrapping_mul(GOLDEN))
}

fn fold_bytes(mut h: u64, bytes: &[u8]) -> u64 {
    h = mix(h, bytes.len() as u64);
    for chunk in bytes.chunks(8) {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        h = mix(h, u64::from_le_bytes(word));
    }
    h
}

/// Digest of one update: every identity and payload field contributes, so
/// two updates differing anywhere hash differently (w.h.p.).
pub fn update_hash(u: &Update) -> u64 {
    let mut h = splitmix64(u.object.0);
    h = mix(h, u64::from(u.id.writer.0));
    h = mix(h, u.id.seq);
    h = mix(h, u.at.0);
    h = mix(h, u.meta_delta as u64);
    match &u.payload {
        UpdatePayload::Opaque(b) => fold_bytes(mix(h, 1), b),
        UpdatePayload::Stroke { x, y, text } => {
            h = mix(h, 2);
            h = mix(h, u64::from(*x) << 16 | u64::from(*y));
            fold_bytes(h, text.as_bytes())
        }
        UpdatePayload::Booking { flight, seats, price_cents } => {
            h = mix(h, 3);
            h = mix(h, u64::from(*flight) << 32 | u64::from(*seats));
            mix(h, *price_cents as u64)
        }
    }
}

/// Folds one object's content digest into a shard/node-level digest.
/// Empty replicas still contribute (the digest distinguishes which objects
/// exist); XOR-combining the per-object values keeps the node digest
/// independent of how objects are partitioned into shards.
pub fn object_hash(object: ObjectId, content: u64) -> u64 {
    splitmix64(splitmix64(object.0 ^ GOLDEN) ^ content)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use idea_types::{SimTime, UpdateId, WriterId};

    fn upd(writer: u32, seq: u64, delta: i64) -> Update {
        Update {
            object: ObjectId(7),
            id: UpdateId { writer: WriterId(writer), seq },
            at: SimTime::from_secs(seq),
            meta_delta: delta,
            payload: UpdatePayload::Opaque(Bytes::from(vec![writer as u8; 3])),
        }
    }

    #[test]
    fn xor_fold_is_order_independent() {
        let a = upd(0, 1, 5);
        let b = upd(1, 1, -2);
        let c = upd(0, 2, 9);
        let fwd = update_hash(&a) ^ update_hash(&b) ^ update_hash(&c);
        let rev = update_hash(&c) ^ update_hash(&a) ^ update_hash(&b);
        assert_eq!(fwd, rev);
    }

    #[test]
    fn every_field_matters() {
        let base = upd(0, 1, 5);
        let mut m = base.clone();
        m.meta_delta = 6;
        assert_ne!(update_hash(&base), update_hash(&m));
        let mut m = base.clone();
        m.at = SimTime::from_secs(99);
        assert_ne!(update_hash(&base), update_hash(&m));
        let mut m = base.clone();
        m.payload = UpdatePayload::Opaque(Bytes::from(vec![0, 0, 4]));
        assert_ne!(update_hash(&base), update_hash(&m));
        let mut m = base.clone();
        m.id.seq = 2;
        assert_ne!(update_hash(&base), update_hash(&m));
    }

    #[test]
    fn empty_objects_still_distinguish_existence() {
        assert_ne!(object_hash(ObjectId(1), 0), object_hash(ObjectId(2), 0));
        assert_ne!(object_hash(ObjectId(1), 0), 0);
    }
}
