//! The gossip plane's per-object half: rumor body caching and per-peer
//! digest outboxes.
//!
//! A relay plan's eager links carry rumor bodies and its lazy links only
//! rumor ids. This module owns the per-object state that makes those ids
//! useful: the **body cache** answering
//! [`crate::messages::IdeaMsg::GossipPull`]s and the **outbox** of
//! pending advertisements (piggybacked on outgoing detect traffic,
//! flushed by the `K_LAZY_FLUSH` timer otherwise). The other half —
//! bodies advertised to us but not yet held, whose `K_PULL` timer both
//! delays the first pull (giving in-flight eager copies a grace window)
//! and retries against backup advertisers — is one table per shard in
//! [`super::detection::Detection`], keyed by (object, rumor id): few
//! objects have a pull pending at any moment, so a per-object table would
//! sit empty in almost every slot.
//!
//! The state lives in [`super::ObjShared`] and in the shard's detection
//! subsystem, so the sharded runtime needs no cross-shard coordination.
//! Piggybacked digests are grouped per object
//! ([`crate::messages::DigestGroup`]): a detect frame carries the probed
//! object's group only, so when an advert is delivered never depends on
//! which other objects share its shard.

use super::{pack, ObjShared, K_LAZY_FLUSH};
use crate::config::IdeaConfig;
use crate::messages::IdeaMsg;
use idea_net::Context;
use idea_overlay::gossip::{RelayPlan, RumorId};
use idea_types::{FastMap, NodeId, ObjectId, ShardId, SimDuration};
use idea_vv::VersionVector;
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

/// Digest flush window: pending advertisements piggyback on outgoing
/// detect traffic, and any still queued when this window elapses go out in
/// a dedicated [`crate::messages::IdeaMsg::GossipDigest`].
const DIGEST_FLUSH: SimDuration = SimDuration::from_millis(200);

/// Bodies kept per object for answering pulls. Old entries are evicted
/// FIFO; a pull for an evicted body is simply unanswered and the puller's
/// retry timer moves on to a backup advertiser.
const CACHE_CAP: usize = 1024;

/// Per-object lazy-plane state (see module docs).
#[derive(Default)]
pub(crate) struct LazyPlane {
    /// Rumor bodies held for answering pulls: id → counters, sharing the
    /// allocation the body arrived in (an entry costs a refcount, not a
    /// copy). Pull replies are stamped ttl 0 (terminal): a pull satisfies
    /// the one node the flood missed, it must not re-flood past the
    /// sweep's TTL budget.
    cache: FastMap<RumorId, Arc<VersionVector>>,
    /// FIFO eviction order of `cache`.
    cache_order: VecDeque<RumorId>,
    /// Pending advertisements per peer, drained by piggybacking and the
    /// flush timer.
    outbox: BTreeMap<NodeId, Vec<(RumorId, u8)>>,
    /// Whether a `K_LAZY_FLUSH` timer is armed for this object.
    pub(crate) flush_armed: bool,
}

impl LazyPlane {
    /// Caches a body for answering pulls, evicting FIFO at capacity. The
    /// oldest body leaves before the new one is queued, so the eviction
    /// order never holds more than [`CACHE_CAP`] ids.
    pub(crate) fn cache_body(&mut self, id: RumorId, counters: Arc<VersionVector>) {
        if let Some(held) = self.cache.get_mut(&id) {
            *held = counters;
            return;
        }
        if self.cache_order.len() == CACHE_CAP {
            if let Some(old) = self.cache_order.pop_front() {
                self.cache.remove(&old);
            }
        }
        self.cache_order.push_back(id);
        self.cache.insert(id, counters);
    }

    /// The cached body of `id`, if still held.
    pub(crate) fn cached(&self, id: RumorId) -> Option<&Arc<VersionVector>> {
        self.cache.get(&id)
    }

    /// Bodies currently held for answering pulls (at most [`CACHE_CAP`]).
    pub(crate) fn cached_bodies(&self) -> usize {
        self.cache.len()
    }

    /// Queues an advertisement of `id` towards `peer`.
    pub(crate) fn enqueue_digest(&mut self, peer: NodeId, id: RumorId, ttl: u8) {
        self.outbox.entry(peer).or_default().push((id, ttl));
    }

    /// Drains the advertisements queued for `peer` (for piggybacking on a
    /// detect message headed there).
    pub(crate) fn take_outbox(&mut self, peer: NodeId) -> Vec<(RumorId, u8)> {
        self.outbox.remove(&peer).unwrap_or_default()
    }

    /// Drains the whole outbox (for the flush timer).
    pub(crate) fn drain_outbox(&mut self) -> BTreeMap<NodeId, Vec<(RumorId, u8)>> {
        std::mem::take(&mut self.outbox)
    }
}

impl ObjShared {
    /// Sends a relay plan of a rumor about `object` (the object this state
    /// belongs to) on the wire: full [`IdeaMsg::SweepRumor`] bodies on the
    /// eager links, queued digests (piggyback or flush) on the lazy links.
    /// The body is also cached so later pulls can be answered. Every copy
    /// shares `counters`' allocation.
    pub(crate) fn dispatch_rumor(
        &mut self,
        cfg: &IdeaConfig,
        object: ObjectId,
        id: RumorId,
        plan: RelayPlan,
        counters: &Arc<VersionVector>,
        ctx: &mut dyn Context<IdeaMsg>,
    ) {
        for &t in &plan.eager {
            let counters = Arc::clone(counters);
            ctx.send(t, IdeaMsg::SweepRumor { id, ttl: plan.ttl, object, counters });
        }
        self.lazy.cache_body(id, Arc::clone(counters));
        if plan.lazy.is_empty() {
            return;
        }
        for &p in &plan.lazy {
            self.lazy.enqueue_digest(p, id, plan.ttl);
        }
        if !self.lazy.flush_armed {
            self.lazy.flush_armed = true;
            // The timer comes back to the shard that owns the object.
            let shard = ShardId::of(object, cfg.store_shards);
            ctx.set_timer(DIGEST_FLUSH, pack(K_LAZY_FLUSH, shard, object.index() as u64));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_body_cache_evicts_fifo_within_its_capacity() {
        let mut lazy = LazyPlane::default();
        let body = Arc::new(VersionVector::new());
        let id = |seq: usize| RumorId { origin: NodeId(3), seq: seq as u32 };
        for seq in 0..CACHE_CAP + 5 {
            lazy.cache_body(id(seq), Arc::clone(&body));
        }
        assert_eq!(lazy.cached_bodies(), CACHE_CAP);
        assert!((0..5).all(|seq| lazy.cached(id(seq)).is_none()), "the oldest left first");
        assert!((5..CACHE_CAP + 5).all(|seq| lazy.cached(id(seq)).is_some()));
        assert!(lazy.cache_order.iter().copied().eq((5..CACHE_CAP + 5).map(id)));
        assert!(lazy.cache_order.capacity() <= CACHE_CAP, "the order outgrew the cap");
        // A body cached again replaces the held one and keeps its place.
        let newer = Arc::new(VersionVector::new());
        lazy.cache_body(id(5), Arc::clone(&newer));
        assert!(Arc::ptr_eq(lazy.cached(id(5)).unwrap(), &newer));
        assert_eq!(lazy.cache_order.front(), Some(&id(5)));
    }
}
