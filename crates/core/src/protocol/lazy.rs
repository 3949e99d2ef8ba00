//! The gossip plane's sending half: rumor body caching and the digest
//! outbox.
//!
//! A relay plan's eager links carry rumor bodies and its lazy links only
//! rumor ids. This module owns the state that makes those ids useful: the
//! per-object **body cache** answering
//! [`crate::messages::IdeaMsg::GossipPull`]s and the **outbox** of
//! pending advertisements (piggybacked on outgoing detect traffic,
//! flushed by the object's `K_LAZY_FLUSH` timer otherwise). The outbox is
//! one [`Outbox`] per shard, like the receiving half — bodies advertised
//! to us but not yet held, whose `K_PULL` timer both delays the first pull
//! (giving in-flight eager copies a grace window) and retries against
//! backup advertisers — which is one table per shard in
//! [`super::detection::Detection`], keyed by (object, rumor id): few
//! objects have an advertisement or a pull pending at any moment, so a
//! per-object table would sit empty in almost every slot.
//!
//! A warm plane relays a rumor without calling the allocator: the plan
//! borrows the router's view, the body is a refcount on the allocation it
//! arrived in, and the outbox is one flat vector that keeps its capacity
//! across drains.
//!
//! The state lives in [`super::ObjShared`] and in the shard's
//! [`super::NodeCore`] and detection subsystem, so the sharded runtime
//! needs no cross-shard coordination.
//! Piggybacked digests are grouped per object
//! ([`crate::messages::DigestGroup`]): a detect frame carries the probed
//! object's group only, so when an advert is delivered never depends on
//! which other objects share its shard.

use super::{pack, K_LAZY_FLUSH};
use crate::config::IdeaConfig;
use crate::messages::IdeaMsg;
use idea_net::Context;
use idea_overlay::gossip::{RelayPlan, RumorId};
use idea_types::{FastMap, NodeId, ObjectId, ShardId, SimDuration};
use idea_vv::VersionVector;
use std::collections::VecDeque;
use std::sync::Arc;

/// Digest flush window: pending advertisements piggyback on outgoing
/// detect traffic, and any still queued when this window elapses go out in
/// a dedicated [`crate::messages::IdeaMsg::GossipDigest`].
const DIGEST_FLUSH: SimDuration = SimDuration::from_millis(200);

/// Bodies kept per object for answering pulls. Old entries are evicted
/// FIFO; a pull for an evicted body is simply unanswered and the puller's
/// retry timer moves on to a backup advertiser.
const CACHE_CAP: usize = 1024;

/// Per-object lazy-plane state (see module docs): the body cache and
/// whether the object's flush timer is armed. Once the cache has grown to
/// what the object's traffic needs, relaying a rumor through the plane
/// calls the allocator zero times.
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

    /// Sends a relay plan of a rumor about `object` (the object this plane
    /// belongs to) on the wire: full [`IdeaMsg::SweepRumor`] bodies on the
    /// eager links, digests queued in the shard's `outbox` (piggyback or
    /// flush) on the lazy links. The body is also cached so later pulls can
    /// be answered. Every copy shares `counters`' allocation.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn dispatch_rumor(
        &mut self,
        outbox: &mut Outbox,
        cfg: &IdeaConfig,
        object: ObjectId,
        id: RumorId,
        plan: RelayPlan<'_>,
        counters: &Arc<VersionVector>,
        ctx: &mut dyn Context<IdeaMsg>,
    ) {
        for t in plan.eager() {
            let counters = Arc::clone(counters);
            ctx.send(t, IdeaMsg::SweepRumor { id, ttl: plan.ttl, object, counters });
        }
        self.cache_body(id, Arc::clone(counters));
        let queued = outbox.0.len();
        for p in plan.lazy() {
            outbox.enqueue(object, p, id, plan.ttl);
        }
        if outbox.0.len() > queued && !self.flush_armed {
            self.flush_armed = true;
            // The timer comes back to the shard that owns the object.
            let shard = ShardId::of(object, cfg.store_shards);
            ctx.set_timer(DIGEST_FLUSH, pack(K_LAZY_FLUSH, shard, object.index() as u64));
        }
    }
}

/// A shard's pending advertisements, as `(object, peer, id, ttl)` in the
/// order they were queued: drained one (object, peer) at a time by
/// piggybacking and one object at a time by its flush timer. One flat
/// vector for the whole shard: a node has a handful of advertisements
/// pending at any moment across all its objects, so a list per object
/// would hold nothing, or a spare buffer, in almost every slot. Drains keep
/// the vector's capacity, so queueing on a warm shard allocates nothing.
#[derive(Default)]
pub(crate) struct Outbox(Vec<(ObjectId, NodeId, RumorId, u8)>);

impl Outbox {
    /// Queues an advertisement of `id` (about `object`) towards `peer`.
    pub(crate) fn enqueue(&mut self, object: ObjectId, peer: NodeId, id: RumorId, ttl: u8) {
        self.0.push((object, peer, id, ttl));
    }

    /// Drains the advertisements about `object` queued for `peer`, in
    /// queue order (for piggybacking on a detect message headed there).
    pub(crate) fn take(&mut self, object: ObjectId, peer: NodeId) -> Vec<(RumorId, u8)> {
        let mut ids = Vec::new();
        self.0.retain(|&(o, p, id, ttl)| {
            let keep = (o, p) != (object, peer);
            if !keep {
                ids.push((id, ttl));
            }
            keep
        });
        ids
    }

    /// Drains every advertisement about `object` (for its flush timer):
    /// each peer with its advertisements in queue order, peers ascending.
    pub(crate) fn drain(&mut self, object: ObjectId) -> Vec<(NodeId, Vec<(RumorId, u8)>)> {
        let mut queued = Vec::new();
        self.0.retain(|&(o, p, id, ttl)| {
            let keep = o != object;
            if !keep {
                queued.push((p, id, ttl));
            }
            keep
        });
        // A stable sort keeps each peer's advertisements in queue order.
        queued.sort_by_key(|&(peer, ..)| peer);
        queued
            .chunk_by(|a, b| a.0 == b.0)
            .map(|run| (run[0].0, run.iter().map(|&(_, id, ttl)| (id, ttl)).collect()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// The per-peer map the flat outbox replaced, as it was: the
    /// equivalence reference.
    #[derive(Default)]
    struct MapOutbox(BTreeMap<NodeId, Vec<(RumorId, u8)>>);

    impl MapOutbox {
        fn enqueue_digest(&mut self, peer: NodeId, id: RumorId, ttl: u8) {
            self.0.entry(peer).or_default().push((id, ttl));
        }

        fn take_outbox(&mut self, peer: NodeId) -> Vec<(RumorId, u8)> {
            self.0.remove(&peer).unwrap_or_default()
        }

        fn drain_outbox(&mut self) -> BTreeMap<NodeId, Vec<(RumorId, u8)>> {
            std::mem::take(&mut self.0)
        }
    }

    proptest! {
        /// The shard's flat outbox against one per-peer map per object,
        /// over random queues, piggyback takes and flushes on three
        /// objects: every take hands out the same ids in the same order,
        /// every flush the same peers in the same order with the same ids,
        /// and draining keeps the shard's buffer.
        #[test]
        fn flat_outbox_matches_the_map_reference(
            ops in prop::collection::vec((0u8..6, 0u64..3, 0u32..5, 0u32..40), 0..160),
        ) {
            let mut flat = Outbox::default();
            let mut maps: [MapOutbox; 3] = Default::default();
            for (op, object, peer, seq) in ops {
                let (map, object, peer) = (&mut maps[object as usize], ObjectId(object), NodeId(peer));
                match op {
                    0..=3 => {
                        let id = RumorId { origin: NodeId(seq % 3), seq };
                        let ttl = (seq % 5) as u8;
                        flat.enqueue(object, peer, id, ttl);
                        map.enqueue_digest(peer, id, ttl);
                    }
                    4 => prop_assert_eq!(flat.take(object, peer), map.take_outbox(peer)),
                    _ => {
                        let held = flat.0.capacity();
                        let want: Vec<_> = map.drain_outbox().into_iter().collect();
                        prop_assert_eq!(flat.drain(object), want);
                        prop_assert!(flat.0.iter().all(|e| e.0 != object));
                        prop_assert_eq!(flat.0.capacity(), held);
                    }
                }
            }
            for (object, map) in maps.iter_mut().enumerate() {
                let want: Vec<_> = map.drain_outbox().into_iter().collect();
                prop_assert_eq!(flat.drain(ObjectId(object as u64)), want);
            }
            prop_assert!(flat.0.is_empty());
        }
    }

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
