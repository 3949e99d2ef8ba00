//! Optimistic consistency control (Bayou-flavoured anti-entropy).
//!
//! Writes commit locally and immediately; a periodic anti-entropy timer
//! picks one random peer and sends it a digest; the peer ships back whatever
//! the requester misses. No conflict detection, no user interface: the
//! system converges eventually and silently — the left end of the paper's
//! Figure-2 spectrum (lowest overhead, slowest inconsistency detection).

use super::messages::BaselineMsg;
use idea_net::{Context, Proto, TimerId};
use idea_store::StoreShard;
use idea_types::{NodeId, ObjectId, SimDuration, Update, UpdatePayload, WriterId};
use rand::Rng;

const K_SYNC: u64 = 1;

/// An optimistic (anti-entropy) replica node.
pub(crate) struct OptimisticNode {
    me: NodeId,
    object: ObjectId,
    store: StoreShard,
    sync_period: SimDuration,
    syncs: u64,
}

impl OptimisticNode {
    /// Builds a node replicating `object`, anti-entropying every `period`.
    pub(crate) fn new(me: NodeId, object: ObjectId, period: SimDuration) -> Self {
        let mut store = StoreShard::new(me, WriterId(me.0));
        store.open(object);
        OptimisticNode { me, object, store, sync_period: period, syncs: 0 }
    }

    /// Local write: applies immediately, nothing else happens until the next
    /// anti-entropy exchange.
    pub(crate) fn local_write(
        &mut self,
        meta_delta: i64,
        payload: UpdatePayload,
        ctx: &mut dyn Context<BaselineMsg>,
    ) -> Update {
        self.store.write(self.object, ctx.now(), meta_delta, payload)
    }

    /// The underlying store (oracle access).
    pub(crate) fn store(&self) -> &StoreShard {
        &self.store
    }

    /// Anti-entropy exchanges initiated.
    #[cfg(test)]
    pub(crate) fn syncs(&self) -> u64 {
        self.syncs
    }
}

impl Proto for OptimisticNode {
    type Msg = BaselineMsg;

    fn on_start(&mut self, ctx: &mut dyn Context<BaselineMsg>) {
        // Stagger first syncs so the fleet doesn't fire in lock-step.
        let stagger =
            SimDuration::from_micros(self.sync_period.as_micros() * (self.me.0 as u64 % 8) / 8);
        ctx.set_timer(self.sync_period + stagger, K_SYNC);
    }

    fn on_message(&mut self, from: NodeId, msg: BaselineMsg, ctx: &mut dyn Context<BaselineMsg>) {
        match msg {
            BaselineMsg::SyncDigest { object, counters } => {
                let Ok(replica) = self.store.replica(object) else {
                    return;
                };
                let updates = replica.updates_beyond(&counters);
                if !updates.is_empty() {
                    ctx.send(from, BaselineMsg::SyncUpdates { updates });
                }
            }
            BaselineMsg::SyncUpdates { updates, .. } => {
                for u in updates {
                    let _ = self.store.ingest(u);
                }
            }
            // Strong-protocol traffic is not ours; ignore defensively.
            BaselineMsg::Propagate { .. } | BaselineMsg::PropagateAck { .. } => {}
        }
    }

    fn on_timer(&mut self, _t: TimerId, kind: u64, ctx: &mut dyn Context<BaselineMsg>) {
        if kind != K_SYNC {
            return;
        }
        ctx.set_timer(self.sync_period, K_SYNC);
        let n = ctx.node_count() as u32;
        if n <= 1 {
            return;
        }
        // Pull from one random peer.
        let peer = loop {
            let cand = NodeId(ctx.rng().gen_range(0..n));
            if cand != self.me {
                break cand;
            }
        };
        self.syncs += 1;
        let counters =
            self.store.replica(self.object).expect("opened").version().counters().clone();
        ctx.send(peer, BaselineMsg::SyncDigest { object: self.object, counters });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idea_net::{SimConfig, SimEngine, Topology};
    use idea_types::SimTime;

    const OBJ: ObjectId = ObjectId(1);

    fn cluster(n: usize, period_s: u64, seed: u64) -> SimEngine<OptimisticNode> {
        let nodes = (0..n)
            .map(|i| OptimisticNode::new(NodeId(i as u32), OBJ, SimDuration::from_secs(period_s)))
            .collect();
        SimEngine::new(Topology::lan(n), SimConfig { seed, ..Default::default() }, nodes)
    }

    #[test]
    fn writes_are_local_until_sync() {
        let mut eng = cluster(4, 10, 1);
        eng.with_node(NodeId(0), |p, ctx| {
            p.local_write(5, UpdatePayload::Opaque(bytes::Bytes::new()), ctx);
        });
        eng.run_until(SimTime::from_secs(5));
        // No sync yet: peers have nothing.
        assert_eq!(eng.node(NodeId(1)).store().read(OBJ).unwrap().updates, 0);
    }

    #[test]
    fn anti_entropy_converges_eventually() {
        let mut eng = cluster(4, 5, 2);
        for w in 0..4u32 {
            eng.with_node(NodeId(w), |p, ctx| {
                p.local_write(1, UpdatePayload::Opaque(bytes::Bytes::new()), ctx);
            });
        }
        // Plenty of periods: random pulls cover all pairs with high
        // probability.
        eng.run_until(SimTime::from_secs(200));
        for n in 0..4u32 {
            let snap = eng.node(NodeId(n)).store().read(OBJ).unwrap();
            assert_eq!(snap.updates, 4, "node {n} did not converge");
            assert_eq!(snap.meta, 4);
        }
        assert!(eng.node(NodeId(0)).syncs() > 10);
    }

    #[test]
    fn sync_traffic_is_periodic_not_per_write() {
        let mut eng = cluster(4, 10, 3);
        for _ in 0..10 {
            eng.with_node(NodeId(0), |p, ctx| {
                p.local_write(1, UpdatePayload::Opaque(bytes::Bytes::new()), ctx);
            });
        }
        eng.run_until(SimTime::from_secs(40));
        // ~4 nodes × 4 periods of digests, plus a few transfers — far fewer
        // than one message per write per peer.
        let digests = eng.stats().messages(idea_net::MsgClass::Detect);
        assert!(digests <= 20, "digests {digests}");
    }
}
