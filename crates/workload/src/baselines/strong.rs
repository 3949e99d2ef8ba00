//! Strong consistency: synchronous write-all replication.
//!
//! Every write is eagerly propagated to every replica and only *commits*
//! when all acknowledgements return — multiversion-locking flavour
//! (the paper's ref \[1\]) reduced to its cost essence: per-write latency of
//! a full WAN round-trip and per-write fan-out traffic. The right end of
//! the Figure-2 spectrum: highest overhead, instant "detection" (conflicts
//! cannot accumulate).

use super::messages::BaselineMsg;
use idea_net::{Context, Proto};
use idea_store::StoreShard;
use idea_types::{
    NodeId, ObjectId, SimDuration, SimTime, Update, UpdateId, UpdatePayload, WriterId,
};

#[allow(clippy::disallowed_types)] // baseline comparator, off the IDEA hot path: left as measured
type PendingWrites = std::collections::HashMap<UpdateId, (usize, SimTime)>;

/// A strongly-consistent replica node (write-all, ack-all).
pub(crate) struct StrongNode {
    me: NodeId,
    object: ObjectId,
    store: StoreShard,
    /// In-flight writes: update id → (acks outstanding, issue time).
    pending: PendingWrites,
    /// Commit latencies of completed writes.
    commit_latencies: Vec<SimDuration>,
}

impl StrongNode {
    /// Builds a node replicating `object`.
    pub(crate) fn new(me: NodeId, object: ObjectId) -> Self {
        let mut store = StoreShard::new(me, WriterId(me.0));
        store.open(object);
        StrongNode {
            me,
            object,
            store,
            pending: PendingWrites::new(),
            commit_latencies: Vec::new(),
        }
    }

    /// Issues a write: applies locally and propagates to every other node;
    /// the write is *committed* when all acks return.
    pub(crate) fn local_write(
        &mut self,
        meta_delta: i64,
        payload: UpdatePayload,
        ctx: &mut dyn Context<BaselineMsg>,
    ) -> Update {
        let update = self.store.write(self.object, ctx.now(), meta_delta, payload);
        let others = ctx.node_count() - 1;
        if others == 0 {
            self.commit_latencies.push(SimDuration::ZERO);
            return update;
        }
        self.pending.insert(update.id, (others, ctx.now()));
        for i in 0..ctx.node_count() as u32 {
            let to = NodeId(i);
            if to != self.me {
                ctx.send(to, BaselineMsg::Propagate { update: update.clone() });
            }
        }
        update
    }

    /// The underlying store (oracle access).
    pub(crate) fn store(&self) -> &StoreShard {
        &self.store
    }

    /// Latencies of committed writes (one WAN RTT each).
    pub(crate) fn commit_latencies(&self) -> &[SimDuration] {
        &self.commit_latencies
    }

    /// Writes still awaiting acknowledgements.
    #[cfg(test)]
    pub(crate) fn in_flight(&self) -> usize {
        self.pending.len()
    }
}

impl Proto for StrongNode {
    type Msg = BaselineMsg;

    fn on_message(&mut self, from: NodeId, msg: BaselineMsg, ctx: &mut dyn Context<BaselineMsg>) {
        match msg {
            BaselineMsg::Propagate { update, .. } => {
                let id = update.id;
                let _ = self.store.ingest(update);
                ctx.send(from, BaselineMsg::PropagateAck { id });
            }
            BaselineMsg::PropagateAck { id, .. } => {
                if let Some((left, issued)) = self.pending.get_mut(&id) {
                    *left -= 1;
                    if *left == 0 {
                        let issued = *issued;
                        self.pending.remove(&id);
                        self.commit_latencies.push(ctx.now().saturating_since(issued));
                    }
                }
            }
            BaselineMsg::SyncDigest { .. } | BaselineMsg::SyncUpdates { .. } => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idea_net::{MsgClass, SimConfig, SimEngine, Topology};

    const OBJ: ObjectId = ObjectId(1);

    fn cluster(n: usize, seed: u64) -> SimEngine<StrongNode> {
        let nodes = (0..n).map(|i| StrongNode::new(NodeId(i as u32), OBJ)).collect();
        SimEngine::new(
            Topology::planetlab(n, seed),
            SimConfig { seed, ..Default::default() },
            nodes,
        )
    }

    #[test]
    fn writes_reach_everyone_immediately() {
        let mut eng = cluster(4, 1);
        eng.with_node(NodeId(2), |p, ctx| {
            p.local_write(7, UpdatePayload::Opaque(bytes::Bytes::new()), ctx);
        });
        eng.run_for(SimDuration::from_secs(1));
        for n in 0..4u32 {
            assert_eq!(eng.node(NodeId(n)).store().read(OBJ).unwrap().meta, 7);
        }
    }

    #[test]
    fn commit_latency_is_a_wan_round_trip() {
        let mut eng = cluster(4, 2);
        eng.with_node(NodeId(0), |p, ctx| {
            p.local_write(1, UpdatePayload::Opaque(bytes::Bytes::new()), ctx);
        });
        eng.run_for(SimDuration::from_secs(2));
        let lat = eng.node(NodeId(0)).commit_latencies();
        assert_eq!(lat.len(), 1);
        assert_eq!(eng.node(NodeId(0)).in_flight(), 0);
        // Cross-region RTT ≈ 80–120 ms; commit waits for the slowest peer.
        assert!(lat[0] >= SimDuration::from_millis(60), "latency {}", lat[0]);
        assert!(lat[0] <= SimDuration::from_millis(200), "latency {}", lat[0]);
    }

    #[test]
    fn per_write_fanout_traffic() {
        let mut eng = cluster(5, 3);
        for _ in 0..3 {
            eng.with_node(NodeId(0), |p, ctx| {
                p.local_write(1, UpdatePayload::Opaque(bytes::Bytes::new()), ctx);
            });
        }
        eng.run_for(SimDuration::from_secs(2));
        // 3 writes × 4 propagates + 4 acks.
        assert_eq!(eng.stats().messages(MsgClass::Transfer), 12);
        assert_eq!(eng.stats().messages(MsgClass::ResolutionCtl), 12);
    }

    #[test]
    fn single_node_commits_instantly() {
        let mut eng = cluster(1, 4);
        eng.with_node(NodeId(0), |p, ctx| {
            p.local_write(1, UpdatePayload::Opaque(bytes::Bytes::new()), ctx);
        });
        eng.run_for(SimDuration::from_millis(10));
        assert_eq!(eng.node(NodeId(0)).commit_latencies(), &[SimDuration::ZERO]);
    }
}
