//! TACT-style bounded consistency (Yu & Vahdat, OSDI 2000).
//!
//! TACT *enforces a predefined consistency level*: each replica bounds its
//! conit error and pushes pending writes to every peer before a bound would
//! be violated. We implement the two bounds that map onto the paper's
//! workload — **order error** (number of local writes not yet seen by
//! peers) and **staleness** (age of the oldest unpushed write). This is the
//! fixed-level comparator that IDEA's *adaptive* control is contrasted with
//! in §7.1: "Instead of tightly bound a system's predefined consistency
//! level as was the case in TACT, IDEA … adaptively maintain[s an]
//! acceptable consistency level".

use super::messages::BaselineMsg;
use idea_net::{Context, Proto, TimerId};
use idea_store::StoreShard;
use idea_types::{NodeId, ObjectId, SimDuration, SimTime, Update, UpdatePayload, WriterId};

const K_STALENESS: u64 = 1;

/// The enforced conit bounds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct TactBounds {
    /// Maximum local writes a peer may be behind before a push (order
    /// error bound).
    pub(crate) order: usize,
    /// Maximum age of an unpushed write before a push (staleness bound).
    pub(crate) staleness: SimDuration,
}

impl Default for TactBounds {
    fn default() -> Self {
        TactBounds { order: 4, staleness: SimDuration::from_secs(15) }
    }
}

/// A TACT replica node enforcing fixed conit bounds.
pub(crate) struct TactNode {
    me: NodeId,
    object: ObjectId,
    store: StoreShard,
    bounds: TactBounds,
    /// Local writes not yet pushed to peers (in issue order).
    unpushed: Vec<Update>,
    /// Issue time of the oldest unpushed write.
    oldest_unpushed: Option<SimTime>,
    pushes: u64,
}

impl TactNode {
    /// Builds a node replicating `object` under `bounds`.
    pub(crate) fn new(me: NodeId, object: ObjectId, bounds: TactBounds) -> Self {
        let mut store = StoreShard::new(me, WriterId(me.0));
        store.open(object);
        TactNode {
            me,
            object,
            store,
            bounds,
            unpushed: Vec::new(),
            oldest_unpushed: None,
            pushes: 0,
        }
    }

    /// Local write; triggers a push when the order bound is reached.
    pub(crate) fn local_write(
        &mut self,
        meta_delta: i64,
        payload: UpdatePayload,
        ctx: &mut dyn Context<BaselineMsg>,
    ) -> Update {
        let update = self.store.write(self.object, ctx.now(), meta_delta, payload);
        if self.oldest_unpushed.is_none() {
            self.oldest_unpushed = Some(ctx.now());
            ctx.set_timer(self.bounds.staleness, K_STALENESS);
        }
        self.unpushed.push(update.clone());
        if self.unpushed.len() >= self.bounds.order {
            self.push_all(ctx);
        }
        update
    }

    /// Pushes completed so far.
    #[cfg(test)]
    pub(crate) fn pushes(&self) -> u64 {
        self.pushes
    }

    /// The underlying store (oracle access).
    pub(crate) fn store(&self) -> &StoreShard {
        &self.store
    }

    /// Writes buffered awaiting a bound violation.
    #[cfg(test)]
    pub(crate) fn unpushed(&self) -> usize {
        self.unpushed.len()
    }

    fn push_all(&mut self, ctx: &mut dyn Context<BaselineMsg>) {
        if self.unpushed.is_empty() {
            return;
        }
        let updates = std::mem::take(&mut self.unpushed);
        self.oldest_unpushed = None;
        self.pushes += 1;
        for i in 0..ctx.node_count() as u32 {
            let to = NodeId(i);
            if to != self.me {
                ctx.send(to, BaselineMsg::SyncUpdates { updates: updates.clone() });
            }
        }
    }
}

impl Proto for TactNode {
    type Msg = BaselineMsg;

    fn on_message(&mut self, _from: NodeId, msg: BaselineMsg, _ctx: &mut dyn Context<BaselineMsg>) {
        match msg {
            BaselineMsg::SyncUpdates { updates, .. } => {
                for u in updates {
                    let _ = self.store.ingest(u);
                }
            }
            BaselineMsg::SyncDigest { .. }
            | BaselineMsg::Propagate { .. }
            | BaselineMsg::PropagateAck { .. } => {}
        }
    }

    fn on_timer(&mut self, _t: TimerId, kind: u64, ctx: &mut dyn Context<BaselineMsg>) {
        if kind != K_STALENESS {
            return;
        }
        // The staleness bound expired for the oldest unpushed write.
        if let Some(oldest) = self.oldest_unpushed {
            if ctx.now().saturating_since(oldest) >= self.bounds.staleness {
                self.push_all(ctx);
            } else {
                // Re-arm for the remainder (a newer write restarted the
                // window).
                let remaining = self.bounds.staleness - ctx.now().saturating_since(oldest);
                ctx.set_timer(remaining, K_STALENESS);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idea_net::{SimConfig, SimEngine, Topology};

    const OBJ: ObjectId = ObjectId(1);

    fn cluster(n: usize, bounds: TactBounds, seed: u64) -> SimEngine<TactNode> {
        let nodes = (0..n).map(|i| TactNode::new(NodeId(i as u32), OBJ, bounds)).collect();
        SimEngine::new(Topology::lan(n), SimConfig { seed, ..Default::default() }, nodes)
    }

    fn write(eng: &mut SimEngine<TactNode>, node: u32) {
        eng.with_node(NodeId(node), |p, ctx| {
            p.local_write(1, UpdatePayload::Opaque(bytes::Bytes::new()), ctx);
        });
    }

    #[test]
    fn order_bound_forces_push() {
        let bounds = TactBounds { order: 3, staleness: SimDuration::from_secs(1_000) };
        let mut eng = cluster(3, bounds, 1);
        write(&mut eng, 0);
        write(&mut eng, 0);
        eng.run_for(SimDuration::from_secs(1));
        // Two writes: below the bound, nothing pushed.
        assert_eq!(eng.node(NodeId(1)).store().read(OBJ).unwrap().updates, 0);
        assert_eq!(eng.node(NodeId(0)).unpushed(), 2);
        write(&mut eng, 0); // third write hits the bound
        eng.run_for(SimDuration::from_secs(1));
        assert_eq!(eng.node(NodeId(1)).store().read(OBJ).unwrap().updates, 3);
        assert_eq!(eng.node(NodeId(0)).pushes(), 1);
        assert_eq!(eng.node(NodeId(0)).unpushed(), 0);
    }

    #[test]
    fn staleness_bound_forces_push() {
        let bounds = TactBounds { order: 100, staleness: SimDuration::from_secs(10) };
        let mut eng = cluster(3, bounds, 2);
        write(&mut eng, 0);
        eng.run_for(SimDuration::from_secs(5));
        assert_eq!(eng.node(NodeId(2)).store().read(OBJ).unwrap().updates, 0);
        eng.run_for(SimDuration::from_secs(6));
        // The 10 s staleness bound expired: everyone has the write.
        assert_eq!(eng.node(NodeId(2)).store().read(OBJ).unwrap().updates, 1);
    }

    #[test]
    fn bounded_divergence_never_exceeds_order_bound() {
        let bounds = TactBounds { order: 4, staleness: SimDuration::from_secs(1_000) };
        let mut eng = cluster(2, bounds, 3);
        for _ in 0..20 {
            write(&mut eng, 0);
            eng.run_for(SimDuration::from_millis(100));
            let behind = eng.node(NodeId(0)).store().read(OBJ).unwrap().updates
                - eng.node(NodeId(1)).store().read(OBJ).unwrap().updates;
            assert!(behind < 4 + 1, "peer fell {behind} behind, bound is 4");
        }
    }

    #[test]
    fn pushes_batch_rather_than_per_write() {
        let bounds = TactBounds { order: 5, staleness: SimDuration::from_secs(1_000) };
        let mut eng = cluster(4, bounds, 4);
        for _ in 0..10 {
            write(&mut eng, 0);
        }
        eng.run_for(SimDuration::from_secs(1));
        // 10 writes, order bound 5 → exactly 2 pushes of a 3-message fanout.
        assert_eq!(eng.node(NodeId(0)).pushes(), 2);
        assert_eq!(eng.stats().messages(idea_net::MsgClass::Transfer), 6);
    }
}
