//! The write path: local writes, read policies, snapshot serving, and the
//! update-transfer surface (fetch request/reply) that ships missing updates
//! between replicas.
//!
//! This subsystem owns only per-object read/announce bookkeeping; whether a
//! write or read must *probe* the top layer is reported back to the node,
//! which forwards it to the detection subsystem — the write path never
//! touches detection state.

use super::NodeCore;
use crate::messages::IdeaMsg;
use idea_net::Context;
use idea_overlay::gossip::Peers;
use idea_types::{
    ConsistencyLevel, NodeId, ObjectId, Result, SimDuration, Update, UpdatePayload, WriterId,
};
use idea_vv::VersionVector;
use std::collections::BTreeMap;
use std::sync::Arc;

/// A read probes the top layer when the replica's newest local update is
/// older than this (§4.2: the file "hasn't been locally updated for a long
/// time").
const STALE_AFTER: SimDuration = SimDuration::from_secs(30);

/// Per-object write-path state.
#[derive(Debug, Default)]
struct WriteState {
    /// Whether this node has served a read of the object before.
    has_read: bool,
    /// Bootstrap announces sent so far (bounded; see [`WritePath::local_write`]).
    announces: u64,
}

/// The write-path subsystem.
#[derive(Default)]
pub(crate) struct WritePath {
    states: BTreeMap<ObjectId, WriteState>,
}

impl WritePath {
    fn state(&mut self, object: ObjectId) -> &mut WriteState {
        self.states.entry(object).or_default()
    }

    /// Issues a local write (§4.2: "The write operation … triggers the IDEA
    /// protocol because it … will surely cause inconsistency among
    /// replicas"). The caller must start a detection round afterwards.
    pub(crate) fn local_write(
        &mut self,
        core: &mut NodeCore,
        object: ObjectId,
        meta_delta: i64,
        payload: UpdatePayload,
        ctx: &mut dyn Context<IdeaMsg>,
    ) -> Update {
        let now = ctx.now();
        let update = core.store.write(object, now, meta_delta, payload);
        let me = core.me;
        let cfg = &core.cfg.top_layer;
        let layer = &mut core.objs.get_mut(object).expect("object state").layer;
        layer.observe_update(cfg, me, now);
        // Bootstrap: a handful of gossip announces per writer lets the
        // overlay discover hot writers transitively (RanSub's role in §4.1).
        // Bounded so steady-state traffic is detection-only.
        let announces = self.state(object).announces;
        let needs_announce =
            announces < 3 || !layer.is_top(cfg, me) || !layer.has_top_peer(cfg, me);
        if needs_announce {
            self.state(object).announces += 1;
            self.announce(core, object, ctx);
        }
        update
    }

    /// Accounts a read of the local replica and returns whether it must
    /// probe the top layer (§4.2): the first read of an object here ("a new
    /// snapshot") does, and so does a read of a replica not locally updated
    /// for [`STALE_AFTER`]. The decision runs on the borrowing
    /// [`idea_store::SnapshotView`]; nothing is cloned — the caller reads
    /// the value through whichever view it needs.
    pub(crate) fn read(
        &mut self,
        core: &mut NodeCore,
        object: ObjectId,
        ctx: &mut dyn Context<IdeaMsg>,
    ) -> Result<bool> {
        let view = core.store.read_view(object)?;
        let stale = view.latest_update.is_some_and(|t| ctx.now().saturating_since(t) > STALE_AFTER);
        let st = self.state(object);
        let fresh = !st.has_read;
        st.has_read = true;
        Ok(fresh || stale)
    }

    /// Gossips every writer count this node knows (own plus learned) so the
    /// overlay discovers hot writers *transitively* — the role RanSub's
    /// random subsets play in §4.1.
    fn announce(&mut self, core: &mut NodeCore, object: ObjectId, ctx: &mut dyn Context<IdeaMsg>) {
        let mut counters = core.store.replica(object).expect("opened").version().counters().clone();
        let peers = Peers { me: core.me, n: ctx.node_count() };
        let cfg = &core.cfg;
        let shared = core.objs.get_mut(object).expect("object state");
        for (node, count) in shared.layer.known_counts() {
            counters.observe(WriterId(node.0), count);
        }
        let (id, _ttl, plan) = shared.gossip.originate(&cfg.gossip, peers, ctx.rng());
        let counters = Arc::new(counters);
        shared.lazy.dispatch_rumor(&mut core.outbox, cfg, object, id, plan, &counters, ctx);
    }

    /// A peer asked for the updates it is missing: ship them (batched).
    /// With `max_fetch_updates` configured the backlog is truncated to the
    /// chunk bound — `updates_beyond` walks the log in order, so any
    /// prefix is per-writer seq-consecutive and safe to ingest — and
    /// `done: false` tells the requester to come back with its advanced
    /// counters as the continuation cursor.
    pub(crate) fn on_fetch_request(
        &self,
        core: &NodeCore,
        from: NodeId,
        object: ObjectId,
        have: VersionVector,
        ctx: &mut dyn Context<IdeaMsg>,
    ) {
        let Ok(replica) = core.store.replica(object) else {
            return;
        };
        let mut updates = replica.updates_beyond(&have);
        let done = match core.cfg.max_fetch_updates {
            Some(cap) if updates.len() > cap => {
                updates.truncate(cap);
                false
            }
            _ => true,
        };
        ctx.send(from, IdeaMsg::FetchReply { object, updates, done });
    }

    /// Missing updates arrived: ingest them, then either settle the level
    /// (`done`) or request the next chunk from the sender, cursored by the
    /// counters the ingest just advanced.
    pub(crate) fn on_fetch_reply(
        &mut self,
        core: &mut NodeCore,
        from: NodeId,
        object: ObjectId,
        updates: Vec<Update>,
        done: bool,
        ctx: &mut dyn Context<IdeaMsg>,
    ) {
        core.open(object);
        for u in updates {
            let _ = core.store.ingest(u);
        }
        if done {
            core.obj_mut(object).level = ConsistencyLevel::PERFECT;
        } else {
            let have = core.store.replica(object).expect("opened").version().counters().clone();
            ctx.send(from, IdeaMsg::FetchRequest { object, have });
        }
    }
}
