//! The IDEA node: detection, quantification, resolution and adaptation
//! wired into one protocol (Figure 3 of the paper), decomposed into
//! layered subsystems and partitioned into per-object **shards**.
//!
//! Triggers (§4.2): every local **write** starts a top-layer detection
//! round; a **read** starts one when it is the object's first read here or
//! the replica has not been locally updated for a while; the
//! adaptive layer starts **active resolution** when the quantified level
//! falls below the learned floor; a timer starts **background resolution**
//! periodically; every `sweep_every`-th detection round launches a
//! TTL-bounded **bottom-layer sweep** whose verdict can demand a rollback.
//!
//! ## Module layout
//!
//! | module | subsystem | owns |
//! |---|---|---|
//! | `write_path` | local writes, read policies, snapshot serving, update transfer | per-object read/announce bookkeeping |
//! | `detection` | the inconsistency detection framework: top-layer temperature rounds + bottom-layer gossip sweeps | in-flight rounds, open sweeps, pending pulls, timer routing |
//! | `lazy` | the gossip plane's sending half (bodies on eager links, digests on lazy ones) | rumor body cache, the shard's digest outbox |
//! | `resolution` | active two-phase + background periodic resolution over one collect/inform wire (delta collect answers, delta-or-full reference) | per-object resolution state machine, attention leases, the resolution log; collect fan-out, reference adoption, back-off delay |
//! | `node` | [`IdeaNode`] composing the shards; implements [`idea_net::Proto`] | the shard vector and the `SharedCore` |
//!
//! ## Sharding
//!
//! Every per-object structure — the replica store, the per-object overlay
//! view (`ObjShared`), and each subsystem's per-object state — lives in
//! exactly one `node::ProtocolShard`, selected by
//! [`idea_types::ShardId::of`] over the object id
//! ([`crate::config::IdeaConfig::store_shards`] shards per node). A shard's
//! working state is a `NodeCore`; the few genuinely node-wide pieces (the
//! adaptive hint floor, the correlation-id counter, the rollback count) sit
//! behind the `SharedCore` every shard holds an `Arc` to. The borrow
//! structure makes the independence explicit: handling a message touches
//! `&mut NodeCore` of one shard plus the (internally synchronised)
//! `SharedCore`, never another shard.
//!
//! A node hosts every configured object from its first event, so the state
//! *every* hosted object carries is dense: the store shard's replica slots
//! and `NodeCore::objs` are [`idea_types::ObjectTable`]s, one id-ordered
//! vector each, sized exactly when `NodeCore::new` opens the objects; a
//! lookup is one probe when the ids form a dense run and a binary search
//! otherwise. `NodeCore::open` is the only way an
//! object enters a shard, so both tables always hold the same ids. State
//! only a *touched* object carries — an in-flight detection round, a
//! resolution state machine, read bookkeeping — stays in each subsystem's
//! sparse map: most objects of a large deployment never need it, and
//! inlining it into every slot would cost more than the tables save.
//!
//! On the deterministic simulator [`IdeaNode`] routes events to shards
//! in-process, so semantics are engine-independent; the threaded engine can
//! instead split the shards onto per-node workers
//! (`idea_net::ShardedEngine`) and process disjoint objects concurrently.
//!
//! Each subsystem is a narrow struct with an explicit handle-message /
//! handle-timer surface; cross-subsystem effects flow through return values
//! (e.g. `Trigger::Resolve`) that the shard routes, so the store can be
//! re-partitioned, detection batched, or the resolution strategy swapped
//! without touching the other subsystems.
//!
//! ## Conventions
//!
//! * Writer homes: writer `w` lives on node `w` (the experiments' layout;
//!   `NodeCore::home` centralises the mapping).
//! * Sequence reuse: when resolution invalidates a writer's updates, the
//!   writer's sequence counter resumes from the last *sanctioned* number, so
//!   counters stay dense. Stale copies of invalidated updates are
//!   superseded by identity — the same trade the paper's version-vector
//!   scheme makes implicitly.
//! * Correlation ids (`round`, `rid`) are initiator-local; members key
//!   their state by `(initiator, id)`.
//! * Timer kinds pack `(kind, shard, payload)`, so a fired timer finds its
//!   shard without a global lookup — and on the threaded engine without
//!   leaving the worker that armed it.

mod detection;
mod lazy;
mod node;
mod resolution;
mod write_path;

#[cfg(test)]
mod round_reference;
#[cfg(test)]
mod tests;
#[cfg(test)]
mod top_layer_reference;

pub use node::{GossipFootprint, IdeaNode, NodeReport, ProtocolShard};

use crate::adapt::{AdaptAction, HintController};
use crate::config::IdeaConfig;
use crate::quantify::Quantifier;
use idea_overlay::gossip::GossipRouter;
use idea_overlay::temperature::{TopLayer, TopLayerConfig};
use idea_store::{Replica, StoreShard};
use idea_types::{
    lock, ConsistencyLevel, NodeId, ObjectId, ObjectTable, ShardId, SimTime, WriterId,
};
use idea_vv::VersionVector;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

// Timer kinds (packed as `kind << 56 | shard << 48 | payload`).
pub(crate) const K_DETECT: u64 = 1;
pub(crate) const K_BACKGROUND: u64 = 2;
pub(crate) const K_BACKOFF: u64 = 3;
pub(crate) const K_SWEEP: u64 = 4;
pub(crate) const K_LAZY_FLUSH: u64 = 6;
pub(crate) const K_PULL: u64 = 7;

/// Most shards a node may be configured with (the timer encoding carries
/// the shard in one byte).
pub const MAX_SHARDS: usize = 256;

pub(crate) fn pack(base: u64, shard: ShardId, low: u64) -> u64 {
    (base << 56) | ((shard.0 as u64) << 48) | (low & 0xffff_ffff_ffff)
}

pub(crate) fn unpack(kind: u64) -> (u64, usize, u64) {
    (kind >> 56, ((kind >> 48) & 0xff) as usize, kind & 0xffff_ffff_ffff)
}

/// A follow-up action a subsystem requests from the composing shard.
///
/// Subsystems never call into each other directly; they report what the
/// adaptive layer decided and [`node::ProtocolShard`] routes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Trigger {
    /// No follow-up needed.
    None,
    /// The adaptive layer demands an active resolution of the object.
    Resolve,
}

/// Per-object state shared by every subsystem *of the owning shard*: the
/// two-layer overlay view (which also holds the writer activity learned
/// from passing counters), the gossip router, and the current level
/// estimate. Subsystem-private state lives inside each subsystem instead.
///
/// A shard holds one per hosted object, so it holds only what differs
/// between objects: the settings (`NodeCore::cfg`), the node's id and the
/// pending pulls (`Detection`'s per-shard table) are passed in or kept
/// once per shard.
pub(crate) struct ObjShared {
    /// Top-layer membership driven by update temperature (§4.1), and the
    /// highest per-writer counts this node has seen anywhere.
    pub layer: TopLayer,
    /// TTL-bounded gossip router for announcements and sweeps.
    pub gossip: GossipRouter,
    /// Current consistency-level estimate for the object.
    pub level: ConsistencyLevel,
    /// Lazy gossip plane: body cache and flush-timer flag.
    pub lazy: lazy::LazyPlane,
}

impl ObjShared {
    /// Fresh state of an object: a cold overlay view, an empty router,
    /// nothing learned yet.
    fn new(cfg: &IdeaConfig) -> Self {
        ObjShared {
            layer: TopLayer::new(&cfg.top_layer),
            gossip: GossipRouter::default(),
            level: ConsistencyLevel::PERFECT,
            lazy: lazy::LazyPlane::default(),
        }
    }

    /// Learns writer activity from any counters that pass by (detection,
    /// collection, gossip), feeding the temperature overlay: one observed
    /// update per count a writer advanced beyond what this node knew.
    pub fn note_counters(&mut self, cfg: &TopLayerConfig, counters: &VersionVector, now: SimTime) {
        let counts = counters.iter().map(|(writer, count)| (NodeCore::home(writer), count));
        self.layer.observe_counts(cfg, counts, now);
    }
}

/// The genuinely node-wide state, shared by all shards of one node.
///
/// Everything here is either atomic or behind a short-critical-section
/// mutex, so shard workers on different threads can touch it without
/// ordering constraints; on the single-threaded engines the synchronisation
/// is uncontended and the behaviour deterministic.
pub(crate) struct SharedCore {
    /// The adaptive hint controller: one learned floor per node (§4.6).
    hint: Mutex<HintController>,
    /// Correlation-id allocator (detection rounds + resolution rounds share
    /// it, so ids never collide between the two).
    next_id: AtomicU64,
    /// Rollback events (bottom-layer discrepancies confirmed), node-wide.
    rollbacks: AtomicU64,
}

impl SharedCore {
    fn new(hint: HintController) -> Self {
        SharedCore {
            hint: Mutex::new(hint),
            next_id: AtomicU64::new(0),
            rollbacks: AtomicU64::new(0),
        }
    }
}

/// One shard's working state: identity, configuration, the shard of the
/// store, the quantifier, and the per-object [`ObjShared`] table — plus the
/// `Arc` to the node-wide [`SharedCore`].
///
/// `cfg`, `quant` and `priorities` are read on every event, so each shard
/// keeps its own copy; the node-level setters fan updates out to all
/// shards. Only state that must be observed *across* shards (the hint
/// floor, id allocation, rollback counting) goes through [`SharedCore`].
pub(crate) struct NodeCore {
    pub me: NodeId,
    /// This shard's index within the node.
    pub shard: ShardId,
    pub cfg: IdeaConfig,
    pub quant: Quantifier,
    pub store: StoreShard,
    pub priorities: BTreeMap<NodeId, u8>,
    /// Shared state of every object this shard hosts, in id order; holds
    /// exactly the store shard's objects (see [`NodeCore::open`]).
    pub objs: ObjectTable<ObjShared>,
    /// Lazy-link advertisements of every object here, not yet sent.
    pub outbox: lazy::Outbox,
    shared: Arc<SharedCore>,
}

impl NodeCore {
    /// Builds the shard's core hosting `objects` (already filtered to this
    /// shard by the caller), with both per-object tables sized exactly.
    pub fn new(
        me: NodeId,
        shard: ShardId,
        cfg: IdeaConfig,
        objects: impl Iterator<Item = ObjectId> + Clone,
        shared: Arc<SharedCore>,
    ) -> Self {
        let n = objects.clone().count();
        let mut core = NodeCore {
            me,
            shard,
            quant: Quantifier::new(cfg.weights, cfg.bounds),
            cfg,
            store: StoreShard::with_capacity(me, WriterId(me.0), n),
            priorities: BTreeMap::new(),
            objs: ObjectTable::with_capacity(n),
            outbox: lazy::Outbox::default(),
            shared,
        };
        for o in objects {
            core.open(o);
        }
        core
    }

    /// Writer `w` lives on node `w` (experiment convention; see module docs).
    pub fn home(writer: WriterId) -> NodeId {
        NodeId(writer.0)
    }

    /// The node-wide shared core this shard participates in.
    pub fn shared_handle(&self) -> &Arc<SharedCore> {
        &self.shared
    }

    /// Allocates the next correlation id (node-wide, shared across shards
    /// and across detection/resolution so ids never collide).
    pub fn fresh_id(&mut self) -> u64 {
        self.shared.next_id.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Feeds a consistency sample to the node-wide hint controller.
    pub fn hint_sample(&self, level: ConsistencyLevel) -> AdaptAction {
        lock(&self.shared.hint).on_sample(level)
    }

    /// Reports user dissatisfaction to the node-wide hint controller.
    pub fn hint_user_dissatisfied(&self) -> AdaptAction {
        lock(&self.shared.hint).on_user_dissatisfied()
    }

    /// The hint floor currently in force.
    pub fn hint_floor(&self) -> ConsistencyLevel {
        lock(&self.shared.hint).floor()
    }

    /// Counts a confirmed bottom-layer discrepancy (node-wide).
    pub fn note_rollback(&self) {
        self.shared.rollbacks.fetch_add(1, Ordering::Relaxed);
    }

    /// Rollback events confirmed by any shard of this node.
    pub fn rollbacks(&self) -> u64 {
        self.shared.rollbacks.load(Ordering::Relaxed)
    }

    /// Opens `object` on this shard — its replica and its shared state,
    /// each created on first contact (the replica's creation is WAL-logged
    /// when durability is on) — and returns the replica.
    pub fn open(&mut self, object: ObjectId) -> &mut Replica {
        if let Err(slot) = self.objs.find(object) {
            self.objs.insert_at(slot, object, ObjShared::new(&self.cfg));
        }
        self.store.open(object)
    }

    /// Shared state of `object`, if this shard hosts it.
    pub fn obj(&self, object: ObjectId) -> Option<&ObjShared> {
        self.objs.get(object)
    }

    /// Shared state of `object`; panics when the object was never opened.
    pub fn obj_mut(&mut self, object: ObjectId) -> &mut ObjShared {
        self.objs.get_mut(object).expect("object state")
    }

    /// Top-layer peers of this node for `object` (members minus itself), in
    /// id order; panics when the object was never opened. Every caller
    /// keeps the list for its round, so it is built once and moved into
    /// the round rather than copied.
    pub fn top_peers(&self, object: ObjectId) -> Vec<NodeId> {
        let layer = &self.obj(object).expect("object state").layer;
        layer.top_peers(&self.cfg.top_layer, self.me)
    }

    /// Learns writer activity from any counters that pass by (see
    /// [`ObjShared::note_counters`]).
    pub fn note_counters(&mut self, object: ObjectId, counters: &VersionVector, now: SimTime) {
        let shared = self.objs.get_mut(object).expect("object state");
        shared.note_counters(&self.cfg.top_layer, counters, now);
    }
}
