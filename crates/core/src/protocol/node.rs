//! The [`IdeaNode`]: a vector of [`ProtocolShard`]s — each composing the
//! write-path, detection and resolution subsystems over its own
//! `NodeCore` — routed by `ObjectId` hash, plus the node-wide
//! `SharedCore`. Implements [`Proto`] for the single-threaded engines;
//! the threaded engine may instead split the shards onto workers via
//! [`idea_net::ShardedProto`].

use super::detection::Detection;
use super::resolution::ResolutionDriver;
use super::write_path::WritePath;
use super::{
    unpack, NodeCore, SharedCore, Trigger, K_BACKGROUND, K_BACKOFF, K_DETECT, K_LAZY_FLUSH, K_PULL,
    K_SWEEP, MAX_SHARDS,
};
use crate::adapt::{AdaptAction, HintController};
use crate::client::ReadConsistency;
use crate::config::IdeaConfig;
use crate::messages::IdeaMsg;
use crate::quantify::{MaxBounds, Quantifier, Weights};
use crate::resolution::{ResolutionPolicy, ResolutionRecord};
use idea_net::{Context, Proto, ShardedProto, TimerId};
use idea_store::{Replica, Snapshot, SnapshotView, StoreShard};
use idea_types::{
    ConsistencyLevel, NodeId, ObjectId, Result, ShardId, Update, UpdatePayload, WriterId,
};
use idea_wal::ShardWal;
use serde::{Deserialize, Serialize};
use std::ops::Deref;
use std::sync::Arc;

/// Snapshot of one node's IDEA state for the harness and tests.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NodeReport {
    /// The reporting node.
    pub node: NodeId,
    /// Its current consistency-level estimate for the object.
    pub level: ConsistencyLevel,
    /// The hint floor currently in force (0 when disabled).
    pub hint_floor: ConsistencyLevel,
    /// Resolution rounds this node initiated to completion.
    pub resolutions_initiated: u64,
    /// Rollback events (bottom-layer discrepancies confirmed).
    pub rollbacks: u64,
    /// The node's view of the top-layer membership.
    pub top_members: Vec<NodeId>,
    /// Replica metadata value.
    pub meta: i64,
    /// Updates applied at the replica.
    pub updates: usize,
}

/// What one node's gossip plane currently holds for one object — each
/// figure is bounded by the router's configuration, none by the
/// deployment size.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct GossipFootprint {
    /// Peers in the stable view (at most `gossip.fanout`).
    pub view: usize,
    /// View links currently pruned to the lazy side (at most `view`).
    pub lazy_links: usize,
    /// Rumor ids remembered for duplicate suppression (at most
    /// `2 × gossip.seen_cap`).
    pub seen_ids: usize,
    /// Rumor bodies cached for answering pulls (at most 1,024).
    pub cached_bodies: usize,
    /// Advertised bodies not yet received (pending pulls).
    pub missing: usize,
}

/// One shard of the IDEA middleware: the subsystems plus the shard's
/// `NodeCore`. All per-object protocol state of the objects this shard
/// owns lives here and nowhere else, which is what lets the threaded
/// engine's shard workers drive disjoint objects concurrently.
pub struct ProtocolShard {
    core: NodeCore,
    write_path: WritePath,
    detection: Detection,
    resolution: ResolutionDriver,
}

impl ProtocolShard {
    fn new(core: NodeCore) -> Self {
        ProtocolShard {
            core,
            write_path: WritePath::default(),
            detection: Detection::default(),
            resolution: ResolutionDriver::default(),
        }
    }

    /// The owning node's identity.
    pub fn node_id(&self) -> NodeId {
        self.core.me
    }

    /// This shard's index within its node.
    pub fn shard_id(&self) -> ShardId {
        self.core.shard
    }

    /// The shard of the store this shard owns.
    pub fn store(&self) -> &StoreShard {
        &self.core.store
    }

    /// Routes a subsystem trigger to the resolution driver.
    fn route(&mut self, trigger: Trigger, object: ObjectId, ctx: &mut dyn Context<IdeaMsg>) {
        match trigger {
            Trigger::None => {}
            Trigger::Resolve => self.resolution.start_active(&mut self.core, object, ctx),
        }
    }

    /// Applies the per-object digest groups piggybacked on a detect frame.
    /// One frame may batch advertisements for every object of this shard;
    /// groups for a foreign shard (a routing bug) are skipped defensively.
    fn apply_digest_groups(
        &mut self,
        from: NodeId,
        digests: Vec<crate::messages::DigestGroup>,
        ctx: &mut dyn Context<IdeaMsg>,
    ) {
        let shards = self.core.cfg.store_shards.max(1);
        for g in digests {
            debug_assert_eq!(
                ShardId::of(g.object, shards),
                self.core.shard,
                "digest group routed to the wrong shard"
            );
            if ShardId::of(g.object, shards) != self.core.shard {
                continue;
            }
            self.detection.on_digests(&mut self.core, from, g.object, g.ids, ctx);
        }
    }

    /// Arms this shard's start-of-run timers (background resolution).
    pub fn on_start(&mut self, ctx: &mut dyn Context<IdeaMsg>) {
        if let Some(period) = self.core.cfg.background_period {
            let shard = self.core.shard;
            for object in self.core.store.objects() {
                ctx.set_timer(period, super::pack(K_BACKGROUND, shard, object.0));
            }
        }
    }

    /// Handles one protocol message addressed to an object of this shard.
    pub fn on_message(&mut self, from: NodeId, msg: IdeaMsg, ctx: &mut dyn Context<IdeaMsg>) {
        debug_assert_eq!(
            ShardId::of(msg.object(), self.core.cfg.store_shards.max(1)),
            self.core.shard,
            "message routed to the wrong shard"
        );
        let core = &mut self.core;
        match msg {
            IdeaMsg::DetectRequest { round, object, summary, digests } => {
                // Piggybacked lazy-gossip advertisements first, so their
                // pull grace timers are armed before the reply goes out.
                self.apply_digest_groups(from, digests, ctx);
                let core = &mut self.core;
                let t = self.detection.on_request(core, from, round, object, summary, ctx);
                self.route(t, object, ctx);
            }
            IdeaMsg::DetectReply { round, object, delta, digests } => {
                self.apply_digest_groups(from, digests, ctx);
                let core = &mut self.core;
                let t = self.detection.on_reply(core, from, round, object, delta, ctx);
                self.route(t, object, ctx);
            }
            IdeaMsg::CallForAttention { rid, object } => {
                self.resolution.on_call_for_attention(core, from, rid, object, ctx)
            }
            IdeaMsg::Attention { rid, object, granted } => {
                self.resolution.on_attention(core, from, rid, object, granted, ctx)
            }
            IdeaMsg::CollectRequest { rid, object, probe } => {
                self.resolution.on_collect_request(core, from, rid, object, probe, ctx)
            }
            IdeaMsg::CollectDelta { rid, object, delta } => {
                self.resolution.on_collect_delta(core, from, rid, object, delta, ctx)
            }
            IdeaMsg::Inform { rid, object, reference } => {
                self.resolution.on_inform(core, from, rid, object, reference, ctx)
            }
            IdeaMsg::FetchRequest { object, have } => {
                self.write_path.on_fetch_request(core, from, object, have, ctx)
            }
            IdeaMsg::FetchReply { object, updates, done } => {
                self.write_path.on_fetch_reply(core, from, object, updates, done, ctx)
            }
            IdeaMsg::SweepRumor { id, ttl, object, counters } => {
                self.detection.on_sweep_rumor(core, from, id, ttl, object, counters, ctx)
            }
            IdeaMsg::SweepDivergence { object, sweep, delta } => {
                self.detection.on_sweep_divergence(core, from, object, sweep, delta)
            }
            IdeaMsg::GossipDigest { object, ids } => {
                self.detection.on_digests(core, from, object, ids, ctx)
            }
            IdeaMsg::GossipPull { object, id } => {
                self.detection.on_pull(core, from, object, id, ctx)
            }
            IdeaMsg::GossipPrune { object } => self.detection.on_prune(core, from, object),
        }
    }

    /// Handles a timer armed by this shard.
    pub fn on_timer(&mut self, _timer: TimerId, kind: u64, ctx: &mut dyn Context<IdeaMsg>) {
        let (base, _shard, low) = unpack(kind);
        match base {
            K_DETECT => {
                if let Some((object, t)) = self.detection.on_deadline(&mut self.core, low, ctx) {
                    self.route(t, object, ctx);
                }
            }
            K_BACKGROUND => self.resolution.on_background_timer(&mut self.core, ObjectId(low), ctx),
            K_BACKOFF => self.resolution.on_backoff_timer(&mut self.core, ObjectId(low), ctx),
            K_SWEEP => {
                if let Some((object, t)) =
                    self.detection.on_sweep_deadline(&mut self.core, low, ctx)
                {
                    self.route(t, object, ctx);
                }
            }
            K_LAZY_FLUSH => self.detection.on_flush_timer(&mut self.core, ObjectId(low), ctx),
            K_PULL => self.detection.on_pull_timer(&mut self.core, low, ctx),
            _ => {}
        }
    }

    // -------------------------------------------------- external triggers

    /// Issues a local write and triggers the protocol (§4.2). The object
    /// must belong to this shard.
    pub fn local_write(
        &mut self,
        object: ObjectId,
        meta_delta: i64,
        payload: UpdatePayload,
        ctx: &mut dyn Context<IdeaMsg>,
    ) -> Update {
        let update = self.write_path.local_write(&mut self.core, object, meta_delta, payload, ctx);
        self.detection.request_round(&mut self.core, object, ctx);
        update
    }

    /// Reads the object, triggering detection per the read policy (§4.2).
    pub fn read(&mut self, object: ObjectId, ctx: &mut dyn Context<IdeaMsg>) -> Result<Snapshot> {
        Ok(self.read_with(object, ReadConsistency::Any, ctx)?.0)
    }

    /// Consistency-aware read (the client layer's `Read` command): serves
    /// the local replica and decides the detection probe from both the
    /// read policy (§4.2) *and* the requested [`ReadConsistency`] —
    /// `AtLeast` probes on demand when the current estimate sits below the
    /// floor, `Fresh` always probes. Returns the owned snapshot (version
    /// vector included) plus whether a probe was launched; callers that
    /// only need the value should pair [`ProtocolShard::probe_for_read`]
    /// with [`ProtocolShard::peek`] instead.
    ///
    /// # Errors
    /// Fails when this shard hosts no replica of the object.
    pub fn read_with(
        &mut self,
        object: ObjectId,
        consistency: ReadConsistency,
        ctx: &mut dyn Context<IdeaMsg>,
    ) -> Result<(Snapshot, bool)> {
        let probe = self.probe_for_read(object, consistency, ctx)?;
        Ok((self.core.store.read(object)?, probe))
    }

    /// The protocol half of a read: accounts it against the read policy,
    /// launches the detection probe the policy or `consistency` calls for,
    /// and returns whether one was launched. The replica itself is not
    /// touched, so [`ProtocolShard::peek`] right after sees exactly the
    /// state the read was decided on.
    ///
    /// # Errors
    /// Fails when this shard hosts no replica of the object.
    pub fn probe_for_read(
        &mut self,
        object: ObjectId,
        consistency: ReadConsistency,
        ctx: &mut dyn Context<IdeaMsg>,
    ) -> Result<bool> {
        let policy_probe = self.write_path.read(&mut self.core, object, ctx)?;
        let probe = match consistency {
            ReadConsistency::Any => policy_probe,
            ReadConsistency::AtLeast(floor) => policy_probe || self.level(object) < floor,
            ReadConsistency::Fresh => true,
        };
        if probe {
            self.detection.request_round(&mut self.core, object, ctx);
        }
        Ok(probe)
    }

    /// Reads the object's value view without cloning its version vector and
    /// without triggering detection — the cheap poll for callers that only
    /// need meta/recency (the consistency level is served by
    /// [`ProtocolShard::level`], already allocation-free).
    pub fn peek(&self, object: ObjectId) -> Result<SnapshotView<'_>> {
        self.core.store.read_view(object)
    }

    /// Explicit user demand for resolution of an object of this shard.
    pub fn demand_active_resolution(&mut self, object: ObjectId, ctx: &mut dyn Context<IdeaMsg>) {
        self.resolution.start_active(&mut self.core, object, ctx);
    }

    /// User dissatisfaction routed to this shard (§5.1): raise the node-wide
    /// hint floor by Δ and resolve the object. `new_weights`, when given,
    /// re-weights *this shard's* quantifier — on the sharded runtime,
    /// node-wide re-weighting is the composing layer's job
    /// ([`IdeaNode::user_dissatisfied`] fans it out to every shard).
    pub fn user_dissatisfied(
        &mut self,
        object: ObjectId,
        new_weights: Option<Weights>,
        ctx: &mut dyn Context<IdeaMsg>,
    ) {
        if let Some(w) = new_weights {
            self.core.quant.set_weights(w);
            self.core.cfg.weights = w;
        }
        if self.core.hint_user_dissatisfied() == AdaptAction::Resolve {
            self.resolution.start_active(&mut self.core, object, ctx);
        }
    }

    /// This shard's current consistency-level estimate for `object`.
    pub fn level(&self, object: ObjectId) -> ConsistencyLevel {
        self.core.obj(object).map_or(ConsistencyLevel::PERFECT, |s| s.level)
    }

    /// Report over this shard's view. `resolutions_initiated` counts only
    /// rounds initiated by *this shard*; [`IdeaNode::report`] aggregates
    /// across shards.
    pub fn report(&self, object: ObjectId) -> NodeReport {
        let st = self.core.obj(object);
        let replica = self.core.store.replica(object).ok();
        NodeReport {
            node: self.core.me,
            level: st.map_or(ConsistencyLevel::PERFECT, |s| s.level),
            hint_floor: self.core.hint_floor(),
            resolutions_initiated: self.resolution.completed(),
            rollbacks: self.core.rollbacks(),
            top_members: st
                .map_or_else(Vec::new, |s| s.layer.top_members(&self.core.cfg.top_layer).collect()),
            meta: replica.map_or(0, |r| r.meta()),
            updates: replica.map_or(0, |r| r.len()),
        }
    }

    /// The gossip rumor ids this shard's router remembers delivering for
    /// `object`, sorted. Test/harness introspection: the delivery tests
    /// check that every node saw every rumor.
    pub fn gossip_seen(&self, object: ObjectId) -> Vec<idea_overlay::RumorId> {
        self.core.obj(object).map_or_else(Vec::new, |s| s.gossip.seen_ids())
    }

    // ------------------------------------------- per-shard configuration
    //
    // The client layer's node-wide setters are fanned out shard by shard on
    // the sharded runtime; these are the per-worker halves. On a composed
    // `IdeaNode`, `apply_to_node` and `ConsistencySpec::apply_to` run them
    // on every shard.

    /// Sets the Formula-1 weights on this shard.
    pub fn set_weights(&mut self, w: Weights) {
        self.core.quant.set_weights(w);
        self.core.cfg.weights = w;
    }

    /// Sets the Formula-1 saturation bounds on this shard.
    pub fn set_bounds(&mut self, b: MaxBounds) {
        self.core.quant.set_bounds(b);
        self.core.cfg.bounds = b;
    }

    /// Sets the resolution policy on this shard.
    pub fn set_policy(&mut self, policy: ResolutionPolicy) {
        self.core.cfg.policy = policy;
    }

    /// Sets or clears the background-resolution period on this shard.
    pub fn set_background_period(&mut self, period: Option<idea_types::SimDuration>) {
        self.core.cfg.background_period = period;
    }

    /// Assigns a priority rank to a node in this shard's table.
    pub fn set_priority(&mut self, node: NodeId, priority: u8) {
        self.core.priorities.insert(node, priority);
    }

    /// Sets the hint floor. The hint controller is *node-wide* (behind the
    /// shared core), so applying this on any — or every — shard of a node
    /// is equivalent.
    pub fn set_hint_floor(&mut self, hint: f64) {
        self.core.shared_handle().hint.lock().set_hint(hint);
    }

    /// Resolution rounds this shard initiated to completion (the sharded
    /// engine sums these across workers when assembling a node report).
    pub fn resolutions_completed(&self) -> u64 {
        self.resolution.completed()
    }

    /// This shard's quantifier (each shard keeps its own copy; node-level
    /// setters fan updates out, so shards normally agree).
    pub fn quantifier(&self) -> &Quantifier {
        &self.core.quant
    }

    // ------------------------------------------------- durability & rejoin

    /// The rolling content digest of this shard's replicas (see
    /// [`StoreShard::state_hash`]).
    pub fn state_hash(&self) -> u64 {
        self.core.store.state_hash()
    }

    /// Installs a final durable snapshot so the WAL tail is empty — the
    /// clean-shutdown invariant. No-op without durability.
    pub fn flush_durability(&mut self) {
        self.core.store.snapshot_now();
    }

    /// Announces this (restarted) shard back to the deployment: for every
    /// hosted object, asks `peer` for the suffix beyond our recovered
    /// counters (the chunked fetch path — a *delta* resync, not a full
    /// state transfer) and starts a detection round so peers relearn our
    /// version vector.
    pub fn rejoin_from(&mut self, peer: NodeId, ctx: &mut dyn Context<IdeaMsg>) {
        let objects: Vec<ObjectId> = self.core.store.objects().collect();
        for object in objects {
            if peer != self.core.me {
                let have = self
                    .core
                    .store
                    .replica(object)
                    .expect("just listed")
                    .version()
                    .counters()
                    .clone();
                ctx.send(peer, IdeaMsg::FetchRequest { object, have });
            }
            self.detection.request_round(&mut self.core, object, ctx);
        }
    }
}

/// The IDEA middleware node: per-object shards plus node-wide shared state.
pub struct IdeaNode {
    shards: Vec<ProtocolShard>,
    shared: Arc<SharedCore>,
}

impl IdeaNode {
    /// Builds a node hosting `objects`, writing as writer `me.0`, with
    /// `cfg.store_shards` store/protocol shards.
    ///
    /// # Panics
    /// Panics when the configuration fails [`IdeaConfig::validate`]
    /// (e.g. `store_shards` outside `1..=`[`MAX_SHARDS`]); use
    /// [`IdeaNode::try_new`] to surface the violation as an error instead.
    pub fn new(me: NodeId, cfg: IdeaConfig, objects: &[ObjectId]) -> Self {
        match Self::try_new(me, cfg, objects) {
            Ok(node) => node,
            Err(e) => panic!("invalid IdeaConfig: {e}"),
        }
    }

    /// Fallible twin of [`IdeaNode::new`]: validates the configuration
    /// first and returns the typed violation instead of panicking. With
    /// durability enabled this is a **fresh genesis** — any previous WAL
    /// and snapshot files of this identity are discarded; restarting an
    /// existing identity goes through [`IdeaNode::recover`].
    ///
    /// # Errors
    /// Propagates [`IdeaConfig::validate`]'s [`idea_types::IdeaError`].
    ///
    /// # Panics
    /// Panics when durability is enabled but the WAL files cannot be
    /// created under `cfg.durability.dir` (fail-stop: a node that cannot
    /// persist must not acknowledge writes).
    pub fn try_new(me: NodeId, cfg: IdeaConfig, objects: &[ObjectId]) -> Result<Self> {
        let mut node = Self::build(me, cfg, objects)?;
        let dcfg = node.config().durability.clone();
        if dcfg.enabled() {
            for (i, s) in node.shards.iter_mut().enumerate() {
                let wal = ShardWal::create(&dcfg, me, i as u32).unwrap_or_else(|e| {
                    panic!("cannot create WAL files under {:?}: {e}", dcfg.dir)
                });
                s.core.store.attach_wal(wal);
            }
        }
        Ok(node)
    }

    /// Builds the in-memory node (no WAL attached yet).
    fn build(me: NodeId, cfg: IdeaConfig, objects: &[ObjectId]) -> Result<Self> {
        cfg.validate()?;
        let nshards = cfg.store_shards;
        debug_assert!((1..=MAX_SHARDS).contains(&nshards), "validate() bounds store_shards");
        let shared = Arc::new(SharedCore::new(HintController::new(cfg.hint, cfg.hint_delta)));
        let shards = (0..nshards)
            .map(|s| {
                let shard = ShardId(s as u32);
                let mine =
                    objects.iter().copied().filter(move |&o| ShardId::of(o, nshards) == shard);
                ProtocolShard::new(NodeCore::new(me, shard, cfg.clone(), mine, Arc::clone(&shared)))
            })
            .collect();
        Ok(IdeaNode { shards, shared })
    }

    /// Restarts an existing node identity from its durable state: each
    /// shard loads its last snapshot, replays the log tail (torn final
    /// frame tolerated and truncated), and reattaches the WAL handle for
    /// appending. Objects in `objects` that were never persisted open
    /// fresh, so a restart also picks up newly configured objects.
    ///
    /// The recovered node carries only what *it* had persisted; updates it
    /// missed while down are pulled from live peers with
    /// [`IdeaNode::rejoin_from`] (delta resync over the chunked fetch
    /// path).
    ///
    /// # Errors
    /// Propagates [`IdeaConfig::validate`]'s [`idea_types::IdeaError`].
    ///
    /// # Panics
    /// Panics when `cfg.durability` is disabled, or when the durable files
    /// are unreadable or corrupt beyond torn-tail tolerance — fail-stop: a
    /// restart from a bad log must not silently come back empty.
    pub fn recover(me: NodeId, cfg: IdeaConfig, objects: &[ObjectId]) -> Result<Self> {
        assert!(cfg.durability.enabled(), "IdeaNode::recover needs durability enabled");
        let dcfg = cfg.durability.clone();
        let mut node = Self::build(me, cfg, objects)?;
        for (i, shard) in node.shards.iter_mut().enumerate() {
            let (wal, recovered) = ShardWal::open(&dcfg, me, i as u32).unwrap_or_else(|e| {
                panic!("cannot recover WAL shard {i} under {:?}: {e}", dcfg.dir)
            });
            if !recovered.is_empty() {
                shard.core.store = StoreShard::recover(me, WriterId(me.0), &recovered);
                // Recovered objects need their protocol-plane state too, and
                // newly configured objects that never hit the log open fresh.
                let objects: Vec<ObjectId> =
                    shard.core.store.objects().chain(shard.core.objs.ids()).collect();
                for o in objects {
                    shard.core.open(o);
                }
            }
            shard.core.store.attach_wal(wal);
        }
        Ok(node)
    }

    #[inline]
    fn shard_idx(&self, object: ObjectId) -> usize {
        ShardId::of(object, self.shards.len()).index()
    }

    #[inline]
    fn shard_for(&mut self, object: ObjectId) -> &mut ProtocolShard {
        let s = self.shard_idx(object);
        &mut self.shards[s]
    }

    /// Node identity.
    pub fn id(&self) -> NodeId {
        self.shards[0].core.me
    }

    /// Number of protocol shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Immutable access to the shards, in index order.
    pub fn shards(&self) -> &[ProtocolShard] {
        &self.shards
    }

    /// Mutable access to the shards, in index order (the client layer's
    /// command routing).
    pub(crate) fn shards_mut(&mut self) -> &mut [ProtocolShard] {
        &mut self.shards
    }

    /// The configuration in force.
    pub fn config(&self) -> &IdeaConfig {
        &self.shards[0].core.cfg
    }

    /// The quantifier in force.
    pub fn quantifier(&self) -> &Quantifier {
        &self.shards[0].core.quant
    }

    /// Sets the Formula-1 weights on every shard (Table-1 `set_weight`).
    pub fn set_weights(&mut self, w: Weights) {
        for s in &mut self.shards {
            s.set_weights(w);
        }
    }

    /// The hint controller (node-wide; short lock).
    pub fn hint(&self) -> impl Deref<Target = HintController> + '_ {
        self.shared.hint.lock()
    }

    /// Sets or clears the background-resolution period
    /// (the `set_background_freq` API). Takes effect at the next timer fire.
    pub fn set_background_period(&mut self, period: Option<idea_types::SimDuration>) {
        for s in &mut self.shards {
            s.set_background_period(period);
        }
    }

    /// Assigns a priority rank to a node (for
    /// [`ResolutionPolicy::PriorityWins`]).
    pub fn set_priority(&mut self, node: NodeId, priority: u8) {
        for s in &mut self.shards {
            s.set_priority(node, priority);
        }
    }

    /// The priority rank assigned to `node`, if any.
    pub fn priority_of(&self, node: NodeId) -> Option<u8> {
        self.shards[0].core.priorities.get(&node).copied()
    }

    /// Number of completed resolution records across all shards. Cheap
    /// (no clone); prefer this over `resolution_log().len()` in loops.
    pub fn resolution_count(&self) -> usize {
        self.shards.iter().map(|s| s.resolution.log().len()).sum()
    }

    /// Completed resolution records across all shards (Table 2 / Figure 9
    /// raw data), ordered by start time. Clones the records — for a bare
    /// count use [`IdeaNode::resolution_count`].
    pub fn resolution_log(&self) -> Vec<ResolutionRecord> {
        let mut log: Vec<ResolutionRecord> =
            self.shards.iter().flat_map(|s| s.resolution.log().iter().cloned()).collect();
        log.sort_by_key(|r| (r.started, r.rid));
        log
    }

    /// Immutable access to a hosted replica (routed to the owning shard).
    ///
    /// # Errors
    /// Fails when no replica of the object exists.
    pub fn replica(&self, object: ObjectId) -> Result<&Replica> {
        self.shards[self.shard_idx(object)].core.store.replica(object)
    }

    /// This node's current consistency-level estimate for `object`.
    pub fn level(&self, object: ObjectId) -> ConsistencyLevel {
        self.shards[self.shard_idx(object)].level(object)
    }

    /// True while a resolution round involves this node as initiator (or it
    /// is backing off from one). The booking application treats this as the
    /// "system is kind of locked" window of §5.2.
    pub fn is_resolving(&self, object: ObjectId) -> bool {
        self.shards[self.shard_idx(object)].resolution.is_resolving(object)
    }

    /// Full report for the harness: the owning shard's per-object view plus
    /// the node-wide aggregates (resolutions across shards, rollbacks, hint
    /// floor).
    pub fn report(&self, object: ObjectId) -> NodeReport {
        let mut rep = self.shards[self.shard_idx(object)].report(object);
        rep.resolutions_initiated = self.shards.iter().map(|s| s.resolution.completed()).sum();
        rep
    }

    /// The gossip rumor ids this node delivered for `object`, sorted (see
    /// [`ProtocolShard::gossip_seen`]).
    pub fn gossip_seen(&self, object: ObjectId) -> Vec<idea_overlay::RumorId> {
        self.shards[self.shard_idx(object)].gossip_seen(object)
    }

    /// What this node's gossip plane holds for `object` (all zero for an
    /// object it never touched).
    pub fn gossip_footprint(&self, object: ObjectId) -> GossipFootprint {
        let shard = &self.shards[self.shard_idx(object)];
        shard.core.obj(object).map_or_else(GossipFootprint::default, |s| GossipFootprint {
            view: s.gossip.view().len(),
            lazy_links: s.gossip.lazy_link_count(),
            seen_ids: s.gossip.seen_count(),
            cached_bodies: s.lazy.cached_bodies(),
            missing: shard.detection.pending_pulls(object),
        })
    }

    // ----------------------------------------------------------- triggers

    /// Issues a local write and triggers the protocol (§4.2).
    pub fn local_write(
        &mut self,
        object: ObjectId,
        meta_delta: i64,
        payload: UpdatePayload,
        ctx: &mut dyn Context<IdeaMsg>,
    ) -> Update {
        self.shard_for(object).local_write(object, meta_delta, payload, ctx)
    }

    /// Reads the object, triggering detection per the read policy (§4.2).
    pub fn read(&mut self, object: ObjectId, ctx: &mut dyn Context<IdeaMsg>) -> Result<Snapshot> {
        self.shard_for(object).read(object, ctx)
    }

    /// Consistency-aware read (see [`ProtocolShard::read_with`]): serves
    /// the local replica and launches an on-demand detection probe per the
    /// requested [`ReadConsistency`].
    ///
    /// # Errors
    /// Fails when no replica of the object exists.
    pub fn read_with(
        &mut self,
        object: ObjectId,
        consistency: ReadConsistency,
        ctx: &mut dyn Context<IdeaMsg>,
    ) -> Result<(Snapshot, bool)> {
        self.shard_for(object).read_with(object, consistency, ctx)
    }

    /// The protocol half of a read (see [`ProtocolShard::probe_for_read`]):
    /// launches whatever probe the read calls for and reports it; pair
    /// with [`IdeaNode::peek`] for the value.
    ///
    /// # Errors
    /// Fails when no replica of the object exists.
    pub fn probe_for_read(
        &mut self,
        object: ObjectId,
        consistency: ReadConsistency,
        ctx: &mut dyn Context<IdeaMsg>,
    ) -> Result<bool> {
        self.shard_for(object).probe_for_read(object, consistency, ctx)
    }

    /// Reads the object's value view without cloning its version vector and
    /// without triggering detection (see [`ProtocolShard::peek`]).
    pub fn peek(&self, object: ObjectId) -> Result<SnapshotView<'_>> {
        self.shards[self.shard_idx(object)].peek(object)
    }

    /// Explicit user demand for resolution (the `demand_active_resolution`
    /// API and the adaptive layer's trigger).
    pub fn demand_active_resolution(&mut self, object: ObjectId, ctx: &mut dyn Context<IdeaMsg>) {
        self.shard_for(object).demand_active_resolution(object, ctx);
    }

    /// The user told IDEA the current consistency is unacceptable (§5.1):
    /// optionally re-weight the metrics, always raise the floor by Δ and
    /// resolve.
    pub fn user_dissatisfied(
        &mut self,
        object: ObjectId,
        new_weights: Option<Weights>,
        ctx: &mut dyn Context<IdeaMsg>,
    ) {
        if let Some(w) = new_weights {
            self.set_weights(w);
        }
        self.shard_for(object).user_dissatisfied(object, None, ctx);
    }

    // ------------------------------------------------- durability & rejoin

    /// The rolling content digest of every replica this node hosts, XOR'd
    /// across shards — independent of shard count and delivery
    /// interleaving, so two converged nodes hosting the same objects
    /// report equal digests. The one-integer pin the recovery and rejoin
    /// tests (and the crash-recovery CI gate) compare.
    pub fn state_hash(&self) -> u64 {
        self.shards.iter().fold(0, |acc, s| acc ^ s.state_hash())
    }

    /// Flushes the durability plane for a clean shutdown: every shard
    /// installs a final snapshot, leaving an empty WAL tail — the next
    /// [`IdeaNode::recover`] replays nothing. No-op without durability.
    pub fn flush_durability(&mut self) {
        for s in &mut self.shards {
            s.flush_durability();
        }
    }

    /// Announces this (restarted) node back to the deployment: every shard
    /// requests the updates it missed from `peer` as a *delta* against its
    /// recovered version vectors (the chunked fetch path) and starts
    /// detection rounds so peers relearn our counters. See
    /// [`ProtocolShard::rejoin_from`].
    pub fn rejoin_from(&mut self, peer: NodeId, ctx: &mut dyn Context<IdeaMsg>) {
        for s in &mut self.shards {
            s.rejoin_from(peer, ctx);
        }
    }
}

impl Proto for IdeaNode {
    type Msg = IdeaMsg;

    fn on_start(&mut self, ctx: &mut dyn Context<IdeaMsg>) {
        for s in &mut self.shards {
            s.on_start(ctx);
        }
    }

    fn on_message(&mut self, from: NodeId, msg: IdeaMsg, ctx: &mut dyn Context<IdeaMsg>) {
        self.shard_for(msg.object()).on_message(from, msg, ctx);
    }

    fn on_timer(&mut self, timer: TimerId, kind: u64, ctx: &mut dyn Context<IdeaMsg>) {
        let (_, shard, _) = unpack(kind);
        if let Some(s) = self.shards.get_mut(shard) {
            s.on_timer(timer, kind, ctx);
        }
    }
}

impl ShardedProto for IdeaNode {
    type Shard = ProtocolShard;

    fn shard_count(&self) -> usize {
        self.shards.len()
    }

    fn shard_of(msg: &IdeaMsg, shards: usize) -> usize {
        ShardId::of(msg.object(), shards).index()
    }

    fn into_shards(self) -> Vec<ProtocolShard> {
        self.shards
    }

    fn from_shards(shards: Vec<ProtocolShard>) -> Self {
        assert!(!shards.is_empty(), "a node needs at least one shard");
        let shared = Arc::clone(shards[0].core.shared_handle());
        IdeaNode { shards, shared }
    }

    fn shard_on_start(shard: &mut ProtocolShard, ctx: &mut dyn Context<IdeaMsg>) {
        shard.on_start(ctx);
    }

    fn shard_on_message(
        shard: &mut ProtocolShard,
        from: NodeId,
        msg: IdeaMsg,
        ctx: &mut dyn Context<IdeaMsg>,
    ) {
        shard.on_message(from, msg, ctx);
    }

    fn shard_on_timer(
        shard: &mut ProtocolShard,
        timer: TimerId,
        kind: u64,
        ctx: &mut dyn Context<IdeaMsg>,
    ) {
        shard.on_timer(timer, kind, ctx);
    }
}
