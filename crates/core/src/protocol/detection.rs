//! The detection subsystem: top-layer temperature rounds (§4.3/§4.4.1) and
//! the TTL-bounded bottom-layer gossip sweeps that double-check them
//! (§4.4.2), both driving the quantified consistency level.
//!
//! Owns the in-flight [`DetectRound`] per object, the sweep collectors, and
//! the timer-id routing for both. Every handler reports a [`Trigger`] so
//! the composing node can forward adaptive-layer decisions (resolve now) to
//! the resolution subsystem without this module knowing it exists.
//!
//! ## Hot-path economics
//!
//! Probes carry a compact [`VvSummary`] and answers a [`VvDelta`]
//! (suffixes beyond the probe's counters), so detection traffic scales with
//! divergence, not history; the initiator reconstructs each peer's full
//! vector from the delta plus the round's baseline snapshot. When
//! [`crate::config::IdeaConfig::detect_batch_window`] is set, probe starts
//! requested inside the window coalesce into one round per dirty object —
//! one timer, one fan-out per peer — turning O(writes × peers) steady-state
//! probe traffic into O(peers) per window.

use super::{pack, NodeCore, Trigger, K_BATCH, K_DETECT, K_PULL, K_SWEEP};
use crate::adapt::AdaptAction;
use crate::messages::{DigestGroup, IdeaMsg};
use idea_detect::bottom::{BottomReport, SweepCollector};
use idea_detect::round::DetectRound;
use idea_net::{Context, TimerId};
use idea_overlay::gossip::{Peers, Receipt, RumorId};
use idea_types::{FastMap, NodeId, ObjectId};
use idea_vv::{VersionVector, VvDelta, VvSummary};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Per-object detection state.
#[derive(Default)]
struct DetectState {
    /// The one in-flight round this node may have as initiator.
    round: Option<DetectRound>,
    /// Deadline timer of the in-flight round.
    timer: Option<TimerId>,
    /// Completed rounds (drives the sweep cadence).
    completed: u64,
    /// Sweep collectors keyed by rumor sequence.
    collectors: FastMap<u64, SweepCollector>,
}

/// A rumor advertised to us whose body has not arrived yet. No pull has
/// gone out while the `K_PULL` timer is pending: the grace window lets an
/// eager copy already in flight win, so only genuinely flood-missed nodes
/// ever pull (immediate pulls would race the flood and churn the overlay
/// with graft/prune oscillation).
struct Missing {
    /// Advertisers to pull from, tried one per timer firing.
    advertisers: Vec<NodeId>,
    /// The armed `K_PULL` grace/retry timer.
    timer: TimerId,
    /// Ticket keying `pull_tickets`.
    ticket: u64,
}

/// The detection subsystem.
#[derive(Default)]
pub(crate) struct Detection {
    states: BTreeMap<ObjectId, DetectState>,
    /// Detect round id → object, for deadline timers.
    round_objects: FastMap<u64, ObjectId>,
    /// Sweep-deadline ticket → (object, rumor seq). Tickets come from the
    /// node-wide id counter because gossip seqs are only per-object unique.
    sweep_tickets: FastMap<u64, (ObjectId, u64)>,
    /// Pull-retry ticket → (object, rumor id), for `K_PULL` timers.
    pull_tickets: FastMap<u64, (ObjectId, RumorId)>,
    /// Advertised-but-missing bodies of every object of the shard, with
    /// their pull state. One table per shard rather than one per object:
    /// few objects have a pull pending at once, and a drained table keeps
    /// its buckets.
    missing: FastMap<(ObjectId, RumorId), Missing>,
    /// Whether a batching-window timer is armed. The dirty objects the
    /// window will probe live in the store shard's dirty-set
    /// ([`idea_store::StoreShard::take_dirty`]): local writes mark it at
    /// the store layer, read-triggered probes via `mark_dirty`.
    batch_armed: bool,
}

/// Drains the probed object's pending IHAVEs bound for `peer` into a
/// digest group for piggybacking on a detect frame (none when its outbox
/// for that peer is empty).
fn batched_digests(core: &mut NodeCore, primary: ObjectId, peer: NodeId) -> Vec<DigestGroup> {
    let ids = core.obj_mut(primary).lazy.take_outbox(peer);
    if ids.is_empty() {
        Vec::new()
    } else {
        vec![DigestGroup { object: primary, ids }]
    }
}

impl Detection {
    fn state(&mut self, object: ObjectId) -> &mut DetectState {
        self.states.entry(object).or_default()
    }

    /// Requests a detection round for `object`. Without a batching window
    /// the round starts immediately (the paper's per-trigger probing); with
    /// one, the object is marked dirty in the store shard and a single
    /// window timer fires one round per dirty object.
    pub fn request_round(
        &mut self,
        core: &mut NodeCore,
        object: ObjectId,
        ctx: &mut dyn Context<IdeaMsg>,
    ) {
        match core.cfg.detect_batch_window {
            None => self.begin_round(core, object, ctx),
            Some(window) => {
                // Local writes already marked the store dirty; this covers
                // read-triggered probes (and is idempotent for writes).
                core.store.mark_dirty(object);
                if !self.batch_armed {
                    self.batch_armed = true;
                    ctx.set_timer(window, pack(K_BATCH, core.shard, 0));
                }
            }
        }
    }

    /// The batching window closed: start one round per dirty object.
    pub fn on_batch_timer(&mut self, core: &mut NodeCore, ctx: &mut dyn Context<IdeaMsg>) {
        self.batch_armed = false;
        let pending = core.store.take_dirty();
        for object in pending {
            self.begin_round(core, object, ctx);
        }
    }

    /// Starts a detection round towards the top-layer peers (one in flight
    /// per object; a no-op for unknown objects or an empty top layer).
    fn begin_round(
        &mut self,
        core: &mut NodeCore,
        object: ObjectId,
        ctx: &mut dyn Context<IdeaMsg>,
    ) {
        if self.states.get(&object).is_some_and(|st| st.round.is_some()) {
            return; // one round in flight per object
        }
        let evv = match core.store.replica(object) {
            Ok(r) => r.version().clone(),
            Err(_) => return,
        };
        let peers = core.top_peers(object);
        if peers.is_empty() {
            return;
        }
        let rid = core.fresh_id();
        let summary = evv.summary(core.cfg.summary_tail);
        let st = self.state(object);
        st.round = Some(DetectRound::start(core.me, rid, &peers, ctx.now(), evv));
        st.timer = Some(ctx.set_timer(core.cfg.detect_deadline, pack(K_DETECT, core.shard, rid)));
        self.round_objects.insert(rid, object);
        for p in peers {
            // The probed object's pending lazy-gossip advertisements for
            // this peer hitch a ride (zero wire bytes when none are queued).
            let digests = batched_digests(core, object, p);
            ctx.send(
                p,
                IdeaMsg::DetectRequest { round: rid, object, summary: summary.clone(), digests },
            );
        }
    }

    /// A peer probes us: reply with our suffixes beyond its counters, then
    /// refresh the local estimate pairwise (higher id is the pair's
    /// reference, §4.4.1 — the pairwise path only ever *lowers* the
    /// estimate; a full round or a resolution raises it).
    pub fn on_request(
        &mut self,
        core: &mut NodeCore,
        from: NodeId,
        round: u64,
        object: ObjectId,
        summary: VvSummary,
        ctx: &mut dyn Context<IdeaMsg>,
    ) -> Trigger {
        let me = core.me;
        let quant = core.quant;
        let (delta, pair) = {
            let mine = core.open(object).version();
            let delta = mine.suffix_since(&summary.counters);
            let pair = if from > me {
                quant.level(&mine.triple_against_summary(&summary))
            } else {
                quant.level(&summary.triple_against(mine))
            };
            (delta, pair)
        };
        // Reply first, then update local estimates.
        let digests = batched_digests(core, object, from);
        ctx.send(from, IdeaMsg::DetectReply { round, object, delta, digests });
        let now = ctx.now();
        core.note_counters(object, &summary.counters, now);
        let st = core.obj_mut(object);
        let pair_level = if from > me { pair } else { pair.max(st.level) };
        st.level = st.level.min(pair_level);
        let level = st.level;
        if core.hint_sample(level) == AdaptAction::Resolve {
            Trigger::Resolve
        } else {
            Trigger::None
        }
    }

    /// A probed peer answered; completes the round when everyone has. The
    /// peer's full vector is rebuilt from its delta over the round's
    /// baseline — nothing history-sized crossed the wire.
    pub fn on_reply(
        &mut self,
        core: &mut NodeCore,
        from: NodeId,
        round: u64,
        object: ObjectId,
        delta: VvDelta,
        ctx: &mut dyn Context<IdeaMsg>,
    ) -> Trigger {
        let now = ctx.now();
        core.note_counters(object, &delta.counters, now);
        let Some(st) = self.states.get_mut(&object) else {
            return Trigger::None;
        };
        let complete = match st.round.as_mut() {
            Some(r) if r.round_id == round => {
                let evv = r.baseline().reconstruct(&delta);
                r.on_reply(from, evv)
            }
            _ => return Trigger::None,
        };
        if complete {
            self.finish_round(core, object, ctx)
        } else {
            Trigger::None
        }
    }

    /// The round deadline passed: complete with whoever answered. Returns
    /// the affected object and the adaptive layer's verdict.
    pub fn on_deadline(
        &mut self,
        core: &mut NodeCore,
        rid: u64,
        ctx: &mut dyn Context<IdeaMsg>,
    ) -> Option<(ObjectId, Trigger)> {
        let object = self.round_objects.remove(&rid)?;
        let has_round = self.states.get(&object).map(|st| st.round.is_some()).unwrap_or(false);
        if has_round {
            Some((object, self.finish_round(core, object, ctx)))
        } else {
            None
        }
    }

    fn finish_round(
        &mut self,
        core: &mut NodeCore,
        object: ObjectId,
        ctx: &mut dyn Context<IdeaMsg>,
    ) -> Trigger {
        let mine = core.store.replica(object).expect("opened").version().clone();
        let st = self.state(object);
        let Some(round) = st.round.take() else {
            return Trigger::None;
        };
        if let Some(t) = st.timer.take() {
            ctx.cancel_timer(t);
        }
        self.round_objects.remove(&round.round_id);
        let st = self.state(object);
        let report = round.complete(&mine, ctx.now());
        st.completed += 1;
        let rounds = st.completed;
        let triple = report.triple_of(core.me).expect("initiator always appears in its own report");
        let level = core.quant.level(&triple);
        core.obj_mut(object).level = level;
        // Bottom-layer double-check every sweep_every-th round (§4.4.2).
        if let Some(k) = core.cfg.sweep_every {
            if k > 0 && rounds.is_multiple_of(k) {
                self.start_sweep(core, object, ctx);
            }
        }
        if core.hint_sample(level) == AdaptAction::Resolve {
            Trigger::Resolve
        } else {
            Trigger::None
        }
    }

    /// Advertised bodies of `object` still awaited here (pending pulls).
    pub fn pending_pulls(&self, object: ObjectId) -> usize {
        self.missing.keys().filter(|(o, _)| *o == object).count()
    }

    // ------------------------------------------------------------- sweeps

    fn start_sweep(
        &mut self,
        core: &mut NodeCore,
        object: ObjectId,
        ctx: &mut dyn Context<IdeaMsg>,
    ) {
        let counters =
            Arc::new(core.store.replica(object).expect("opened").version().counters().clone());
        let peers = Peers { me: core.me, n: ctx.node_count() };
        let deadline = ctx.now() + core.cfg.sweep_deadline;
        let epsilon = core.cfg.sweep_epsilon;
        // Field-disjoint borrows: the config stays shared while the object
        // state is mutated.
        let cfg = &core.cfg;
        let shared = core.objs.get_mut(object).expect("object state");
        let level = shared.level;
        let (id, _ttl, plan) = shared.gossip.originate(&cfg.gossip, peers, ctx.rng());
        let seq = u64::from(id.seq);
        self.state(object).collectors.insert(seq, SweepCollector::new(level, epsilon, deadline));
        shared.dispatch_rumor(cfg, object, id, plan, &counters, ctx);
        // Deadline timers route through a node-unique ticket: gossip seqs
        // are allocated per object, so two objects at one node can emit the
        // same `id.seq` and a seq-keyed map would settle the wrong sweep.
        let ticket = core.fresh_id();
        ctx.set_timer(core.cfg.sweep_deadline, pack(K_SWEEP, core.shard, ticket));
        self.sweep_tickets.insert(ticket, (object, seq));
    }

    /// A sweep (or bootstrap announce) rumor arrived: relay it per the
    /// gossip policy, and report divergence straight to the origin when we
    /// hold updates it has not seen (§4.4.2 — the bottom layer "can cause
    /// inconsistencies too").
    ///
    /// `from` is the pushing (or pull-answering) peer: it is excluded from
    /// the relay targets, and a duplicate push demotes it to the lazy side.
    #[allow(clippy::too_many_arguments)]
    pub fn on_sweep_rumor(
        &mut self,
        core: &mut NodeCore,
        from: NodeId,
        id: RumorId,
        ttl: u8,
        object: ObjectId,
        counters: Arc<VersionVector>,
        ctx: &mut dyn Context<IdeaMsg>,
    ) {
        let peers = Peers { me: core.me, n: ctx.node_count() };
        // Field-disjoint borrows from here on: the object's state is
        // resolved once and mutated while the config and the store stay
        // shared.
        let shared = match core.objs.get_mut(object) {
            Some(shared) => shared,
            None => {
                // First contact: open the replica, create the state.
                core.open(object);
                core.objs.get_mut(object).expect("object state")
            }
        };
        let cfg = &core.cfg;
        shared.note_counters(&cfg.top_layer, &counters, ctx.now());
        let receipt = shared.gossip.on_receive(&cfg.gossip, id, ttl, Some(from), peers, ctx.rng());
        if receipt == Receipt::Duplicate {
            // Plumtree repair: the pusher's eager link to us is redundant.
            // Tell it to go lazy (our own link to it is demoted inside
            // `on_receive`); the eager overlay trims towards a tree.
            ctx.send(from, IdeaMsg::GossipPrune { object });
        }
        // The body closes any pending pull for it, however it got here,
        // and grafts the deliverer — its link just proved load-bearing.
        if let Some(miss) = self.missing.remove(&(object, id)) {
            shared.gossip.graft(from);
            ctx.cancel_timer(miss.timer);
            self.pull_tickets.remove(&miss.ticket);
        }
        if let Receipt::Relay(plan) = receipt {
            shared.dispatch_rumor(cfg, object, id, plan, &counters, ctx);
        }
        let mine = core.store.replica(object).expect("opened").version();
        if counters.missing_from(mine.counters()) > 0 {
            ctx.send(
                id.origin,
                IdeaMsg::SweepDivergence {
                    object,
                    sweep: u64::from(id.seq),
                    delta: mine.suffix_since(&counters),
                },
            );
        }
    }

    // --------------------------------------------------- lazy gossip plane

    /// Rumor advertisements arrived (piggybacked on detect traffic or in a
    /// dedicated [`IdeaMsg::GossipDigest`]): for every body we miss, arm a
    /// `K_PULL` grace timer remembering the advertiser. **No pull goes out
    /// yet** — if an eager copy is already in flight the body lands first
    /// and cancels the timer, so only genuinely flood-missed nodes pull
    /// (and graft). Extra advertisers pile up as retry backups.
    pub fn on_digests(
        &mut self,
        core: &mut NodeCore,
        from: NodeId,
        object: ObjectId,
        ids: Vec<(RumorId, u8)>,
        ctx: &mut dyn Context<IdeaMsg>,
    ) {
        if ids.is_empty() {
            return;
        }
        core.open(object);
        let shard = core.shard;
        let timeout = core.cfg.gossip_pull_timeout;
        // Pass 1: classify under the object borrow.
        let mut fresh = Vec::new();
        let shared = core.obj(object).expect("object state");
        for (id, _ttl) in ids {
            if !shared.gossip.wants_body(id) {
                continue; // body already processed here
            }
            match self.missing.get_mut(&(object, id)) {
                Some(miss) => {
                    if !miss.advertisers.contains(&from) {
                        miss.advertisers.push(from);
                    }
                }
                None => {
                    if !fresh.contains(&id) {
                        fresh.push(id);
                    }
                }
            }
        }
        // Pass 2: arm grace timers (needs the id allocator, so outside
        // the object borrow).
        for id in fresh {
            let ticket = core.fresh_id();
            let timer = ctx.set_timer(timeout, pack(K_PULL, shard, ticket));
            self.pull_tickets.insert(ticket, (object, id));
            self.missing.insert((object, id), Missing { advertisers: vec![from], timer, ticket });
        }
    }

    /// A peer pulls a rumor body we advertised: answer from the cache and
    /// graft the puller (its lazy link was load-bearing). The reply is
    /// stamped ttl 0 — a pull repairs exactly the one delivery the flood
    /// missed; re-flooding from the puller would blow past the sweep's TTL
    /// budget. A cache miss is silently dropped — the puller's retry timer
    /// tries a backup.
    pub fn on_pull(
        &mut self,
        core: &mut NodeCore,
        from: NodeId,
        object: ObjectId,
        id: RumorId,
        ctx: &mut dyn Context<IdeaMsg>,
    ) {
        let Some(shared) = core.objs.get_mut(object) else {
            return;
        };
        if let Some(counters) = shared.lazy.cached(id) {
            let counters = Arc::clone(counters);
            shared.gossip.graft(from);
            ctx.send(from, IdeaMsg::SweepRumor { id, ttl: 0, object, counters });
        }
    }

    /// A pull grace/retry timer fired: if the body is still missing, pull
    /// from the next advertiser and re-arm; give up (background detection
    /// still covers the divergence) when none remain.
    pub fn on_pull_timer(
        &mut self,
        core: &mut NodeCore,
        ticket: u64,
        ctx: &mut dyn Context<IdeaMsg>,
    ) {
        let Some((object, id)) = self.pull_tickets.remove(&ticket) else {
            return;
        };
        let shard = core.shard;
        let timeout = core.cfg.gossip_pull_timeout;
        let Some(shared) = core.objs.get(object) else {
            return;
        };
        let key = (object, id);
        let peer = match self.missing.get_mut(&key) {
            Some(miss) if shared.gossip.wants_body(id) && !miss.advertisers.is_empty() => {
                miss.advertisers.remove(0)
            }
            _ => {
                self.missing.remove(&key);
                return;
            }
        };
        let fresh = core.fresh_id();
        let timer = ctx.set_timer(timeout, pack(K_PULL, shard, fresh));
        self.pull_tickets.insert(fresh, key);
        if let Some(miss) = self.missing.get_mut(&key) {
            miss.timer = timer;
            miss.ticket = fresh;
        }
        ctx.send(peer, IdeaMsg::GossipPull { object, id });
    }

    /// A peer found our eager push redundant ([`IdeaMsg::GossipPrune`]):
    /// demote our link to it. Its next genuine miss grafts the link back.
    pub fn on_prune(&mut self, core: &mut NodeCore, from: NodeId, object: ObjectId) {
        if let Some(shared) = core.objs.get_mut(object) {
            shared.gossip.demote(from);
        }
    }

    /// The digest flush window closed: advertisements that found no detect
    /// traffic to ride go out in dedicated [`IdeaMsg::GossipDigest`]s.
    pub fn on_flush_timer(
        &mut self,
        core: &mut NodeCore,
        object: ObjectId,
        ctx: &mut dyn Context<IdeaMsg>,
    ) {
        let Some(shared) = core.objs.get_mut(object) else {
            return;
        };
        shared.lazy.flush_armed = false;
        for (peer, ids) in shared.lazy.drain_outbox() {
            ctx.send(peer, IdeaMsg::GossipDigest { object, ids });
        }
    }

    /// A bottom node reported divergence against one of our sweeps.
    pub fn on_sweep_divergence(
        &mut self,
        core: &mut NodeCore,
        from: NodeId,
        object: ObjectId,
        sweep: u64,
        delta: VvDelta,
    ) {
        let Ok(replica) = core.store.replica(object) else {
            return;
        };
        let mine = replica.version();
        let Some(st) = self.states.get_mut(&object) else {
            return;
        };
        if let Some(collector) = st.collectors.get_mut(&sweep) {
            // Rebuild the diverging replica's vector over our own history
            // (the delta is relative to the counters our rumor carried).
            let theirs = mine.reconstruct(&delta);
            let triple = mine.triple_against(&theirs);
            collector.on_divergence(from, triple);
        }
    }

    /// A sweep deadline fired: settle the collector's verdict. A confirmed
    /// discrepancy counts a rollback, corrects the level, pulls the hidden
    /// updates in, and (configurably) demands a resolution. Returns the
    /// affected object and the adaptive layer's verdict.
    pub fn on_sweep_deadline(
        &mut self,
        core: &mut NodeCore,
        ticket: u64,
        ctx: &mut dyn Context<IdeaMsg>,
    ) -> Option<(ObjectId, Trigger)> {
        let (object, seq) = self.sweep_tickets.remove(&ticket)?;
        let st = self.states.get_mut(&object)?;
        let collector = st.collectors.remove(&seq)?;
        let quant = core.quant;
        let report = collector.finish(|t| quant.level(t));
        let trigger = match report {
            BottomReport::Confirmed { .. } => Trigger::None,
            BottomReport::Discrepancy { bottom_level, worst_node, .. } => {
                core.note_rollback();
                let shared = core.obj_mut(object);
                shared.level = shared.level.min(bottom_level);
                let have = core.store.replica(object).expect("opened").version().counters().clone();
                ctx.send(worst_node, IdeaMsg::FetchRequest { object, have });
                if core.cfg.rollback_resolve {
                    Trigger::Resolve
                } else {
                    Trigger::None
                }
            }
        };
        Some((object, trigger))
    }
}
