//! The detection subsystem: top-layer temperature rounds (§4.3/§4.4.1) and
//! the TTL-bounded bottom-layer gossip sweeps that double-check them
//! (§4.4.2), both driving the quantified consistency level.
//!
//! This module is the paper's inconsistency detection framework, the
//! `detect(update)` of §4.3, together with the messages that drive it. It
//! owns the round and sweep types: [`DetectRound`], the in-flight round per
//! object, which settles to the initiator's error triple against the
//! round's reference state, and [`Sweep`], a sweep's collection window,
//! which settles to a discrepancy or to nothing. It also owns the timer-id
//! routing for both. Every handler reports a [`Trigger`] so the composing
//! node can forward adaptive-layer decisions (resolve now) to the
//! resolution subsystem without this module knowing it exists.
//!
//! ## Hot-path economics
//!
//! Probes carry a compact [`VvSummary`] and answers a [`VvDelta`]
//! (suffixes beyond the probe's counters), so detection traffic scales with
//! divergence, not history. The initiator reads one number out of a round,
//! its own triple against the reference, so it rebuilds only the
//! reference's full vector (from the delta plus the round's baseline
//! snapshot); a lower-id reply is counted and dropped. Every trigger
//! starts a round at once (the paper's per-trigger probing), at most one in
//! flight per object.

use super::{pack, NodeCore, Trigger, K_DETECT, K_PULL, K_SWEEP};
use crate::adapt::AdaptAction;
use crate::messages::{DigestGroup, IdeaMsg};
use idea_net::{Context, TimerId};
use idea_overlay::gossip::{Peers, Receipt, RumorId};
use idea_types::{ConsistencyLevel, ErrorTriple, FastMap, NodeId, ObjectId, SimDuration};
use idea_vv::{ExtendedVersionVector, VersionVector, VvDelta, VvSummary};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Deadline of a detection round: it completes with whoever answered by
/// then (covers a WAN round-trip plus slack).
const DETECT_DEADLINE: SimDuration = SimDuration::from_millis(400);

/// "Sufficiently close" tolerance between top- and bottom-layer levels
/// (the paper's example: 78 % against 80 % stays silent, §4.4.2).
const SWEEP_EPSILON: f64 = 0.03;

/// How long a node waits for a pulled rumor body before retrying against a
/// backup advertiser; comfortably above one WAN round-trip.
const GOSSIP_PULL_TIMEOUT: SimDuration = SimDuration::from_millis(500);

/// An in-flight top-layer round at its initiator.
///
/// The *reference consistent state* is, per §4.4.1, "the replica with
/// higher ID value": among the initiator and its repliers, the one held by
/// the largest [`NodeId`] wins. A round keeps only what its one reader
/// needs: who has answered, and the vector of the highest-id replier above
/// the initiator so far.
struct DetectRound {
    me: NodeId,
    /// Correlation id carried by request/reply messages.
    round_id: u64,
    /// The initiator's vector as probed: peers answer with suffix deltas
    /// relative to its counters, so this snapshot is what reconstructs
    /// their full vectors (the replica may advance mid-round).
    baseline: ExtendedVersionVector,
    expected: Vec<NodeId>,
    answered: Vec<NodeId>,
    /// The highest-id replier above `me` so far, with its full vector.
    reference: Option<(NodeId, ExtendedVersionVector)>,
}

impl DetectRound {
    fn start(me: NodeId, round_id: u64, peers: &[NodeId], baseline: ExtendedVersionVector) -> Self {
        let answered = Vec::with_capacity(peers.len());
        DetectRound { me, round_id, baseline, expected: peers.to_vec(), answered, reference: None }
    }

    /// Records a reply. A duplicate or a stranger's reply is ignored; only
    /// a new reference is rebuilt from its delta. Returns `true` when every
    /// expected peer has answered.
    fn on_reply(&mut self, from: NodeId, delta: &VvDelta) -> bool {
        if self.expected.contains(&from) && !self.answered.contains(&from) {
            self.answered.push(from);
            if from > self.reference.as_ref().map_or(self.me, |(n, _)| *n) {
                self.reference = Some((from, self.baseline.reconstruct(delta)));
            }
        }
        self.answered.len() == self.expected.len()
    }

    /// Settles the round (all replies in, or the deadline passed): the
    /// initiator's vector `mine` against the reference, which is `mine`
    /// itself when no higher id answered.
    fn complete(self, mine: &ExtendedVersionVector) -> ErrorTriple {
        let reference = self.reference.as_ref().map_or(mine, |(_, evv)| evv);
        mine.triple_against(reference)
    }
}

/// One bottom-layer sweep's collection window at its initiator.
///
/// After the top layer answers, IDEA "continues to detect inconsistency in
/// the bottom layer and returns a new value. If the new value is
/// sufficiently close to the previous one obtained from the top layer, IDEA
/// keeps silent; otherwise, IDEA alerts the user about the discrepancy"
/// (§4.4.2).
struct Sweep {
    /// The top-layer level the sweep double-checks.
    top_level: ConsistencyLevel,
    /// Divergent replicas reported so far, each with its triple against the
    /// initiator's replica (the full vector is never retained).
    replies: Vec<(NodeId, ErrorTriple)>,
}

impl Sweep {
    /// The verdict: `None` when the bottom layer agrees with the top within
    /// [`SWEEP_EPSILON`], else the corrected level (the worst reply's, never
    /// above the top-layer level) and the first node at that level.
    /// `quantify` is Formula 1 under the node's current weights.
    fn discrepancy(
        self,
        quantify: impl Fn(&ErrorTriple) -> ConsistencyLevel,
    ) -> Option<(ConsistencyLevel, NodeId)> {
        let mut bottom_level = self.top_level;
        let mut worst: Option<(NodeId, ConsistencyLevel)> = None;
        for (node, triple) in &self.replies {
            let level = quantify(triple);
            bottom_level = bottom_level.min(level);
            if worst.is_none_or(|(_, l)| level < l) {
                worst = Some((*node, level));
            }
        }
        let (worst_node, _) = worst?;
        if (self.top_level.value() - bottom_level.value()).abs() <= SWEEP_EPSILON {
            None
        } else {
            Some((bottom_level, worst_node))
        }
    }
}

/// Per-object detection state.
#[derive(Default)]
struct DetectState {
    /// The one in-flight round this node may have as initiator.
    round: Option<DetectRound>,
    /// Deadline timer of the in-flight round.
    timer: Option<TimerId>,
    /// Completed rounds (drives the sweep cadence).
    completed: u64,
    /// Open sweeps keyed by rumor sequence.
    sweeps: FastMap<u64, Sweep>,
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
}

/// Drains the probed object's pending IHAVEs bound for `peer` into a
/// digest group for piggybacking on a detect frame (none when its outbox
/// for that peer is empty).
fn batched_digests(core: &mut NodeCore, primary: ObjectId, peer: NodeId) -> Vec<DigestGroup> {
    let ids = core.outbox.take(primary, peer);
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

    /// Starts a detection round towards the top-layer peers (one in flight
    /// per object; a no-op for unknown objects or an empty top layer).
    pub(crate) fn request_round(
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
        st.round = Some(DetectRound::start(core.me, rid, &peers, evv));
        st.timer = Some(ctx.set_timer(DETECT_DEADLINE, pack(K_DETECT, core.shard, rid)));
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
    pub(crate) fn on_request(
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
    pub(crate) fn on_reply(
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
            Some(r) if r.round_id == round => r.on_reply(from, &delta),
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
    pub(crate) fn on_deadline(
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
        st.completed += 1;
        let rounds = st.completed;
        let level = core.quant.level(&round.complete(&mine));
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
    pub(crate) fn pending_pulls(&self, object: ObjectId) -> usize {
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
        // Field-disjoint borrows: the config stays shared while the object
        // state is mutated.
        let cfg = &core.cfg;
        let shared = core.objs.get_mut(object).expect("object state");
        let level = shared.level;
        let (id, _ttl, plan) = shared.gossip.originate(&cfg.gossip, peers, ctx.rng());
        let seq = u64::from(id.seq);
        self.state(object).sweeps.insert(seq, Sweep { top_level: level, replies: Vec::new() });
        shared.lazy.dispatch_rumor(&mut core.outbox, cfg, object, id, plan, &counters, ctx);
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
    pub(crate) fn on_sweep_rumor(
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
        // The body closes any pending pull for it, however it got here.
        // Most receipts find no pull pending at all: skip the hash then.
        let pulled = !self.missing.is_empty() && {
            let miss = self.missing.remove(&(object, id));
            if let Some(miss) = &miss {
                ctx.cancel_timer(miss.timer);
                self.pull_tickets.remove(&miss.ticket);
            }
            miss.is_some()
        };
        if let Receipt::Relay(plan) = receipt {
            shared.lazy.dispatch_rumor(&mut core.outbox, cfg, object, id, plan, &counters, ctx);
        }
        if pulled {
            // The deliverer's link just proved load-bearing. It is not in
            // the plan (the arrival link never is), so grafting it after
            // the plan went out changes nothing the plan sent.
            shared.gossip.graft(from);
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
    pub(crate) fn on_digests(
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
            let timer = ctx.set_timer(GOSSIP_PULL_TIMEOUT, pack(K_PULL, shard, ticket));
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
    pub(crate) fn on_pull(
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
    pub(crate) fn on_pull_timer(
        &mut self,
        core: &mut NodeCore,
        ticket: u64,
        ctx: &mut dyn Context<IdeaMsg>,
    ) {
        let Some((object, id)) = self.pull_tickets.remove(&ticket) else {
            return;
        };
        let shard = core.shard;
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
        let timer = ctx.set_timer(GOSSIP_PULL_TIMEOUT, pack(K_PULL, shard, fresh));
        self.pull_tickets.insert(fresh, key);
        if let Some(miss) = self.missing.get_mut(&key) {
            miss.timer = timer;
            miss.ticket = fresh;
        }
        ctx.send(peer, IdeaMsg::GossipPull { object, id });
    }

    /// A peer found our eager push redundant ([`IdeaMsg::GossipPrune`]):
    /// demote our link to it. Its next genuine miss grafts the link back.
    pub(crate) fn on_prune(&mut self, core: &mut NodeCore, from: NodeId, object: ObjectId) {
        if let Some(shared) = core.objs.get_mut(object) {
            shared.gossip.demote(from);
        }
    }

    /// The digest flush window closed: advertisements that found no detect
    /// traffic to ride go out in dedicated [`IdeaMsg::GossipDigest`]s.
    pub(crate) fn on_flush_timer(
        &mut self,
        core: &mut NodeCore,
        object: ObjectId,
        ctx: &mut dyn Context<IdeaMsg>,
    ) {
        let Some(shared) = core.objs.get_mut(object) else {
            return;
        };
        shared.lazy.flush_armed = false;
        for (peer, ids) in core.outbox.drain(object) {
            ctx.send(peer, IdeaMsg::GossipDigest { object, ids });
        }
    }

    /// A bottom node reported divergence against one of our sweeps.
    pub(crate) fn on_sweep_divergence(
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
        if let Some(open) = st.sweeps.get_mut(&sweep) {
            // Rebuild the diverging replica's vector over our own history
            // (the delta is relative to the counters our rumor carried).
            let theirs = mine.reconstruct(&delta);
            open.replies.push((from, mine.triple_against(&theirs)));
        }
    }

    /// A sweep deadline fired: settle the sweep's verdict. A confirmed
    /// discrepancy counts a rollback, corrects the level, pulls the hidden
    /// updates in, and (configurably) demands a resolution. Returns the
    /// affected object and the adaptive layer's verdict.
    pub(crate) fn on_sweep_deadline(
        &mut self,
        core: &mut NodeCore,
        ticket: u64,
        ctx: &mut dyn Context<IdeaMsg>,
    ) -> Option<(ObjectId, Trigger)> {
        let (object, seq) = self.sweep_tickets.remove(&ticket)?;
        let st = self.states.get_mut(&object)?;
        let open = st.sweeps.remove(&seq)?;
        let quant = core.quant;
        let trigger = match open.discrepancy(|t| quant.level(t)) {
            None => Trigger::None,
            Some((bottom_level, worst_node)) => {
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

#[cfg(test)]
mod tests {
    use super::super::round_reference;
    use super::*;
    use idea_types::{SimTime, WriterId};
    use proptest::prelude::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn evv(updates: &[(u32, u64, u64, i64)]) -> ExtendedVersionVector {
        let mut v = ExtendedVersionVector::new();
        for &(w, seq, at, delta) in updates {
            v.record(WriterId(w), seq, t(at), delta);
        }
        v
    }

    /// Answers `round`'s probe the way a peer holding `theirs` does.
    fn reply(round: &mut DetectRound, from: NodeId, theirs: &ExtendedVersionVector) -> bool {
        let delta = theirs.suffix_since(round.baseline.counters());
        round.on_reply(from, &delta)
    }

    #[test]
    fn round_tracks_outstanding_replies() {
        let peers = [NodeId(1), NodeId(2), NodeId(3)];
        let mut round = DetectRound::start(NodeId(0), 7, &peers, evv(&[]));
        assert!(!reply(&mut round, NodeId(1), &evv(&[])));
        assert!(!reply(&mut round, NodeId(1), &evv(&[]))); // duplicate ignored
        assert!(!reply(&mut round, NodeId(9), &evv(&[]))); // stranger ignored
        assert_eq!(round.answered, vec![NodeId(1)]);
        assert!(!reply(&mut round, NodeId(2), &evv(&[])));
        assert!(reply(&mut round, NodeId(3), &evv(&[])));
    }

    #[test]
    fn highest_id_is_the_reference() {
        let mine = evv(&[(0, 1, 1, 1)]);
        let five = evv(&[(1, 1, 2, 4)]);
        let mut round = DetectRound::start(NodeId(0), 1, &[NodeId(5), NodeId(2)], mine.clone());
        reply(&mut round, NodeId(5), &five);
        reply(&mut round, NodeId(2), &mine);
        // Node 5 is the reference, not the later, lower replier.
        assert_eq!(round.reference.as_ref().map(|(n, _)| *n), Some(NodeId(5)));
        let triple = round.complete(&mine);
        assert!(!triple.is_zero());
        assert_eq!(triple, mine.triple_against(&five));

        // An initiator above every replier is its own reference.
        let mut round = DetectRound::start(NodeId(9), 2, &[NodeId(5)], mine.clone());
        reply(&mut round, NodeId(5), &five);
        assert!(round.reference.is_none(), "a lower replier is counted, not rebuilt");
        assert!(round.complete(&mine).is_zero());
    }

    #[test]
    fn consistent_round_settles_to_zero() {
        let shared = evv(&[(0, 1, 1, 2), (1, 1, 2, 3)]);
        let mut round = DetectRound::start(NodeId(3), 1, &[NodeId(1), NodeId(4)], shared.clone());
        reply(&mut round, NodeId(1), &shared);
        assert!(reply(&mut round, NodeId(4), &shared));
        assert!(round.complete(&shared).is_zero());
    }

    #[test]
    fn duplicate_replies_never_complete_a_round_early() {
        let peers = [NodeId(1), NodeId(2), NodeId(3)];
        let mine = evv(&[(0, 1, 1, 1)]);
        let mut round = DetectRound::start(NodeId(0), 1, &peers, mine.clone());
        // One peer answering three times is still one reply, and its first
        // answer is the one kept.
        assert!(!reply(&mut round, NodeId(3), &mine));
        assert!(!reply(&mut round, NodeId(3), &mine));
        assert!(!reply(&mut round, NodeId(3), &evv(&[(1, 1, 2, 9)])));
        assert_eq!(round.answered, vec![NodeId(3)]);
        assert!(!reply(&mut round, NodeId(2), &evv(&[])));
        assert!(reply(&mut round, NodeId(1), &evv(&[])));
        assert_eq!(round.answered.len(), 3, "a duplicate counted twice");
        assert!(round.complete(&mine).is_zero(), "a duplicate replaced the first answer");
    }

    #[test]
    fn partial_round_still_settles() {
        // Deadline expiry with only one of two replies: the round still
        // settles, against the one replier that is behind the initiator.
        let mine = evv(&[(0, 1, 1, 1), (0, 2, 3, 2)]);
        let one = evv(&[(0, 1, 1, 1)]);
        let mut round = DetectRound::start(NodeId(0), 1, &[NodeId(1), NodeId(2)], mine.clone());
        assert!(!reply(&mut round, NodeId(1), &one));
        let triple = round.complete(&mine);
        assert!(!triple.is_zero());
        assert_eq!(triple, mine.triple_against(&one));
    }

    #[test]
    fn missing_replies_leave_participants_out_of_the_round() {
        // Deadline with one of three peers silent: the round settles over
        // the initiator and the two repliers, and the highest replier (3)
        // is the reference although the silent peer (2) is not.
        let mine = evv(&[(0, 1, 1, 1), (0, 2, 3, 2)]);
        let three = evv(&[(0, 1, 1, 1)]);
        let mut round =
            DetectRound::start(NodeId(0), 4, &[NodeId(1), NodeId(2), NodeId(3)], mine.clone());
        assert!(!reply(&mut round, NodeId(1), &mine));
        assert!(!reply(&mut round, NodeId(3), &three));
        assert_eq!(round.answered, vec![NodeId(1), NodeId(3)]);
        assert_eq!(round.reference.as_ref().map(|(n, _)| *n), Some(NodeId(3)));
        let triple = round.complete(&mine);
        assert_eq!(triple, mine.triple_against(&three));
        assert_eq!(triple.order, 1.0);
    }

    #[test]
    fn zero_reply_deadline_reports_initiator_alone() {
        // Everyone timed out: the initiator's own replica is the reference,
        // so no inconsistency is observable.
        let mine = evv(&[(0, 1, 1, 5)]);
        let round = DetectRound::start(NodeId(7), 9, &[NodeId(8), NodeId(9)], mine.clone());
        assert!(round.complete(&mine).is_zero());
    }

    #[test]
    fn figure4_numbers_flow_through_the_round() {
        // Reference replica b at node 1 (higher id), replica a at node 0:
        // the Figure 4 walk-through end to end, b answering with a delta.
        let mut a = ExtendedVersionVector::new();
        let mut b = ExtendedVersionVector::new();
        a.record(WriterId(1), 1, t(1), 2);
        b.record(WriterId(1), 1, t(1), 2);
        a.record(WriterId(0), 1, t(2), 1);
        a.record(WriterId(0), 2, t(2), 2);
        b.record(WriterId(1), 2, t(3), 6);

        let mut round = DetectRound::start(NodeId(0), 1, &[NodeId(1)], a.clone());
        assert!(reply(&mut round, NodeId(1), &b));
        let ta = round.complete(&a);
        assert_eq!(ta.numerical, 3.0);
        assert_eq!(ta.order, 3.0);
        assert_eq!(ta.staleness, SimDuration::from_secs(2));
    }

    fn lvl(v: f64) -> ConsistencyLevel {
        ConsistencyLevel::new(v)
    }

    /// A toy quantifier: each unit of order error costs 10 %.
    fn quantify(t: &ErrorTriple) -> ConsistencyLevel {
        ConsistencyLevel::new(1.0 - t.order * 0.1)
    }

    fn sweep(top: f64, orders: &[(u32, f64)]) -> Sweep {
        let replies = orders
            .iter()
            .map(|&(n, order)| (NodeId(n), ErrorTriple::new(order, order, SimDuration::ZERO)))
            .collect();
        Sweep { top_level: lvl(top), replies }
    }

    #[test]
    fn silent_sweep_confirms_top_value() {
        assert_eq!(sweep(0.8, &[]).discrepancy(quantify), None);
    }

    #[test]
    fn close_values_stay_confirmed() {
        // Paper example: 78 % from the bottom vs 80 % from the top — close
        // enough, the top result "remains intact".
        assert_eq!(sweep(0.80, &[(9, 2.2)]).discrepancy(quantify), None);
        // Just past the window it is a discrepancy.
        assert!(sweep(0.80, &[(9, 2.5)]).discrepancy(quantify).is_some());
    }

    #[test]
    fn large_gap_is_a_discrepancy() {
        let (bottom_level, worst_node) =
            sweep(0.95, &[(4, 5.0)]).discrepancy(quantify).expect("discrepancy");
        assert_eq!(worst_node, NodeId(4));
        assert!((bottom_level.value() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn worst_reply_wins() {
        let replies = [(1, 1.0), (2, 4.0), (3, 2.0), (5, 4.0)];
        let (bottom_level, worst_node) =
            sweep(0.95, &replies).discrepancy(quantify).expect("discrepancy");
        // The first of the two worst replies is named.
        assert_eq!(worst_node, NodeId(2));
        assert!((bottom_level.value() - 0.6).abs() < 1e-9);
    }

    #[test]
    fn bottom_level_never_exceeds_top() {
        // A divergence reply that quantifies *better* than the top value
        // must not raise the reported level: alone it confirms the top, and
        // beside a worse reply the corrected level is that reply's.
        assert_eq!(sweep(0.5, &[(1, 0.0)]).discrepancy(quantify), None);
        let (bottom_level, worst_node) =
            sweep(0.5, &[(1, 0.0), (2, 9.0)]).discrepancy(quantify).expect("discrepancy");
        assert_eq!(worst_node, NodeId(2));
        assert!((bottom_level.value() - 0.1).abs() < 1e-9);
    }

    /// Per writer (0..3), a run of `(time step, meta delta)` updates.
    type Spec = Vec<Vec<(u64, i64)>>;

    fn spec() -> impl Strategy<Value = Spec> {
        proptest::collection::vec(proptest::collection::vec((0u64..4, -3i64..4), 0..4), 3..4)
    }

    /// `base`'s first `keep[w]` updates of each writer, then `extra`'s.
    fn build(base: &Spec, keep: &[usize], extra: &Spec) -> ExtendedVersionVector {
        let mut v = ExtendedVersionVector::new();
        for (w, (ups, more)) in base.iter().zip(extra).enumerate() {
            let mut at = 0;
            let kept = ups.iter().take(keep.get(w).copied().unwrap_or(usize::MAX));
            for (seq, &(step, delta)) in kept.chain(more).enumerate() {
                at += step;
                v.record(WriterId(w as u32), seq as u64 + 1, t(at), delta);
            }
        }
        v
    }

    proptest! {
        /// The folded round settles to the same triple the pre-change
        /// report gave the initiator, over random vectors, node ids, reply
        /// subsets, strangers and duplicate replies carrying other vectors.
        /// The reference is fed each reply rebuilt from its delta, as the
        /// plane fed it before the fold.
        #[test]
        fn folded_round_matches_the_report_reference(
            me in 0u32..8,
            peer_mask in 0u32..256,
            base in spec(),
            mine_extra in spec(),
            replies in proptest::collection::vec(
                (0u32..8, proptest::collection::vec(0usize..5, 3..4), spec()),
                0..12,
            ),
        ) {
            let me = NodeId(me);
            let peers: Vec<NodeId> =
                (0..8).filter(|i| peer_mask & (1 << i) != 0).map(NodeId).filter(|&p| p != me).collect();
            let baseline = build(&base, &[], &vec![Vec::new(); 3]);
            let mine = build(&base, &[], &mine_extra);
            let mut folded = DetectRound::start(me, 1, &peers, baseline.clone());
            let mut reference = round_reference::DetectRound::start(me, &peers);
            for (from, keep, extra) in &replies {
                let theirs = build(&base, keep, extra);
                let delta = theirs.suffix_since(baseline.counters());
                let done = folded.on_reply(NodeId(*from), &delta);
                prop_assert_eq!(done, reference.on_reply(NodeId(*from), baseline.reconstruct(&delta)));
            }
            let expected = reference.complete(&mine).triple_of(me).expect("initiator line");
            prop_assert_eq!(folded.complete(&mine), expected);
        }
    }
}
