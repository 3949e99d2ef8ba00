//! The resolution driver: active two-phase resolution (call-for-attention,
//! then collect-and-inform, §4.5.2) and background periodic resolution.
//!
//! The seam with [`crate::resolution`]: that module is pure policy and the
//! wire-visible types (reference choice, the reference wire, the records),
//! tested without a [`Context`]; this one is the message-driven driver
//! that sends, times and applies them. It owns the per-object resolution
//! state machine, the attention leases members grant to initiators, the
//! completed-round log, and the steps both resolution kinds share: the
//! phase-2 fan-out, adopting the chosen reference, and the contention
//! back-off. Talks to the rest of the node only through [`NodeCore`]
//! (store, overlay view, level, hint controller) — swapping this driver
//! for another strategy leaves the write path and detection untouched.

use super::{pack, NodeCore, K_BACKGROUND, K_BACKOFF};
use crate::adapt::AdaptAction;
use crate::messages::IdeaMsg;
use crate::resolution::{
    choose_reference, ReferenceState, ReferenceWire, ResolutionKind, ResolutionRecord,
};
use idea_net::Context;
use idea_types::{ConsistencyLevel, NodeId, ObjectId, SimDuration, SimTime};
use idea_vv::VersionVector;
use rand::Rng;
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

/// Per-message dispatch cost charged to the initiator when fanning out
/// call-for-attention and inform messages. Models the paper's measured
/// 0.468 ms phase-1 cost (≈0.156 ms per member at top-layer size 4).
const DISPATCH_COST: SimDuration = SimDuration::from_micros(156);

/// How long a granted call-for-attention lock is honoured before it is
/// considered stale (the initiator crashed mid-resolution).
const ATTENTION_LEASE: SimDuration = SimDuration::from_secs(5);

/// Lower edge of the contended-resolution back-off window (§4.5.2).
const BACKOFF_MIN: SimDuration = SimDuration::from_millis(50);
/// Upper edge of the back-off window.
const BACKOFF_MAX: SimDuration = SimDuration::from_millis(400);
// The window is half-open, so it must not be empty (nor inverted).
const _: () = assert!(BACKOFF_MIN.as_micros() < BACKOFF_MAX.as_micros(), "empty back-off window");

/// The initiator's own vector snapshot taken at phase-2 entry: the
/// `summary`, built once, is shared by every collect request of the round,
/// and the full `baseline` losslessly reconstructs each member's
/// [`idea_vv::VvDelta`] answer however the replica moves meanwhile.
#[derive(Debug, Clone)]
pub(super) struct CollectProbe {
    pub(crate) summary: Arc<idea_vv::VvSummary>,
    pub(crate) baseline: idea_vv::ExtendedVersionVector,
}

/// Resolution state machine of one object at one node.
#[derive(Debug, Default)]
enum ResState {
    #[default]
    Idle,
    /// Waiting for call-for-attention acknowledgements (§4.5.2 phase 1).
    Phase1 { rid: u64, awaiting: Vec<NodeId>, started: SimTime, dispatch: SimDuration },
    /// Collecting version vectors (phase 2), then informing.
    Phase2 {
        rid: u64,
        kind: ResolutionKind,
        members: Vec<NodeId>,
        collected: Vec<(NodeId, idea_vv::ExtendedVersionVector)>,
        next: usize,
        started: SimTime,
        phase2_started: SimTime,
        phase1_dispatch: SimDuration,
        phase1_acked: SimDuration,
        probe: Box<CollectProbe>,
    },
    /// Lost the call-for-attention race; retrying after a random delay.
    BackOff,
}

/// Bound on the per-object collect-answer snapshots a member retains (the
/// reference a delta-encoded `Inform` resolves against). A member is in at
/// most one round per initiator at a time, so in practice one or two live
/// entries exist; the bound only guards against initiators that die
/// mid-round and never inform.
const ACKED_SNAPSHOT_CAP: usize = 32;

/// Per-object resolution-side state.
#[derive(Debug, Default)]
struct ResObj {
    state: ResState,
    /// Attention granted to `(initiator, rid, at)` — the phase-1 lock.
    attention: Option<(NodeId, u64, SimTime)>,
    /// Counter snapshots of this node's own collect answers, keyed by
    /// `(initiator, rid)`; FIFO-bounded by [`ACKED_SNAPSHOT_CAP`].
    acked: VecDeque<((NodeId, u64), VersionVector)>,
}

impl ResObj {
    fn remember_ack(&mut self, from: NodeId, rid: u64, counts: VersionVector) {
        self.acked.retain(|(key, _)| *key != (from, rid));
        if self.acked.len() >= ACKED_SNAPSHOT_CAP {
            self.acked.pop_front();
        }
        self.acked.push_back(((from, rid), counts));
    }

    fn take_ack(&mut self, from: NodeId, rid: u64) -> Option<VersionVector> {
        let idx = self.acked.iter().position(|(key, _)| *key == (from, rid))?;
        self.acked.remove(idx).map(|(_, counts)| counts)
    }
}

/// The resolution subsystem.
#[derive(Default)]
pub(crate) struct ResolutionDriver {
    states: BTreeMap<ObjectId, ResObj>,
    /// Completed resolution records (Table 2 / Figure 9 raw data).
    log: Vec<ResolutionRecord>,
    /// Resolution rounds this node initiated to completion.
    completed: u64,
}

/// Snapshots the initiator's replica for a collect round. The wire
/// summary carries a zero-length timestamp tail: members only diff against
/// its counters (`suffix_since`), and the initiator reconstructs replies
/// against the full `baseline` it kept locally — shipping a tail would be
/// pure overhead on every collect request.
fn make_probe(core: &mut NodeCore, object: ObjectId) -> Box<CollectProbe> {
    let baseline = core.open(object).version().clone();
    Box::new(CollectProbe { summary: Arc::new(baseline.summary(0)), baseline })
}

impl ResolutionDriver {
    fn state(&mut self, object: ObjectId) -> &mut ResObj {
        self.states.entry(object).or_default()
    }

    /// Completed resolution records.
    pub(crate) fn log(&self) -> &[ResolutionRecord] {
        &self.log
    }

    /// Resolution rounds this node initiated to completion.
    pub(crate) fn completed(&self) -> u64 {
        self.completed
    }

    /// True while a resolution round involves this node as initiator (or it
    /// is backing off from one).
    pub(crate) fn is_resolving(&self, object: ObjectId) -> bool {
        self.states.get(&object).is_some_and(|s| !matches!(s.state, ResState::Idle))
    }

    /// Starts an active two-phase resolution (phase 1: call for attention).
    pub(crate) fn start_active(
        &mut self,
        core: &mut NodeCore,
        object: ObjectId,
        ctx: &mut dyn Context<IdeaMsg>,
    ) {
        if !matches!(self.state(object).state, ResState::Idle) {
            return; // already resolving or backing off
        }
        let members = core.top_peers(object);
        if members.is_empty() {
            return;
        }
        let rid = core.fresh_id();
        let dispatch = DISPATCH_COST.saturating_mul(members.len() as u64);
        for &m in &members {
            ctx.send(m, IdeaMsg::CallForAttention { rid, object });
        }
        let started = ctx.now();
        self.state(object).state = ResState::Phase1 { rid, awaiting: members, started, dispatch };
    }

    /// Member side of phase 1: grant or refuse attention. Contending
    /// initiators tie-break by id — the larger id proceeds, the smaller
    /// backs off (a deterministic rendering of §4.5.2's "back-off and retry
    /// after a random amount of time").
    pub(crate) fn on_call_for_attention(
        &mut self,
        core: &mut NodeCore,
        from: NodeId,
        rid: u64,
        object: ObjectId,
        ctx: &mut dyn Context<IdeaMsg>,
    ) {
        core.open(object);
        let now = ctx.now();
        let me = core.me;
        let st = self.state(object);

        let i_am_initiating = matches!(st.state, ResState::Phase1 { .. });
        if i_am_initiating && from < me {
            ctx.send(from, IdeaMsg::Attention { rid, object, granted: false });
            return;
        }
        if i_am_initiating && from > me {
            // Yield: abandon my round and retry later.
            st.state = ResState::BackOff;
            let delay = backoff_delay(ctx);
            ctx.set_timer(delay, pack(K_BACKOFF, core.shard, object.0));
            let st = self.state(object);
            st.attention = Some((from, rid, now));
            ctx.send(from, IdeaMsg::Attention { rid, object, granted: true });
            return;
        }

        // Plain member: grant when the lease is free, expired, already held
        // by this caller, or held by a *lower-id* initiator — the same
        // higher-id-wins tie-break as above, so one contender always
        // assembles a full grant set and the race cannot livelock.
        let grant = match st.attention {
            Some((holder, _, at)) => {
                holder == from || now.saturating_since(at) >= ATTENTION_LEASE || from > holder
            }
            None => true,
        };
        if grant {
            st.attention = Some((from, rid, now));
            ctx.send(from, IdeaMsg::Attention { rid, object, granted: true });
        } else {
            ctx.send(from, IdeaMsg::Attention { rid, object, granted: false });
        }
    }

    /// Initiator side of phase 1: collect acknowledgements; a refusal sends
    /// us into back-off, the final grant moves us to phase 2.
    pub(crate) fn on_attention(
        &mut self,
        core: &mut NodeCore,
        from: NodeId,
        rid: u64,
        object: ObjectId,
        granted: bool,
        ctx: &mut dyn Context<IdeaMsg>,
    ) {
        let Some(st) = self.states.get_mut(&object) else {
            return;
        };
        let ResState::Phase1 { rid: my_rid, awaiting, started, dispatch } = &mut st.state else {
            return;
        };
        if *my_rid != rid {
            return;
        }
        if !granted {
            // Contention: back off and retry (§4.5.2).
            st.state = ResState::BackOff;
            let delay = backoff_delay(ctx);
            ctx.set_timer(delay, pack(K_BACKOFF, core.shard, object.0));
            return;
        }
        awaiting.retain(|&n| n != from);
        if awaiting.is_empty() {
            // Phase 1 complete: move to phase 2.
            let (started, dispatch) = (*started, *dispatch);
            let now = ctx.now();
            let members = core.top_peers(object);
            let probe = make_probe(core, object);
            send_collects(core, object, rid, &members, 0, &probe.summary, ctx);
            let st = self.state(object);
            st.state = ResState::Phase2 {
                rid,
                kind: ResolutionKind::Active,
                members,
                collected: Vec::new(),
                next: 0,
                started,
                phase2_started: now,
                phase1_dispatch: dispatch,
                phase1_acked: now.saturating_since(started),
                probe,
            };
        }
    }

    /// Background resolution timer fired: the lowest-id top-layer member
    /// initiates a collect round directly (no phase 1, §4.5.2).
    pub(crate) fn on_background_timer(
        &mut self,
        core: &mut NodeCore,
        object: ObjectId,
        ctx: &mut dyn Context<IdeaMsg>,
    ) {
        let Some(period) = core.cfg.background_period else {
            return;
        };
        ctx.set_timer(period, pack(K_BACKGROUND, core.shard, object.0));
        let Some(shared) = core.objs.get(object) else {
            return;
        };
        let initiator = shared.layer.top_members(&core.cfg.top_layer).next();
        if initiator != Some(core.me) || !matches!(self.state(object).state, ResState::Idle) {
            return;
        }
        let peers = core.top_peers(object);
        if peers.is_empty() {
            return;
        }
        let rid = core.fresh_id();
        let now = ctx.now();
        let probe = make_probe(core, object);
        send_collects(core, object, rid, &peers, 0, &probe.summary, ctx);
        self.state(object).state = ResState::Phase2 {
            rid,
            kind: ResolutionKind::Background,
            members: peers,
            collected: Vec::new(),
            next: 0,
            started: now,
            phase2_started: now,
            phase1_dispatch: SimDuration::ZERO,
            phase1_acked: SimDuration::ZERO,
            probe,
        };
    }

    /// Member side of phase 2: report our vector as suffixes beyond the
    /// request's probe. The counters we answered with are snapshotted so a
    /// delta-encoded `Inform` of the same round can resolve against them.
    /// The probe is deliberately *not* folded into our own known counts:
    /// observing it would perturb detection state.
    pub(crate) fn on_collect_request(
        &mut self,
        core: &mut NodeCore,
        from: NodeId,
        rid: u64,
        object: ObjectId,
        probe: Arc<idea_vv::VvSummary>,
        ctx: &mut dyn Context<IdeaMsg>,
    ) {
        let evv = core.open(object).version();
        self.state(object).remember_ack(from, rid, evv.counters().clone());
        let delta = evv.suffix_since(&probe.counters);
        ctx.send(from, IdeaMsg::CollectDelta { rid, object, delta });
    }

    /// Initiator side of phase 2: reconstruct the member's full vector
    /// against the round's probe baseline, gather it (members asked one at
    /// a time or all at once per the config), then pick and publish the
    /// reference.
    pub(crate) fn on_collect_delta(
        &mut self,
        core: &mut NodeCore,
        from: NodeId,
        rid: u64,
        object: ObjectId,
        delta: idea_vv::VvDelta,
        ctx: &mut dyn Context<IdeaMsg>,
    ) {
        let Some(st) = self.states.get_mut(&object) else {
            return;
        };
        let ResState::Phase2 { rid: r, members, collected, next, probe, .. } = &mut st.state else {
            return;
        };
        if *r != rid {
            return;
        }
        let evv = probe.baseline.reconstruct(&delta);
        core.note_counters(object, evv.counters(), ctx.now());
        if collected.iter().any(|(n, _)| *n == from) {
            return;
        }
        collected.push((from, evv));
        *next += 1;
        if collected.len() == members.len() {
            self.finish(core, object, ctx);
        } else if !core.cfg.parallel_phase2 {
            send_collects(core, object, rid, members, *next, &probe.summary, ctx);
        }
    }

    fn finish(&mut self, core: &mut NodeCore, object: ObjectId, ctx: &mut dyn Context<IdeaMsg>) {
        let st = self.state(object);
        let (rid, kind, members, collected, started, phase2_started, p1d, p1a) =
            match std::mem::take(&mut st.state) {
                ResState::Phase2 {
                    rid,
                    kind,
                    members,
                    collected,
                    started,
                    phase2_started,
                    phase1_dispatch,
                    phase1_acked,
                    ..
                } => (
                    rid,
                    kind,
                    members,
                    collected,
                    started,
                    phase2_started,
                    phase1_dispatch,
                    phase1_acked,
                ),
                other => {
                    st.state = other;
                    return;
                }
            };

        // The members' rebuilt vectors, then this node's own, borrowed.
        let mine = core.store.replica(object).expect("opened").version();
        let candidates: Vec<(NodeId, &idea_vv::ExtendedVersionVector)> =
            collected.iter().map(|(n, evv)| (*n, evv)).chain([(core.me, mine)]).collect();
        let any_conflict = {
            let (_, first) = candidates[0];
            candidates
                .iter()
                .any(|(_, evv)| !matches!(evv.compare(first), idea_vv::VvOrdering::Equal))
        };
        let reference = choose_reference(core.cfg.policy, &candidates, &core.priorities);

        // Inform every member (parallel fan-out), then reconcile locally.
        // Each member gets the reference encoded against the counters it
        // itself reported — typically a handful of override entries; the
        // self-contained full form is the fallback for whichever member a
        // delta would not shrink.
        for &m in &members {
            let wire = candidates
                .iter()
                .find(|(n, _)| *n == m)
                .map(|(_, evv)| ReferenceWire::encode(&reference, evv.counters()))
                .unwrap_or_else(|| ReferenceWire::Full(reference.clone()));
            ctx.send(m, IdeaMsg::Inform { rid, object, reference: wire });
        }
        let inform_dispatch = DISPATCH_COST.saturating_mul(members.len() as u64);
        let now = ctx.now();
        apply_reference(core, object, &reference, ctx);

        self.log.push(ResolutionRecord {
            rid,
            kind,
            members: members.len(),
            started,
            phase1_dispatch: p1d,
            phase1_acked: p1a,
            phase2: now.saturating_since(phase2_started) + inform_dispatch,
            resolved_conflict: any_conflict,
        });
        self.completed += 1;
    }

    /// Member side of the inform: release the attention lease, cancel a
    /// pending back-off (consistency was just restored by someone else,
    /// §4.5.2), and adopt the reference. A delta-encoded reference
    /// resolves against the counter snapshot stored when this node
    /// answered the round's collect; on the (eviction-only) snapshot miss
    /// the adoption is skipped and the next background round reconciles.
    pub(crate) fn on_inform(
        &mut self,
        core: &mut NodeCore,
        from: NodeId,
        rid: u64,
        object: ObjectId,
        reference: ReferenceWire,
        ctx: &mut dyn Context<IdeaMsg>,
    ) {
        core.open(object);
        let st = self.state(object);
        let acked = st.take_ack(from, rid);
        if let Some((holder, held_rid, _)) = st.attention {
            if holder == from && held_rid == rid {
                st.attention = None;
            }
        }
        if matches!(st.state, ResState::BackOff) {
            st.state = ResState::Idle;
        }
        let reference = match (reference.needs_snapshot(), acked) {
            (true, None) => return,
            (_, acked) => reference.resolve(&acked.unwrap_or_default()),
        };
        let now = ctx.now();
        core.note_counters(object, &reference.counts, now);
        apply_reference(core, object, &reference, ctx);
    }

    /// Back-off expired: retry only if the level still violates the floor
    /// (the other initiator's resolution may already have fixed it).
    pub(crate) fn on_backoff_timer(
        &mut self,
        core: &mut NodeCore,
        object: ObjectId,
        ctx: &mut dyn Context<IdeaMsg>,
    ) {
        let Some(st) = self.states.get_mut(&object) else {
            return;
        };
        if matches!(st.state, ResState::BackOff) {
            st.state = ResState::Idle;
            let Some(shared) = core.objs.get_mut(object) else {
                return;
            };
            let level = shared.level;
            if core.hint_sample(level) == AdaptAction::Resolve {
                self.start_active(core, object, ctx);
            }
        }
    }
}

/// Phase-2 fan-out: all members at once when `parallel_phase2` is set, one
/// member at a time (the paper's design) otherwise. `probe` is the
/// initiator's own vector summary — members answer with a delta against
/// it instead of their full vector.
fn send_collects(
    core: &NodeCore,
    object: ObjectId,
    rid: u64,
    members: &[NodeId],
    from_index: usize,
    probe: &Arc<idea_vv::VvSummary>,
    ctx: &mut dyn Context<IdeaMsg>,
) {
    if core.cfg.parallel_phase2 {
        if from_index == 0 {
            for &m in members {
                ctx.send(m, IdeaMsg::CollectRequest { rid, object, probe: Arc::clone(probe) });
            }
        }
    } else if let Some(&m) = members.get(from_index) {
        ctx.send(m, IdeaMsg::CollectRequest { rid, object, probe: Arc::clone(probe) });
    }
}

/// Brings the local replica to the reference state: drop unsanctioned
/// updates, fetch missing ones from the winner.
fn apply_reference(
    core: &mut NodeCore,
    object: ObjectId,
    reference: &ReferenceState,
    ctx: &mut dyn Context<IdeaMsg>,
) {
    let my_writer = core.store.writer();
    core.open(object);
    // Through the store wrapper so the transition is WAL-logged when
    // durability is on (a recovering node must not resurrect updates the
    // reference dropped).
    let _invalidated = core.store.drop_extras(object, &reference.counts).expect("opened above");
    let have = core.store.replica(object).expect("opened above").version().counters().clone();
    // Local sequencing resumes from the sanctioned count (see module docs
    // on sequence reuse).
    let resume = reference.counts.get(my_writer).max(have.get(my_writer));
    core.store.resume_writes_after(object, resume);

    let need = have.missing_from(&reference.counts);
    match reference.winner {
        Some(w) if w != core.me && need > 0 => {
            ctx.send(w, IdeaMsg::FetchRequest { object, have });
            // Level settles when the fetch lands.
        }
        _ => {
            core.obj_mut(object).level = ConsistencyLevel::PERFECT;
        }
    }
}

/// Uniform back-off delay in `[BACKOFF_MIN, BACKOFF_MAX)` (§4.5.2).
fn backoff_delay(ctx: &mut dyn Context<IdeaMsg>) -> SimDuration {
    let (lo, hi) = (BACKOFF_MIN.as_micros(), BACKOFF_MAX.as_micros());
    SimDuration::from_micros(ctx.rng().gen_range(lo..hi))
}

#[cfg(test)]
mod tests {
    use super::DISPATCH_COST;

    /// The resolution twin of detection's mid-round cut: members answer a
    /// collect with deltas against the probed counters, so the initiator
    /// rebuilds each answer over its vector as it stood when the probe
    /// went out, even after an `Inform` cut its replica and the writer
    /// re-issued the cut sequence number.
    #[test]
    fn a_cut_mid_round_does_not_leak_into_the_collect_probe() {
        use super::super::tests::{hot_core, RecCtx, OBJ};
        use super::{ResState, ResolutionDriver};
        use crate::config::IdeaConfig;
        use crate::messages::IdeaMsg;
        use idea_types::{NodeId, SimTime, UpdatePayload, WriterId};
        use idea_vv::VersionVector;

        let t = SimTime::from_secs;
        let cfg = IdeaConfig {
            background_period: Some(super::SimDuration::from_secs(30)),
            ..Default::default()
        };
        let mut core = hot_core(cfg);
        let mut ctx = RecCtx::new();
        let mut driver = ResolutionDriver::default();
        for s in 1..=3 {
            core.store.write(OBJ, t(s), 1, UpdatePayload::none());
        }
        let at_start = core.store.replica(OBJ).unwrap().version().clone();
        driver.on_background_timer(&mut core, OBJ, &mut ctx);
        let (rid, probed) = ctx
            .sent
            .iter()
            .find_map(|(_, m)| match m {
                IdeaMsg::CollectRequest { rid, probe, .. } => Some((*rid, probe.counters.clone())),
                _ => None,
            })
            .expect("the round collects from its members");

        core.store.drop_extras(OBJ, &VersionVector::from_pairs([(WriterId(0), 1)])).unwrap();
        core.store.resume_writes_after(OBJ, 1);
        core.store.write(OBJ, t(9), 1, UpdatePayload::none());

        let mut theirs = at_start.clone();
        theirs.record(WriterId(1), 1, t(4), 5);
        let delta = theirs.suffix_since(&probed);
        driver.on_collect_delta(&mut core, NodeId(1), rid, OBJ, delta.clone(), &mut ctx);

        let ResState::Phase2 { collected, .. } = &driver.states[&OBJ].state else {
            panic!("one of three members answered: the round is still collecting");
        };
        let live = core.store.replica(OBJ).unwrap().version();
        assert_ne!(at_start.reconstruct(&delta), live.reconstruct(&delta));
        assert_eq!(collected[..], [(NodeId(1), at_start.reconstruct(&delta))]);
    }

    #[test]
    fn dispatch_cost_matches_table2_phase1() {
        // 3 members × 0.156 ms ≈ the paper's 0.468 ms phase-1 delay.
        let phase1 = DISPATCH_COST.saturating_mul(3);
        assert!((phase1.as_millis_f64() - 0.468).abs() < 0.01);
    }
}
