//! End-to-end tests of the composed protocol, driven on the deterministic
//! simulator. These predate the subsystem decomposition and pin its
//! behaviour; `same_seed_produces_identical_reports` additionally proves
//! the split node is bit-deterministic under a fixed engine seed.

use super::top_layer_reference::Learned;
use super::*;
use crate::config::IdeaConfig;
use crate::resolution::{ResolutionKind, ResolutionPolicy};
use idea_net::{SimConfig, SimEngine, Topology};
use idea_types::{ConsistencyLevel, NodeId, ObjectId, SimDuration, UpdatePayload};

pub(super) const OBJ: ObjectId = ObjectId(1);

fn cluster(n: usize, cfg: IdeaConfig, seed: u64) -> SimEngine<IdeaNode> {
    let nodes: Vec<IdeaNode> =
        (0..n).map(|i| IdeaNode::new(NodeId(i as u32), cfg.clone(), &[OBJ])).collect();
    SimEngine::new(Topology::planetlab(n, seed), SimConfig { seed, ..Default::default() }, nodes)
}

fn write(eng: &mut SimEngine<IdeaNode>, node: u32, delta: i64) {
    eng.with_node(NodeId(node), |p, ctx| {
        p.local_write(OBJ, delta, UpdatePayload::Opaque(bytes::Bytes::new()), ctx);
    });
}

/// A context that records every message a shard sends and ignores its
/// timers, for driving one subsystem by hand (clock at `now`, two nodes).
pub(super) struct RecCtx {
    pub(super) sent: Vec<(NodeId, crate::messages::IdeaMsg)>,
    pub(super) now: idea_types::SimTime,
    rng: rand::rngs::mock::StepRng,
}

impl RecCtx {
    pub(super) fn new() -> Self {
        RecCtx {
            sent: Vec::new(),
            now: idea_types::SimTime::ZERO,
            rng: rand::rngs::mock::StepRng::new(0, 1),
        }
    }
}

impl idea_net::Context<crate::messages::IdeaMsg> for RecCtx {
    fn now(&self) -> idea_types::SimTime {
        self.now
    }
    fn me(&self) -> NodeId {
        NodeId(0)
    }
    fn node_count(&self) -> usize {
        2
    }
    fn send(&mut self, to: NodeId, msg: crate::messages::IdeaMsg) {
        self.sent.push((to, msg));
    }
    fn set_timer(&mut self, _delay: SimDuration, _kind: u64) -> idea_net::TimerId {
        idea_net::TimerId(0)
    }
    fn cancel_timer(&mut self, _timer: idea_net::TimerId) {}
    fn rng(&mut self) -> &mut dyn rand::RngCore {
        &mut self.rng
    }
}

/// Node 0's only shard core, hosting [`OBJ`], that has seen nodes 0–3
/// write five updates each: its top layer is nodes 0–3, so its top peers
/// are 1, 2 and 3, and it is the lowest-id member.
pub(super) fn hot_core(cfg: IdeaConfig) -> NodeCore {
    let hint = HintController::new(cfg.hint, cfg.hint_delta);
    let shared = Arc::new(SharedCore::new(hint));
    let mut core = NodeCore::new(NodeId(0), ShardId(0), cfg, [OBJ].into_iter(), shared);
    let hot = VersionVector::from_pairs((0..4).map(|w| (idea_types::WriterId(w), 5)));
    core.note_counters(OBJ, &hot, idea_types::SimTime::ZERO);
    assert_eq!(core.top_peers(OBJ), [NodeId(1), NodeId(2), NodeId(3)]);
    core
}

/// Warm up: every writer writes twice so the top layer forms.
fn warm_up(eng: &mut SimEngine<IdeaNode>, writers: &[u32]) {
    for round in 0..2 {
        for &w in writers {
            write(eng, w, 1);
            eng.run_for(SimDuration::from_millis(500));
        }
        let _ = round;
    }
    eng.run_for(SimDuration::from_secs(2));
}

#[test]
fn top_layer_forms_after_warm_up() {
    let mut eng = cluster(8, IdeaConfig::default(), 1);
    warm_up(&mut eng, &[0, 1, 2, 3]);
    for w in 0..4u32 {
        let members = eng.node(NodeId(w)).report(OBJ).top_members;
        assert_eq!(
            members,
            vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3)],
            "writer {w} sees the wrong top layer"
        );
    }
    // A bottom node learned about the writers from announce rumors.
    let bottom_view = eng.node(NodeId(6)).report(OBJ).top_members;
    assert!(!bottom_view.is_empty(), "bottom nodes discover hot writers");
}

#[test]
fn writes_degrade_consistency_levels() {
    let mut eng = cluster(8, IdeaConfig::default(), 2);
    warm_up(&mut eng, &[0, 1, 2, 3]);
    // Pile on divergent writes without any resolution.
    for wave in 0..4 {
        for w in 0..4u32 {
            write(&mut eng, w, 1);
        }
        eng.run_for(SimDuration::from_secs(5));
        let _ = wave;
    }
    let worst = (0..4u32).map(|w| eng.node(NodeId(w)).level(OBJ)).min().unwrap();
    assert!(
        worst < ConsistencyLevel::new(0.97),
        "divergence must show up in the level, got {worst}"
    );
}

#[test]
fn demanded_resolution_converges_replicas() {
    let mut eng = cluster(6, IdeaConfig::default(), 3);
    warm_up(&mut eng, &[0, 1, 2, 3]);
    for w in 0..4u32 {
        write(&mut eng, w, 2);
    }
    eng.run_for(SimDuration::from_secs(2));
    eng.with_node(NodeId(0), |p, ctx| p.demand_active_resolution(OBJ, ctx));
    eng.run_for(SimDuration::from_secs(5));

    // All top-layer replicas match the reference (highest id = node 3).
    let reference_meta = eng.node(NodeId(3)).report(OBJ).meta;
    for w in 0..4u32 {
        let rep = eng.node(NodeId(w)).report(OBJ);
        assert_eq!(rep.meta, reference_meta, "node {w} diverges after resolution");
        assert_eq!(rep.level, ConsistencyLevel::PERFECT, "node {w} level");
    }
    let log = eng.node(NodeId(0)).resolution_log();
    assert_eq!(log.len(), 1);
    assert_eq!(log[0].kind, ResolutionKind::Active);
    assert_eq!(log[0].members, 3);
    assert!(log[0].resolved_conflict);
    assert!(log[0].phase1_acked > SimDuration::ZERO);
    assert!(log[0].phase2 > SimDuration::from_millis(100));
}

#[test]
fn hint_floor_triggers_automatic_resolution() {
    let mut cfg = IdeaConfig::whiteboard(0.95);
    cfg.hint_delta = 0.01;
    let mut eng = cluster(6, cfg, 4);
    warm_up(&mut eng, &[0, 1, 2, 3]);
    // Divergent writes for 30 s; the hint controller must fire at least
    // one active resolution on its own.
    for _ in 0..6 {
        for w in 0..4u32 {
            write(&mut eng, w, 1);
        }
        eng.run_for(SimDuration::from_secs(5));
    }
    let total_resolutions: u64 =
        (0..4u32).map(|w| eng.node(NodeId(w)).report(OBJ).resolutions_initiated).sum();
    assert!(total_resolutions >= 1, "hint-driven resolution never fired");
    // And levels were pulled back up.
    let worst = (0..4u32).map(|w| eng.node(NodeId(w)).level(OBJ)).min().unwrap();
    assert!(worst >= ConsistencyLevel::new(0.85), "worst {worst}");
}

#[test]
fn background_resolution_runs_periodically() {
    let cfg = IdeaConfig::booking(SimDuration::from_secs(20));
    let mut eng = cluster(6, cfg, 5);
    warm_up(&mut eng, &[0, 1, 2, 3]);
    for wave in 0..20 {
        for w in 0..4u32 {
            write(&mut eng, w, 1);
        }
        eng.run_for(SimDuration::from_secs(5));
        let _ = wave;
    }
    // 100 s of writes with a 20 s period: the lowest-id top member
    // (node 0) initiated several background rounds.
    let rep = eng.node(NodeId(0)).report(OBJ);
    assert!(
        rep.resolutions_initiated >= 3,
        "expected several background rounds, got {}",
        rep.resolutions_initiated
    );
    let log = eng.node(NodeId(0)).resolution_log();
    assert!(log.iter().all(|r| r.kind == ResolutionKind::Background));
    assert!(log.iter().all(|r| r.phase1_dispatch.is_zero()), "no phase 1 in background");
    // Nobody else initiated.
    for w in 1..4u32 {
        assert_eq!(eng.node(NodeId(w)).report(OBJ).resolutions_initiated, 0);
    }
}

#[test]
fn contended_active_resolution_backs_off() {
    let mut eng = cluster(6, IdeaConfig::default(), 6);
    warm_up(&mut eng, &[0, 1, 2, 3]);
    for w in 0..4u32 {
        write(&mut eng, w, 1);
    }
    eng.run_for(SimDuration::from_secs(2));
    // Two initiators demand resolution simultaneously.
    eng.with_node(NodeId(0), |p, ctx| p.demand_active_resolution(OBJ, ctx));
    eng.with_node(NodeId(2), |p, ctx| p.demand_active_resolution(OBJ, ctx));
    eng.run_for(SimDuration::from_secs(8));
    // At least one completed; replicas converged.
    let completed: u64 =
        (0..4u32).map(|w| eng.node(NodeId(w)).report(OBJ).resolutions_initiated).sum();
    assert!(completed >= 1);
    let reference_meta = eng.node(NodeId(3)).report(OBJ).meta;
    for w in 0..4u32 {
        assert_eq!(eng.node(NodeId(w)).report(OBJ).meta, reference_meta);
    }
}

#[test]
fn sweep_detects_bottom_layer_writer_and_rolls_back() {
    let cfg = IdeaConfig {
        sweep_every: Some(1), // sweep after every detection round
        sweep_deadline: SimDuration::from_secs(3),
        rollback_resolve: false,
        ..Default::default()
    };
    let mut eng = cluster(10, cfg, 7);
    warm_up(&mut eng, &[0, 1, 2, 3]);
    // A bottom-layer node (8) writes once — invisible to the top layer.
    write(&mut eng, 8, 50);
    eng.run_for(SimDuration::from_secs(1));
    // Top-layer writer probes; its sweep should find node 8's update.
    for _ in 0..4 {
        write(&mut eng, 0, 1);
        eng.run_for(SimDuration::from_secs(4));
    }
    let rep = eng.node(NodeId(0)).report(OBJ);
    assert!(rep.rollbacks >= 1, "bottom-layer divergence never confirmed");
}

#[test]
fn read_triggers_detection_per_policy() {
    let mut eng = cluster(6, IdeaConfig::default(), 8);
    warm_up(&mut eng, &[0, 1, 2, 3]);
    write(&mut eng, 1, 3);
    eng.run_for(SimDuration::from_secs(1));
    // A fresh read on node 2 triggers a detection round; afterwards its
    // level reflects the divergence.
    let before = eng.node(NodeId(2)).level(OBJ);
    eng.with_node(NodeId(2), |p, ctx| {
        let snap = p.read(OBJ, ctx).expect("replica exists");
        assert_eq!(snap.object, OBJ);
    });
    eng.run_for(SimDuration::from_secs(2));
    let after = eng.node(NodeId(2)).level(OBJ);
    assert!(after <= before, "read-triggered round must refresh the level");
}

#[test]
fn invalidate_both_policy_truncates_to_common_prefix() {
    let cfg = IdeaConfig { policy: ResolutionPolicy::InvalidateBoth, ..Default::default() };
    let mut eng = cluster(6, cfg, 9);
    warm_up(&mut eng, &[0, 1, 2, 3]);
    let warm_updates = eng.node(NodeId(3)).report(OBJ).updates;
    let _ = warm_updates;
    for w in 0..4u32 {
        write(&mut eng, w, 7);
    }
    eng.run_for(SimDuration::from_secs(1));
    eng.with_node(NodeId(1), |p, ctx| p.demand_active_resolution(OBJ, ctx));
    eng.run_for(SimDuration::from_secs(5));
    // Everyone ends identical (the common prefix), conflicting updates
    // of ALL writers invalidated.
    let metas: Vec<i64> = (0..4u32).map(|w| eng.node(NodeId(w)).report(OBJ).meta).collect();
    assert!(metas.windows(2).all(|m| m[0] == m[1]), "metas diverge: {metas:?}");
    let counts: Vec<usize> = (0..4u32).map(|w| eng.node(NodeId(w)).report(OBJ).updates).collect();
    assert!(counts.windows(2).all(|c| c[0] == c[1]));
}

#[test]
fn priority_policy_prefers_the_supervisor() {
    let cfg = IdeaConfig { policy: ResolutionPolicy::PriorityWins, ..Default::default() };
    let mut eng = cluster(6, cfg, 10);
    // Node 1 is the supervisor everywhere.
    for n in 0..6u32 {
        eng.node_mut(NodeId(n)).set_priority(NodeId(1), 9);
    }
    warm_up(&mut eng, &[0, 1, 2, 3]);
    for w in 0..4u32 {
        write(&mut eng, w, (w as i64 + 1) * 10);
    }
    eng.run_for(SimDuration::from_secs(1));
    let supervisor_meta = eng.node(NodeId(1)).report(OBJ).meta;
    eng.with_node(NodeId(0), |p, ctx| p.demand_active_resolution(OBJ, ctx));
    eng.run_for(SimDuration::from_secs(5));
    for w in 0..4u32 {
        assert_eq!(
            eng.node(NodeId(w)).report(OBJ).meta,
            supervisor_meta,
            "node {w} must adopt the supervisor's state"
        );
    }
}

#[test]
fn parallel_phase2_is_faster_than_sequential() {
    let run = |parallel: bool| -> SimDuration {
        let cfg = IdeaConfig { parallel_phase2: parallel, ..Default::default() };
        let mut eng = cluster(6, cfg, 11);
        warm_up(&mut eng, &[0, 1, 2, 3]);
        for w in 0..4u32 {
            write(&mut eng, w, 1);
        }
        eng.run_for(SimDuration::from_secs(1));
        eng.with_node(NodeId(0), |p, ctx| p.demand_active_resolution(OBJ, ctx));
        eng.run_for(SimDuration::from_secs(5));
        let log = eng.node(NodeId(0)).resolution_log();
        assert!(!log.is_empty());
        log[0].phase2
    };
    let seq = run(false);
    let par = run(true);
    assert!(
        par < seq,
        "parallel phase 2 ({par}) must beat sequential ({seq}) — §6.2's suggested optimisation"
    );
}

/// Two objects sweeping concurrently at the same node: each object's
/// gossip router allocates rumor seqs independently, so sweep deadlines
/// are routed by node-unique ticket, never by seq alone (colliding seqs
/// once settled the wrong object's collector, dropping or delaying
/// rollbacks). Pins that both objects' discrepancies are confirmed and
/// both hidden updates are fetched under interleaved sweeps.
#[test]
fn sweeps_on_two_objects_do_not_cross_wires() {
    const OBJ_B: ObjectId = ObjectId(2);
    let cfg = IdeaConfig {
        sweep_every: Some(1),
        sweep_deadline: SimDuration::from_secs(3),
        rollback_resolve: false,
        ..Default::default()
    };
    let nodes: Vec<IdeaNode> =
        (0..10).map(|i| IdeaNode::new(NodeId(i as u32), cfg.clone(), &[OBJ, OBJ_B])).collect();
    let mut eng = SimEngine::new(
        Topology::planetlab(10, 13),
        SimConfig { seed: 13, ..Default::default() },
        nodes,
    );
    let write_obj = |eng: &mut SimEngine<IdeaNode>, node: u32, obj: ObjectId, delta: i64| {
        eng.with_node(NodeId(node), |p, ctx| {
            p.local_write(obj, delta, UpdatePayload::Opaque(bytes::Bytes::new()), ctx);
        });
    };
    // Warm both objects so their top layers form (interleaved, which also
    // interleaves their gossip seq allocation).
    for _ in 0..2 {
        for w in 0..4u32 {
            write_obj(&mut eng, w, OBJ, 1);
            write_obj(&mut eng, w, OBJ_B, 1);
            eng.run_for(SimDuration::from_millis(500));
        }
    }
    eng.run_for(SimDuration::from_secs(2));
    // Hidden bottom-layer writes on both objects.
    write_obj(&mut eng, 8, OBJ, 50);
    write_obj(&mut eng, 9, OBJ_B, 50);
    eng.run_for(SimDuration::from_secs(1));
    // Concurrent probes sweep both objects from node 0.
    for _ in 0..4 {
        write_obj(&mut eng, 0, OBJ, 1);
        write_obj(&mut eng, 0, OBJ_B, 1);
        eng.run_for(SimDuration::from_secs(4));
    }
    let rep = eng.node(NodeId(0)).report(OBJ);
    assert!(rep.rollbacks >= 2, "both objects' sweeps must settle, got {}", rep.rollbacks);
    // Both objects' replicas at node 0 learned the hidden updates.
    for obj in [OBJ, OBJ_B] {
        let vv = eng.node(NodeId(0)).replica(obj).expect("open").version().counters();
        let hidden_writer = if obj == OBJ { 8 } else { 9 };
        assert!(
            vv.get(idea_types::WriterId(hidden_writer)) >= 1,
            "hidden update of object {obj} never fetched"
        );
    }
}

/// Replays one scenario that exercises every subsystem (writes, reads,
/// detection rounds, sweeps, hint-driven and demanded resolution) and
/// asserts a fixed `SimEngine` seed yields bit-identical [`NodeReport`]s —
/// the acceptance criterion for the subsystem decomposition.
#[test]
fn same_seed_produces_identical_reports() {
    fn scenario(seed: u64) -> (Vec<NodeReport>, usize) {
        let mut cfg = IdeaConfig::whiteboard(0.93);
        cfg.sweep_every = Some(2);
        cfg.sweep_deadline = SimDuration::from_secs(3);
        let mut eng = cluster(8, cfg, seed);
        warm_up(&mut eng, &[0, 1, 2, 3]);
        // Bottom-layer write hidden from the top layer, then write waves.
        write(&mut eng, 6, 17);
        for wave in 0..4 {
            for w in 0..4u32 {
                write(&mut eng, w, wave + 1);
            }
            eng.run_for(SimDuration::from_secs(3));
        }
        // A policy-triggered read probe and two contending demands.
        eng.with_node(NodeId(5), |p, ctx| {
            let _ = p.read(OBJ, ctx);
        });
        eng.with_node(NodeId(0), |p, ctx| p.demand_active_resolution(OBJ, ctx));
        eng.with_node(NodeId(3), |p, ctx| p.demand_active_resolution(OBJ, ctx));
        eng.run_for(SimDuration::from_secs(10));
        let reports = (0..8u32).map(|n| eng.node(NodeId(n)).report(OBJ)).collect();
        let log_len: usize = (0..8u32).map(|n| eng.node(NodeId(n)).resolution_log().len()).sum();
        (reports, log_len)
    }

    let (first, first_log) = scenario(2024);
    let (second, second_log) = scenario(2024);
    assert_eq!(first, second, "same seed must reproduce identical node reports");
    assert_eq!(first_log, second_log, "same seed must reproduce the resolution log");
    // A different seed must still converge but is allowed to differ.
    let (third, _) = scenario(2025);
    assert_eq!(third.len(), first.len());
}

/// The decomposition keeps subsystem state disjoint: an object only ever
/// touched by *remote* traffic (no local write) must still answer reports
/// and reads without panicking — the lazy per-subsystem state paths.
#[test]
fn remote_only_objects_materialise_lazily() {
    let mut eng = cluster(4, IdeaConfig::default(), 12);
    warm_up(&mut eng, &[0, 1]);
    // Node 3 never wrote; its state was created by incoming messages only.
    let rep = eng.node(NodeId(3)).report(OBJ);
    assert_eq!(rep.node, NodeId(3));
    assert_eq!(rep.resolutions_initiated, 0);
    assert!(!eng.node(NodeId(3)).is_resolving(OBJ));
    eng.with_node(NodeId(3), |p, ctx| {
        let snap = p.read(OBJ, ctx).expect("replica opened by remote traffic");
        assert_eq!(snap.object, OBJ);
    });
}

/// Chunked-fetch satellite pin, at the frame level: for every
/// `max_fetch_updates` bound, no `FetchReply` frame ever carries more
/// than the bound, only the final frame says `done`, and the chunks
/// reassemble exactly the update set the unbounded reply ships in one
/// frame. The requester side is emulated directly (its advanced counters
/// are the continuation cursor), so each reply frame can be inspected.
#[test]
fn chunked_fetch_frames_respect_the_bound_and_reassemble_identically() {
    use crate::messages::IdeaMsg;
    use idea_net::{Context, Proto, TimerId};
    use idea_types::{SimTime, Update};
    use idea_vv::VersionVector;

    struct RecCtx {
        sent: Vec<(NodeId, IdeaMsg)>,
        rng: rand::rngs::mock::StepRng,
    }
    impl Context<IdeaMsg> for RecCtx {
        fn now(&self) -> SimTime {
            SimTime::ZERO
        }
        fn me(&self) -> NodeId {
            NodeId(0)
        }
        fn node_count(&self) -> usize {
            2
        }
        fn send(&mut self, to: NodeId, msg: IdeaMsg) {
            self.sent.push((to, msg));
        }
        fn set_timer(&mut self, _delay: SimDuration, _kind: u64) -> TimerId {
            TimerId(0)
        }
        fn cancel_timer(&mut self, _timer: TimerId) {}
        fn rng(&mut self) -> &mut dyn rand::RngCore {
            &mut self.rng
        }
    }

    const BACKLOG: usize = 200;

    fn drain(cap: Option<usize>) -> Vec<Update> {
        let cfg = IdeaConfig { max_fetch_updates: cap, ..Default::default() };
        let mut node = IdeaNode::new(NodeId(0), cfg, &[OBJ]);
        let mut ctx = RecCtx { sent: vec![], rng: rand::rngs::mock::StepRng::new(0, 1) };
        for i in 0..BACKLOG as i64 {
            node.local_write(OBJ, i, UpdatePayload::none(), &mut ctx);
        }
        let mut have = VersionVector::new();
        let mut got = Vec::new();
        let mut frames = 0usize;
        loop {
            ctx.sent.clear();
            node.on_message(
                NodeId(1),
                IdeaMsg::FetchRequest { object: OBJ, have: have.clone() },
                &mut ctx,
            );
            let replies: Vec<_> = ctx
                .sent
                .iter()
                .filter_map(|(to, m)| match m {
                    IdeaMsg::FetchReply { updates, done, .. } => Some((*to, updates, *done)),
                    _ => None,
                })
                .collect();
            assert_eq!(replies.len(), 1, "one request, one reply frame");
            let (to, updates, done) = (replies[0].0, replies[0].1.clone(), replies[0].2);
            assert_eq!(to, NodeId(1));
            if let Some(cap) = cap {
                assert!(
                    updates.len() <= cap,
                    "frame carries {} updates over the configured bound {cap}",
                    updates.len()
                );
            }
            frames += 1;
            for u in &updates {
                have.observe(u.id.writer, u.id.seq);
            }
            got.extend(updates);
            if done {
                break;
            }
            assert!(frames <= BACKLOG + 1, "continuation never finished");
        }
        let expected_frames = cap.map_or(1, |c| BACKLOG.div_ceil(c));
        assert_eq!(frames, expected_frames, "cap {cap:?} used the wrong number of frames");
        got
    }

    let unbounded = drain(None);
    assert_eq!(unbounded.len(), BACKLOG);
    for cap in [1usize, 7, 64] {
        assert_eq!(drain(Some(cap)), unbounded, "cap {cap} reassembled a different set");
    }
}

/// Pre-change `note_counters`: one `known_counts` lookup per incoming
/// writer instead of one walk over both sorted maps, on the pre-change
/// tables.
fn note_counters_reference(
    st: &mut Learned,
    cfg: &TopLayerConfig,
    counters: &VersionVector,
    now: SimTime,
) {
    for (writer, count) in counters.iter() {
        let known = st.known_counts.get(writer);
        if count > known {
            let node = NodeCore::home(writer);
            for _ in known..count {
                st.layer.observe_update(cfg, node, now);
            }
            st.known_counts.observe(writer, count);
        }
    }
}

proptest::proptest! {
    /// The one-table walk feeds the temperature overlay exactly what the
    /// per-writer lookups fed the pre-change tables: a run of counter
    /// vectors (so `known` is itself random by the later steps) leaves the
    /// same known counts, the same top layer and bit-equal temperatures.
    /// The order of the `observe_update` calls is pinned at its source, by
    /// `merge_with_matches_per_writer_lookup` in `idea-vv`.
    #[test]
    fn note_counters_merge_walk_matches_per_writer_lookup(
        steps in proptest::collection::vec(
            proptest::collection::btree_map(0u32..8, 0u64..6, 0..8),
            1..12,
        ),
    ) {
        let cfg = IdeaConfig::default();
        let layer = &cfg.top_layer;
        let (mut walked, mut looked_up) = (ObjShared::new(&cfg), Learned::new(layer));
        for (i, counts) in steps.into_iter().enumerate() {
            let now = SimTime::from_secs(3 * i as u64);
            let incoming = VersionVector::from_pairs(
                counts.into_iter().map(|(w, c)| (idea_types::WriterId(w), c)),
            );
            walked.note_counters(layer, &incoming, now);
            note_counters_reference(&mut looked_up, layer, &incoming, now);
            let known = VersionVector::from_pairs(
                walked.layer.known_counts().map(|(n, c)| (idea_types::WriterId(n.0), c)),
            );
            proptest::prop_assert_eq!(&known, &looked_up.known_counts);
            let members: Vec<NodeId> = walked.layer.top_members(layer).collect();
            proptest::prop_assert_eq!(&members[..], looked_up.layer.top_members());
            for node in (0..8).map(NodeId) {
                proptest::prop_assert_eq!(
                    walked.layer.temperature(layer, node, now).to_bits(),
                    looked_up.layer.temperature(layer, node, now).to_bits()
                );
            }
        }
    }
}
