//! The acceptance pin for the typed client layer: **one** session-based
//! application function, compiled once against [`EngineHandle`], exercised
//! unchanged on the deterministic [`SimEngine`] and on the threaded
//! [`ShardedEngine`] — at one worker per node and at four.

use idea::prelude::*;
use std::thread;
use std::time::Duration;

const OBJ_A: ObjectId = ObjectId(1);
const OBJ_B: ObjectId = ObjectId(7);
const N: usize = 4;

/// The engine-agnostic application: configure through a typed spec, warm
/// the top layer, diverge, read at an explicit consistency, demand a
/// resolution, and report. Returns per-node `(meta, updates)` for both
/// objects plus the total resolutions initiated.
fn drive<E: EngineHandle>(
    eng: &mut E,
    sleep: impl Fn(&mut E, SimDuration),
) -> (Vec<(i64, usize)>, u64) {
    // Per-session configuration: a typed spec instead of integer codes.
    let spec = ConsistencySpec::builder()
        .weights(1.0, 1.0, 1.0)
        .resolution(ResolutionPolicy::HighestIdWins)
        .build()
        .expect("valid spec");
    for w in 0..eng.nodes() as u32 {
        Session::open(eng, NodeId(w)).configure(spec.clone()).expect("configure");
    }

    // Warm up both objects so the temperature overlay forms.
    for _ in 0..3 {
        for w in 0..eng.nodes() as u32 {
            let mut session = Session::open(eng, NodeId(w));
            session.object(OBJ_A).write(1, UpdatePayload::none()).expect("write A");
            session.object(OBJ_B).write(2, UpdatePayload::none()).expect("write B");
            sleep(eng, SimDuration::from_millis(400));
        }
    }
    sleep(eng, SimDuration::from_secs(3));

    // Conflicting writes diverge every replica.
    for w in 0..eng.nodes() as u32 {
        let mut session = Session::open(eng, NodeId(w));
        session.object(OBJ_A).write(10, UpdatePayload::none()).expect("write A");
    }
    sleep(eng, SimDuration::from_secs(2));

    // A consistency-aware read: on-demand probe when below the floor.
    let mut reader = Session::open(eng, NodeId(1))
        .read_consistency(ReadConsistency::AtLeast(ConsistencyLevel::new(0.99)));
    let read = reader.object(OBJ_A).read().expect("read");
    assert!(read.updates >= 1, "reader must see its own warm-up writes");
    sleep(eng, SimDuration::from_secs(1));

    // Demand a resolution and let the two-phase protocol converge everyone.
    Session::open(eng, NodeId(0)).object(OBJ_A).demand_resolution().expect("demand");
    sleep(eng, SimDuration::from_secs(8));

    let mut out = Vec::new();
    let mut resolutions = 0;
    for w in 0..eng.nodes() as u32 {
        let mut session = Session::open(eng, NodeId(w));
        let a = session.object(OBJ_A).report().expect("report A");
        let b = session.object(OBJ_B).report().expect("report B");
        out.push((a.meta, a.updates));
        out.push((b.meta, b.updates));
        resolutions += a.resolutions_initiated;
    }
    (out, resolutions)
}

/// Majority of nodes agreeing on OBJ_A's meta (threaded engines are not
/// deterministic; stragglers are tolerated, convergence of a majority is
/// not negotiable).
fn object_a_agreement(out: &[(i64, usize)]) -> usize {
    let metas: Vec<i64> = out.iter().step_by(2).map(|(m, _)| *m).collect();
    let reference = metas[metas.len() - 1];
    metas.iter().filter(|m| **m == reference).count()
}

#[test]
fn the_same_session_code_runs_on_the_sim_engine() {
    let nodes: Vec<IdeaNode> = (0..N)
        .map(|i| IdeaNode::new(NodeId(i as u32), IdeaConfig::whiteboard(0.0), &[OBJ_A, OBJ_B]))
        .collect();
    let mut eng = SimEngine::new(
        Topology::planetlab(N, 9),
        SimConfig { seed: 9, ..Default::default() },
        nodes,
    );
    let (out, resolutions) = drive(&mut eng, |e, d| e.run_for(d));
    // Deterministic engine: everyone must agree exactly.
    assert_eq!(object_a_agreement(&out), N, "sim replicas diverge: {out:?}");
    assert!(resolutions >= 1, "the demanded resolution must complete");
}

/// `drive()` on the threaded engine with `shards` workers per node.
fn drive_on_threads(shards: usize) {
    let cfg = IdeaConfig { store_shards: shards, ..IdeaConfig::whiteboard(0.0) };
    let nodes: Vec<IdeaNode> =
        (0..N).map(|i| IdeaNode::new(NodeId(i as u32), cfg.clone(), &[OBJ_A, OBJ_B])).collect();
    let mut eng = ShardedEngine::start(
        Topology::planetlab(N, 9),
        ThreadedConfig { seed: 9, time_scale: 0.02, shards },
        nodes,
    );
    let (out, _) = drive(&mut eng, |e, d| e.sleep_virtual(d));
    thread::sleep(Duration::from_millis(300));
    assert!(object_a_agreement(&out) >= N - 1, "{shards}-shard replicas diverge: {out:?}");
    eng.stop();
}

/// One worker per node: every command of a node serialises on one mailbox.
#[test]
fn the_same_session_code_runs_on_the_threaded_engine() {
    drive_on_threads(1);
}

/// Four workers per node: OBJ_A and OBJ_B hash to different shards, so the
/// report aggregation in `drive()` also proves cross-shard routing works.
#[test]
fn the_same_session_code_runs_on_the_sharded_engine() {
    assert_ne!(ShardId::of(OBJ_A, 4), ShardId::of(OBJ_B, 4), "objects must span shards");
    drive_on_threads(4);
}

fn small_sharded_fleet(shards: usize) -> ShardedEngine<IdeaNode> {
    let cfg = IdeaConfig { store_shards: shards, ..IdeaConfig::whiteboard(0.9) };
    let objects: Vec<ObjectId> = (0..8u64).map(ObjectId).collect();
    let nodes: Vec<IdeaNode> =
        (0..2).map(|i| IdeaNode::new(NodeId(i as u32), cfg.clone(), &objects)).collect();
    ShardedEngine::start(
        Topology::lan(2),
        ThreadedConfig { seed: 1, time_scale: 0.01, shards },
        nodes,
    )
}

/// A rejected re-weighting dissatisfaction (unknown object) on the sharded
/// engine must mutate **nothing** — no shard's weights may move, matching
/// the deterministic engine's up-front checks.
#[test]
fn sharded_dissatisfied_rejects_atomically() {
    let mut eng = small_sharded_fleet(4);
    let r = eng.execute(
        NodeId(0),
        Command::Dissatisfied {
            object: ObjectId(99),
            new_weights: Some(Weights::new(0.1, 0.1, 0.8)),
        },
    );
    assert!(matches!(r, Response::Rejected { .. }), "unknown object must reject: {r:?}");
    let states = eng.stop();
    for (s, shard) in states[0].shards().iter().enumerate() {
        let w = shard.quantifier().weights();
        assert!(
            (w.staleness - 0.8).abs() > 1e-9,
            "rejected command leaked weights into shard {s}: {w:?}"
        );
    }
}

/// Re-weighting dissatisfaction must reach **every** shard worker on both
/// the blocking and the fire-and-forget path.
#[test]
fn sharded_dissatisfied_reweights_every_shard() {
    let obj = ObjectId(0);
    let mut eng = small_sharded_fleet(4);
    let before = Session::open(&mut eng, NodeId(0)).object(obj).report().expect("report");

    // Fire-and-forget path (the one that used to hit the owning shard only).
    Session::open(&mut eng, NodeId(0)).submit(Command::Dissatisfied {
        object: obj,
        new_weights: Some(Weights::new(0.2, 0.2, 0.6)),
    });
    std::thread::sleep(Duration::from_millis(400));

    let after = Session::open(&mut eng, NodeId(0)).object(obj).report().expect("report");
    assert!(after.hint_floor > before.hint_floor, "dissatisfaction must raise the floor");
    let states = eng.stop();
    for (s, shard) in states[0].shards().iter().enumerate() {
        let w = shard.quantifier().weights();
        assert!((w.staleness - 0.6).abs() < 1e-9, "weights not fanned out to shard {s}: {w:?}");
    }
}

#[test]
fn session_priority_feeds_priority_wins_resolution() {
    let nodes: Vec<IdeaNode> = (0..N)
        .map(|i| IdeaNode::new(NodeId(i as u32), IdeaConfig::whiteboard(0.0), &[OBJ_A]))
        .collect();
    let mut eng = SimEngine::new(
        Topology::planetlab(N, 5),
        SimConfig { seed: 5, ..Default::default() },
        nodes,
    );

    let spec = ConsistencySpec::builder()
        .resolution(ResolutionPolicy::PriorityWins)
        .build()
        .expect("valid spec");
    for w in 0..N as u32 {
        Session::open(&mut eng, NodeId(w)).configure(spec.clone()).expect("configure");
    }
    // Node 0 registers the highest priority fleet-wide through its session.
    Session::open(&mut eng, NodeId(0)).set_priority(9).expect("priority");

    for _ in 0..3 {
        for w in 0..N as u32 {
            Session::open(&mut eng, NodeId(w))
                .object(OBJ_A)
                .write(1, UpdatePayload::none())
                .expect("warm");
            eng.run_for(SimDuration::from_millis(400));
        }
    }
    eng.run_for(SimDuration::from_secs(2));
    // Diverge with per-node deltas, then resolve: node 0's replica must win
    // even though node 3 holds the highest id.
    for w in 0..N as u32 {
        Session::open(&mut eng, NodeId(w))
            .object(OBJ_A)
            .write(100 + w as i64, UpdatePayload::none())
            .expect("conflict");
    }
    eng.run_for(SimDuration::from_secs(1));
    Session::open(&mut eng, NodeId(1)).object(OBJ_A).demand_resolution().expect("demand");
    eng.run_for(SimDuration::from_secs(8));

    let reference = Session::open(&mut eng, NodeId(0)).object(OBJ_A).report().expect("report");
    for w in 1..N as u32 {
        let rep = Session::open(&mut eng, NodeId(w)).object(OBJ_A).report().expect("report");
        assert_eq!(rep.meta, reference.meta, "node {w} did not adopt the priority winner");
    }
    // The sanctioned state is the winner's replica: node 0's three warm-up
    // writes (delta 1 each) plus its conflict write (delta 100) = 103. Had
    // the highest id won instead, node 3's 100 + 3 delta would make it 106.
    assert_eq!(reference.meta, 103, "node 0's replica must be the reference");
}

/// Both engines split a re-weighting dissatisfaction over a node's shards
/// the same way, so they reject it the same way: unknown object before
/// bad weights, at one shard and at four.
#[test]
fn engines_agree_on_dissatisfied_rejections() {
    let bad = Weights { numerical: -1.0, order: 0.5, staleness: 0.5 };
    let good = Weights::new(0.2, 0.2, 0.6);
    let cases = [(ObjectId(999), bad), (ObjectId(999), good), (ObjectId(0), bad)];
    let command =
        |(object, w): (ObjectId, Weights)| Command::Dissatisfied { object, new_weights: Some(w) };

    let objects: Vec<ObjectId> = (0..8u64).map(ObjectId).collect();
    let nodes: Vec<IdeaNode> =
        (0..2).map(|i| IdeaNode::new(NodeId(i), IdeaConfig::whiteboard(0.9), &objects)).collect();
    let mut sim = SimEngine::new(Topology::lan(2), SimConfig::default(), nodes);
    let want: Vec<Response> = cases.iter().map(|&c| sim.execute(NodeId(0), command(c))).collect();
    for r in &want {
        assert!(matches!(r, Response::Rejected { .. }), "must reject: {r:?}");
    }

    for shards in [1, 4] {
        let mut eng = small_sharded_fleet(shards);
        let got: Vec<Response> =
            cases.iter().map(|&c| eng.execute(NodeId(0), command(c))).collect();
        eng.stop();
        assert_eq!(got, want, "{shards}-shard engine disagrees with the sim engine");
    }
}
