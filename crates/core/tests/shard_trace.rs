//! Fixed-seed trace pins for the store-sharding refactor.
//!
//! The tuples below were captured at commit `8d9bef3` — the last commit
//! before the sharded store landed — by running these exact scenarios on
//! the deterministic engine. The refactor must reproduce them bit-for-bit:
//! routing every per-object operation through a shard handle is a
//! *structural* change, not a behavioural one.
//!
//! Re-captured when the gossip plane gained **sender exclusion** (a relay
//! no longer pushes a rumor back to the peer it arrived from): that
//! intentionally changes the seeded RNG draw sequence, so exact message
//! counts and resolution timing shift while convergence is preserved
//! (every node still agrees, level 1.0). The shard-count invariance these
//! tests primarily guard is unchanged.
//!
//! The message counts were re-recorded once more when the eager gossip
//! flood was deleted: at `1cd6a41`, the last commit that still had it,
//! the same scenarios on the lazy plane (already the default there) gave
//! the counts below at S = 1, 2, 4 and 8. The replica and level tuples
//! are the ones captured at `8d9bef3`; the flood and the lazy plane
//! converge to the same replicas.

use idea_core::{IdeaConfig, IdeaNode};
use idea_net::{MsgClass, SimConfig, SimEngine, Topology};
use idea_types::{NodeId, ObjectId, SimDuration, UpdatePayload};

const OBJ_A: ObjectId = ObjectId(1);
const OBJ_B: ObjectId = ObjectId(7);

/// Everything a scenario run exposes to the outside world.
#[derive(Debug, Clone, PartialEq)]
struct Trace {
    /// Per node: (meta, updates, level in ppm) for each object driven.
    nodes: Vec<(i64, usize, u64)>,
    detect_msgs: u64,
    gossip_msgs: u64,
    resolution_msgs: u64,
    total_msgs: u64,
    resolutions: u64,
}

fn level_ppm(node: &IdeaNode, obj: ObjectId) -> u64 {
    (node.level(obj).value() * 1e6).round() as u64
}

fn collect(eng: &SimEngine<IdeaNode>, n: usize, objects: &[ObjectId]) -> Trace {
    let mut nodes = Vec::new();
    for i in 0..n as u32 {
        for &obj in objects {
            let rep = eng.node(NodeId(i)).report(obj);
            nodes.push((rep.meta, rep.updates, level_ppm(eng.node(NodeId(i)), obj)));
        }
    }
    let s = eng.stats();
    Trace {
        nodes,
        detect_msgs: s.messages(MsgClass::Detect),
        gossip_msgs: s.messages(MsgClass::Gossip),
        resolution_msgs: s.messages(MsgClass::ResolutionCtl),
        total_msgs: s.total_messages(),
        resolutions: (0..n as u32)
            .map(|i| eng.node(NodeId(i)).report(objects[0]).resolutions_initiated)
            .sum(),
    }
}

fn write(eng: &mut SimEngine<IdeaNode>, node: u32, obj: ObjectId, delta: i64) {
    eng.with_node(NodeId(node), |p, ctx| {
        p.local_write(obj, delta, UpdatePayload::none(), ctx);
    });
}

/// The Formula-1 / whiteboard scenario: hint-driven resolution over two
/// objects, writes, a policy-triggered read, a demanded resolution.
fn formula1_scenario(shards: usize) -> Trace {
    let mut cfg = IdeaConfig::whiteboard(0.93);
    cfg.store_shards = shards;
    let objects = [OBJ_A, OBJ_B];
    let n = 8;
    let nodes: Vec<IdeaNode> =
        (0..n).map(|i| IdeaNode::new(NodeId(i as u32), cfg.clone(), &objects)).collect();
    let mut eng = SimEngine::new(
        Topology::planetlab(n, 42),
        SimConfig { seed: 42, ..Default::default() },
        nodes,
    );
    for _ in 0..2 {
        for w in 0..4u32 {
            write(&mut eng, w, OBJ_A, 1);
            write(&mut eng, w, OBJ_B, 2);
            eng.run_for(SimDuration::from_millis(500));
        }
    }
    eng.run_for(SimDuration::from_secs(2));
    for wave in 0..4 {
        for w in 0..4u32 {
            write(&mut eng, w, OBJ_A, wave + 1);
            if w % 2 == 0 {
                write(&mut eng, w, OBJ_B, 5);
            }
        }
        eng.run_for(SimDuration::from_secs(3));
    }
    eng.with_node(NodeId(5), |p, ctx| {
        let _ = p.read(OBJ_A, ctx);
    });
    eng.with_node(NodeId(0), |p, ctx| p.demand_active_resolution(OBJ_B, ctx));
    eng.run_for(SimDuration::from_secs(10));
    collect(&eng, n, &objects)
}

/// The detect-round scenario: default config plus sweeps and background
/// resolution over a single object (the §6.1 detection regime).
fn detect_round_scenario(shards: usize) -> Trace {
    let cfg = IdeaConfig {
        store_shards: shards,
        sweep_every: Some(2),
        sweep_deadline: SimDuration::from_secs(3),
        background_period: Some(SimDuration::from_secs(20)),
        ..Default::default()
    };
    let n = 10;
    let nodes: Vec<IdeaNode> =
        (0..n).map(|i| IdeaNode::new(NodeId(i as u32), cfg.clone(), &[OBJ_A])).collect();
    let mut eng = SimEngine::new(
        Topology::planetlab(n, 11),
        SimConfig { seed: 11, ..Default::default() },
        nodes,
    );
    for _ in 0..2 {
        for w in 0..4u32 {
            write(&mut eng, w, OBJ_A, 1);
            eng.run_for(SimDuration::from_millis(500));
        }
    }
    eng.run_for(SimDuration::from_secs(2));
    write(&mut eng, 8, OBJ_A, 50);
    for _ in 0..6 {
        for w in 0..4u32 {
            write(&mut eng, w, OBJ_A, 1);
        }
        eng.run_for(SimDuration::from_secs(5));
    }
    eng.run_for(SimDuration::from_secs(15));
    collect(&eng, n, &[OBJ_A])
}

/// The Formula-1 trace: replicas and levels captured at `8d9bef3`
/// (pre-refactor single-map store), message counts recorded on the lazy
/// gossip plane at `1cd6a41`.
fn formula1_pin() -> Trace {
    let mut nodes = Vec::new();
    for _ in 0..4 {
        nodes.push((12, 6, 1_000_000));
        nodes.push((4, 2, 1_000_000));
    }
    for _ in 4..8 {
        nodes.push((0, 0, 1_000_000));
        nodes.push((0, 0, 1_000_000));
    }
    Trace {
        nodes,
        detect_msgs: 176,
        gossip_msgs: 448,
        resolution_msgs: 270,
        total_msgs: 903,
        resolutions: 9,
    }
}

/// The detect-round trace: replicas and levels captured at `8d9bef3`,
/// message counts recorded on the lazy gossip plane at `1cd6a41`.
fn detect_pin() -> Trace {
    let mut nodes = vec![(62, 13, 1_000_000); 4];
    nodes.extend(vec![(0, 0, 1_000_000); 4]);
    nodes.push((50, 1, 1_000_000));
    nodes.push((0, 0, 1_000_000));
    Trace {
        nodes,
        detect_msgs: 164,
        gossip_msgs: 630,
        resolution_msgs: 92,
        total_msgs: 903,
        resolutions: 5,
    }
}

#[test]
fn single_shard_reproduces_pre_refactor_formula1_trace() {
    assert_eq!(formula1_scenario(1), formula1_pin());
}

#[test]
fn single_shard_reproduces_pre_refactor_detect_trace() {
    assert_eq!(detect_round_scenario(1), detect_pin());
}

/// Sharding must be invisible to the protocol: the same scenarios produce
/// the identical trace for every shard count. (The Formula-1 scenario
/// spreads two objects across shards; the detect scenario exercises
/// background-resolution and sweep timers through the shard routing.)
#[test]
fn sharded_runs_reproduce_the_same_traces() {
    for shards in [2, 4, 8] {
        assert_eq!(formula1_scenario(shards), formula1_pin(), "formula1 S={shards}");
        assert_eq!(detect_round_scenario(shards), detect_pin(), "detect S={shards}");
    }
}
