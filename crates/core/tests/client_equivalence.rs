//! Equivalence pins for the typed client layer: routing an operation
//! through `Session`/`Command` must be *externally indistinguishable* from
//! injecting the same operation as a closure with a live context — the
//! command layer adds a surface, never a behaviour.
//!
//! Two pins:
//! 1. a fixed-seed scenario (the Formula-1 trace of
//!    `tests/shard_trace.rs`: replicas captured at commit `8d9bef3` before
//!    the redesign, message counts recorded on the lazy gossip plane at
//!    `1cd6a41`) reproduced bit-for-bit by session-routed commands;
//! 2. a proptest over random operation sequences, comparing the full
//!    externally observable outcome of closure-injected and
//!    session-routed runs.

use idea_core::client::{ConsistencySpec, ReadConsistency, Session};
use idea_core::{IdeaConfig, IdeaNode};
use idea_net::{MsgClass, SimConfig, SimEngine, Topology};
use idea_types::{NodeId, ObjectId, SimDuration, UpdatePayload};
use proptest::prelude::*;

const OBJ_A: ObjectId = ObjectId(1);
const OBJ_B: ObjectId = ObjectId(7);

/// How external stimuli reach the nodes.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Route {
    /// `SimEngine::with_node` closures calling node methods directly —
    /// the pre-redesign surface.
    Closure,
    /// `Session`/`ObjectHandle` commands through the `EngineHandle`.
    Session,
}

/// Everything a run exposes to the outside world.
#[derive(Debug, Clone, PartialEq)]
struct Trace {
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

fn write(eng: &mut SimEngine<IdeaNode>, route: Route, node: u32, obj: ObjectId, delta: i64) {
    match route {
        Route::Closure => eng.with_node(NodeId(node), |p, ctx| {
            p.local_write(obj, delta, UpdatePayload::none(), ctx);
        }),
        Route::Session => {
            Session::open(eng, NodeId(node))
                .object(obj)
                .write(delta, UpdatePayload::none())
                .expect("hosted object");
        }
    }
}

fn read(eng: &mut SimEngine<IdeaNode>, route: Route, node: u32, obj: ObjectId) {
    match route {
        Route::Closure => eng.with_node(NodeId(node), |p, ctx| {
            let _ = p.read(obj, ctx);
        }),
        Route::Session => {
            // `Any` is the exact read the closure surface performs.
            let _ = Session::open(eng, NodeId(node))
                .read_consistency(ReadConsistency::Any)
                .object(obj)
                .read()
                .expect("hosted object");
        }
    }
}

fn demand(eng: &mut SimEngine<IdeaNode>, route: Route, node: u32, obj: ObjectId) {
    match route {
        Route::Closure => {
            eng.with_node(NodeId(node), |p, ctx| p.demand_active_resolution(obj, ctx))
        }
        Route::Session => {
            Session::open(eng, NodeId(node)).object(obj).demand_resolution().expect("hosted object")
        }
    }
}

fn set_hint(eng: &mut SimEngine<IdeaNode>, route: Route, node: u32, hint: f64) {
    match route {
        Route::Closure => eng.with_node(NodeId(node), |p, _| {
            let spec = ConsistencySpec::builder().hint(hint).build().expect("valid hint");
            spec.apply_to(p).expect("valid hint");
        }),
        Route::Session => Session::open(eng, NodeId(node)).set_hint(hint).expect("valid hint"),
    }
}

// ====================================================================
// Fixed-seed pin: the shard_trace Formula-1 scenario, session-routed
// ====================================================================

/// The Formula-1 / whiteboard scenario of `tests/shard_trace.rs`, stimulus
/// routing parameterised.
fn formula1_scenario(route: Route) -> Trace {
    let cfg = IdeaConfig::whiteboard(0.93);
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
            write(&mut eng, route, w, OBJ_A, 1);
            write(&mut eng, route, w, OBJ_B, 2);
            eng.run_for(SimDuration::from_millis(500));
        }
    }
    eng.run_for(SimDuration::from_secs(2));
    for wave in 0..4 {
        for w in 0..4u32 {
            write(&mut eng, route, w, OBJ_A, wave + 1);
            if w % 2 == 0 {
                write(&mut eng, route, w, OBJ_B, 5);
            }
        }
        eng.run_for(SimDuration::from_secs(3));
    }
    read(&mut eng, route, 5, OBJ_A);
    demand(&mut eng, route, 0, OBJ_B);
    eng.run_for(SimDuration::from_secs(10));
    collect(&eng, n, &objects)
}

/// The Formula-1 trace pin. Replica/level outcomes match the trace
/// captured at `8d9bef3` (the last commit before the protocol store was
/// sharded). The message counts were recorded at `1cd6a41`, the last
/// commit with the eager gossip flood, by running this scenario on the
/// lazy plane that is now the only one (closure- and session-routed runs
/// gave the same counts).
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

#[test]
fn session_routed_commands_reproduce_the_pre_redesign_trace() {
    assert_eq!(formula1_scenario(Route::Session), formula1_pin());
}

#[test]
fn closure_and_session_routes_are_bit_identical() {
    assert_eq!(formula1_scenario(Route::Closure), formula1_scenario(Route::Session));
}

// ====================================================================
// Property pin: random operation sequences
// ====================================================================

const NODES: usize = 6;
const OBJECTS: u64 = 4;

#[derive(Debug, Clone)]
enum OpKind {
    Write(i64),
    Read,
    Demand,
    SetHint(u8),
}

#[derive(Debug, Clone)]
struct Op {
    node: u32,
    object: u64,
    kind: OpKind,
    gap_ms: u64,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    (0..NODES as u32, 0..OBJECTS, 0..20u8, 1..5i64, 80..92u8, 50..1500u64).prop_map(
        |(node, object, k, delta, hint, gap_ms)| {
            let kind = match k {
                0..=11 => OpKind::Write(delta),
                12..=15 => OpKind::Read,
                16..=17 => OpKind::Demand,
                _ => OpKind::SetHint(hint),
            };
            Op { node, object, kind, gap_ms }
        },
    )
}

fn run(ops: &[Op], seed: u64, route: Route) -> Trace {
    let objects: Vec<ObjectId> = (0..OBJECTS).map(ObjectId).collect();
    let cfg = IdeaConfig::whiteboard(0.9);
    let nodes: Vec<IdeaNode> =
        (0..NODES).map(|i| IdeaNode::new(NodeId(i as u32), cfg.clone(), &objects)).collect();
    let mut eng = SimEngine::new(
        Topology::planetlab(NODES, seed),
        SimConfig { seed, ..Default::default() },
        nodes,
    );
    for op in ops {
        let obj = ObjectId(op.object);
        match op.kind {
            OpKind::Write(delta) => write(&mut eng, route, op.node, obj, delta),
            OpKind::Read => read(&mut eng, route, op.node, obj),
            OpKind::Demand => demand(&mut eng, route, op.node, obj),
            OpKind::SetHint(h) => set_hint(&mut eng, route, op.node, h as f64 / 100.0),
        }
        eng.run_for(SimDuration::from_millis(op.gap_ms));
    }
    eng.run_for(SimDuration::from_secs(8));
    collect(&eng, NODES, &objects)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// For arbitrary operation sequences, the session route and the
    /// closure route leave the deployment in identical externally
    /// observable states — replicas, levels, traffic and resolutions.
    #[test]
    fn random_workloads_are_route_invariant(
        ops in prop::collection::vec(op_strategy(), 1..40),
        seed in 0..u64::MAX / 2,
    ) {
        let closure = run(&ops, seed, Route::Closure);
        let session = run(&ops, seed, Route::Session);
        prop_assert_eq!(closure, session);
    }
}
