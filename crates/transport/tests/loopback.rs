//! Loopback equivalence: the acceptance pin for the served system.
//!
//! 1. A fixed session trace driven through
//!    `RemoteEngine → TCP → IdeaServer → LockedEngine<SimEngine>`
//!    reproduces the in-process PR-4 trace **bit-for-bit** (the
//!    deterministic engine is the one whose responses are reproducible
//!    down to the timestamp, which is what makes a byte-level comparison
//!    honest).
//! 2. The same remote session function runs against a served
//!    `ShardedEngine` over real TCP — the write path's deterministic
//!    projection (sanctioned update identities) matches the in-process
//!    run, and errors crossing the wire are the identical typed values.

use idea_core::client::ReadConsistency;
use idea_core::quantify::Weights;
use idea_core::resolution::ResolutionPolicy;
use idea_core::{
    Command, ConsistencySpec, EngineHandle, IdeaConfig, IdeaNode, LockedEngine, Response, Session,
};
use idea_net::{ShardedEngine, SimConfig, SimEngine, ThreadedConfig, Topology};
use idea_transport::{IdeaServer, RemoteEngine};
use idea_types::codec::Codec;
use idea_types::{ConsistencyLevel, NodeId, ObjectId, SimDuration, UpdatePayload, WireError};
use std::sync::Arc;

const OBJ_A: ObjectId = ObjectId(1);
const OBJ_B: ObjectId = ObjectId(7);
const MISSING: ObjectId = ObjectId(99);
const N: usize = 3;

fn sim_engine() -> SimEngine<IdeaNode> {
    let nodes: Vec<IdeaNode> = (0..N)
        .map(|i| IdeaNode::new(NodeId(i as u32), IdeaConfig::default(), &[OBJ_A, OBJ_B]))
        .collect();
    SimEngine::new(Topology::lan(N), SimConfig { seed: 11, ..Default::default() }, nodes)
}

/// The fixed-seed session trace: every command variant, valid and invalid,
/// across nodes and objects. Timing-free, so the deterministic engine
/// produces the identical byte stream on every run.
fn script() -> Vec<(u32, Command)> {
    let spec = ConsistencySpec::builder()
        .metric(10.0, 10.0, SimDuration::from_secs(10))
        .weights(0.3, 0.3, 0.4)
        .resolution(ResolutionPolicy::PriorityWins)
        .hint(0.8)
        .build()
        .expect("valid spec");
    let mut ops: Vec<(u32, Command)> = vec![
        (0, Command::Configure { spec }),
        (1, Command::SetHint { hint: 0.9 }),
        (2, Command::SetResolution { code: 2 }),
        (0, Command::SetPriority { node: NodeId(2), priority: 7 }),
    ];
    for round in 0..4i64 {
        for node in 0..N as u32 {
            ops.push((
                node,
                Command::Write {
                    object: OBJ_A,
                    meta_delta: round + i64::from(node),
                    payload: UpdatePayload::Stroke { x: 1, y: 2, text: "s".into() },
                },
            ));
            ops.push((
                node,
                Command::Write { object: OBJ_B, meta_delta: 2, payload: UpdatePayload::none() },
            ));
        }
    }
    ops.push((0, Command::Read { object: OBJ_A, consistency: ReadConsistency::Any }));
    ops.push((
        1,
        Command::Read {
            object: OBJ_A,
            consistency: ReadConsistency::AtLeast(ConsistencyLevel::new(0.99)),
        },
    ));
    ops.push((2, Command::Read { object: OBJ_B, consistency: ReadConsistency::Fresh }));
    ops.push((0, Command::Peek { object: OBJ_B }));
    ops.push((1, Command::Level { object: OBJ_A }));
    ops.push((2, Command::Report { object: OBJ_A }));
    ops.push((0, Command::DemandResolution { object: OBJ_A }));
    ops.push((1, Command::Dissatisfied { object: OBJ_B, new_weights: None }));
    ops.push((2, Command::Dissatisfied { object: OBJ_B, new_weights: Some(Weights::WHITEBOARD) }));
    // Rejections must cross the wire as the identical typed errors.
    ops.push((0, Command::Peek { object: MISSING }));
    ops.push((
        1,
        Command::Write { object: MISSING, meta_delta: 1, payload: UpdatePayload::none() },
    ));
    ops.push((9, Command::Level { object: OBJ_A })); // unknown node
    ops.push((0, Command::SetHint { hint: 1.5 })); // out of domain
    ops.push((2, Command::Report { object: OBJ_B }));
    ops
}

/// Runs the script through any engine handle, collecting the responses.
fn drive<E: EngineHandle>(eng: &mut E) -> Vec<Response> {
    script().into_iter().map(|(node, cmd)| Session::open(eng, NodeId(node)).execute(cmd)).collect()
}

#[test]
fn remote_trace_is_bit_identical_to_in_process() {
    // In-process reference: the PR-4 surface, engine driven directly.
    let mut local = sim_engine();
    let local_trace = drive(&mut local);

    // Served run: identical engine behind LockedEngine → IdeaServer → TCP.
    let shared = Arc::new(LockedEngine::new(sim_engine()));
    let server = IdeaServer::bind("127.0.0.1:0", shared.clone()).expect("bind loopback");
    let mut remote = RemoteEngine::connect(server.local_addr()).expect("connect");
    assert_eq!(EngineHandle::nodes(&remote), N, "Hello must carry the deployment size");
    let remote_trace = drive(&mut remote);

    assert_eq!(remote_trace.len(), local_trace.len());
    for (i, (r, l)) in remote_trace.iter().zip(&local_trace).enumerate() {
        assert_eq!(r, l, "trace diverges at op {i}: {:?}", script()[i]);
        // Bit-for-bit, not just structurally equal.
        assert_eq!(r.to_bytes(), l.to_bytes(), "encoded bytes diverge at op {i}");
    }

    server.stop();
    drop(remote);
}

/// The same session function against a served ShardedEngine over real TCP:
/// the sanctioned-update identities of a sequential write drain are
/// deterministic (per-node writer sequence numbers), so they must match
/// the in-process run exactly even though the engine is threaded.
#[test]
fn remote_sharded_write_path_matches_in_process() {
    const SHARDS: usize = 2;
    const OBJECTS: [ObjectId; 4] = [ObjectId(1), ObjectId(2), ObjectId(3), ObjectId(7)];
    let build = || -> ShardedEngine<IdeaNode> {
        let cfg = IdeaConfig { store_shards: SHARDS, ..IdeaConfig::default() };
        let nodes: Vec<IdeaNode> =
            (0..2).map(|i| IdeaNode::new(NodeId(i), cfg.clone(), &OBJECTS)).collect();
        ShardedEngine::start(
            Topology::lan(2),
            ThreadedConfig { seed: 5, time_scale: 0.01, shards: SHARDS },
            nodes,
        )
    };
    // Writes through an engine handle: returns (writer, seq, object, delta).
    fn written<E: EngineHandle>(eng: &mut E) -> Vec<(u32, u64, u64, i64)> {
        let mut out = Vec::new();
        for round in 0..3i64 {
            for &obj in &OBJECTS {
                let mut session = Session::open(eng, NodeId(0));
                let update =
                    session.object(obj).write(round + 1, UpdatePayload::none()).expect("write");
                out.push((update.writer().0, update.seq(), update.object.0, update.meta_delta));
            }
        }
        out
    }

    let mut local = build();
    let local_writes = written(&mut local);
    let _ = local.stop();

    let engine = Arc::new(build());
    let server = IdeaServer::bind("127.0.0.1:0", engine.clone()).expect("bind loopback");
    let mut remote = RemoteEngine::connect_pool(server.local_addr(), 2).expect("connect pool");
    let remote_writes = written(&mut remote);

    assert_eq!(remote_writes, local_writes, "write path diverges over the wire");

    // Rejections are the identical typed error, local and remote.
    let remote_rejection =
        Session::open(&mut remote, NodeId(0)).execute(Command::Peek { object: MISSING });
    assert_eq!(remote_rejection, Response::Rejected { error: WireError::UnknownObject(MISSING) });

    server.stop();
    drop(remote);
    let engine = Arc::try_unwrap(engine).ok().expect("server released the engine");
    let _ = engine.stop();
}

/// Once the server is gone, a remote command surfaces a typed transport
/// error — the boundary never panics.
#[test]
fn lost_server_is_a_typed_error_not_a_panic() {
    let shared = Arc::new(LockedEngine::new(sim_engine()));
    let server = IdeaServer::bind("127.0.0.1:0", shared).expect("bind loopback");
    let mut remote = RemoteEngine::connect(server.local_addr())
        .expect("connect")
        .with_response_timeout(std::time::Duration::from_secs(2));
    server.stop();
    // Writes may race the close notification; retry until the error shows.
    let mut last = None;
    for _ in 0..50 {
        match Session::open(&mut remote, NodeId(0)).execute(Command::Peek { object: OBJ_A }) {
            Response::Rejected { error } => {
                last = Some(error);
                break;
            }
            _ => std::thread::sleep(std::time::Duration::from_millis(10)),
        }
    }
    match last {
        Some(WireError::Transport(_)) | Some(WireError::Protocol(_)) => {}
        other => panic!("expected a typed transport error, got {other:?}"),
    }
}
