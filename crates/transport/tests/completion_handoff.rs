//! The shard-worker → event-loop completion hand-off of the evented
//! [`IdeaServer`]: a completion wakes the loop only when no wake is
//! already pending, and no completion is ever stranded by a wake that was
//! skipped.
//!
//! The CI `transport-smoke` job repeats both tests in release mode: a
//! lost wakeup is a race, and one pass proves little.

use idea_core::client::ReadConsistency;
use idea_core::{Command, CommandExecutor, IdeaConfig, IdeaNode, Response};
use idea_net::{ShardedEngine, ThreadedConfig, Topology};
use idea_transport::frame::{encode_into, read_frame, Frame, FramePayload};
use idea_transport::{IdeaServer, RemoteEngine};
use idea_types::{NodeId, ObjectId};
use std::io::Write;
use std::net::TcpStream;
use std::sync::{mpsc, Arc};
use std::time::Duration;

const SHARDS: usize = 4;
const OBJECTS: [ObjectId; 8] = [
    ObjectId(1),
    ObjectId(2),
    ObjectId(3),
    ObjectId(4),
    ObjectId(5),
    ObjectId(6),
    ObjectId(7),
    ObjectId(8),
];

/// A two-node `ShardedEngine` behind a server.
fn serve() -> (Arc<ShardedEngine<IdeaNode>>, IdeaServer) {
    let cfg = IdeaConfig { store_shards: SHARDS, ..IdeaConfig::default() };
    let nodes: Vec<IdeaNode> =
        (0..2).map(|i| IdeaNode::new(NodeId(i), cfg.clone(), &OBJECTS)).collect();
    let engine = Arc::new(ShardedEngine::start(
        Topology::lan(2),
        ThreadedConfig { seed: 13, time_scale: 0.01, shards: SHARDS },
        nodes,
    ));
    let server = IdeaServer::bind("127.0.0.1:0", engine.clone()).expect("bind loopback");
    (engine, server)
}

fn read_of(object: ObjectId) -> Command {
    Command::Read { object, consistency: ReadConsistency::Any }
}

/// 5,000 reads pipelined down one connection are answered by shard
/// workers, yet the hand-off wakes the loop at most once per pass — never
/// once per reply, which is what every reply callback used to do.
#[test]
fn pipelined_replies_share_wakes() {
    const READS: u64 = 5_000;
    let (_engine, server) = serve();

    let mut client = TcpStream::connect(server.local_addr()).unwrap();
    client.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    let hello = read_frame(&mut client).unwrap().expect("greeting");
    assert!(matches!(hello.payload, FramePayload::Hello { .. }), "{hello:?}");

    let mut burst = Vec::new();
    for id in 1..=READS {
        let frame = Frame {
            request_id: id,
            node: NodeId(0),
            payload: FramePayload::Command(read_of(OBJECTS[id as usize % OBJECTS.len()])),
        };
        encode_into(&frame, &mut burst).unwrap();
    }
    client.write_all(&burst).unwrap();

    let mut answered = vec![false; READS as usize + 1];
    for _ in 0..READS {
        let frame = read_frame(&mut client).unwrap().expect("response stream ended early");
        let FramePayload::Response(Response::Value { .. }) = frame.payload else {
            panic!("unexpected reply {frame:?}");
        };
        assert!(!std::mem::replace(&mut answered[frame.request_id as usize], true));
    }

    // Read the wake count first: both counters only grow, so a pass that
    // lands between the two loads can only widen the margin.
    let completion_wakes = server.completion_wakes();
    let loop_wakeups = server.loop_wakeups();
    assert!(completion_wakes >= 1, "shard workers complete off the loop thread and must wake it");
    assert!(
        completion_wakes <= loop_wakeups,
        "one wake per pass at most: {completion_wakes} wakes over {loop_wakeups} passes"
    );
    assert!(
        completion_wakes < READS / 10,
        "{completion_wakes} wakes for {READS} replies: the hand-off is not coalescing"
    );
}

/// The lost-wakeup stress: 8 clients each run 2,000 strictly serial
/// requests — one outstanding at a time, so the loop is as idle as it gets
/// between completions and a single stranded completion hangs its client
/// for good. Every client must finish well inside the deadline.
#[test]
fn serial_requests_never_strand() {
    const CLIENTS: usize = 8;
    const REQUESTS: usize = 2_000;
    let (_engine, server) = serve();
    let addr = server.local_addr();

    let (done_tx, done_rx) = mpsc::channel();
    for client in 0..CLIENTS {
        let done_tx = done_tx.clone();
        std::thread::spawn(move || {
            let remote = RemoteEngine::connect(addr).expect("connect");
            for i in 0..REQUESTS {
                let object = OBJECTS[(client + i) % OBJECTS.len()];
                let response = remote.try_execute(NodeId((i % 2) as u32), read_of(object));
                assert!(matches!(response, Ok(Response::Value { .. })), "{response:?}");
            }
            let _ = done_tx.send(client);
        });
    }
    drop(done_tx);

    let deadline = std::time::Instant::now() + Duration::from_secs(20);
    for finished in 0..CLIENTS {
        let left = deadline.saturating_duration_since(std::time::Instant::now());
        done_rx.recv_timeout(left).unwrap_or_else(|_| {
            panic!("only {finished}/{CLIENTS} clients finished: a completion was stranded")
        });
    }
    assert!(server.completion_wakes() <= server.loop_wakeups());
}
