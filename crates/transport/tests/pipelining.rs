//! The fire-and-forget pin: `submit` must genuinely pipeline — N submits
//! complete without N round-trip waits — on both the remote stub and the
//! in-process threaded engine. Alongside it, the server's batch contract:
//! the commands of one burst reach the executor in arrival order, whether
//! a fire-and-forget submit or a node-wide command sits between them.
//!
//! The CI `transport-smoke` job repeats the ordering tests in release
//! mode: batching changes when shard workers run, and one pass of an
//! ordering race proves little.

use idea_core::client::ReadConsistency;
use idea_core::{Command, CommandExecutor, EngineHandle, IdeaConfig, IdeaNode, Response, Session};
use idea_net::{ShardedEngine, ThreadedConfig, Topology};
use idea_transport::frame::{encode_into, read_frame, Frame, FramePayload, NO_REPLY};
use idea_transport::{IdeaServer, RemoteEngine};
use idea_types::{lock, NodeId, ObjectId, UpdatePayload, WireError};
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const OBJ: ObjectId = ObjectId(1);

/// An executor that takes `delay` per command — a stand-in for a busy
/// engine, making any hidden per-command round trip show up as wall time.
struct SlowExecutor {
    delay: Duration,
    applied: Mutex<Vec<Command>>,
}

impl SlowExecutor {
    fn new(delay: Duration) -> Self {
        SlowExecutor { delay, applied: Mutex::new(Vec::new()) }
    }
}

impl CommandExecutor for SlowExecutor {
    fn node_count(&self) -> usize {
        1
    }

    fn try_execute(&self, _node: NodeId, cmd: Command) -> std::result::Result<Response, WireError> {
        std::thread::sleep(self.delay);
        lock(&self.applied).push(cmd);
        Ok(Response::Done)
    }
}

/// N submits against a server whose executor costs `DELAY` per command
/// must return in far less than N × DELAY: the client writes the frames
/// and moves on, while the server chews through them. The closing
/// blocking execute observes all previous commands applied (per-connection
/// arrival order), and the stats pin exactly one awaited round trip.
#[test]
fn remote_submits_pipeline_without_round_trips() {
    const WRITES: u64 = 15;
    const DELAY: Duration = Duration::from_millis(30);
    let executor = Arc::new(SlowExecutor::new(DELAY));
    let server = IdeaServer::bind("127.0.0.1:0", executor.clone()).expect("bind loopback");
    let mut remote = RemoteEngine::connect(server.local_addr()).expect("connect");

    let started = Instant::now();
    for i in 0..WRITES {
        remote.submit(
            NodeId(0),
            Command::Write { object: OBJ, meta_delta: i as i64, payload: UpdatePayload::none() },
        );
    }
    let submit_wall = started.elapsed();
    // Serial floor would be WRITES × DELAY = 450 ms; allow half before
    // declaring a hidden block.
    assert!(
        submit_wall < DELAY * (WRITES as u32) / 2,
        "submits took {submit_wall:?} — they are waiting on replies"
    );

    // One blocking command flushes the connection: the reader processes
    // frames in arrival order, so every submit has been applied by the
    // time its response arrives.
    let response = remote.execute(NodeId(0), Command::Peek { object: OBJ });
    assert_eq!(response, Response::Done, "SlowExecutor answers everything with Done");
    let applied: Vec<i64> = lock(&executor.applied).iter().map(meta_delta).collect();
    let sent: Vec<i64> = (0..WRITES as i64).chain([-1]).collect();
    assert_eq!(applied, sent, "pipelined submits, then the flush, in arrival order");

    let stats = remote.stats();
    assert_eq!(stats.frames_sent, WRITES + 1);
    assert_eq!(stats.replies_awaited, 1, "only the flush may wait a round trip");

    server.stop();
}

/// The `meta_delta` of a write, `-1` for any other command.
fn meta_delta(cmd: &Command) -> i64 {
    match cmd {
        Command::Write { meta_delta, .. } => *meta_delta,
        _ => -1,
    }
}

fn write(object: ObjectId, meta_delta: i64) -> Command {
    Command::Write { object, meta_delta, payload: UpdatePayload::none() }
}

/// A raw client connection, past the server's greeting.
fn raw_client(addr: SocketAddr) -> TcpStream {
    let mut client = TcpStream::connect(addr).unwrap();
    client.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    let hello = read_frame(&mut client).unwrap().expect("greeting");
    assert!(matches!(hello.payload, FramePayload::Hello { .. }), "{hello:?}");
    client
}

/// Sends `frames` to node 0 in one `write`, so the server parses them in
/// one pass: `(request_id, command)`, id [`NO_REPLY`] for fire-and-forget.
fn send_burst(client: &mut TcpStream, frames: impl IntoIterator<Item = (u64, Command)>) {
    let mut burst = Vec::new();
    for (request_id, cmd) in frames {
        let frame = Frame { request_id, node: NodeId(0), payload: FramePayload::Command(cmd) };
        encode_into(&frame, &mut burst).unwrap();
    }
    client.write_all(&burst).unwrap();
}

/// The next `n` responses, by request id.
fn responses(client: &mut TcpStream, n: usize) -> Vec<(u64, Response)> {
    let mut out: Vec<(u64, Response)> = (0..n)
        .map(|_| {
            let frame = read_frame(client).unwrap().expect("response stream ended early");
            let FramePayload::Response(response) = frame.payload else {
                panic!("unexpected frame {frame:?}");
            };
            (frame.request_id, response)
        })
        .collect();
    out.sort_by_key(|(id, _)| *id);
    out
}

/// Fire-and-forget frames interleaved with frames owing a reply, in one
/// burst: the server hands the reply-owing commands gathered so far to the
/// executor before it submits a fire-and-forget one, so every command is
/// applied in arrival order.
#[test]
fn submits_between_dispatched_commands_keep_arrival_order() {
    const FRAMES: i64 = 40;
    let executor = Arc::new(SlowExecutor::new(Duration::ZERO));
    let server = IdeaServer::bind("127.0.0.1:0", executor.clone()).expect("bind loopback");
    let mut client = raw_client(server.local_addr());

    // Every third frame is fire-and-forget.
    let id_of = |i: i64| if i % 3 == 1 { NO_REPLY } else { i as u64 + 1 };
    send_burst(&mut client, (0..FRAMES).map(|i| (id_of(i), write(OBJ, i))));
    let owed = (0..FRAMES).filter(|&i| id_of(i) != NO_REPLY).count();
    assert!(responses(&mut client, owed).iter().all(|(_, r)| *r == Response::Done));
    // The last frame owes a reply, so every frame has been applied by now.
    let applied: Vec<i64> = lock(&executor.applied).iter().map(meta_delta).collect();
    assert_eq!(applied, (0..FRAMES).collect::<Vec<_>>(), "applied out of arrival order");
    server.stop();
}

/// A node-wide command between object-addressed ones in one burst to a
/// sharded engine: the report runs inline on the loop only after the write
/// before it was sent to its shard worker, so both the report and the read
/// behind it see the write.
#[test]
fn a_node_wide_command_sees_the_batch_before_it() {
    const ROUNDS: i64 = 20;
    let shards = 2;
    let cfg = IdeaConfig { store_shards: shards, ..IdeaConfig::default() };
    let engine = Arc::new(ShardedEngine::start(
        Topology::lan(1),
        ThreadedConfig { shards, ..ThreadedConfig::default() },
        vec![IdeaNode::new(NodeId(0), cfg, &[OBJ])],
    ));
    let server = IdeaServer::bind("127.0.0.1:0", engine.clone()).expect("bind loopback");
    let mut client = raw_client(server.local_addr());

    for round in 1..=ROUNDS {
        let read = Command::Read { object: OBJ, consistency: ReadConsistency::Any };
        send_burst(
            &mut client,
            [(1, write(OBJ, 1)), (2, Command::Report { object: OBJ }), (3, read)],
        );
        let got = responses(&mut client, 3);
        assert!(matches!(got[0], (1, Response::Written { .. })), "{:?}", got[0]);
        let (2, Response::Report { report }) = &got[1] else { panic!("{:?}", got[1]) };
        assert_eq!((report.meta, report.updates), (round, round as usize), "the report");
        let (3, Response::Value { read }) = &got[2] else { panic!("{:?}", got[2]) };
        assert_eq!((read.meta, read.updates), (round, round as usize), "the read");
    }
    server.stop();
}

/// The same pin for the in-process threaded engine, with one worker per
/// node and with four: submits return while the object's worker is busy,
/// instead of queueing behind it for a reply.
#[test]
fn threaded_submits_do_not_block_on_a_busy_worker() {
    const WRITES: usize = 64;
    for shards in [1, 4] {
        let cfg = IdeaConfig { store_shards: shards, ..IdeaConfig::default() };
        let nodes = vec![IdeaNode::new(NodeId(0), cfg, &[OBJ])];
        let mut eng = ShardedEngine::start(
            Topology::lan(1),
            ThreadedConfig { shards, ..ThreadedConfig::default() },
            nodes,
        );

        // Occupy the owning worker so any hidden execute-and-wait would stall.
        eng.invoke(NodeId(0), eng.shard_for_object(OBJ), |_, _| {
            std::thread::sleep(Duration::from_millis(400))
        });

        let started = Instant::now();
        let mut session = Session::open(&mut eng, NodeId(0));
        for i in 0..WRITES {
            session.submit(Command::Write {
                object: OBJ,
                meta_delta: i as i64,
                payload: UpdatePayload::none(),
            });
        }
        let submit_wall = started.elapsed();
        assert!(
            submit_wall < Duration::from_millis(200),
            "{shards} shard(s): submits took {submit_wall:?} behind a 400 ms-busy worker"
        );

        // A blocking read drains the queue and sees every posted write.
        let read = Session::open(&mut eng, NodeId(0)).object(OBJ).peek().expect("peek");
        assert_eq!(read.updates, WRITES, "all fire-and-forget writes must apply in order");
        eng.stop();
    }
}
