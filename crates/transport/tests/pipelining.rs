//! The fire-and-forget pin: `submit` must genuinely pipeline — N submits
//! complete without N round-trip waits — on both the remote stub and the
//! in-process threaded engine.

use idea_core::{Command, CommandExecutor, EngineHandle, IdeaConfig, IdeaNode, Response, Session};
use idea_net::{ShardedEngine, ThreadedConfig, Topology};
use idea_transport::{IdeaServer, RemoteEngine};
use idea_types::{lock, NodeId, ObjectId, UpdatePayload, WireError};
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
    assert_eq!(
        lock(&executor.applied).len() as u64,
        WRITES + 1,
        "all pipelined submits must be applied before the flush's response"
    );

    let stats = remote.stats();
    assert_eq!(stats.frames_sent, WRITES + 1);
    assert_eq!(stats.replies_awaited, 1, "only the flush may wait a round trip");

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
