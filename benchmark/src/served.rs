//! The served path: a 4-node durable deployment behind the evented
//! `IdeaServer`, driven by one raw-frame client thread over loopback TCP.

use crate::ops::{Op, HINT, SERVED_NODES, SERVED_OBJECTS};
use crate::stats::{LevelHistogram, Samples};
use crate::trace::{take_handler_times, BenchNode, DispatchSamples, HandlerTimes, TimedExecutor};
use idea::prelude::{
    CommandExecutor, ExtendedVersionVector, IdeaConfig, IdeaNode, IdeaServer, NodeId, ObjectId,
    Response, ShardId, ShardedEngine, ThreadedConfig, Topology,
};
use idea::transport::frame::{frame_bytes, parse_frame, read_frame, Frame, FramePayload};
use idea_wal::DurabilityConfig;
use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Store/protocol shards per node, engine workers per node, and client
/// connections (an object's connection is its shard's index).
const SHARDS: usize = 2;
/// Group-commit window of the deployment's WAL.
pub const GROUP_COMMIT: u64 = 32;
/// Requests the closed-loop client keeps outstanding.
pub const OUTSTANDING: usize = 64;
/// A request unanswered this long after the last send has failed.
const REPLY_DEADLINE: Duration = Duration::from_secs(20);

/// How the client decides when to send the next request.
#[derive(Debug, Clone, Copy)]
pub enum Pacing {
    /// Closed loop: a new request goes out only when fewer than this many
    /// are outstanding.
    Closed(usize),
    /// Open loop: request `i` is due `i × interval` after the start,
    /// whatever the system does; latency counts from the due time.
    Open(Duration),
}

pub fn objects() -> Vec<ObjectId> {
    (1..=SERVED_OBJECTS).map(ObjectId).collect()
}

/// The deployment's node configuration, durable under `wal_dir`.
pub fn node_config(wal_dir: &Path) -> IdeaConfig {
    let mut cfg = IdeaConfig::whiteboard(HINT);
    cfg.store_shards = SHARDS;
    cfg.durability = DurabilityConfig::sync_grouped(wal_dir, GROUP_COMMIT);
    cfg
}

struct Conn {
    stream: TcpStream,
    inbuf: Vec<u8>,
    in_start: usize,
    out: Vec<u8>,
    out_start: usize,
}

impl Conn {
    /// Writes as much pending output as the socket takes.
    fn flush(&mut self) -> std::io::Result<()> {
        while self.out_start < self.out.len() {
            match self.stream.write(&self.out[self.out_start..]) {
                Ok(0) => return Err(ErrorKind::WriteZero.into()),
                Ok(n) => self.out_start += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        self.out.clear();
        self.out_start = 0;
        Ok(())
    }

    /// Drains the socket into the input buffer; `false` once it closed.
    fn fill(&mut self) -> std::io::Result<bool> {
        let mut scratch = [0u8; 64 * 1024];
        loop {
            match self.stream.read(&mut scratch) {
                Ok(0) => return Ok(false),
                Ok(n) => self.inbuf.extend_from_slice(&scratch[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(true),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }
}

/// A running deployment with its greeted client connections.
pub struct Deployment<P: BenchNode> {
    engine: Arc<ShardedEngine<P>>,
    timed: Option<Arc<TimedExecutor<P>>>,
    server: IdeaServer,
    conns: Vec<Conn>,
    poll: mio::Poll,
    cfg: IdeaConfig,
    wal_dir: PathBuf,
    /// Seconds from the first node built to the last connection greeted.
    pub setup_s: f64,
}

impl<P: BenchNode> Deployment<P> {
    /// Builds the nodes (fresh WAL genesis under `wal_dir`), starts the
    /// engine and the server, and opens the greeted client connections.
    pub fn start(seed: u64, wal_dir: PathBuf) -> Self {
        let t0 = Instant::now();
        let cfg = node_config(&wal_dir);
        let objects = objects();
        let nodes: Vec<P> = (0..SERVED_NODES)
            .map(|i| P::wrap(IdeaNode::new(NodeId(i), cfg.clone(), &objects)))
            .collect();
        let engine = Arc::new(ShardedEngine::start(
            Topology::lan(SERVED_NODES as usize),
            ThreadedConfig { seed, time_scale: 1.0, shards: SHARDS },
            nodes,
        ));
        let timed = P::TRACED.then(|| Arc::new(TimedExecutor::new(Arc::clone(&engine))));
        let executor: Arc<dyn CommandExecutor> = match &timed {
            Some(t) => Arc::clone(t) as Arc<dyn CommandExecutor>,
            None => Arc::clone(&engine) as Arc<dyn CommandExecutor>,
        };
        let server = IdeaServer::bind("127.0.0.1:0", executor).expect("bind loopback server");
        let poll = mio::Poll::new().expect("client poller");
        let conns = (0..SHARDS)
            .map(|i| {
                let mut stream = TcpStream::connect(server.local_addr()).expect("connect client");
                stream.set_nodelay(true).expect("TCP_NODELAY");
                let hello = read_frame(&mut stream).expect("greeting frame").expect("greeting");
                assert!(
                    matches!(hello.payload, FramePayload::Hello { nodes } if nodes == SERVED_NODES),
                    "unexpected greeting {hello:?}"
                );
                stream.set_nonblocking(true).expect("nonblocking client socket");
                poll.registry()
                    .register(&stream, mio::Token(i), mio::Interest::READABLE)
                    .expect("register client socket");
                Conn { stream, inbuf: Vec::new(), in_start: 0, out: Vec::new(), out_start: 0 }
            })
            .collect();
        let setup_s = t0.elapsed().as_secs_f64();
        Deployment { engine, timed, server, conns, poll, cfg, wal_dir, setup_s }
    }
}

/// What one client run over a deployment measured.
#[derive(Debug, Default)]
pub struct ClientRun {
    pub ops: usize,
    pub failed: usize,
    /// First send to last reply.
    pub wall_s: f64,
    /// Send (closed loop) or due time (open loop) → matching reply, ns.
    pub write_ns: Samples,
    pub read_ns: Samples,
    /// The level estimate every read reply carried.
    pub levels: LevelHistogram,
    pub acked_writes: usize,
    pub bytes_out: u64,
    pub bytes_in: u64,
    /// Open loop only: the latest any send ran behind its due time.
    pub max_late_ns: u64,
    /// Traced passes only: per-request `frame_bytes` / `parse_frame` time.
    pub encode_ns: Samples,
    pub decode_ns: Samples,
}

impl<P: BenchNode> Deployment<P> {
    /// Drives `ops` through the server from this thread and checks every
    /// reply: known request id, echoed node, and the variant its command
    /// expects. Anything else — or no reply — is a failed operation. Only
    /// the requests in flight are held, so the client's memory does not
    /// grow with the length of the run (the latency samples apart).
    pub fn drive(
        &mut self,
        mut ops: impl ExactSizeIterator<Item = Op>,
        pacing: Pacing,
    ) -> ClientRun {
        let n = ops.len();
        let mut run = ClientRun { ops: n, ..ClientRun::default() };
        // Request id → when its latency counts from, and what was asked.
        let mut in_flight: HashMap<u64, (Instant, Op)> = HashMap::new();
        let mut events = mio::Events::with_capacity(16);
        let (mut next, mut settled) = (0usize, 0usize);
        let start = Instant::now();
        let mut last_send = start;
        let mut last_reply = start;

        while settled < n {
            // Send phase.
            loop {
                if next == n {
                    break;
                }
                let base = match pacing {
                    Pacing::Closed(k) if in_flight.len() < k => Instant::now(),
                    Pacing::Closed(_) => break,
                    Pacing::Open(interval) => {
                        let due = start + interval * next as u32;
                        let now = Instant::now();
                        if now < due {
                            break;
                        }
                        run.max_late_ns = run.max_late_ns.max((now - due).as_nanos() as u64);
                        due
                    }
                };
                let op = ops.next().expect("the stream holds the operations it announced");
                let request_id = next as u64 + 1;
                let frame = Frame {
                    request_id,
                    node: op.node,
                    payload: FramePayload::Command(op.command()),
                };
                let t_enc = P::TRACED.then(Instant::now);
                let bytes = frame_bytes(&frame).expect("request fits a frame");
                if let Some(t) = t_enc {
                    run.encode_ns.push(t.elapsed().as_nanos() as u64);
                }
                run.bytes_out += bytes.len() as u64;
                let conn = &mut self.conns[ShardId::of(op.object, SHARDS).index()];
                conn.out.extend_from_slice(&bytes);
                in_flight.insert(request_id, (base, op));
                next += 1;
                last_send = Instant::now();
            }
            let mut blocked = false;
            for conn in &mut self.conns {
                conn.flush().expect("client socket write");
                blocked |= !conn.out.is_empty();
            }

            // Wait phase: until a reply, the next due send, or (socket
            // buffer full) a moment later.
            let timeout = match pacing {
                _ if blocked => Duration::from_millis(1),
                Pacing::Open(interval) if next < n => {
                    let due = start + interval * next as u32;
                    let wait = due.saturating_duration_since(Instant::now());
                    // The poller rounds up to whole milliseconds; spin
                    // through the last one rather than run late.
                    if wait < Duration::from_millis(1) {
                        Duration::ZERO
                    } else {
                        wait - Duration::from_millis(1)
                    }
                }
                _ => Duration::from_millis(100),
            };
            self.poll.poll(&mut events, Some(timeout)).expect("client poll");
            for event in events.iter() {
                let conn = &mut self.conns[event.token().0];
                let open = conn.fill().expect("client socket read");
                loop {
                    let t_dec = P::TRACED.then(Instant::now);
                    let parsed = parse_frame(&conn.inbuf[conn.in_start..]).expect("reply parses");
                    let Some((frame, used)) = parsed else { break };
                    if let Some(t) = t_dec {
                        run.decode_ns.push(t.elapsed().as_nanos() as u64);
                    }
                    conn.in_start += used;
                    run.bytes_in += used as u64;
                    last_reply = Instant::now();
                    let Some((base, op)) = in_flight.remove(&frame.request_id) else {
                        run.failed += 1; // unknown or duplicate request id
                        continue;
                    };
                    settled += 1;
                    let ns = last_reply.saturating_duration_since(base).as_nanos() as u64;
                    match frame.payload {
                        FramePayload::Response(Response::Written { .. })
                            if op.kind.is_write() && frame.node == op.node =>
                        {
                            run.acked_writes += 1;
                            run.write_ns.push(ns);
                        }
                        FramePayload::Response(Response::Value { read })
                            if !op.kind.is_write()
                                && frame.node == op.node
                                && read.object == op.object =>
                        {
                            run.levels.record(read.level.value());
                            run.read_ns.push(ns);
                        }
                        _ => run.failed += 1,
                    }
                }
                if conn.in_start == conn.inbuf.len() {
                    conn.inbuf.clear();
                    conn.in_start = 0;
                }
                assert!(open, "server closed a client connection mid-run");
            }
            if last_send.max(last_reply).elapsed() > REPLY_DEADLINE {
                break; // stalled: whatever is unsettled has failed
            }
        }
        run.failed += n - settled; // unanswered at the deadline
        run.wall_s = (last_reply - start).as_secs_f64();
        run
    }
}

/// What tearing a deployment down found: the engine's traffic counters,
/// the server's loop counters, per-node protocol state, and the WAL check.
pub struct Teardown {
    /// Protocol messages and payload bytes between nodes, all classes.
    pub net_msgs: u64,
    pub net_bytes: u64,
    pub per_class: Vec<(idea::net::MsgClass, u64, u64)>,
    pub net_dropped: u64,
    pub loop_wakeups: u64,
    pub reads_deferred: u64,
    pub threads: u64,
    pub resolutions: usize,
    pub resolutions_useful: usize,
    /// Mean `ResolutionRecord::total_delay`, ms of engine time.
    pub resolve_ms_mean: f64,
    pub rollbacks: u64,
    pub wal_bytes: u64,
    pub wal_tail_records: u64,
    pub recover_ms: f64,
    /// Every node's recovered `state_hash` equals its stopped one.
    pub recovered_identical: bool,
    pub dispatch: DispatchSamples,
    pub handlers: HandlerTimes,
    /// Every node's end-of-run version vector of the first object, for the
    /// `vv` probe; the stopped nodes themselves are dropped here.
    pub probe_vectors: Vec<ExtendedVersionVector>,
}

impl<P: BenchNode> Deployment<P> {
    /// Stops the server, then the engine, and only then touches the WAL
    /// directory (removing it under a live worker panics its snapshot):
    /// flushes, recovers every node from disk and compares state hashes.
    pub fn stop(self) -> Teardown {
        let Deployment { engine, timed, server, conns, poll, cfg, wal_dir, .. } = self;
        let threads = crate::proc_status("Threads:");
        drop((conns, poll));
        let stats = engine.stats();
        let (loop_wakeups, reads_deferred) = (server.loop_wakeups(), server.reads_deferred_total());
        server.stop();
        let dispatch = timed.map(|t| t.take_samples()).unwrap_or_default();
        let engine = Arc::try_unwrap(engine).ok().expect("server released the engine");
        let mut nodes: Vec<IdeaNode> = engine.stop().into_iter().map(P::into_idea).collect();
        let handlers = take_handler_times();

        let probe = ObjectId(1);
        let logs: Vec<_> = nodes.iter().flat_map(|n| n.resolution_log()).collect();
        let resolve_ms_mean = if logs.is_empty() {
            0.0
        } else {
            logs.iter().map(|r| r.total_delay().as_millis_f64()).sum::<f64>() / logs.len() as f64
        };
        let rollbacks = nodes.iter().map(|n| n.report(probe).rollbacks).sum();
        let probe_vectors =
            nodes.iter().map(|n| n.replica(probe).expect("hosted").version().clone()).collect();
        let wal_tail_records = nodes
            .iter()
            .flat_map(|n| n.shards())
            .filter_map(|s| s.store().wal())
            .map(|w| w.tail_records())
            .sum();
        let wal_bytes = crate::probes::dir_bytes(&wal_dir);
        let stopped: Vec<u64> = nodes.iter().map(IdeaNode::state_hash).collect();
        nodes.iter_mut().for_each(IdeaNode::flush_durability);
        // The stopped nodes go before the recovered ones are built, so the
        // process never holds the deployment's state twice and `VmHWM`
        // stays the serving high-water mark.
        drop(nodes);

        let t0 = Instant::now();
        let objects = objects();
        let recovered: Vec<u64> = (0..SERVED_NODES)
            .map(|i| {
                IdeaNode::recover(NodeId(i), cfg.clone(), &objects)
                    .expect("valid config")
                    .state_hash()
            })
            .collect();
        let recover_ms = t0.elapsed().as_secs_f64() * 1e3;
        std::fs::remove_dir_all(&wal_dir).expect("remove the round's WAL directory");

        Teardown {
            net_msgs: stats.per_class.iter().map(|(_, m, _)| m).sum(),
            net_bytes: stats.per_class.iter().map(|(_, _, b)| b).sum(),
            per_class: stats.per_class,
            net_dropped: stats.dropped,
            loop_wakeups,
            reads_deferred,
            threads,
            resolutions: logs.len(),
            resolutions_useful: logs.iter().filter(|r| r.resolved_conflict).count(),
            resolve_ms_mean,
            rollbacks,
            wal_bytes,
            wal_tail_records,
            recover_ms,
            recovered_identical: recovered == stopped,
            dispatch,
            handlers,
            probe_vectors,
        }
    }
}
