//! [`RemoteEngine`]: the client stub that makes a served IDEA cluster look
//! like a local engine.
//!
//! Implements [`EngineHandle`] (and [`CommandExecutor`]), so the
//! `Session`/`ObjectHandle` API from `idea_core::client` runs unchanged
//! against a remote deployment. A small connection pool carries the
//! traffic; object-addressed commands are pinned to the pool connection
//! `ShardId::of(object, pool)` — the same hash the server-side shard
//! mailboxes use — so writes to one object stay FIFO end to end while
//! disjoint objects spread across connections.
//!
//! Blocking calls ([`EngineHandle::execute`]) register the request id,
//! write the frame and wait for the correlated response; fire-and-forget
//! calls ([`EngineHandle::submit`]) write a [`NO_REPLY`] frame and return
//! as soon as the bytes are handed to the socket — no hidden round trip,
//! which is what lets a write drain pipeline over one connection.

use crate::frame::{frame_bytes, read_frame, Frame, FramePayload, NO_REPLY};
use idea_core::{Command, CommandExecutor, EngineHandle, Response};
use idea_types::{lock, NodeId, ShardId, WireError};
use std::io::Write as _;
use std::net::{Shutdown, SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, SyncSender};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::Duration;

/// Counters for observing a client's traffic — the pipelining pin in
/// `tests/pipelining.rs` asserts on these.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RemoteStats {
    /// Command frames written (both blocking and fire-and-forget).
    pub frames_sent: u64,
    /// Round trips actually waited for (blocking executes only).
    pub replies_awaited: u64,
}

#[allow(clippy::disallowed_types)] // network-facing: keeps std's keyed hasher
type PendingMap = Mutex<std::collections::HashMap<u64, SyncSender<Result<Response, WireError>>>>;

/// Shared between a connection and its reader thread: the in-flight
/// request map plus the "connection is gone" marker. The reader records
/// the disconnect reason *before* draining the map, so a request that
/// registers after the drain still observes the failure instead of
/// waiting out its timeout.
struct ConnShared {
    pending: PendingMap,
    closed: Mutex<Option<WireError>>,
}

struct Connection {
    /// Write half; a lock serialises concurrent frame writes.
    write: Mutex<TcpStream>,
    /// For shutting the socket down on drop (unblocks the reader thread).
    raw: TcpStream,
    shared: Arc<ConnShared>,
    reader: Option<JoinHandle<()>>,
}

impl Connection {
    fn open(addr: SocketAddr, handshake_timeout: Duration) -> Result<(Self, u32), WireError> {
        let stream = TcpStream::connect(addr)
            .map_err(|e| WireError::Transport(format!("connect {addr}: {e}")))?;
        let _ = stream.set_nodelay(true);

        // Handshake under a read timeout so a silent peer cannot hang the
        // constructor; the reader thread afterwards blocks indefinitely.
        let _ = stream.set_read_timeout(Some(handshake_timeout));
        let mut read_half =
            stream.try_clone().map_err(|e| WireError::Transport(format!("clone stream: {e}")))?;
        let hello = read_frame(&mut read_half)?
            .ok_or_else(|| WireError::Transport("server closed during handshake".into()))?;
        let nodes = match hello.payload {
            FramePayload::Hello { nodes } => nodes,
            // The server refused admission: surface its typed rejection
            // (e.g. `ServerAtCapacity`) as this call's error so callers can
            // tell "server full" from a dead or misbehaving peer.
            FramePayload::Response(Response::Rejected { error }) => return Err(error),
            _ => return Err(WireError::Protocol("expected Hello as the first frame".into())),
        };
        let _ = stream.set_read_timeout(None);

        let shared = Arc::new(ConnShared {
            pending: Mutex::new(Default::default()),
            closed: Mutex::new(None),
        });
        let reader = {
            let shared = Arc::clone(&shared);
            thread::Builder::new()
                .name("idea-remote-reader".into())
                .spawn(move || reader_loop(read_half, &shared))
                .map_err(|e| WireError::Transport(format!("spawn reader: {e}")))?
        };
        let conn = Connection {
            write: Mutex::new(
                stream
                    .try_clone()
                    .map_err(|e| WireError::Transport(format!("clone stream: {e}")))?,
            ),
            raw: stream,
            shared,
            reader: Some(reader),
        };
        Ok((conn, nodes))
    }

    fn send(&self, frame: &Frame) -> Result<(), WireError> {
        // An over-cap command fails its own call with a typed error here,
        // before anything touches the socket.
        let bytes = frame_bytes(frame)?;
        let mut w = lock(&self.write);
        w.write_all(&bytes).map_err(|e| WireError::Transport(format!("write frame: {e}")))
    }
}

impl Drop for Connection {
    fn drop(&mut self) {
        let _ = self.raw.shutdown(Shutdown::Both);
        if let Some(handle) = self.reader.take() {
            let _ = handle.join();
        }
    }
}

/// Demultiplexes response frames into the pending-request map; on any
/// read failure fails every in-flight request with a transport error.
fn reader_loop(mut read_half: TcpStream, shared: &ConnShared) {
    let disconnect = loop {
        match read_frame(&mut read_half) {
            Ok(Some(Frame { request_id, payload: FramePayload::Response(resp), .. })) => {
                if let Some(tx) = lock(&shared.pending).remove(&request_id) {
                    let _ = tx.send(Ok(resp));
                }
                // An unknown id is a late reply whose waiter timed out —
                // dropped on the floor by design.
            }
            // Servers send nothing but responses after the handshake.
            Ok(Some(_)) => break WireError::Protocol("unexpected non-response frame".into()),
            Ok(None) => break WireError::Transport("connection closed by server".into()),
            Err(e) => break e,
        }
    };
    // Mark the connection dead *first*, then fail the in-flight requests:
    // a request registering between the two steps sees the marker.
    *lock(&shared.closed) = Some(disconnect.clone());
    for (_, tx) in lock(&shared.pending).drain() {
        let _ = tx.send(Err(disconnect.clone()));
    }
}

/// A connected client for a served IDEA deployment. See the module docs.
pub struct RemoteEngine {
    conns: Vec<Connection>,
    nodes: usize,
    next_id: AtomicU64,
    frames_sent: AtomicU64,
    replies_awaited: AtomicU64,
    response_timeout: Duration,
}

impl RemoteEngine {
    /// Connects a single-connection client.
    ///
    /// # Errors
    /// Fails on connection or handshake failure.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, WireError> {
        Self::connect_pool(addr, 1)
    }

    /// Connects a client with `pool` connections (object-addressed traffic
    /// is spread by `ShardId::of(object, pool)`).
    ///
    /// # Errors
    /// Fails on connection or handshake failure, or when the server
    /// reports a different deployment size on different connections.
    pub fn connect_pool(addr: impl ToSocketAddrs, pool: usize) -> Result<Self, WireError> {
        let pool = pool.max(1);
        let addr = addr
            .to_socket_addrs()
            .map_err(|e| WireError::Transport(format!("resolve address: {e}")))?
            .next()
            .ok_or_else(|| WireError::Transport("address resolved to nothing".into()))?;
        let mut conns = Vec::with_capacity(pool);
        let mut nodes = None;
        for _ in 0..pool {
            let (conn, n) = Connection::open(addr, Duration::from_secs(10))?;
            if *nodes.get_or_insert(n) != n {
                return Err(WireError::Protocol(
                    "server reported inconsistent deployment sizes".into(),
                ));
            }
            conns.push(conn);
        }
        Ok(RemoteEngine {
            conns,
            nodes: nodes.unwrap_or(0) as usize,
            next_id: AtomicU64::new(1),
            frames_sent: AtomicU64::new(0),
            replies_awaited: AtomicU64::new(0),
            response_timeout: Duration::from_secs(30),
        })
    }

    /// Replaces the per-request response timeout (default 30 s).
    pub fn with_response_timeout(mut self, timeout: Duration) -> Self {
        self.response_timeout = timeout;
        self
    }

    /// Traffic counters since connect.
    pub fn stats(&self) -> RemoteStats {
        RemoteStats {
            frames_sent: self.frames_sent.load(Ordering::SeqCst),
            replies_awaited: self.replies_awaited.load(Ordering::SeqCst),
        }
    }

    /// The pool connection a command travels on: object-addressed commands
    /// are pinned by the object hash (end-to-end per-object FIFO),
    /// node-wide commands use the first connection.
    fn conn_for(&self, cmd: &Command) -> &Connection {
        match cmd.object() {
            Some(object) => &self.conns[ShardId::of(object, self.conns.len()).index()],
            None => &self.conns[0],
        }
    }
}

impl CommandExecutor for RemoteEngine {
    fn node_count(&self) -> usize {
        self.nodes
    }

    fn try_execute(&self, node: NodeId, cmd: Command) -> std::result::Result<Response, WireError> {
        let conn = self.conn_for(&cmd);
        let request_id = self.next_id.fetch_add(1, Ordering::SeqCst);
        let (tx, rx) = sync_channel(1);
        lock(&conn.shared.pending).insert(request_id, tx);
        let frame = Frame { request_id, node, payload: FramePayload::Command(cmd) };
        if let Err(e) = conn.send(&frame) {
            lock(&conn.shared.pending).remove(&request_id);
            return Err(e);
        }
        // The reader may have died between registration and now (it fails
        // the requests it saw, then marks the connection): if the marker is
        // set and our entry is still in the map, nobody will answer it.
        if let Some(reason) = lock(&conn.shared.closed).clone() {
            if lock(&conn.shared.pending).remove(&request_id).is_some() {
                return Err(reason);
            }
        }
        self.frames_sent.fetch_add(1, Ordering::SeqCst);
        self.replies_awaited.fetch_add(1, Ordering::SeqCst);
        match rx.recv_timeout(self.response_timeout) {
            Ok(outcome) => outcome,
            Err(_) => {
                lock(&conn.shared.pending).remove(&request_id);
                Err(WireError::Transport(format!("no response within {:?}", self.response_timeout)))
            }
        }
    }

    fn try_submit(&self, node: NodeId, cmd: Command) -> std::result::Result<(), WireError> {
        let conn = self.conn_for(&cmd);
        let frame = Frame { request_id: NO_REPLY, node, payload: FramePayload::Command(cmd) };
        conn.send(&frame)?;
        self.frames_sent.fetch_add(1, Ordering::SeqCst);
        Ok(())
    }
}

impl EngineHandle for RemoteEngine {
    fn nodes(&self) -> usize {
        self.nodes
    }

    fn execute(&mut self, node: NodeId, cmd: Command) -> Response {
        CommandExecutor::try_execute(self, node, cmd)
            .unwrap_or_else(|error| Response::Rejected { error })
    }

    fn submit(&mut self, node: NodeId, cmd: Command) {
        let _ = CommandExecutor::try_submit(self, node, cmd);
    }
}
