//! The readiness-driven event loop behind [`IdeaServer`].
//!
//! One thread multiplexes the listener and every connection over the
//! vendored `mio`-style poller. The loop blocks in `poll` with no timeout
//! — an idle server schedules zero wakeups (the regression pin replacing
//! the old 20 ms accept-poll). Per connection the loop keeps:
//!
//! * a **read buffer** reassembling frames from whatever byte runs the
//!   nonblocking socket hands over ([`parse_frame`]);
//! * a **write queue**: one contiguous buffer that response frames append
//!   to and flushes drain with single `write` calls — many small pipelined
//!   responses coalesce into one syscall.
//!
//! Parsed commands queue with their reply callbacks in one reusable batch,
//! which the loop hands to the non-blocking
//! [`CommandExecutor::dispatch_batch`] before it folds completions and
//! before any fire-and-forget (`NO_REPLY`) command is submitted, so each
//! connection's commands reach the executor in arrival order. The sharded
//! engine sends each shard worker one envelope per batch. Callbacks hand
//! their response to the [`CompletionSink`], which wakes the loop at most
//! once per pass, and the loop encodes them in completion order.
//!
//! Readiness handling is drain-to-`WouldBlock` throughout, so the loop is
//! correct under both level-triggered semantics (the epoll backend) and
//! the portable backend's spurious readiness.
//!
//! Admission and backpressure: an over-cap connection is answered with the
//! typed [`WireError::ServerAtCapacity`] rejection and closed; a connection
//! whose un-flushed responses exceed `high_water_bytes` has its reads —
//! and the parsing of already-buffered frames — deferred until the queue
//! drains below half the mark, so a slow reader stops generating new work
//! instead of ballooning server memory, without stalling its neighbours.

use super::{IdeaServer, ServerConfig};
use crate::frame::{encode_into, frame_bytes, parse_frame, Frame, FramePayload, NO_REPLY};
use idea_core::{CommandExecutor, DispatchBatch, Response};
use idea_types::{lock, NodeId, WireError};
use mio::{Events, Interest, Poll, Registry, Token, Waker};
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;

const LISTENER: Token = Token(0);
const WAKER: Token = Token(1);
/// First connection token; tokens are monotonic and never reused, so a
/// completion for a closed connection can never be misdelivered to a new
/// one occupying the same slot.
const FIRST_CONN: usize = 2;

/// Read-side scratch granularity per `read` call.
const READ_CHUNK: usize = 64 * 1024;

/// Compact the read buffer once this many consumed bytes sit ahead of the
/// unparsed remainder.
const COMPACT_AT: usize = 64 * 1024;

/// Inline completions are folded into their connection's write queue at
/// least this often within one parse batch, so the high-water check sees
/// them: an inline executor's backlog stays within this many responses of
/// the mark however many frames one read delivered.
const FOLD_EVERY: usize = 64;

/// A completed command's response, queued by a dispatch callback for the
/// loop to encode: `(connection token, request_id, node, response)`.
type Completion = (usize, u64, NodeId, Response);

/// The hand-off from whichever thread completes a command (a shard worker,
/// or the loop itself under an inline executor) to the event loop: the one
/// thing a reply callback holds.
///
/// A wake is a datagram through the loopback stack, and it carries no
/// information once one is on its way, so [`CompletionSink::complete`]
/// sends one only when it flips `wake_pending` from false to true. No
/// completion is stranded by the wakes it skips: the completer pushes and
/// *then* swaps the flag, the loop clears the flag and *then* takes the
/// queue (all `SeqCst`), so a completion whose swap saw `true` was pushed
/// before the clear of some pass still to come — the pass the pending
/// wake starts — and that pass takes it.
///
/// The queue's lock does not poison: a thread that panics while holding it
/// must not turn every later reply into a panic on its shard worker.
pub(super) struct CompletionSink {
    queue: Mutex<Vec<Completion>>,
    wake_pending: AtomicBool,
    pub(super) waker: Waker,
    /// Wakes actually sent by [`CompletionSink::complete`].
    pub(super) wakes: AtomicU64,
}

impl CompletionSink {
    /// An empty sink whose wakes arrive on `registry`'s poller as [`WAKER`].
    fn new(registry: &Registry) -> io::Result<Self> {
        Ok(CompletionSink {
            queue: Mutex::new(Vec::new()),
            wake_pending: AtomicBool::new(false),
            waker: Waker::new(registry, WAKER)?,
            wakes: AtomicU64::new(0),
        })
    }

    fn complete(&self, completion: Completion) {
        lock(&self.queue).push(completion);
        if !self.wake_pending.swap(true, Ordering::SeqCst) {
            self.wakes.fetch_add(1, Ordering::Relaxed);
            let _ = self.waker.wake();
        }
    }

    /// The loop's side, once per pass: re-arms the wake, then swaps the
    /// queued completions into `batch` (empty on entry; its buffer becomes
    /// the next queue, so a steady state allocates nothing).
    fn take_into(&self, batch: &mut Vec<Completion>) {
        self.wake_pending.store(false, Ordering::SeqCst);
        std::mem::swap(&mut *lock(&self.queue), batch);
    }
}

/// Counters shared between the loop thread and the server handle.
#[derive(Default)]
pub(super) struct Stats {
    pub(super) accepted: AtomicU64,
    pub(super) rejected: AtomicU64,
    pub(super) wakeups: AtomicU64,
    pub(super) reads_deferred: AtomicU64,
}

/// Starts the loop thread serving `executor` on `listener`.
pub(super) fn spawn(
    listener: TcpListener,
    executor: Arc<dyn CommandExecutor>,
    config: ServerConfig,
) -> io::Result<IdeaServer> {
    let local_addr = listener.local_addr()?;
    listener.set_nonblocking(true)?;
    let poll = Poll::new()?;
    poll.registry().register(&listener, LISTENER, Interest::READABLE)?;
    let sink = Arc::new(CompletionSink::new(poll.registry())?);
    let stop_flag = Arc::new(AtomicBool::new(false));
    let stats = Arc::new(Stats::default());

    let handle = {
        let stop_flag = Arc::clone(&stop_flag);
        let sink = Arc::clone(&sink);
        let stats = Arc::clone(&stats);
        thread::Builder::new().name("idea-evented".into()).spawn(move || {
            EventLoop {
                poll,
                listener,
                executor,
                config,
                sink,
                stop_flag,
                stats,
                conns: ConnMap::default(),
                next_token: FIRST_CONN,
                batch: Vec::new(),
                others: Vec::new(),
                dispatch: Vec::new(),
                scratch: vec![0u8; READ_CHUNK],
            }
            .run();
        })?
    };

    Ok(IdeaServer { local_addr, stop_flag, sink, handle: Some(handle), stats })
}

/// Live connections by poll token.
#[allow(clippy::disallowed_types)] // network-facing: keeps std's keyed hasher
type ConnMap = std::collections::HashMap<usize, Conn>;

/// Per-connection state machine.
struct Conn {
    stream: TcpStream,
    /// Incoming bytes not yet parsed into frames; `in_start` marks the
    /// consumed prefix (compacted lazily).
    in_buf: Vec<u8>,
    in_start: usize,
    /// The write queue: encoded response frames awaiting flush; `out_pos`
    /// marks the flushed prefix.
    out: Vec<u8>,
    out_pos: usize,
    /// What the poller currently watches for this socket (`None` =
    /// deregistered — e.g. drained EOF still awaiting completions).
    registered: Option<Interest>,
    /// Responses dispatched but not yet completed.
    in_flight: usize,
    /// Already on this pass's list of connections to pump.
    queued: bool,
    /// Reads parked by backpressure until the write queue drains.
    reads_deferred: bool,
    /// No further reads: peer EOF, malformed frame, or engine loss. The
    /// connection closes once `in_flight` and the write queue drain.
    no_more_reads: bool,
    /// Hard failure: close without draining.
    dead: bool,
}

impl Conn {
    fn pending_out(&self) -> usize {
        self.out.len() - self.out_pos
    }

    /// The interest this connection currently needs from the poller.
    fn desired_interest(&self) -> Option<Interest> {
        if self.dead {
            return None;
        }
        let wants_read = !self.no_more_reads && !self.reads_deferred;
        let wants_write = self.pending_out() > 0;
        match (wants_read, wants_write) {
            (true, true) => Some(Interest::READABLE | Interest::WRITABLE),
            (true, false) => Some(Interest::READABLE),
            (false, true) => Some(Interest::WRITABLE),
            (false, false) => None,
        }
    }

    fn done(&self) -> bool {
        self.dead || (self.no_more_reads && self.in_flight == 0 && self.pending_out() == 0)
    }

    /// Adds this connection (registered under `token`) to the pass's pump
    /// list unless it is already there; [`EventLoop::pump`] clears the mark.
    fn queue_for_pump(&mut self, token: usize, touched: &mut Vec<usize>) {
        if !self.queued {
            self.queued = true;
            touched.push(token);
        }
    }
}

struct EventLoop {
    poll: Poll,
    listener: TcpListener,
    executor: Arc<dyn CommandExecutor>,
    config: ServerConfig,
    sink: Arc<CompletionSink>,
    stop_flag: Arc<AtomicBool>,
    stats: Arc<Stats>,
    conns: ConnMap,
    next_token: usize,
    /// Completions taken from the sink and not yet encoded; empty between
    /// uses, kept for its buffer.
    batch: Vec<Completion>,
    /// Completions for other connections, set aside while one connection
    /// folds its own; empty between uses, kept for its buffer.
    others: Vec<Completion>,
    /// Commands parsed and not yet handed to the executor; empty between
    /// uses, kept for its buffer.
    dispatch: DispatchBatch,
    scratch: Vec<u8>,
}

impl EventLoop {
    fn run(mut self) {
        let mut events = Events::with_capacity(1024);
        let mut touched: Vec<usize> = Vec::new();
        while !self.stop_flag.load(Ordering::SeqCst) {
            if self.poll.poll(&mut events, None).is_err() {
                continue; // EINTR and transient poll failures
            }
            self.stats.wakeups.fetch_add(1, Ordering::SeqCst);
            touched.clear();
            for event in events.iter() {
                match event.token() {
                    LISTENER => self.accept_ready(),
                    WAKER => self.sink.waker.drain(),
                    Token(t) => {
                        if let Some(conn) = self.conns.get_mut(&t) {
                            conn.queue_for_pump(t, &mut touched);
                        }
                    }
                }
            }
            // Completions queued by dispatch callbacks since the last
            // pass — encode them in completion order. The waker was drained
            // above, before the sink re-arms it: a wake sent from here on
            // stays in the socket and starts the next pass.
            self.sink.take_into(&mut self.batch);
            for (t, request_id, node, response) in self.batch.drain(..) {
                let Some(conn) = self.conns.get_mut(&t) else {
                    continue; // connection died while the command ran
                };
                conn.in_flight -= 1;
                enqueue_response(conn, request_id, node, response);
                conn.queue_for_pump(t, &mut touched);
            }
            for &t in &touched {
                self.pump(t);
            }
        }
    }

    /// Drains the accept queue: admit (Hello) or reject (typed capacity
    /// error) every pending connection.
    fn accept_ready(&mut self) {
        loop {
            let stream = match self.listener.accept() {
                Ok((stream, _)) => stream,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return, // transient (EMFILE etc.) — retry on next readiness
            };
            self.stats.accepted.fetch_add(1, Ordering::SeqCst);
            let _ = stream.set_nodelay(true);

            if self.conns.len() >= self.config.max_connections {
                self.reject_at_capacity(stream);
                continue;
            }
            if stream.set_nonblocking(true).is_err() {
                continue;
            }

            let token = self.next_token;
            self.next_token += 1;
            let mut conn = Conn {
                stream,
                in_buf: Vec::new(),
                in_start: 0,
                out: Vec::new(),
                out_pos: 0,
                registered: None,
                in_flight: 0,
                queued: false,
                reads_deferred: false,
                no_more_reads: false,
                dead: false,
            };
            // Greeting: the deployment size, before any command response.
            let hello = Frame {
                request_id: NO_REPLY,
                node: NodeId(0),
                payload: FramePayload::Hello { nodes: self.executor.node_count() as u32 },
            };
            if encode_into(&hello, &mut conn.out).is_err() {
                continue; // unreachable: a Hello frame is tiny
            }
            self.conns.insert(token, conn);
            self.pump(token);
        }
    }

    /// Answers an over-cap connection with the typed rejection and closes
    /// it. The socket is still in blocking mode and its send buffer is
    /// empty, so the one small frame cannot block the loop.
    fn reject_at_capacity(&self, mut stream: TcpStream) {
        self.stats.rejected.fetch_add(1, Ordering::SeqCst);
        let error = WireError::ServerAtCapacity { limit: self.config.max_connections as u32 };
        let frame = Frame {
            request_id: NO_REPLY,
            node: NodeId(0),
            payload: FramePayload::Response(Response::Rejected { error }),
        };
        if let Ok(bytes) = frame_bytes(&frame) {
            let _ = stream.write_all(&bytes);
        }
    }

    /// Advances one connection's state machine as far as readiness allows:
    /// read to `WouldBlock`, parse and dispatch buffered frames (unless
    /// deferred), flush the write queue, re-evaluate backpressure, update
    /// poller interest, and reap the connection once done.
    fn pump(&mut self, token: usize) {
        let Some(mut conn) = self.conns.remove(&token) else { return };
        conn.queued = false;

        if !conn.no_more_reads && !conn.reads_deferred && !conn.dead {
            self.read_ready(&mut conn);
        }
        // Parse / flush / re-evaluate backpressure until no further
        // progress is possible. The loop matters for liveness: a resumed
        // connection may still hold complete frames in its read buffer
        // with nothing left in the socket — no readiness event will ever
        // re-announce them, so they must be consumed before registering.
        loop {
            self.parse_frames(token, &mut conn);
            flush(&mut conn);
            // Backpressure: park reads past the high-water mark; resume
            // once the flush above drained below half of it.
            if !conn.reads_deferred && conn.pending_out() > self.config.high_water_bytes {
                conn.reads_deferred = true;
                self.stats.reads_deferred.fetch_add(1, Ordering::SeqCst);
            } else if conn.reads_deferred && conn.pending_out() <= self.config.high_water_bytes / 2
            {
                conn.reads_deferred = false;
                // Bytes may have queued in the socket while reads were
                // parked; level-triggered readiness would re-announce
                // them, but the portable backend's spurious events would
                // not carry them here promptly.
                self.read_ready(&mut conn);
            }
            if conn.dead || conn.no_more_reads || conn.reads_deferred {
                break;
            }
            if !has_buffered_frame(&conn.in_buf[conn.in_start..]) {
                break;
            }
        }

        if conn.done() {
            if conn.registered.is_some() {
                let _ = self.poll.registry().deregister(&conn.stream);
            }
            return; // dropping the stream closes the connection
        }
        let desired = conn.desired_interest();
        if desired != conn.registered {
            let registry = self.poll.registry();
            let outcome = match (conn.registered, desired) {
                (None, Some(want)) => registry.register(&conn.stream, Token(token), want),
                (Some(_), Some(want)) => registry.reregister(&conn.stream, Token(token), want),
                (Some(_), None) => registry.deregister(&conn.stream),
                (None, None) => Ok(()),
            };
            match outcome {
                Ok(()) => conn.registered = desired,
                Err(_) => return, // poller refused the fd: drop the connection
            }
        }
        self.conns.insert(token, conn);
    }

    /// Reads until `WouldBlock` (or EOF / failure), appending to the
    /// connection's reassembly buffer.
    fn read_ready(&mut self, conn: &mut Conn) {
        loop {
            match conn.stream.read(&mut self.scratch) {
                Ok(0) => {
                    conn.no_more_reads = true;
                    return;
                }
                Ok(n) => conn.in_buf.extend_from_slice(&self.scratch[..n]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => {
                    conn.dead = true;
                    return;
                }
            }
        }
    }

    /// Parses and handles every complete buffered frame, stopping early if
    /// backpressure engages mid-batch. A malformed frame stops reads for
    /// good (the stream position is unrecoverable) but still drains
    /// responses already owed.
    fn parse_frames(&mut self, token: usize, conn: &mut Conn) {
        // Commands dispatched since the last fold.
        let mut unfolded = 0;
        loop {
            if conn.dead || conn.pending_out() > self.config.high_water_bytes {
                break;
            }
            match parse_frame(&conn.in_buf[conn.in_start..]) {
                Ok(Some((frame, used))) => {
                    conn.in_start += used;
                    if self.handle_frame(token, conn, frame) {
                        unfolded += 1;
                    }
                    if unfolded == FOLD_EVERY {
                        self.fold_own_completions(token, conn);
                        unfolded = 0;
                    }
                }
                Ok(None) => break,
                Err(_) => {
                    conn.no_more_reads = true;
                    break;
                }
            }
        }
        if unfolded > 0 {
            self.fold_own_completions(token, conn);
        }
        debug_assert!(self.dispatch.is_empty(), "every parsed command was handed over");
        if conn.in_start == conn.in_buf.len() {
            conn.in_buf.clear();
            conn.in_start = 0;
        } else if conn.in_start >= COMPACT_AT {
            conn.in_buf.drain(..conn.in_start);
            conn.in_start = 0;
        }
    }

    /// Moves the completions already queued for *this* connection straight
    /// into its write queue, so a parse batch an inline executor completed
    /// synchronously — or a shard worker finished while the loop was still
    /// parsing — coalesces into the flush that follows. Completions for
    /// other connections stay queued, in order: their wake is pending and
    /// the run loop's pass is what pumps those connections.
    ///
    /// The commands parsed since the last fold are handed to the executor
    /// first, so the fold can already see those an inline executor ran.
    fn fold_own_completions(&mut self, token: usize, conn: &mut Conn) {
        self.executor.dispatch_batch(&mut self.dispatch);
        {
            let mut queue = lock(&self.sink.queue);
            for completion in queue.drain(..) {
                if completion.0 == token {
                    self.batch.push(completion);
                } else {
                    self.others.push(completion);
                }
            }
            std::mem::swap(&mut *queue, &mut self.others);
        }
        for (_, request_id, node, response) in self.batch.drain(..) {
            conn.in_flight -= 1;
            enqueue_response(conn, request_id, node, response);
        }
    }

    /// One decoded frame. A command owing a reply joins the dispatch batch
    /// with a callback that hands its response to the completion sink;
    /// returns whether it did. A fire-and-forget command is submitted at
    /// once, after the batch gathered before it is handed over.
    fn handle_frame(&mut self, token: usize, conn: &mut Conn, frame: Frame) -> bool {
        let Frame { request_id, node, payload } = frame;
        match payload {
            FramePayload::Command(cmd) if request_id == NO_REPLY => {
                self.executor.dispatch_batch(&mut self.dispatch);
                match self.executor.try_submit(node, cmd) {
                    Ok(()) => {}
                    // Command-independent failure: the engine is gone, so
                    // every later command would fail too — stop reading,
                    // which the client observes as a closed connection.
                    Err(WireError::EngineUnavailable(_)) => conn.no_more_reads = true,
                    Err(_) => {}
                }
                false
            }
            FramePayload::Command(cmd) => {
                conn.in_flight += 1;
                let sink = Arc::clone(&self.sink);
                self.dispatch.push((
                    node,
                    cmd,
                    Box::new(move |response| sink.complete((token, request_id, node, response))),
                ));
                true
            }
            // Only clients send Hello/Response frames — answer with a
            // typed rejection when correlatable, otherwise ignore.
            FramePayload::Hello { .. } | FramePayload::Response(_) => {
                if request_id != NO_REPLY {
                    let error = WireError::Protocol("clients must send Command frames".to_string());
                    enqueue_response(conn, request_id, node, Response::Rejected { error });
                }
                false
            }
        }
    }
}

/// Whether `buf` starts with one complete frame — the cheap length-only
/// check `pump` uses to decide if another parse pass can make progress.
/// Malformed prefixes count as "complete": the parse pass must see them to
/// fail the connection.
fn has_buffered_frame(buf: &[u8]) -> bool {
    if buf.is_empty() {
        return false;
    }
    let Some(header) = buf.get(..10) else {
        // A short prefix that cannot be a frame header: complete only if
        // it is already un-parseable (bad magic).
        return !crate::frame::MAGIC.starts_with(&buf[..buf.len().min(4)]);
    };
    if header[..4] != crate::frame::MAGIC {
        return true;
    }
    let len = u32::from_le_bytes([header[6], header[7], header[8], header[9]]) as usize;
    len > crate::frame::MAX_FRAME_BYTES || buf.len() >= 10 + len
}

/// Appends one response frame to the connection's write queue. An
/// unframeable (over-cap) response fails only its own request: substitute
/// a typed rejection so the waiting client is answered and the connection
/// survives.
fn enqueue_response(conn: &mut Conn, request_id: u64, node: NodeId, response: Response) {
    let frame = Frame { request_id, node, payload: FramePayload::Response(response) };
    if let Err(error) = encode_into(&frame, &mut conn.out) {
        let substitute = Frame {
            request_id,
            node,
            payload: FramePayload::Response(Response::Rejected { error }),
        };
        let _ = encode_into(&substitute, &mut conn.out); // cannot fail: the substitute is tiny
    }
}

/// Flushes the write queue until `WouldBlock` or empty. One `write` call
/// covers every queued frame.
fn flush(conn: &mut Conn) {
    while conn.pending_out() > 0 {
        match conn.stream.write(&conn.out[conn.out_pos..]) {
            Ok(0) => {
                conn.dead = true;
                return;
            }
            Ok(n) => conn.out_pos += n,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => {
                conn.dead = true;
                return;
            }
        }
    }
    conn.out.clear();
    conn.out_pos = 0;
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    /// One fault must not become a node-wide outage: after a thread panics
    /// while holding the completion queue's lock, a shard worker's next
    /// `complete()` still pushes its reply and wakes the loop.
    #[test]
    fn a_panic_under_the_queue_lock_does_not_break_later_completions() {
        let mut poll = Poll::new().expect("poller");
        let sink = Arc::new(CompletionSink::new(poll.registry()).expect("sink"));

        let holder = Arc::clone(&sink);
        let panicked = thread::spawn(move || {
            let _guard = lock(&holder.queue);
            panic!("fault while holding the completion queue");
        })
        .join();
        assert!(panicked.is_err(), "the holder thread must have panicked");

        sink.complete((FIRST_CONN, 1, NodeId(0), Response::Done));
        assert_eq!(sink.wakes.load(Ordering::SeqCst), 1, "the completion must wake the loop");
        let mut events = Events::with_capacity(4);
        poll.poll(&mut events, Some(Duration::from_secs(5))).expect("poll");
        assert!(events.iter().any(|e| e.token() == WAKER), "the wake must reach the poller");

        let mut batch = Vec::new();
        sink.take_into(&mut batch);
        assert_eq!(batch.len(), 1, "the completion must be queued for the loop");
    }
}
