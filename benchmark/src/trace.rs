//! Outside-in tracing: wrappers the harness owns around the layers'
//! public entry points. Nothing inside the program is instrumented —
//! [`TimedNode`] times each protocol handler call per message class,
//! [`TimedExecutor`] times each command from `dispatch()` to its reply
//! callback. Spans accumulate in memory and are read when the workload ends.

use crate::stats::Samples;
use idea::core::protocol::ProtocolShard;
use idea::net::{MsgClass, TimerId, Wire};
use idea::prelude::{
    Command, CommandExecutor, Context, IdeaHost, IdeaMsg, IdeaNode, NodeId, Proto, Response,
    ShardedEngine, ShardedProto, WireError,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Accumulated duration and call count of one kind of span.
#[derive(Debug)]
pub struct SpanSum {
    ns: AtomicU64,
    n: AtomicU64,
}

impl SpanSum {
    const fn new() -> Self {
        SpanSum { ns: AtomicU64::new(0), n: AtomicU64::new(0) }
    }

    // Relaxed: pure statistics, read only after the workers are joined.
    fn add(&self, since: Instant) {
        self.ns.fetch_add(since.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.n.fetch_add(1, Ordering::Relaxed);
    }

    fn take(&self) -> (f64, u64) {
        let ns = self.ns.swap(0, Ordering::Relaxed);
        (ns as f64 / 1e6, self.n.swap(0, Ordering::Relaxed))
    }
}

const CLASSES: usize = MsgClass::ALL.len();
static ON_MESSAGE: [SpanSum; CLASSES] = [const { SpanSum::new() }; CLASSES];
static ON_TIMER: SpanSum = SpanSum::new();

fn class_slot(class: MsgClass) -> usize {
    MsgClass::ALL.iter().position(|&c| c == class).expect("MsgClass::ALL lists every class")
}

/// Handler time (ms) and calls per message class, plus the timer handler's.
#[derive(Debug)]
pub struct HandlerTimes {
    pub per_class: Vec<(MsgClass, f64, u64)>,
    pub on_timer: (f64, u64),
}

impl HandlerTimes {
    /// `(ms, calls)` summed over `classes`.
    pub fn of(&self, classes: &[MsgClass]) -> (f64, u64) {
        self.per_class
            .iter()
            .filter(|(c, _, _)| classes.contains(c))
            .fold((0.0, 0), |(ms, n), (_, m, k)| (ms + m, n + k))
    }

    /// All handler time, timers included.
    pub fn total_ms(&self) -> f64 {
        self.per_class.iter().map(|(_, ms, _)| ms).sum::<f64>() + self.on_timer.0
    }
}

/// Reads and resets the handler spans recorded since the last call.
pub fn take_handler_times() -> HandlerTimes {
    HandlerTimes {
        per_class: MsgClass::ALL
            .iter()
            .map(|&c| {
                let (ms, n) = ON_MESSAGE[class_slot(c)].take();
                (c, ms, n)
            })
            .collect(),
        on_timer: ON_TIMER.take(),
    }
}

/// A node the benchmark can deploy: the plain [`IdeaNode`] on untraced
/// passes, [`TimedNode`] on traced ones.
pub trait BenchNode:
    ShardedProto<Msg = IdeaMsg, Shard = ProtocolShard> + IdeaHost + Sized + 'static
{
    /// Whether deployments of this node record spans.
    const TRACED: bool;
    fn wrap(node: IdeaNode) -> Self;
    fn into_idea(self) -> IdeaNode;
}

impl BenchNode for IdeaNode {
    const TRACED: bool = false;
    fn wrap(node: IdeaNode) -> Self {
        node
    }
    fn into_idea(self) -> IdeaNode {
        self
    }
}

/// [`IdeaNode`] with every handler call timed from outside.
pub struct TimedNode(IdeaNode);

impl BenchNode for TimedNode {
    const TRACED: bool = true;
    fn wrap(node: IdeaNode) -> Self {
        TimedNode(node)
    }
    fn into_idea(self) -> IdeaNode {
        self.0
    }
}

impl IdeaHost for TimedNode {
    fn idea(&self) -> &IdeaNode {
        &self.0
    }
    fn idea_mut(&mut self) -> &mut IdeaNode {
        &mut self.0
    }
}

impl Proto for TimedNode {
    type Msg = IdeaMsg;

    fn on_start(&mut self, ctx: &mut dyn Context<IdeaMsg>) {
        self.0.on_start(ctx);
    }

    fn on_message(&mut self, from: NodeId, msg: IdeaMsg, ctx: &mut dyn Context<IdeaMsg>) {
        let slot = class_slot(msg.class());
        let t0 = Instant::now();
        self.0.on_message(from, msg, ctx);
        ON_MESSAGE[slot].add(t0);
    }

    fn on_timer(&mut self, timer: TimerId, kind: u64, ctx: &mut dyn Context<IdeaMsg>) {
        let t0 = Instant::now();
        self.0.on_timer(timer, kind, ctx);
        ON_TIMER.add(t0);
    }
}

impl ShardedProto for TimedNode {
    type Shard = ProtocolShard;

    fn shard_count(&self) -> usize {
        ShardedProto::shard_count(&self.0)
    }

    fn shard_of(msg: &IdeaMsg, shards: usize) -> usize {
        IdeaNode::shard_of(msg, shards)
    }

    fn into_shards(self) -> Vec<ProtocolShard> {
        self.0.into_shards()
    }

    fn from_shards(shards: Vec<ProtocolShard>) -> Self {
        TimedNode(IdeaNode::from_shards(shards))
    }

    fn shard_on_start(shard: &mut ProtocolShard, ctx: &mut dyn Context<IdeaMsg>) {
        IdeaNode::shard_on_start(shard, ctx);
    }

    fn shard_on_message(
        shard: &mut ProtocolShard,
        from: NodeId,
        msg: IdeaMsg,
        ctx: &mut dyn Context<IdeaMsg>,
    ) {
        let slot = class_slot(msg.class());
        let t0 = Instant::now();
        IdeaNode::shard_on_message(shard, from, msg, ctx);
        ON_MESSAGE[slot].add(t0);
    }

    fn shard_on_timer(
        shard: &mut ProtocolShard,
        timer: TimerId,
        kind: u64,
        ctx: &mut dyn Context<IdeaMsg>,
    ) {
        let t0 = Instant::now();
        IdeaNode::shard_on_timer(shard, timer, kind, ctx);
        ON_TIMER.add(t0);
    }
}

/// Raw dispatch-layer samples of one served round.
#[derive(Debug, Default)]
pub struct DispatchSamples {
    /// `dispatch()` call → reply callback (mailbox wait + apply), writes.
    pub write_ns: Samples,
    /// The same for both read kinds.
    pub read_ns: Samples,
    /// Time inside `dispatch()` itself, which blocks the server's loop.
    pub call_ns: Samples,
}

/// The engine seen through the server's eyes, timed: wraps the sharded
/// engine's [`CommandExecutor`] surface.
pub struct TimedExecutor<P: BenchNode> {
    inner: Arc<ShardedEngine<P>>,
    samples: Arc<Mutex<DispatchSamples>>,
}

impl<P: BenchNode> TimedExecutor<P> {
    pub fn new(inner: Arc<ShardedEngine<P>>) -> Self {
        TimedExecutor { inner, samples: Arc::default() }
    }

    /// The samples recorded so far, leaving the recorder empty.
    pub fn take_samples(&self) -> DispatchSamples {
        std::mem::take(&mut *self.samples.lock().expect("no recorder panicked"))
    }
}

impl<P: BenchNode> CommandExecutor for TimedExecutor<P> {
    fn node_count(&self) -> usize {
        self.inner.node_count()
    }

    fn try_execute(&self, node: NodeId, cmd: Command) -> Result<Response, WireError> {
        self.inner.try_execute(node, cmd)
    }

    fn dispatch(&self, node: NodeId, cmd: Command, reply: Box<dyn FnOnce(Response) + Send>) {
        let is_write = matches!(cmd, Command::Write { .. });
        let samples = Arc::clone(&self.samples);
        let t0 = Instant::now();
        self.inner.dispatch(
            node,
            cmd,
            Box::new(move |response| {
                let ns = t0.elapsed().as_nanos() as u64;
                {
                    let mut s = samples.lock().expect("no recorder panicked");
                    if is_write {
                        s.write_ns.push(ns);
                    } else {
                        s.read_ns.push(ns);
                    }
                }
                reply(response);
            }),
        );
        let call_ns = t0.elapsed().as_nanos() as u64;
        self.samples.lock().expect("no recorder panicked").call_ns.push(call_ns);
    }

    fn try_submit(&self, node: NodeId, cmd: Command) -> Result<(), WireError> {
        self.inner.try_submit(node, cmd)
    }
}
