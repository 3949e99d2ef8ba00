//! The threaded runtime: the same [`Proto`] state machines on real threads.
//!
//! [`ShardedEngine`] runs `ThreadedConfig::shards` worker threads **per
//! node**, each owning one shard of the node's state, plus one delay-router
//! thread per shard. Links are `std::sync::mpsc` channels; a router holds
//! every in-flight message in a delay heap and forwards it when its (scaled)
//! latency elapses, so the engine exhibits the same WAN behaviour as the
//! simulator — just in wall-clock time and without determinism. At
//! `shards: 1` that is one worker per node and one router: the plain
//! thread-per-node runtime.
//!
//! `time_scale` maps virtual time to wall time (`wall = virtual × scale`), so
//! integration tests can replay a 100-second PlanetLab scenario in a second.
//!
//! ## The sharded mailbox
//!
//! Every message is routed to the worker `ShardedProto::shard_of(msg, S)` of
//! its destination node, so messages about one object always land on the
//! same FIFO worker (per-object order preserved) while disjoint objects are
//! processed concurrently. The delay-router is sharded by the same function
//! — shard `s` traffic of all nodes flows through router `s` — so no single
//! thread serialises the cluster's forwarding.

use crate::proto::{Context, Proto, ShardedProto, TimerId, Wire};
use crate::stats::{NetStats, StatsSnapshot};
use crate::topology::Topology;
use idea_types::{lock, FastSet, NodeId, SimDuration, SimTime};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::mpsc::{channel, sync_channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// Threaded-engine configuration.
#[derive(Debug, Clone)]
pub struct ThreadedConfig {
    /// Seed for the router's latency sampling and per-node RNGs.
    pub seed: u64,
    /// Wall seconds per virtual second. `0.01` replays a 100 s scenario in
    /// roughly one wall second.
    pub time_scale: f64,
    /// Shard workers per node. Every node's [`ShardedProto::shard_count`]
    /// must equal it.
    pub shards: usize,
}

impl Default for ThreadedConfig {
    fn default() -> Self {
        ThreadedConfig { seed: 0, time_scale: 1.0, shards: 1 }
    }
}

enum RouterCmd<M> {
    Send { from: NodeId, to: NodeId, msg: M },
    Stop,
}

/// In-flight message inside the router's delay heap.
struct InFlight<M> {
    due: Instant,
    seq: u64,
    from: NodeId,
    to: NodeId,
    msg: M,
}

impl<M> PartialEq for InFlight<M> {
    fn eq(&self, o: &Self) -> bool {
        self.due == o.due && self.seq == o.seq
    }
}
impl<M> Eq for InFlight<M> {}
impl<M> PartialOrd for InFlight<M> {
    fn partial_cmp(&self, o: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(o))
    }
}
impl<M> Ord for InFlight<M> {
    fn cmp(&self, o: &Self) -> std::cmp::Ordering {
        self.due.cmp(&o.due).then_with(|| self.seq.cmp(&o.seq))
    }
}

/// One worker thread's timers: the due-ordered heap plus the set of ids
/// still armed. Cancelling removes the id from `live` and leaves the heap
/// entry to be skipped when it comes due, so the set never outgrows the
/// heap — in particular, cancelling a timer that already fired (what
/// `finish_round` does to the deadline that woke it) records nothing.
#[derive(Default)]
struct Timers {
    /// `(due, id, kind)`, earliest first.
    heap: BinaryHeap<Reverse<(Instant, u64, u64)>>,
    /// Ids armed and neither fired nor cancelled.
    live: FastSet<u64>,
    next_id: u64,
}

impl Timers {
    fn arm(&mut self, due: Instant, kind: u64) -> TimerId {
        let id = self.next_id;
        self.next_id += 1;
        self.live.insert(id);
        self.heap.push(Reverse((due, id, kind)));
        TimerId(id)
    }

    fn cancel(&mut self, timer: TimerId) {
        self.live.remove(&timer.0);
    }

    /// The next timer due by `now` that was not cancelled, if any.
    fn pop_due(&mut self, now: Instant) -> Option<(TimerId, u64)> {
        while let Some(&Reverse((due, id, kind))) = self.heap.peek() {
            if due > now {
                break;
            }
            self.heap.pop();
            if self.live.remove(&id) {
                return Some((TimerId(id), kind));
            }
        }
        None
    }

    /// How long a worker may block before its next timer comes due (an
    /// hour with none armed: the mailbox wakes it for everything else).
    fn sleep_for(&self) -> Duration {
        self.heap
            .peek()
            .map(|Reverse((due, _, _))| due.saturating_duration_since(Instant::now()))
            .unwrap_or(Duration::from_secs(3600))
    }
}

/// Boxed closure run on one shard worker (see [`ShardedEngine::invoke`]).
type ShardInvokeFn<P> =
    Box<dyn FnOnce(&mut <P as ShardedProto>::Shard, &mut dyn Context<<P as Proto>::Msg>) + Send>;

enum ShardEnvelope<P: ShardedProto> {
    Net { from: NodeId, msg: P::Msg },
    Invoke(ShardInvokeFn<P>),
    Stop,
}

/// Worker-thread context handed to protocol callbacks; sends go to the
/// router of the message's shard.
struct ShardCtx<'a, M> {
    me: NodeId,
    n: usize,
    shards: usize,
    start: Instant,
    scale: f64,
    route: fn(&M, usize) -> usize,
    routers: &'a [Sender<RouterCmd<M>>],
    timers: &'a mut Timers,
    rng: &'a mut StdRng,
}

impl<M> Context<M> for ShardCtx<'_, M> {
    fn now(&self) -> SimTime {
        let wall = self.start.elapsed().as_micros() as f64;
        SimTime((wall / self.scale) as u64)
    }
    fn me(&self) -> NodeId {
        self.me
    }
    fn node_count(&self) -> usize {
        self.n
    }
    fn send(&mut self, to: NodeId, msg: M) {
        let shard = (self.route)(&msg, self.shards);
        // A closed router means the engine is stopping; drop silently.
        let _ = self.routers[shard].send(RouterCmd::Send { from: self.me, to, msg });
    }
    fn set_timer(&mut self, delay: SimDuration, kind: u64) -> TimerId {
        let wall = Duration::from_secs_f64(delay.as_secs_f64() * self.scale);
        self.timers.arm(Instant::now() + wall, kind)
    }
    fn cancel_timer(&mut self, timer: TimerId) {
        self.timers.cancel(timer);
    }
    fn rng(&mut self) -> &mut dyn RngCore {
        self.rng
    }
}

/// The threaded engine: `shards` workers per node, each owning one
/// [`ShardedProto::Shard`], mailboxes and delay-routers partitioned by the
/// protocol's object hash. See the module docs for the ordering guarantees.
pub struct ShardedEngine<P: ShardedProto + 'static> {
    /// Worker mailboxes, indexed `node * shards + shard`.
    worker_txs: Vec<Sender<ShardEnvelope<P>>>,
    router_txs: Vec<Sender<RouterCmd<P::Msg>>>,
    worker_handles: Vec<thread::JoinHandle<P::Shard>>,
    router_handles: Vec<thread::JoinHandle<()>>,
    shards: usize,
    stats: Arc<Mutex<NetStats>>,
    scale: f64,
}

impl<P: ShardedProto + 'static> ShardedEngine<P> {
    /// Starts `cfg.shards` workers per node plus one delay-router per
    /// shard, running `shard_on_start` on every worker.
    ///
    /// # Panics
    /// Panics when a node's [`ShardedProto::shard_count`] differs from
    /// `cfg.shards` (the store partition and the mailbox partition must be
    /// the same function, or per-object ordering breaks).
    pub fn start(topo: Topology, cfg: ThreadedConfig, nodes: Vec<P>) -> Self {
        assert_eq!(nodes.len(), topo.len(), "one protocol instance per topology node");
        assert!(cfg.time_scale > 0.0, "time_scale must be positive");
        let shards = cfg.shards.max(1);
        for node in &nodes {
            assert_eq!(
                node.shard_count(),
                shards,
                "node shard count must match ThreadedConfig::shards"
            );
        }
        let n = nodes.len();
        let stats = Arc::new(Mutex::new(NetStats::new()));
        let start = Instant::now();

        let mut router_txs = Vec::with_capacity(shards);
        let mut router_rxs = Vec::with_capacity(shards);
        for _ in 0..shards {
            let (tx, rx) = channel::<RouterCmd<P::Msg>>();
            router_txs.push(tx);
            router_rxs.push(rx);
        }
        let mut worker_txs = Vec::with_capacity(n * shards);
        let mut worker_rxs = Vec::with_capacity(n * shards);
        for _ in 0..n * shards {
            let (tx, rx) = channel::<ShardEnvelope<P>>();
            worker_txs.push(tx);
            worker_rxs.push(rx);
        }

        // One delay-router per shard: shard s of every node talks through
        // router s, which delivers into the `node * shards + s` mailboxes.
        let mut router_handles = Vec::with_capacity(shards);
        for (s, rx) in router_rxs.into_iter().enumerate() {
            let topo = topo.clone();
            let txs: Vec<Sender<ShardEnvelope<P>>> = worker_txs.clone();
            let stats = Arc::clone(&stats);
            let scale = cfg.time_scale;
            let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x0070_07e5 ^ ((s as u64) << 32));
            let handle = thread::Builder::new()
                .name(format!("idea-router-{s}"))
                .spawn(move || {
                    sharded_router_loop::<P>(topo, scale, shards, s, txs, rx, stats, &mut rng);
                })
                .expect("spawn router");
            router_handles.push(handle);
        }

        // Shard workers: node i's shards take mailboxes i*shards.. in order.
        let mut worker_handles = Vec::with_capacity(n * shards);
        let mut worker_rxs = worker_rxs.into_iter();
        for (i, node) in nodes.into_iter().enumerate() {
            let node_shards = node.into_shards();
            assert_eq!(node_shards.len(), shards, "into_shards must honour shard_count");
            for (s, (mut shard, inbox)) in
                node_shards.into_iter().zip(worker_rxs.by_ref()).enumerate()
            {
                let routers = router_txs.clone();
                let scale = cfg.time_scale;
                let seed = cfg.seed.wrapping_add(1 + (i * shards + s) as u64);
                let handle = thread::Builder::new()
                    .name(format!("idea-node-{i}-s{s}"))
                    .spawn(move || {
                        shard_worker_loop::<P>(
                            NodeId(i as u32),
                            n,
                            shards,
                            start,
                            scale,
                            &mut shard,
                            inbox,
                            routers,
                            seed,
                        );
                        shard
                    })
                    .expect("spawn shard worker");
                worker_handles.push(handle);
            }
        }

        ShardedEngine {
            worker_txs,
            router_txs,
            worker_handles,
            router_handles,
            shards,
            stats,
            scale: cfg.time_scale,
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.worker_txs.len() / self.shards
    }

    /// True when the engine has no nodes.
    pub fn is_empty(&self) -> bool {
        self.worker_txs.is_empty()
    }

    /// Shard workers per node.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The worker index owning `object` — the same `ObjectId` hash the
    /// message mailboxes are partitioned by, exposed so command layers can
    /// route object-addressed work without re-deriving the partition.
    pub fn shard_for_object(&self, object: idea_types::ObjectId) -> usize {
        idea_types::ShardId::of(object, self.shards).index()
    }

    /// Fire-and-forget action on one shard worker of a node. The caller
    /// picks the shard owning the object it is about to touch (the same
    /// hash the mailbox uses, e.g. `ShardId::of`).
    pub fn invoke(
        &self,
        id: NodeId,
        shard: usize,
        f: impl FnOnce(&mut P::Shard, &mut dyn Context<P::Msg>) + Send + 'static,
    ) {
        let _ = self.try_invoke(id, shard, f);
    }

    /// Fallible fire-and-forget: `false` when the shard worker's mailbox is
    /// closed (the engine is stopping or stopped), so service frontends can
    /// surface a typed error instead of dropping the command silently.
    #[must_use]
    pub fn try_invoke(
        &self,
        id: NodeId,
        shard: usize,
        f: impl FnOnce(&mut P::Shard, &mut dyn Context<P::Msg>) + Send + 'static,
    ) -> bool {
        assert!(shard < self.shards, "shard index out of range");
        self.worker_txs[id.index() * self.shards + shard]
            .send(ShardEnvelope::Invoke(Box::new(f)))
            .is_ok()
    }

    /// Runs `f` on the shard worker and waits for its result.
    ///
    /// # Panics
    /// Panics when the worker is gone; use [`ShardedEngine::try_query`]
    /// where that must be an error instead.
    pub fn query<R: Send + 'static>(
        &self,
        id: NodeId,
        shard: usize,
        f: impl FnOnce(&mut P::Shard, &mut dyn Context<P::Msg>) -> R + Send + 'static,
    ) -> R {
        self.try_query(id, shard, f).expect("shard worker alive")
    }

    /// Like [`ShardedEngine::query`], but returns `None` instead of
    /// panicking when the shard worker is gone — either the mailbox is
    /// already closed, or the worker dies before replying.
    pub fn try_query<R: Send + 'static>(
        &self,
        id: NodeId,
        shard: usize,
        f: impl FnOnce(&mut P::Shard, &mut dyn Context<P::Msg>) -> R + Send + 'static,
    ) -> Option<R> {
        let (tx, rx) = sync_channel(1);
        if !self.try_invoke(id, shard, move |p, ctx| {
            let _ = tx.send(f(p, ctx));
        }) {
            return None;
        }
        rx.recv().ok()
    }

    /// Sleeps for `d` of *virtual* time (scaled to wall time).
    pub fn sleep_virtual(&self, d: SimDuration) {
        thread::sleep(Duration::from_secs_f64(d.as_secs_f64() * self.scale));
    }

    /// Snapshot of network statistics.
    pub fn stats(&self) -> StatsSnapshot {
        lock(&self.stats).snapshot()
    }

    /// Stops all workers and routers, reassembles each node from its shards
    /// and returns the final node states in id order.
    ///
    /// Routers are stopped and joined **before** the workers are told to
    /// stop: a router's shutdown path flushes every message still in its
    /// delay heap into the worker mailboxes, and only after that flush do
    /// the workers get their `Stop` envelope — channel FIFO order then
    /// guarantees each worker drains the flushed messages before it exits.
    /// (Stopping workers first delivered the flush into mailboxes nobody
    /// reads, silently dropping in-flight protocol traffic on shutdown.)
    pub fn stop(mut self) -> Vec<P> {
        for tx in &self.router_txs {
            let _ = tx.send(RouterCmd::Stop);
        }
        for h in self.router_handles.drain(..) {
            let _ = h.join();
        }
        for tx in &self.worker_txs {
            let _ = tx.send(ShardEnvelope::Stop);
        }
        let mut shards: Vec<P::Shard> = self
            .worker_handles
            .drain(..)
            .map(|h| h.join().expect("shard worker panicked"))
            .collect();
        let mut nodes = Vec::with_capacity(shards.len() / self.shards);
        while !shards.is_empty() {
            let rest = shards.split_off(self.shards.min(shards.len()));
            nodes.push(P::from_shards(std::mem::replace(&mut shards, rest)));
        }
        nodes
    }
}

#[allow(clippy::too_many_arguments)]
fn shard_worker_loop<P: ShardedProto>(
    me: NodeId,
    n: usize,
    shards: usize,
    start: Instant,
    scale: f64,
    shard: &mut P::Shard,
    inbox: Receiver<ShardEnvelope<P>>,
    routers: Vec<Sender<RouterCmd<P::Msg>>>,
    seed: u64,
) {
    let mut timers = Timers::default();
    let mut rng = StdRng::seed_from_u64(seed);

    macro_rules! ctx {
        () => {
            ShardCtx {
                me,
                n,
                shards,
                start,
                scale,
                route: P::shard_of,
                routers: &routers,
                timers: &mut timers,
                rng: &mut rng,
            }
        };
    }

    {
        let mut c = ctx!();
        P::shard_on_start(shard, &mut c);
    }

    loop {
        // Fire due timers first.
        while let Some((id, kind)) = timers.pop_due(Instant::now()) {
            let mut c = ctx!();
            P::shard_on_timer(shard, id, kind, &mut c);
        }

        // Idle shard workers must not wake the scheduler: with no timer
        // armed, block until the next envelope (Stop arrives on the
        // channel too). With hundreds of workers per machine a 25 ms idle
        // poll was a measurable scheduling storm.
        match inbox.recv_timeout(timers.sleep_for()) {
            Ok(ShardEnvelope::Net { from, msg }) => {
                let mut c = ctx!();
                P::shard_on_message(shard, from, msg, &mut c);
            }
            Ok(ShardEnvelope::Invoke(f)) => {
                let mut c = ctx!();
                f(shard, &mut c);
            }
            Ok(ShardEnvelope::Stop) | Err(RecvTimeoutError::Disconnected) => break,
            Err(RecvTimeoutError::Timeout) => {}
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn sharded_router_loop<P: ShardedProto>(
    topo: Topology,
    scale: f64,
    shards: usize,
    my_shard: usize,
    txs: Vec<Sender<ShardEnvelope<P>>>,
    rx: Receiver<RouterCmd<P::Msg>>,
    stats: Arc<Mutex<NetStats>>,
    rng: &mut StdRng,
) {
    let deliver = |f: InFlight<P::Msg>| {
        let _ = txs[f.to.index() * shards + my_shard]
            .send(ShardEnvelope::Net { from: f.from, msg: f.msg });
    };
    let mut heap: BinaryHeap<Reverse<InFlight<P::Msg>>> = BinaryHeap::new();
    let mut seq = 0u64;
    loop {
        // Forward everything due.
        loop {
            let due_now = match heap.peek() {
                Some(Reverse(f)) => f.due <= Instant::now(),
                None => false,
            };
            if !due_now {
                break;
            }
            let Reverse(f) = heap.pop().expect("peeked");
            deliver(f);
        }

        // Nothing in flight: block until the next command.
        let timeout = heap
            .peek()
            .map(|Reverse(f)| f.due.saturating_duration_since(Instant::now()))
            .unwrap_or(Duration::from_secs(3600));

        match rx.recv_timeout(timeout) {
            Ok(RouterCmd::Send { from, to, msg }) => {
                lock(&stats).record(msg.class(), msg.wire_size() as u64);
                let virt = if from == to {
                    SimDuration::from_micros(50)
                } else {
                    topo.sample_delay(from, to, rng)
                };
                let wall = Duration::from_secs_f64(virt.as_secs_f64() * scale);
                heap.push(Reverse(InFlight { due: Instant::now() + wall, seq, from, to, msg }));
                seq += 1;
            }
            Ok(RouterCmd::Stop) | Err(RecvTimeoutError::Disconnected) => break,
            Err(RecvTimeoutError::Timeout) => {}
        }
    }
    // Flush anything still queued so late messages are not lost on stop.
    while let Some(Reverse(f)) = heap.pop() {
        deliver(f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::MsgClass;

    /// Runs a plain [`Proto`] on the engine as a one-shard node, so the
    /// test protocols below are written once against `Proto`.
    struct OneShard<P>(P);

    impl<P: Proto> Proto for OneShard<P> {
        type Msg = P::Msg;
        fn on_message(&mut self, from: NodeId, msg: P::Msg, ctx: &mut dyn Context<P::Msg>) {
            self.0.on_message(from, msg, ctx);
        }
    }

    impl<P: Proto + 'static> ShardedProto for OneShard<P> {
        type Shard = P;
        fn shard_count(&self) -> usize {
            1
        }
        fn shard_of(_msg: &P::Msg, _shards: usize) -> usize {
            0
        }
        fn into_shards(self) -> Vec<P> {
            vec![self.0]
        }
        fn from_shards(mut shards: Vec<P>) -> Self {
            OneShard(shards.pop().expect("one shard"))
        }
        fn shard_on_start(shard: &mut P, ctx: &mut dyn Context<P::Msg>) {
            shard.on_start(ctx);
        }
        fn shard_on_message(
            shard: &mut P,
            from: NodeId,
            msg: P::Msg,
            ctx: &mut dyn Context<P::Msg>,
        ) {
            shard.on_message(from, msg, ctx);
        }
        fn shard_on_timer(shard: &mut P, t: TimerId, kind: u64, ctx: &mut dyn Context<P::Msg>) {
            shard.on_timer(t, kind, ctx);
        }
    }

    /// Starts `nodes` as one-shard nodes; `stop` hands them back unwrapped.
    fn start<P: Proto + 'static>(
        topo: Topology,
        seed: u64,
        time_scale: f64,
        nodes: Vec<P>,
    ) -> ShardedEngine<OneShard<P>> {
        let cfg = ThreadedConfig { seed, time_scale, shards: 1 };
        ShardedEngine::start(topo, cfg, nodes.into_iter().map(OneShard).collect())
    }

    fn stop<P: Proto + 'static>(eng: ShardedEngine<OneShard<P>>) -> Vec<P> {
        eng.stop().into_iter().map(|node| node.0).collect()
    }

    #[derive(Debug, Clone)]
    struct Token {
        hops: u32,
    }

    impl Wire for Token {
        fn class(&self) -> MsgClass {
            MsgClass::App
        }
    }

    struct Ring {
        received: u32,
        laps: u32,
    }

    impl Proto for Ring {
        type Msg = Token;
        fn on_message(&mut self, _from: NodeId, msg: Token, ctx: &mut dyn Context<Token>) {
            self.received += 1;
            if msg.hops < self.laps * ctx.node_count() as u32 {
                let next = NodeId((ctx.me().0 + 1) % ctx.node_count() as u32);
                ctx.send(next, Token { hops: msg.hops + 1 });
            }
        }
    }

    fn rings(n: usize, laps: u32) -> Vec<Ring> {
        (0..n).map(|_| Ring { received: 0, laps }).collect()
    }

    #[test]
    fn token_ring_runs_on_threads() {
        let eng = start(Topology::lan(4), 1, 1.0, rings(4, 3));
        eng.invoke(NodeId(0), 0, |_, ctx| ctx.send(NodeId(1), Token { hops: 1 }));
        // 12 hops at 0.5 ms each — give it ample wall time.
        thread::sleep(Duration::from_millis(400));
        let received = eng.query(NodeId(1), 0, |p, _| p.received);
        assert!(received >= 1);
        let total: u32 = stop(eng).iter().map(|p| p.received).sum();
        assert_eq!(total, 12);
    }

    #[test]
    fn stats_are_shared_and_counted() {
        let eng = start(Topology::lan(2), 2, 1.0, rings(2, 1));
        eng.invoke(NodeId(0), 0, |_, ctx| ctx.send(NodeId(1), Token { hops: 1 }));
        thread::sleep(Duration::from_millis(200));
        let snap = eng.stats();
        let app = snap
            .per_class
            .iter()
            .find(|(c, _, _)| *c == MsgClass::App)
            .map(|(_, m, _)| *m)
            .unwrap_or(0);
        assert_eq!(app, 2); // initial send + one forward
        eng.stop();
    }

    struct Alarm {
        fired: Vec<u64>,
    }

    impl Proto for Alarm {
        type Msg = Token;
        fn on_start(&mut self, ctx: &mut dyn Context<Token>) {
            ctx.set_timer(SimDuration::from_millis(5), 7);
            let t = ctx.set_timer(SimDuration::from_millis(10), 8);
            ctx.cancel_timer(t);
        }
        fn on_message(&mut self, _f: NodeId, _m: Token, _c: &mut dyn Context<Token>) {}
        fn on_timer(&mut self, _t: TimerId, kind: u64, _c: &mut dyn Context<Token>) {
            self.fired.push(kind);
        }
    }

    #[test]
    fn timers_fire_and_cancel_on_threads() {
        let eng = start(Topology::lan(1), 3, 1.0, vec![Alarm { fired: vec![] }]);
        thread::sleep(Duration::from_millis(120));
        assert_eq!(stop(eng)[0].fired, vec![7]);
    }

    /// The serving pattern that used to leak: `finish_round` cancels the
    /// deadline timer whose firing called it. 100 k such cycles must leave
    /// nothing behind — and a cancelled-before-due timer must still never
    /// fire, nor a junk id disturb anything.
    #[test]
    fn cancelling_fired_timers_leaves_no_tombstones() {
        let mut timers = Timers::default();
        let now = Instant::now();
        for cycle in 0..100_000u64 {
            let armed = timers.arm(now, cycle);
            let (fired, kind) = timers.pop_due(now).expect("due timer fires");
            assert_eq!((fired, kind), (armed, cycle));
            timers.cancel(fired);
        }
        assert!(timers.live.is_empty() && timers.heap.is_empty());

        let doomed = timers.arm(now, 1);
        let kept = timers.arm(now, 2);
        timers.cancel(doomed);
        timers.cancel(TimerId(doomed.0 + 1_000_000));
        assert_eq!(timers.pop_due(now), Some((kept, 2)));
        assert_eq!(timers.pop_due(now), None);
        assert!(timers.live.is_empty() && timers.heap.is_empty());
    }

    #[test]
    fn virtual_time_respects_scale() {
        let eng = start(Topology::lan(1), 4, 0.01, vec![Alarm { fired: vec![] }]);
        thread::sleep(Duration::from_millis(50));
        // 50 ms of wall time at scale 0.01 is ~5 s of virtual time.
        let now = eng.query(NodeId(0), 0, |_, ctx| ctx.now());
        assert!(now >= SimTime::from_secs(4), "virtual now {now}");
        eng.stop();
    }

    #[test]
    fn stop_delivers_messages_still_in_the_delay_heap() {
        use crate::latency::{Jitter, LatencyModel};
        // 200 ms constant delay: the token is guaranteed to still sit in
        // the router's delay heap when stop() runs right after the send.
        // The router's shutdown flush must land in a mailbox the worker will
        // still drain (regression: workers used to be stopped first, so the
        // flushed message arrived behind Stop and was never processed).
        let topo = Topology::custom(
            2,
            LatencyModel::Constant(SimDuration::from_millis(200)),
            Jitter::None,
        );
        let eng = start(topo, 5, 1.0, rings(2, 0));
        // query (not invoke) so the send has reached the router before
        // stop() enqueues RouterCmd::Stop behind it.
        eng.query(NodeId(0), 0, |_, ctx| ctx.send(NodeId(1), Token { hops: 99 }));
        assert_eq!(stop(eng)[1].received, 1, "in-flight message dropped on stop");
    }

    #[test]
    fn query_round_trips() {
        let eng = start(Topology::lan(2), 0, 1.0, rings(2, 1));
        let me = eng.query(NodeId(1), 0, |_, ctx| ctx.me());
        assert_eq!(me, NodeId(1));
        assert_eq!(eng.len(), 2);
        eng.stop();
    }
}
