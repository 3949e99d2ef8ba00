//! The threaded runtime: the same [`Proto`] state machines on real threads.
//!
//! [`ShardedEngine`] runs `ThreadedConfig::shards` worker threads **per
//! node**, each owning one shard of the node's state, and no other thread.
//! Links are `std::sync::mpsc` channels straight into the destination
//! worker's mailbox. A send samples the link's latency from the sending
//! worker's delay RNG and stamps the message with the instant it is due;
//! the receiving worker holds a message that arrives early until then. So
//! the engine exhibits the same WAN behaviour as the simulator — just in
//! wall-clock time and without determinism — and a message crosses one
//! thread hand-off. At `shards: 1` that is one worker per node: the plain
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
//! processed concurrently.
//!
//! ## Delivery
//!
//! Before it takes its next envelope, a worker delivers the messages it
//! holds that are due and fires its due timers, earliest first (a message
//! before a timer due at the same instant). With nothing due it sleeps
//! until its next held message or timer, or until an envelope arrives. So:
//!
//! * no message is handled before its send time plus its link delay
//!   (50 µs of virtual time for a self-send);
//! * messages on one jitter-free link are handled in send order: their due
//!   times rise with their send times, and equal due times go in arrival
//!   order;
//! * [`ShardedEngine::stop`] hands every message a worker still holds to
//!   the protocol, in due order, without waiting for it to come due.

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
    /// Seed for the workers' latency sampling and per-node RNGs.
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

    /// When the earliest timer still armed comes due; cancelled entries
    /// ahead of it are dropped on the way.
    fn next_due(&mut self) -> Option<Instant> {
        while let Some(&Reverse((due, id, _))) = self.heap.peek() {
            if self.live.contains(&id) {
                return Some(due);
            }
            self.heap.pop();
        }
        None
    }
}

/// The messages a worker received before they were due: a min-heap of
/// `(due, arrival seq, slot)` keys, the slot indexing `slab`. `seq` is
/// unique, so equal due times pop in arrival order, and a sift moves the
/// keys, not the messages.
struct Held<M> {
    heap: BinaryHeap<Reverse<(Instant, u64, u32)>>,
    /// Held messages by slot; `None` marks a free slot. As long as the most
    /// messages ever held at once.
    slab: Vec<Option<(NodeId, M)>>,
    /// Free slots of `slab`, the last freed reused first.
    free: Vec<u32>,
    seq: u64,
}

impl<M> Held<M> {
    fn new() -> Self {
        Held { heap: BinaryHeap::new(), slab: Vec::new(), free: Vec::new(), seq: 0 }
    }

    fn push(&mut self, due: Instant, from: NodeId, msg: M) {
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slab[slot as usize] = Some((from, msg));
                slot
            }
            None => {
                self.slab.push(Some((from, msg)));
                (self.slab.len() - 1) as u32
            }
        };
        self.heap.push(Reverse((due, self.seq, slot)));
        self.seq += 1;
    }

    /// When the earliest held message comes due.
    fn next_due(&self) -> Option<Instant> {
        self.heap.peek().map(|&Reverse((due, _, _))| due)
    }

    /// Takes the earliest held message, due or not.
    fn pop(&mut self) -> Option<(NodeId, M)> {
        let Reverse((_, _, slot)) = self.heap.pop()?;
        self.free.push(slot);
        Some(self.slab[slot as usize].take().expect("a held slot holds its message"))
    }
}

/// Boxed closure run on one shard worker (see [`ShardedEngine::invoke`]).
type ShardInvokeFn<P> =
    Box<dyn FnOnce(&mut <P as ShardedProto>::Shard, &mut dyn Context<<P as Proto>::Msg>) + Send>;

enum ShardEnvelope<P: ShardedProto> {
    /// A protocol message, to be handled no earlier than `due`.
    Net {
        from: NodeId,
        msg: P::Msg,
        due: Instant,
    },
    Invoke(ShardInvokeFn<P>),
    Stop,
}

/// One worker's side of the engine, handed to protocol callbacks as their
/// [`Context`]: a send goes straight into the destination worker's mailbox.
struct ShardCtx<P: ShardedProto> {
    me: NodeId,
    n: usize,
    shards: usize,
    start: Instant,
    scale: f64,
    topo: Arc<Topology>,
    /// Every worker's mailbox, indexed `node * shards + shard`.
    mailboxes: Vec<Sender<ShardEnvelope<P>>>,
    /// Send counters, shared by every worker.
    stats: Arc<Mutex<NetStats>>,
    timers: Timers,
    rng: StdRng,
    /// Link-delay draws, kept apart from `rng` so the protocol's draws do
    /// not depend on what it sent.
    delay_rng: StdRng,
}

impl<P: ShardedProto> Context<P::Msg> for ShardCtx<P> {
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
    fn send(&mut self, to: NodeId, msg: P::Msg) {
        lock(&self.stats).record(msg.class(), msg.wire_size() as u64);
        let virt = if to == self.me {
            SimDuration::from_micros(50)
        } else {
            self.topo.sample_delay(self.me, to, &mut self.delay_rng)
        };
        let due = Instant::now() + Duration::from_secs_f64(virt.as_secs_f64() * self.scale);
        let mailbox = to.index() * self.shards + P::shard_of(&msg, self.shards);
        // A closed mailbox means the engine is stopping; drop silently.
        let _ = self.mailboxes[mailbox].send(ShardEnvelope::Net { from: self.me, msg, due });
    }
    fn set_timer(&mut self, delay: SimDuration, kind: u64) -> TimerId {
        let wall = Duration::from_secs_f64(delay.as_secs_f64() * self.scale);
        self.timers.arm(Instant::now() + wall, kind)
    }
    fn cancel_timer(&mut self, timer: TimerId) {
        self.timers.cancel(timer);
    }
    fn rng(&mut self) -> &mut dyn RngCore {
        &mut self.rng
    }
}

/// The threaded engine: `shards` workers per node, each owning one
/// [`ShardedProto::Shard`], mailboxes partitioned by the protocol's object
/// hash. See the module docs for the ordering guarantees.
///
/// Dropping the engine without [`ShardedEngine::stop`] stops and joins its
/// workers (and drops their shards), except when the last handle drops on
/// one of those workers: they are then told to stop and left to exit.
pub struct ShardedEngine<P: ShardedProto + 'static> {
    /// Worker mailboxes, indexed `node * shards + shard`.
    worker_txs: Vec<Sender<ShardEnvelope<P>>>,
    worker_handles: Vec<thread::JoinHandle<P::Shard>>,
    shards: usize,
    stats: Arc<Mutex<NetStats>>,
    scale: f64,
}

impl<P: ShardedProto + 'static> ShardedEngine<P> {
    /// Starts `cfg.shards` workers per node, running `shard_on_start` on
    /// every worker.
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
        let topo = Arc::new(topo);
        let start = Instant::now();
        let (worker_txs, worker_rxs): (Vec<_>, Vec<_>) =
            (0..n * shards).map(|_| channel::<ShardEnvelope<P>>()).unzip();
        let stats = Arc::new(Mutex::new(NetStats::new()));

        // Shard workers: node i's shards take mailboxes i*shards.. in order.
        let mut worker_handles = Vec::with_capacity(n * shards);
        let mut worker_rxs = worker_rxs.into_iter();
        for (i, node) in nodes.into_iter().enumerate() {
            let node_shards = node.into_shards();
            assert_eq!(node_shards.len(), shards, "into_shards must honour shard_count");
            for (s, (mut shard, inbox)) in
                node_shards.into_iter().zip(worker_rxs.by_ref()).enumerate()
            {
                let w = i * shards + s;
                let ctx = ShardCtx::<P> {
                    me: NodeId(i as u32),
                    n,
                    shards,
                    start,
                    scale: cfg.time_scale,
                    topo: Arc::clone(&topo),
                    mailboxes: worker_txs.clone(),
                    stats: Arc::clone(&stats),
                    timers: Timers::default(),
                    rng: StdRng::seed_from_u64(cfg.seed.wrapping_add(1 + w as u64)),
                    delay_rng: StdRng::seed_from_u64(cfg.seed ^ 0x0070_07e5 ^ ((w as u64) << 32)),
                };
                let handle = thread::Builder::new()
                    .name(format!("idea-node-{i}-s{s}"))
                    .spawn(move || {
                        shard_worker_loop::<P>(&mut shard, &inbox, ctx);
                        shard
                    })
                    .expect("spawn shard worker");
                worker_handles.push(handle);
            }
        }

        ShardedEngine { worker_txs, worker_handles, shards, stats, scale: cfg.time_scale }
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

    /// Stops all workers, reassembles each node from its shards and returns
    /// the final node states in id order.
    ///
    /// `Stop` queues behind every envelope already in a mailbox, and a
    /// worker hands the protocol every message it still holds, in due order
    /// and without waiting for it, before it exits. So a message sent before
    /// `stop` is delivered; one sent while the workers stop may find its
    /// destination gone and is dropped.
    pub fn stop(mut self) -> Vec<P> {
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

impl<P: ShardedProto + 'static> Drop for ShardedEngine<P> {
    /// Stops the workers `stop` did not, so an engine dropped without it
    /// leaks no thread. Every worker holds every mailbox's sender, so no
    /// worker would ever see its mailbox close.
    fn drop(&mut self) {
        if self.worker_handles.is_empty() {
            return;
        }
        for tx in &self.worker_txs {
            let _ = tx.send(ShardEnvelope::Stop);
        }
        // A worker cannot join itself: dropped on one, the workers are left
        // to exit on their own.
        let me = thread::current().id();
        if self.worker_handles.iter().any(|h| h.thread().id() == me) {
            return;
        }
        for h in self.worker_handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// The worker thread: runs `shard` until `Stop` (see the module docs'
/// "Delivery" for the order it handles things in).
fn shard_worker_loop<P: ShardedProto>(
    shard: &mut P::Shard,
    inbox: &Receiver<ShardEnvelope<P>>,
    mut ctx: ShardCtx<P>,
) {
    let mut held = Held::new();
    P::shard_on_start(shard, &mut ctx);

    loop {
        // Deliver due messages and fire due timers, earliest first.
        loop {
            let now = Instant::now();
            let msg = held.next_due().filter(|&due| due <= now);
            let timer = ctx.timers.next_due().filter(|&due| due <= now);
            match (msg, timer) {
                (None, None) => break,
                (Some(m), t) if t.is_none_or(|t| m <= t) => {
                    let (from, msg) = held.pop().expect("a due message");
                    P::shard_on_message(shard, from, msg, &mut ctx);
                }
                _ => {
                    let (id, kind) = ctx.timers.pop_due(now).expect("a due timer");
                    P::shard_on_timer(shard, id, kind, &mut ctx);
                }
            }
        }

        // Block until the next envelope or the next held message or timer
        // comes due. An idle worker must not wake the scheduler: with
        // hundreds of workers per machine a 25 ms idle poll was a
        // measurable scheduling storm.
        let wake = match (held.next_due(), ctx.timers.next_due()) {
            (Some(m), Some(t)) => Some(m.min(t)),
            (m, t) => m.or(t),
        };
        let wait = wake
            .map_or(Duration::from_secs(3600), |due| due.saturating_duration_since(Instant::now()));
        match inbox.recv_timeout(wait) {
            Ok(ShardEnvelope::Net { from, msg, due }) => held.push(due, from, msg),
            Ok(ShardEnvelope::Invoke(f)) => f(shard, &mut ctx),
            Ok(ShardEnvelope::Stop) | Err(RecvTimeoutError::Disconnected) => break,
            Err(RecvTimeoutError::Timeout) => {}
        }
    }

    // Stopping: hand over what is still held, in due order, at once.
    while let Some((from, msg)) = held.pop() {
        P::shard_on_message(shard, from, msg, &mut ctx);
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
        // 200 ms constant delay: the token is guaranteed to still sit,
        // not yet due, in node 1's worker when stop() runs right after the
        // send. The worker must hand it to the protocol before it exits.
        let topo = Topology::custom(
            2,
            LatencyModel::Constant(SimDuration::from_millis(200)),
            Jitter::None,
        );
        let eng = start(topo, 5, 1.0, rings(2, 0));
        // query (not invoke) so the send has reached node 1's mailbox
        // before stop() enqueues Stop behind it.
        eng.query(NodeId(0), 0, |_, ctx| ctx.send(NodeId(1), Token { hops: 99 }));
        assert_eq!(stop(eng)[1].received, 1, "in-flight message dropped on stop");
    }

    /// A message stamped with its sender's virtual send time.
    #[derive(Debug, Clone)]
    struct Stamped {
        sent: SimTime,
        n: u32,
    }

    impl Wire for Stamped {
        fn class(&self) -> MsgClass {
            MsgClass::App
        }
    }

    /// Records `(n, virtual µs from send to handling)` per message.
    #[derive(Default)]
    struct Log {
        got: Vec<(u32, u64)>,
    }

    impl Proto for Log {
        type Msg = Stamped;
        fn on_message(&mut self, _from: NodeId, msg: Stamped, ctx: &mut dyn Context<Stamped>) {
            self.got.push((msg.n, ctx.now().as_micros() - msg.sent.as_micros()));
        }
    }

    /// Sends `count` stamped messages from node 0 to `to`, `burst` per
    /// worker turn with a short pause between turns, and returns what `to`
    /// handled.
    fn stamped_run(nodes: usize, to: NodeId, count: u32, burst: u32) -> Vec<(u32, u64)> {
        let eng = start(Topology::lan(nodes), 6, 1.0, (0..nodes).map(|_| Log::default()).collect());
        for first in (0..count).step_by(burst as usize) {
            eng.invoke(NodeId(0), 0, move |_, ctx| {
                for n in first..(first + burst).min(count) {
                    let sent = ctx.now();
                    ctx.send(to, Stamped { sent, n });
                }
            });
            thread::sleep(Duration::from_micros(150));
        }
        // Wait for every message to be handled as it came due, not flushed
        // by `stop`.
        let deadline = Instant::now() + Duration::from_secs(10);
        while eng.query(to, 0, |p, _| p.got.len()) < count as usize {
            assert!(Instant::now() < deadline, "messages never delivered");
            thread::sleep(Duration::from_millis(1));
        }
        stop(eng).swap_remove(to.index()).got
    }

    #[test]
    fn no_message_is_handled_before_its_link_delay() {
        let got = stamped_run(2, NodeId(1), 400, 8);
        assert_eq!(got.len(), 400);
        let early: Vec<_> = got.iter().filter(|&&(_, late)| late < 500).collect();
        assert!(early.is_empty(), "handled before the 500 µs LAN delay: {early:?}");
    }

    #[test]
    fn one_jitter_free_link_delivers_in_send_order() {
        let got = stamped_run(2, NodeId(1), 600, 16);
        let order: Vec<u32> = got.iter().map(|&(n, _)| n).collect();
        assert_eq!(order, (0..600).collect::<Vec<_>>());
    }

    #[test]
    fn a_self_send_waits_its_50_us() {
        let got = stamped_run(1, NodeId(0), 200, 4);
        assert_eq!(got.len(), 200);
        assert!(got.iter().all(|&(_, late)| late >= 50), "self-send handled early: {got:?}");
    }

    #[test]
    fn held_messages_leave_in_due_then_arrival_order() {
        let start = Instant::now();
        let at = |us| start + Duration::from_micros(us);
        let mut held = Held::new();
        for (due, n) in [(30, 0), (10, 1), (30, 2), (20, 3), (10, 4)] {
            held.push(at(due), NodeId(n), n);
        }
        assert_eq!(held.next_due(), Some(at(10)));
        let order: Vec<u32> = std::iter::from_fn(|| held.pop()).map(|(_, n)| n).collect();
        assert_eq!(order, [1, 4, 3, 0, 2]);
        // Freed slots are reused: the slab stays as long as its peak.
        held.push(at(5), NodeId(9), 9);
        assert_eq!(held.slab.len(), 5);
        assert_eq!(held.pop(), Some((NodeId(9), 9)));
        assert_eq!(held.next_due(), None);
    }

    /// Holds one clone of a shared token, so a test can see when the
    /// engine has dropped every shard.
    struct Holder {
        _token: Arc<()>,
    }

    impl Proto for Holder {
        type Msg = Token;
        fn on_start(&mut self, ctx: &mut dyn Context<Token>) {
            // An armed timer: the worker sleeps on it, not on its mailbox.
            ctx.set_timer(SimDuration::from_secs(600), 1);
        }
        fn on_message(&mut self, _f: NodeId, _m: Token, _c: &mut dyn Context<Token>) {}
    }

    #[test]
    fn a_dropped_engine_releases_its_shards() {
        let token = Arc::new(());
        let eng = start(
            Topology::lan(3),
            7,
            1.0,
            (0..3).map(|_| Holder { _token: Arc::clone(&token) }).collect(),
        );
        eng.invoke(NodeId(2), 0, |_, ctx| ctx.send(NodeId(0), Token { hops: 0 }));
        drop(eng);
        assert_eq!(Arc::strong_count(&token), 1, "a shard outlived its engine");
    }

    #[test]
    fn an_engine_dropped_on_its_own_worker_does_not_join_itself() {
        let token = Arc::new(());
        let nodes = (0..2).map(|_| Holder { _token: Arc::clone(&token) }).collect();
        let eng = Arc::new(start(Topology::lan(2), 8, 1.0, nodes));
        let last = Arc::clone(&eng);
        let (go, wait) = channel::<()>();
        let (done_tx, done) = channel::<()>();
        eng.invoke(NodeId(1), 0, move |_, _| {
            wait.recv().expect("go");
            drop(last); // the engine's last handle, dropped on worker 1
            done_tx.send(()).expect("test alive");
        });
        drop(eng);
        go.send(()).expect("worker alive");
        done.recv_timeout(Duration::from_secs(10)).expect("the drop returned on the worker");
        let deadline = Instant::now() + Duration::from_secs(10);
        while Arc::strong_count(&token) > 1 {
            assert!(Instant::now() < deadline, "workers still hold their shards");
            thread::sleep(Duration::from_millis(5));
        }
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
