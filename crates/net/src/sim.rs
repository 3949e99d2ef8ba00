//! The deterministic discrete-event engine.
//!
//! [`SimEngine`] owns one [`Proto`] state machine per node, a single event
//! queue ordered by `(virtual time, sequence)`, and a seeded RNG. Identical
//! seeds and inputs produce bit-identical runs, which is what lets the bench
//! harness regenerate the paper's figures exactly.
//!
//! Failure injection (message loss, link partitions, node pauses) is built
//! in: the evaluation of §6 runs clean, while the extension tests exercise
//! the bottom-layer/rollback machinery under faults.

use crate::proto::{Context, Proto, TimerId, Wire};
use crate::stats::NetStats;
use crate::topology::Topology;
use idea_types::{FastMap, FastSet, NodeId, SimDuration, SimTime};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// RNG seed; fully determines a run given identical inputs.
    pub seed: u64,
    /// Delivery delay for self-sends (models local queueing).
    pub local_delay: SimDuration,
    /// Probability that any remote message is dropped.
    pub loss_rate: f64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig { seed: 0, local_delay: SimDuration::from_micros(50), loss_rate: 0.0 }
    }
}

/// Low bits of a queue key holding the event's slot; the `seq` above
/// them gets the other 40.
const SLOT_BITS: u32 = 24;

/// What an event does when it fires.
#[derive(Debug)]
enum EvKind<M> {
    Deliver { from: NodeId, to: NodeId, msg: M },
    Timer { node: NodeId, id: TimerId, kind: u64 },
}

/// Actions a node requested while handling one event.
enum Action<M> {
    Send { to: NodeId, msg: M },
    SetTimer { id: u64, delay: SimDuration, kind: u64 },
    Cancel(u64),
}

/// The [`Context`] implementation handed to protocol callbacks.
struct SimCtx<'a, M> {
    now: SimTime,
    me: NodeId,
    n: usize,
    actions: Vec<Action<M>>,
    rng: &'a mut StdRng,
    next_timer: &'a mut u64,
}

impl<M> Context<M> for SimCtx<'_, M> {
    fn now(&self) -> SimTime {
        self.now
    }
    fn me(&self) -> NodeId {
        self.me
    }
    fn node_count(&self) -> usize {
        self.n
    }
    fn send(&mut self, to: NodeId, msg: M) {
        self.actions.push(Action::Send { to, msg });
    }
    fn set_timer(&mut self, delay: SimDuration, kind: u64) -> TimerId {
        let id = *self.next_timer;
        *self.next_timer += 1;
        self.actions.push(Action::SetTimer { id, delay, kind });
        TimerId(id)
    }
    fn cancel_timer(&mut self, timer: TimerId) {
        self.actions.push(Action::Cancel(timer.0));
    }
    fn rng(&mut self) -> &mut dyn RngCore {
        self.rng
    }
}

/// Events buffered while a node is paused.
enum Buffered<M> {
    Deliver { from: NodeId, msg: M },
    Timer { id: TimerId, kind: u64 },
}

/// How a [`SimEngine::run_until_quiescent`] call ended.
///
/// A fault schedule can keep the network permanently busy (a re-arming
/// background timer, a flapping link replaying messages); silently stopping
/// at an internal event cap would let a "converged" assertion pass on a run
/// that never actually settled. The typed outcome makes the distinction
/// explicit so scenario tests can assert on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Quiescence {
    /// Every event at or before the time limit was processed — the network
    /// genuinely drained within the window.
    Reached {
        /// Virtual time of the last processed event (or the starting time
        /// when the queue was already empty).
        at: SimTime,
    },
    /// The event budget ran out while work at or before the time limit
    /// still remained — the network never settled.
    LimitHit {
        /// Virtual time when the budget was exhausted.
        at: SimTime,
        /// Events processed (the full budget).
        events: u64,
    },
}

impl Quiescence {
    /// Virtual time when the run stopped, however it stopped.
    pub fn at(&self) -> SimTime {
        match *self {
            Quiescence::Reached { at } | Quiescence::LimitHit { at, .. } => at,
        }
    }

    /// True when the queue genuinely drained within the window.
    pub fn reached(&self) -> bool {
        matches!(self, Quiescence::Reached { .. })
    }
}

/// The deterministic discrete-event engine.
pub struct SimEngine<P: Proto> {
    cfg: SimConfig,
    topo: Topology,
    nodes: Vec<Option<P>>,
    /// Event queue: a min-heap of `(at µs, seq, slot)` keys packed as
    /// `at << 64 | seq << SLOT_BITS | slot`, the slot indexing `events`.
    /// `seq` is unique, so the heap pops in exactly `(at, seq)` order; a
    /// sift moves 16-byte keys, never the events, and compares two keys in
    /// one `u128` comparison.
    queue: BinaryHeap<Reverse<u128>>,
    /// Queued events by slot; `None` marks a free slot. As long as the
    /// most events ever queued at once.
    events: Vec<Option<EvKind<P::Msg>>>,
    /// Free slots of `events`, the last freed reused first.
    free: Vec<u32>,
    now: SimTime,
    seq: u64,
    rng: StdRng,
    stats: NetStats,
    /// Pending timer ids whose cancellation arrived before they popped.
    /// Entries are removed when the timer event pops, and cancellations of
    /// ids that are no longer live (already fired) are ignored, so the set
    /// is bounded by the number of in-flight timers.
    cancelled: FastSet<u64>,
    /// Timer ids currently queued and not cancelled.
    live_timers: FastSet<u64>,
    next_timer: u64,
    paused: Vec<bool>,
    parked: Vec<Vec<Buffered<P::Msg>>>,
    blocked: FastSet<(NodeId, NodeId)>,
    /// Per-link loss rates overriding the global `cfg.loss_rate`.
    link_loss: FastMap<(NodeId, NodeId), f64>,
    /// Extra seeded delivery jitter on remote sends (0 = off). A window
    /// wider than the inter-send gap reorders messages on a link.
    reorder_window: SimDuration,
    /// Probability a remote message is delivered twice (0 = off).
    duplicate_rate: f64,
    /// Per-node clock skew in parts-per-million of elapsed virtual time.
    /// Only the node's *view* of `now` drifts; engine event times do not.
    skew_ppm: Vec<i64>,
    /// The one action buffer every event's context fills and `apply`
    /// drains (empty between events; only its capacity is kept).
    actions: Vec<Action<P::Msg>>,
}

impl<P: Proto> SimEngine<P> {
    /// Builds an engine over `topo` with one protocol instance per node and
    /// runs every node's `on_start`.
    ///
    /// # Panics
    /// Panics if `nodes.len() != topo.len()`.
    pub fn new(topo: Topology, cfg: SimConfig, nodes: Vec<P>) -> Self {
        assert_eq!(nodes.len(), topo.len(), "one protocol instance per topology node");
        let n = nodes.len();
        let mut eng = SimEngine {
            rng: StdRng::seed_from_u64(cfg.seed),
            cfg,
            topo,
            nodes: nodes.into_iter().map(Some).collect(),
            queue: BinaryHeap::new(),
            events: Vec::new(),
            free: Vec::new(),
            now: SimTime::ZERO,
            seq: 0,
            stats: NetStats::new(),
            cancelled: FastSet::default(),
            live_timers: FastSet::default(),
            next_timer: 0,
            paused: vec![false; n],
            parked: (0..n).map(|_| Vec::new()).collect(),
            blocked: FastSet::default(),
            link_loss: FastMap::default(),
            reorder_window: SimDuration::ZERO,
            duplicate_rate: 0.0,
            skew_ppm: vec![0; n],
            actions: Vec::new(),
        };
        for i in 0..n {
            eng.with_node(NodeId(i as u32), |p, ctx| p.on_start(ctx));
        }
        eng
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the engine has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Immutable access to a node's protocol state.
    pub fn node(&self, id: NodeId) -> &P {
        self.nodes[id.index()].as_ref().expect("node present")
    }

    /// Mutable access to a node's protocol state (harness-side mutation that
    /// must not send messages; use [`SimEngine::with_node`] otherwise).
    pub fn node_mut(&mut self, id: NodeId) -> &mut P {
        self.nodes[id.index()].as_mut().expect("node present")
    }

    /// Network statistics accumulated so far.
    pub fn stats(&self) -> &NetStats {
        &self.stats
    }

    /// Injects message loss for all subsequent remote sends.
    pub fn set_loss_rate(&mut self, p: f64) {
        self.cfg.loss_rate = p.clamp(0.0, 1.0);
    }

    /// Sets a per-link loss rate on `from → to`, overriding the global
    /// rate for that link. `p <= 0` removes the override.
    pub fn set_link_loss(&mut self, from: NodeId, to: NodeId, p: f64) {
        if p <= 0.0 {
            self.link_loss.remove(&(from, to));
        } else {
            self.link_loss.insert((from, to), p.clamp(0.0, 1.0));
        }
    }

    /// Removes every per-link loss override.
    pub fn clear_link_loss(&mut self) {
        self.link_loss.clear();
    }

    /// Adds seeded uniform jitter in `[0, window]` to every remote
    /// delivery delay. A window wider than the inter-send gap reorders
    /// messages on a link; `SimDuration::ZERO` turns the layer off (and
    /// restores bit-identical unperturbed traces — no RNG draws happen).
    pub fn set_reorder_window(&mut self, window: SimDuration) {
        self.reorder_window = window;
    }

    /// Delivers each remote message a second time with probability `p`
    /// (the duplicate samples its own delay, so copies can arrive in
    /// either order). `0` turns the layer off without consuming RNG draws.
    pub fn set_duplicate_rate(&mut self, p: f64) {
        self.duplicate_rate = p.clamp(0.0, 1.0);
    }

    /// Skews `node`'s *view* of the clock by `ppm` parts-per-million of
    /// elapsed virtual time (positive = fast, negative = slow). Event
    /// scheduling is untouched; only `Context::now` as seen by the node
    /// drifts, which is what perturbs update timestamps.
    pub fn set_clock_skew(&mut self, node: NodeId, ppm: i64) {
        self.skew_ppm[node.index()] = ppm;
    }

    /// The clock-skew setting for `node` in parts-per-million.
    #[cfg(test)]
    pub(crate) fn clock_skew(&self, node: NodeId) -> i64 {
        self.skew_ppm[node.index()]
    }

    /// Blocks the directed link `from → to` (partition injection).
    pub fn partition(&mut self, from: NodeId, to: NodeId) {
        self.blocked.insert((from, to));
    }

    /// Restores the directed link `from → to`.
    pub fn heal(&mut self, from: NodeId, to: NodeId) {
        self.blocked.remove(&(from, to));
    }

    /// Restores every blocked link at once.
    pub fn heal_all(&mut self) {
        self.blocked.clear();
    }

    /// Pauses a node: deliveries and timers park until `resume`.
    pub fn pause(&mut self, node: NodeId) {
        self.paused[node.index()] = true;
    }

    /// True while `node` is paused.
    #[cfg(test)]
    pub(crate) fn is_paused(&self, node: NodeId) -> bool {
        self.paused[node.index()]
    }

    /// Discards every event parked while `node` was paused, returning how
    /// many were dropped. A `pause` + `drop_parked` + state swap models a
    /// crash: in-flight deliveries and the old incarnation's timer chains
    /// die with the process instead of replaying into the replacement.
    pub fn drop_parked(&mut self, node: NodeId) -> usize {
        std::mem::take(&mut self.parked[node.index()]).len()
    }

    /// Resumes a paused node, replaying parked events in arrival order.
    pub fn resume(&mut self, node: NodeId) {
        let i = node.index();
        if !self.paused[i] {
            return;
        }
        self.paused[i] = false;
        let parked = std::mem::take(&mut self.parked[i]);
        for ev in parked {
            match ev {
                Buffered::Deliver { from, msg } => self.with_node(node, |p, ctx| {
                    p.on_message(from, msg, ctx);
                }),
                Buffered::Timer { id, kind } => self.with_node(node, |p, ctx| {
                    p.on_timer(id, kind, ctx);
                }),
            }
        }
    }

    /// Runs `f` against node `id` with a live context — the harness's way of
    /// injecting external stimuli (a user's write, a demand for resolution).
    pub fn with_node<R>(
        &mut self,
        id: NodeId,
        f: impl FnOnce(&mut P, &mut dyn Context<P::Msg>) -> R,
    ) -> R {
        let i = id.index();
        let mut node = self.nodes[i].take().expect("node present (not re-entrant)");
        let mut ctx = SimCtx {
            now: self.skewed_now(id),
            me: id,
            n: self.nodes.len(),
            actions: std::mem::take(&mut self.actions),
            rng: &mut self.rng,
            next_timer: &mut self.next_timer,
        };
        let out = f(&mut node, &mut ctx);
        let mut actions = ctx.actions;
        self.nodes[i] = Some(node);
        self.apply(id, &mut actions);
        self.actions = actions;
        out
    }

    /// `node`'s view of the current time under its configured clock skew.
    fn skewed_now(&self, node: NodeId) -> SimTime {
        let ppm = self.skew_ppm[node.index()];
        if ppm == 0 {
            return self.now;
        }
        let t = self.now.as_micros() as i128;
        let drift = t * ppm as i128 / 1_000_000;
        SimTime::from_micros((t + drift).max(0) as u64)
    }

    /// Delay for one remote delivery: the topology sample plus, when the
    /// reorder layer is on, seeded uniform jitter within the window.
    fn remote_delay(&mut self, me: NodeId, to: NodeId) -> SimDuration {
        let base = self.topo.sample_delay(me, to, &mut self.rng);
        let window = self.reorder_window.as_micros();
        if window == 0 {
            return base;
        }
        base + SimDuration::from_micros(self.rng.gen_range(0..=window))
    }

    /// Carries out (and drains) the actions node `me` requested.
    fn apply(&mut self, me: NodeId, actions: &mut Vec<Action<P::Msg>>) {
        for a in actions.drain(..) {
            match a {
                Action::Send { to, msg } => {
                    self.stats.record(msg.class(), msg.wire_size() as u64);
                    if to != me {
                        if self.blocked.contains(&(me, to)) {
                            self.stats.record_drop();
                            continue;
                        }
                        let loss =
                            self.link_loss.get(&(me, to)).copied().unwrap_or(self.cfg.loss_rate);
                        if loss > 0.0 && self.rng.gen_bool(loss) {
                            self.stats.record_drop();
                            continue;
                        }
                    }
                    let delay =
                        if to == me { self.cfg.local_delay } else { self.remote_delay(me, to) };
                    let at = self.now + delay;
                    if to != me
                        && self.duplicate_rate > 0.0
                        && self.rng.gen_bool(self.duplicate_rate)
                    {
                        let dup_at = self.now + self.remote_delay(me, to);
                        self.push(at, EvKind::Deliver { from: me, to, msg: msg.clone() });
                        self.push(dup_at, EvKind::Deliver { from: me, to, msg });
                    } else {
                        self.push(at, EvKind::Deliver { from: me, to, msg });
                    }
                }
                Action::SetTimer { id, delay, kind } => {
                    let at = self.now + delay;
                    self.live_timers.insert(id);
                    self.push(at, EvKind::Timer { node: me, id: TimerId(id), kind });
                }
                Action::Cancel(id) => {
                    // Only live timers need a tombstone; cancelling one
                    // that already fired must not grow state forever.
                    if self.live_timers.remove(&id) {
                        self.cancelled.insert(id);
                    }
                }
            }
        }
    }

    fn push(&mut self, at: SimTime, kind: EvKind<P::Msg>) {
        let seq = self.seq;
        assert!(seq < 1 << (64 - SLOT_BITS), "under 2^40 events per run");
        self.seq += 1;
        let slot = match self.free.pop() {
            Some(slot) => {
                self.events[slot as usize] = Some(kind);
                slot
            }
            None => {
                let slot = self.events.len();
                assert!(slot < 1 << SLOT_BITS, "under 2^24 events queued at once");
                self.events.push(Some(kind));
                slot as u32
            }
        };
        let low = seq << SLOT_BITS | u64::from(slot);
        self.queue.push(Reverse(u128::from(at.as_micros()) << 64 | u128::from(low)));
    }

    /// Virtual µs of the next queued event, without removing it.
    fn next_at(&self) -> Option<u64> {
        self.queue.peek().map(|Reverse(key)| (key >> 64) as u64)
    }

    /// Processes the next event, if any; returns whether one was processed.
    pub fn step(&mut self) -> bool {
        let Some(Reverse(key)) = self.queue.pop() else {
            return false;
        };
        let slot = key as u32 & ((1 << SLOT_BITS) - 1);
        let kind = self.events[slot as usize].take().expect("a queued slot holds its event");
        self.free.push(slot);
        let at = SimTime::from_micros((key >> 64) as u64);
        debug_assert!(at >= self.now, "time must not run backwards");
        self.now = at;
        match kind {
            EvKind::Deliver { from, to, msg } => {
                let i = to.index();
                if self.paused[i] {
                    self.parked[i].push(Buffered::Deliver { from, msg });
                } else {
                    self.with_node(to, |p, ctx| p.on_message(from, msg, ctx));
                }
            }
            EvKind::Timer { node, id, kind } => {
                if self.cancelled.remove(&id.0) {
                    return true;
                }
                self.live_timers.remove(&id.0);
                let i = node.index();
                if self.paused[i] {
                    self.parked[i].push(Buffered::Timer { id, kind });
                } else {
                    self.with_node(node, |p, ctx| p.on_timer(id, kind, ctx));
                }
            }
        }
        true
    }

    /// Runs every event scheduled at or before `t`, then advances to `t`.
    pub fn run_until(&mut self, t: SimTime) {
        while self.next_at().is_some_and(|at| at <= t.as_micros()) {
            self.step();
        }
        if t > self.now {
            self.now = t;
        }
    }

    /// Runs for `d` of virtual time from now.
    pub fn run_for(&mut self, d: SimDuration) {
        let t = self.now + d;
        self.run_until(t);
    }

    /// Default event budget for [`SimEngine::run_until_quiescent`] — far
    /// above any settling run in this workspace, so hitting it means the
    /// network genuinely never drains.
    pub const DEFAULT_EVENT_BUDGET: u64 = 50_000_000;

    /// Runs until the queue drains of events at or before `limit`, under
    /// the default event budget. The typed outcome distinguishes a genuine
    /// drain from a run the budget cut off — assert
    /// [`Quiescence::reached`] when convergence is the claim.
    pub fn run_until_quiescent(&mut self, limit: SimTime) -> Quiescence {
        self.run_until_quiescent_bounded(limit, Self::DEFAULT_EVENT_BUDGET)
    }

    /// [`SimEngine::run_until_quiescent`] with an explicit event budget.
    pub fn run_until_quiescent_bounded(&mut self, limit: SimTime, budget: u64) -> Quiescence {
        let mut events = 0u64;
        while self.next_at().is_some_and(|at| at <= limit.as_micros()) {
            if events >= budget {
                return Quiescence::LimitHit { at: self.now, events };
            }
            self.step();
            events += 1;
        }
        Quiescence::Reached { at: self.now }
    }

    /// Number of events still queued (parked events on paused nodes are not
    /// included).
    #[cfg(test)]
    pub(crate) fn pending_events(&self) -> usize {
        self.queue.len()
    }

    /// Cancellation tombstones currently held (bounded by in-flight
    /// timers; exposed so tests can pin that the set cannot leak).
    #[cfg(test)]
    pub(crate) fn pending_cancellations(&self) -> usize {
        self.cancelled.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::MsgClass;

    /// Token-passing protocol: node 0 starts a token that hops to the next
    /// node `hops` times.
    #[derive(Debug, Clone)]
    struct Token {
        hops: u32,
    }

    impl Wire for Token {
        fn class(&self) -> MsgClass {
            MsgClass::App
        }
        fn wire_size(&self) -> usize {
            8
        }
    }

    struct Ring {
        received: Vec<SimTime>,
        start: bool,
    }

    impl Ring {
        fn new(start: bool) -> Self {
            Ring { received: Vec::new(), start }
        }
    }

    impl Proto for Ring {
        type Msg = Token;
        fn on_start(&mut self, ctx: &mut dyn Context<Token>) {
            if self.start {
                ctx.send(NodeId(1), Token { hops: 1 });
            }
        }
        fn on_message(&mut self, _from: NodeId, msg: Token, ctx: &mut dyn Context<Token>) {
            self.received.push(ctx.now());
            if (msg.hops as usize) < ctx.node_count() * 3 {
                let next = NodeId((ctx.me().0 + 1) % ctx.node_count() as u32);
                ctx.send(next, Token { hops: msg.hops + 1 });
            }
        }
    }

    fn ring_engine(n: usize, seed: u64) -> SimEngine<Ring> {
        let nodes = (0..n).map(|i| Ring::new(i == 0)).collect();
        SimEngine::new(Topology::lan(n), SimConfig { seed, ..Default::default() }, nodes)
    }

    #[test]
    fn token_circulates_and_time_advances() {
        let mut eng = ring_engine(4, 1);
        let q = eng.run_until_quiescent(SimTime::from_secs(10));
        assert!(q.reached(), "a clean ring must drain");
        let end = q.at();
        assert!(end > SimTime::ZERO);
        let total: usize = (0..4).map(|i| eng.node(NodeId(i)).received.len()).sum();
        assert_eq!(total, 12); // 3 laps of 4 nodes
                               // LAN latency 0.5 ms/hop: 12 hops ≈ 6 ms.
        assert_eq!(end, SimTime::from_micros(500 * 12));
    }

    #[test]
    fn runs_are_deterministic() {
        let mut a = ring_engine(5, 99);
        let mut b = ring_engine(5, 99);
        a.run_until_quiescent(SimTime::from_secs(10));
        b.run_until_quiescent(SimTime::from_secs(10));
        assert_eq!(a.now(), b.now());
        for i in 0..5 {
            assert_eq!(a.node(NodeId(i)).received, b.node(NodeId(i)).received);
        }
        assert_eq!(a.stats().messages(MsgClass::App), b.stats().messages(MsgClass::App));
    }

    #[test]
    fn stats_count_sends() {
        let mut eng = ring_engine(4, 1);
        eng.run_until_quiescent(SimTime::from_secs(10));
        // on_start sends 1, each of the 12 receptions except the last resends.
        assert_eq!(eng.stats().messages(MsgClass::App), 12);
        assert_eq!(eng.stats().payload_bytes(MsgClass::App), 96);
    }

    #[test]
    fn run_until_stops_at_boundary() {
        let mut eng = ring_engine(4, 1);
        eng.run_until(SimTime::from_micros(1_200));
        assert_eq!(eng.now(), SimTime::from_micros(1_200));
        let total: usize = (0..4).map(|i| eng.node(NodeId(i)).received.len()).sum();
        assert_eq!(total, 2); // hops at 0.5 ms and 1.0 ms delivered
        assert!(eng.pending_events() > 0);
    }

    #[test]
    fn loss_drops_everything_at_rate_one() {
        let mut eng = ring_engine(4, 1);
        // The on_start token is already in flight; every send after the rate
        // change is dropped, so the ring dies after the first delivery.
        eng.set_loss_rate(1.0);
        eng.run_until_quiescent(SimTime::from_secs(10));
        let total: usize = (0..4).map(|i| eng.node(NodeId(i)).received.len()).sum();
        assert_eq!(total, 1);
        assert_eq!(eng.stats().dropped(), 1); // node 1's forward
    }

    #[test]
    fn partition_blocks_directed_link() {
        let mut eng = ring_engine(4, 1);
        eng.partition(NodeId(1), NodeId(2));
        eng.run_until_quiescent(SimTime::from_secs(10));
        // Token reaches node 1 then dies on the blocked link.
        assert_eq!(eng.node(NodeId(1)).received.len(), 1);
        assert_eq!(eng.node(NodeId(2)).received.len(), 0);
        assert_eq!(eng.stats().dropped(), 1);
        // Healing restores traffic for a fresh token.
        eng.heal(NodeId(1), NodeId(2));
        eng.with_node(NodeId(0), |_, ctx| ctx.send(NodeId(1), Token { hops: 1 }));
        eng.run_until_quiescent(SimTime::from_secs(20));
        assert!(!eng.node(NodeId(2)).received.is_empty());
    }

    #[test]
    fn pause_parks_and_resume_replays() {
        let mut eng = ring_engine(4, 1);
        eng.pause(NodeId(2));
        eng.run_until_quiescent(SimTime::from_secs(10));
        assert_eq!(eng.node(NodeId(2)).received.len(), 0);
        let before = eng.node(NodeId(3)).received.len();
        assert_eq!(before, 0, "token stalled at the paused node");
        eng.resume(NodeId(2));
        eng.run_until_quiescent(SimTime::from_secs(20));
        assert!(!eng.node(NodeId(2)).received.is_empty());
        assert!(!eng.node(NodeId(3)).received.is_empty());
    }

    /// Timer-based protocol for timer semantics tests.
    struct Ticker {
        fired: Vec<(u64, SimTime)>,
        cancel_second: bool,
        armed: Vec<TimerId>,
    }

    impl Proto for Ticker {
        type Msg = Token;
        fn on_start(&mut self, ctx: &mut dyn Context<Token>) {
            let a = ctx.set_timer(SimDuration::from_millis(10), 1);
            let b = ctx.set_timer(SimDuration::from_millis(20), 2);
            self.armed = vec![a, b];
            if self.cancel_second {
                ctx.cancel_timer(b);
            }
        }
        fn on_message(&mut self, _f: NodeId, _m: Token, _c: &mut dyn Context<Token>) {}
        fn on_timer(&mut self, _t: TimerId, kind: u64, ctx: &mut dyn Context<Token>) {
            self.fired.push((kind, ctx.now()));
        }
    }

    #[test]
    fn timers_fire_in_order() {
        let nodes = vec![Ticker { fired: vec![], cancel_second: false, armed: vec![] }];
        let mut eng = SimEngine::new(Topology::lan(1), SimConfig::default(), nodes);
        eng.run_until_quiescent(SimTime::from_secs(1));
        let fired = &eng.node(NodeId(0)).fired;
        assert_eq!(fired.len(), 2);
        assert_eq!(fired[0], (1, SimTime::from_millis(10)));
        assert_eq!(fired[1], (2, SimTime::from_millis(20)));
    }

    #[test]
    fn cancelled_timer_never_fires() {
        let nodes = vec![Ticker { fired: vec![], cancel_second: true, armed: vec![] }];
        let mut eng = SimEngine::new(Topology::lan(1), SimConfig::default(), nodes);
        eng.run_until_quiescent(SimTime::from_secs(1));
        let fired = &eng.node(NodeId(0)).fired;
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].0, 1);
        // The tombstone was consumed when the cancelled event popped.
        assert_eq!(eng.pending_cancellations(), 0);
    }

    /// Records every event it handles as `(tag, now)`: a timer's kind, or
    /// a token's hop count with bit 32 set. When the timer of kind
    /// `rearm.0` fires it arms kind `rearm.1` for the current tick.
    #[derive(Default)]
    struct Alarm {
        fired: Vec<(u64, SimTime)>,
        rearm: Option<(u64, u64)>,
    }

    impl Proto for Alarm {
        type Msg = Token;
        fn on_message(&mut self, _f: NodeId, msg: Token, ctx: &mut dyn Context<Token>) {
            self.fired.push((u64::from(msg.hops) | 1 << 32, ctx.now()));
        }
        fn on_timer(&mut self, _t: TimerId, kind: u64, ctx: &mut dyn Context<Token>) {
            self.fired.push((kind, ctx.now()));
            if let Some((_, next)) = self.rearm.filter(|&(on, _)| on == kind) {
                ctx.set_timer(SimDuration::ZERO, next);
            }
        }
    }

    fn alarm_engine(rearm: Option<(u64, u64)>) -> SimEngine<Alarm> {
        let nodes = vec![Alarm { fired: vec![], rearm }];
        SimEngine::new(Topology::lan(1), SimConfig::default(), nodes)
    }

    fn tags(fired: &[(u64, SimTime)]) -> Vec<u64> {
        fired.iter().map(|&(tag, _)| tag).collect()
    }

    #[test]
    fn events_due_in_one_microsecond_fire_in_schedule_order() {
        let mut eng = alarm_engine(None);
        eng.with_node(NodeId(0), |_, ctx| {
            ctx.set_timer(SimDuration::from_micros(50), 0);
            ctx.set_timer(SimDuration::from_micros(10), 1);
            ctx.set_timer(SimDuration::from_micros(10), 2);
            // A self-send lands after `local_delay` (50 µs), between the
            // two timers due then.
            ctx.send(NodeId(0), Token { hops: 7 });
            ctx.set_timer(SimDuration::from_micros(700), 3);
            ctx.set_timer(SimDuration::from_micros(50), 4);
        });
        assert!(eng.run_until_quiescent(SimTime::from_secs(1)).reached());
        let fired = &eng.node(NodeId(0)).fired;
        assert_eq!(tags(fired), [1, 2, 0, 7 | 1 << 32, 4, 3]);
        let at: Vec<u64> = fired.iter().map(|&(_, t)| t.as_micros()).collect();
        assert_eq!(at, [10, 10, 50, 50, 50, 700]);
    }

    #[test]
    fn an_event_scheduled_for_the_draining_tick_fires_after_those_due() {
        // Timer 0 arms timer 9 for the tick the queue is draining: it
        // fires in that tick, after timer 1 that was already due.
        let mut eng = alarm_engine(Some((0, 9)));
        eng.with_node(NodeId(0), |_, ctx| {
            ctx.set_timer(SimDuration::from_micros(10), 0);
            ctx.set_timer(SimDuration::from_micros(10), 1);
            ctx.set_timer(SimDuration::from_micros(11), 2);
        });
        assert!(eng.run_until_quiescent(SimTime::from_secs(1)).reached());
        let fired = &eng.node(NodeId(0)).fired;
        assert_eq!(tags(fired), [0, 1, 9, 2]);
        assert_eq!(fired[2].1, SimTime::from_micros(10));
    }

    #[test]
    fn a_far_timer_fires_on_time_after_a_long_idle() {
        let mut eng = alarm_engine(None);
        let far = [1u64 << 30, (1 << 30) + 1, u64::MAX / 4, 4096, 65, 64, 63];
        eng.with_node(NodeId(0), |_, ctx| {
            for (kind, &us) in far.iter().enumerate() {
                ctx.set_timer(SimDuration::from_micros(us), kind as u64);
            }
        });
        // Peeking at the next deadline removes nothing: a run that stops
        // short fires none of the far timers, and an event injected after
        // the stop still runs before them.
        eng.run_until(SimTime::from_micros(1 << 29));
        assert_eq!(eng.node(NodeId(0)).fired.len(), 4);
        assert_eq!(eng.pending_events(), 3);
        eng.with_node(NodeId(0), |_, ctx| ctx.set_timer(SimDuration::from_micros(1), 99));
        assert!(eng.run_until_quiescent(SimTime::from_micros(u64::MAX / 2)).reached());
        let fired = &eng.node(NodeId(0)).fired;
        let want = [(6, 63), (5, 64), (4, 65), (3, 4096), (99, (1 << 29) + 1)].into_iter().chain([
            (0, 1 << 30),
            (1, (1 << 30) + 1),
            (2, u64::MAX / 4),
        ]);
        assert!(fired.iter().copied().eq(want.map(|(k, us)| (k, SimTime::from_micros(us)))));
        assert_eq!(eng.now(), SimTime::from_micros(u64::MAX / 4));
    }

    /// Protocol pattern that used to leak: arm a deadline, have it fire,
    /// then cancel the (already-fired) handle from inside the handler's
    /// cleanup. The tombstone set must stay empty, no matter how many times
    /// the cycle repeats.
    struct LateCancel {
        rounds: u32,
    }

    impl Proto for LateCancel {
        type Msg = Token;
        fn on_start(&mut self, ctx: &mut dyn Context<Token>) {
            let t = ctx.set_timer(SimDuration::from_millis(1), 1);
            ctx.cancel_timer(TimerId(t.0 + 1_000_000)); // junk id: also a no-op
            let _ = t;
        }
        fn on_message(&mut self, _f: NodeId, _m: Token, _c: &mut dyn Context<Token>) {}
        fn on_timer(&mut self, timer: TimerId, _kind: u64, ctx: &mut dyn Context<Token>) {
            // The deadline fired; "cleanup" cancels the stale handle.
            ctx.cancel_timer(timer);
            if self.rounds < 100 {
                self.rounds += 1;
                ctx.set_timer(SimDuration::from_millis(1), 1);
            }
        }
    }

    #[test]
    fn cancelling_fired_timers_leaves_no_residue() {
        let nodes = vec![LateCancel { rounds: 0 }];
        let mut eng = SimEngine::new(Topology::lan(1), SimConfig::default(), nodes);
        eng.run_until_quiescent(SimTime::from_secs(10));
        assert_eq!(eng.node(NodeId(0)).rounds, 100);
        assert_eq!(eng.pending_cancellations(), 0, "cancelled-set must not grow unboundedly");
    }

    #[test]
    #[should_panic(expected = "one protocol instance per topology node")]
    fn node_count_mismatch_panics() {
        let _ = SimEngine::new(Topology::lan(3), SimConfig::default(), vec![Ring::new(false)]);
    }

    /// One-shot sprayer: node 0 sends `burst` tokens to node 1 at start;
    /// node 1 only records (no resends), so duplication and reordering are
    /// observable without feedback loops.
    struct Spray {
        burst: u32,
        received: Vec<u32>,
    }

    impl Proto for Spray {
        type Msg = Token;
        fn on_start(&mut self, ctx: &mut dyn Context<Token>) {
            for hops in 0..self.burst {
                ctx.send(NodeId(1), Token { hops });
            }
        }
        fn on_message(&mut self, _f: NodeId, msg: Token, _c: &mut dyn Context<Token>) {
            self.received.push(msg.hops);
        }
    }

    fn spray_engine(burst: u32, seed: u64) -> SimEngine<Spray> {
        let nodes = vec![Spray { burst, received: vec![] }, Spray { burst: 0, received: vec![] }];
        SimEngine::new(Topology::lan(2), SimConfig { seed, ..Default::default() }, nodes)
    }

    #[test]
    fn link_loss_is_per_link() {
        let mut eng = ring_engine(4, 1);
        // Only 1→2 is lossy; the token dies there exactly like a partition
        // would kill it, and no other link is perturbed.
        eng.set_link_loss(NodeId(1), NodeId(2), 1.0);
        eng.run_until_quiescent(SimTime::from_secs(10));
        assert_eq!(eng.node(NodeId(1)).received.len(), 1);
        assert_eq!(eng.node(NodeId(2)).received.len(), 0);
        assert_eq!(eng.stats().dropped(), 1);
        // Clearing the override restores the link for a fresh token.
        eng.set_link_loss(NodeId(1), NodeId(2), 0.0);
        eng.with_node(NodeId(0), |_, ctx| ctx.send(NodeId(1), Token { hops: 1 }));
        eng.run_until_quiescent(SimTime::from_secs(20));
        assert!(!eng.node(NodeId(2)).received.is_empty());
    }

    #[test]
    fn reorder_window_perturbs_arrival_order_deterministically() {
        // Without the window a LAN burst arrives FIFO by send order.
        let mut clean = spray_engine(8, 7);
        clean.run_until_quiescent(SimTime::from_secs(1));
        assert_eq!(clean.node(NodeId(1)).received, (0..8).collect::<Vec<_>>());

        // A window much wider than the (zero) inter-send gap shuffles the
        // burst; the same seed reproduces the same shuffle bit-identically.
        let shuffled = |seed| {
            let mut eng = spray_engine(8, seed);
            eng.set_reorder_window(SimDuration::from_millis(50));
            // on_start already ran inside SimEngine::new, so re-spray.
            eng.with_node(NodeId(0), |p, ctx| p.on_start(ctx));
            eng.run_until_quiescent(SimTime::from_secs(1));
            eng.node(NodeId(1)).received.clone()
        };
        let a = shuffled(7);
        let b = shuffled(7);
        assert_eq!(a, b, "same seed, same permutation");
        assert_eq!(a.len(), 16, "first FIFO burst plus the re-sprayed one");
        let mut sorted = a[8..].to_vec();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..8).collect::<Vec<_>>(), "nothing lost or duplicated");
        assert_ne!(a[8..].to_vec(), sorted, "the wide window must actually reorder");
    }

    #[test]
    fn duplicate_rate_one_delivers_every_remote_message_twice() {
        let mut eng = spray_engine(3, 1);
        eng.set_duplicate_rate(1.0);
        eng.with_node(NodeId(0), |p, ctx| p.on_start(ctx));
        eng.run_until_quiescent(SimTime::from_secs(1));
        // First burst (pre-fault) delivered once each, second burst twice.
        assert_eq!(eng.node(NodeId(1)).received.len(), 3 + 6);
    }

    #[test]
    fn clock_skew_moves_only_the_nodes_view_of_now() {
        let mut eng = ring_engine(2, 1);
        eng.run_until(SimTime::from_secs(100));
        eng.set_clock_skew(NodeId(1), 500_000); // +50% fast
        eng.set_clock_skew(NodeId(0), -500_000); // 50% slow
        let fast = eng.with_node(NodeId(1), |_, ctx| ctx.now());
        let slow = eng.with_node(NodeId(0), |_, ctx| ctx.now());
        assert_eq!(fast, SimTime::from_secs(150));
        assert_eq!(slow, SimTime::from_secs(50));
        assert_eq!(eng.now(), SimTime::from_secs(100), "engine time is unskewed");
        assert_eq!(eng.clock_skew(NodeId(1)), 500_000);
    }

    #[test]
    fn drop_parked_discards_a_crashed_nodes_backlog() {
        let mut eng = ring_engine(4, 1);
        eng.pause(NodeId(2));
        eng.run_until_quiescent(SimTime::from_secs(10));
        // The token parked at node 2; a crash discards it instead of
        // replaying it into the restarted incarnation.
        assert_eq!(eng.drop_parked(NodeId(2)), 1);
        assert!(eng.is_paused(NodeId(2)));
        eng.resume(NodeId(2));
        eng.run_until_quiescent(SimTime::from_secs(20));
        assert_eq!(eng.node(NodeId(2)).received.len(), 0, "backlog was dropped");
        assert_eq!(eng.node(NodeId(3)).received.len(), 0, "ring stays dead");
    }

    /// Self-perpetuating storm: every delivery immediately re-sends, so the
    /// queue never drains and only the event budget can stop the run.
    struct Storm;

    impl Proto for Storm {
        type Msg = Token;
        fn on_start(&mut self, ctx: &mut dyn Context<Token>) {
            ctx.send(NodeId(1), Token { hops: 0 });
        }
        fn on_message(&mut self, from: NodeId, msg: Token, ctx: &mut dyn Context<Token>) {
            ctx.send(from, msg);
        }
    }

    #[test]
    fn permanently_busy_network_reports_limit_hit() {
        let mut eng = SimEngine::new(Topology::lan(2), SimConfig::default(), vec![Storm, Storm]);
        let q = eng.run_until_quiescent_bounded(SimTime::from_secs(3600), 1_000);
        assert!(!q.reached());
        match q {
            Quiescence::LimitHit { at, events } => {
                assert_eq!(events, 1_000);
                assert!(at > SimTime::ZERO);
                assert!(eng.pending_events() > 0, "work genuinely remained");
            }
            Quiescence::Reached { .. } => unreachable!("storm cannot drain"),
        }
    }

    /// One record per handled event: `(virtual µs, from, to, tag)`, in the
    /// order the engine ran them. A timer records `from == to` and its kind
    /// with bit 32 set; a delivery records the token's hop count.
    type Trace = std::sync::Arc<std::sync::Mutex<Vec<(u64, u32, u32, u64)>>>;

    /// A timer-driven chatterer: each tick sprays tokens at two seeded
    /// peers, re-arms itself and swaps a short-lived guard timer (so some
    /// cancellations land before the guard fires and some after); each
    /// token is forwarded to a seeded peer until its third hop.
    struct Chatter {
        trace: Trace,
        ticks: u32,
        guard: Option<TimerId>,
    }

    impl Proto for Chatter {
        type Msg = Token;
        fn on_start(&mut self, ctx: &mut dyn Context<Token>) {
            let me = u64::from(ctx.me().0);
            ctx.set_timer(SimDuration::from_millis(me + 1), 1);
            let doomed = ctx.set_timer(SimDuration::from_millis(7), 2);
            if me % 2 == 1 {
                ctx.cancel_timer(doomed);
            }
        }
        fn on_message(&mut self, from: NodeId, msg: Token, ctx: &mut dyn Context<Token>) {
            let me = ctx.me();
            let at = ctx.now().as_micros();
            idea_types::lock(&self.trace).push((at, from.0, me.0, u64::from(msg.hops)));
            if msg.hops < 3 {
                let to = NodeId(ctx.rng().next_u32() % ctx.node_count() as u32);
                ctx.send(to, Token { hops: msg.hops + 1 });
            }
        }
        fn on_timer(&mut self, _timer: TimerId, kind: u64, ctx: &mut dyn Context<Token>) {
            let me = ctx.me();
            let at = ctx.now().as_micros();
            idea_types::lock(&self.trace).push((at, me.0, me.0, kind | 1 << 32));
            if kind != 1 || self.ticks == 12 {
                return;
            }
            self.ticks += 1;
            for _ in 0..2 {
                let to = NodeId(ctx.rng().next_u32() % ctx.node_count() as u32);
                ctx.send(to, Token { hops: 0 });
            }
            let gap = 1 + u64::from(ctx.rng().next_u32() % 6);
            ctx.set_timer(SimDuration::from_millis(gap), 1);
            if let Some(old) = self.guard.take() {
                ctx.cancel_timer(old);
            }
            self.guard = Some(ctx.set_timer(SimDuration::from_millis(3), 3));
        }
    }

    /// Six chatterers under every fault the engine injects — duplicates,
    /// a reorder window, a pause replayed on resume and a crash whose
    /// backlog `drop_parked` discards — run to quiescence.
    fn chatter_run(seed: u64) -> (SimEngine<Chatter>, Trace) {
        let trace = Trace::default();
        let nodes = (0..6).map(|_| Chatter { trace: trace.clone(), ticks: 0, guard: None });
        let cfg = SimConfig { seed, ..Default::default() };
        let mut eng = SimEngine::new(Topology::lan(6), cfg, nodes.collect());
        eng.set_duplicate_rate(0.2);
        eng.set_reorder_window(SimDuration::from_micros(1_500));
        eng.run_until(SimTime::from_millis(10));
        eng.pause(NodeId(2));
        eng.run_until(SimTime::from_millis(25));
        eng.resume(NodeId(2));
        eng.pause(NodeId(4));
        eng.run_until(SimTime::from_millis(40));
        let dropped = eng.drop_parked(NodeId(4));
        assert!(dropped > 0, "the crash must discard a backlog");
        eng.resume(NodeId(4));
        assert!(eng.run_until_quiescent(SimTime::from_secs(10)).reached());
        (eng, trace)
    }

    /// FNV-1a over every trace record, in order.
    fn checksum(trace: &[(u64, u32, u32, u64)]) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for &(at, from, to, tag) in trace {
            for word in [at, u64::from(from), u64::from(to), tag] {
                for byte in word.to_le_bytes() {
                    h = (h ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
                }
            }
        }
        h
    }

    /// The faulted chatter trace is pinned record for record: the queue
    /// may change how it stores events, never the order it runs them in.
    #[test]
    fn faulted_delivery_trace_is_pinned() {
        let (_, trace) = chatter_run(11);
        let trace = idea_types::lock(&trace);
        assert_eq!((trace.len(), checksum(&trace)), (785, 0x53c0_1343_c88f_87e4));
    }

    /// Every slot is free once the queue drains, and the slab is exactly
    /// as long as the most events ever queued at once: freed slots are
    /// reused before the slab grows.
    #[test]
    fn event_slab_is_sized_by_its_peak_queue() {
        let (mut eng, _) = chatter_run(11);
        assert_eq!(eng.pending_events(), 0);
        assert_eq!(eng.free.len(), eng.events.len());
        assert!(eng.events.iter().all(Option::is_none));
        let peak = eng.events.len();
        // A second burst, stepped by hand so the queue's peak is observed.
        let mut seen = 0;
        for i in 0..6 {
            eng.with_node(NodeId(i), |_, ctx| {
                for to in 0..6 {
                    ctx.send(NodeId(to), Token { hops: 2 });
                }
            });
            seen = seen.max(eng.pending_events());
        }
        loop {
            seen = seen.max(eng.pending_events());
            if !eng.step() {
                break;
            }
        }
        assert_eq!(eng.events.len(), peak.max(seen));
        assert_eq!(eng.free.len(), eng.events.len());
    }

    #[test]
    fn disabled_fault_layers_leave_traces_bit_identical() {
        // Setting every fault knob to its off value must not consume RNG
        // draws: the run stays bit-identical to a never-touched engine.
        let mut base = ring_engine(5, 99);
        base.run_until_quiescent(SimTime::from_secs(10));
        let mut off = ring_engine(5, 99);
        off.set_reorder_window(SimDuration::ZERO);
        off.set_duplicate_rate(0.0);
        off.set_link_loss(NodeId(0), NodeId(1), 0.0);
        off.set_clock_skew(NodeId(0), 0);
        off.run_until_quiescent(SimTime::from_secs(10));
        assert_eq!(base.now(), off.now());
        for i in 0..5 {
            assert_eq!(base.node(NodeId(i)).received, off.node(NodeId(i)).received);
        }
    }
}
