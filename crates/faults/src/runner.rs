//! Executes a [`Scenario`] against a simulated fleet, checking invariants
//! after every event and driving the healing epilogue to convergence.
//!
//! The runner owns a [`SimEngine`] plus a *rebuild factory*: crashing a
//! node swaps a replacement in at recovery time, built either through the
//! host's WAL-replay path (`via_wal`) or from scratch. All fault knobs go
//! through the engine's deterministic hooks, so a fixed `(fleet seed,
//! scenario)` pair replays bit-identically — same per-event state-hash
//! trajectory, same message totals.

use crate::oracle::{converged, Violation};
use crate::schedule::{FaultEvent, Scenario, WorkOp};
use idea_apps::{BookingServer, FleetInvariant};
use idea_core::IdeaMsg;
use idea_net::{Context, Proto, Quiescence, SimEngine};
use idea_types::{FastMap, NodeId, SimDuration, SimTime};

/// What the fault harness needs from an application under test, beyond
/// [`Proto`]: a content hash, a workload step, and the recovery hooks.
pub trait FaultHost: Proto {
    /// Content hash of the replicated state (equality across the fleet is
    /// the convergence oracle).
    fn state_hash(&self) -> u64;

    /// Performs the host's `op`-th workload operation.
    fn apply_op(&mut self, op: u64, ctx: &mut dyn Context<Self::Msg>);

    /// Forces an on-demand resolution round.
    fn resolve_now(&mut self, ctx: &mut dyn Context<Self::Msg>);

    /// Pulls missed updates from `peer` after a restart.
    fn rejoin(&mut self, peer: NodeId, ctx: &mut dyn Context<Self::Msg>);
}

impl FaultHost for BookingServer {
    fn state_hash(&self) -> u64 {
        self.idea().state_hash()
    }

    fn apply_op(&mut self, op: u64, ctx: &mut dyn Context<IdeaMsg>) {
        // Every op is a one-seat sale attempt at an op-determined price;
        // rejections (sold out, locked, escrow-spent) are legitimate
        // outcomes, not errors.
        let _ = self.try_book(1, 5_000 + (op as i64 % 97) * 100, ctx);
    }

    fn resolve_now(&mut self, ctx: &mut dyn Context<IdeaMsg>) {
        // The inherent method: the trait's own name differs, so this can
        // never resolve back to itself.
        self.demand_resolution(ctx);
    }

    fn rejoin(&mut self, peer: NodeId, ctx: &mut dyn Context<IdeaMsg>) {
        self.idea_mut().rejoin_from(peer, ctx);
    }
}

/// One row of the replay trace: the fleet's per-node state hashes right
/// after a scheduled event was applied.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceStep {
    /// Virtual time of the event.
    pub(crate) at: SimTime,
    /// Short label of the applied event.
    pub(crate) label: String,
    /// `state_hash()` of every node, in index order.
    pub(crate) hashes: Vec<u64>,
}

/// The outcome of running one scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Scenario name.
    pub name: String,
    /// Scenario seed.
    pub seed: u64,
    /// Per-event state-hash snapshots, in schedule order.
    pub trace: Vec<TraceStep>,
    /// Every invariant violation observed, in schedule order.
    pub violations: Vec<Violation>,
    /// Whether the post-heal fleet drained its queue inside the budget.
    pub quiescent: bool,
    /// Whether every node ended on the same state hash.
    pub converged: bool,
    /// Final per-node state hashes.
    pub final_hashes: Vec<u64>,
    /// Total messages the engine delivered or dropped across the run.
    pub messages: u64,
    /// Messages dropped by loss/partition injection.
    pub dropped: u64,
}

impl RunReport {
    /// True when the run satisfied every oracle: no invariant violations
    /// and a quiescent, converged fleet after the healing epilogue.
    pub fn clean(&self) -> bool {
        self.violations.is_empty() && self.quiescent && self.converged
    }

    /// The replay identity: two runs of the same scenario on identically
    /// seeded fleets must agree on this entire tuple.
    pub fn replay_key(&self) -> (&[TraceStep], &[u64], u64, u64) {
        (&self.trace, &self.final_hashes, self.messages, self.dropped)
    }
}

/// Drives scenarios against a fleet of [`FaultHost`] nodes.
pub struct FaultRunner<P: FaultHost> {
    eng: SimEngine<P>,
    rebuild: Box<dyn Fn(NodeId, bool) -> P>,
    invariants: Vec<Box<dyn FleetInvariant<P>>>,
    down: Vec<bool>,
}

impl<P: FaultHost> FaultRunner<P> {
    /// Wraps an engine. `rebuild(node, via_wal)` must produce the
    /// replacement host for a recovery — through the WAL-replay path when
    /// `via_wal` (or fall back to fresh when the fleet runs without
    /// durability).
    pub(crate) fn new(eng: SimEngine<P>, rebuild: Box<dyn Fn(NodeId, bool) -> P>) -> Self {
        let n = eng.len();
        FaultRunner { eng, rebuild, invariants: Vec::new(), down: vec![false; n] }
    }

    /// Registers a fleet invariant, checked after every scheduled event
    /// and once more after the healing epilogue.
    pub(crate) fn check(mut self, inv: impl FleetInvariant<P> + 'static) -> Self {
        self.invariants.push(Box::new(inv));
        self
    }

    /// The wrapped engine.
    pub fn engine(&self) -> &SimEngine<P> {
        &self.eng
    }

    /// Mutable access to the wrapped engine (post-run inspection drives).
    pub fn engine_mut(&mut self) -> &mut SimEngine<P> {
        &mut self.eng
    }

    /// Runs the scenario to completion: every event at its scheduled
    /// time, then the healing epilogue (all faults cleared, all nodes
    /// recovered, one demanded resolution, `settle` of virtual time) and
    /// a bounded quiescence drain.
    pub fn run(&mut self, scenario: &Scenario) -> RunReport {
        assert!(scenario.is_monotonic(), "schedule times must be non-decreasing");
        let mut trace = Vec::with_capacity(scenario.events.len());
        let mut violations = Vec::new();
        for sch in &scenario.events {
            self.eng.run_until(sch.at);
            self.apply(&sch.event);
            let hashes = self.hashes();
            self.check_invariants(sch.at, &mut violations);
            trace.push(TraceStep { at: sch.at, label: label(&sch.event), hashes });
        }

        // Healing epilogue: clear every fault layer, bring the dead back
        // (through their WAL), reconcile, settle.
        self.eng.heal_all();
        self.eng.clear_link_loss();
        self.eng.set_reorder_window(SimDuration::ZERO);
        self.eng.set_duplicate_rate(0.0);
        for i in 0..self.eng.len() {
            self.eng.set_clock_skew(NodeId(i as u32), 0);
        }
        for i in 0..self.down.len() {
            if self.down[i] {
                self.recover(NodeId(i as u32), true);
            }
        }
        // Post-partition runbook: the temperature overlay of two healed
        // halves does not re-merge on its own (membership heats only on
        // *observed* updates, and resolution spans top members only), so
        // every node re-announces itself through the rejoin-by-delta
        // path — pull all suffixes into a hub, then the union back out.
        // Background rounds among still-stale subgroups race the runbook:
        // an `Inform` whose winner has not yet pulled the union re-drops
        // it (under `HighestIdWins` the highest id always wins, so it is
        // pushed to first). Repeat the pull/push cycle until the fleet
        // agrees — each pass is deterministic, so so is the pass count.
        let hub = NodeId(0);
        for _pass in 0..4 {
            for i in 1..self.eng.len() {
                let peer = NodeId(i as u32);
                self.eng.with_node(hub, |p, ctx| p.rejoin(peer, ctx));
                self.eng.run_for(SimDuration::from_secs(2));
            }
            for i in (1..self.eng.len()).rev() {
                let id = NodeId(i as u32);
                self.eng.with_node(id, |p, ctx| p.rejoin(hub, ctx));
                self.eng.run_for(SimDuration::from_secs(2));
            }
            if converged(&self.hashes()) {
                break;
            }
        }
        self.eng.with_node(hub, |p, ctx| p.resolve_now(ctx));
        self.eng.run_for(scenario.settle);
        let limit = self.eng.now() + scenario.settle;
        let q = self.eng.run_until_quiescent_bounded(limit, SimEngine::<P>::DEFAULT_EVENT_BUDGET);
        let quiescent = matches!(q, Quiescence::Reached { .. });

        self.check_invariants(self.eng.now(), &mut violations);
        let final_hashes = self.hashes();
        RunReport {
            name: scenario.name.clone(),
            seed: scenario.seed,
            trace,
            violations,
            quiescent,
            converged: converged(&final_hashes),
            final_hashes,
            messages: self.eng.stats().total_messages(),
            dropped: self.eng.stats().dropped(),
        }
    }

    /// Applies one event. References that make no sense in the current
    /// fleet state (crash a down node, work a down node, out-of-range
    /// index) are silent no-ops — the tolerance the shrinker needs.
    fn apply(&mut self, event: &FaultEvent) {
        let n = self.eng.len() as u32;
        match event {
            FaultEvent::Partition { groups } => self.apply_partition(groups),
            FaultEvent::Heal => self.eng.heal_all(),
            FaultEvent::Loss { from, to, p } if *from < n && *to < n => {
                self.eng.set_link_loss(NodeId(*from), NodeId(*to), *p);
            }
            FaultEvent::Loss { .. } => {}
            FaultEvent::Reorder { window } => self.eng.set_reorder_window(*window),
            FaultEvent::Duplicate { p } => self.eng.set_duplicate_rate(*p),
            FaultEvent::Crash { node } if *node < n && !self.down[*node as usize] => {
                let id = NodeId(*node);
                self.eng.pause(id);
                self.eng.drop_parked(id);
                self.down[*node as usize] = true;
            }
            FaultEvent::Crash { .. } => {}
            FaultEvent::Recover { node, via_wal } if *node < n && self.down[*node as usize] => {
                self.recover(NodeId(*node), *via_wal);
            }
            FaultEvent::Recover { .. } => {}
            FaultEvent::ClockSkew { node, ppm } if *node < n => {
                self.eng.set_clock_skew(NodeId(*node), *ppm);
            }
            FaultEvent::ClockSkew { .. } => {}
            FaultEvent::Work(WorkOp::Apply { node, op })
                if *node < n && !self.down[*node as usize] =>
            {
                self.eng.with_node(NodeId(*node), |p, ctx| p.apply_op(*op, ctx));
            }
            FaultEvent::Work(WorkOp::DemandResolution { node })
                if *node < n && !self.down[*node as usize] =>
            {
                self.eng.with_node(NodeId(*node), |p, ctx| p.resolve_now(ctx));
            }
            FaultEvent::Work(_) => {}
        }
    }

    /// Installs a partition layout: nodes in the same group talk, nodes
    /// in different groups (or listed nowhere) do not.
    fn apply_partition(&mut self, groups: &[Vec<u32>]) {
        self.eng.heal_all();
        let n = self.eng.len() as u32;
        let mut class: FastMap<u32, usize> = FastMap::default();
        for (g, members) in groups.iter().enumerate() {
            for m in members {
                class.insert(*m, g);
            }
        }
        // Unlisted nodes each get a unique singleton class.
        for i in 0..n {
            let next = groups.len() + i as usize;
            class.entry(i).or_insert(next);
        }
        for a in 0..n {
            for b in 0..n {
                if a != b && class[&a] != class[&b] {
                    self.eng.partition(NodeId(a), NodeId(b));
                }
            }
        }
    }

    fn recover(&mut self, id: NodeId, via_wal: bool) {
        // Messages that arrived while the node was dead die with it.
        self.eng.drop_parked(id);
        let replacement = (self.rebuild)(id, via_wal);
        *self.eng.node_mut(id) = replacement;
        self.eng.resume(id);
        self.eng.with_node(id, |p, ctx| p.on_start(ctx));
        self.down[id.index()] = false;
        // Rejoin from the lowest-indexed live peer, if any.
        let peer = (0..self.eng.len())
            .map(|i| NodeId(i as u32))
            .find(|p| *p != id && !self.down[p.index()]);
        if let Some(peer) = peer {
            self.eng.with_node(id, |p, ctx| p.rejoin(peer, ctx));
        }
    }

    fn hashes(&self) -> Vec<u64> {
        (0..self.eng.len()).map(|i| self.eng.node(NodeId(i as u32)).state_hash()).collect()
    }

    fn check_invariants(&self, at: SimTime, out: &mut Vec<Violation>) {
        if self.invariants.is_empty() {
            return;
        }
        let fleet: Vec<&P> = (0..self.eng.len()).map(|i| self.eng.node(NodeId(i as u32))).collect();
        for inv in &self.invariants {
            if let Err(detail) = inv.check(&fleet) {
                out.push(Violation { at, invariant: inv.name().to_string(), detail });
            }
        }
    }
}

/// Short human label for a trace row.
fn label(event: &FaultEvent) -> String {
    match event {
        FaultEvent::Partition { groups } => format!("partition{groups:?}"),
        FaultEvent::Heal => "heal".to_string(),
        FaultEvent::Loss { from, to, p } => format!("loss {from}->{to} p={p:.2}"),
        FaultEvent::Reorder { window } => format!("reorder {}us", window.as_micros()),
        FaultEvent::Duplicate { p } => format!("duplicate p={p:.2}"),
        FaultEvent::Crash { node } => format!("crash {node}"),
        FaultEvent::Recover { node, via_wal } => format!("recover {node} via_wal={via_wal}"),
        FaultEvent::ClockSkew { node, ppm } => format!("skew {node} {ppm}ppm"),
        FaultEvent::Work(WorkOp::Apply { node, op }) => format!("work {node} op={op}"),
        FaultEvent::Work(WorkOp::DemandResolution { node }) => format!("demand {node}"),
    }
}
