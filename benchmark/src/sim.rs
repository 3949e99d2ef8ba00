//! The protocol plane on the deterministic engine: no transport, no WAL —
//! detection, resolution, gossip and the simulator's own event machinery.

use crate::ops::{SimAction, SimEvent, SimShape, HINT, META_DELTA};
use crate::stats::LevelHistogram;
use crate::trace::{take_handler_times, BenchNode, HandlerTimes};
use idea::net::MsgClass;
use idea::prelude::{
    Command, EngineHandle, IdeaConfig, IdeaNode, NodeId, ObjectId, Response, SimConfig,
    SimDuration, SimEngine, SimTime, Topology, UpdatePayload,
};
use std::time::Instant;

/// Virtual seconds the engine keeps running after the last scheduled
/// event, so in-flight rounds complete inside the measured window.
const SETTLE_S: u64 = 5;

/// Seed of the simulated testbed: pairwise delays, the engine's jitter and
/// the protocol's back-off draws. Fixed, like the LAN of the served
/// deployment — `--seed` draws the operations, not the machines. (The
/// gossip tree that forms in a run's first seconds persists for the whole
/// run and sets its message count; redrawing the testbed per seed moved
/// `msgs_per_write` by ±40 %, redrawing only the operations by ±10 %.)
const TESTBED_SEED: u64 = 7;

/// Everything a repeat produced that must be bit-identical across repeats
/// of the same seed — and across the traced and untraced passes.
#[derive(Debug, Clone, PartialEq)]
pub struct Fingerprint {
    /// `(class, messages, payload bytes)` in `MsgClass::ALL` order.
    pub per_class: Vec<(MsgClass, u64, u64)>,
    pub dropped: u64,
    pub writes: u64,
    pub failed: u64,
    /// Every polled (writer, object) level estimate.
    pub levels: LevelHistogram,
    /// Sum of `ResolutionRecord::total_delay` over the writers' logs, µs.
    pub resolve_us_total: u64,
    pub resolutions: u64,
    pub resolutions_useful: u64,
    pub rollbacks: u64,
    pub state_hashes: Vec<u64>,
}

impl Fingerprint {
    pub fn msgs(&self, classes: &[MsgClass]) -> u64 {
        self.per_class.iter().filter(|(c, _, _)| classes.contains(c)).map(|(_, m, _)| m).sum()
    }

    pub fn bytes(&self, classes: &[MsgClass]) -> u64 {
        self.per_class.iter().filter(|(c, _, _)| classes.contains(c)).map(|(_, _, b)| b).sum()
    }
}

/// One run of a simulated schedule.
#[derive(Debug)]
pub struct SimRepeat {
    /// Topology + nodes + `SimEngine::new`.
    pub setup_s: f64,
    /// First scheduled event to the end of the settle period.
    pub wall_s: f64,
    pub fingerprint: Fingerprint,
    /// Handler spans (traced passes only), and the three spans the driving
    /// loop is made of, each timed on its own: inside the engine
    /// (`run_until` / `run_for`), inside the writers' `execute` calls, and
    /// inside the harness's level polls.
    pub handlers: HandlerTimes,
    pub engine_ms: f64,
    pub local_write_ms: f64,
    pub driver_ms: f64,
    /// The writers' end-of-run nodes would be needed by the probes; their
    /// version vectors are extracted here instead so the engine can drop.
    pub writer_vectors: Vec<idea::prelude::ExtendedVersionVector>,
}

fn objects(shape: SimShape) -> Vec<ObjectId> {
    (1..=shape.objects).map(ObjectId).collect()
}

/// The set-up a repeat pays before its first event: testbed topology,
/// `nodes` nodes hosting every object, and the engine (which runs each
/// node's `on_start`).
pub fn build<P: BenchNode>(nodes: usize, shape: SimShape) -> SimEngine<P> {
    let objects = objects(shape);
    let cfg = IdeaConfig::whiteboard(HINT);
    let protos: Vec<P> = (0..nodes)
        .map(|i| P::wrap(IdeaNode::new(NodeId(i as u32), cfg.clone(), &objects)))
        .collect();
    SimEngine::new(
        Topology::planetlab(nodes, TESTBED_SEED),
        SimConfig { seed: TESTBED_SEED, ..SimConfig::default() },
        protos,
    )
}

/// Builds the `nodes`-node deployment and drives `events` through it. `P`
/// selects the plain or the timed node.
pub fn run_repeat<P: BenchNode>(nodes: usize, shape: SimShape, events: &[SimEvent]) -> SimRepeat {
    let t0 = Instant::now();
    let mut eng = build::<P>(nodes, shape);
    let setup_s = t0.elapsed().as_secs_f64();
    let objects = objects(shape);
    take_handler_times(); // discard start-up spans

    let writers: Vec<NodeId> = (0..shape.writers).map(NodeId).collect();
    let (mut writes, mut failed) = (0u64, 0u64);
    let mut levels = LevelHistogram::default();
    let (mut engine_ns, mut local_write_ns, mut driver_ns) = (0u128, 0u128, 0u128);

    let start = Instant::now();
    for event in events {
        let t = Instant::now();
        eng.run_until(SimTime(event.at_us));
        engine_ns += t.elapsed().as_nanos();
        let t = Instant::now();
        match &event.action {
            SimAction::Write { writer, object } => {
                let cmd = Command::Write {
                    object: *object,
                    meta_delta: META_DELTA,
                    payload: UpdatePayload::none(),
                };
                writes += 1;
                if !matches!(eng.execute(*writer, cmd), Response::Written { .. }) {
                    failed += 1;
                }
                local_write_ns += t.elapsed().as_nanos();
            }
            SimAction::Poll => {
                for &w in &writers {
                    let node = eng.node(w).idea();
                    for &o in &objects {
                        levels.record(node.level(o).value());
                    }
                }
                driver_ns += t.elapsed().as_nanos();
            }
        }
    }
    let t = Instant::now();
    eng.run_for(SimDuration::from_secs(SETTLE_S));
    engine_ns += t.elapsed().as_nanos();
    let wall_s = start.elapsed().as_secs_f64();
    let handlers = take_handler_times();

    let logs: Vec<_> = writers.iter().flat_map(|&w| eng.node(w).idea().resolution_log()).collect();
    let stats = eng.stats().snapshot();
    let fingerprint = Fingerprint {
        per_class: stats.per_class,
        dropped: stats.dropped,
        writes,
        failed,
        levels,
        resolve_us_total: logs.iter().map(|r| r.total_delay().as_micros()).sum(),
        resolutions: logs.len() as u64,
        resolutions_useful: logs.iter().filter(|r| r.resolved_conflict).count() as u64,
        rollbacks: writers.iter().map(|&w| eng.node(w).idea().report(objects[0]).rollbacks).sum(),
        state_hashes: (0..nodes).map(|i| eng.node(NodeId(i as u32)).idea().state_hash()).collect(),
    };
    let writer_vectors = writers
        .iter()
        .map(|&w| eng.node(w).idea().replica(objects[0]).expect("hosted").version().clone())
        .collect();
    SimRepeat {
        setup_s,
        wall_s,
        fingerprint,
        handlers,
        engine_ms: engine_ns as f64 / 1e6,
        local_write_ms: local_write_ns as f64 / 1e6,
        driver_ms: driver_ns as f64 / 1e6,
        writer_vectors,
    }
}
