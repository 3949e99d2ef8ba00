//! Quickstart: four replicas, one conflict, one adaptive resolution —
//! driven through the typed client layer (sessions + object handles).
//!
//! ```bash
//! cargo run --example quickstart
//! ```
//!
//! The session code below is engine-agnostic: `Session::open` works
//! identically against `SimEngine` and `ShardedEngine`
//! (see `examples/threaded_cluster.rs` for the same API on real threads,
//! and `examples/whiteboard_session.rs` for the low-level closure escape
//! hatch).

use idea::prelude::*;

fn main() {
    // A 4-node PlanetLab-like deployment replicating one shared object.
    let object = ObjectId(1);
    let cfg = IdeaConfig::default();
    let nodes: Vec<IdeaNode> =
        (0..4).map(|i| IdeaNode::new(NodeId(i), cfg.clone(), &[object])).collect();
    let mut net = SimEngine::new(Topology::planetlab(4, 42), SimConfig::default(), nodes);

    // Warm up: every node writes a few times so the temperature overlay
    // (the top layer) forms around the active writers.
    println!("warming up the top layer...");
    for _ in 0..3 {
        for w in 0..4u32 {
            let mut session = Session::open(&mut net, NodeId(w));
            session.object(object).write(1, UpdatePayload::none()).expect("hosted object");
            net.run_for(SimDuration::from_millis(400));
        }
    }
    net.run_for(SimDuration::from_secs(2));
    let top = Session::open(&mut net, NodeId(0)).object(object).report().expect("report");
    println!("top layer at node 0: {:?}", top.top_members);

    // Conflicting concurrent writes: every replica diverges.
    for w in 0..4u32 {
        let mut session = Session::open(&mut net, NodeId(w));
        session.object(object).write(10 + w as i64, UpdatePayload::none()).expect("hosted object");
    }
    net.run_for(SimDuration::from_secs(2));
    for w in 0..4u32 {
        // A consistency-aware read: serve the local replica, and launch an
        // on-demand probe when the estimate sits below 95 %.
        let mut session = Session::open(&mut net, NodeId(w))
            .read_consistency(ReadConsistency::AtLeast(ConsistencyLevel::new(0.95)));
        let read = session.object(object).read().expect("hosted object");
        println!("node {w}: level {} meta {} (probed: {})", read.level, read.meta, read.probed);
    }

    // A user demands resolution; the two-phase protocol converges everyone
    // to the reference state (highest node id wins by default).
    println!("\ndemanding active resolution from node 0...");
    Session::open(&mut net, NodeId(0)).object(object).demand_resolution().expect("hosted object");
    net.run_for(SimDuration::from_secs(5));
    for w in 0..4u32 {
        let rep = Session::open(&mut net, NodeId(w)).object(object).report().expect("report");
        println!("node {w}: level {} meta {}", rep.level, rep.meta);
    }

    let record = &net.node(NodeId(0)).resolution_log()[0];
    println!(
        "\nresolution: phase1 dispatch {}, phase1 acked {}, phase2 {}",
        record.phase1_dispatch, record.phase1_acked, record.phase2
    );
    println!(
        "messages: {} detection, {} resolution-control, {} transfer",
        net.stats().messages(idea::net::MsgClass::Detect),
        net.stats().messages(idea::net::MsgClass::ResolutionCtl),
        net.stats().messages(idea::net::MsgClass::Transfer),
    );
}
